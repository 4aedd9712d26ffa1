//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public API goes
//! through [`span`], which always returns the call's wall time (the
//! untraced runs take their timings from it) and, while tracing is on,
//! also keeps a span record — name, start, end and the enclosing span —
//! in memory. Nothing inside the library is instrumented; the spans
//! sit at the layer boundaries the benchmark itself crosses.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.origin.get_or_insert_with(Instant::now);
    });
}

/// Run `f` as span `name`; returns its value and its wall seconds.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let origin = *r.origin.get_or_insert_with(Instant::now);
        let parent = r.open.last().copied();
        let start = origin.elapsed().as_secs_f64();
        r.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Some(idx)
    });
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r
                .origin
                .expect("set when the span opened")
                .elapsed()
                .as_secs_f64();
            r.spans[idx].end = end;
            r.open.pop();
        });
    }
    (out, wall)
}

/// Per-name count, total and self time (total minus the time covered
/// by direct child spans), as lines of text for standard error.
pub fn summary() -> String {
    REC.with(|r| {
        let r = r.borrow();
        let mut child = vec![0.0f64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += s.end - s.start - child[i];
        }
        let mut out =
            String::from("span                              count    total_s     self_s\n");
        for (name, (n, tot, own)) in by_name {
            out.push_str(&format!("{name:<32} {n:>6} {tot:>10.4} {own:>10.4}\n"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        set_enabled(true);
        let ((), outer) = span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        assert!(outer >= 0.02);
        let text = summary();
        assert!(text.contains("inner") && text.contains("outer"), "{text}");
        set_enabled(false);
    }
}
