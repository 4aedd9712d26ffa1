//! Checkpoint persistence: checksummed generational envelopes.
//!
//! A [`Checkpoint`] is an algorithm-defined snapshot of iteration state
//! serialized through the `lra-obs` [`Json`] writer. Because that
//! writer prints finite `f64`s with Rust's shortest round-trip
//! formatting, a serialize → parse cycle is *bitwise exact* — resuming
//! from a checkpoint reproduces the uninterrupted run bit for bit (on
//! the same rank count; the reduction-tree shape depends on `np`). The
//! same property makes the envelope checksum *recomputable*: parsing a
//! stored document and re-printing its `state` yields the exact byte
//! string the CRC was computed over at save time.
//!
//! A [`CheckpointStore`] holds a short window of *generations* (default
//! [`DEFAULT_RETENTION`]) rather than a single latest snapshot. Each
//! save publishes envelope version [`CHECKPOINT_VERSION`]:
//!
//! ```json
//! {"kind":"lu_crtp","version":2,"generation":7,"iteration":7,
//!  "crc32":3735928559,"state":{...}}
//! ```
//!
//! where `crc32` covers every other envelope field plus the serialized
//! state (see the canonical byte string in `envelope_crc`). At load
//! time the store scans generations newest-first; a generation that is
//! torn, truncated, bit-flipped, or otherwise fails validation is
//! skipped with a [`RecoveryEvent::CorruptCheckpoint`] and the scan
//! *rolls back* to the next older generation
//! ([`RecoveryEvent::Rollback`]). Version-1 envelopes (no CRC, single
//! file at the base path) remain readable as the oldest generation.
//!
//! The on-disk variant is crash-safe: a save writes a unique
//! per-process temporary file, fsyncs it, atomically renames it to
//! `ckpt.<gen>.json`, and fsyncs the parent directory so the rename
//! itself survives power loss. Old generations beyond the retention
//! window are pruned after each successful publish.
//!
//! For fault-space exploration a store can carry a
//! [`StorageFaultPlan`](crate::StorageFaultPlan) injecting torn writes,
//! bit flips, ENOSPC, crash-before-rename, and stale reads at chosen
//! save/load indices — deterministic and replayable, mirroring
//! `lra-comm`'s chaos `FaultPlan`.

use crate::events::{record_event, RecoveryEvent};
use crate::fault::{record_injection, StorageFaultKind, StorageFaultPlan};
use lra_obs::crc::crc32;
use lra_obs::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Envelope schema version for newly serialized checkpoints.
pub const CHECKPOINT_VERSION: u64 = 2;

/// How many generations a store keeps by default. Three survives the
/// worst single-fault case (newest torn by a crash mid-write, the one
/// before it suspect) with one known-good snapshot to spare.
pub const DEFAULT_RETENTION: usize = 3;

/// A resumable snapshot of an iteration-structured algorithm.
///
/// Implementations serialize their full loop state: everything needed
/// to continue from `iteration() + 1` as if the run had never stopped.
pub trait Checkpoint: Sized {
    /// Stable snapshot-kind discriminator (e.g. `"lu_crtp"`); a store
    /// refuses to load a snapshot of the wrong kind.
    const KIND: &'static str;

    /// The last completed iteration this snapshot covers (1-based).
    fn iteration(&self) -> usize;

    /// Serialize the loop state (without the envelope — the store adds
    /// `kind`/`version`/`generation`/`iteration`/`crc32` around it).
    fn state_to_json(&self) -> Json;

    /// Rebuild the loop state from [`Checkpoint::state_to_json`]'s
    /// output.
    fn state_from_json(state: &Json) -> Result<Self, String>;
}

enum Inner {
    /// Published generations, oldest first.
    Memory(Mutex<Vec<(u64, String)>>),
    /// Base path; generations live beside it as `<stem>.<gen>.<ext>`.
    Disk(PathBuf),
}

/// Generational persistence for one algorithm run's checkpoints.
pub struct CheckpointStore {
    inner: Inner,
    retention: usize,
    faults: StorageFaultPlan,
    saves: AtomicU64,
    loads: AtomicU64,
}

/// Why one generation failed to decode.
enum Decode {
    /// The stored bytes are damaged (torn, flipped, truncated,
    /// unparseable) — skip this generation and roll back.
    Corrupt(String),
    /// The document is intact but the caller asked for the wrong thing
    /// (kind mismatch) — a programming error, not storage damage.
    Hard(String),
}

impl CheckpointStore {
    /// A store living in this process's memory.
    pub fn in_memory() -> Self {
        CheckpointStore {
            inner: Inner::Memory(Mutex::new(Vec::new())),
            retention: DEFAULT_RETENTION,
            faults: StorageFaultPlan::new(),
            saves: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        }
    }

    /// A store persisting generations beside `path`: a base path of
    /// `dir/ckpt.json` publishes `dir/ckpt.1.json`, `dir/ckpt.2.json`,
    /// … A legacy version-1 file at exactly `path` is still readable
    /// (as the oldest generation).
    pub fn on_disk(path: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            inner: Inner::Disk(path.into()),
            retention: DEFAULT_RETENTION,
            faults: StorageFaultPlan::new(),
            saves: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        }
    }

    /// Keep up to `n` generations (min 1) instead of
    /// [`DEFAULT_RETENTION`].
    pub fn with_retention(mut self, n: usize) -> Self {
        self.retention = n.max(1);
        self
    }

    /// Inject storage faults from `plan` (indexed by this store's save
    /// and load counters).
    pub fn with_faults(mut self, plan: StorageFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Persist `ckpt` as a new generation and record a
    /// [`RecoveryEvent::Checkpoint`]. Fails on real I/O errors (and on
    /// injected ENOSPC); previously published generations are never
    /// touched by a failed save.
    pub fn save<C: Checkpoint>(&self, ckpt: &C) -> Result<(), String> {
        let save_index = self.saves.fetch_add(1, Ordering::Relaxed);
        if self.faults.enospc_for(save_index) {
            record_injection(StorageFaultKind::Enospc);
            return Err(format!(
                "checkpoint write (save #{save_index}): no space left on device [injected]"
            ));
        }

        let generation = self.next_generation()?;
        let state = ckpt.state_to_json();
        let state_text = state.to_string();
        let crc = envelope_crc(C::KIND, generation, ckpt.iteration() as u64, &state_text);
        let doc = Json::Obj(vec![
            ("kind".to_string(), Json::Str(C::KIND.to_string())),
            ("version".to_string(), Json::Num(CHECKPOINT_VERSION as f64)),
            ("generation".to_string(), Json::Num(generation as f64)),
            ("iteration".to_string(), Json::Num(ckpt.iteration() as f64)),
            ("crc32".to_string(), Json::Num(crc as f64)),
            ("state".to_string(), state),
        ]);
        let mut bytes = doc.to_string().into_bytes();

        if let Some(keep) = self.faults.torn_for(save_index) {
            record_injection(StorageFaultKind::TornWrite);
            bytes.truncate((keep % bytes.len().max(1) as u64) as usize);
        }
        if let Some(bit) = self.faults.flip_for(save_index) {
            if !bytes.is_empty() {
                record_injection(StorageFaultKind::BitFlip);
                let bit = bit % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        let crash = self.faults.crash_for(save_index);
        if crash {
            record_injection(StorageFaultKind::CrashBeforeRename);
        }

        match &self.inner {
            Inner::Memory(slot) => {
                if !crash {
                    let mut gens = slot.lock().unwrap_or_else(|p| p.into_inner());
                    gens.push((generation, String::from_utf8_lossy(&bytes).into_owned()));
                    let retain = self.retention;
                    while gens.len() > retain {
                        gens.remove(0);
                    }
                }
            }
            Inner::Disk(base) => {
                let target = generation_path(base, generation);
                let tmp = tmp_path(base, generation, save_index);
                write_synced(&tmp, &bytes)?;
                if crash {
                    // The "process" died after the tmp fsync but before
                    // the publish: the generation never becomes visible
                    // and the tmp file is stranded for `clear`.
                    record_event(&RecoveryEvent::Checkpoint {
                        kind: C::KIND,
                        iteration: ckpt.iteration(),
                    });
                    return Ok(());
                }
                std::fs::rename(&tmp, &target)
                    .map_err(|e| format!("checkpoint rename to {}: {e}", target.display()))?;
                sync_parent_dir(base);
                self.prune(base);
            }
        }

        record_event(&RecoveryEvent::Checkpoint {
            kind: C::KIND,
            iteration: ckpt.iteration(),
        });
        Ok(())
    }

    /// Load the most recent *valid* snapshot, scanning generations
    /// newest-first. Corrupt generations (torn, truncated, flipped,
    /// CRC-mismatched, unparseable state) are skipped with a
    /// [`RecoveryEvent::CorruptCheckpoint`]; succeeding on an older
    /// generation records a [`RecoveryEvent::Rollback`].
    ///
    /// Returns `Ok(None)` when no snapshot exists at all, and `Err` on
    /// a kind mismatch (caller bug), when every existing generation is
    /// corrupt, or on a real I/O failure (permissions, media errors —
    /// *not* "file not found", which is a normal fresh start).
    pub fn load<C: Checkpoint>(&self) -> Result<Option<C>, String> {
        let load_index = self.loads.fetch_add(1, Ordering::Relaxed);
        let mut candidates = self.candidates()?;
        if candidates.is_empty() {
            return Ok(None);
        }
        let newest = candidates[0].0;
        if self.faults.stale_for(load_index) {
            record_injection(StorageFaultKind::StaleRead);
            candidates.remove(0);
            if candidates.is_empty() {
                return Ok(None);
            }
        }

        let mut rolled_past = false;
        let mut last_reason = String::new();
        for (generation, text) in candidates {
            match decode::<C>(&text, generation) {
                Ok(ckpt) => {
                    if rolled_past {
                        record_event(&RecoveryEvent::Rollback {
                            from: newest,
                            to: generation,
                        });
                    }
                    return Ok(Some(ckpt));
                }
                Err(Decode::Corrupt(reason)) => {
                    record_event(&RecoveryEvent::CorruptCheckpoint {
                        generation,
                        reason: reason.clone(),
                    });
                    last_reason = reason;
                    rolled_past = true;
                }
                Err(Decode::Hard(e)) => return Err(e),
            }
        }
        Err(format!(
            "no valid checkpoint generation (newest was {newest}): {last_reason}"
        ))
    }

    /// Drop every stored generation, the legacy single-file snapshot,
    /// and any stranded temporary files (e.g. after a run completes, so
    /// a later run cannot accidentally resume stale state).
    pub fn clear(&self) {
        match &self.inner {
            Inner::Memory(slot) => {
                slot.lock().unwrap_or_else(|p| p.into_inner()).clear();
            }
            Inner::Disk(base) => {
                if let Ok(gens) = disk_generations(base) {
                    for (_, path) in gens {
                        let _ = std::fs::remove_file(path);
                    }
                }
                let _ = std::fs::remove_file(base);
                sweep_tmp_files(base);
            }
        }
    }

    /// Number of save calls issued through this store (the index space
    /// [`StorageFaultPlan`] save faults address).
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Number of load calls issued through this store (the index space
    /// [`StorageFaultPlan`] stale reads address).
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Published generation numbers, oldest first (0 denotes a legacy
    /// single-file snapshot at the base path).
    pub fn generations(&self) -> Vec<u64> {
        match self.candidates() {
            Ok(mut c) => {
                c.reverse();
                c.into_iter().map(|(g, _)| g).collect()
            }
            Err(_) => Vec::new(),
        }
    }

    /// The serialized newest generation, if any. `Ok(None)` means no
    /// snapshot exists; `Err` is a real I/O failure.
    pub fn raw(&self) -> Result<Option<String>, String> {
        Ok(self.candidates()?.into_iter().next().map(|(_, t)| t))
    }

    /// Next generation number to publish (1 + the newest existing).
    fn next_generation(&self) -> Result<u64, String> {
        Ok(match &self.inner {
            Inner::Memory(slot) => slot
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .last()
                .map(|(g, _)| *g)
                .unwrap_or(0)
                + 1,
            // A legacy v1 file at the base path counts as generation 0,
            // so the first new publish is 1 either way.
            Inner::Disk(base) => {
                disk_generations(base)?.last().map(|(g, _)| *g).unwrap_or(0) + 1
            }
        })
    }

    /// All readable generations, newest first, as `(generation, text)`.
    fn candidates(&self) -> Result<Vec<(u64, String)>, String> {
        match &self.inner {
            Inner::Memory(slot) => {
                let gens = slot.lock().unwrap_or_else(|p| p.into_inner());
                Ok(gens.iter().rev().map(|(g, t)| (*g, t.clone())).collect())
            }
            Inner::Disk(base) => {
                let mut out = Vec::new();
                for (generation, path) in disk_generations(base)?.into_iter().rev() {
                    match std::fs::read(&path) {
                        // Damaged bytes must reach `decode` (which
                        // classifies them), so non-UTF-8 reads are
                        // lossy-converted rather than erroring here.
                        Ok(bytes) => {
                            out.push((generation, String::from_utf8_lossy(&bytes).into_owned()))
                        }
                        // Pruned between the scan and the read: not an
                        // error, just a generation that no longer
                        // exists.
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                        Err(e) => {
                            return Err(format!("checkpoint read {}: {e}", path.display()))
                        }
                    }
                }
                match std::fs::read(base) {
                    Ok(bytes) => out.push((0, String::from_utf8_lossy(&bytes).into_owned())),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(format!("checkpoint read {}: {e}", base.display())),
                }
                Ok(out)
            }
        }
    }

    /// Remove generations beyond the retention window (best-effort; a
    /// failed unlink only delays pruning to the next save).
    fn prune(&self, base: &Path) {
        if let Ok(gens) = disk_generations(base) {
            if gens.len() > self.retention {
                let excess = gens.len() - self.retention;
                for (_, path) in gens.into_iter().take(excess) {
                    let _ = std::fs::remove_file(path);
                }
                sync_parent_dir(base);
            }
        }
    }
}

/// The canonical byte string the envelope CRC covers. `\x00` cannot
/// appear in any field (kind is a Rust identifier-like literal, the
/// rest are decimal integers / JSON text), so the encoding is
/// unambiguous.
fn envelope_crc(kind: &str, generation: u64, iteration: u64, state_text: &str) -> u32 {
    crc32(
        format!("{kind}\x00{CHECKPOINT_VERSION}\x00{iteration}\x00{generation}\x00{state_text}")
            .as_bytes(),
    )
}

/// Decode one stored generation. `Corrupt` means "skip and roll back";
/// `Hard` means the document is fine but the caller is wrong.
fn decode<C: Checkpoint>(text: &str, generation: u64) -> Result<C, Decode> {
    let doc = Json::parse(text).map_err(|e| Decode::Corrupt(format!("parse: {e}")))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| Decode::Corrupt("missing version".into()))?;
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| Decode::Corrupt("missing kind".into()))?;
    let state = doc
        .get("state")
        .ok_or_else(|| Decode::Corrupt("missing state".into()))?;

    match version {
        1 => {
            // Legacy envelope: no CRC, no generation field. Kind and
            // state are validated as before.
            if kind != C::KIND {
                return Err(Decode::Hard(format!(
                    "checkpoint kind mismatch: stored {kind:?}, expected {:?}",
                    C::KIND
                )));
            }
            C::state_from_json(state).map_err(Decode::Corrupt)
        }
        2 => {
            let stored_gen = doc
                .get("generation")
                .and_then(Json::as_u64)
                .ok_or_else(|| Decode::Corrupt("missing generation".into()))?;
            let iteration = doc
                .get("iteration")
                .and_then(Json::as_u64)
                .ok_or_else(|| Decode::Corrupt("missing iteration".into()))?;
            let stored_crc = doc
                .get("crc32")
                .and_then(Json::as_u64)
                .ok_or_else(|| Decode::Corrupt("missing crc32".into()))?;
            let computed = envelope_crc(kind, stored_gen, iteration, &state.to_string());
            if stored_crc != computed as u64 {
                return Err(Decode::Corrupt(format!(
                    "crc mismatch: stored {stored_crc}, computed {computed}"
                )));
            }
            // Generation 0 is the legacy base-path slot; a v2 document
            // found there is out of place and untrusted.
            if stored_gen != generation {
                return Err(Decode::Corrupt(format!(
                    "generation mismatch: envelope says {stored_gen}, slot is {generation}"
                )));
            }
            // The CRC covers the kind, so a mismatch here is a genuine
            // cross-load (caller bug), not bit rot.
            if kind != C::KIND {
                return Err(Decode::Hard(format!(
                    "checkpoint kind mismatch: stored {kind:?}, expected {:?}",
                    C::KIND
                )));
            }
            C::state_from_json(state).map_err(Decode::Corrupt)
        }
        v => Err(Decode::Corrupt(format!(
            "unsupported checkpoint version {v} (supported: 1, {CHECKPOINT_VERSION})"
        ))),
    }
}

/// `dir/ckpt.json` → `dir/ckpt.<gen>.json`; extensionless bases get
/// `dir/ckpt.<gen>`.
fn generation_path(base: &Path, generation: u64) -> PathBuf {
    let (stem, ext) = split_name(base);
    let name = match ext {
        Some(ext) => format!("{stem}.{generation}.{ext}"),
        None => format!("{stem}.{generation}"),
    };
    base.with_file_name(name)
}

/// Unique per-process temporary name: hidden (never matches the
/// generation scan), disambiguated by pid and a process-wide sequence
/// number so concurrent stores — even two stores on the *same* base
/// path — never collide, and multi-dot base names survive intact.
fn tmp_path(base: &Path, generation: u64, save_index: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let file = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_string());
    let pid = std::process::id();
    base.with_file_name(format!(".{file}.{generation}.{pid}-{seq}-{save_index}.tmp"))
}

/// Split a base file name at its last dot: `ckpt.v2.json` → (`ckpt.v2`,
/// `json`). (The old `Path::with_extension` approach collapsed this to
/// `ckpt.tmp`, colliding across stores and mangling multi-dot names.)
fn split_name(base: &Path) -> (String, Option<String>) {
    let name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_string());
    match name.rfind('.') {
        Some(i) if i > 0 => (name[..i].to_string(), Some(name[i + 1..].to_string())),
        _ => (name, None),
    }
}

fn parent_dir(base: &Path) -> PathBuf {
    match base.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Enumerate generation files beside `base`, oldest first. A missing
/// parent directory is an empty store; any other directory-scan failure
/// is a real I/O error.
fn disk_generations(base: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let dir = parent_dir(base);
    let (stem, ext) = split_name(base);
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("checkpoint scan {}: {e}", dir.display())),
    };
    let prefix = format!("{stem}.");
    let suffix = ext.map(|e| format!(".{e}")).unwrap_or_default();
    let mut gens = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(middle) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(&suffix))
        else {
            continue;
        };
        if let Ok(generation) = middle.parse::<u64>() {
            gens.push((generation, dir.join(name)));
        }
    }
    gens.sort_unstable_by_key(|(g, _)| *g);
    Ok(gens)
}

/// Remove stranded `.{name}.*.tmp` files for `base` (crashed saves).
fn sweep_tmp_files(base: &Path) {
    let dir = parent_dir(base);
    let file = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_string());
    let prefix = format!(".{file}.");
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&prefix) && name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Write `bytes` to `path` and fsync the file, so the rename that
/// follows publishes fully-persisted data.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)
        .map_err(|e| format!("checkpoint write {}: {e}", path.display()))?;
    f.write_all(bytes)
        .map_err(|e| format!("checkpoint write {}: {e}", path.display()))?;
    f.sync_all()
        .map_err(|e| format!("checkpoint fsync {}: {e}", path.display()))?;
    Ok(())
}

/// Fsync the directory containing `base` so a just-published rename
/// survives power loss. Best-effort: not every filesystem supports
/// directory fsync, and a failure here only weakens durability, never
/// correctness.
fn sync_parent_dir(base: &Path) {
    if let Ok(dir) = std::fs::File::open(parent_dir(base)) {
        let _ = dir.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_obs::MetricValue;

    fn counter(name: &str) -> u64 {
        match lra_obs::metrics::global().get(name) {
            Some(MetricValue::Counter(c)) => c,
            _ => 0,
        }
    }

    /// Held by every test that loads a corrupt generation: each such
    /// load bumps the process-global `recover.corrupt_checkpoint` (and
    /// possibly `recover.rollback`) counter, so serializing them keeps
    /// the exact-delta assertions free of sibling-test interference.
    static CORRUPT_LOADS: Mutex<()> = Mutex::new(());

    fn corrupt_loads_lock() -> std::sync::MutexGuard<'static, ()> {
        // A failing sibling poisons the lock; the guarded state is `()`.
        CORRUPT_LOADS.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[derive(Debug)]
    struct Toy {
        it: usize,
        xs: Vec<f64>,
    }

    impl Checkpoint for Toy {
        const KIND: &'static str = "toy";

        fn iteration(&self) -> usize {
            self.it
        }

        fn state_to_json(&self) -> Json {
            Json::Obj(vec![(
                "xs".to_string(),
                Json::Arr(self.xs.iter().map(|&x| Json::Num(x)).collect()),
            )])
        }

        fn state_from_json(state: &Json) -> Result<Self, String> {
            let xs = state
                .get("xs")
                .and_then(Json::as_arr)
                .ok_or("missing xs")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-number"))
                .collect::<Result<Vec<f64>, _>>()?;
            Ok(Toy { it: 0, xs })
        }
    }

    #[derive(Debug)]
    struct OtherKind;

    impl Checkpoint for OtherKind {
        const KIND: &'static str = "other";

        fn iteration(&self) -> usize {
            0
        }

        fn state_to_json(&self) -> Json {
            Json::Null
        }

        fn state_from_json(_: &Json) -> Result<Self, String> {
            Ok(OtherKind)
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lra_recover_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_roundtrip_is_bitwise() {
        let store = CheckpointStore::in_memory();
        assert!(store.load::<Toy>().unwrap().is_none());
        // Values chosen to stress float printing (subnormal, huge,
        // non-terminating binary fractions).
        let xs = vec![0.1, -3.5e300, f64::MIN_POSITIVE, 1.0 / 3.0, -0.0];
        store.save(&Toy { it: 7, xs: xs.clone() }).unwrap();
        let back = store.load::<Toy>().unwrap().unwrap();
        for (a, b) in xs.iter().zip(&back.xs) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_eq!(store.saves(), 1);
        store.clear();
        assert!(store.load::<Toy>().unwrap().is_none());
    }

    #[test]
    fn latest_snapshot_wins() {
        let store = CheckpointStore::in_memory();
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(store.saves(), 2);
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let store = CheckpointStore::in_memory();
        store.save(&Toy { it: 1, xs: vec![] }).unwrap();
        let err = store.load::<OtherKind>().unwrap_err();
        assert!(err.contains("kind mismatch"), "{err}");
    }

    #[test]
    fn disk_store_roundtrips_and_clears() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        assert!(store.load::<Toy>().unwrap().is_none());
        store.save(&Toy { it: 3, xs: vec![0.25, 9.0] }).unwrap();
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![0.25, 9.0]);
        store.clear();
        assert!(store.load::<Toy>().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_window_prunes_old_generations() {
        let dir = temp_dir("retention");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path).with_retention(3);
        for it in 1..=5 {
            store.save(&Toy { it, xs: vec![it as f64] }).unwrap();
        }
        assert_eq!(store.generations(), vec![3, 4, 5]);
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![5.0]);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 3, "pruned to the retention window");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_generation_rolls_back() {
        let _serial = corrupt_loads_lock();
        let dir = temp_dir("rollback");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        store.save(&Toy { it: 1, xs: vec![1.5] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.5] }).unwrap();
        // Truncate generation 2 mid-envelope (a torn write at the
        // filesystem level, outside any fault plan).
        let g2 = generation_path(&path, 2);
        let text = std::fs::read_to_string(&g2).unwrap();
        std::fs::write(&g2, &text[..text.len() / 2]).unwrap();

        let corrupt0 = counter("recover.corrupt_checkpoint");
        let rollback0 = counter("recover.rollback");
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![1.5], "rolled back to generation 1");
        assert_eq!(counter("recover.corrupt_checkpoint"), corrupt0 + 1);
        assert_eq!(counter("recover.rollback"), rollback0 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_caught_by_the_crc() {
        let _serial = corrupt_loads_lock();
        let dir = temp_dir("bitflip");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        // Flip one bit inside generation 2's state payload: the JSON
        // may still parse, but the CRC must reject it.
        let g2 = generation_path(&path, 2);
        let mut bytes = std::fs::read(&g2).unwrap();
        let pos = bytes.len() - 4; // inside "2]}" tail digits
        bytes[pos] ^= 0x01;
        std::fs::write(&g2, &bytes).unwrap();
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![1.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let _serial = corrupt_loads_lock();
        let store = CheckpointStore::in_memory();
        // An inconsistent state (missing xs) decodes as Corrupt; with
        // no older generation to fall back to, load must surface the
        // reason, not panic or silently return None.
        let slot = match &store.inner {
            Inner::Memory(m) => m,
            _ => unreachable!(),
        };
        let state_text = r#"{"nope":true}"#.to_string();
        let crc = envelope_crc("toy", 1, 4, &state_text);
        slot.lock().unwrap().push((
            1,
            format!(
                r#"{{"kind":"toy","version":2,"generation":1,"iteration":4,"crc32":{crc},"state":{state_text}}}"#
            ),
        ));
        let err = store.load::<Toy>().unwrap_err();
        assert!(err.contains("missing xs"), "{err}");
    }

    #[test]
    fn legacy_v1_envelope_still_loads() {
        let dir = temp_dir("legacy");
        let path = dir.join("ckpt.json");
        std::fs::write(
            &path,
            r#"{"kind":"toy","version":1,"iteration":5,"state":{"xs":[7.25]}}"#,
        )
        .unwrap();
        let store = CheckpointStore::on_disk(&path);
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![7.25]);
        // New saves publish v2 generations that shadow the legacy file.
        store.save(&Toy { it: 6, xs: vec![8.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![8.0]);
        assert_eq!(store.generations(), vec![0, 1]);
        store.clear();
        assert!(store.load::<Toy>().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_io_errors_surface_instead_of_fresh_start() {
        let dir = temp_dir("ioerr");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        // Replace generation 1 with a *directory*: reading it fails
        // with a real I/O error (EISDIR), which must become Err — a
        // silent fresh start here would drop committed work.
        let g1 = generation_path(&path, 1);
        std::fs::remove_file(&g1).unwrap();
        std::fs::create_dir(&g1).unwrap();
        let err = store.load::<Toy>().unwrap_err();
        assert!(err.contains("checkpoint read"), "{err}");
        assert!(store.raw().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_dot_base_names_do_not_collide() {
        let dir = temp_dir("multidot");
        let a = CheckpointStore::on_disk(dir.join("a.json"));
        let b = CheckpointStore::on_disk(dir.join("a.b.json"));
        a.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        b.save(&Toy { it: 1, xs: vec![-1.0] }).unwrap();
        a.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        b.save(&Toy { it: 2, xs: vec![-2.0] }).unwrap();
        assert_eq!(a.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(b.load::<Toy>().unwrap().unwrap().xs, vec![-2.0]);
        assert_eq!(a.generations(), vec![1, 2], "b's files are not a's");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_fails_the_save_and_preserves_history() {
        let store = CheckpointStore::in_memory()
            .with_faults(StorageFaultPlan::new().enospc_at(1));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        let err = store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap_err();
        assert!(err.contains("no space left"), "{err}");
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0]);
        // The counter advanced past the failed save; the next save works.
        store.save(&Toy { it: 3, xs: vec![3.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![3.0]);
    }

    #[test]
    fn injected_torn_write_rolls_back_at_load() {
        let _serial = corrupt_loads_lock();
        let store = CheckpointStore::in_memory()
            .with_faults(StorageFaultPlan::new().torn_write_at(1, 30));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0]);
    }

    #[test]
    fn injected_crash_before_rename_strands_a_tmp_file() {
        let dir = temp_dir("crash");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path)
            .with_faults(StorageFaultPlan::new().crash_before_rename_at(1));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap(); // "crashes"
        assert_eq!(store.generations(), vec![1], "generation 2 never published");
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0]);
        let tmps = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(tmps, 1, "the crashed save's tmp file is stranded");
        store.clear();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "clear sweeps tmps");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_stale_read_serves_the_previous_generation() {
        let store = CheckpointStore::in_memory()
            .with_faults(StorageFaultPlan::new().stale_read_at(1));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0], "load #1 is stale");
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(store.loads(), 3);
    }
}
