#![allow(clippy::needless_range_loop)] // indexing parallel arrays is clearest in these kernels
//! Fixed-precision low-rank approximation of sparse matrices — the
//! algorithms of Ernstbrunner, Mayer & Gansterer (IPDPS 2022).
//!
//! Given `A` and a tolerance `tau`, each method finds a rank `K` and
//! factors with `||A - H_K W_K||_F < tau ||A||_F`:
//!
//! - [`rand_qb_ei`] — randomized QB factorization (Algorithm 1):
//!   dense factors `Q_K B_K`, power scheme, cheap Frobenius error
//!   indicator (eq. 4, valid down to `tau ≈ 2.1e-7`).
//! - [`lu_crtp`] — truncated LU with column & row tournament pivoting
//!   (Algorithm 2): potentially sparse factors `L_K U_K`, error
//!   indicator `||A^(i+1)||_F` (eq. 9), fill-in sensitive.
//! - [`ilut_crtp`] — incomplete LU_CRTP with thresholding
//!   (Algorithm 3, the paper's contribution): drops Schur-complement
//!   entries below `mu` (eq. 24) under the control bound `phi`
//!   (eq. 22), trading a bounded perturbation for much less fill-in.
//! - [`rand_ubv`] — randomized block bidiagonalization
//!   (Hallman 2021), the sequential comparison method of Table II.
//!
//! All methods report per-kernel timers ([`KernelTimers`]) so the
//! benchmark harness can regenerate the paper's Figs. 5-6 kernel
//! breakdowns, and per-iteration traces for the fill-in plots (Fig. 1).

mod checkpoint;
mod explore;
mod lucrtp;
mod outcome;
mod qb;
mod spmd;
mod supervised;
mod timers;
mod ubv;

pub use checkpoint::{IlutCheckpoint, LuCrtpCheckpoint, QbCheckpoint, RecoveryHooks};
pub use explore::{
    explore_fault_space, ExploreConfig, ExplorerReport, InjectionSite, SiteOutcome, SiteVerdict,
};
pub use lucrtp::{
    ilut_crtp, ilut_crtp_checkpointed, lu_crtp, lu_crtp_checkpointed, Breakdown, DropStrategy,
    IlutOpts, InvalidInput, IterTrace, LFormation, LuCrtpOpts, LuCrtpResult, MemStats,
    OrderingMode, ThresholdReport,
};
pub use outcome::{Interrupted, JobId, Outcome, Parked, ResumeHandle};
pub use qb::{rand_qb_ei, rand_qb_ei_checkpointed, QbError, QbOpts, QbResult, QB_INDICATOR_FLOOR};
pub use spmd::{
    ilut_crtp_dist, ilut_crtp_dist_checked, ilut_crtp_spmd, ilut_crtp_spmd_checkpointed,
    ilut_crtp_spmd_eager, ilut_crtp_spmd_replicated, lu_crtp_dist, lu_crtp_dist_checked,
    lu_crtp_spmd, lu_crtp_spmd_checkpointed, lu_crtp_spmd_eager, lu_crtp_spmd_replicated,
};
pub use supervised::{
    ilut_crtp_supervised, ilut_crtp_supervised_with_store, lu_crtp_supervised,
    lu_crtp_supervised_with_store, SupervisedError,
};
pub use timers::{KernelId, KernelTimers, ALL_KERNELS, N_KERNELS};
pub use ubv::{rand_ubv, UbvOpts, UbvResult};

// Re-export the option types callers need alongside.
pub use lra_comm::{CommError, CommStats, FaultPlan, RunConfig};
pub use lra_dense::Numerics;
pub use lra_par::Parallelism;
pub use lra_qrtp::TournamentTree;
pub use lra_recover::{
    Budget, BudgetTrip, CancelToken, Checkpoint, CheckpointStore, RecoveryError, RecoveryEvent,
    RecoveryPolicy, StorageFaultKind, StorageFaultPlan, Supervised,
};
