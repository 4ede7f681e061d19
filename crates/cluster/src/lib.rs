//! Discrete-event cluster simulator for the scalability study (Fig. 10).
//!
//! The paper measures candidate estimation for 400 models on 8, 16 and 32
//! NVIDIA A100 GPUs. No GPUs exist in this environment, so the experiment is
//! reproduced with a simulator whose inputs are *real measured quantities*
//! from this repository's CPU runs: per-candidate training times, checkpoint
//! sizes, and transfer/matching times. The simulator models
//!
//! * `gpus` identical workers executing a bag of candidate-evaluation tasks,
//! * a parallel file system with finite bandwidth and per-operation latency
//!   (checkpoint writes for every candidate; reads for transferred
//!   children),
//! * a serial scheduler dispatch cost per task — the Ray-evaluator overhead
//!   the paper blames for NT3's sublinear scaling ("the Ray evaluator
//!   frequently changes the objects in its local store", Section VIII-E).
//!
//! Wall-clock scalability of a bag-of-tasks workload is fully determined by
//! these quantities, which is what makes the substitution sound.

pub mod config;
pub mod sim;

pub use config::{ClusterConfig, PfsModel};
pub use sim::{simulate, SimReport, TaskCost};
