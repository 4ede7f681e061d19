//! Single-threaded replay of sampled candidates through the public layer
//! functions, timing each call from outside. The calls and their order are
//! those of `Evaluator::evaluate` and `Trainer::fit`, so the replayed score
//! must equal the run's score bit for bit; anything else means the replay
//! measured different arithmetic.

use crate::probe::TimedStore;
use std::time::Instant;
use swt::checkpoint::CheckpointStore;
use swt::core::{apply_transfer, ShapeSeq, TransferPlan, TransferScheme};
use swt::data::AppProblem;
use swt::nas::{candidate_seed, StopReason, TraceEvent};
use swt::nn::{Adam, AdamConfig, Model, Trainer};
use swt::space::SearchSpace;
use swt::tensor::{Rng, Tensor, Workspace};

/// Replay ledger rows, in the order a candidate's evaluation visits them.
pub const ROWS: [&str; 12] = [
    "nn.build",
    "ckpt.index_read",
    "core.plan",
    "ckpt.tensor_read",
    "core.copy_in",
    "nn.batch",
    "nn.forward",
    "nn.loss",
    "nn.backward",
    "nn.optimizer",
    "nn.val",
    "ckpt.save",
];

fn row(name: &str) -> usize {
    ROWS.iter().position(|r| *r == name).expect("known ledger row")
}

#[derive(Debug, Default)]
pub struct Replay {
    /// Exclusive seconds per row of [`ROWS`].
    pub secs: [f64; ROWS.len()],
    /// Sum of whole-candidate replay walls.
    pub wall: f64,
    pub candidates: usize,
    /// Candidates whose replayed score differs from the trace, with both.
    pub mismatches: Vec<(u64, f64, f64)>,
    pub tensors_moved: usize,
    pub bytes_moved: usize,
    pub samples_trained: usize,
}

impl Replay {
    pub fn get(&self, name: &str) -> f64 {
        self.secs[row(name)]
    }
}

/// Evenly spaced sample of `n` trained candidates (pre-filtered ones never
/// trained, so they have nothing to replay).
pub fn sample(events: &[TraceEvent], n: usize) -> Vec<&TraceEvent> {
    let trained: Vec<&TraceEvent> =
        events.iter().filter(|e| e.stop != StopReason::Prefiltered).collect();
    let stride = (trained.len() / n.max(1)).max(1);
    trained.into_iter().step_by(stride).take(n).collect()
}

pub struct ReplayRun<'a, S: CheckpointStore> {
    pub problem: &'a AppProblem,
    pub space: &'a SearchSpace,
    pub store: &'a TimedStore<S>,
    pub scheme: TransferScheme,
    pub run_seed: u64,
}

impl<S: CheckpointStore> ReplayRun<'_, S> {
    /// Replay `events`; `epochs(rung)` gives each candidate's epoch budget.
    pub fn run(&self, events: &[&TraceEvent], epochs: impl Fn(u8) -> usize) -> Replay {
        let mut out = Replay::default();
        let mut ws = Workspace::new();
        for e in events {
            let t_cand = Instant::now();
            let score = self.candidate(e, epochs(e.rung), &mut ws, &mut out);
            out.wall += t_cand.elapsed().as_secs_f64();
            out.candidates += 1;
            if score.to_bits() != e.score.to_bits() {
                out.mismatches.push((e.id, e.score, score));
            }
        }
        out
    }

    fn candidate(
        &self,
        e: &TraceEvent,
        epochs: usize,
        ws: &mut Workspace,
        out: &mut Replay,
    ) -> f64 {
        let mut clock = Instant::now();
        let mut lap = |out: &mut Replay, name: &str| {
            let now = Instant::now();
            out.secs[row(name)] += (now - clock).as_secs_f64();
            clock = now;
        };
        let seed = candidate_seed(self.run_seed, e.id);
        let spec = self.space.materialize(&e.arch).expect("trace arch materialises");
        let mut model = Model::build(&spec, seed).expect("materialised spec builds");
        model.set_workspace(std::mem::take(ws));
        lap(out, "nn.build");

        if let (Some(matcher), Some(parent)) = (self.scheme.matcher(), e.parent) {
            let parent_id = format!("c{parent}");
            let index = self.store.load_index(&parent_id);
            lap(out, "ckpt.index_read");
            if let Ok(index) = index {
                let provider = ShapeSeq::from_checkpoint_index(&index);
                let receiver = ShapeSeq::of(&spec).expect("materialised spec has a shape sequence");
                let plan = TransferPlan::build(matcher, &provider, &receiver);
                lap(out, "core.plan");
                if !plan.is_empty() {
                    let tensors = self.store.load_tensors(&parent_id, &plan.provider_names());
                    lap(out, "ckpt.tensor_read");
                    if let Ok(tensors) = tensors {
                        let stats = apply_transfer(&plan, &tensors, &mut model);
                        out.tensors_moved += stats.tensors;
                        out.bytes_moved += stats.bytes;
                        lap(out, "core.copy_in");
                    }
                }
            }
        }

        // `Trainer::fit`, call for call.
        let trainer = Trainer::new(self.problem.loss, self.problem.metric);
        let batch = self.problem.batch_size;
        let mut adam = Adam::new(AdamConfig { lr: self.problem.lr, ..Default::default() });
        let mut rng = Rng::seed(seed ^ 0x5EED);
        let mut score = 0.0;
        for _ in 0..epochs {
            for idx in self.problem.train.batch_indices(batch, Some(&mut rng)) {
                let (inputs, targets) = self.problem.train.batch_ws(&idx, model.workspace_mut());
                lap(out, "nn.batch");
                let input_refs: Vec<&Tensor> = inputs.iter().collect();
                let pred = model.forward(&input_refs, true);
                lap(out, "nn.forward");
                let (_loss, grad) =
                    self.problem.loss.forward_backward_ws(&pred, &targets, model.workspace_mut());
                lap(out, "nn.loss");
                model.zero_grads();
                model.backward(&grad);
                lap(out, "nn.backward");
                adam.step(&mut model);
                lap(out, "nn.optimizer");
                for t in inputs {
                    model.recycle(t);
                }
                model.recycle(targets);
                model.recycle(pred);
                model.recycle(grad);
                out.samples_trained += idx.len();
                lap(out, "nn.batch");
            }
            score = trainer.evaluate(&mut model, &self.problem.val, batch);
            lap(out, "nn.val");
        }

        // Saved under a replay id so the run's own checkpoints stay as the
        // run left them.
        let _ = self.store.save(&format!("rpl{}", e.id), &model.state_dict());
        lap(out, "ckpt.save");
        *ws = model.take_workspace();
        score
    }
}
