//! The benchmark's workloads and one search through the program's real
//! entry points: the `swt run` path (`ThreadPoolBackend` under
//! `run_nas_with_backend`, exactly what `run_nas` does) and the
//! `swt dist-run` path (`DistBackend::launch` + `run_nas_with_backend` +
//! `finish`, exactly what `run_nas_dist_with_stats` does), with the
//! checkpoint store on a `DirStore` or behind an in-process `CkptServer`.

use crate::probe::{Probe, ProbeLog, TimedStore};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use swt::checkpoint::{CachedStore, CheckpointStore, DirStore, MemStore};
use swt::ckpt_server::{CkptServer, RemoteStore, ServerConfig};
use swt::core::TransferScheme;
use swt::data::{AppKind, AppProblem, DataScale};
use swt::dist::{DistBackend, DistConfig, DistRunStats};
use swt::nas::{run_nas_with_backend, FidelityConfig, NasConfig, NasTrace, ThreadPoolBackend};
use swt::obs::RunReport;
use swt::space::SearchSpace;

/// Dispatch window and worker count of every workload: a closed loop of
/// two evaluators driven by one strategy loop (two cores on the reference
/// host). Fixed, because the window is part of the deterministic schedule.
pub const WORKERS: usize = 2;

/// Where candidates train and where their checkpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `swt run`: thread pool in this process, `MemStore`.
    InProcess,
    /// `swt dist-run --store tcp://…`: worker processes, in-process server.
    DistRemote,
    /// `swt dist-run --store DIR`: worker processes sharing a `DirStore`.
    DistDir,
}

pub struct Workload {
    pub name: &'static str,
    pub app: AppKind,
    pub route: Route,
    /// The reference search: the seed its committed digest and target
    /// belong to, with the CLI's default data seed.
    pub ref_seed: u64,
    pub ref_data_seed: u64,
    pub candidates: usize,
    /// Candidates of each seed-driven panel search.
    pub panel_candidates: usize,
    pub rungs: Vec<usize>,
    pub eta: usize,
    pub prefilter: f64,
    /// Fixed score the reference search first reaches late in its run.
    pub target: f64,
    /// Rough seconds of one reference / panel search on a 2-core host,
    /// used only to size the panel from `--seconds`.
    pub ref_secs: f64,
    pub panel_secs: f64,
    /// Reference candidates replayed layer by layer in a traced run.
    pub replay_sample: usize,
}

pub fn workloads() -> Vec<Workload> {
    vec![
        // Compute-bound: conv2d/im2col and blocked SIMD GEMM dominate; the
        // 90 KB checkpoints fit the provider cache, so store or wire
        // changes should not move it.
        Workload {
            name: "cifar_inproc",
            app: AppKind::Cifar10,
            route: Route::InProcess,
            ref_seed: 9,
            ref_data_seed: 11,
            candidates: 160,
            panel_candidates: 32,
            rungs: Vec::new(),
            eta: 2,
            prefilter: 0.0,
            target: 0.95,
            ref_secs: 20.0,
            panel_secs: 3.5,
            replay_sample: 12,
        },
        // ~4 ms dense-only candidates: frames, store RPCs, encode/save and
        // selective reads are a large share of slot time; no conv path.
        Workload {
            name: "uno_remote",
            app: AppKind::Uno,
            route: Route::DistRemote,
            ref_seed: 9,
            ref_data_seed: 11,
            candidates: 1000,
            panel_candidates: 250,
            rungs: Vec::new(),
            eta: 2,
            prefilter: 0.0,
            target: 0.958,
            ref_secs: 6.0,
            panel_secs: 3.0,
            replay_sample: 48,
        },
        // The only workload with promotion waves, rung-boundary drains,
        // zero-cost pre-filtering, DirStore file I/O and resumes that read
        // a candidate's whole own checkpoint.
        Workload {
            name: "uno_rungs_dir",
            app: AppKind::Uno,
            route: Route::DistDir,
            ref_seed: 1,
            ref_data_seed: 11,
            candidates: 1000,
            panel_candidates: 150,
            rungs: vec![1, 3, 9],
            eta: 3,
            prefilter: 0.5,
            target: 0.956,
            ref_secs: 13.0,
            panel_secs: 2.0,
            replay_sample: 48,
        },
    ]
}

impl Workload {
    pub fn nas_config(&self, scheme: TransferScheme, candidates: usize, seed: u64) -> NasConfig {
        let mut nas = NasConfig::quick(scheme, candidates, WORKERS, seed);
        nas.fidelity = FidelityConfig::new(self.eta, self.rungs.clone(), self.prefilter, None)
            .expect("workload fidelity knobs are valid");
        nas
    }

    /// Seed-driven panel searches that fill `seconds` together with the
    /// reference searches (at least two).
    pub fn panel_size(&self, seconds: u64) -> usize {
        (((seconds as f64 - self.ref_secs) / self.panel_secs).round() as usize).max(2)
    }

    /// Epochs a candidate of `rung` trains, as the strategy loop assigns
    /// them (the trace records the rung, not the epochs).
    pub fn epochs_for(&self, nas: &NasConfig, rung: u8) -> usize {
        let rung = rung as usize;
        match (self.rungs.get(rung), rung) {
            (None, _) => nas.epochs,
            (Some(&e), 0) => e,
            (Some(&e), r) if nas.scheme.matcher().is_some() => e - self.rungs[r - 1],
            (Some(&e), _) => e,
        }
    }
}

/// What one search is asked to run.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    pub scheme: TransferScheme,
    pub run_seed: u64,
    pub data_seed: u64,
    pub candidates: usize,
}

/// One finished (or aborted) search and what was measured around it.
pub struct Search {
    pub nas: NasConfig,
    pub trace: Option<NasTrace>,
    pub error: Option<String>,
    pub log: ProbeLog,
    /// `AppKind::problem` (in-process only: dist workers build their own).
    pub data_secs: f64,
    /// `DistBackend::launch`: spawn plus handshake.
    pub spawn_secs: f64,
    /// Share of CPU time the hypervisor stole while the search ran.
    pub steal_frac: f64,
    /// Process-global counters after the search (workers' merged in).
    pub report: RunReport,
    pub dist: Option<DistRunStats>,
    /// Timing wrapper under the in-process provider cache (traced only).
    pub timed: Option<Arc<TimedStore<Arc<dyn CheckpointStore>>>>,
    /// The run's own store, for the replay after the search.
    pub store: Arc<dyn CheckpointStore>,
    pub problem: Option<Arc<AppProblem>>,
    server: Option<CkptServer>,
    dir: PathBuf,
}

impl Search {
    pub fn setup_secs(&self) -> Option<f64> {
        self.log.first_submit()
    }

    /// The problem the run trained on (dist coordinators never build it, so
    /// the replay builds it on demand and reports the time).
    pub fn problem(&mut self, w: &Workload, data_seed: u64) -> (Arc<AppProblem>, f64) {
        if let Some(p) = &self.problem {
            return (Arc::clone(p), self.data_secs);
        }
        let t0 = Instant::now();
        let p = Arc::new(w.app.problem(DataScale::Quick, data_seed));
        self.data_secs = t0.elapsed().as_secs_f64();
        self.problem = Some(Arc::clone(&p));
        (p, self.data_secs)
    }
}

impl Drop for Search {
    fn drop(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn secret() -> String {
    std::env::var("SWT_CKPT_SECRET").unwrap_or_default()
}

/// Run one search end to end. Set-up (problem, space, store or server,
/// backend) starts at the origin; the probe's first submit ends it.
pub fn run_search(w: &Workload, spec: SearchSpec, timed: bool, dir: &Path) -> io::Result<Search> {
    std::fs::create_dir_all(dir)?;
    swt::obs::reset();
    let origin = Instant::now();
    let nas = w.nas_config(spec.scheme, spec.candidates, spec.run_seed);
    let app = w.app.name();
    let mut search = Search {
        nas: nas.clone(),
        trace: None,
        error: None,
        log: ProbeLog::default(),
        data_secs: 0.0,
        spawn_secs: 0.0,
        steal_frac: 0.0,
        report: RunReport::default(),
        dist: None,
        timed: None,
        store: Arc::new(MemStore::new()),
        problem: None,
        server: None,
        dir: dir.to_path_buf(),
    };
    let cpu_before = crate::meta::cpu_jiffies();
    let outcome = match w.route {
        Route::InProcess => {
            let problem = Arc::new(w.app.problem(DataScale::Quick, spec.data_seed));
            search.data_secs = origin.elapsed().as_secs_f64();
            let space = Arc::new(SearchSpace::for_app(w.app));
            let store: Arc<dyn CheckpointStore> = if timed {
                let t = Arc::new(TimedStore::new(Arc::clone(&search.store)));
                search.timed = Some(Arc::clone(&t));
                t
            } else {
                Arc::clone(&search.store)
            };
            search.problem = Some(Arc::clone(&problem));
            let store: Arc<dyn CheckpointStore> =
                Arc::new(CachedStore::new(store, nas.cache_bytes));
            let mut backend = ThreadPoolBackend::new(problem, Arc::clone(&space), store, &nas);
            let mut probe = Probe::new(&mut backend, origin);
            let r = run_nas_with_backend(app, space, &nas, &mut probe);
            search.log = probe.log;
            drop(backend);
            r
        }
        Route::DistRemote | Route::DistDir => {
            let space = Arc::new(SearchSpace::for_app(w.app));
            let store_dir = dir.join("store");
            let mut dist =
                DistConfig::new(w.app, DataScale::Quick, spec.data_seed, store_dir.clone());
            if w.route == Route::DistRemote {
                let mut cfg = ServerConfig::new("127.0.0.1:0", dir.join("spill"));
                cfg.secret = secret();
                let server = CkptServer::start(cfg)?;
                let addr = server.addr().to_string();
                dist.store_url = Some(format!("tcp://{addr}"));
                // Workers put an empty namespace in the "default" bucket.
                search.store = Arc::new(RemoteStore::connect(&addr, "default", &secret()));
                search.server = Some(server);
            }
            let t0 = Instant::now();
            let mut backend = DistBackend::launch(&nas, &dist)?;
            search.spawn_secs = t0.elapsed().as_secs_f64();
            let mut probe = Probe::new(&mut backend, origin);
            let r = run_nas_with_backend(app, space, &nas, &mut probe);
            search.log = probe.log;
            if r.is_ok() {
                search.dist = Some(backend.finish()?);
            }
            drop(backend);
            if w.route == Route::DistDir {
                search.store = Arc::new(DirStore::new(&store_dir)?);
            }
            r
        }
    };
    search.steal_frac = crate::meta::steal_since(cpu_before);
    search.report = RunReport::capture();
    match outcome {
        Ok(trace) => search.trace = Some(trace),
        Err(e) => search.error = Some(e.to_string()),
    }
    Ok(search)
}
