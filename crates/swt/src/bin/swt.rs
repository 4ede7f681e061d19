//! The `swt` command-line tool.
//!
//! Modes:
//! * `swt run …` — run an in-process NAS (thread-pool backend) with the
//!   same knobs as `dist-run`, including the multi-fidelity pipeline.
//! * `swt dist-run …` — launch a distributed NAS run: this process becomes
//!   the coordinator and spawns `--workers` child processes of itself.
//!   `--serve ADDR` additionally exposes the in-flight run as `/status`,
//!   `/metrics` and `/trace` on a local HTTP listener.
//! * `swt dist-top --addr ADDR` — poll a serving coordinator's `/status`
//!   and render a refreshing per-worker table (a `top` for the run).
//! * `swt dist-worker --connect ADDR --worker-id N` — internal: the worker
//!   side, spawned by the coordinator (not for direct use).
//! * `swt ckpt-server --spill DIR` — run the networked checkpoint store;
//!   point `dist-run --store tcp://host:port` at it and workers fetch only
//!   the selective transfer subset over the wire (DESIGN.md §12).
//!
//! Every flag takes a value; a mode rejects any flag outside its table, so
//! a misspelt option fails loudly instead of falling back to a default.
//! See EXPERIMENTS.md §"Distributed runs" and §"Watching a run live" for
//! walkthroughs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use swt::prelude::*;
use swt_dist::{DistConfig, LiveRunView};
use swt_obs::json::Json;

const USAGE: &str = "\
usage:
  swt run [options]              run an in-process NAS (thread-pool backend)
    --app NAME                   cifar10|mnist|nt3|uno          [uno]
    --scale quick|full           dataset scale                  [quick]
    --scheme baseline|lp|lcs     weight-transfer scheme         [lcs]
    --candidates N               candidates to evaluate         [24]
    --workers N                  evaluator threads              [2]
    --epochs N                   epochs per estimate            [1]
    --seed N                     run seed                       [9]
    --data-seed N                synthetic dataset seed         [11]
    --trace FILE.csv             write the run trace CSV
    --canonical-trace FILE.csv   write the deterministic-columns-only trace
    --report FILE.json           write the observability report
    multi-fidelity (also accepted by dist-run):
    --rungs E1,E2,...            successive-halving epoch rungs (strictly
                                 increasing; empty = single full-budget rung)
    --eta N                      keep top 1/eta per rung        [2]
    --prefilter Q                skip the bottom Q quantile by zero-cost
                                 score at rung 0, Q in [0,1)    [0 = off]
    --early-stop W:DELTA         stop a candidate when its train loss moves
                                 < DELTA over a W-epoch window  [off]
  swt dist-run [options]         run a distributed NAS (this process coordinates)
    (accepts every `swt run` option above, plus:)
    --namespace S                checkpoint-id prefix           []
    --store DIR|tcp://H:P        shared checkpoint dir, or a running
                                 `swt ckpt-server` endpoint     [./swt_dist_store]
    --max-workers N              refuse joins beyond N live workers   [64]
    --initial-workers N          processes at launch (may be < --workers;
                                 the dispatch window stays --workers)
    --autoscale MIN:MAX          let the coordinator size its own pool inside
                                 [MIN, MAX]: grow on backlog, drain-then-retire
                                 idle spares; the dispatch window — and thus
                                 the canonical trace — stays --workers
    --target-wall-secs S         autoscale hint: keep growing while the
                                 projected finish time exceeds S
    --cost-budget S              autoscale cap: stop growing once projected
                                 worker-seconds would exceed S
    --serve ADDR                 serve the live run view over HTTP
                                 (/status JSON, /metrics Prometheus text,
                                 /trace Chrome trace JSON), e.g. 127.0.0.1:0
    --chrome-trace FILE.json     write the run's event timeline as Chrome
                                 trace JSON (chrome://tracing, Perfetto)
  swt dist-top --addr HOST:PORT  watch a serving coordinator
    --interval-ms N              poll cadence                   [500]
    --iterations N               stop after N polls (0 = forever)    [0]
    --fetch PATH                 fetch PATH once, print the raw body, exit
                                 (scripting/CI helper; no curl needed)
  swt dist-worker --connect ADDR --worker-id N    (internal)
  swt ckpt-server [options]      run the networked checkpoint store
    --bind HOST:PORT             listen address                 [127.0.0.1:7421]
    --spill DIR                  durable WTC2 spill directory   (required)
    --cache-bytes N              in-RAM LRU budget              [268435456]
    --serve HOST:PORT            expose /status, /metrics over HTTP
    --max-seconds N              exit after N seconds (demos/CI; default: run
                                 until killed)
    env SWT_CKPT_SECRET          shared HMAC secret, checked on every client
                                 Hello (empty/unset = open mode); set the same
                                 value for dist-run so workers can connect
";

/// Flags `run` and `dist-run` share: the search, its multi-fidelity
/// pipeline and the run artifacts.
const SEARCH_FLAGS: &[&str] = &[
    "--app",
    "--scale",
    "--scheme",
    "--candidates",
    "--workers",
    "--epochs",
    "--seed",
    "--data-seed",
    "--trace",
    "--canonical-trace",
    "--report",
    "--rungs",
    "--eta",
    "--prefilter",
    "--early-stop",
];

/// Flags only `dist-run` takes.
const DIST_FLAGS: &[&str] = &[
    "--namespace",
    "--store",
    "--max-workers",
    "--initial-workers",
    "--autoscale",
    "--target-wall-secs",
    "--cost-budget",
    "--serve",
    "--chrome-trace",
];

const TOP_FLAGS: &[&str] = &["--addr", "--interval-ms", "--iterations", "--fetch"];
const WORKER_FLAGS: &[&str] = &["--connect", "--worker-id"];
const SERVER_FLAGS: &[&str] = &["--bind", "--spill", "--cache-bytes", "--serve", "--max-seconds"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    let rest = &args[1..];
    let result = match mode {
        "run" => Opts::parse(rest, &[SEARCH_FLAGS]).and_then(|o| run_local(&o)),
        "dist-run" => Opts::parse(rest, &[SEARCH_FLAGS, DIST_FLAGS]).and_then(|o| dist_run(&o)),
        "dist-top" => Opts::parse(rest, &[TOP_FLAGS]).and_then(|o| dist_top(&o)),
        "dist-worker" => Opts::parse(rest, &[WORKER_FLAGS]).and_then(|o| dist_worker(&o)),
        "ckpt-server" => Opts::parse(rest, &[SERVER_FLAGS]).and_then(|o| ckpt_server(&o)),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown mode `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{mode}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One mode's command line: `--flag VALUE` pairs, every flag from the
/// mode's tables.
struct Opts<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Opts<'a> {
    /// Pair each flag with its value. An unknown flag, a flag without a
    /// value or a stray positional argument is an error naming it.
    fn parse(args: &'a [String], tables: &[&[&str]]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument `{arg}` (see `swt --help`)"));
            }
            if !tables.iter().any(|t| t.contains(&arg)) {
                return Err(format!("unknown flag `{arg}` (see `swt --help`)"));
            }
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            pairs.push((arg, value));
        }
        Ok(Opts(pairs))
    }

    /// The value given for `key` (the first occurrence wins).
    fn get(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// `key` parsed as a `T`, or `default` when the flag is absent.
    fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.parse_opt(key).map(|v| v.unwrap_or(default))
    }

    /// `key` parsed as a `T`, if given.
    fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|raw| raw.parse().map_err(|_| format!("invalid value for {key}: `{raw}`")))
            .transpose()
    }
}

/// The search `run` and `dist-run` both configure from [`SEARCH_FLAGS`].
struct Search {
    app: AppKind,
    scale: DataScale,
    data_seed: u64,
    nas: NasConfig,
}

impl Search {
    fn parse(opts: &Opts) -> Result<Search, String> {
        let app_raw = opts.get("--app").unwrap_or("uno");
        let app = AppKind::from_slug(app_raw).ok_or_else(|| format!("unknown app `{app_raw}`"))?;
        let scale = match opts.get("--scale").unwrap_or("quick") {
            "quick" => DataScale::Quick,
            "full" => DataScale::Full,
            other => return Err(format!("unknown scale `{other}`")),
        };
        let scheme = match opts.get("--scheme").unwrap_or("lcs") {
            "baseline" => TransferScheme::Baseline,
            "lp" => TransferScheme::Lp,
            "lcs" => TransferScheme::Lcs,
            other => return Err(format!("unknown scheme `{other}`")),
        };
        let candidates: usize = opts.parse_or("--candidates", 24)?;
        let workers: usize = opts.parse_or("--workers", 2)?;
        if candidates == 0 || workers == 0 {
            return Err("--candidates and --workers must be positive".into());
        }
        let mut nas = NasConfig::quick(scheme, candidates, workers, opts.parse_or("--seed", 9)?);
        nas.epochs = opts.parse_or("--epochs", 1)?;
        nas.fidelity = parse_fidelity(opts)?;
        Ok(Search { app, scale, data_seed: opts.parse_or("--data-seed", 11)?, nas })
    }

    /// A registry snapshot tagged with this search's settings.
    fn report(&self, mode: &str) -> RunReport {
        RunReport::capture()
            .with_meta("mode", mode)
            .with_meta("app", self.app.name())
            .with_meta("scheme", self.nas.scheme.name())
            .with_meta("candidates", self.nas.total_candidates)
            .with_meta("workers", self.nas.workers)
            .with_meta("seed", self.nas.seed)
    }

    /// The run's one-line summary: `done` in `wall`, and the search knobs.
    fn print_completed(&self, done: &str, wall: std::time::Duration) {
        let (app, scheme, seed) = (self.app.name(), self.nas.scheme.name(), self.nas.seed);
        println!("completed {done} in {wall:.2?} ({app} app, {scheme} scheme, seed {seed})");
    }
}

/// Parse the shared multi-fidelity flags into a validated
/// [`FidelityConfig`] (all off when none are given).
fn parse_fidelity(opts: &Opts) -> Result<FidelityConfig, String> {
    let rungs: Vec<usize> = match opts.get("--rungs") {
        None => vec![],
        Some(raw) => raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse().map_err(|_| format!("invalid rung in `{raw}`")))
            .collect::<Result<_, _>>()?,
    };
    let eta: usize = opts.parse_or("--eta", 2)?;
    let prefilter: f64 = opts.parse_or("--prefilter", 0.0)?;
    let convergence = match opts.get("--early-stop") {
        None => None,
        Some(spec) => {
            let (w, d) = spec
                .split_once(':')
                .ok_or_else(|| format!("--early-stop wants W:DELTA, got `{spec}`"))?;
            Some(Convergence {
                window: w.parse().map_err(|_| format!("invalid window in `{spec}`"))?,
                min_delta: d.parse().map_err(|_| format!("invalid delta in `{spec}`"))?,
            })
        }
    };
    FidelityConfig::new(eta, rungs, prefilter, convergence).map_err(|e| e.to_string())
}

fn print_best(trace: &NasTrace) {
    if let Some(best) = trace.top_k(1).first() {
        println!("best candidate: c{} score {:.6} arch {}", best.id, best.score, best.arch);
    }
}

/// Write the artifacts both search modes produce: `--trace`,
/// `--canonical-trace` and `--report`.
fn write_artifacts(opts: &Opts, trace: &NasTrace, report: &RunReport) -> Result<(), String> {
    write_to(opts, "--trace", "trace", |p| trace.write_csv(p))?;
    write_to(opts, "--canonical-trace", "canonical trace", |p| trace.write_canonical_csv(p))?;
    write_to(opts, "--report", "report", |p| report.write_json(p))
}

/// If `flag` names a path, write it with `write` and print where it went.
fn write_to(
    opts: &Opts,
    flag: &str,
    label: &str,
    write: impl FnOnce(&Path) -> std::io::Result<()>,
) -> Result<(), String> {
    if let Some(path) = opts.get(flag).map(Path::new) {
        write(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("{label}: {}", path.display());
    }
    Ok(())
}

fn run_local(opts: &Opts) -> Result<(), String> {
    let search = Search::parse(opts)?;
    let nas = &search.nas;

    swt_obs::enable();
    let problem = Arc::new(search.app.problem(search.scale, search.data_seed));
    let space = Arc::new(SearchSpace::for_app(search.app));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let t0 = std::time::Instant::now();
    let trace = run_nas(problem, space, store, nas);
    let wall = t0.elapsed();

    let done =
        format!("{} evaluation(s) of {} candidate(s)", trace.events.len(), nas.total_candidates);
    search.print_completed(&done, wall);
    let report = search.report("run");
    if nas.fidelity.enabled() {
        println!(
            "fidelity: rungs {:?} eta {}  stopped converged {} / pruned {} / prefiltered {}",
            nas.fidelity.rungs,
            nas.fidelity.eta,
            report.counter("fidelity.stopped.converged"),
            report.counter("fidelity.stopped.pruned"),
            report.counter("fidelity.stopped.prefiltered"),
        );
    }
    print_best(&trace);
    write_artifacts(opts, &trace, &report)
}

fn dist_worker(opts: &Opts) -> Result<(), String> {
    let (Some(connect), Some(worker_id)) = (opts.get("--connect"), opts.get("--worker-id")) else {
        return Err(format!("--connect and --worker-id required\n{USAGE}"));
    };
    let worker_id: u64 =
        worker_id.parse().map_err(|_| format!("invalid --worker-id `{worker_id}`"))?;
    swt_dist::worker_main(connect, worker_id).map_err(|e| format!("worker {worker_id}: {e}"))
}

fn ckpt_server(opts: &Opts) -> Result<(), String> {
    let bind = opts.get("--bind").unwrap_or("127.0.0.1:7421").to_string();
    let spill: PathBuf =
        opts.get("--spill").ok_or_else(|| format!("--spill DIR required\n{USAGE}"))?.into();
    let mut cfg = ServerConfig::new(bind, spill);
    cfg.cache_bytes = opts.parse_or("--cache-bytes", cfg.cache_bytes)?;
    cfg.serve = opts.get("--serve").map(str::to_string);
    // The secret rides in the environment, not argv (which `ps` exposes).
    cfg.secret = std::env::var("SWT_CKPT_SECRET").unwrap_or_default();
    let max_seconds: Option<u64> = opts.parse_opt("--max-seconds")?;

    swt_obs::enable();
    let mut server = CkptServer::start(cfg).map_err(|e| format!("start: {e}"))?;
    println!(
        "ckpt-server listening on {} (auth {})",
        server.addr(),
        if std::env::var("SWT_CKPT_SECRET").map_or(true, |s| s.is_empty()) {
            "open"
        } else {
            "shared-secret"
        }
    );
    match max_seconds {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    server.stop();
    Ok(())
}

fn dist_run(opts: &Opts) -> Result<(), String> {
    let mut search = Search::parse(opts)?;
    search.nas.namespace = opts.get("--namespace").unwrap_or("").to_string();
    // `--store` is either a shared directory (the default DirStore path —
    // what the A/B identity gates pin) or a `tcp://host:port` endpoint of a
    // running `swt ckpt-server`.
    let store_raw = opts.get("--store").unwrap_or("swt_dist_store");
    let (store_dir, store_url) = if store_raw.starts_with("tcp://") {
        (PathBuf::from("swt_dist_store"), Some(store_raw.to_string()))
    } else {
        (PathBuf::from(store_raw), None)
    };

    let mut dist = DistConfig::new(search.app, search.scale, search.data_seed, store_dir);
    dist.store_url = store_url;
    dist.max_workers = opts.parse_or("--max-workers", dist.max_workers)?;
    if dist.max_workers == 0 {
        return Err("--max-workers must be positive".into());
    }
    if let Some(spec) = opts.get("--autoscale") {
        let (lo, hi) = spec
            .split_once(':')
            .ok_or_else(|| format!("--autoscale wants MIN:MAX, got `{spec}`"))?;
        let mut policy = PolicyConfig::bounded(
            lo.parse().map_err(|_| format!("invalid min in `{spec}`"))?,
            hi.parse().map_err(|_| format!("invalid max in `{spec}`"))?,
        );
        policy.target_wall_secs = opts.parse_opt("--target-wall-secs")?;
        policy.cost_budget_secs = opts.parse_opt("--cost-budget")?;
        policy.validate().map_err(|e| format!("--autoscale: {e}"))?;
        if policy.max_workers > dist.max_workers {
            return Err(format!(
                "--autoscale max {} exceeds --max-workers {}",
                policy.max_workers, dist.max_workers
            ));
        }
        dist.autoscale = Some(policy);
    } else if opts.get("--target-wall-secs").is_some() || opts.get("--cost-budget").is_some() {
        return Err("--target-wall-secs/--cost-budget need --autoscale MIN:MAX".into());
    }
    if let Some(initial) = opts.parse_opt::<usize>("--initial-workers")? {
        if initial == 0 || initial > dist.max_workers {
            return Err("--initial-workers must be in 1..=--max-workers".into());
        }
        dist.initial_workers = Some(initial);
    }

    // Live view + timeline only when someone will read them: the canonical
    // schedule (and trace) is identical either way, this only adds export.
    let serve_addr = opts.get("--serve");
    let live = if serve_addr.is_some() || opts.get("--chrome-trace").is_some() {
        let live = Arc::new(LiveRunView::new());
        dist.live = Some(Arc::clone(&live));
        Some(live)
    } else {
        None
    };

    swt_obs::enable();
    let _server = match (serve_addr, &live) {
        (Some(bind), Some(live)) => {
            swt_obs::timeline::enable();
            let source: Arc<dyn ServeSource> = Arc::clone(live) as Arc<dyn ServeSource>;
            let server = ObsServer::start(bind, source)
                .map_err(|e| format!("cannot serve on {bind}: {e}"))?;
            println!(
                "live: http://{0}/status  http://{0}/metrics  http://{0}/trace",
                server.addr()
            );
            Some(server)
        }
        _ => {
            if live.is_some() {
                swt_obs::timeline::enable();
            }
            None
        }
    };

    let t0 = std::time::Instant::now();
    let (trace, stats) =
        swt_dist::run_nas_dist_with_stats(&search.nas, &dist).map_err(|e| e.to_string())?;
    let wall = t0.elapsed();

    let done = format!("{} candidates on {} workers", trace.events.len(), search.nas.workers);
    search.print_completed(&done, wall);
    print_best(&trace);
    let report = search.report("dist-run");
    if stats.lost > 0 {
        println!(
            "fault tolerance: {} worker(s) lost, {} candidate(s) reassigned",
            stats.lost, stats.reassigned
        );
    }
    if stats.joined > 0 || stats.rejected > 0 {
        println!(
            "elasticity: {} worker(s) joined mid-run, {} join(s) rejected at max_workers={}",
            stats.joined, stats.rejected, dist.max_workers
        );
    }
    if let Some(policy) = &dist.autoscale {
        println!(
            "autoscale: {} worker(s) grown, {} retired (pool bounds {}..={})",
            stats.grown, stats.retired, policy.min_workers, policy.max_workers
        );
    }
    println!(
        "metrics merged from {} worker process(es): gemm calls {}, checkpoint bytes saved {}, \
         provider-cache hits {}",
        stats.per_worker.len(),
        report.counter_prefix_sum("tensor.gemm."),
        report.counter("ckpt.dir.saved_bytes"),
        report.counter("ckpt.cache.hits"),
    );
    write_artifacts(opts, &trace, &report)?;
    match &live {
        Some(live) => write_to(opts, "--chrome-trace", "chrome trace", |p| {
            std::fs::write(p, live.trace_json())
        }),
        None => Ok(()),
    }
}

fn dist_top(opts: &Opts) -> Result<(), String> {
    let Some(addr) = opts.get("--addr") else {
        return Err(format!("--addr HOST:PORT required\n{USAGE}"));
    };
    if let Some(path) = opts.get("--fetch") {
        // One-shot raw fetch: the scripting/CI path (the container has no
        // curl; this keeps smoke tests std-only too).
        let body = swt_obs::serve::http_get(addr, path).map_err(|e| e.to_string())?;
        println!("{body}");
        return Ok(());
    }
    let interval: u64 = opts.parse_or("--interval-ms", 500)?;
    let iterations: usize = opts.parse_or("--iterations", 0)?;
    let mut polls = 0usize;
    loop {
        let body = swt_obs::serve::http_get(addr, "/status").map_err(|e| e.to_string())?;
        let status = Json::parse(&body).map_err(|e| format!("bad /status payload: {e}"))?;
        // ANSI clear + home, then the freshly rendered table.
        print!("\x1b[2J\x1b[H{}", render_top(&status));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        polls += 1;
        if iterations > 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(50)));
    }
}

/// Render one `/status` document as the refreshing per-worker table.
fn render_top(status: &Json) -> String {
    let num = |k: &str| status.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let app = status.get("meta").and_then(|m| m.get("app")).and_then(Json::as_str).unwrap_or("?");
    let mut out = format!(
        "swt dist-top — app {app}  uptime {:.1}s  window {}  workers live {}\n\
         results {}  queued {}  in flight {}  ewma/candidate {:.3}s\n\n",
        num("uptime_secs"),
        num("window") as u64,
        num("workers_live") as u64,
        num("results") as u64,
        num("queue_depth") as u64,
        num("inflight") as u64,
        num("ewma_candidate_secs"),
    );
    if let Some(auto) = status.get("autoscale") {
        if auto.get("enabled") == Some(&Json::Bool(true)) {
            let an = |k: &str| auto.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let last = auto
                .get("log")
                .and_then(Json::as_array)
                .and_then(|log| log.last())
                .and_then(Json::as_str)
                .unwrap_or("-");
            out.push_str(&format!(
                "autoscale grow {} / shrink {} / hold {}  connecting {}  last: {last}\n\n",
                an("grows"),
                an("shrinks"),
                an("holds"),
                num("connecting") as u64,
            ));
        }
    }
    out.push_str(&format!(
        "{:>3} {:>5} {:>6} {:>7} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9} {:>8}\n",
        "id",
        "alive",
        "seq",
        "frames",
        "results",
        "current",
        "wait_s",
        "eval_s",
        "send_s",
        "stop c/f",
        "drop"
    ));
    let workers = status.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    for w in workers {
        let wf = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        // Worker-side stop reasons (converged / prefiltered counts; pruning
        // happens coordinator-side, so it is not a per-worker number).
        let stopped = |kind: &str| {
            w.get("stopped").and_then(|s| s.get(kind)).and_then(Json::as_f64).unwrap_or(0.0) as u64
        };
        let span_secs = |path: &str| {
            w.get("spans")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .find(|s| s.get("path").and_then(Json::as_str) == Some(path))
                .and_then(|s| s.get("total_secs"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let alive = matches!(w.get("alive"), Some(Json::Bool(true)));
        let current = match w.get("current").and_then(Json::as_u64) {
            Some(id) => format!("c{id}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>3} {:>5} {:>6} {:>7} {:>8} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>9} {:>8}\n",
            wf("id") as u64,
            if alive { "yes" } else { "no" },
            wf("seq") as u64,
            wf("frames") as u64,
            wf("results") as u64,
            current,
            span_secs("nas.queue_wait"),
            span_secs("nas.eval"),
            span_secs("nas.result_send"),
            format!("{}/{}", stopped("converged"), stopped("prefiltered")),
            wf("dropped_events") as u64,
        ));
    }
    out
}
