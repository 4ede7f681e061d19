//! End-to-end NAS search benchmark with an outside-in layer ledger.
//!
//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--scheme lcs|baseline]`
//!
//! Every run starts with a pre-flight check against the committed golden
//! canonical trace, then runs the workload's reference search (fixed seed,
//! digest-gated; it carries `candidates_per_s`, `time_to_target_s`,
//! `best_score` and `peak_rss_mb`). An untraced run (`--trace 0`) adds a
//! panel of searches whose run and data seeds come from `--seed` and prints
//! the end-to-end metrics. A traced run
//! (`--trace 1`) runs the reference search untraced and traced, replays a
//! sample of its candidates layer by layer, and prints the per-layer
//! metrics and both ledgers. The last stdout line is the result object.

mod ledger;
mod meta;
mod probe;
mod replay;
mod workload;

use ledger::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use swt::checkpoint::{CheckpointStore, MemStore};
use swt::core::TransferScheme;
use swt::data::{AppKind, DataScale};
use swt::nas::{run_nas, NasConfig};
use swt::space::SearchSpace;
use workload::{run_search, Search, SearchSpec, Workload};

/// Committed canonical-trace digests of each workload's reference search.
const DIGESTS: &str = include_str!("../digests.txt");

/// The pre-flight golden: `swt run --app uno --scheme lcs --candidates 8
/// --workers 2` (seed 9, data seed 11).
const GOLDEN: &str = "tests/golden/canonical_uno_lcs_c8_w2.csv";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scheme: TransferScheme,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?.parse().map_err(|_| format!("{key} wants a whole number"))
    };
    let scheme = match get("--scheme").unwrap_or("lcs") {
        "lcs" => TransferScheme::Lcs,
        "baseline" => TransferScheme::Baseline,
        other => return Err(format!("unknown scheme `{other}`")),
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace wants 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
        scheme,
    })
}

/// splitmix64: derives each panel search's run and data seed from `--seed`.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn digest(csv: &str) -> String {
    hex(&swt::ckpt_server::auth::sha256(csv.as_bytes()))
}

fn committed_digest(workload: &str, scheme: TransferScheme) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s == scheme.name() => Some(d),
            _ => None,
        }
    })
}

/// Gate failures collected over a run; any one makes the run a failed run.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("e2ebench: gate failed: {msg}");
            self.0.push(msg);
        }
    }
}

fn preflight(gates: &mut Gates) {
    let golden = std::fs::read_to_string(GOLDEN);
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let trace = run_nas(problem, space, store, &NasConfig::quick(TransferScheme::Lcs, 8, 2, 9));
    gates.check(golden.as_deref().ok() == Some(trace.canonical_csv().as_str()), || {
        format!("pre-flight canonical trace differs from {GOLDEN}")
    });
}

/// Checks every search must pass: it finished and lost no candidate.
fn check_search(gates: &mut Gates, s: &Search, label: &str) {
    gates.check(s.error.is_none(), || format!("{label}: {}", s.error.clone().unwrap_or_default()));
    gates.check(s.log.failed() == 0, || format!("{label}: {} candidate(s) lost", s.log.failed()));
}

struct Ctx {
    w: Workload,
    args: Args,
    work: PathBuf,
    searches: usize,
    attempted: usize,
    failed: usize,
}

impl Ctx {
    fn search(&mut self, spec: SearchSpec, timed: bool) -> std::io::Result<Search> {
        let dir = self.work.join(format!("s{}", self.searches));
        self.searches += 1;
        let s = run_search(&self.w, spec, timed, &dir)?;
        self.attempted += s.log.submits.len();
        self.failed += s.log.failed();
        Ok(s)
    }

    fn reference(&self) -> SearchSpec {
        SearchSpec {
            scheme: self.args.scheme,
            run_seed: self.w.ref_seed,
            data_seed: self.w.ref_data_seed,
            candidates: self.w.candidates,
        }
    }

    /// Digest gate on a reference search; returns its canonical CSV.
    fn gate_reference(&self, gates: &mut Gates, s: &Search, label: &str) -> String {
        check_search(gates, s, label);
        let csv = s.trace.as_ref().map(|t| t.canonical_csv()).unwrap_or_default();
        let got = digest(&csv);
        let want = committed_digest(self.w.name, self.args.scheme);
        println!(
            "{label}: canonical trace sha256 {got}, search {:.3}s, host steal {:.1}%",
            s.log.search_secs(),
            100.0 * s.steal_frac
        );
        gates.check(want == Some(got.as_str()), || {
            format!("{label}: canonical digest {got} != committed {}", want.unwrap_or("(none)"))
        });
        gates.check(s.log.time_to(self.w.target).is_some(), || {
            format!("{label}: target {} never reached", self.w.target)
        });
        csv
    }
}

fn untraced(ctx: &mut Ctx, gates: &mut Gates, m: &mut Metrics) -> std::io::Result<()> {
    // Other tenants of a shared host (hypervisor steal) only ever add time,
    // so a reference search that ran while the hypervisor took more than
    // `QUIET_STEAL` of the CPU is repeated, budget permitting, and the
    // fastest repetition is reported.
    const QUIET_STEAL: f64 = 0.05;
    let (mut fastest, mut spent, mut setups) = (None::<(f64, f64, f64)>, 0.0, Vec::new());
    let (mut best, mut peak_rss) = (0.0, 0.0);
    for rep in 0.. {
        let reference = ctx.search(ctx.reference(), false)?;
        ctx.gate_reference(gates, &reference, &format!("reference {rep}"));
        let log = &reference.log;
        let secs = log.search_secs().max(1e-9);
        spent += secs;
        if fastest.is_none_or(|f| secs < f.0) {
            let ttt = log.time_to(ctx.w.target).unwrap_or(0.0);
            fastest = Some((secs, log.unique_returns().len() as f64 / secs, ttt));
        }
        setups.extend(reference.setup_secs());
        best = reference
            .trace
            .as_ref()
            .map_or(0.0, |t| t.events.iter().map(|e| e.score).fold(f64::NEG_INFINITY, f64::max));
        let quiet = reference.steal_frac <= QUIET_STEAL;
        drop(reference);
        if rep == 0 {
            // The reference workload's high-water mark, before repetitions
            // and seed-driven searches (whose model sizes differ by seed).
            peak_rss = meta::peak_rss_mb();
        }
        if quiet || spent >= ctx.args.seconds as f64 {
            break;
        }
    }
    let (_, cps, ttt) = fastest.unwrap_or_default();

    // Seed-driven searches: new data and a new search per panel entry. Their
    // cost spreads ~2.5x between seeds, so they feed the set-up median and
    // the loss/quality gates, not the throughput figures.
    let panel = ctx.w.panel_size(ctx.args.seconds);
    for k in 0..panel as u64 {
        let spec = SearchSpec {
            scheme: ctx.args.scheme,
            run_seed: mix(ctx.args.seed, 2 * k),
            data_seed: mix(ctx.args.seed, 2 * k + 1),
            candidates: ctx.w.panel_candidates,
        };
        let s = ctx.search(spec, false)?;
        let label =
            format!("panel search {k} (run seed {}, data seed {})", spec.run_seed, spec.data_seed);
        check_search(gates, &s, &label);
        let finite = s.trace.as_ref().is_some_and(|t| {
            t.events
                .iter()
                .all(|e| e.score.is_finite() || e.stop == swt::nas::StopReason::Prefiltered)
        });
        gates.check(finite, || format!("{label}: non-finite score"));
        setups.extend(s.setup_secs());
    }
    println!("panel: {panel} search(es) of {} candidates", ctx.w.panel_candidates);

    m.put("candidates_per_s", cps, "1/s");
    m.put("time_to_target_s", ttt, "s");
    m.put("setup_s", ledger::median(&setups), "s");
    m.put("best_score", best, "score");
    m.put("peak_rss_mb", peak_rss, "MB");
    let returned = ctx.attempted - ctx.failed;
    m.put("returned_frac", returned as f64 / ctx.attempted.max(1) as f64, "frac");
    Ok(())
}

fn traced(ctx: &mut Ctx, gates: &mut Gates, m: &mut Metrics) -> std::io::Result<()> {
    let plain = ctx.search(ctx.reference(), false)?;
    let plain_csv = ctx.gate_reference(gates, &plain, "reference (untraced)");
    let plain_wall = plain.log.search_secs();
    drop(plain);

    let mut run = ctx.search(ctx.reference(), true)?;
    let traced_csv = ctx.gate_reference(gates, &run, "reference (traced)");
    gates.check(plain_csv == traced_csv, || "traced and untraced canonical traces differ".into());
    let Some(trace) = run.trace.clone() else {
        return Err(std::io::Error::other("traced reference search produced no trace"));
    };

    // Replay a fixed sample of the run's own candidates against its store.
    let (problem, data_secs) = run.problem(&ctx.w, ctx.w.ref_data_seed);
    let space = SearchSpace::for_app(ctx.w.app);
    let store = probe::TimedStore::new(Arc::clone(&run.store));
    let sample = replay::sample(&trace.events, ctx.w.replay_sample);
    let threads = swt::tensor::parallel::max_threads();
    swt::tensor::parallel::set_max_threads(1);
    let rp = replay::ReplayRun {
        problem: &problem,
        space: &space,
        store: &store,
        scheme: run.nas.scheme,
        run_seed: run.nas.seed,
    }
    .run(&sample, |rung| ctx.w.epochs_for(&run.nas, rung));
    swt::tensor::parallel::set_max_threads(threads);
    for (id, want, got) in &rp.mismatches {
        gates.check(false, || format!("replay of c{id} scored {got:?}, run scored {want:?}"));
    }

    let run_ledger = ledger::run_ledger(&ctx.w, &run, &trace);
    let replay_ledger = ledger::replay_ledger(&rp);
    for l in [&run_ledger, &replay_ledger] {
        println!("{}", l.render());
        gates.check(l.coverage() >= 0.95, || {
            format!("{} covers {:.1}% of its wall (< 95%)", l.name, 100.0 * l.coverage())
        });
    }
    ledger::per_layer(m, &ctx.w, &run, &trace, &rp, &store, data_secs);
    m.put("ledger.run_coverage", run_ledger.coverage(), "frac");
    m.put("ledger.replay_coverage", replay_ledger.coverage(), "frac");
    m.put("obs.tracing_overhead_frac", run.log.search_secs() / plain_wall.max(1e-9) - 1.0, "frac");
    ledger::sim_cross_check(m, &run);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workloads().into_iter().find(|w| w.name == args.workload) else {
        eprintln!("e2ebench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    swt::obs::enable();
    let target_dir = meta::target_dir();
    let work = target_dir.join("e2ebench-work").join(std::process::id().to_string());
    let mut ctx = Ctx { w, args, work, searches: 0, attempted: 0, failed: 0 };
    let cpu_before = meta::cpu_jiffies();
    let started = Instant::now();
    let mut gates = Gates::default();
    let mut m = Metrics::default();
    preflight(&mut gates);
    let outcome = if ctx.args.trace {
        traced(&mut ctx, &mut gates, &mut m)
    } else {
        untraced(&mut ctx, &mut gates, &mut m)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = outcome {
        gates.check(false, || format!("workload aborted: {e}"));
    }
    println!("measured {:.1}s in {} search(es)", started.elapsed().as_secs_f64(), ctx.searches);
    let meta = meta::collect(&ctx.args, &ctx.w, meta::steal_since(cpu_before));
    println!("{{\"meta\": {meta}}}");

    let correct = gates.0.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.attempted.max(1),
        if ctx.attempted == 0 { 1 } else { ctx.failed },
        m.to_json()
    );
    save_result(&target_dir, &ctx.args, &meta, &result);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Keep every result with its metadata, for `compare.py`.
fn save_result(target_dir: &Path, args: &Args, meta: &str, result: &str) {
    let dir = target_dir.join("e2ebench-results");
    let name = format!(
        "{}-{}-seed{}-trace{}.json",
        args.workload,
        args.scheme.name().to_ascii_lowercase(),
        args.seed,
        u8::from(args.trace)
    );
    let body = format!("{{\"meta\": {meta}, \"result\": {result}}}\n");
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), body))
    {
        eprintln!("e2ebench: cannot keep result file: {e}");
    }
}
