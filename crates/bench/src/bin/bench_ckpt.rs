//! Selective checkpoint I/O benchmark, emitting `BENCH_ckpt.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_ckpt [--smoke] [out.json]`
//!
//! Measures the checkpoint data path the NAS evaluator exercises, before and
//! after the WTC2/selective-read work:
//!
//! 1. full saves and loads in both container formats (WTC1 legacy vs WTC2),
//! 2. the *transfer path*: what a child evaluation pays to read its
//!    provider — formerly a full WTC1 decode, now an index read plus a
//!    partial load of only the matched tensors,
//! 3. the same transfer path against a warmed [`CachedStore`] (evolution
//!    re-reads elite parents constantly, so this is the steady state),
//! 4. an end-to-end A/B: two identical single-worker quick NAS runs, one on
//!    a full-load-only store and one on the selective path + cache. Their
//!    canonical traces must be byte-identical; only `transfer_secs` and
//!    the other wall-clock columns may differ.
//!
//! Exits non-zero if the provider read on the transfer path is not at least
//! 3x faster than the WTC1 full decode, or if the A/B runs diverge.
//!
//! `--smoke` writes the JSON to a temp directory instead of the repository
//! root so CI checks do not dirty the tree.

use std::hint::black_box;
use std::io;
use std::sync::Arc;
use swt::checkpoint::{decode, encode_v1};
use swt::prelude::*;
use swt_bench::Harness;

/// A store wrapper that hides the inner store's selective-read overrides, so
/// the trait's default implementations (full load + filter) take over — the
/// pre-WTC2 provider read path, reproduced exactly.
struct FullLoadOnly<S: CheckpointStore>(S);

impl<S: CheckpointStore> CheckpointStore for FullLoadOnly<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        self.0.save(id, entries)
    }
    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        self.0.load(id)
    }
    fn exists(&self, id: &str) -> bool {
        self.0.exists(id)
    }
    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.0.size_bytes(id)
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn delete(&self, id: &str) -> bool {
        self.0.delete(id)
    }
}

/// A provider checkpoint shaped like a real candidate: a small conv stack
/// whose tensors transfer to a mutated child, plus a flatten-dependent dense
/// head that dominates the payload but never matches (its input dim changes
/// with any upstream mutation) and batch-norm running statistics that the
/// planner filters out.
fn provider_entries() -> Vec<(String, Tensor)> {
    let mut rng = Rng::seed(0xC4C4);
    let t = |dims: &[usize], rng: &mut Rng| Tensor::rand_normal(dims.to_vec(), 0.0, 0.1, rng);
    vec![
        ("n1_conv2d/kernel".into(), t(&[3, 3, 16, 32], &mut rng)),
        ("n1_conv2d/bias".into(), t(&[32], &mut rng)),
        ("n2_conv2d/kernel".into(), t(&[3, 3, 32, 64], &mut rng)),
        ("n2_conv2d/bias".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/gamma".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/beta".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/running_mean".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/running_var".into(), t(&[64], &mut rng)),
        ("n4_conv2d/kernel".into(), t(&[3, 3, 64, 64], &mut rng)),
        ("n4_conv2d/bias".into(), t(&[64], &mut rng)),
        ("n5_dense/kernel".into(), t(&[6400, 512], &mut rng)),
        ("n5_dense/bias".into(), t(&[512], &mut rng)),
        ("n6_dense/kernel".into(), t(&[512, 10], &mut rng)),
        ("n6_dense/bias".into(), t(&[10], &mut rng)),
    ]
}

/// The provider tensors a d=1 mutated child actually receives: the conv
/// stack, batch-norm parameters and the output head — everything except the
/// flatten-dependent `n5_dense` giant and the running statistics.
fn transfer_subset() -> Vec<String> {
    [
        "n1_conv2d/kernel",
        "n1_conv2d/bias",
        "n2_conv2d/kernel",
        "n2_conv2d/bias",
        "n3_batchnorm/gamma",
        "n3_batchnorm/beta",
        "n4_conv2d/kernel",
        "n4_conv2d/bias",
        "n6_dense/kernel",
        "n6_dense/bias",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn sum_transfer_secs(trace: &NasTrace) -> f64 {
    trace.events.iter().map(|e| e.transfer_secs).sum()
}

fn sum_transfer_tensors(trace: &NasTrace) -> usize {
    trace.events.iter().map(|e| e.transfer_tensors).sum()
}

fn main() {
    let mut smoke = false;
    let mut out_arg = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_arg = Some(arg);
        }
    }
    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join("BENCH_ckpt.json").to_string_lossy().into_owned()
        } else {
            "BENCH_ckpt.json".to_string()
        }
    });
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    swt::tensor::parallel::set_max_threads(1);
    swt::obs::disable();

    let scratch = std::env::temp_dir().join(format!("bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let entries = provider_entries();
    let subset = transfer_subset();
    let payload: u64 = entries.iter().map(|(_, t)| 4 * t.data().len() as u64).sum();
    let subset_payload: u64 = entries
        .iter()
        .filter(|(n, _)| subset.contains(n))
        .map(|(_, t)| 4 * t.data().len() as u64)
        .sum();
    println!(
        "provider checkpoint: {} tensors, {:.1} MiB payload; transfer subset: {} tensors, \
         {:.2} MiB",
        entries.len(),
        payload as f64 / (1 << 20) as f64,
        subset.len(),
        subset_payload as f64 / (1 << 20) as f64
    );

    let mut h = Harness::new();

    // --- 1. full saves and loads, both formats ------------------------------
    let wtc1_path = scratch.join("provider_v1.wtc");
    h.bench("ckpt.save.wtc1", || {
        std::fs::write(&wtc1_path, encode_v1(&entries)).expect("write wtc1");
    });
    let store = Arc::new(DirStore::new(scratch.join("store")).expect("open store"));
    h.bench("ckpt.save.wtc2", || {
        store.save("provider", &entries).expect("save wtc2");
    });
    h.bench("ckpt.load.full.wtc1", || {
        let buf = std::fs::read(&wtc1_path).expect("read wtc1");
        black_box(decode(&buf).expect("decode wtc1"));
    });
    h.bench("ckpt.load.full.wtc2", || {
        black_box(store.load("provider").expect("load wtc2"));
    });

    // --- 2. the transfer path: index + partial load -------------------------
    h.bench("ckpt.load.index.wtc2", || {
        black_box(store.load_index("provider").expect("load index"));
    });
    h.bench("ckpt.load.transfer.wtc2", || {
        let index = store.load_index("provider").expect("load index");
        black_box(&index);
        black_box(store.load_tensors("provider", &subset).expect("partial load"));
    });

    // --- 3. the same transfer path against a warmed provider cache ----------
    let cached = CachedStore::new(Arc::clone(&store), 256 << 20);
    cached.load_index("provider").expect("warm cache");
    assert!(cached.resident_bytes() > 0, "provider must fit the cache budget");
    h.bench("ckpt.load.transfer.cached", || {
        let index = cached.load_index("provider").expect("cached index");
        black_box(&index);
        black_box(cached.load_tensors("provider", &subset).expect("cached partial load"));
    });

    let full_v1 = h.get("ckpt.load.full.wtc1").unwrap();
    let transfer = h.get("ckpt.load.transfer.wtc2").unwrap();
    let cached_transfer = h.get("ckpt.load.transfer.cached").unwrap();
    let provider_read_speedup = full_v1 / transfer;
    let cache_speedup = full_v1 / cached_transfer;
    println!();
    println!(
        "provider read on the transfer path: {provider_read_speedup:.1}x faster than WTC1 \
         full decode ({:.2} ms -> {:.3} ms)",
        full_v1 / 1e6,
        transfer / 1e6
    );
    println!(
        "warm cache hit: {cache_speedup:.1}x faster than WTC1 full decode ({:.3} ms)",
        cached_transfer / 1e6
    );

    // --- 4. end-to-end A/B: full-load-only vs selective + cache -------------
    // 16-member quick population + 8 children, so the tail of the run
    // exercises the parent-read path under both stores.
    let candidates = 24;
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 21));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let before_store: Arc<dyn CheckpointStore> = Arc::new(FullLoadOnly(
        DirStore::new(scratch.join("nas_before")).expect("open before store"),
    ));
    let before_cfg =
        NasConfig { cache_bytes: 0, ..NasConfig::quick(TransferScheme::Lcs, candidates, 1, 9) };
    let before = run_nas(Arc::clone(&problem), Arc::clone(&space), before_store, &before_cfg);
    let after_store: Arc<dyn CheckpointStore> =
        Arc::new(DirStore::new(scratch.join("nas_after")).expect("open after store"));
    let after_cfg = NasConfig::quick(TransferScheme::Lcs, candidates, 1, 9);
    let after = run_nas(problem, space, after_store, &after_cfg);

    let ab_ok = swt_bench::traces_identical(&before, &after, "quick NAS A/B");
    let before_transfer = sum_transfer_secs(&before);
    let after_transfer = sum_transfer_secs(&after);
    println!();
    println!(
        "quick NAS A/B ({candidates} candidates, 1 worker, seed 9): identical scores and \
         {} transferred tensors in both runs",
        sum_transfer_tensors(&after)
    );
    println!(
        "total transfer_secs: {before_transfer:.4}s full-load-only -> {after_transfer:.4}s \
         selective+cache"
    );

    let _ = std::fs::remove_dir_all(&scratch);

    let meta = [
        ("bench", "ckpt".to_string()),
        ("threads", "1".to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("payload_bytes", payload.to_string()),
        ("transfer_subset_bytes", subset_payload.to_string()),
        ("provider_read_speedup", format!("{provider_read_speedup:.2}")),
        ("cache_hit_speedup", format!("{cache_speedup:.2}")),
        ("nas_transfer_secs_fullload", format!("{before_transfer:.6}")),
        ("nas_transfer_secs_selective", format!("{after_transfer:.6}")),
        ("nas_transfer_tensors", sum_transfer_tensors(&after).to_string()),
    ];
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");

    let mut failed = false;
    if provider_read_speedup < 3.0 {
        eprintln!("FAIL: provider read speedup {provider_read_speedup:.2}x < 3x");
        failed = true;
    }
    if !ab_ok {
        eprintln!("FAIL: selective transfer changed NAS results");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: transfer-path read {provider_read_speedup:.1}x faster, cache hit \
         {cache_speedup:.1}x, A/B runs identical"
    );
}
