//! Comparability metadata recorded with every result: two results are
//! comparable only when host, toolchain, kernel dispatch and run settings
//! match (`compare.py` flags any difference).

use crate::workload::{Workload, WORKERS};
use crate::Args;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The cargo target directory this binary was built into
/// (`<target>/release/e2ebench`); scratch and result files live there.
pub fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(total, steal)` CPU jiffies from `/proc/stat`, to report how much of
/// the host the hypervisor took away during a run.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Share of CPU time stolen since `before` was sampled (0 if unknown).
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision when run from a git checkout, else "none".
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    command_line(Command::new("git").args(["rev-parse", "HEAD"]))
}

/// SHA-256 over the program's sources (`crates/`, the lock file and this
/// benchmark), in path order: a revision id that needs no git.
fn source_sha256() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock"), PathBuf::from("Cargo.toml")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("e2ebench/src"), &mut files);
    files.sort();
    let mut h = swt::ckpt_server::auth::Sha256::new();
    for f in files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(&f).unwrap_or_default());
    }
    crate::hex(&h.finalize())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The metadata object, numbers as numbers. `steal_frac` is the share of
/// CPU time stolen by the hypervisor while the run measured.
pub fn collect(args: &Args, w: &Workload, steal_frac: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let fields: Vec<(&str, String)> = vec![
        ("workload", json_str(w.name)),
        ("scheme", json_str(args.scheme.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("panel_searches", w.panel_size(args.seconds).to_string()),
        ("workers", WORKERS.to_string()),
        ("cores", cores.to_string()),
        ("gemm_kernel", json_str(swt::tensor::gemm_kernel_name())),
        ("profile", json_str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("git_revision", json_str(&git_revision())),
        ("source_sha256", json_str(&source_sha256())),
        ("rustc", json_str(&command_line(Command::new("rustc").arg("-V")))),
        ("os_kernel", json_str(kernel.trim())),
        ("host_steal_frac", format!("{steal_frac:?}")),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}
