//! NAS run traces: everything needed to reproduce the paper's plots.

use crate::candidate::CandidateId;
use crate::evaluator::StopReason;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use swt_core::TransferScheme;
use swt_space::ArchSeq;

/// One completed candidate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub id: CandidateId,
    pub arch: ArchSeq,
    pub parent: Option<CandidateId>,
    pub score: f64,
    /// Seconds from run start when the evaluation began / returned — the
    /// paper plots scores at their return time `t` (Fig. 7).
    pub t_start: f64,
    pub t_end: f64,
    pub train_secs: f64,
    pub transfer_secs: f64,
    pub save_secs: f64,
    pub checkpoint_bytes: u64,
    pub transfer_tensors: usize,
    pub transfer_bytes: usize,
    /// Successive-halving rung this dispatch ran at (0 without fidelity).
    pub rung: u8,
    /// Why evaluation ended ([`StopReason::BudgetExhausted`] without
    /// fidelity).
    pub stop: StopReason,
}

impl TraceEvent {
    /// True iff the event carries no fidelity information — the shape every
    /// pre-fidelity trace row has. An all-default trace serialises in the
    /// legacy column layout, byte-identically to older releases.
    fn fidelity_default(&self) -> bool {
        self.rung == 0 && self.stop == StopReason::BudgetExhausted
    }
}

/// A complete NAS run: the scheme, every event, and the wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct NasTrace {
    pub app: String,
    pub scheme: TransferScheme,
    pub seed: u64,
    pub workers: usize,
    pub events: Vec<TraceEvent>,
    pub wall_secs: f64,
}

impl NasTrace {
    /// Events sorted by completion time (the scheduler may record them in a
    /// different order under concurrency). NaN completion times sort last.
    pub fn by_completion(&self) -> Vec<&TraceEvent> {
        let mut v: Vec<&TraceEvent> = self.events.iter().collect();
        v.sort_by(|a, b| a.t_end.total_cmp(&b.t_end));
        v
    }

    /// The `k` best events by score (ties broken by earlier completion).
    /// NaN scores (a diverged loss can produce one) rank below every real
    /// score instead of panicking the sort.
    pub fn top_k(&self, k: usize) -> Vec<&TraceEvent> {
        let nan_last = |x: f64| {
            // Collapse every NaN bit pattern below -inf in the total order.
            if x.is_nan() {
                f64::NEG_INFINITY
            } else {
                x
            }
        };
        let mut v: Vec<&TraceEvent> = self.events.iter().collect();
        v.sort_by(|a, b| {
            nan_last(b.score).total_cmp(&nan_last(a.score)).then(a.t_end.total_cmp(&b.t_end))
        });
        v.truncate(k);
        v
    }

    /// Transfer-lineage depth of each candidate: the number of ancestors it
    /// inherited weights from through the parent chain (0 for from-scratch
    /// candidates). Under weight transfer, a candidate at depth `k` carries
    /// roughly `k + 1` epochs of accumulated training — the mechanism behind
    /// the paper's Fig. 8 full-training speedup.
    pub fn lineage_depths(&self) -> std::collections::HashMap<CandidateId, usize> {
        let parent_of: std::collections::HashMap<CandidateId, Option<CandidateId>> = self
            .events
            .iter()
            .map(|e| (e.id, if e.transfer_tensors > 0 { e.parent } else { None }))
            .collect();
        // Depths are memoized as chains are walked, so each candidate is
        // visited O(1) times amortized and deep lineages stay linear (the
        // naive per-event re-walk is O(n²) on a single long chain).
        let mut depths: std::collections::HashMap<CandidateId, usize> =
            std::collections::HashMap::with_capacity(self.events.len());
        let mut chain: Vec<CandidateId> = Vec::new();
        for e in &self.events {
            let mut cursor = e.id;
            // Walk up to the first candidate with a known depth (or a chain
            // root), stacking the unresolved ids. Parents always have
            // smaller ids than children, so chains are finite; the guard
            // caps pathological traces.
            let base = loop {
                if let Some(&d) = depths.get(&cursor) {
                    break d;
                }
                match parent_of.get(&cursor) {
                    Some(&Some(parent)) if chain.len() <= self.events.len() => {
                        chain.push(cursor);
                        cursor = parent;
                    }
                    _ => {
                        if parent_of.contains_key(&cursor) {
                            depths.insert(cursor, 0);
                        }
                        break 0;
                    }
                }
            };
            for (above_base, id) in chain.drain(..).rev().enumerate() {
                depths.insert(id, base + above_base + 1);
            }
        }
        depths
    }

    /// Mean lineage depth across all candidates.
    pub fn mean_lineage_depth(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let depths = self.lineage_depths();
        depths.values().map(|&d| d as f64).sum::<f64>() / depths.len() as f64
    }

    /// True iff any event carries fidelity state (a non-zero rung or a
    /// non-budget stop reason). Fidelity-off traces serialise in the legacy
    /// column layout so their bytes match pre-fidelity releases exactly.
    fn has_fidelity_columns(&self) -> bool {
        self.events.iter().any(|e| !e.fidelity_default())
    }

    /// Write the trace as CSV (one header + one row per event).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        let fidelity = self.has_fidelity_columns();
        writeln!(
            w,
            "# app={} scheme={} seed={} workers={} wall_secs={}",
            self.app,
            self.scheme.name(),
            self.seed,
            self.workers,
            self.wall_secs
        )?;
        writeln!(
            w,
            "id,arch,parent,score,t_start,t_end,train_secs,transfer_secs,save_secs,checkpoint_bytes,transfer_tensors,transfer_bytes{}",
            if fidelity { ",rung,stop" } else { "" }
        )?;
        for e in &self.events {
            write!(
                w,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                e.id,
                e.arch.encode(),
                e.parent.map(|p| p.to_string()).unwrap_or_default(),
                e.score,
                e.t_start,
                e.t_end,
                e.train_secs,
                e.transfer_secs,
                e.save_secs,
                e.checkpoint_bytes,
                e.transfer_tensors,
                e.transfer_bytes
            )?;
            if fidelity {
                write!(w, ",{},{}", e.rung, e.stop.label())?;
            }
            writeln!(w)?;
        }
        w.flush()
    }

    /// The trace's canonical form: only the deterministic columns — no
    /// wall-clock timings — so two runs of the same `NasConfig` produce
    /// byte-identical output whatever backend ran them, however many
    /// workers died or joined along the way. This is what identity gates
    /// (`--canonical-trace`, the elastic test matrix, the CI smoke) `cmp`.
    pub fn canonical_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Fidelity columns appear only when some event carries them, so a
        // run with every fidelity feature off emits the legacy 7-column
        // layout byte-for-byte (the off-switch A/B gate in check.sh).
        let fidelity = self.has_fidelity_columns();
        let _ = writeln!(
            out,
            "# app={} scheme={} seed={} workers={}",
            self.app,
            self.scheme.name(),
            self.seed,
            self.workers
        );
        let _ = writeln!(
            out,
            "id,arch,parent,score,checkpoint_bytes,transfer_tensors,transfer_bytes{}",
            if fidelity { ",rung,stop" } else { "" }
        );
        for e in &self.events {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{}",
                e.id,
                e.arch.encode(),
                e.parent.map(|p| p.to_string()).unwrap_or_default(),
                // Bit-faithful float formatting: Rust's shortest-round-trip
                // `Display` for f64 is injective, so equal strings ⇔ equal
                // bit patterns (modulo NaN payloads, which never reach a
                // canonical trace comparison meaningfully).
                e.score,
                e.checkpoint_bytes,
                e.transfer_tensors,
                e.transfer_bytes
            );
            if fidelity {
                let _ = write!(out, ",{},{}", e.rung, e.stop.label());
            }
            out.push('\n');
        }
        out
    }

    /// The trace-identity check every A/B gate uses: the first line at
    /// which the two [`canonical_csv`](NasTrace::canonical_csv) forms
    /// differ, rendered as `line N: <self> vs <other>`, or `None` when they
    /// are byte-identical.
    pub fn canonical_diff(&self, other: &NasTrace) -> Option<String> {
        let (a, b) = (self.canonical_csv(), other.canonical_csv());
        let (mut la, mut lb) = (a.lines(), b.lines());
        let mut n = 0;
        loop {
            n += 1;
            match (la.next(), lb.next()) {
                (None, None) => return None,
                (x, y) if x == y => {}
                (x, y) => {
                    let (x, y) = (x.unwrap_or("<end>"), y.unwrap_or("<end>"));
                    return Some(format!("line {n}: `{x}` vs `{y}`"));
                }
            }
        }
    }

    /// Write [`NasTrace::canonical_csv`] to `path`.
    pub fn write_canonical_csv(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.canonical_csv())
    }

    /// Read a trace written by [`NasTrace::write_csv`].
    pub fn read_csv(path: &Path) -> io::Result<NasTrace> {
        let file = std::fs::File::open(path)?;
        let mut lines = io::BufReader::new(file).lines();
        let header = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty trace"))??;
        let mut app = String::new();
        let mut scheme = TransferScheme::Baseline;
        let mut seed = 0u64;
        let mut workers = 0usize;
        let mut wall_secs = 0.0f64;
        for token in header.trim_start_matches('#').split_whitespace() {
            if let Some((k, v)) = token.split_once('=') {
                match k {
                    "app" => app = v.to_string(),
                    "scheme" => {
                        scheme = match v {
                            "LP" => TransferScheme::Lp,
                            "LCS" => TransferScheme::Lcs,
                            _ => TransferScheme::Baseline,
                        }
                    }
                    "seed" => seed = v.parse().unwrap_or(0),
                    "workers" => workers = v.parse().unwrap_or(0),
                    "wall_secs" => wall_secs = v.parse().unwrap_or(0.0),
                    _ => {}
                }
            }
        }
        let _column_header = lines.next();
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut events = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split(',').collect();
            // 12 columns = the legacy layout; 14 = with fidelity (rung, stop).
            if cols.len() != 12 && cols.len() != 14 {
                return Err(bad(&format!("expected 12 or 14 columns, got {}", cols.len())));
            }
            events.push(TraceEvent {
                id: cols[0].parse().map_err(|_| bad("id"))?,
                arch: ArchSeq::decode(cols[1]).ok_or_else(|| bad("arch"))?,
                parent: if cols[2].is_empty() {
                    None
                } else {
                    Some(cols[2].parse().map_err(|_| bad("parent"))?)
                },
                score: cols[3].parse().map_err(|_| bad("score"))?,
                t_start: cols[4].parse().map_err(|_| bad("t_start"))?,
                t_end: cols[5].parse().map_err(|_| bad("t_end"))?,
                train_secs: cols[6].parse().map_err(|_| bad("train_secs"))?,
                transfer_secs: cols[7].parse().map_err(|_| bad("transfer_secs"))?,
                save_secs: cols[8].parse().map_err(|_| bad("save_secs"))?,
                checkpoint_bytes: cols[9].parse().map_err(|_| bad("checkpoint_bytes"))?,
                transfer_tensors: cols[10].parse().map_err(|_| bad("transfer_tensors"))?,
                transfer_bytes: cols[11].parse().map_err(|_| bad("transfer_bytes"))?,
                rung: if cols.len() > 12 { cols[12].parse().map_err(|_| bad("rung"))? } else { 0 },
                stop: if cols.len() > 13 {
                    StopReason::from_label(cols[13]).ok_or_else(|| bad("stop"))?
                } else {
                    StopReason::BudgetExhausted
                },
            });
        }
        Ok(NasTrace { app, scheme, seed, workers, events, wall_secs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: CandidateId, score: f64, t_end: f64) -> TraceEvent {
        TraceEvent {
            id,
            arch: ArchSeq::new(vec![1, 2, 3]),
            parent: if id > 0 { Some(id - 1) } else { None },
            score,
            t_start: t_end - 1.0,
            t_end,
            train_secs: 0.9,
            transfer_secs: 0.05,
            save_secs: 0.02,
            checkpoint_bytes: 1000 + id,
            transfer_tensors: 3,
            transfer_bytes: 400,
            rung: 0,
            stop: StopReason::BudgetExhausted,
        }
    }

    fn trace() -> NasTrace {
        NasTrace {
            app: "Uno".into(),
            scheme: TransferScheme::Lcs,
            seed: 9,
            workers: 4,
            events: vec![event(0, 0.5, 3.0), event(1, 0.9, 2.0), event(2, 0.7, 1.0)],
            wall_secs: 3.5,
        }
    }

    #[test]
    fn completion_ordering() {
        let t = trace();
        let order: Vec<CandidateId> = t.by_completion().iter().map(|e| e.id).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn top_k_by_score() {
        let t = trace();
        let top: Vec<CandidateId> = t.top_k(2).iter().map(|e| e.id).collect();
        assert_eq!(top, vec![1, 2]);
        assert_eq!(t.top_k(100).len(), 3);
    }

    #[test]
    fn lineage_depths_follow_parent_chains() {
        // c0 scratch; c1 transfers from c0; c2 transfers from c1; c3 has a
        // parent but transferred nothing (failed load) -> depth 0.
        let mut t = trace();
        t.events = vec![event(0, 0.1, 1.0), event(1, 0.2, 2.0), event(2, 0.3, 3.0), {
            let mut e = event(3, 0.4, 4.0);
            e.transfer_tensors = 0;
            e
        }];
        t.events[0].parent = None;
        t.events[0].transfer_tensors = 0;
        let depths = t.lineage_depths();
        assert_eq!(depths[&0], 0);
        assert_eq!(depths[&1], 1);
        assert_eq!(depths[&2], 2);
        assert_eq!(depths[&3], 0, "failed transfer breaks the chain");
        assert!((t.mean_lineage_depth() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nan_scores_sort_without_panicking() {
        // A diverged candidate reports NaN; ordering helpers must stay
        // total (this used to panic in partial_cmp().unwrap()).
        let mut t = trace();
        t.events.push(event(3, f64::NAN, 4.0));
        t.events.push(event(4, 0.8, f64::NAN));
        let top: Vec<CandidateId> = t.top_k(5).iter().map(|e| e.id).collect();
        assert_eq!(top.len(), 5);
        assert_eq!(*top.last().unwrap(), 3, "NaN score ranks below every real score");
        assert_eq!(top[..2], [1, 4], "finite scores keep their order");
        let order: Vec<CandidateId> = t.by_completion().iter().map(|e| e.id).collect();
        assert_eq!(*order.last().unwrap(), 4, "NaN completion time sorts last");
    }

    #[test]
    fn lineage_depths_linear_on_deep_chains() {
        // One unbroken 5000-candidate transfer chain: the memoized walk
        // resolves each id once (the naive O(n²) re-walk would do ~12.5M
        // hops here and shows up instantly under a debug build).
        let n: u64 = 5000;
        let mut t = trace();
        t.events = (0..n).map(|id| event(id, 0.5, id as f64 + 1.0)).collect();
        t.events[0].parent = None;
        t.events[0].transfer_tensors = 0;
        let depths = t.lineage_depths();
        assert_eq!(depths.len(), n as usize);
        for id in 0..n {
            assert_eq!(depths[&id], id as usize, "depth of c{id}");
        }
        assert!((t.mean_lineage_depth() - (n - 1) as f64 / 2.0).abs() < 1e-9);
        // Events arriving child-before-parent still resolve identically.
        t.events.reverse();
        assert_eq!(t.lineage_depths()[&(n - 1)], (n - 1) as usize);
    }

    #[test]
    fn csv_round_trip() {
        let t = trace();
        let path = std::env::temp_dir().join(format!("swt_trace_{}.csv", std::process::id()));
        t.write_csv(&path).unwrap();
        let back = NasTrace::read_csv(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn canonical_csv_drops_every_wall_clock_column() {
        let mut a = trace();
        let mut b = trace();
        // Perturb everything timing-related; the canonical form must not see it.
        b.wall_secs = 99.0;
        for e in &mut b.events {
            e.t_start += 7.5;
            e.t_end += 7.5;
            e.train_secs *= 3.0;
            e.transfer_secs += 1.0;
            e.save_secs += 1.0;
        }
        assert_eq!(a.canonical_csv(), b.canonical_csv());
        // But it must see every deterministic column.
        b.events[1].score += 1e-15;
        assert_ne!(a.canonical_csv(), b.canonical_csv(), "score changes are visible");
        a.events[0].checkpoint_bytes += 1;
        assert_ne!(a.canonical_csv(), trace().canonical_csv());
    }

    #[test]
    fn canonical_diff_names_the_first_differing_line() {
        let a = trace();
        let mut b = trace();
        b.wall_secs = 99.0;
        b.events[0].train_secs += 1.0;
        assert_eq!(a.canonical_diff(&b), None, "wall-clock columns are invisible");
        b.events[1].checkpoint_bytes += 1;
        let diff = a.canonical_diff(&b).expect("checkpoint bytes are visible");
        assert!(diff.starts_with("line 4: `1,"), "c1 is the second data row: {diff}");
        let mut b = trace();
        b.events[2].rung = 1;
        let diff = a.canonical_diff(&b).expect("fidelity columns are visible");
        assert!(diff.starts_with("line 2: `id,"), "the column header changes first: {diff}");
        let mut b = trace();
        b.events.pop();
        let diff = a.canonical_diff(&b).expect("a missing row is visible");
        assert!(diff.starts_with("line 5: `2,") && diff.ends_with(" vs `<end>`"), "{diff}");
    }

    #[test]
    fn canonical_csv_writes_to_disk() {
        let t = trace();
        let path = std::env::temp_dir().join(format!("swt_trace_canon_{}.csv", std::process::id()));
        t.write_canonical_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text, t.canonical_csv());
        assert!(text.starts_with("# app=Uno scheme=LCS seed=9 workers=4\n"));
        assert!(!text.contains("wall_secs"), "no wall-clock leaks into the header");
    }

    #[test]
    fn csv_header_unknown_scheme_falls_back_to_baseline() {
        let path =
            std::env::temp_dir().join(format!("swt_trace_scheme_{}.csv", std::process::id()));
        std::fs::write(&path, "# app=X scheme=FUTURE seed=7 workers=2 wall_secs=1.5\nheader\n")
            .unwrap();
        let t = NasTrace::read_csv(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(t.scheme, TransferScheme::Baseline);
        assert_eq!((t.seed, t.workers), (7, 2));
        assert_eq!(t.wall_secs, 1.5);
        assert!(t.events.is_empty());
    }

    #[test]
    fn csv_header_missing_wall_secs_defaults_to_zero() {
        let path = std::env::temp_dir().join(format!("swt_trace_wall_{}.csv", std::process::id()));
        std::fs::write(&path, "# app=X scheme=LP seed=1 workers=1\nheader\n").unwrap();
        let t = NasTrace::read_csv(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(t.scheme, TransferScheme::Lp);
        assert_eq!(t.wall_secs, 0.0);
    }

    #[test]
    fn csv_skips_trailing_blank_lines() {
        let t = trace();
        let path = std::env::temp_dir().join(format!("swt_trace_blank_{}.csv", std::process::id()));
        t.write_csv(&path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("\n  \n\n");
        std::fs::write(&path, text).unwrap();
        let back = NasTrace::read_csv(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        let path = std::env::temp_dir().join(format!("swt_badtrace_{}.csv", std::process::id()));
        std::fs::write(&path, "# app=X scheme=LP seed=1 workers=1 wall_secs=1\nheader\n1,2,3\n")
            .unwrap();
        assert!(NasTrace::read_csv(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fidelity_columns_appear_only_when_carried() {
        let plain = trace();
        assert!(!plain.canonical_csv().contains("rung"), "all-default traces stay 7-column");
        let mut fid = trace();
        fid.events[1].rung = 1;
        fid.events[2].stop = StopReason::Pruned;
        let canon = fid.canonical_csv();
        assert!(canon.contains(",rung,stop"), "fidelity header columns present");
        assert!(canon.contains(",1,budget"), "rung column rendered");
        assert!(canon.contains(",0,pruned"), "stop label rendered");
    }

    #[test]
    fn fidelity_csv_round_trips_and_legacy_reads_default() {
        let mut t = trace();
        t.events[0].stop = StopReason::Prefiltered;
        t.events[0].score = f64::NEG_INFINITY;
        t.events[2].rung = 2;
        t.events[2].stop = StopReason::Converged;
        let path = std::env::temp_dir().join(format!("swt_trace_fid_{}.csv", std::process::id()));
        t.write_csv(&path).unwrap();
        let back = NasTrace::read_csv(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, t, "14-column round trip preserves rung and stop");

        // A legacy 12-column file (what every older release wrote) reads
        // with default fidelity fields.
        let legacy = trace();
        let path = std::env::temp_dir().join(format!("swt_trace_leg_{}.csv", std::process::id()));
        legacy.write_csv(&path).unwrap();
        let back = NasTrace::read_csv(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(back.events.iter().all(|e| e.fidelity_default()));
        assert_eq!(back, legacy);
    }

    #[test]
    fn csv_rejects_unknown_stop_labels() {
        let path = std::env::temp_dir().join(format!("swt_trace_bad_{}.csv", std::process::id()));
        let mut t = trace();
        t.events[0].rung = 1;
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap().replace(",budget", ",mystery");
        std::fs::write(&path, text).unwrap();
        assert!(NasTrace::read_csv(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
