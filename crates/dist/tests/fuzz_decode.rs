//! Seeded fuzz coverage of the wire protocol's decode surface: every frame
//! type under truncation, bit flips, random payloads, unknown tags, and
//! hostile length prefixes must come back as a typed [`WireError`] or a
//! valid `Msg` — never a panic, never an unbounded allocation.
//! Deterministic (fixed seeds, no time/randomness from the environment) so
//! a failure always reproduces.

use std::io::Cursor as IoCursor;
use swt_core::{TransferScheme, TransferStats};
use swt_data::{AppKind, DataScale};
use swt_dist::frame::{read_frame, write_frame};
use swt_dist::wire::{
    GaugeSnap, Msg, RunSpec, SpanTotalRow, Telemetry, WireEvent, WorkerMetrics,
    MAX_TELEMETRY_EVENTS, MAX_TELEMETRY_NAMES,
};
use swt_dist::{WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use swt_nas::{Candidate, EvalOutcome, StopReason, MAX_RUNGS};
use swt_obs::report::{CounterRow, HistogramRow};
use swt_space::ArchSeq;
use swt_tensor::Rng;

/// Every known frame-type byte (0x01 Hello … 0x0B Retire; 0x09 is
/// unassigned).
const FRAME_TYPES: [u8; 10] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x0A, 0x0B];

/// The corpus HelloAck's store endpoint — non-empty so the url bytes are
/// actually exercised by the truncation sweeps.
const CORPUS_URL: &str = "tcp://127.0.0.1:9999";

/// One valid message of every frame type — the fuzz corpus seeds.
fn corpus() -> Vec<Msg> {
    let metrics = WorkerMetrics {
        counters: vec![
            CounterRow { name: "ckpt.cache.hits".into(), value: 12 },
            CounterRow { name: "tensor.gemm.blocked".into(), value: 4096 },
        ],
        histograms: vec![HistogramRow {
            name: "ckpt.save_ns".into(),
            count: 3,
            sum: 900,
            buckets: vec![(255, 2), (u64::MAX, 1)],
        }],
    };
    vec![
        Msg::Hello { version: PROTOCOL_VERSION, worker_id: 3, pid: 4242 },
        Msg::HelloAck {
            version: PROTOCOL_VERSION,
            run: RunSpec {
                app: AppKind::Uno,
                scale: DataScale::Quick,
                data_seed: 11,
                scheme: TransferScheme::Lcs,
                epochs: 1,
                run_seed: 9,
                namespace: "dist_".into(),
                store_dir: "/tmp/swt_store".into(),
                threads: 1,
                cache_bytes: 1 << 22,
                prefilter_quantile: 0.25,
                conv_window: 3,
                conv_min_delta: 1e-4,
                store_url: CORPUS_URL.into(),
            },
        },
        Msg::Task {
            cand: Candidate {
                id: 7,
                arch: ArchSeq::new(vec![1, 0, 4, 2]),
                parent: Some(3),
                rung: 2,
                epochs: Some(4),
            },
        },
        Msg::Result {
            id: 7,
            outcome: EvalOutcome {
                id: 7,
                score: 0.12345678901234567,
                train_secs: 1.5,
                transfer_secs: 0.25,
                save_secs: 0.01,
                checkpoint_bytes: 1 << 20,
                transfer: TransferStats { tensors: 5, bytes: 4096, skipped: 1 },
                epochs: 1,
                stop: StopReason::Converged,
            },
        },
        Msg::Ping { nonce: u64::MAX },
        Msg::Pong { nonce: 0 },
        Msg::Shutdown,
        Msg::Error { message: "checkpoint store unreachable".into() },
        Msg::Telemetry {
            telemetry: Telemetry {
                seq: u64::MAX - 1, // hostile-adjacent seq must survive the trip
                uptime_ns: 123_456_789,
                metrics,
                spans: vec![SpanTotalRow { path: "nas.eval".into(), count: 4, total_ns: 99 }],
                gauges: vec![GaugeSnap { name: "pool.queue_depth".into(), value: -1, max: 8 }],
                names: vec!["nas.eval".into(), "nas.dispatch".into()],
                events: vec![
                    WireEvent { name: 0, kind: 0, t_ns: 10, dur_ns: 5, delta: 0 },
                    WireEvent { name: 1, kind: 1, t_ns: 20, dur_ns: 0, delta: -3 },
                ],
                dropped_events: 7,
            },
        },
        Msg::Retire { decision: 42, reason: "pool past demand".into() },
    ]
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    let corpus = corpus();
    let tags: Vec<u8> = corpus.iter().map(Msg::frame_type).collect();
    assert_eq!(tags, FRAME_TYPES, "the corpus must hold one message of every frame type");
    for msg in corpus {
        let payload = msg.encode().expect("corpus must encode");
        assert_eq!(Msg::decode(msg.frame_type(), &payload).expect("corpus round-trip"), msg);
        // Every field is mandatory, so every strict prefix either starves a
        // fixed-width read or leaves a count without its elements: none may
        // decode, none may panic.
        for cut in 0..payload.len() {
            assert!(
                Msg::decode(msg.frame_type(), &payload[..cut]).is_err(),
                "type {:#04x} truncated to {cut}/{} bytes decoded successfully",
                msg.frame_type(),
                payload.len()
            );
        }
    }
}

#[test]
fn hostile_fidelity_tails_are_typed_errors() {
    let corpus = corpus();
    let task = corpus.iter().find(|m| matches!(m, Msg::Task { .. })).unwrap();
    let result = corpus.iter().find(|m| matches!(m, Msg::Result { .. })).unwrap();

    // Out-of-range rung discriminants in a Task (the rung byte sits 6 from
    // the end, before the epochs flag and the u32 epochs).
    for rung in [MAX_RUNGS as u8, 0x80, 0xFF] {
        let mut p = task.encode().unwrap();
        let n = p.len();
        p[n - 6] = rung;
        assert!(
            matches!(Msg::decode(0x03, &p), Err(WireError::Malformed(_))),
            "task rung {rung} must be rejected"
        );
    }

    // Every out-of-range stop discriminant (codes 0–3 are the enum; the
    // stop code is a Result's last byte).
    for stop in 4..=u8::MAX {
        let mut p = result.encode().unwrap();
        let n = p.len();
        p[n - 1] = stop;
        assert!(
            matches!(Msg::decode(0x04, &p), Err(WireError::Malformed(_))),
            "stop discriminant {stop} must be rejected"
        );
    }

    // Bogus epochs flag in a Task.
    for flag in [2u8, 0xFF] {
        let mut p = task.encode().unwrap();
        let n = p.len();
        p[n - 5] = flag;
        assert!(matches!(Msg::decode(0x03, &p), Err(WireError::Malformed(_))));
    }

    // HelloAcks smuggling NaN/out-of-range knobs. The store url
    // (2 + CORPUS_URL.len() bytes) sits after the fidelity group.
    let ack = corpus.iter().find(|m| matches!(m, Msg::HelloAck { .. })).unwrap();
    let good = ack.encode().unwrap();
    let n = good.len();
    let t = 2 + CORPUS_URL.len();
    for bits in [f64::NAN.to_bits(), 1.0f64.to_bits(), (-0.5f64).to_bits()] {
        let mut p = good.clone();
        p[n - t - 20..n - t - 12].copy_from_slice(&bits.to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &p), Err(WireError::Malformed(_))));
    }
    for bits in [f64::NAN.to_bits(), (-1e-9f64).to_bits()] {
        let mut p = good.clone();
        p[n - t - 8..n - t].copy_from_slice(&bits.to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &p), Err(WireError::Malformed(_))));
    }
    // A store-url length prefix promising more bytes than the payload
    // holds is malformed.
    for len in [CORPUS_URL.len() as u16 + 1, u16::MAX] {
        let mut p = good.clone();
        p[n - t..n - t + 2].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &p), Err(WireError::Malformed(_))));
    }
}

#[test]
fn bit_flips_never_panic_and_often_fail_cleanly() {
    let mut rng = Rng::seed(0xF1A5);
    for msg in corpus() {
        let payload = msg.encode().expect("corpus must encode");
        if payload.is_empty() {
            continue; // Shutdown: nothing to corrupt
        }
        for _ in 0..256 {
            let mut mutated = payload.clone();
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let byte = rng.below(mutated.len());
                let bit = rng.below(8);
                mutated[byte] ^= 1 << bit;
            }
            // A flip inside a value field may still decode (to a different
            // message); a flip inside structure must fail. Both are fine —
            // what's forbidden is a panic or an abort.
            match Msg::decode(msg.frame_type(), &mutated) {
                Ok(_) | Err(_) => {}
            }
        }
    }
}

#[test]
fn random_payloads_against_every_tag_never_panic() {
    let mut rng = Rng::seed(0xDEC0DE);
    for ty in 0x00..=0x20u8 {
        for round in 0..128usize {
            let len = rng.below(64) * (1 + round % 3);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            match Msg::decode(ty, &payload) {
                Ok(_) | Err(_) => {}
            }
        }
    }
    // Tags outside the table are always UnknownType, even with an empty
    // payload.
    for ty in 0x00..=0xFFu8 {
        if !FRAME_TYPES.contains(&ty) {
            assert!(
                matches!(Msg::decode(ty, &[]), Err(WireError::UnknownType(t)) if t == ty),
                "tag {ty:#04x} must be rejected as unknown"
            );
        }
    }
}

#[test]
fn hostile_counts_cannot_force_large_allocations() {
    // A tiny snapshot claiming u32::MAX counters (or histograms): the
    // clamped capacity plus bounds-checked reads must reject it without
    // ballooning.
    for empty_counters in [false, true] {
        let mut bad = Vec::new();
        bad.extend_from_slice(&[0u8; 3 * 8]); // seq + uptime + dropped events
        if empty_counters {
            bad.extend_from_slice(&0u32.to_le_bytes());
        }
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Msg::decode(0x0A, &bad).is_err(), "snapshot accepted a hostile count");
    }
    // Same for a Task announcing more arch choices than the payload holds.
    let mut bad = Vec::new();
    bad.extend_from_slice(&1u64.to_le_bytes()); // id
    bad.push(0); // no parent
    bad.extend_from_slice(&0u64.to_le_bytes()); // parent raw
    bad.extend_from_slice(&u16::MAX.to_le_bytes()); // claims 65535 choices
    assert!(Msg::decode(0x03, &bad).is_err());
}

#[test]
fn hostile_telemetry_payloads_are_rejected_without_allocation() {
    // Header: seq + uptime + dropped, then empty counter/histogram/span/
    // gauge tables.
    let header = |out: &mut Vec<u8>| {
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&2u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // counters
        out.extend_from_slice(&0u32.to_le_bytes()); // histograms
        out.extend_from_slice(&0u32.to_le_bytes()); // spans
        out.extend_from_slice(&0u32.to_le_bytes()); // gauges
    };

    // An event batch claiming more than the cap: rejected outright, even
    // though the (length-capped) payload could never hold it anyway.
    let mut bad = Vec::new();
    header(&mut bad);
    bad.extend_from_slice(&0u32.to_le_bytes()); // names
    bad.extend_from_slice(&((MAX_TELEMETRY_EVENTS as u32) + 1).to_le_bytes());
    assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));

    // Same for the name table.
    let mut bad = Vec::new();
    header(&mut bad);
    bad.extend_from_slice(&((MAX_TELEMETRY_NAMES as u32) + 1).to_le_bytes());
    assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));

    // An event pointing past the name table, and one with an unknown kind:
    // both must be typed errors, not panics or silent acceptance.
    for (name_idx, kind) in [(5u16, 0u8), (0, 9)] {
        let mut bad = Vec::new();
        header(&mut bad);
        bad.extend_from_slice(&1u32.to_le_bytes()); // one name
        bad.extend_from_slice(&1u16.to_le_bytes());
        bad.push(b'x');
        bad.extend_from_slice(&1u32.to_le_bytes()); // one event
        bad.extend_from_slice(&name_idx.to_le_bytes());
        bad.push(kind);
        bad.extend_from_slice(&[0u8; 24]); // t_ns + dur_ns + delta
        assert!(
            matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))),
            "name_idx={name_idx} kind={kind} must be rejected"
        );
    }
}

#[test]
fn frame_reader_rejects_oversized_and_truncated_streams() {
    // Oversized length prefix: rejected before any payload allocation.
    let mut header = Vec::new();
    header.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    header.push(0x03);
    let mut buf = Vec::new();
    assert!(matches!(
        read_frame(&mut IoCursor::new(&header), &mut buf),
        Err(WireError::FrameTooLarge(_))
    ));

    // A length prefix promising more payload than the stream delivers.
    let mut short = Vec::new();
    short.extend_from_slice(&100u32.to_le_bytes());
    short.push(0x05);
    short.extend_from_slice(&[0u8; 10]);
    assert!(matches!(read_frame(&mut IoCursor::new(&short), &mut buf), Err(WireError::Io(_))));

    // Every truncation of a valid framed stream is an Io error, and the
    // frame layer itself refuses to write an oversized payload.
    let msg = Msg::Ping { nonce: 7 };
    let payload = msg.encode().unwrap();
    let mut framed = Vec::new();
    write_frame(&mut framed, msg.frame_type(), &payload).unwrap();
    for cut in 0..framed.len() {
        assert!(read_frame(&mut IoCursor::new(&framed[..cut]), &mut buf).is_err());
    }
    let ty = read_frame(&mut IoCursor::new(&framed), &mut buf).unwrap();
    assert_eq!(Msg::decode(ty, &buf).unwrap(), msg);
    assert!(matches!(
        write_frame(&mut Vec::new(), 0x03, &vec![0u8; MAX_FRAME_LEN + 1]),
        Err(WireError::FrameTooLarge(_))
    ));
}

#[test]
fn random_frame_streams_never_panic_the_reader() {
    let mut rng = Rng::seed(0xFEED);
    let mut buf = Vec::new();
    for _ in 0..512 {
        let len = rng.below(128);
        let stream: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cursor = IoCursor::new(&stream);
        // Drain the stream: each frame is either readable (then decodable
        // or a typed error) or the read itself errors; either way the loop
        // terminates without panicking.
        while let Ok(ty) = read_frame(&mut cursor, &mut buf) {
            let _ = Msg::decode(ty, &buf);
        }
    }
}
