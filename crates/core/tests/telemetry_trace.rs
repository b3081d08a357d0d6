//! Golden round-trip for the telemetry trace format: a log written out by
//! `write_jsonl` must parse back bit-identical via `read_jsonl`, and the
//! records alone must fold to the report the run that emitted them holds.

use cobra_rt::{
    read_jsonl, write_jsonl, AppliedPlan, CobraReport, CpuCounterSnapshot, OptKind, RevertedPlan,
    RunTotals, Strategy, Telemetry, TelemetryEvent, TelemetrySink,
};

/// A run's worth of variants, the two that open and close a run among
/// them, with non-default payloads so field transposition can't go
/// unnoticed. (`tests/golden.rs` holds one of every variant to its bytes.)
fn one_of_each() -> Vec<TelemetryEvent> {
    vec![
        TelemetryEvent::Attach {
            cycle: 7,
            machine: "smp4".to_string(),
            cpus: 4,
            strategy: Strategy::Adaptive,
            candidates: true,
            osr: false,
            main_len: 384,
        },
        TelemetryEvent::Quantum {
            tick: 1,
            cycle: 20_000,
            samples_forwarded: 17,
            cpus: vec![
                CpuCounterSnapshot {
                    cpu: 0,
                    inst_retired: 9_000,
                    l2_miss: 40,
                    l3_miss: 12,
                    bus_memory: 11,
                    coherent: 3,
                },
                CpuCounterSnapshot {
                    cpu: 1,
                    inst_retired: 8_500,
                    l2_miss: 38,
                    l3_miss: 10,
                    bus_memory: 9,
                    coherent: 2,
                },
            ],
        },
        TelemetryEvent::KernelDrain {
            tick: 1,
            cycle: 20_000,
            cpu: 2,
            samples: 5,
            dropped_total: 1,
        },
        TelemetryEvent::LoopClassified {
            tick: 2,
            cycle: 40_000,
            loop_head: 64,
            back_edge: 96,
            prefetch_effective: false,
            decision: Some(OptKind::NoPrefetch),
        },
        TelemetryEvent::PhaseChange {
            tick: 3,
            cycle: 60_000,
            phases: 2,
        },
        TelemetryEvent::Deploy {
            cycle: 60_000,
            plan: AppliedPlan {
                plan_id: 1,
                kind: OptKind::NoPrefetch,
                loop_head: 64,
                description: "noprefetch: 4 lfetch -> nop.m".to_string(),
                tick: 3,
                words_patched: 4,
                trace_entry: Some(512),
                candidate: Some("noprefetch.body".to_string()),
            },
        },
        TelemetryEvent::WarmVerdict {
            tick: 3,
            cycle: 60_000,
            loop_head: 64,
            hit: true,
        },
        TelemetryEvent::WarmVerdict {
            tick: 3,
            cycle: 60_000,
            loop_head: 128,
            hit: false,
        },
        TelemetryEvent::CpiTrial {
            tick: 7,
            cycle: 140_000,
            plan_id: 1,
            post_ticks: 4,
            baseline_cpi: 1.5,
            post_cpi: 1.75,
            regressed: true,
        },
        TelemetryEvent::Revert {
            cycle: 140_000,
            plan: RevertedPlan {
                plan_id: 1,
                reason: "CPI regressed 1.50 -> 1.75".to_string(),
                tick: 7,
            },
        },
        TelemetryEvent::Blacklist {
            tick: 7,
            cycle: 140_000,
            loop_head: 64,
        },
        TelemetryEvent::Detach {
            cycle: 180_000,
            totals: RunTotals {
                ticks: 9,
                forks: 2,
                monitors_spawned: 4,
                samples_forwarded: 17,
                samples_merged: 16,
                overhead_cycles: 136,
                guest_faults: 1,
                store_skipped_records: 5,
            },
        },
    ]
}

#[test]
fn golden_jsonl_round_trip_covers_every_event() {
    let (sink, log) = TelemetrySink::memory();
    let mut telemetry = Telemetry::new(Some(sink));
    let events = one_of_each();
    for e in &events {
        telemetry.emit(e.clone());
    }
    let report = telemetry.finish();

    let mut bytes = Vec::new();
    write_jsonl(log.lock().unwrap().records(), &mut bytes).expect("a Vec takes every line");
    let text = String::from_utf8(bytes).expect("JSONL is utf-8");
    assert_eq!(text.lines().count(), events.len(), "one line per record");

    let records = read_jsonl(text.as_bytes()).expect("trace must parse back");
    assert_eq!(records.len(), events.len());
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "emission order is seq order");
        assert_eq!(rec.event, events[i], "round-trip must be lossless");
    }

    // The records alone fold to the report the emitting side holds.
    let mut replayed = CobraReport::default();
    records.iter().for_each(|r| replayed.observe(&r.event));
    assert_eq!(format!("{replayed:?}"), format!("{report:?}"));
    assert_eq!((report.warm_hits, report.warm_mismatches), (1, 1));
    assert_eq!(report.applied.len(), 1);
    assert_eq!(
        report.applied[0].candidate.as_deref(),
        Some("noprefetch.body")
    );
    assert_eq!(report.reverted.len(), 1);
    assert_eq!(
        (report.ticks, report.forks, report.monitors_spawned),
        (9, 2, 4)
    );
}

#[test]
fn read_jsonl_reports_the_failing_line() {
    let err = read_jsonl(&b"\nnot json\n"[..]).unwrap_err();
    assert!(
        err.starts_with("line 2:"),
        "blank lines skip, bad line named: {err}"
    );
}
