//! Golden round-trip for the telemetry trace format: every event variant
//! written through the JSONL sink must parse back bit-identical via
//! `read_jsonl`, and the summary must account for every record.

use std::io::Write;
use std::sync::{Arc, Mutex};

use cobra_rt::{
    read_jsonl, CpuCounterSnapshot, OptKind, Telemetry, TelemetryEvent, TelemetrySink, TraceSummary,
};

/// A `Write` target the test can read back after the sink is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One instance of every `TelemetryEvent` variant, with non-default
/// payloads so field transposition can't go unnoticed.
fn one_of_each() -> Vec<TelemetryEvent> {
    vec![
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
        TelemetryEvent::UsbLevel {
            tick: 1,
            cpu: 3,
            occupancy: 6,
            capacity: 8192,
            dropped_total: 0,
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
            tick: 3,
            cycle: 60_000,
            plan_id: 1,
            kind: OptKind::NoPrefetch,
            loop_head: 64,
            words_patched: 4,
            trace_entry: Some(512),
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
            tick: 7,
            cycle: 140_000,
            plan_id: 1,
            reason: "CPI regressed 1.50 -> 1.75".to_string(),
        },
        TelemetryEvent::Blacklist {
            tick: 7,
            cycle: 140_000,
            loop_head: 64,
        },
        TelemetryEvent::Detach {
            tick: 9,
            cycle: 180_000,
            records_dropped: 0,
            block_fallback_mem_boundary: 4,
            block_fallback_sampling: 11,
            block_horizon_stretches: 3,
            block_horizon_cycles: 96,
        },
    ]
}

#[test]
fn golden_jsonl_round_trip_covers_every_event() {
    let buf = SharedBuf::default();
    let sink = TelemetrySink::jsonl(Box::new(buf.clone()));
    let mut telemetry = Telemetry::new(Some(sink), 64);
    let events = one_of_each();
    for e in &events {
        assert!(telemetry.emit(e.clone()), "capacity must not be spent");
    }
    let report = telemetry.finish();
    assert_eq!(report.telemetry_records, events.len() as u64);
    assert_eq!(report.telemetry_dropped, 0);

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("JSONL is utf-8");
    assert_eq!(text.lines().count(), events.len(), "one line per record");

    let records = read_jsonl(text.as_bytes()).expect("trace must parse back");
    assert_eq!(records.len(), events.len());
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "emission order is seq order");
        assert_eq!(rec.event, events[i], "round-trip must be lossless");
    }

    let summary = TraceSummary::from_records(&records);
    assert_eq!(summary.total_records, events.len() as u64);
    assert_eq!(
        summary.per_category.len(),
        10,
        "every variant has its own category"
    );
    assert_eq!(summary.deployments.len(), 1);
    assert_eq!(summary.reverts.len(), 1);
}

#[test]
fn read_jsonl_reports_the_failing_line() {
    let err = read_jsonl(&b"\nnot json\n"[..]).unwrap_err();
    assert!(
        err.starts_with("line 2:"),
        "blank lines skip, bad line named: {err}"
    );
}
