//! What the tier-1 replay checks share.

use cobra::rt::{CobraConfig, CobraReport, TelemetryEvent, TelemetryRecord};
use serde_json::Value;

/// One event stream feeds the report and the trace: `records` alone, folded
/// by `CobraReport::observe`, must serialize to the run's own `report` —
/// every field but `telemetry_records`, which counts what the sink took
/// (the log's length). A difference names the field.
///
/// The run's report is that same fold, so a quantity `observe` drops, or one
/// the framework never puts in an event, is missing from both sides alike;
/// the stream's high-volume records count the same moments a second time,
/// and the timelines and the totals they add up to (`ticks`, the three
/// sample and overhead sums) are held to them. Nothing in the stream counts
/// `forks`, `monitors_spawned`, `guest_faults` or `store_skipped_records`
/// twice: a `Detach` that leaves one of those out is caught by the untraced
/// `decision_pin` digests, not here.
pub fn assert_log_replays_to(records: &[TelemetryRecord], report: &CobraReport) {
    assert_eq!(report.telemetry_records, records.len() as u64);
    let mut replayed = CobraReport::default();
    records.iter().for_each(|r| replayed.observe(&r.event));
    replayed.telemetry_records = report.telemetry_records;
    let fields = |r: &CobraReport| match serde_json::to_value(r).expect("report serializes") {
        Value::Object(fields) => fields,
        other => panic!("a report serializes to an object, not {other:?}"),
    };
    for ((name, replayed), (_, ran)) in fields(&replayed).iter().zip(&fields(report)) {
        assert_eq!(
            replayed, ran,
            "`{name}`: the log replays to one value, the run reported another"
        );
    }

    let count = |category: &str| {
        let of = |r: &&TelemetryRecord| r.event.category() == category;
        records.iter().filter(of).count()
    };
    // Per tick: what the kernel buffers handed over, and what each USB held
    // when it was reduced into the profile.
    let (mut forwarded, mut merged) = (0, 0);
    for r in records {
        match r.event {
            TelemetryEvent::Quantum {
                samples_forwarded, ..
            } => forwarded += samples_forwarded,
            TelemetryEvent::UsbLevel { occupancy, .. } => merged += occupancy as u64,
            _ => {}
        }
    }
    assert_eq!(report.ticks, count("quantum") as u64, "`ticks`");
    assert_eq!(report.samples_forwarded, forwarded, "`samples_forwarded`");
    assert_eq!(report.samples_merged, merged, "`samples_merged`");
    // A tick charges for its samples and for the records its window took;
    // `Quantum` is the last record of a tick's window.
    let is_quantum = |r: &TelemetryRecord| r.event.category() == "quantum";
    let charged = records.iter().rposition(is_quantum).map_or(0, |at| at + 1) as u64;
    assert_eq!(
        report.overhead_cycles,
        (forwarded + charged) * CobraConfig::default().overhead_per_sample,
        "`overhead_cycles`"
    );
    assert_eq!(report.applied.len(), count("deploy"), "`applied`");
    assert_eq!(
        report.reverted.len(),
        count("revert") + count("revert_failed"),
        "`reverted`"
    );
}
