//! The result record: what one run of one workload reports, and the file
//! (`results/latest.json`) that holds a complete set. Reading a record back
//! through these types is the schema check: a missing or mistyped field is
//! an error, and [`Record::validate`] holds the names to the metric tables.

use serde::{Deserialize, Serialize};

use crate::metrics::{self, Def};

pub const SCHEMA: &str = "cobra-benchmark/1";

/// One metric of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// End-to-end timings: one pass of the list on a quiet host — each
    /// cell's timing divided by the host's slowdown beside it, its median
    /// over `samples` passes, summed. Everything else: the median over
    /// `samples` passes (the value itself when measured once per run).
    pub value: f64,
    pub samples: u64,
    /// The range over whole passes.
    pub min: f64,
    pub max: f64,
}

impl Metric {
    /// A metric whose value is the median of its samples (0 for none).
    pub fn of(def: &Def, samples: &[f64]) -> Metric {
        let value = if samples.is_empty() {
            0.0
        } else {
            crate::stats::median(samples)
        };
        Metric::with_value(def, value, samples)
    }

    /// A metric whose value is computed by the caller; `samples` still give
    /// the count and the range.
    pub fn with_value(def: &Def, value: f64, samples: &[f64]) -> Metric {
        let (name, unit, better) = *def;
        let bound = |pick: fn(f64, f64) -> f64| samples.iter().copied().reduce(pick).unwrap_or(0.0);
        Metric {
            name: name.into(),
            unit: unit.into(),
            better: better.into(),
            value,
            samples: samples.len() as u64,
            min: bound(f64::min),
            max: bound(f64::max),
        }
    }
}

/// One run of one workload, traced or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: u64,
    /// The CPU the process pinned itself to; `None` when the host refused.
    pub pinned_cpu: Option<u64>,
    pub passes: u64,
    /// The quiet-host pass's timed section, traced or not: the two runs of
    /// a workload differ in it by the tracing overhead.
    pub wall_s: f64,
    /// Mean of the host's slowdown over the run, 1 on a quiet host
    /// (`calib.rs`). The end-to-end timings are already divided by each
    /// cell's own.
    pub host_slowdown: f64,
    /// Traced runs: what tracing itself cost, as a share of the passes'
    /// timed sections, in percent (clock reads made for tracing × the
    /// measured cost of one). 0 on an untraced run.
    pub trace_overhead_pct: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Hex digest of every guest run's exact outputs; `-` for the fleet
    /// workload, which simulates nothing.
    pub sim_digest: String,
    /// End-to-end metrics on an untraced run, per-layer on a traced one.
    pub metrics: Vec<Metric>,
    pub error: Option<String>,
}

/// One workload's two runs, joined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRecord {
    pub name: String,
    pub passes: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: String,
    /// `host_slowdown` of the untraced run: how disturbed the host was
    /// while the end-to-end timings were taken.
    pub host_slowdown: f64,
    /// What tracing cost the traced run, in percent of its timed sections.
    pub trace_overhead_pct: f64,
    /// Traced against untraced `wall_s`, in percent: the host's noise as
    /// much as tracing, recorded so that a reader can see which.
    pub traced_wall_delta_pct: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checks {
    /// `passed/total` of the paper's shape checks, e.g. `18/18`.
    pub shape_checks: String,
    /// One line per check: `[ok]` or `[MISS]`, then the claim with the
    /// paper's figure and ours side by side.
    pub lines: Vec<String>,
}

/// A complete set: every workload, untraced then traced, on one commit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub schema: String,
    pub commit: String,
    pub rustc: String,
    pub nproc: u64,
    pub pinned_cpu: Option<u64>,
    /// False when the process could not be pinned: the timings then carry
    /// the scheduler's noise and must not be compared against a bound.
    pub comparable: bool,
    pub loadavg_start: String,
    pub seed: u64,
    pub seconds: u64,
    pub workloads: Vec<WorkloadRecord>,
    pub checks: Checks,
}

/// `got` must be `table`, entry for entry: name, unit and direction, each
/// with a finite value.
fn matches_table(what: &str, got: &[Metric], table: &[Def]) -> Result<(), String> {
    if got.len() != table.len() {
        return Err(format!("{what}: metric names differ from the metric table"));
    }
    for (m, &(name, unit, better)) in got.iter().zip(table) {
        if (m.name.as_str(), m.unit.as_str(), m.better.as_str()) != (name, unit, better)
            || !m.value.is_finite()
        {
            return Err(format!(
                "{what}: metric {} where the table has {name} is malformed",
                m.name
            ));
        }
    }
    Ok(())
}

impl Record {
    /// Beyond the types: the schema tag, the six workloads, and every
    /// metric of both tables present with its unit and direction.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema {:?}, expected {SCHEMA:?}", self.schema));
        }
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
        if names != metrics::WORKLOADS {
            return Err(format!(
                "workloads {names:?}, expected {:?}",
                metrics::WORKLOADS
            ));
        }
        for w in &self.workloads {
            matches_table(&w.name, &w.end_to_end, metrics::END_TO_END)?;
            matches_table(&w.name, &w.per_layer, metrics::PER_LAYER)?;
        }
        Ok(())
    }

    pub fn from_json(text: &str) -> Result<Record, String> {
        let r: Record = serde_json::from_str(text).map_err(|e| e.to_string())?;
        r.validate()?;
        Ok(r)
    }

    pub fn to_json(&self) -> Result<String, String> {
        self.validate()?;
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn sample_record() -> Record {
        let metric = |d: &Def| Metric::of(d, &[2.0, 1.0, 4.0]);
        Record {
            schema: SCHEMA.into(),
            commit: "abc".into(),
            rustc: "rustc 1.0".into(),
            nproc: 2,
            pinned_cpu: Some(1),
            comparable: true,
            loadavg_start: "0.1 0.2 0.3".into(),
            seed: 1,
            seconds: 10,
            workloads: metrics::WORKLOADS
                .iter()
                .map(|w| WorkloadRecord {
                    name: w.to_string(),
                    passes: 3,
                    correct: true,
                    attempted: 24,
                    failed: 0,
                    sim_digest: "00ff".into(),
                    host_slowdown: 1.1,
                    trace_overhead_pct: 0.4,
                    traced_wall_delta_pct: -1.5,
                    end_to_end: metrics::END_TO_END.iter().map(metric).collect(),
                    per_layer: metrics::PER_LAYER.iter().map(metric).collect(),
                })
                .collect(),
            checks: Checks {
                shape_checks: "18/18".into(),
                lines: vec!["[ok] a claim".into()],
            },
        }
    }

    #[test]
    fn metric_is_the_median_with_its_range() {
        let m = Metric::of(&metrics::END_TO_END[1], &[2.0, 1.0, 4.0]);
        assert_eq!((m.value, m.min, m.max, m.samples), (2.0, 1.0, 4.0, 3));
        assert_eq!((m.unit.as_str(), m.better.as_str()), ("s", "lower"));
        let none = Metric::of(&metrics::PER_LAYER[0], &[]);
        assert_eq!((none.value, none.samples), (0.0, 0));
    }

    #[test]
    fn record_round_trips_and_the_schema_check_bites() {
        let r = sample_record();
        let text = r.to_json().unwrap();
        assert_eq!(Record::from_json(&text).unwrap(), r);

        let mut wrong = r.clone();
        wrong.schema = "other".into();
        assert!(wrong.to_json().is_err());
        let mut wrong = r.clone();
        wrong.workloads[2].end_to_end.pop();
        assert!(wrong.validate().unwrap_err().contains("adapt_fine_smp4"));
        let mut wrong = r.clone();
        wrong.workloads[0].per_layer[0].unit = "furlongs".into();
        assert!(wrong.validate().is_err());
        // A field missing from the text is a parse error, not a default.
        let cut = text.replacen("\"nproc\"", "\"nprocs\"", 1);
        assert!(Record::from_json(&cut).is_err());
    }
}
