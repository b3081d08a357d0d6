//! Compare two complete records: one row for every pairing of workload and
//! end-to-end metric, judged against the bound `BENCHMARK.json` fixes for
//! that metric. Never a combined score.

use serde_json::Value;

use crate::record::{Metric, Record};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// A's own passes spread wider than the bound: the two medians cannot
    /// be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a`: positive is worse.
fn worsening(a: &Metric, b: &Metric) -> f64 {
    let change = (b.value - a.value) / a.value;
    if a.better == "higher" {
        -change
    } else {
        change
    }
}

pub fn judge(a: &Metric, b: &Metric, bound: f64) -> Verdict {
    let w = worsening(a, b);
    if (a.max - a.min) / a.value > bound {
        // A's own passes spread wider than the bound. Only a B whose every
        // pass lies beyond every pass of A can still be told apart.
        let (b_all_below, b_all_above) = (b.max < a.min, b.min > a.max);
        let (all_better, all_worse) = if a.better == "higher" {
            (b_all_above, b_all_below)
        } else {
            (b_all_below, b_all_above)
        };
        return if all_better {
            Verdict::Better
        } else if all_worse && w > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `name -> bound` for every end-to-end metric of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

pub struct Comparison {
    pub text: String,
    /// Any `worse` row, or more failed operations in B than in A.
    pub regressed: bool,
}

pub fn compare(a: &Record, b: &Record, bounds: &[(String, f64)]) -> Result<Comparison, String> {
    let mut text = format!(
        "A: commit {} seed {}{}\nB: commit {} seed {}{}\n\n",
        a.commit,
        a.seed,
        if a.comparable {
            ""
        } else {
            "  (NOT PINNED: not comparable)"
        },
        b.commit,
        b.seed,
        if b.comparable {
            ""
        } else {
            "  (NOT PINNED: not comparable)"
        },
    );
    text.push_str(&format!(
        "{:<18} {:<12} {:>14} {:>14} {:>16} {:>6}  {}\n",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict"
    ));
    let mut regressed = false;
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for (ma, mb) in wa.end_to_end.iter().zip(&wb.end_to_end) {
            let bound = bounds
                .iter()
                .find(|(n, _)| *n == ma.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json fixes no bound for {}", ma.name))?;
            let verdict = judge(ma, mb, bound);
            regressed |= verdict == Verdict::Worse;
            text.push_str(&format!(
                "{:<18} {:<12} {:>14.4} {:>14.4} {:>16} {:>5.0}%  {}\n",
                wa.name,
                ma.name,
                ma.value,
                mb.value,
                format!("{:.4} of {:.4}", mb.value / ma.value, ma.value),
                bound * 100.0,
                verdict.name(),
            ));
        }
        let failures = if wb.failed > wa.failed {
            regressed = true;
            format!("failed operations ROSE {} -> {}", wa.failed, wb.failed)
        } else {
            format!("failed operations {} -> {}", wa.failed, wb.failed)
        };
        text.push_str(&format!(
            "{:<18} sim_digest {}; {failures}\n",
            wa.name,
            if wa.sim_digest == wb.sim_digest {
                "equal"
            } else {
                "DIFFERS"
            },
        ));
    }
    text.push_str(&format!(
        "\nshape checks: A {}  B {}\n",
        a.checks.shape_checks, b.checks.shape_checks
    ));
    Ok(Comparison { text, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample_record;

    fn metric(better: &str, value: f64, min: f64, max: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            better: better.into(),
            value,
            samples: 3,
            min,
            max,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = metric("lower", 10.0, 9.9, 10.1);
        assert_eq!(
            judge(&a, &metric("lower", 10.2, 10.1, 10.3), 0.05),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &metric("lower", 11.0, 10.9, 11.1), 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &metric("lower", 9.0, 8.9, 9.1), 0.05),
            Verdict::Better
        );
        let up = metric("higher", 10.0, 9.9, 10.1);
        assert_eq!(
            judge(&up, &metric("higher", 9.0, 8.9, 9.1), 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&up, &metric("higher", 11.0, 10.9, 11.1), 0.05),
            Verdict::Better
        );
        // A's own passes spread 20 %: a 6 % shift is unresolved, unless
        // every pass of B is beyond every pass of A.
        let noisy = metric("lower", 10.0, 9.0, 11.0);
        assert_eq!(
            judge(&noisy, &metric("lower", 10.6, 10.5, 10.7), 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &metric("lower", 12.0, 11.5, 12.5), 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn comparison_flags_worse_rows_digests_and_failures() {
        let bounds = bounds(
            r#"{"end_to_end": [{"name": "setup_s", "bound": 0.25}, {"name": "wall_s", "bound": 0.1},
                {"name": "ops_per_s", "bound": 0.1}, {"name": "peak_rss_mb", "bound": 0.1}]}"#,
        )
        .unwrap();
        let mut a = sample_record();
        for w in &mut a.workloads {
            for m in &mut w.end_to_end {
                (m.min, m.max) = (m.value * 0.99, m.value * 1.01);
            }
        }
        let same = compare(&a, &a, &bounds).unwrap();
        assert!(!same.regressed, "{}", same.text);
        assert!(!same.text.contains("worse") && !same.text.contains("unresolved"));

        let mut b = a.clone();
        b.workloads[1].end_to_end[1].value *= 1.5;
        b.workloads[1].end_to_end[1].min *= 1.5;
        b.workloads[1].end_to_end[1].max *= 1.5;
        b.workloads[3].sim_digest = "beef".into();
        let out = compare(&a, &b, &bounds).unwrap();
        assert!(out.regressed);
        assert_eq!(out.text.matches("worse").count(), 1);
        assert_eq!(out.text.matches("DIFFERS").count(), 1);

        let mut c = a.clone();
        c.workloads[5].failed = 2;
        assert!(compare(&a, &c, &bounds).unwrap().regressed);
    }
}
