//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span has a name (the layer), a start and end in nanoseconds since
//! the tracer was created, and the span that caused it. They are kept in
//! memory and written out once, when the run ends. A layer's *self* time is
//! its span minus the part its children cover. With tracing off every call
//! here is a branch on a bool and nothing is recorded, which is what makes
//! the untraced passes the end-to-end measurement. What tracing adds is
//! clock reads; the tracer counts them, so its cost can be stated exactly
//! even where two runs differ by more than that cost for other reasons.

use std::time::Instant;

use serde::Serialize;

use crate::calib::Calibrator;

/// Index of a span in its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span this one ran inside; `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1 for a span recorded around one call. More for an aggregate: calls
    /// too many to keep one by one (one per 500-cycle quantum) are summed
    /// into a single child whose duration is their total.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a direct-drive probe reports beside its time: how many calls it
/// made and a digest of every outcome, which a change meant only to make
/// the layer faster must leave as it was.
#[derive(Debug, Clone, Serialize)]
pub struct Note {
    pub name: &'static str,
    pub calls: u64,
    pub digest: String,
}

/// Per-name totals under one root span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    /// The host-speed calibrator rides with the tracer because both go
    /// wherever a cell is run; it samples whether tracing is on or off.
    pub host: Calibrator,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    notes: Vec<Note>,
    /// Clock reads made only because tracing is on.
    clock_reads: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            host: Calibrator::default(),
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            notes: Vec::new(),
            clock_reads: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&mut self) -> u64 {
        self.clock_reads += 1;
        self.origin.elapsed().as_nanos() as u64
    }

    /// Count clock reads a wrapper made on the tracer's behalf.
    pub fn add_clock_reads(&mut self, n: u64) {
        self.clock_reads += n;
    }

    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        let now = self.now_ns();
        self.spans[id.0].end_ns = now;
    }

    /// Record `calls` calls that together took `total_ns` as one child of
    /// the innermost open span, ending now.
    pub fn aggregate(&mut self, name: &'static str, total_ns: u64, calls: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now.saturating_sub(total_ns),
            end_ns: now,
            calls,
        });
    }

    pub fn note(&mut self, name: &'static str, calls: u64, digest: u64) {
        self.notes.push(Note {
            name,
            calls,
            digest: format!("{digest:016x}"),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn notes(&self) -> &[Note] {
        &self.notes
    }

    /// Total and self time per span name over `root` and everything under
    /// it, in first-seen order.
    pub fn totals_under(&self, root: SpanId) -> Vec<(&'static str, Total)> {
        totals_under(&self.spans, root.0)
    }
}

fn totals_under(spans: &[Span], root: usize) -> Vec<(&'static str, Total)> {
    if root >= spans.len() {
        return Vec::new();
    }
    // A child is always recorded after its parent, so one forward sweep
    // settles membership; children are summed in the same sweep.
    let mut inside = vec![false; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    inside[root] = true;
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        if let Some(p) = s.parent {
            if inside[p] {
                inside[i] = true;
                child_ns[p] += s.duration_ns();
            }
        }
    }
    let mut out: Vec<(&'static str, Total)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
        let slot = match out.iter().position(|(n, _)| *n == s.name) {
            Some(k) => k,
            None => {
                out.push((s.name, Total::default()));
                out.len() - 1
            }
        };
        let t = &mut out[slot].1;
        t.calls += s.calls;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // pass [0,100) > run [10,90) > hook [20,30), hook [40,70); verify [90,100)
        let spans = vec![
            span("pass", None, 0, 100),
            span("run", Some(0), 10, 90),
            span("hook", Some(1), 20, 30),
            span("hook", Some(1), 40, 70),
            span("verify", Some(0), 90, 100),
            span("pass", None, 100, 150),
            span("run", Some(5), 100, 150),
        ];
        let totals = totals_under(&spans, 0);
        let get = |n: &str| totals.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(
            get("run"),
            Total {
                calls: 1,
                total_ns: 80,
                self_ns: 40
            }
        );
        assert_eq!(
            get("hook"),
            Total {
                calls: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(get("pass").self_ns, 10);
        // The second pass is not counted under the first.
        assert_eq!(totals_under(&spans, 5).len(), 2);
        assert_eq!(totals_under(&spans, 5)[1].1.total_ns, 50);
        // Self times under one root add up to the root's duration.
        let sum: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_aggregates_and_is_inert_when_off() {
        let mut tr = Tracer::new(true);
        let pass = tr.enter("pass");
        let run = tr.enter("run");
        tr.aggregate("hook", 0, 500);
        tr.exit(run);
        tr.exit(pass);
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[2].calls, 500);
        assert_eq!(tr.totals_under(pass)[2].1.calls, 500);

        let mut off = Tracer::new(false);
        let id = off.enter("pass");
        off.aggregate("hook", 5, 5);
        off.exit(id);
        assert!(off.spans().is_empty());
        assert!(off.totals_under(id).is_empty());
    }
}
