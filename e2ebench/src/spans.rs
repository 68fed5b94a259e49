//! In-memory span recording for the traced run.
//!
//! Every span has a name, a start and an end on one monotonic clock, the
//! span that caused it, and the id of the operation it belongs to. Spans
//! the program records itself (the pipeline's `stage.*`, the daemon's
//! `serve.*`) are imported onto the same clock. Nothing is written until
//! the run ends, when the whole recording is exported in the Chrome
//! trace-event format `vc_obs` uses.

use std::time::Instant;

use vc_obs::{Json, SpanRecord, MAIN_TID};

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One finished (or open) span, times in nanoseconds since the epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store for one traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.push(name, start_ns, start_ns, self.stack.last().copied());
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) -> u64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds an already-finished span.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Imports the program's own main-lane spans under `parent`, shifted
    /// so that the program span named `anchor` starts at `anchor_ns`.
    /// A span nested inside another imported span gets that one as its
    /// parent.
    pub fn import(&mut self, records: &[SpanRecord], anchor: &str, anchor_ns: u64, parent: SpanId) {
        let main: Vec<&SpanRecord> = records.iter().filter(|r| r.tid == MAIN_TID).collect();
        let Some(a) = main.iter().find(|r| r.name == anchor) else {
            return;
        };
        let shift = |us: u64| (anchor_ns + us * 1000).saturating_sub(a.start_us * 1000);
        // Outermost first, so a parent is imported before its children.
        let mut order = main.clone();
        order.sort_by_key(|r| (r.depth, r.start_us));
        let mut done: Vec<(SpanId, &SpanRecord)> = Vec::new();
        for r in order {
            let up = done
                .iter()
                .rev()
                .find(|(_, o)| o.depth < r.depth && o.contains(r))
                .map_or(parent, |(id, _)| *id);
            let id = self.push(
                &r.name,
                shift(r.start_us),
                shift(r.start_us + r.dur_us),
                Some(up),
            );
            done.push((id, r));
        }
    }

    /// The first span named `name` in operation `op`.
    pub fn find(&self, op: u64, name: &str) -> Option<SpanId> {
        self.spans.iter().position(|s| s.op == op && s.name == name)
    }

    /// Total duration of the spans named `name` in operation `op`.
    pub fn sum_ns(&self, op: u64, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Duration of `id` not covered by any of its children.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let s = &self.spans[id];
        self_time(s.start_ns, s.end_ns, &children)
    }

    /// The recording as a Chrome trace-event document: one `"X"` event per
    /// span on one lane, with the op id and parent name as arguments.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let parent = s
                    .parent
                    .map(|p| Json::Str(self.spans[p].name.clone()))
                    .unwrap_or(Json::Null);
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str("e2ebench".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Float(s.start_ns as f64 / 1000.0)),
                    ("dur".into(), Json::Float(s.dur_ns() as f64 / 1000.0)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(i64::from(MAIN_TID))),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("op".into(), Json::Int(s.op as i64)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

/// Length of `[start, end)` minus the part the `children` intervals
/// cover; overlapping children count once and parts outside the parent
/// not at all.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30)]), 80);
        // Overlapping children count once; the part past the parent's end
        // is clipped.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 50), (90, 120)]), 50);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children entirely outside, or empty, are ignored.
        assert_eq!(self_time(50, 100, &[(0, 40), (60, 60)]), 50);
        // Fully covered.
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn recorder_nests_and_reports_self_time() {
        let mut rec = Recorder::new();
        rec.next_op();
        let root = rec.push("op", 0, 1000, None);
        rec.push("a", 100, 400, Some(root));
        let b = rec.push("b", 500, 900, Some(root));
        rec.push("b.inner", 600, 700, Some(b));
        assert_eq!(rec.self_ns(root), 300);
        assert_eq!(rec.self_ns(b), 300);
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("b")
        );
    }

    #[test]
    fn imported_program_spans_keep_their_nesting() {
        let rec_span = |name: &str, start_us, dur_us, depth| SpanRecord {
            name: name.into(),
            cat: "pipeline".into(),
            start_us,
            dur_us,
            depth,
            tid: MAIN_TID,
            panicked: false,
        };
        let records = vec![
            rec_span("stage.detect", 110, 40, 1),
            rec_span("pipeline.run", 100, 100, 0),
            rec_span("stage.rank", 160, 30, 1),
            SpanRecord {
                tid: MAIN_TID + 1,
                ..rec_span("unit", 120, 10, 0)
            },
        ];
        let mut rec = Recorder::new();
        let outer = rec.push("pipeline", 5_000, 200_000, None);
        rec.import(&records, "pipeline.run", 50_000, outer);
        assert_eq!(rec.spans.len(), 4, "worker-lane spans are not imported");
        let run = rec.find(0, "pipeline.run").unwrap();
        let detect = rec.find(0, "stage.detect").unwrap();
        assert_eq!(rec.span(run).parent, Some(outer));
        assert_eq!(rec.span(detect).parent, Some(run));
        assert_eq!(rec.span(detect).start_ns, 60_000);
        assert_eq!(rec.span(detect).end_ns, 100_000);
        assert_eq!(rec.self_ns(run), 30_000);
    }
}
