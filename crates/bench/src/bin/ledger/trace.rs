//! The ledger's own spans, recorded around calls into the program's
//! public functions — never inside them. A span is a name, a start, an
//! end, the span that caused it and a request id (the round or session
//! it belongs to). Spans stay in memory until the run ends; self time
//! is a span's duration minus the part of it its children cover.

use crate::outcome::Gates;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// "No parent" / "no request id".
pub const NONE: u32 = u32::MAX;

/// Spans that only group others: their self time is time no named
/// layer accounts for.
const STRUCTURAL: [&str; 4] = ["run", "round", "client", "session"];

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
    pub tid: u32,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn thread_lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// In-memory span recorder shared by every thread of one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// Parent for spans opened on a thread with no open span of its
    /// own: the program's worker threads run the ledger's planner and
    /// backend hooks, and those belong under the scheduler call that
    /// spawned the workers.
    adopt: AtomicU32,
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            debug_assert_eq!(open.last(), Some(&self.id), "spans close innermost first");
            open.pop();
        });
        self.tracer.spans.lock().expect("span buffer lock")[self.id as usize].end_ns = end;
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            adopt: AtomicU32::new(NONE),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str, request: u32) -> SpanGuard<'_> {
        let parent = OPEN
            .with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| self.adopt.load(Ordering::SeqCst));
        let rec = SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
            tid: thread_lane(),
        };
        let id = {
            let mut spans = self.spans.lock().expect("span buffer lock");
            spans.push(rec);
            (spans.len() - 1) as u32
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard { tracer: self, id }
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, request);
        f()
    }

    /// Makes `parent` the parent of spans that other threads open
    /// outside any span of their own ([`NONE`] to stop).
    pub fn adopt_under(&self, parent: u32) {
        self.adopt.store(parent, Ordering::SeqCst);
    }

    /// Records an already-measured interval as a child of `parent`
    /// (window stages aggregated from per-window timings).
    pub fn record(
        &self,
        name: &'static str,
        request: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.lock().expect("span buffer lock").push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            tid: 0,
        });
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

/// Sum of the durations of every span called `name`, seconds.
pub fn total_s(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Duration of every span called `name`, ms.
pub fn durations_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals (clipped to it — children on other threads may
/// overlap each other).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Share of `wall_s` covered by the self time of named layer spans:
/// what is left is loop glue between the calls, plus anything the
/// ledger fails to time. Concurrent children can push this past 1.
pub fn attributed_share(spans: &[SpanRec], wall_s: f64) -> f64 {
    let attributed: u64 = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| !STRUCTURAL.contains(&s.name))
        .map(|(_, self_ns)| self_ns)
        .sum();
    attributed as f64 / 1e9 / wall_s
}

/// Self time per span name, seconds, largest first.
pub fn self_by_name(spans: &[SpanRec]) -> Vec<(&'static str, f64)> {
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += self_ns as f64 / 1e9,
            None => by_name.push((s.name, self_ns as f64 / 1e9)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_name
}

/// What every traced pass does with its spans: dump them to
/// `trace_out` if asked, and note the six largest self times as a share
/// of `wall_s`.
pub fn report(
    spans: &[SpanRec],
    workload: &str,
    trace_out: Option<&Path>,
    wall_s: f64,
    gates: &mut Gates,
) {
    if let Some(path) = trace_out {
        std::fs::write(path, chrome_json(spans, workload))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    for (name, self_s) in self_by_name(spans).into_iter().take(6) {
        gates.note(format!(
            "self {name} {self_s:.3} s {:.1} %",
            100.0 * self_s / wall_s
        ));
    }
}

/// chrome://tracing JSON (`ph:"X"` complete events, microseconds).
fn chrome_json(spans: &[SpanRec], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i}",
            s.name,
            crate::json::escape(workload),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        );
        if s.parent != NONE {
            let _ = write!(out, ",\"parent\":{}", s.parent);
        }
        if s.request != NONE {
            let _ = write!(out, ",\"request\":{}", s.request);
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            request: NONE,
            tid: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            rec("run", 0, 100, NONE),
            rec("a", 10, 40, 0),
            // Overlaps `a` (another thread) and sticks out of the parent.
            rec("b", 30, 120, 0),
            rec("a", 12, 20, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 22, 90, 8]);
        assert!((total_s(&spans, "a") - 38e-9).abs() < 1e-15);
        // Layer self time (22 + 90 + 8) over a 100 ns wall.
        assert!((attributed_share(&spans, 100e-9) - 1.2).abs() < 1e-9);
        assert_eq!(self_by_name(&spans)[0].0, "b");
    }

    #[test]
    fn spans_nest_per_thread_and_adopt_across_threads() {
        let tracer = Tracer::new();
        let outer = tracer.span("run", NONE);
        let outer_id = outer.id();
        tracer.time("a", 7, || ());
        tracer.adopt_under(outer_id);
        std::thread::scope(|s| {
            s.spawn(|| tracer.time("worker", NONE, || tracer.time("inner", NONE, || ())));
        });
        tracer.adopt_under(NONE);
        drop(outer);
        let spans = tracer.snapshot();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[by_name("run")].parent, NONE);
        assert_eq!(spans[by_name("a")].parent, outer_id);
        assert_eq!(spans[by_name("a")].request, 7);
        assert_eq!(spans[by_name("worker")].parent, outer_id);
        assert_eq!(spans[by_name("inner")].parent, by_name("worker") as u32);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = crate::json::parse(&chrome_json(&spans, "w")).unwrap();
        assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
