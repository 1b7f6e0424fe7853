//! Timing from outside the program: the benchmark's own spans, the
//! decorators that time calls into the assistant and the developer, and
//! the read-back of the engine's trace journal.

use iflex::Developer;
use iflex_assistant::{Answer, AssistContext, Question, Strategy};
use iflex_engine::obs::{build_spans, Span, SpanId, SpanKind, TraceEvent, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Per-name totals over the benchmark's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub inclusive_s: f64,
    /// Summed duration minus the part covered by direct children.
    pub self_s: f64,
}

/// The benchmark's own spans around calls into the layers, recorded in
/// an `obs::Tracer` as `Mark` spans named by the call and read back with
/// `build_spans`. Disabled, `begin`/`end` only read the tracer's flag.
#[derive(Debug)]
pub struct Spans {
    tracer: Tracer,
    open: Vec<SpanId>,
}

impl Spans {
    /// Spans that are recorded when `enabled`.
    pub fn new(enabled: bool) -> Self {
        let tracer = if enabled {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        Spans {
            tracer,
            open: Vec::new(),
        }
    }

    /// A recorder into the same journal with nesting of its own, for
    /// another session or client thread.
    pub fn fork(&self) -> Self {
        Spans {
            tracer: self.tracer.clone(),
            open: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) {
        let parent = self.open.last().copied().unwrap_or(SpanId::NONE);
        self.open
            .push(self.tracer.begin(parent, SpanKind::Mark, name));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("span end without begin");
        self.tracer.end(id);
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Totals per span name over the journal this recorder shares.
    pub fn totals(&self) -> BTreeMap<String, SpanTotal> {
        let spans = build_spans(&self.tracer.events()).expect("benchmark spans replay");
        let child_us = child_us(&spans, |_| true);
        let mut out: BTreeMap<String, SpanTotal> = BTreeMap::new();
        for s in &spans {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.inclusive_s += s.dur_us() as f64 / 1e6;
            t.self_s += self_us(s, &child_us) as f64 / 1e6;
        }
        out
    }
}

/// Summed duration of each span's direct children that pass `keep`, in
/// µs, by parent id.
fn child_us(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        *out.entry(s.parent).or_default() += s.dur_us();
    }
    out
}

/// A span's duration minus its counted children, in µs.
fn self_us(s: &Span, child_us: &BTreeMap<u64, u64>) -> u64 {
    s.dur_us()
        .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0))
}

/// The benchmark's span totals as a table.
pub fn render_totals(totals: &BTreeMap<String, SpanTotal>) -> String {
    let mut out =
        String::from("  benchmark spans:                        count   inclusive_s      self_s");
    for (name, t) in totals {
        out.push_str(&format!(
            "\n    {name:<34} {:>8} {:>13.4} {:>11.4}",
            t.count, t.inclusive_s, t.self_s
        ));
    }
    out
}

/// What the decorators of one developer session record.
#[derive(Debug)]
pub struct Ledger {
    /// Seconds spent in each `Strategy::next_question` call.
    pub select_s: Vec<f64>,
    /// Seconds the developer waited before each `Developer::answer`
    /// call: since the previous answer returned, or since the session
    /// started.
    pub wait_s: Vec<f64>,
    /// When the developer last got control back.
    pub since: Instant,
    /// The benchmark's spans (recorded in traced runs only).
    pub spans: Spans,
}

impl Ledger {
    /// A ledger whose wait clock starts now.
    pub fn new(spans: Spans) -> Rc<RefCell<Ledger>> {
        Rc::new(RefCell::new(Ledger {
            select_s: Vec::new(),
            wait_s: Vec::new(),
            since: Instant::now(),
            spans,
        }))
    }
}

/// Times every `next_question` call of the wrapped strategy.
pub struct TimedStrategy<S> {
    inner: S,
    ledger: Rc<RefCell<Ledger>>,
}

impl<S> TimedStrategy<S> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: S, ledger: Rc<RefCell<Ledger>>) -> Self {
        TimedStrategy { inner, ledger }
    }
}

impl<S: Strategy> Strategy for TimedStrategy<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_question(&mut self, ctx: &mut AssistContext<'_>) -> Option<Question> {
        self.ledger
            .borrow_mut()
            .spans
            .begin("Strategy::next_question");
        let t0 = Instant::now();
        let q = self.inner.next_question(ctx);
        let dt = t0.elapsed().as_secs_f64();
        let mut l = self.ledger.borrow_mut();
        l.spans.end();
        l.select_s.push(dt);
        q
    }
}

/// Times the developer's waits and every `answer` call.
pub struct TimedDeveloper<D> {
    inner: D,
    ledger: Rc<RefCell<Ledger>>,
}

impl<D> TimedDeveloper<D> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: D, ledger: Rc<RefCell<Ledger>>) -> Self {
        TimedDeveloper { inner, ledger }
    }
}

impl<D: Developer> Developer for TimedDeveloper<D> {
    fn answer(&mut self, question: &Question) -> Answer {
        {
            let mut l = self.ledger.borrow_mut();
            let waited = l.since.elapsed().as_secs_f64();
            l.wait_s.push(waited);
            l.spans.begin("Developer::answer");
        }
        let a = self.inner.answer(question);
        let mut l = self.ledger.borrow_mut();
        l.spans.end();
        l.since = Instant::now();
        a
    }
}

/// Layer figures read back from an engine trace journal.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Top-level simulation probes (answer-space probes included).
    pub probes: u64,
    /// Their summed duration, seconds.
    pub probe_s: f64,
    /// Summed rule self time (rule span minus its operators), seconds.
    pub rule_self_s: f64,
    /// Operator self time per operator kind, seconds.
    pub op_self_s: BTreeMap<String, f64>,
    /// Rule evaluations served by the incremental cache.
    pub incr_hits: u64,
    /// Rule evaluations computed.
    pub incr_misses: u64,
    /// Events the journal dropped at its cap.
    pub dropped: u64,
}

impl Journal {
    /// Folds one journal in.
    pub fn absorb(&mut self, events: &[TraceEvent], dropped: u64) {
        let spans = build_spans(events).expect("engine journal replays");
        let kind_of: BTreeMap<u64, SpanKind> = spans.iter().map(|s| (s.id, s.kind)).collect();
        for s in &spans {
            if s.kind == SpanKind::Probe && kind_of.get(&s.parent) != Some(&SpanKind::Probe) {
                self.probes += 1;
                self.probe_s += s.dur_us() as f64 / 1e6;
            }
        }
        // Self time subtracts direct operator children only: morsel spans
        // are worker time on other threads, overlapping their operator.
        let op_children_us = child_us(&spans, |s| s.kind == SpanKind::Operator);
        for s in &spans {
            let own = self_us(s, &op_children_us) as f64 / 1e6;
            match s.kind {
                SpanKind::Rule => self.rule_self_s += own,
                SpanKind::Operator => *self.op_self_s.entry(s.name.clone()).or_default() += own,
                _ => {}
            }
        }
        self.incr_misses += spans.iter().filter(|s| s.kind == SpanKind::Rule).count() as u64;
        self.incr_hits += events
            .iter()
            .filter(|e| e.kind == SpanKind::Rule && e.note.as_deref() == Some("cache_hit"))
            .count() as u64;
        self.dropped += dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = Spans::new(true);
        log.begin("a");
        log.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let mut other = log.fork();
        other.time("c", || ());
        log.time("b", || ());
        log.end();
        let t = log.totals();
        assert_eq!(
            (t["a"].count, t["b"].count, t["c"].count),
            (1, 2, 1),
            "a fork records into the same journal"
        );
        assert!(t["b"].inclusive_s >= 0.002);
        assert!(
            (t["a"].self_s - (t["a"].inclusive_s - t["b"].inclusive_s)).abs() < 1e-9,
            "only direct children count against a: {t:?}"
        );
        assert_eq!(t["b"].self_s, t["b"].inclusive_s);
    }

    #[test]
    fn journal_self_time_subtracts_operators_but_not_morsels() {
        use iflex_engine::obs::{SpanId, Tracer};
        let t = Tracer::enabled();
        let run = t.begin(SpanId::NONE, SpanKind::Run, "run");
        t.instant(run, SpanKind::Rule, "cached", Some("cache_hit"));
        let rule = t.begin(run, SpanKind::Rule, "r");
        let op = t.begin(rule, SpanKind::Operator, "fused");
        let morsel = t.begin(op, SpanKind::Morsel, "morsel0");
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.end(morsel);
        t.end(op);
        t.end(rule);
        t.end(run);
        let mut j = Journal::default();
        j.absorb(&t.events(), 0);
        assert!(
            j.op_self_s["fused"] >= 0.003,
            "morsel time stays with its operator"
        );
        assert!(j.rule_self_s < j.op_self_s["fused"]);
        assert_eq!((j.incr_hits, j.incr_misses), (1, 1));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut off = Spans::new(false);
        off.time("x", || ());
        off.fork().time("y", || ());
        assert!(off.totals().is_empty());
    }
}
