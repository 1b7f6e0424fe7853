//! `service`: the multi-tenant host. Client threads in one process call
//! `Host::handle_line` in-process, each replaying seeded developer
//! transcripts — create a session with the task program, ask and answer
//! from the task oracle, fetch results, close — and waiting for every
//! reply (a closed loop).

use crate::common::{
    check_superset, ms, parallelism, peak_rss_mb, release_freed_memory, tasks_once, timed_setup,
    Opts, Rng,
};
use crate::layers::EngineTally;
use crate::stats::{median, percentile, tail, Report, Tail};
use crate::timed::{Journal, Spans};
use iflex::alog::Program;
use iflex::features::{FeatureArg, FeatureRegistry};
use iflex_assistant::attributes;
use iflex_corpus::{Corpus, Task, TaskId};
use iflex_engine::{Engine, FeatureMemo};
use iflex_service::{decode, Host, Json, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Corpus scale.
pub const SCALE: f64 = 3.0;

/// The tasks whose tables the shared engine core holds.
pub const TASKS: [TaskId; 4] = [TaskId::T1, TaskId::T5, TaskId::T8, TaskId::Panel];

/// Answers each transcript gives.
pub const ANSWERS: usize = 4;

/// Sessions each client runs per cycle: three runs of four.
pub const SESSIONS_PER_CLIENT: usize = 12;

/// Most client threads.
pub const MAX_CLIENTS: usize = 2;

/// Client threads: two, or fewer on a smaller host.
pub fn clients() -> usize {
    parallelism().clamp(1, MAX_CLIENTS)
}

/// One oracle fact, rendered the way the wire protocol takes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Attribute display name (`pred.var`).
    pub attr: String,
    /// Feature name.
    pub feature: String,
    /// Value token.
    pub value: String,
}

/// One tenant session a client replays.
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript {
    /// Index into [`TASKS`].
    pub task: usize,
    /// The answers, in the order the client gives them.
    pub answers: Vec<Fact>,
}

/// The oracle facts of a task in canonical order: attributes in program
/// order, features in registry order.
pub fn facts(task: &Task, features: &FeatureRegistry) -> Vec<Fact> {
    let mut out = Vec::new();
    for a in attributes(&task.program) {
        for f in features.names() {
            if let Some(v) = task.oracle.lookup(&a.display(), f) {
                let value = match v {
                    FeatureArg::Text(t) => t.clone(),
                    other => other.to_string(),
                };
                out.push(Fact {
                    attr: a.display(),
                    feature: f.to_string(),
                    value,
                });
            }
        }
    }
    out
}

/// Transcript `k` of client `client`. Every run of four sessions covers
/// each task once, in a seeded order. Runs 0 and 2 of a cycle are fresh:
/// each answers [`ANSWERS`] consecutive facts of a seeded cyclic
/// permutation of the task's oracle facts and skips the rest, so its
/// program is new to the host (cold). Successive fresh sessions take
/// successive windows, so every fact is answered equally often whatever
/// the seed. Run 1 repeats run 0's answers for the same task, a program
/// prefix an earlier session of this client has already published (a
/// warm fork). The fixed shape keeps the warm and cold mix the same for
/// every seed.
pub fn transcript(seed: u64, client: usize, k: usize, facts: &[Vec<Fact>]) -> Transcript {
    let n = facts.len();
    let run = k / n;
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0x5e55_0000 + ((client as u64) << 32) + run as u64).shuffle(&mut order);
    let task = order[k % n];
    let source_run = if run % 3 == 1 { run - 1 } else { run };
    // Fresh sessions of a task, numbered across clients: two per cycle each.
    let fresh = (source_run / 3 * 2 + usize::from(source_run % 3 == 2)) * MAX_CLIENTS + client;
    let mut perm = facts[task].clone();
    Rng::new(seed, 0xa115_0000 + task as u64).shuffle(&mut perm);
    let answers = (0..ANSWERS)
        .map(|i| perm[(fresh * ANSWERS + i) % perm.len()].clone())
        .collect();
    Transcript { task, answers }
}

/// What one request did.
struct Sample {
    verb: &'static str,
    secs: f64,
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// `(task, answers applied, tuples, expanded)` per get-results.
    results: Vec<(usize, Vec<Fact>, u64, u64)>,
    /// Summed create→close wall of the cycle's sessions: two fresh runs
    /// of four and one warm run, the same shape in every cycle.
    session_s: f64,
    sessions: usize,
    ok: u64,
    failures: Vec<String>,
    decode_s: Vec<f64>,
    render_s: Vec<f64>,
}

fn span_name(verb: &str) -> &'static str {
    match verb {
        "create-session" => "Host::handle_line(create-session)",
        "ask-question" => "Host::handle_line(ask-question)",
        "answer" => "Host::handle_line(answer)",
        "get-results" => "Host::handle_line(get-results)",
        _ => "Host::handle_line(close-session)",
    }
}

/// Sends one request line and checks the reply envelope.
fn send(
    host: &Host,
    log: &mut ClientLog,
    spans: &mut Spans,
    verb: &'static str,
    fields: Vec<(&str, Json)>,
) -> Option<Json> {
    let mut pairs = vec![("cmd", Json::str(verb))];
    pairs.extend(fields);
    let line = Json::obj(pairs).render();
    spans.begin(span_name(verb));
    let t0 = Instant::now();
    let resp = host.handle_line(&line);
    let secs = t0.elapsed().as_secs_f64();
    spans.end();
    log.samples.push(Sample { verb, secs });
    if spans.is_enabled() {
        // The protocol layers on this run's own lines, timed apart from
        // the request they belong to.
        let t = Instant::now();
        let decoded = spans.time("protocol::decode", || decode(&line));
        log.decode_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(decoded.is_ok());
        let t = Instant::now();
        let rendered = spans.time("Json::render", || resp.render());
        log.render_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(rendered.len());
    }
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        log.ok += 1;
        Some(resp)
    } else {
        let err = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text");
        log.failures.push(format!("{verb}: {err}"));
        None
    }
}

/// Replays one transcript; returns the session's create→close wall.
fn replay(
    host: &Host,
    tr: &Transcript,
    program: &str,
    log: &mut ClientLog,
    spans: &mut Spans,
) -> f64 {
    let t0 = Instant::now();
    let Some(resp) = send(
        host,
        log,
        spans,
        "create-session",
        vec![("program", Json::str(program))],
    ) else {
        return t0.elapsed().as_secs_f64();
    };
    let session = resp
        .get("session")
        .and_then(Json::as_u64)
        .expect("create-session returns a session id");
    let sid = || ("session", Json::num(session));
    send(
        host,
        log,
        spans,
        "ask-question",
        vec![sid(), ("count", Json::num(1))],
    );
    for a in &tr.answers {
        send(
            host,
            log,
            spans,
            "answer",
            vec![
                sid(),
                ("attr", Json::str(&a.attr)),
                ("feature", Json::str(&a.feature)),
                ("value", Json::str(&a.value)),
            ],
        );
        send(
            host,
            log,
            spans,
            "ask-question",
            vec![sid(), ("count", Json::num(1))],
        );
    }
    if let Some(r) = send(
        host,
        log,
        spans,
        "get-results",
        vec![sid(), ("limit", Json::num(5))],
    ) {
        if r.get("degraded").and_then(Json::as_bool) != Some(false) {
            log.failures.push(format!(
                "get-results: degraded result for {}",
                TASKS[tr.task].name()
            ));
            log.ok -= 1;
        }
        let n = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        log.results
            .push((tr.task, tr.answers.clone(), n("tuples"), n("expanded")));
    }
    send(host, log, spans, "close-session", vec![sid()]);
    t0.elapsed().as_secs_f64()
}

/// Runs client `c`'s transcripts of cycle `cycle`.
fn client(
    host: &Host,
    seed: u64,
    c: usize,
    cycle: usize,
    facts: &[Vec<Fact>],
    programs: &[String],
    mut spans: Spans,
) -> ClientLog {
    let mut log = ClientLog::default();
    for k in cycle * SESSIONS_PER_CLIENT..(cycle + 1) * SESSIONS_PER_CLIENT {
        let tr = transcript(seed, c, k, facts);
        log.session_s += replay(host, &tr, &programs[tr.task], &mut log, &mut spans);
        log.sessions += 1;
    }
    log
}

/// One host over a fresh engine core holding every task's tables, and
/// the feature memo the core shares with every session it forks.
fn new_host(corpus: &Corpus, tasks: &[Task], default_program: &str) -> (Host, Arc<FeatureMemo>) {
    let mut engine = Engine::new(corpus.store.clone());
    for t in tasks {
        for (name, ids) in &t.tables {
            engine.add_doc_table(name, ids);
        }
    }
    engine.limits.threads = 1;
    let memo = engine.memo().clone();
    let host = Host::new(
        engine.into_core(),
        default_program,
        ServiceConfig::default(),
    );
    (host, memo)
}

/// Drives every client against `host` for one cycle, each recording into
/// `spans`; returns their logs and the wall time.
fn drive(
    host: &Host,
    o: &Opts,
    cycle: usize,
    facts: &[Vec<Fact>],
    programs: &[String],
    spans: &Spans,
) -> (Vec<ClientLog>, f64) {
    let t0 = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|c| {
                let spans = spans.fork();
                s.spawn(move || client(host, o.seed, c, cycle, facts, programs, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, t0.elapsed().as_secs_f64())
}

/// Host counters summed over a run's hosts.
#[derive(Debug, Default)]
struct HostCounts {
    watchdog_cancels: u64,
    rejected: u64,
    publishes: u64,
    warm_entries: u64,
}

impl HostCounts {
    fn add(&mut self, host: &Host) {
        self.watchdog_cancels += counter(host, "service.watchdog_cancels");
        self.rejected += counter(host, "service.rejected_admission")
            + counter(host, "service.rejected_backpressure");
        self.publishes += counter(host, "service.publishes");
        self.warm_entries += host
            .handle_line(r#"{"cmd":"stats"}"#)
            .get("warm_entries")
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }
}

fn counter(host: &Host, name: &str) -> u64 {
    host.metrics().counter_value(name).unwrap_or(0)
}

/// Checks every get-results reply against a cold local run of the same
/// program: equal sizes, and recall 1.0 against ground truth.
fn check_results<'a>(
    corpus: &Corpus,
    tasks: &[Task],
    logs: impl Iterator<Item = &'a ClientLog>,
    rep: &mut Report,
) {
    let mut engines: Vec<Engine> = tasks.iter().map(|t| t.engine(corpus)).collect();
    let mut seen: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (task, answers, tuples, expanded) in logs.flat_map(|l| &l.results) {
        let t = &tasks[*task];
        let program = apply(&t.program, answers);
        let key = format!("{}\n{program}", t.id.name());
        let expected = match seen.get(&key) {
            Some(e) => Ok(*e),
            None => {
                let eng = &mut engines[*task];
                match eng.run(&program) {
                    Err(e) => Err(format!("{}: reference run failed: {e}", t.id.name())),
                    Ok(table) => check_superset(t, &table, eng.store()).map(|()| {
                        let e = (table.len() as u64, table.expanded_len(eng.store()));
                        seen.insert(key, e);
                        e
                    }),
                }
            }
        };
        let verdict = expected.and_then(|e| {
            if e == (*tuples, *expanded) {
                Ok(())
            } else {
                Err(format!(
                    "{}: service returned {tuples}/{expanded} tuples, reference {}/{}",
                    t.id.name(),
                    e.0,
                    e.1
                ))
            }
        });
        rep.check(verdict.is_ok(), || verdict.clone().unwrap_err());
    }
    rep.sections.push(format!(
        "  reference runs: {} distinct final programs checked",
        seen.len()
    ));
}

/// The program a transcript leaves behind: its answers folded in order.
fn apply(program: &Program, answers: &[Fact]) -> Program {
    let mut p = program.clone();
    for a in answers {
        let Some(attr) = attributes(&p).into_iter().find(|x| x.display() == a.attr) else {
            continue;
        };
        p = iflex_assistant::add_constraint(&p, &attr, &a.feature, &wire_arg(&a.value));
    }
    p
}

/// The feature argument the host parses from a wire value token.
fn wire_arg(value: &str) -> FeatureArg {
    if let Ok(t) = value.parse() {
        FeatureArg::Tri(t)
    } else if let Ok(n) = value.parse::<f64>() {
        FeatureArg::Num(n)
    } else {
        FeatureArg::Text(value.to_string())
    }
}

/// Runs the workload over `ids` at `o.scale`.
pub fn run_tasks(o: &Opts, ids: &[TaskId]) -> Report {
    let mut rep = Report::default();
    let mut tasks = None;
    let mut programs: Vec<String> = Vec::new();
    let (corpus, host, setup_s, build_s) = timed_setup(o.scale, &mut rep, |c| {
        let excluded = tasks_once(c, ids, &mut tasks);
        let tasks = tasks.as_ref().expect("tasks built");
        programs = tasks.iter().map(|t| t.program.to_string()).collect();
        (new_host(c, tasks, &programs[0]).0, excluded)
    });
    let tasks = tasks.expect("tasks built");
    let features = FeatureRegistry::default();
    let facts: Vec<Vec<Fact>> = tasks.iter().map(|t| facts(t, &features)).collect();
    rep.sections.push(format!(
        "workload service: closed loop, {} client threads calling Host::handle_line in-process, \
         ServiceConfig::default(), engine core threads 1; scale {} ({} documents); tasks {}; each cycle is a \
         fresh host serving {SESSIONS_PER_CLIENT} sessions per client; seed {} sets each client's task order, \
         answer order and which facts each session answers ({ANSWERS} per session, the rest skipped)",
        clients(),
        o.scale,
        corpus.store.len(),
        ids.iter().map(|t| t.name()).collect::<Vec<_>>().join(","),
        o.seed
    ));

    // Every cycle runs on a fresh host, started after the earlier hosts'
    // memory went back to the system: the shared memo and warm cache grow
    // within a cycle, never across one, so every cycle is alike.
    let mut first_host = Some(host);
    let mut base: Vec<ClientLog> = Vec::new();
    let mut traced: Vec<ClientLog> = Vec::new();
    let (mut wall, mut traced_wall) = (0.0, 0.0);
    let mut cycle_s: Vec<f64> = Vec::new();
    let (mut counts, mut traced_counts) = (HostCounts::default(), HostCounts::default());
    let mut journal = Journal::default();
    let mut tally = EngineTally::default();
    let (untraced_spans, spans) = (Spans::new(false), Spans::new(true));
    let mut cycles = 0;
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < o.seconds {
        release_freed_memory();
        let host = first_host
            .take()
            .unwrap_or_else(|| new_host(&corpus, &tasks, &programs[0]).0);
        let (logs, w) = drive(&host, o, cycles, &facts, &programs, &untraced_spans);
        counts.add(&host);
        drop(host);
        base.extend(logs);
        wall += w;
        cycle_s.push(w);
        if o.trace {
            // The same transcripts on another fresh host with tracing on:
            // the pair gives the tracing overhead on identical work.
            release_freed_memory();
            let (host, memo) = new_host(&corpus, &tasks, &programs[0]);
            let tracer = host.enable_tracing().clone();
            let (logs, w) = drive(&host, o, cycles, &facts, &programs, &spans);
            traced_counts.add(&host);
            drop(host);
            tally.add_memo(&memo);
            journal.absorb(&tracer.events(), tracer.dropped());
            traced.extend(logs);
            traced_wall += w;
        }
        cycles += 1;
    }

    // Read before the result checks below so their memory does not count.
    let peak = peak_rss_mb();
    for l in base.iter().chain(&traced) {
        let attempted = l.samples.len() as u64;
        rep.attempted += attempted;
        rep.failed += attempted - l.ok;
        for f in l
            .failures
            .iter()
            .take(8usize.saturating_sub(rep.failures.len()))
        {
            rep.failures.push(f.clone());
        }
    }
    for c in [&counts, &traced_counts] {
        // A rejection already failed its reply; a watchdog cancel may hide
        // behind an `ok` ask-question, so it counts on its own.
        for _ in 0..c.watchdog_cancels {
            rep.check(false, || "the watchdog cancelled a run".into());
        }
    }
    check_results(&corpus, &tasks, base.iter().chain(&traced), &mut rep);

    let verb_ms = |logs: &[ClientLog], verb: &str| -> Vec<f64> {
        ms(&logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.verb == verb)
            .map(|s| s.secs)
            .collect::<Vec<_>>())
    };
    let requests: usize = base.iter().map(|l| l.samples.len()).sum();
    let sessions: usize = base.iter().map(|l| l.sessions).sum();
    rep.sections.push(format!(
        "  {cycles} cycles, {requests} requests in {sessions} sessions over {wall:.3}s; warm entries per host at cycle end: {:.1}",
        counts.warm_entries as f64 / cycles as f64
    ));
    rep.sections.push(format!(
        "  cycle walls (s): {}",
        cycle_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !o.trace {
        // Every ask-question counts. The asks that follow an answer split
        // about evenly between warm hits and program re-runs, so their
        // median fell in the gap between the two and moved by half with
        // the share of hits; the first ask of each session, nearly always
        // warm, moves the median into the warm cluster.
        let asks = verb_ms(&base, "ask-question");
        // The tail is taken per cycle and its median reported: every cycle
        // has the same shape on a fresh host, so its sample count and the
        // tail percentile that count allows stay the same however many
        // cycles fit in the run, and one cycle the host slowed down does
        // not fill a pooled tail on its own.
        let tails: Vec<Tail> = base
            .chunks(clients())
            .map(|cycle| tail(&verb_ms(cycle, "ask-question")))
            .collect();
        // Per client cycle, not per run of four: a warm run costs a
        // fraction of a fresh one, so a median over runs fell among the
        // fresh runs of whichever facts the seed made cheapest.
        let cycles_s: Vec<f64> = base.iter().map(|l| l.session_s).collect();
        rep.put(
            "setup_s",
            setup_s,
            "s",
            format!("fastest of {} set-ups", crate::common::SETUP_REPS),
        );
        rep.put(
            "session_s",
            median(&cycles_s),
            "s",
            format!(
                "median over {} client cycles of summed create->close wall of {SESSIONS_PER_CLIENT} sessions",
                cycles_s.len()
            ),
        );
        rep.put(
            "wait_p50_ms",
            median(&asks),
            "ms",
            format!(
                "ask_p50_ms: ask-question latency at handle_line, n={}",
                asks.len()
            ),
        );
        rep.put(
            "wait_tail_ms",
            median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            "ms",
            format!(
                "ask_tail_ms: each cycle's p{} (n={}), median over {} cycles",
                tails[0].pct,
                tails[0].n,
                tails.len()
            ),
        );
        rep.put(
            "throughput_per_s",
            requests as f64 / wall,
            "1/s",
            "service_req_per_s: requests completed per second",
        );
        rep.put(
            "peak_rss_mb",
            peak,
            "MiB",
            "VmHWM of this process after the measured loop",
        );
        return rep;
    }
    rep.put(
        "corpus.build_s",
        build_s,
        "s",
        "Corpus::build, fastest of the set-ups",
    );
    for (name, verb) in [
        ("service.create_p50_ms", "create-session"),
        ("service.ask_p50_ms", "ask-question"),
        ("service.answer_p50_ms", "answer"),
        ("service.results_p50_ms", "get-results"),
        ("service.close_p50_ms", "close-session"),
    ] {
        let xs = verb_ms(&traced, verb);
        rep.put(
            name,
            median(&xs),
            "ms",
            format!("n={} p90={:.3}", xs.len(), percentile(&xs, 90.0)),
        );
    }
    let c = &traced_counts;
    rep.put(
        "service.rejected",
        c.rejected as f64,
        "count",
        "admission + backpressure rejections",
    );
    rep.put(
        "service.watchdog_cancels",
        c.watchdog_cancels as f64,
        "count",
        "",
    );
    rep.put(
        "service.publishes",
        c.publishes as f64,
        "count",
        "sessions that published into the core",
    );
    rep.put(
        "core.warm_entries",
        c.warm_entries as f64 / cycles as f64,
        "count",
        "EngineCore::warm_entries at cycle end, via the stats verb",
    );
    let us = |xs: Vec<f64>| median(&xs.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    let dec: Vec<f64> = traced
        .iter()
        .flat_map(|l| l.decode_s.iter().copied())
        .collect();
    let ren: Vec<f64> = traced
        .iter()
        .flat_map(|l| l.render_s.iter().copied())
        .collect();
    let (nd, nr) = (dec.len(), ren.len());
    rep.put(
        "protocol.decode_us",
        us(dec),
        "us",
        format!("median of protocol::decode over the run's {nd} request lines"),
    );
    rep.put(
        "json.render_us",
        us(ren),
        "us",
        format!("median of Json::render over the run's {nr} responses"),
    );
    tally.put(&mut rep, &journal);
    rep.put(
        "trace.overhead_pct",
        100.0 * (traced_wall / wall - 1.0),
        "%",
        format!("traced {traced_wall:.3}s vs untraced {wall:.3}s, same transcripts"),
    );
    rep.sections
        .push(crate::timed::render_totals(&spans.totals()));
    rep
}

/// Runs the workload.
pub fn run(o: &Opts) -> Report {
    run_tasks(o, &TASKS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_facts() -> Vec<Vec<Fact>> {
        let corpus = Corpus::build(iflex_corpus::CorpusConfig::tiny());
        let features = FeatureRegistry::default();
        TASKS
            .iter()
            .map(|&id| facts(&corpus.task(id, Some(10)), &features))
            .collect()
    }

    #[test]
    fn transcripts_are_deterministic_per_seed() {
        let f = tiny_facts();
        assert!(
            f.iter().all(|v| v.len() > ANSWERS),
            "every task has facts to skip"
        );
        let a: Vec<Transcript> = (0..12).map(|k| transcript(9, 1, k, &f)).collect();
        let b: Vec<Transcript> = (0..12).map(|k| transcript(9, 1, k, &f)).collect();
        let c: Vec<Transcript> = (0..12).map(|k| transcript(10, 1, k, &f)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for chunk in a.chunks(4) {
            let mut tasks: Vec<usize> = chunk.iter().map(|t| t.task).collect();
            tasks.sort();
            assert_eq!(
                tasks,
                vec![0, 1, 2, 3],
                "each run of four covers every task once"
            );
        }
        assert!(a.iter().all(|t| t.answers.len() == ANSWERS));
        for k in 4..8 {
            let repeat = &a[k];
            let fresh = a[..4]
                .iter()
                .find(|t| t.task == repeat.task)
                .expect("run 0 covers every task");
            assert_eq!(repeat, fresh, "run 1 repeats run 0");
        }
        assert!(a[8..].iter().all(|t| !a[..4].contains(t)), "run 2 is fresh");
    }

    #[test]
    fn wire_values_round_trip() {
        assert_eq!(
            wire_arg("distinct-yes"),
            FeatureArg::Tri(iflex::features::FeatureValue::DistinctYes)
        );
        assert_eq!(wire_arg("450"), FeatureArg::Num(450.0));
        assert_eq!(wire_arg("New: $"), FeatureArg::Text("New: $".into()));
    }

    #[test]
    fn smoke_tiny_scale() {
        for trace in [false, true] {
            let o = Opts {
                seed: 4,
                seconds: 0.01,
                trace,
                scale: 0.05,
            };
            let rep = run_tasks(&o, &TASKS);
            assert_eq!(rep.failed, 0, "{:?}", rep.failures);
            assert!(rep.attempted > 8);
            let key = if trace {
                "service.ask_p50_ms"
            } else {
                "throughput_per_s"
            };
            assert!(rep.get(key).unwrap() > 0.0);
        }
    }
}
