//! `interactive`: the paper's developer loop (§5.1). One simulated
//! developer runs full Simulation-strategy sessions with shipped
//! defaults and one engine thread, over T1, T5, T8 and Panel.

use crate::common::{check_superset, ms, peak_rss_mb, tasks_once, timed_setup, Opts, Rng};
use crate::layers::EngineTally;
use crate::stats::{median, tail, Report, Tail};
use crate::timed::{Journal, Ledger, Spans, TimedDeveloper, TimedStrategy};
use iflex::{Session, SimulatedDeveloper};
use iflex_assistant::Simulation;
use iflex_corpus::{Corpus, Task, TaskId};
use std::time::Instant;

/// Corpus scale.
pub const SCALE: f64 = 10.0;

/// ROADMAP's Table-3 task set, with each task's sessions per round. T3,
/// T6 and T9 stay out for run length alone (see NOTES.md). The wait
/// percentiles fall among the T5 and T8 waits, whose level depends on the
/// session's sample seed; two sessions of each per round (and of T1, to
/// keep the mix) halve that seed-to-seed variance for a third more round
/// time, where a second Panel session would double the round.
pub const TASKS: [(TaskId, usize); 4] = [
    (TaskId::T1, 2),
    (TaskId::T5, 2),
    (TaskId::T8, 2),
    (TaskId::Panel, 1),
];

/// Untraced rounds a run measures however long they take. A round takes
/// most of a 20 s run, and on a slow host one round alone would leave
/// the run's figures half the sessions.
pub const MIN_ROUNDS: usize = 2;

/// One session's figures.
struct SessionRun {
    wall_s: f64,
    questions: usize,
    iterations: usize,
    select_s: Vec<f64>,
    wait_s: Vec<f64>,
    machine_s: f64,
    final_s: f64,
}

/// One pass over the tasks, in the round's seeded order.
#[derive(Default)]
struct Round {
    wall_s: f64,
    questions: usize,
    iterations: usize,
    select_s: Vec<f64>,
    wait_s: Vec<f64>,
    iter_run_s: f64,
    final_run_s: f64,
}

impl Round {
    fn add(&mut self, s: SessionRun) {
        self.wall_s += s.wall_s;
        self.questions += s.questions;
        self.iterations += s.iterations;
        self.select_s.extend(s.select_s);
        self.wait_s.extend(s.wait_s);
        self.iter_run_s += s.machine_s - s.final_s;
        self.final_run_s += s.final_s;
    }

    fn select_total(&self) -> f64 {
        self.select_s.iter().sum()
    }

    /// Session time the assistant and engine figures do not explain.
    fn residual_s(&self) -> f64 {
        self.wall_s - self.select_total() - self.iter_run_s - self.final_run_s
    }
}

/// Where a traced run's layer figures go.
struct Traced {
    tally: EngineTally,
    journal: Journal,
    spans: Spans,
}

/// Runs one developer session and checks its result.
fn session(
    corpus: &Corpus,
    task: &Task,
    sample_seed: u64,
    mut traced: Option<&mut Traced>,
    rep: &mut Report,
) -> SessionRun {
    let trace = traced.is_some();
    let ledger = Ledger::new(
        traced
            .as_ref()
            .map_or_else(|| Spans::new(false), |t| t.spans.fork()),
    );
    let mut engine = task.engine(corpus);
    engine.limits.trace = trace;
    let mut s = Session::new(
        engine,
        task.program.clone(),
        Box::new(TimedStrategy::new(Simulation::default(), ledger.clone())),
        Box::new(TimedDeveloper::new(
            SimulatedDeveloper::new(task.oracle.clone()),
            ledger.clone(),
        )),
    );
    s.config.threads = Some(1);
    s.config.sample_seed = sample_seed;
    ledger.borrow_mut().spans.begin("Session::run");
    ledger.borrow_mut().since = Instant::now();
    let t0 = Instant::now();
    let out = s.run();
    let wall_s = t0.elapsed().as_secs_f64();
    ledger.borrow_mut().spans.end();
    let name = task.id.name();
    let verdict = match &out {
        Err(e) => Err(format!("{name} session failed: {e}")),
        Ok(o) if !o.full_run_within_budget => Err(format!(
            "{name} final run fell back to a sample ({} retries)",
            o.retries
        )),
        Ok(o) => check_superset(task, &o.table, s.engine.store()),
    };
    rep.check(verdict.is_ok(), || verdict.clone().unwrap_err());
    let (questions, iterations, machine_s, final_s) = match &out {
        Ok(o) => (
            o.questions_asked,
            o.iterations,
            o.machine_secs,
            o.final_run_secs,
        ),
        Err(_) => (0, 0, 0.0, 0.0),
    };
    if let Some(t) = traced.as_mut() {
        if let Ok(o) = &out {
            t.tally.add_run(&o.final_stats, &s.engine);
        }
        t.tally.add_engine(&s.engine);
        *t.tally.run_s.entry(name).or_default() += machine_s;
        t.journal
            .absorb(&s.engine.tracer.events(), s.engine.tracer.dropped());
    }
    drop(s);
    let l = std::rc::Rc::try_unwrap(ledger)
        .expect("session dropped its decorators")
        .into_inner();
    SessionRun {
        wall_s,
        questions,
        iterations,
        select_s: l.select_s,
        wait_s: l.wait_s,
        machine_s,
        final_s,
    }
}

/// Runs the workload at `o.scale`: each round runs `sessions[i].1`
/// sessions of task `sessions[i].0`.
pub fn run_tasks(o: &Opts, sessions: &[(TaskId, usize)]) -> Report {
    let mut rep = Report::default();
    let ids: Vec<TaskId> = sessions.iter().map(|&(id, _)| id).collect();
    let mut tasks = None;
    let (corpus, (), setup_s, build_s) = timed_setup(o.scale, &mut rep, |c| {
        let excluded = tasks_once(c, &ids, &mut tasks);
        for t in tasks.as_ref().expect("tasks built") {
            std::hint::black_box(t.engine(c));
        }
        ((), excluded)
    });
    let tasks = tasks.expect("tasks built");
    rep.sections.push(format!(
        "workload interactive: closed loop, 1 simulated developer, Simulation strategy, engine threads 1, \
         shipped defaults (sampling, incremental, memo, optimizer, columnar on); scale {} ({} documents); \
         sessions per round {}; at least {MIN_ROUNDS} rounds; seed {} sets each round's session order and each \
         session's sample_seed",
        o.scale,
        corpus.store.len(),
        sessions
            .iter()
            .map(|(t, k)| format!("{}x{k}", t.name()))
            .collect::<Vec<_>>()
            .join(","),
        o.seed
    ));

    let mut rng = Rng::new(o.seed, 1);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut traced = Traced {
        tally: EngineTally::default(),
        journal: Journal::default(),
        spans: Spans::new(true),
    };
    // A traced run pairs every round with a traced one, so one pair is
    // enough for its per-layer figures.
    let min_rounds = if o.trace { 1 } else { MIN_ROUNDS };
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < o.seconds {
        let mut order: Vec<usize> = sessions
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, k))| std::iter::repeat_n(i, k))
            .collect();
        rng.shuffle(&mut order);
        let seeds: Vec<u64> = order.iter().map(|_| rng.next()).collect();
        let mut round = Round::default();
        for (&i, &seed) in order.iter().zip(&seeds) {
            round.add(session(&corpus, &tasks[i], seed, None, &mut rep));
        }
        rounds.push(round);
        if o.trace {
            // The same sessions again with the journal on: the pair gives
            // the tracing overhead on identical work.
            let mut round = Round::default();
            for (&i, &seed) in order.iter().zip(&seeds) {
                round.add(session(
                    &corpus,
                    &tasks[i],
                    seed,
                    Some(&mut traced),
                    &mut rep,
                ));
            }
            traced_rounds.push(round);
        }
    }

    // The peak includes the loop's checks: each session's final result is
    // scored against ground truth while the session holds it.
    let peak = peak_rss_mb();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    // Wait percentiles are taken per round and their median reported:
    // every round holds the same sessions, so its sample count and the
    // tail percentile that count allows stay the same however many rounds
    // fit in the run. Pooled over rounds, the percentile would climb with
    // the round count to where it mixes in Panel's far slower waits.
    let p50s: Vec<f64> = rounds.iter().map(|r| median(&ms(&r.wait_s))).collect();
    let tails: Vec<Tail> = rounds.iter().map(|r| tail(&ms(&r.wait_s))).collect();
    let questions: usize = rounds.iter().map(|r| r.questions).sum();
    let wall_total: f64 = walls.iter().sum();
    for (k, (r, t)) in rounds.iter().zip(&tails).enumerate() {
        rep.sections.push(format!(
            "  round {k}: session_s {:.3} questions {} iterations {} select_s {:.3} iter_run_s {:.3} final_run_s {:.3} residual_s {:.4} wait_p50_ms {:.2} wait_p{}_ms {:.2} (n={})",
            r.wall_s,
            r.questions,
            r.iterations,
            r.select_total(),
            r.iter_run_s,
            r.final_run_s,
            r.residual_s(),
            p50s[k],
            t.pct,
            t.value,
            t.n
        ));
    }
    if !o.trace {
        let pcts: Vec<String> = tails
            .iter()
            .map(|t| format!("p{}/n={}", t.pct, t.n))
            .collect();
        rep.put(
            "setup_s",
            setup_s,
            "s",
            format!("fastest of {} set-ups", crate::common::SETUP_REPS),
        );
        rep.put(
            "session_s",
            median(&walls),
            "s",
            format!("median over {} rounds of summed Session::run", walls.len()),
        );
        rep.put(
            "wait_p50_ms",
            median(&p50s),
            "ms",
            format!(
                "developer wait before each answer: each round's median, median over {} rounds",
                rounds.len()
            ),
        );
        rep.put(
            "wait_tail_ms",
            median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            "ms",
            format!("median over rounds of {}", pcts.join(" ")),
        );
        rep.put(
            "throughput_per_s",
            questions as f64 / wall_total,
            "1/s",
            "questions answered per second of session time",
        );
        rep.put(
            "peak_rss_mb",
            peak,
            "MiB",
            "VmHWM of this process after the measured loop",
        );
        return rep;
    }

    let sum = |f: fn(&Round) -> f64| traced_rounds.iter().map(f).sum::<f64>();
    let session_s = sum(|r| r.wall_s);
    let select_s = sum(Round::select_total);
    let iter_s = sum(|r| r.iter_run_s);
    let final_s = sum(|r| r.final_run_s);
    let residual = session_s - select_s - iter_s - final_s;
    let coverage = 100.0 * (select_s + iter_s + final_s) / session_s;
    rep.check(coverage >= 95.0, || {
        format!("layers cover {coverage:.2}% of session_s, below 95%")
    });
    let selects: Vec<f64> = ms(&traced_rounds
        .iter()
        .flat_map(|r| r.select_s.iter().copied())
        .collect::<Vec<_>>());
    let totals = traced.spans.totals();
    rep.put(
        "corpus.build_s",
        build_s,
        "s",
        "Corpus::build, fastest of the set-ups",
    );
    rep.put(
        "session.iterations",
        traced_rounds.iter().map(|r| r.iterations).sum::<usize>() as f64,
        "count",
        "",
    );
    rep.put(
        "session.questions",
        traced_rounds.iter().map(|r| r.questions).sum::<usize>() as f64,
        "count",
        "",
    );
    rep.put(
        "session.residual_s",
        residual,
        "s",
        format!("session_s {session_s:.3} minus the three layers below"),
    );
    rep.put(
        "session.coverage_pct",
        coverage,
        "%",
        "(select + iter_run + final_run) / session_s",
    );
    rep.put(
        "assistant.select_s",
        select_s,
        "s",
        "Strategy::next_question, summed",
    );
    rep.put(
        "assistant.select_p50_ms",
        median(&selects),
        "ms",
        format!("n={}", selects.len()),
    );
    rep.put(
        "assistant.probes",
        traced.journal.probes as f64,
        "count",
        "journal: top-level probe spans",
    );
    rep.put(
        "assistant.probe_s",
        traced.journal.probe_s,
        "s",
        "journal: probe span time",
    );
    let answer = totals
        .get("Developer::answer")
        .map(|t| t.inclusive_s)
        .unwrap_or(0.0);
    rep.put(
        "developer.answer_s",
        answer,
        "s",
        "Developer::answer, summed",
    );
    rep.put(
        "engine.iter_run_s",
        iter_s,
        "s",
        "machine_secs - final_run_secs",
    );
    rep.put(
        "engine.final_run_s",
        final_s,
        "s",
        "SessionOutcome::final_run_secs",
    );
    traced.tally.put(&mut rep, &traced.journal);
    let untraced_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    rep.put(
        "trace.overhead_pct",
        100.0 * (session_s / untraced_s - 1.0),
        "%",
        format!("traced {session_s:.3}s vs untraced {untraced_s:.3}s, same sessions"),
    );
    rep.sections.push(crate::timed::render_totals(&totals));
    rep.sections.push(format!(
        "  busiest features (verify calls): {}",
        traced.tally.feature_summary()
    ));
    rep.sections.push(format!(
        "  reconciliation: session_s {session_s:.4} = select {select_s:.4} + iter_run {iter_s:.4} + final_run {final_s:.4} + residual {residual:.4} ({coverage:.2}% covered); journal dropped {}",
        traced.journal.dropped
    ));
    rep
}

/// Runs the workload.
pub fn run(o: &Opts) -> Report {
    run_tasks(o, &TASKS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_residual_is_what_the_layers_leave() {
        let mut r = Round::default();
        r.add(SessionRun {
            wall_s: 10.0,
            questions: 3,
            iterations: 2,
            select_s: vec![4.0, 3.0],
            wait_s: vec![],
            machine_s: 2.5,
            final_s: 1.0,
        });
        assert_eq!(r.iter_run_s, 1.5);
        assert!((r.residual_s() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn smoke_tiny_scale() {
        for trace in [false, true] {
            let o = Opts {
                seed: 3,
                seconds: 0.01,
                trace,
                scale: 0.05,
            };
            let rep = run_tasks(&o, &[(TaskId::T1, 2), (TaskId::T5, 1)]);
            assert_eq!(rep.failed, 0, "{:?}", rep.failures);
            let rounds = if trace { 2 } else { MIN_ROUNDS };
            assert!(rep.attempted >= 3 * rounds as u64);
            let key = if trace {
                "assistant.select_s"
            } else {
                "session_s"
            };
            assert!(rep.get(key).unwrap() > 0.0);
        }
    }
}
