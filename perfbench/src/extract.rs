//! `extract`: the §6.3 deployment case. Fixed final programs run cold —
//! a fresh engine with empty memo and incremental cache each time — over
//! the whole corpus, with no assistant in the loop.

use crate::common::{
    check_superset, parallelism, peak_rss_mb, table_digest, tasks_once, timed_setup, Opts, Rng,
};
use crate::layers::EngineTally;
use crate::stats::{median, Report};
use crate::timed::{Journal, Spans};
use iflex::alog::{parse_program, Program};
use iflex_corpus::TaskId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Corpus scale.
pub const SCALE: f64 = 10.0;

/// The final programs, stored with the benchmark so an assistant change
/// cannot alter what this workload measures. Each was produced once by a
/// converging Simulation session at scale 1 (see NOTES.md).
pub const PROGRAMS: [(TaskId, &str); 5] = [
    (TaskId::T3, include_str!("../programs/T3.alog")),
    (TaskId::T5, include_str!("../programs/T5.alog")),
    (TaskId::T8, include_str!("../programs/T8.alog")),
    (TaskId::Panel, include_str!("../programs/Panel.alog")),
    (TaskId::Chair, include_str!("../programs/Chair.alog")),
];

/// Engine threads: two, or fewer on a smaller host.
pub fn threads() -> usize {
    parallelism().clamp(1, 2)
}

/// Runs the workload over the programs of `ids` at `o.scale`.
pub fn run_programs(o: &Opts, ids: &[TaskId]) -> Report {
    let mut rep = Report::default();
    let programs: Vec<(TaskId, Program)> = PROGRAMS
        .iter()
        .filter(|(id, _)| ids.contains(id))
        .map(|(id, src)| (*id, parse_program(src).expect("stored program parses")))
        .collect();
    let ids: Vec<TaskId> = programs.iter().map(|(id, _)| *id).collect();
    let mut tasks = None;
    let (corpus, (), setup_s, build_s) = timed_setup(o.scale, &mut rep, |c| {
        let excluded = tasks_once(c, &ids, &mut tasks);
        for t in tasks.as_ref().expect("tasks built") {
            std::hint::black_box(t.engine(c));
        }
        ((), excluded)
    });
    let tasks = tasks.expect("tasks built");
    let threads = threads();
    rep.sections.push(format!(
        "workload extract: closed loop, 1 caller, cold Engine::run per program (fresh engine, empty memo and \
         incremental cache), engine threads {threads}; scale {} ({} documents); programs {}; seed {} sets each \
         round's program order",
        o.scale,
        corpus.store.len(),
        ids.iter().map(|t| t.name()).collect::<Vec<_>>().join(","),
        o.seed
    ));

    let mut rng = Rng::new(o.seed, 2);
    // Per round: summed run seconds, the slowest run, tuples scanned.
    let mut rounds: Vec<(f64, f64, u64)> = Vec::new();
    // Untraced run seconds, per program.
    let mut run_s: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut traced_s = 0.0;
    let mut untraced_s = 0.0;
    let mut digests: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tally = EngineTally::default();
    let mut journal = Journal::default();
    let mut spans = Spans::new(o.trace);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < o.seconds {
        let mut order: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut order);
        let mut round = (0.0, 0.0, 0u64);
        for &i in &order {
            let (id, program) = &programs[i];
            let task = &tasks[i];
            // In a traced run each program runs twice: untraced, then with
            // the journal on, so the pair gives the tracing overhead.
            for traced in [false, true].into_iter().take(if o.trace { 2 } else { 1 }) {
                let mut engine = spans.time("Task::engine", || task.engine(&corpus));
                engine.limits.threads = threads;
                if traced {
                    engine.tracer.enable();
                }
                spans.begin("Engine::run");
                let t0 = Instant::now();
                let out = engine.run(program);
                let dt = t0.elapsed().as_secs_f64();
                spans.end();
                let name = id.name();
                let verdict = match &out {
                    Err(e) => Err(format!("{name}: run failed: {e}")),
                    Ok(_) if engine.stats.degraded() => Err(format!(
                        "{name}: {} rules degraded",
                        engine.stats.degradations.len()
                    )),
                    // A result identical to one already scored needs no
                    // second scoring.
                    Ok(t) => match (table_digest(t), digests.get(name)) {
                        (d, Some(&prev)) if d != prev => {
                            Err(format!("{name}: result digest {d:016x} != {prev:016x}"))
                        }
                        (_, Some(_)) => Ok(()),
                        (d, None) => check_superset(task, t, engine.store()).map(|()| {
                            digests.insert(name, d);
                        }),
                    },
                };
                rep.check(verdict.is_ok(), || verdict.clone().unwrap_err());
                if traced {
                    traced_s += dt;
                    tally.add_run(&engine.stats, &engine);
                    tally.add_engine(&engine);
                    *tally.run_s.entry(name).or_default() += dt;
                    journal.absorb(&engine.tracer.events(), engine.tracer.dropped());
                } else {
                    untraced_s += dt;
                    run_s[i].push(dt);
                    round.0 += dt;
                    round.1 = f64::max(round.1, dt);
                    round.2 += engine.stats.tuples_scanned as u64;
                }
            }
        }
        rounds.push(round);
    }
    // The peak includes the loop's checks: each program's first result is
    // scored against ground truth while the run holds it.
    let peak = peak_rss_mb();
    for (name, d) in &digests {
        rep.sections
            .push(format!("  result digest {name}: {d:016x}"));
    }
    if !o.trace {
        let n: usize = run_s.iter().map(Vec::len).sum();
        let per_round =
            |f: fn(&(f64, f64, u64)) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        // The runs are five fixed programs whose times lie far apart, so a
        // percentile pooled over them is the time of whichever program the
        // run count puts at that rank, and a few runs more or less move it
        // to another program. The p50 is the middle program's median over
        // rounds; the tail is each round's slowest run, median over rounds.
        let program_ms: Vec<f64> = run_s.iter().map(|v| median(v) * 1e3).collect();
        let scanned: u64 = rounds.iter().map(|r| r.2).sum();
        rep.put(
            "setup_s",
            setup_s,
            "s",
            format!("fastest of {} set-ups", crate::common::SETUP_REPS),
        );
        rep.put(
            "session_s",
            per_round(|r| r.0),
            "s",
            format!(
                "median over {} rounds of summed cold Engine::run",
                rounds.len()
            ),
        );
        rep.put(
            "wait_p50_ms",
            median(&program_ms),
            "ms",
            format!(
                "cold Engine::run: middle of the {} programs' medians over rounds (n={n})",
                program_ms.len()
            ),
        );
        rep.put(
            "wait_tail_ms",
            per_round(|r| r.1) * 1e3,
            "ms",
            format!(
                "slowest run per round, median over {} rounds (n={n})",
                rounds.len()
            ),
        );
        rep.put(
            "throughput_per_s",
            per_round(|r| r.2 as f64 / r.0),
            "1/s",
            format!("extract_docs_per_s: tuples scanned per second of Engine::run, median over rounds ({scanned} in {untraced_s:.3} s)"),
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
    tally.put(&mut rep, &journal);
    rep.put(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "%",
        format!("traced {traced_s:.3}s vs untraced {untraced_s:.3}s, same programs"),
    );
    rep.sections
        .push(crate::timed::render_totals(&spans.totals()));
    rep.sections.push(format!(
        "  busiest features (verify calls): {}",
        tally.feature_summary()
    ));
    rep.sections.push(format!(
        "  reconciliation: Engine::run {traced_s:.4}s traced = rule self {:.4} + operator self {:.4} + run overhead {:.4}; journal dropped {}",
        journal.rule_self_s,
        journal.op_self_s.values().sum::<f64>(),
        traced_s - journal.rule_self_s - journal.op_self_s.values().sum::<f64>(),
        journal.dropped
    ));
    rep
}

/// Runs the workload.
pub fn run(o: &Opts) -> Report {
    run_programs(o, &PROGRAMS.map(|(id, _)| id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_assistant::Simulation;

    #[test]
    fn smoke_tiny_scale() {
        for trace in [false, true] {
            let o = Opts {
                seed: 5,
                seconds: 0.01,
                trace,
                scale: 0.05,
            };
            let rep = run_programs(&o, &[TaskId::T5, TaskId::Chair]);
            assert_eq!(rep.failed, 0, "{:?}", rep.failures);
            assert!(rep.attempted >= 2);
            let key = if trace {
                "engine.tuples_scanned"
            } else {
                "throughput_per_s"
            };
            assert!(rep.get(key).unwrap() > 0.0);
        }
    }

    /// Regenerates `programs/*.alog`: converges a Simulation session per
    /// task at scale 1 and prints the final program. Run with
    /// `cargo test --release -- --ignored --nocapture converged_programs`.
    #[test]
    #[ignore]
    fn converged_programs() {
        let corpus = iflex_corpus::Corpus::build(iflex_corpus::CorpusConfig::scaled(1.0));
        for (id, _) in PROGRAMS {
            let task = corpus.task(id, None);
            let mut s = iflex::Session::new(
                task.engine(&corpus),
                task.program.clone(),
                Box::new(Simulation::default()),
                Box::new(iflex::SimulatedDeveloper::new(task.oracle.clone())),
            );
            let out = s.run().expect("session runs");
            println!(
                "== {} ({:?}, full run within budget: {})",
                id.name(),
                out.stop,
                out.full_run_within_budget
            );
            println!("{}", s.program());
        }
    }
}
