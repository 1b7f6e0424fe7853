//! The iFlex benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <interactive|extract|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the workload's provenance, a table of every metric by name with
//! its unit, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). See `NOTES.md`
//! for what each workload and metric means.

mod common;
mod extract;
mod interactive;
mod layers;
mod service;
mod stats;
mod timed;

use common::{host_facts, Opts};

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "session_s",
    "wait_p50_ms",
    "wait_tail_ms",
    "throughput_per_s",
    "peak_rss_mb",
];

/// Operator kinds the per-layer breakdown reports self time for.
pub const OP_KINDS: [&str; 12] = [
    "scan_ext",
    "scan_rel",
    "from_extract",
    "constraint",
    "compare",
    "var_unify",
    "filter_proc",
    "generate_proc",
    "cross_join",
    "project",
    "annotate",
    "fused",
];

/// Features whose `Verify`/`Refine` calls are reported one by one: the
/// ones the workloads' programs and questions exercise most.
pub const TOP_FEATURES: [&str; 6] = [
    "person-name",
    "bold-font",
    "in-title",
    "underlined",
    "italic-font",
    "preceded-by",
];

/// Every per-layer metric name, in report order. A workload reports the
/// layers it exercises; the others read 0.
pub fn per_layer_names() -> Vec<String> {
    let mut v: Vec<String> = [
        "corpus.build_s",
        "session.iterations",
        "session.questions",
        "session.residual_s",
        "session.coverage_pct",
        "assistant.select_s",
        "assistant.select_p50_ms",
        "assistant.probes",
        "assistant.probe_s",
        "developer.answer_s",
        "engine.iter_run_s",
        "engine.final_run_s",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for t in ["T1", "T3", "T5", "T8", "Panel", "Chair"] {
        v.push(format!("engine.run_s.{t}"));
    }
    v.push("engine.tuples_scanned".into());
    v.push("engine.rule_self_s".into());
    for k in OP_KINDS {
        v.push(format!("engine.op_self_s.{k}"));
    }
    for n in [
        "memo.hits",
        "memo.misses",
        "memo.lookups",
        "memo.hit_ratio",
        "memo.entries",
        "incr.hits",
        "incr.misses",
        "incr.invalidations",
        "par.morsels",
        "par.steals",
        "par.dispense_us",
        "par.imbalance",
        "opt.pushdowns",
        "opt.reorders",
        "opt.join_flips",
        "opt.fused_nodes",
        "columnar.conversions",
        "features.verify_calls",
        "features.refine_calls",
    ] {
        v.push(n.into());
    }
    for f in TOP_FEATURES {
        v.push(format!("features.verify_calls.{f}"));
        v.push(format!("features.refine_calls.{f}"));
    }
    for n in [
        "service.create_p50_ms",
        "service.ask_p50_ms",
        "service.answer_p50_ms",
        "service.results_p50_ms",
        "service.close_p50_ms",
        "service.rejected",
        "service.watchdog_cancels",
        "service.publishes",
        "core.warm_entries",
        "protocol.decode_us",
        "json.render_us",
        "trace.overhead_pct",
    ] {
        v.push(n.into());
    }
    v
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <interactive|extract|service> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: 0.0,
    };
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => opts.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = val.parse().unwrap_or_else(|_| usage());
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    (workload.unwrap_or_else(|| usage()), opts)
}

fn main() {
    let (workload, mut opts) = parse_args();
    let mut report = match workload.as_str() {
        "interactive" => {
            opts.scale = interactive::SCALE;
            interactive::run(&opts)
        }
        "extract" => {
            opts.scale = extract::SCALE;
            extract::run(&opts)
        }
        "service" => {
            opts.scale = service::SCALE;
            service::run(&opts)
        }
        _ => usage(),
    };
    let names: Vec<String> = if opts.trace {
        let names = per_layer_names();
        for n in &names {
            if report.get(n).is_none() {
                report.put(n.clone(), 0.0, unit_of(n), "not exercised by this workload");
            }
        }
        names
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    println!("host: {}", host_facts());
    for s in &report.sections {
        println!("{s}");
    }
    println!(
        "checks: attempted {} failed {} fail_ratio {:.6}",
        report.attempted,
        report.failed,
        report.fail_ratio()
    );
    for f in &report.failures {
        println!("  failure: {f}");
    }
    println!(
        "metrics ({}):",
        if opts.trace {
            "per-layer, traced run"
        } else {
            "end-to-end, untraced run"
        }
    );
    print!("{}", report.table());
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    println!("{}", report.json_line(&refs));
}

/// The unit a per-layer metric is reported in, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_s") || name.contains("_s.") {
        "s"
    } else if name.ends_with("ratio") || name.ends_with("imbalance") {
        "ratio"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        all.extend(per_layer_names());
        let set: std::collections::BTreeSet<&String> = all.iter().collect();
        assert_eq!(set.len(), all.len(), "duplicate metric name");
        assert!(per_layer_names().len() <= 128);
        for n in &all {
            assert!(stats::valid_name(n), "{n}");
        }
    }

    #[test]
    fn units_follow_name_suffixes() {
        assert_eq!(unit_of("engine.run_s.T3"), "s");
        assert_eq!(unit_of("engine.op_self_s.fused"), "s");
        assert_eq!(unit_of("memo.hit_ratio"), "ratio");
        assert_eq!(unit_of("protocol.decode_us"), "us");
        assert_eq!(unit_of("trace.overhead_pct"), "%");
        assert_eq!(unit_of("service.ask_p50_ms"), "ms");
        assert_eq!(unit_of("features.verify_calls.bold-font"), "count");
    }

    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let text = include_str!("../../BENCHMARK.json");
        for n in END_TO_END {
            assert!(text.contains(&format!("\"name\": \"{n}\"")), "{n} missing");
        }
        for n in per_layer_names() {
            assert!(text.contains(&format!("\"name\": \"{n}\"")), "{n} missing");
        }
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + per_layer_names().len() + 3,
            "workloads + metrics"
        );
    }
}
