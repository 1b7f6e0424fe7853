//! Per-layer counters read from what the program already exposes:
//! `ExecStats`, the engine metrics registry, the feature memo and the
//! columnar share, plus the engine journal read back by [`Journal`].

use crate::stats::Report;
use crate::timed::Journal;
use crate::{OP_KINDS, TOP_FEATURES};
use iflex_engine::obs::metrics::names;
use iflex_engine::{Engine, ExecStats, FeatureMemo};
use std::collections::BTreeMap;

/// Engine-layer counters summed over the runs and engines of one run
/// of the benchmark.
#[derive(Debug, Default)]
pub struct EngineTally {
    /// Extensional tuples scanned.
    pub tuples_scanned: u64,
    incr_hits: u64,
    incr_misses: u64,
    incr_invalidations: u64,
    par_morsels: u64,
    par_steals: u64,
    par_dispense_us: u64,
    shard_busy_us: Vec<u64>,
    opt: [u64; 4],
    memo_hits: u64,
    memo_misses: u64,
    memo_entries: u64,
    columnar_conversions: u64,
    verify: BTreeMap<String, u64>,
    refine: BTreeMap<String, u64>,
    /// Engine seconds per task name.
    pub run_s: BTreeMap<&'static str, f64>,
}

impl EngineTally {
    /// Adds one run's statistics and optimizer counters (the registry
    /// describes the engine's most recent run).
    pub fn add_run(&mut self, stats: &ExecStats, engine: &Engine) {
        self.tuples_scanned += stats.tuples_scanned as u64;
        self.incr_hits += stats.incr_hits as u64;
        self.incr_misses += stats.incr_misses as u64;
        self.incr_invalidations += stats.incr_invalidations as u64;
        self.par_morsels += stats.par_morsels;
        self.par_steals += stats.par_steals;
        self.par_dispense_us += stats.par_dispense_us;
        if self.shard_busy_us.len() < stats.shard_busy_us.len() {
            self.shard_busy_us.resize(stats.shard_busy_us.len(), 0);
        }
        for (acc, us) in self.shard_busy_us.iter_mut().zip(&stats.shard_busy_us) {
            *acc += us;
        }
        let reg = &engine.metrics;
        let opt = [
            names::OPT_PUSHDOWNS,
            names::OPT_REORDERS,
            names::OPT_JOIN_FLIPS,
            names::OPT_FUSED_NODES,
        ];
        for (acc, name) in self.opt.iter_mut().zip(opt) {
            *acc += reg.counter_value(name).unwrap_or(0);
        }
    }

    /// Adds an engine's lifetime memo, columnar and feature counters;
    /// call once per engine, after its last run.
    pub fn add_engine(&mut self, engine: &Engine) {
        self.add_memo(engine.memo());
        self.columnar_conversions += engine.columnar_conversions() as u64;
    }

    /// Adds a feature memo's lifetime counters; call once per memo, after
    /// the last run that shares it.
    pub fn add_memo(&mut self, memo: &FeatureMemo) {
        self.memo_hits += memo.hits() as u64;
        self.memo_misses += memo.misses() as u64;
        self.memo_entries += memo.len() as u64;
        for (f, st) in memo.feature_stats() {
            *self.verify.entry(f.clone()).or_default() += st.verify_calls;
            *self.refine.entry(f).or_default() += st.refine_calls;
        }
    }

    /// Reports every engine-layer metric, journal figures included.
    pub fn put(&self, rep: &mut Report, journal: &Journal) {
        for (task, s) in &self.run_s {
            rep.put(
                format!("engine.run_s.{task}"),
                *s,
                "s",
                "Engine::run wall for this task's programs",
            );
        }
        rep.put(
            "engine.tuples_scanned",
            self.tuples_scanned as f64,
            "count",
            "ExecStats::tuples_scanned",
        );
        rep.put(
            "engine.rule_self_s",
            journal.rule_self_s,
            "s",
            "journal: rule spans minus operators",
        );
        for k in OP_KINDS {
            let v = journal.op_self_s.get(k).copied().unwrap_or(0.0);
            rep.put(
                format!("engine.op_self_s.{k}"),
                v,
                "s",
                "journal: operator self time",
            );
        }
        let lookups = self.memo_hits + self.memo_misses;
        rep.put(
            "memo.hits",
            self.memo_hits as f64,
            "count",
            "FeatureMemo::hits",
        );
        rep.put(
            "memo.misses",
            self.memo_misses as f64,
            "count",
            "FeatureMemo::misses",
        );
        rep.put(
            "memo.lookups",
            lookups as f64,
            "count",
            "hits + misses: the base of memo.hit_ratio",
        );
        rep.put(
            "memo.hit_ratio",
            ratio(self.memo_hits, lookups),
            "ratio",
            format!("{} / {}", self.memo_hits, lookups),
        );
        rep.put(
            "memo.entries",
            self.memo_entries as f64,
            "count",
            "FeatureMemo::len at engine end",
        );
        // The journal sees every run, simulation probes included; without
        // one, only the runs whose ExecStats the benchmark read count.
        let (hits, misses, src) = if journal.incr_hits + journal.incr_misses > 0 {
            (
                journal.incr_hits,
                journal.incr_misses,
                "journal: cache_hit marks / rule spans",
            )
        } else {
            (self.incr_hits, self.incr_misses, "ExecStats")
        };
        rep.put("incr.hits", hits as f64, "count", src);
        rep.put("incr.misses", misses as f64, "count", src);
        rep.put(
            "incr.invalidations",
            self.incr_invalidations as f64,
            "count",
            "ExecStats::incr_invalidations",
        );
        rep.put(
            "par.morsels",
            self.par_morsels as f64,
            "count",
            "ExecStats::par_morsels",
        );
        rep.put(
            "par.steals",
            self.par_steals as f64,
            "count",
            "ExecStats::par_steals",
        );
        rep.put(
            "par.dispense_us",
            self.par_dispense_us as f64,
            "us",
            "ExecStats::par_dispense_us",
        );
        let busy = &self.shard_busy_us;
        let imbalance = if busy.len() >= 2 && busy.iter().any(|&b| b > 0) {
            let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
            *busy.iter().max().expect("non-empty") as f64 / mean
        } else {
            0.0
        };
        rep.put(
            "par.imbalance",
            imbalance,
            "ratio",
            format!("max/mean of shard_busy_us {busy:?}"),
        );
        for (name, v) in [
            "opt.pushdowns",
            "opt.reorders",
            "opt.join_flips",
            "opt.fused_nodes",
        ]
        .iter()
        .zip(self.opt)
        {
            rep.put(*name, v as f64, "count", "engine registry, per run");
        }
        rep.put(
            "columnar.conversions",
            self.columnar_conversions as f64,
            "count",
            "Engine::columnar_conversions",
        );
        let total = |m: &BTreeMap<String, u64>| m.values().sum::<u64>() as f64;
        rep.put(
            "features.verify_calls",
            total(&self.verify),
            "count",
            "FeatureMemo::feature_stats",
        );
        rep.put(
            "features.refine_calls",
            total(&self.refine),
            "count",
            "FeatureMemo::feature_stats",
        );
        for f in TOP_FEATURES {
            let v = self.verify.get(f).copied().unwrap_or(0) as f64;
            rep.put(format!("features.verify_calls.{f}"), v, "count", "");
            let r = self.refine.get(f).copied().unwrap_or(0) as f64;
            rep.put(format!("features.refine_calls.{f}"), r, "count", "");
        }
    }

    /// A one-line digest of the busiest features, for the report.
    pub fn feature_summary(&self) -> String {
        let mut v: Vec<(&String, &u64)> = self.verify.iter().collect();
        v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        v.iter()
            .take(8)
            .map(|(f, n)| format!("{f}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
