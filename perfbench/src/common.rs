//! What the workloads share: options, the seeded generator, the set-up
//! timer, the correctness check against ground truth and host facts.

use crate::stats::Report;
use iflex::ctable::CompactTable;
use iflex::score;
use iflex::text::DocumentStore;
use iflex_corpus::{Corpus, CorpusConfig, Task, TaskId};
use std::fmt::Write as _;
use std::time::Instant;

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Corpus scale factor (`CorpusConfig::scaled`).
    pub scale: f64,
}

/// Times set-up is repeated in a run; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 5;

/// A small seeded generator (SplitMix64): the benchmark's inputs depend
/// on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Builds the corpus [`SETUP_REPS`] times and hands each to `engines`
/// (the workload's engine or host construction), which returns its
/// result and the seconds it spent on benchmark-side preparation (task
/// ground truth) that set-up time must not include. Returns the last
/// corpus and result and the fastest set-up and corpus-build seconds:
/// host contention only ever slows a set-up down. Every set-up time goes
/// into `rep`'s printed sections.
pub fn timed_setup<E>(
    scale: f64,
    rep: &mut Report,
    mut engines: impl FnMut(&Corpus) -> (E, f64),
) -> (Corpus, E, f64, f64) {
    let mut total = Vec::new();
    let mut build = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous corpus first so the peak holds one corpus.
        drop(last.take());
        let t0 = Instant::now();
        let corpus = Corpus::build(CorpusConfig::scaled(scale));
        let built = t0.elapsed().as_secs_f64();
        let (e, excluded) = engines(&corpus);
        total.push(t0.elapsed().as_secs_f64() - excluded);
        build.push(built);
        last = Some((corpus, e));
    }
    let (corpus, e) = last.expect("at least one set-up");
    rep.sections.push(format!(
        "set-ups (s, corpus build + engines; setup_s is the fastest): {}",
        total
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    (
        corpus,
        e,
        crate::stats::min(&total),
        crate::stats::min(&build),
    )
}

/// Builds `ids` as tasks over the full tables, once, timing it so the
/// caller can exclude it from set-up time.
pub fn tasks_once(corpus: &Corpus, ids: &[TaskId], cache: &mut Option<Vec<Task>>) -> f64 {
    if cache.is_some() {
        return 0.0;
    }
    let t0 = Instant::now();
    *cache = Some(ids.iter().map(|&id| corpus.task(id, None)).collect());
    t0.elapsed().as_secs_f64()
}

/// Scores `table` against the task's ground truth: the §4 superset
/// contract demands recall 1.0. `Err` carries the reason.
pub fn check_superset(
    task: &Task,
    table: &CompactTable,
    store: &DocumentStore,
) -> Result<(), String> {
    let q = score(table, &task.truth_cols, &task.truth, store);
    if q.recall < 1.0 {
        return Err(format!(
            "{}: recall {:.4} < 1 ({} of {} true tuples)",
            task.id.name(),
            q.recall,
            (q.recall * q.correct_tuples as f64).round(),
            q.correct_tuples
        ));
    }
    Ok(())
}

/// A stable 64-bit FNV-1a digest, fed as text is formatted into it.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Digest of a result table's full `Display` form (every tuple with its
/// cells), streamed so the rendering is never held in memory.
pub fn table_digest(table: &CompactTable) -> u64 {
    let mut h = Fnv64::default();
    write!(h, "{table}").expect("digest writer never fails");
    h.0
}

/// The host's parallelism.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host facts printed with every run. `nproc` counts the CPUs this
/// process may run on; `available_parallelism` also honours a cgroup
/// CPU quota.
pub fn host_facts() -> String {
    let nproc = proc_status("Cpus_allowed_list:")
        .map(|list| cpu_count(&list))
        .unwrap_or(0);
    format!(
        "nproc {nproc} available_parallelism {} os {} arch {}",
        parallelism(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The value of field `key` in this process's `/proc/self/status`.
fn proc_status(key: &str) -> Option<String> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// CPUs in a kernel CPU list such as `0-3,8,10-11`.
fn cpu_count(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| match part.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => part.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Hands heap memory freed so far back to the operating system, so work
/// that follows starts from the same resident set whatever ran before.
/// Without it, memory a dropped host freed on one thread's allocator
/// arena stays resident while the next host allocates on another, and
/// `VmHWM` grows by a random share of the earlier hosts.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free pages; it takes
        // the allocator's own locks and touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Seconds to milliseconds.
pub fn ms(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|s| s * 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..4).map(|_| r.next()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut s = v.clone();
        s.sort();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
        assert_ne!(v, s);
    }

    #[test]
    fn cpu_lists_are_counted() {
        assert_eq!(cpu_count("0"), 1);
        assert_eq!(cpu_count("0-1"), 2);
        assert_eq!(cpu_count("0-3,8,10-11"), 7);
        assert_eq!(cpu_count(""), 0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        use std::fmt::Write as _;
        let digest = |s: &str| {
            let mut h = Fnv64::default();
            h.write_str(s).unwrap();
            h.0
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
