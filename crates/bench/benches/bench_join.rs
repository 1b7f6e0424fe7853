//! Micro-bench: the approximate similarity join (§4.1) — the token-
//! prefilter path vs generic pairwise evaluation, across cell refinement
//! states (exact singletons vs contain regions).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use std::sync::Arc;

fn engines(n: usize) -> (Corpus, iflex_corpus::Task) {
    let corpus = Corpus::build(CorpusConfig::tiny());
    let task = corpus.task(TaskId::T6, Some(n));
    (corpus, task)
}

fn bench_similarity_join_states(c: &mut Criterion) {
    let mut g = c.benchmark_group("join/similarity");
    g.sample_size(20);
    let (corpus, task) = engines(40);

    // unrefined: contain cells → inverted-index join, maybe pairs
    g.bench_function(BenchmarkId::new("unrefined_prefilter", 40), |b| {
        let mut eng = task.engine(&corpus);
        b.iter(|| black_box(eng.run(&task.program).unwrap().len()))
    });

    // refined: exact singleton cells → exact approx_match per pair
    let refined = iflex::alog::parse_program(
        r#"
        t6(title1) :- sigmod(x), extractSIGMOD(#x, title1, authors1),
                      icde(y), extractICDE(#y, title2, authors2),
                      similar(#authors1, #authors2).
        extractSIGMOD(#x, t, a) :- from(#x, t), from(#x, a),
            bold-font(t) = distinct-yes, italic-font(a) = distinct-yes.
        extractICDE(#y, t, a) :- from(#y, t), from(#y, a),
            bold-font(t) = distinct-yes, italic-font(a) = distinct-yes.
    "#,
    )
    .unwrap();
    g.bench_function(BenchmarkId::new("refined_exact", 40), |b| {
        let mut eng = task.engine(&corpus);
        b.iter(|| black_box(eng.run(&refined).unwrap().len()))
    });
    g.finish();
}

fn bench_cross_join_with_compare(c: &mut Criterion) {
    // fused selection over cross join (never materializes the product)
    let mut store = DocumentStore::new();
    let mut ids_a = Vec::new();
    let mut ids_b = Vec::new();
    for i in 0..60 {
        ids_a.push(store.add_plain(format!("a {} x", i)));
        ids_b.push(store.add_plain(format!("b {} y", i * 2)));
    }
    let store = Arc::new(store);
    let mut eng = Engine::new(store);
    eng.add_doc_table("ta", &ids_a);
    eng.add_doc_table("tb", &ids_b);
    let prog = iflex::alog::parse_program(
        r#"
        q(u, v) :- ta(x), ea(#x, u), tb(y), eb(#y, v), u < v.
        ea(#x, u) :- from(#x, u), numeric(u) = yes.
        eb(#y, v) :- from(#y, v), numeric(v) = yes.
    "#,
    )
    .unwrap();
    c.bench_function("join/fused_compare_60x60", |b| {
        b.iter(|| black_box(eng.run(&prog).unwrap().len()))
    });
}

criterion_group!(benches, bench_similarity_join_states, bench_cross_join_with_compare);
criterion_main!(benches);
