//! Differential property tests of the inverted-index similarity join
//! (`similar` / `approxMatch` over a cross join, DESIGN.md "Approximate
//! string join"). A nested-loop reference kept in this file decides every
//! (left, right) pair from the reference semantics in `similarity.rs`:
//! singleton × singleton pairs by pairwise `containment ≥ 0.8` (and are
//! then certain), every other pair by "shares a normalized token" (and
//! is then `maybe`). The engine must produce exactly the reference rows,
//! in (left, right) order, with the same `maybe` flags — for either
//! argument order, at one and four worker threads, under several morsel
//! bounds, with the optimizer and the columnar core on or off.

use iflex_alog::{parse_program, Program};
use iflex_ctable::{Assignment, Cell, CompactTable, CompactTuple, Value};
use iflex_engine::similarity::{containment, norm_tokens};
use iflex_engine::{fault, DegradeCause, Engine, Fault, RunBudget, Trigger};
use iflex_text::DocumentStore;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Text pieces: repeated words, mixed case, numbers, punctuation-only
/// pieces and the empty string.
const PIECES: &[&str] = &[
    "alpha", "Alpha", "beta", "gamma", "HS", "x1", "alpha,", "!", "?!", "",
];

/// One assignment: 0 = `exact` string constant, 1 = `exact` document
/// span, 2 = `contain` document span; plus the indices of its text
/// pieces.
type AssignSpec = (u8, Vec<usize>);
/// One row: its cell's assignments and its `maybe` flag.
type RowSpec = (Vec<AssignSpec>, bool);

fn side() -> impl Strategy<Value = Vec<RowSpec>> {
    let text = proptest::collection::vec(0usize..PIECES.len(), 0..4);
    let cell = proptest::collection::vec((0u8..3, text), 1..3);
    proptest::collection::vec((cell, any::<bool>()), 0..10)
}

fn text_of(pieces: &[usize]) -> String {
    pieces
        .iter()
        .map(|&i| PIECES[i])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Builds a two-column table `(id, text-cell)` (or `(text-cell, id)` with
/// `text_first`), adding the span-backed texts to `store`.
fn table(
    store: &mut DocumentStore,
    rows: &[RowSpec],
    cols: [&str; 2],
    text_first: bool,
) -> CompactTable {
    let mut t = CompactTable::new(cols.iter().map(|c| c.to_string()).collect());
    for (i, (assigns, maybe)) in rows.iter().enumerate() {
        let cell = Cell::of(
            assigns
                .iter()
                .map(|(kind, pieces)| {
                    let text = text_of(pieces);
                    match kind {
                        0 => Assignment::Exact(Value::Str(text)),
                        k => {
                            let d = store.add_plain(text);
                            let span = store.doc(d).full_span();
                            if *k == 1 {
                                Assignment::exact_span(span)
                            } else {
                                Assignment::Contain(span)
                            }
                        }
                    }
                })
                .collect(),
        );
        let id = Cell::exact(Value::Num(i as f64));
        let cells = if text_first {
            vec![cell, id]
        } else {
            vec![id, cell]
        };
        t.push(CompactTuple {
            cells,
            maybe: *maybe,
        });
    }
    t
}

/// The union of normalized tokens over a cell's assignments.
fn cell_tokens(cell: &Cell, store: &DocumentStore) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for a in cell.assignments() {
        let text = match a {
            Assignment::Exact(v) => v.as_text(store).into_owned(),
            Assignment::Contain(s) => store.span_text(s).to_string(),
        };
        out.extend(norm_tokens(&text));
    }
    out
}

/// One reference decision: `None` when the pair is dropped, otherwise
/// whether the match is certain.
fn reference_pair(a: &Cell, b: &Cell, store: &DocumentStore) -> Option<bool> {
    match (a.singleton(store), b.singleton(store)) {
        (Some(x), Some(y)) => {
            (containment(&x.as_text(store), &y.as_text(store)) >= 0.8).then_some(true)
        }
        _ => shares_token(a, b, store).then_some(false),
    }
}

/// Does the pair share a token, i.e. is it an index candidate at all?
fn shares_token(a: &Cell, b: &Cell, store: &DocumentStore) -> bool {
    !cell_tokens(a, store).is_disjoint(&cell_tokens(b, store))
}

/// The nested-loop reference join of `l.text ~ r.text`, rows in
/// (left, right) order.
fn reference(l: &CompactTable, r: &CompactTable, store: &DocumentStore) -> Vec<CompactTuple> {
    let mut out = Vec::new();
    for lt in l.tuples() {
        for rt in r.tuples() {
            if let Some(certain) = reference_pair(&lt.cells[1], &rt.cells[0], store) {
                let mut cells = lt.cells.clone();
                cells.extend(rt.cells.iter().cloned());
                out.push(CompactTuple {
                    cells,
                    maybe: lt.maybe || rt.maybe || !certain,
                });
            }
        }
    }
    out
}

/// `l(k, a)` joined with `r(b, m)` on `a ~ b`, spelled with the given
/// predicate name and argument order.
fn program(name: &str, swapped: bool) -> Program {
    let args = if swapped { "#b, #a" } else { "#a, #b" };
    parse_program(&format!(
        "q(k, a, b, m) :- l(k, a), r(b, m), {name}({args})."
    ))
    .unwrap()
}

struct Fixture {
    store: Arc<DocumentStore>,
    l: CompactTable,
    r: CompactTable,
}

fn fixture(ls: &[RowSpec], rs: &[RowSpec]) -> Fixture {
    let mut store = DocumentStore::new();
    let l = table(&mut store, ls, ["k", "a"], false);
    let r = table(&mut store, rs, ["b", "m"], true);
    Fixture {
        store: Arc::new(store),
        l,
        r,
    }
}

impl Fixture {
    fn engine(&self, threads: usize, morsel: (usize, usize)) -> Engine {
        let mut eng = Engine::new(Arc::clone(&self.store));
        eng.add_table("l", self.l.clone());
        eng.add_table("r", self.r.clone());
        eng.limits.threads = threads;
        eng.limits.morsel_tuples = morsel;
        eng
    }
}

/// A run's result rendering plus its degradation records, in order.
fn observe(eng: &mut Engine, prog: &Program) -> (String, Vec<String>) {
    let table = eng.run(prog).unwrap();
    let degraded = eng
        .stats
        .degradations
        .iter()
        .map(|d| d.to_string())
        .collect();
    (format!("{table:?}"), degraded)
}

const MORSELS: &[(usize, usize)] = &[(1, 1), (1, 3), (2, 64), (64, 4096)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's rows, their order and their `maybe` flags equal the
    /// nested-loop reference for both predicate names and argument orders,
    /// at every thread count, morsel bound and ablation arm.
    #[test]
    fn indexed_join_matches_nested_loop_reference(
        ls in side(),
        rs in side(),
        morsel_idx in 0usize..4,
        use_optimizer in any::<bool>(),
        use_columnar in any::<bool>(),
    ) {
        let fx = fixture(&ls, &rs);
        let expected = reference(&fx.l, &fx.r, &fx.store);
        let mut first: Option<String> = None;
        for name in ["similar", "approxMatch"] {
            for swapped in [false, true] {
                for threads in [1usize, 4] {
                    let mut eng = fx.engine(threads, MORSELS[morsel_idx]);
                    eng.limits.use_optimizer = use_optimizer;
                    eng.limits.use_columnar = use_columnar;
                    let got = eng.run(&program(name, swapped)).unwrap();
                    prop_assert!(!eng.stats.degraded());
                    prop_assert_eq!(got.tuples(), expected.as_slice());
                    // Byte identity of the whole table across arms.
                    let rendered = format!("{got:?}");
                    match &first {
                        None => first = Some(rendered),
                        Some(f) => prop_assert_eq!(f, &rendered),
                    }
                }
            }
        }
    }

    /// `max_result_tuples` caps the join: the rule degrades for `Budget`
    /// exactly when the reference has more rows than the cap, and the
    /// outcome is byte-identical across thread counts and morsel bounds.
    #[test]
    fn result_cap_degrades_identically(
        ls in side(),
        rs in side(),
        cap in 0usize..12,
        morsel_idx in 0usize..4,
    ) {
        let fx = fixture(&ls, &rs);
        let over = reference(&fx.l, &fx.r, &fx.store).len() > cap;
        let prog = program("similar", false);
        let run = |threads: usize| {
            let mut eng = fx.engine(threads, MORSELS[morsel_idx]);
            eng.limits.max_result_tuples = cap;
            let obs = observe(&mut eng, &prog);
            (obs, eng.stats.degraded_by(DegradeCause::Budget))
        };
        let (serial, serial_over) = run(1);
        let (parallel, parallel_over) = run(4);
        prop_assert_eq!(serial_over, over);
        prop_assert_eq!(parallel_over, over);
        prop_assert_eq!(serial, parallel);
    }

    /// An always-armed fault at the join-tuple site fires iff the index
    /// yields at least one candidate pair (one sharing a token), and the
    /// degraded run is byte-identical across thread counts.
    #[test]
    fn join_tuple_fault_degrades_identically(
        ls in side(),
        rs in side(),
        morsel_idx in 0usize..4,
        panic_not_budget in any::<bool>(),
    ) {
        let fx = fixture(&ls, &rs);
        let candidates = fx.l.tuples().iter().any(|lt| {
            fx.r.tuples()
                .iter()
                .any(|rt| shares_token(&lt.cells[1], &rt.cells[0], &fx.store))
        });
        let prog = program("similar", false);
        let run = |threads: usize| {
            let mut eng = fx.engine(threads, MORSELS[morsel_idx]);
            let f = if panic_not_budget {
                Fault::Panic("prop-simjoin".into())
            } else {
                Fault::TooLarge
            };
            eng.fault.arm(fault::site::JOIN_TUPLE, Trigger::Always, f, 5);
            observe(&mut eng, &prog)
        };
        let serial = run(1);
        prop_assert_eq!(!serial.1.is_empty(), candidates);
        prop_assert_eq!(serial, run(4));
    }
}

/// Both argument orders take the indexed join and give byte-identical
/// tables. The pair below shares a token ("alpha") although no pair of
/// its values reaches 0.8 containment: the index keeps it as a `maybe`
/// row, exactly as the reference does, whichever side is named first.
#[test]
fn argument_orders_are_byte_identical() {
    let idx = |w: &str| PIECES.iter().position(|p| *p == w).unwrap();
    let l: Vec<RowSpec> = vec![(
        vec![(0, vec![idx("alpha"), idx("beta")]), (0, vec![idx("HS")])],
        false,
    )];
    let r: Vec<RowSpec> = vec![(
        vec![(0, vec![idx("alpha"), idx("gamma")]), (0, vec![idx("x1")])],
        false,
    )];
    let fx = fixture(&l, &r);
    let expected = reference(&fx.l, &fx.r, &fx.store);
    assert_eq!(expected.len(), 1);
    assert!(expected[0].maybe);
    for use_optimizer in [true, false] {
        let run = |swapped: bool| {
            let mut eng = fx.engine(1, (64, 4096));
            eng.limits.use_optimizer = use_optimizer;
            let t = eng.run(&program("similar", swapped)).unwrap();
            assert_eq!(t.tuples(), expected.as_slice(), "swapped={swapped}");
            format!("{t:?}")
        };
        assert_eq!(run(false), run(true), "optimizer={use_optimizer}");
    }
}

/// A join whose index yields no candidate still sees its deadline: the
/// run clock ticks once per outer row, not only per candidate. A 0 ms
/// budget expires before the join starts. With 100 ms, a generator
/// stalls past the deadline without reading the clock, then feeds 1100
/// outer rows whose tokens never occur on the right, so only the join's
/// per-row ticks can reach a clock read.
#[test]
fn deadline_degrades_join_without_candidates() {
    let fx = fixture(
        &[(vec![(0, vec![2])], false)],
        &[(vec![(0, vec![3])], false)],
    );
    let prog =
        parse_program("q(v, b) :- l(k, a), stall(#a, v), r(b, m), similar(#v, #b).").unwrap();
    for deadline_ms in [0, 100] {
        for threads in [1usize, 4] {
            let mut eng = fx.engine(threads, (1, 64));
            eng.procs_mut().register_generator("stall", 1, |_, _| {
                std::thread::sleep(Duration::from_millis(300));
                (0..1100)
                    .map(|i| vec![Value::Str(format!("w{i}"))])
                    .collect()
            });
            eng.budget = RunBudget::with_deadline(Duration::from_millis(deadline_ms));
            let result = eng.run(&prog).unwrap();
            assert!(
                eng.stats.degraded_by(DegradeCause::Deadline),
                "deadline={deadline_ms}ms threads={threads}: {:?}",
                eng.stats.degradations
            );
            assert!(result.tuples().iter().all(|t| t.maybe));
        }
    }
}
