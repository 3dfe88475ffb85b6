//! Differential tests: the planned, trail-based matcher
//! ([`eqsql_cq::ArenaPlan`]) against the naive backtracking oracle
//! ([`eqsql_cq::matcher::reference`]).
//!
//! Three contracts, each over randomized conjunctions:
//!
//! 1. **Hom sets agree modulo order** — plan-ordered trail search
//!    (reference-order, selectivity-optimized and stats-ordered plans
//!    alike) enumerates exactly the homomorphism set the naive
//!    backtracker does, seeds included.
//! 2. **First match agrees exactly** — wherever the engine requires the
//!    reference emission order (reference-order plans), the first
//!    homomorphism is bit-identical to the oracle's, with and without
//!    filter predicates.
//! 3. **Delta search ≡ post-filter** — delta-constrained search emits
//!    precisely the homomorphisms of the unconstrained set that can map
//!    some source atom onto a delta target atom.
//!
//! Plus the bijection search behind `find_isomorphism`: constructed
//! renamings must be found (and verified to carry q1 onto q2), mutations
//! must be rejected.

use eqsql_cq::matcher::reference;
use eqsql_cq::{
    find_isomorphism, ArenaDelta, ArenaFrame, ArenaPlan, Atom, CqQuery, Subst, Term, TermArena,
    TermId, Var,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const PREDS: &[(&str, usize)] = &[("p", 2), ("r", 1), ("s", 2), ("t", 3)];
const VARS: &[&str] = &["X", "Y", "Z", "U", "V", "W"];

fn random_term(rng: &mut StdRng, const_prob: f64) -> Term {
    if rng.gen_bool(const_prob) {
        Term::int(rng.gen_range(0..3i64))
    } else {
        Term::var(VARS[rng.gen_range(0..VARS.len())])
    }
}

fn random_conjunction(rng: &mut StdRng, atoms: usize, const_prob: f64) -> Vec<Atom> {
    (0..atoms)
        .map(|_| {
            let (name, arity) = PREDS[rng.gen_range(0..PREDS.len())];
            Atom::new(name, (0..arity).map(|_| random_term(rng, const_prob)).collect())
        })
        .collect()
}

/// Ground-ish target: constants only, small domain, so hom sets are
/// non-trivial but bounded.
fn random_target(rng: &mut StdRng, atoms: usize) -> Vec<Atom> {
    (0..atoms)
        .map(|_| {
            let (name, arity) = PREDS[rng.gen_range(0..PREDS.len())];
            Atom::new(name, (0..arity).map(|_| Term::int(rng.gen_range(0..4i64))).collect())
        })
        .collect()
}

fn random_seed(rng: &mut StdRng) -> Subst {
    let mut s = Subst::new();
    if rng.gen_bool(0.4) {
        s.set(Var::new(VARS[rng.gen_range(0..VARS.len())]), Term::int(rng.gen_range(0..4i64)));
    }
    if rng.gen_bool(0.2) {
        // An out-of-plan binding that must ride through to the output.
        s.set(Var::new("Q_out_of_plan"), Term::int(77));
    }
    s
}

fn hom_set(homs: &[Subst]) -> HashSet<Vec<(Var, Term)>> {
    homs.iter().map(Subst::sorted_pairs).collect()
}

/// `dst` loaded into a fresh arena, plus each target atom's `(table,
/// row)` — rows land in slice order per table.
fn load(dst: &[Atom]) -> (TermArena, Vec<(u32, u32)>) {
    let mut arena = TermArena::new();
    arena.push_atoms(dst);
    let mut next: HashMap<u32, u32> = HashMap::new();
    let rows = dst
        .iter()
        .map(|a| {
            let t = arena.lookup_table(&a.key()).expect("loaded");
            let r = next.entry(t).or_default();
            *r += 1;
            (t, *r - 1)
        })
        .collect();
    (arena, rows)
}

/// A frame for `plan` with `seed`'s in-plan bindings planted.
fn seeded_frame(plan: &ArenaPlan, arena: &mut TermArena, seed: &Subst) -> ArenaFrame {
    let mut frame = ArenaFrame::for_plan(plan);
    frame.seed_subst(plan, arena, seed);
    frame
}

/// A match as the oracle reports it: the seed (out-of-plan bindings
/// included) extended by the slot bindings.
fn to_subst(plan: &ArenaPlan, arena: &TermArena, seed: &Subst, slots: &[TermId]) -> Subst {
    let mut h = seed.clone();
    plan.bind_subst(arena, slots, &mut h);
    h
}

/// Every distinct match of `plan` extending `seed`, in emission order.
fn search_all(plan: &ArenaPlan, arena: &mut TermArena, seed: &Subst) -> Vec<Subst> {
    let mut frame = seeded_frame(plan, arena, seed);
    let mut out = Vec::new();
    let mut seen: HashSet<Vec<(Var, Term)>> = HashSet::new();
    plan.search(arena, &mut frame, &mut |slots| {
        let h = to_subst(plan, arena, seed, slots);
        if seen.insert(h.sorted_pairs()) {
            out.push(h);
        }
        true
    });
    out
}

/// The first match of `plan` extending `seed` that satisfies `pred`.
fn first_where(
    plan: &ArenaPlan,
    arena: &mut TermArena,
    seed: &Subst,
    pred: &dyn Fn(&Subst) -> bool,
) -> Option<Subst> {
    let mut frame = seeded_frame(plan, arena, seed);
    let mut found = None;
    plan.search(arena, &mut frame, &mut |slots| {
        let h = to_subst(plan, arena, seed, slots);
        if pred(&h) {
            found = Some(h);
            false
        } else {
            true
        }
    });
    found
}

#[test]
fn hom_sets_agree_modulo_order() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for round in 0..300 {
        let n_src = rng.gen_range(1..=4);
        let src = random_conjunction(&mut rng, n_src, 0.15);
        let n_dst = rng.gen_range(1..=8);
        let dst = random_target(&mut rng, n_dst);
        let seed = random_seed(&mut rng);
        let (oracle, truncated) = reference::enumerate_homomorphisms(&src, &dst, &seed, 1_000_000);
        assert!(!truncated, "round {round}: oracle truncated");
        let oracle_set = hom_set(&oracle);
        let (mut arena, _) = load(&dst);
        let plan = ArenaPlan::new(&src, &mut arena);
        let by_ref_order = search_all(&plan, &mut arena, &seed);
        assert_eq!(
            hom_set(&by_ref_order),
            oracle_set,
            "round {round}: reference-order plan diverged"
        );
        let seeded: Vec<Var> = seed.iter().map(|(v, _)| v).collect();
        let plan = ArenaPlan::optimized(&src, &seeded, &mut arena);
        let by_optimized = search_all(&plan, &mut arena, &seed);
        assert_eq!(hom_set(&by_optimized), oracle_set, "round {round}: optimized plan diverged");
        let plan = ArenaPlan::optimized_with_stats(&src, &seeded, &mut arena);
        let by_stats = search_all(&plan, &mut arena, &seed);
        assert_eq!(hom_set(&by_stats), oracle_set, "round {round}: stats-ordered plan diverged");
    }
}

#[test]
fn first_match_is_identical_in_reference_order() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for round in 0..300 {
        let n_src = rng.gen_range(1..=4);
        let src = random_conjunction(&mut rng, n_src, 0.15);
        let n_dst = rng.gen_range(1..=8);
        let dst = random_target(&mut rng, n_dst);
        let seed = random_seed(&mut rng);
        let (mut arena, _) = load(&dst);
        let plan = ArenaPlan::new(&src, &mut arena);
        let planned = first_where(&plan, &mut arena, &seed, &|_| true);
        let oracle = reference::extend_homomorphism(&src, &dst, &seed);
        assert_eq!(planned, oracle, "round {round}: first match diverged");

        // With a filter predicate (the engine's applicability pruning):
        // accept only homs whose X-image is even.
        let pred = |h: &Subst| match h.get(Var::new("X")) {
            Some(Term::Const(eqsql_cq::Value::Int(i))) => i % 2 == 0,
            _ => true,
        };
        let planned_where = first_where(&plan, &mut arena, &seed, &pred);
        let oracle_where = reference::find_homomorphism_where(&src, &dst, &seed, &mut |h| pred(h));
        assert_eq!(planned_where, oracle_where, "round {round}: filtered first match diverged");
    }
}

/// Can `h` map some source atom onto a delta target atom? The post-filter
/// formulation of the delta constraint.
fn touches_delta(h: &Subst, src: &[Atom], dst: &[Atom], delta_slots: &[usize]) -> bool {
    src.iter().any(|a| {
        let image = h.apply_atom(a);
        delta_slots.iter().any(|&j| dst[j] == image)
    })
}

#[test]
fn delta_search_equals_post_filtering() {
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    for round in 0..300 {
        let n_src = rng.gen_range(1..=3);
        let src = random_conjunction(&mut rng, n_src, 0.1);
        let n_dst = rng.gen_range(2..=8);
        let dst = random_target(&mut rng, n_dst);
        // A random subset of target atoms is the delta.
        let delta_slots: Vec<usize> = (0..dst.len()).filter(|_| rng.gen_bool(0.35)).collect();
        let (mut arena, rows) = load(&dst);
        let mut delta = ArenaDelta::new();
        for &j in &delta_slots {
            delta.push(rows[j].0, rows[j].1);
        }
        let plan = ArenaPlan::new(&src, &mut arena);
        let mut frame = ArenaFrame::for_plan(&plan);
        let mut constrained: HashSet<Vec<(Var, Term)>> = HashSet::new();
        plan.search_delta(&arena, &delta, &mut frame, &mut |slots| {
            constrained.insert(to_subst(&plan, &arena, &Subst::new(), slots).sorted_pairs());
            true
        });
        let (all, _) = reference::enumerate_homomorphisms(&src, &dst, &Subst::new(), 1_000_000);
        let filtered: HashSet<Vec<(Var, Term)>> = all
            .iter()
            .filter(|h| touches_delta(h, &src, &dst, &delta_slots))
            .map(Subst::sorted_pairs)
            .collect();
        assert_eq!(
            constrained, filtered,
            "round {round}: delta-constrained search ≠ post-filtered set (delta {delta_slots:?})"
        );
    }
}

/// The oracle's containment mapping: the reference backtracker's first
/// homomorphism extending the head pairing.
fn oracle_mapping(from: &CqQuery, to: &CqQuery) -> Option<Subst> {
    let mut seed = Subst::new();
    for (f, t) in from.head.iter().zip(to.head.iter()) {
        match f {
            Term::Var(v) if seed.bind(*v, *t) => {}
            Term::Const(_) if f == t => {}
            _ => return None,
        }
    }
    reference::extend_homomorphism(&from.body, &to.body, &seed)
}

/// Up to two head terms drawn from `body`'s terms (variables mostly).
fn random_head(rng: &mut StdRng, body: &[Atom], len: usize) -> Vec<Term> {
    let terms: Vec<Term> = body.iter().flat_map(|a| a.args.iter().copied()).collect();
    (0..len)
        .map(|_| if terms.is_empty() { Term::int(0) } else { terms[rng.gen_range(0..terms.len())] })
        .collect()
}

/// The one-shot callers that load boxed bodies into the per-thread
/// scratch arena — here `containment_mapping` — return exactly the
/// oracle's first witness, call after call on one reused arena.
#[test]
fn containment_mappings_agree_with_reference() {
    let mut rng = StdRng::seed_from_u64(0xC0417);
    let mut found = 0;
    for round in 0..300 {
        let n_from = rng.gen_range(1..=4);
        let from_body = random_conjunction(&mut rng, n_from, 0.15);
        let n_to = rng.gen_range(1..=8);
        let to_body = random_conjunction(&mut rng, n_to, 0.3);
        let len = rng.gen_range(0..=2);
        let from = CqQuery::new("q", random_head(&mut rng, &from_body, len), from_body);
        let to = CqQuery::new("q", random_head(&mut rng, &to_body, len), to_body);
        let planned = eqsql_cq::containment_mapping(&from, &to);
        assert_eq!(planned, oracle_mapping(&from, &to), "round {round}: {from} -> {to}");
        if let Some(h) = &planned {
            assert!(eqsql_cq::is_containment_mapping(&from, &to, h), "round {round}");
            found += 1;
        }
    }
    assert!(found > 10, "too few positive draws ({found}) to exercise witnesses");
}

/// Bag-containment witnesses on the scratch arena: a multiset-onto
/// containment mapping is found exactly when the oracle's enumeration
/// holds one, and every witness found replays.
#[test]
fn onto_containment_mappings_agree_with_reference() {
    use eqsql_core::bag_containment::{is_multiset_onto_mapping, onto_containment_mapping};
    let mut rng = StdRng::seed_from_u64(0x0470);
    let mut found = 0;
    for round in 0..300 {
        let n1 = rng.gen_range(1..=3);
        let q1_body = random_conjunction(&mut rng, n1, 0.1);
        let len = rng.gen_range(0..=1);
        let q1 = CqQuery::new("q", random_head(&mut rng, &q1_body, len), q1_body);
        let q2 = if rng.gen_bool(0.5) {
            // A renamed copy of q1, sometimes padded with an extra
            // subgoal: covering mappings exist, or nearly do.
            let ren =
                Subst::from_pairs(VARS.iter().map(|v| (Var::new(v), Term::var(&format!("N{v}")))));
            let mut body = ren.apply_atoms(&q1.body);
            if rng.gen_bool(0.5) {
                body.extend(random_conjunction(&mut rng, 1, 0.1));
            }
            CqQuery::new("q", q1.head.iter().map(|t| ren.apply_term(t)).collect(), body)
        } else {
            let n2 = rng.gen_range(n1..=4);
            let body = random_conjunction(&mut rng, n2, 0.1);
            CqQuery::new("q", random_head(&mut rng, &body, len), body)
        };
        let mut seed = Subst::new();
        let seeded = q2.head.iter().zip(q1.head.iter()).all(|(t2, t1)| match t2 {
            Term::Var(v) => seed.bind(*v, *t1),
            Term::Const(_) => t2 == t1,
        });
        let want = seeded && {
            let (homs, _) =
                reference::enumerate_homomorphisms(&q2.body, &q1.body, &seed, 1_000_000);
            homs.iter().any(|h| is_multiset_onto_mapping(&q1, &q2, h))
        };
        let got = onto_containment_mapping(&q1, &q2);
        assert_eq!(got.is_some(), want, "round {round}: {q1} vs {q2}");
        if let Some(h) = got {
            assert!(is_multiset_onto_mapping(&q1, &q2, &h), "round {round}: witness fails replay");
            found += 1;
        }
    }
    assert!(found > 10, "too few positive draws ({found}) to exercise witnesses");
}

/// Symbolic dependency satisfaction on the scratch arena agrees with the
/// reference formulation: every premise homomorphism extends to the
/// conclusion (tgds) or equates the egd's sides.
#[test]
fn dependency_satisfaction_agrees_with_reference() {
    use eqsql_deps::satisfaction::{query_satisfies_egd, query_satisfies_tgd};
    use eqsql_deps::{Egd, Tgd};
    let mut rng = StdRng::seed_from_u64(0x5A715);
    let (mut held, mut broke) = (0, 0);
    for round in 0..300 {
        let n_body = rng.gen_range(1..=6);
        let body = random_conjunction(&mut rng, n_body, 0.2);
        let q = CqQuery::new("q", vec![], body);
        let n_lhs = rng.gen_range(1..=2);
        let lhs = random_conjunction(&mut rng, n_lhs, 0.1);
        let (premise_homs, _) =
            reference::enumerate_homomorphisms(&lhs, &q.body, &Subst::new(), 1_000_000);
        if round % 2 == 0 {
            let n_rhs = rng.gen_range(1..=2);
            let tgd = Tgd::new(lhs, random_conjunction(&mut rng, n_rhs, 0.1));
            let want = premise_homs
                .iter()
                .all(|h| reference::extend_homomorphism(&tgd.rhs, &q.body, h).is_some());
            assert_eq!(query_satisfies_tgd(&q, &tgd), want, "round {round}: {tgd}");
            if want {
                held += 1
            } else {
                broke += 1
            }
        } else {
            let sides = random_head(&mut rng, &lhs, 2);
            let egd = Egd::new(lhs, sides[0], sides[1]);
            let want =
                premise_homs.iter().all(|h| h.apply_term(&egd.eq.0) == h.apply_term(&egd.eq.1));
            assert_eq!(query_satisfies_egd(&q, &egd), want, "round {round}: {egd}");
            if want {
                held += 1
            } else {
                broke += 1
            }
        }
    }
    assert!(held > 20 && broke > 20, "draws too one-sided: {held} held, {broke} broke");
}

#[test]
fn bijection_search_finds_constructed_isomorphisms() {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(0x150);
    for round in 0..200 {
        let n_body = rng.gen_range(1..=5);
        let body = random_conjunction(&mut rng, n_body, 0.1);
        let mut head_vars: Vec<Var> = {
            let mut vs: Vec<Var> = Vec::new();
            for a in &body {
                for v in a.vars() {
                    if !vs.contains(&v) {
                        vs.push(v);
                    }
                }
            }
            vs
        };
        head_vars.truncate(2);
        let q1 = CqQuery::new("q", head_vars.iter().map(|v| Term::Var(*v)).collect(), body.clone());
        // Rename bijectively and shuffle the body: must be found.
        let renaming = Subst::from_pairs(
            VARS.iter().enumerate().map(|(i, v)| (Var::new(v), Term::var(&format!("N{i}")))),
        );
        let mut shuffled = renaming.apply_atoms(&q1.body);
        shuffled.shuffle(&mut rng);
        let q2 =
            CqQuery::new("q", q1.head.iter().map(|t| renaming.apply_term(t)).collect(), shuffled);
        let m = find_isomorphism(&q1, &q2)
            .unwrap_or_else(|| panic!("round {round}: renamed copy not isomorphic"));
        // The witness really carries q1 onto q2.
        let as_subst = Subst::from_pairs(m.iter().map(|(v, w)| (*v, Term::Var(*w))));
        let image = q1.apply(&as_subst);
        assert!(
            eqsql_cq::are_isomorphic(&image, &q2),
            "round {round}: witness map does not carry q1 onto q2"
        );
        // A mutated copy (one atom's predicate swapped) must be rejected.
        if !q2.body.is_empty() {
            let mut broken = q2.clone();
            let j = rng.gen_range(0..broken.body.len());
            let old = broken.body[j].clone();
            broken.body[j] = Atom::new("zz", old.args.clone());
            assert!(
                find_isomorphism(&q1, &broken).is_none(),
                "round {round}: predicate-mutated copy accepted"
            );
        }
    }
}
