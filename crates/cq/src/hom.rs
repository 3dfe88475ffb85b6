//! Containment mappings between conjunctive queries (Chandra–Merlin
//! \[2\]).
//!
//! A homomorphism from conjunction `φ(U)` to conjunction `ψ(V)` maps the
//! variables of `φ` to terms of `ψ` such that constants are fixed and every
//! atom of `φ` lands on an atom of `ψ` (§2.1 of the paper). Containment-
//! mapping search is NP-complete in general; the inputs in this workspace
//! are small symbolic queries.
//!
//! The search runs on the one compiled matcher, [`ArenaPlan`], over the
//! calling thread's scratch arena ([`with_scratch`]). The plan keeps the
//! source atom order, so the witness found is the one the naive
//! backtracker ([`crate::matcher::reference`]) finds first. Callers with a
//! hot loop over one target should load it into a
//! [`TermArena`](crate::arena::TermArena) once and search compiled plans
//! directly.

use crate::arena::{with_scratch, ArenaFrame, ArenaPlan};
use crate::query::CqQuery;
use crate::subst::Subst;
use crate::term::Term;

/// Upper bound on the number of homomorphisms an exhaustive enumeration
/// materializes before reporting truncation (a guard against pathological
/// inputs; the chase never comes close on paper-scale inputs).
pub const MAX_HOMOMORPHISMS: usize = 200_000;

/// A containment mapping from `from` to `to`: a homomorphism between the
/// bodies that maps the head of `from` onto the head of `to`, position by
/// position (§2.1). By Chandra–Merlin, one exists iff `to ⊑_S from`.
pub fn containment_mapping(from: &CqQuery, to: &CqQuery) -> Option<Subst> {
    if from.head.len() != to.head.len() {
        return None;
    }
    let mut seed = Subst::new();
    for (ft, tt) in from.head.iter().zip(to.head.iter()) {
        match ft {
            Term::Const(c) => {
                if *tt != Term::Const(*c) {
                    return None;
                }
            }
            Term::Var(v) => {
                if !seed.bind(*v, *tt) {
                    return None;
                }
            }
        }
    }
    with_scratch(|arena| {
        arena.push_atoms(&to.body);
        // Reference-order plan: containment checks run overwhelmingly on
        // small bodies (C&B subqueries, equivalence probes) where the O(n)
        // compile wins, and it keeps the historical first-match choice.
        let plan = ArenaPlan::new(&from.body, arena);
        let mut frame = ArenaFrame::for_plan(&plan);
        frame.seed_subst(&plan, arena, &seed);
        let mut found = None;
        plan.search(arena, &mut frame, &mut |slots| {
            let mut h = seed.clone();
            plan.bind_subst(arena, slots, &mut h);
            found = Some(h);
            false
        });
        found
    })
}

/// Checks that `h` really is a containment mapping from `from` to `to`:
/// every head term of `from` maps onto the corresponding head term of `to`
/// and every body atom of `from` lands (under `h`) on some body atom of
/// `to`. Constants are fixed by construction ([`Subst`] maps variables
/// only).
///
/// This is the *certificate replay* half of [`containment_mapping`]: a
/// caller handed a witnessing substitution (e.g. out of a cached or
/// serialized verdict) can confirm it against the queries without trusting
/// the search that produced it.
pub fn is_containment_mapping(from: &CqQuery, to: &CqQuery, h: &Subst) -> bool {
    if from.head.len() != to.head.len() {
        return false;
    }
    if from.head.iter().zip(to.head.iter()).any(|(f, t)| h.apply_term(f) != *t) {
        return false;
    }
    from.body.iter().all(|a| to.body.contains(&h.apply_atom(a)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::reference;
    use crate::parser::parse_query;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    /// The oracle's answer: the reference backtracker's first homomorphism
    /// extending the head pairing.
    fn oracle(from: &CqQuery, to: &CqQuery) -> Option<Subst> {
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

    #[test]
    fn identity_mapping_exists() {
        let a = q("q(X) :- p(X,Y), s(Y,Z)");
        assert!(containment_mapping(&a, &a).is_some());
    }

    #[test]
    fn mapping_can_collapse_variables() {
        let src = q("q() :- p(X,Y), p(Y,X)");
        let dst = q("q() :- p(X,X)");
        let h = containment_mapping(&src, &dst).unwrap();
        assert_eq!(h.apply_term(&Term::var("Y")), h.apply_term(&Term::var("X")));
    }

    #[test]
    fn no_mapping_on_missing_predicate() {
        let src = q("q(X) :- p(X,Y), r(Y)");
        let dst = q("q(X) :- p(X,Y)");
        assert!(containment_mapping(&src, &dst).is_none());
    }

    #[test]
    fn body_constants_must_match() {
        let src = q("q(X) :- p(X, 3)");
        assert!(containment_mapping(&src, &q("q(X) :- p(X, 3)")).is_some());
        assert!(containment_mapping(&src, &q("q(X) :- p(X, 4)")).is_none());
    }

    #[test]
    fn containment_mapping_respects_head() {
        // Classic: q1(X) :- p(X,Y) contains q2(X) :- p(X,X)? A containment
        // mapping from q1 to q2 maps X->X, Y->X: exists, so q2 ⊑ q1.
        let q1 = q("q(X) :- p(X,Y)");
        let q2 = q("q(X) :- p(X,X)");
        assert!(containment_mapping(&q1, &q2).is_some());
        // The other direction requires mapping p(X,X) into p(X,Y) with
        // X->X: impossible since Y≠X.
        assert!(containment_mapping(&q2, &q1).is_none());
    }

    #[test]
    fn containment_mapping_head_constant() {
        let q1 = q("q(3) :- p(3,Y)");
        let q2 = q("q(3) :- p(3,4)");
        assert!(containment_mapping(&q1, &q2).is_some());
        let q3 = q("q(5) :- p(5,4)");
        assert!(containment_mapping(&q1, &q3).is_none());
    }

    #[test]
    fn head_seed_pins_the_search() {
        let from = q("q(X) :- p(X,Y)");
        let to = q("q(3) :- p(1,2), p(3,4)");
        let h = containment_mapping(&from, &to).unwrap();
        assert_eq!(h.apply_term(&Term::var("Y")), Term::int(4));
        assert_eq!(Some(h), oracle(&from, &to));
    }

    #[test]
    fn containment_mapping_witness_replays() {
        let q1 = q("q(X) :- p(X,Y)");
        let q2 = q("q(X) :- p(X,X)");
        let h = containment_mapping(&q1, &q2).unwrap();
        assert!(is_containment_mapping(&q1, &q2, &h));
        // A corrupted witness is rejected.
        let mut bad = Subst::new();
        bad.set(crate::term::Var::new("X"), Term::var("Y"));
        assert!(!is_containment_mapping(&q1, &q2, &bad));
        // The empty substitution is not a containment mapping here either:
        // p(X,Y) is not an atom of q2.
        assert!(!is_containment_mapping(&q1, &q2, &Subst::new()));
    }

    #[test]
    fn first_witness_agrees_with_reference_backtracker() {
        let from = q("q(X) :- p(X,Y), p(Y,Z), r(Z)");
        let to = q("q(1) :- p(1,2), p(2,3), p(2,2), r(3), r(2)");
        let h = containment_mapping(&from, &to);
        assert!(h.is_some());
        assert_eq!(h, oracle(&from, &to), "first witness diverged from the oracle");
    }

    /// A long-running server checks containment over chase-fresh variable
    /// names forever: the scratch arena must stay under its bound, and
    /// answers must stay the oracle's across every reset.
    #[test]
    fn scratch_arena_stays_bounded_over_fresh_names() {
        use crate::arena::{scratch_terms, SCRATCH_LIMIT};
        let (mut resets, mut found) = (0, 0);
        let mut last = scratch_terms();
        for i in 0..3 * SCRATCH_LIMIT / 4 {
            let from = q(&format!("q(X{i}) :- p(X{i},Y{i}), r(Y{i})"));
            let body = if i % 2 == 0 {
                format!("p(A{i},B{i}), r(B{i}), r({})", i % 5)
            } else {
                format!("p(A{i},B{i}), p(B{i},C{i}), r(C{i})")
            };
            let to = q(&format!("q(A{i}) :- {body}"));
            let h = containment_mapping(&from, &to);
            assert_eq!(h, oracle(&from, &to), "call {i}");
            found += usize::from(h.is_some());
            let now = scratch_terms();
            assert!(now <= SCRATCH_LIMIT, "call {i}: scratch arena holds {now} terms");
            if now < last {
                resets += 1;
            }
            last = now;
        }
        assert_eq!(found, 3 * SCRATCH_LIMIT / 8, "every even call maps, no odd one does");
        assert!(resets >= 1, "the scratch arena was never replaced");
    }
}
