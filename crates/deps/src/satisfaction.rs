//! Dependency satisfaction.
//!
//! Two flavours:
//!
//! * **symbolic** — `D(Q) ⊨ σ` where `D(Q)` is the canonical database of a
//!   query: decided directly on the query body via homomorphisms (this is
//!   the chase-termination condition of §2.4);
//! * **instance-level** — `D ⊨ σ` for a concrete (bag) database, decided by
//!   enumerating premise assignments with the naive evaluator. Dependency
//!   satisfaction only looks at *which* tuples are present, never at their
//!   multiplicities, matching the paper's `D ⊨ Σ` for bag-valued `D`.

use crate::dependency::{Dependency, DependencySet, Egd, Tgd};
use eqsql_cq::arena::with_scratch;
use eqsql_cq::{ArenaFrame, ArenaPlan, Atom, CqQuery, Term, Value, Var};
use eqsql_relalg::eval::{assignments, Assignment};
use eqsql_relalg::Database;

/// Does the canonical database of `q` satisfy the tgd?
///
/// Streams premise matches off the planned matcher, over `q`'s body in
/// the thread's scratch arena, with the conclusion probe threaded in:
/// the search stops at the first unwitnessed premise match. Plans are
/// ordered by the body's live table sizes
/// ([`ArenaPlan::optimized_with_stats`], Selinger-lite) — safe for these
/// existence-only searches. The extension seed covers exactly the premise
/// variables, so the tgd's existential variables stay free, as
/// Definition 2.x requires.
pub fn query_satisfies_tgd(q: &CqQuery, tgd: &Tgd) -> bool {
    with_scratch(|arena| {
        arena.push_atoms(&q.body);
        let premise = ArenaPlan::optimized_with_stats(&tgd.lhs, &[], arena);
        let universal: Vec<Var> = tgd.universal_vars().into_iter().collect();
        let conclusion = ArenaPlan::optimized_with_stats(&tgd.rhs, &universal, arena);
        let seed = conclusion.seed_map_from(&premise);
        let (mut pf, mut cf) = (ArenaFrame::for_plan(&premise), ArenaFrame::new());
        let mut satisfied = true;
        premise.search(arena, &mut pf, &mut |slots| {
            cf.reset(conclusion.slot_count());
            cf.seed_from(&seed, slots);
            satisfied = conclusion.has_match(arena, &mut cf);
            satisfied // stop at the first unwitnessed premise match
        });
        satisfied
    })
}

/// Does the canonical database of `q` satisfy the egd?
pub fn query_satisfies_egd(q: &CqQuery, egd: &Egd) -> bool {
    with_scratch(|arena| {
        arena.push_atoms(&q.body);
        let premise = ArenaPlan::optimized_with_stats(&egd.lhs, &[], arena);
        let (lhs, rhs) = (premise.eq_op(&egd.eq.0, arena), premise.eq_op(&egd.eq.1, arena));
        let mut frame = ArenaFrame::for_plan(&premise);
        let mut satisfied = true;
        premise.search(arena, &mut frame, &mut |slots| {
            satisfied = lhs.resolve(arena, slots) == rhs.resolve(arena, slots);
            satisfied // stop at the first violation
        });
        satisfied
    })
}

/// Does the canonical database of `q` satisfy the dependency?
pub fn query_satisfies(q: &CqQuery, d: &Dependency) -> bool {
    match d {
        Dependency::Tgd(t) => query_satisfies_tgd(q, t),
        Dependency::Egd(e) => query_satisfies_egd(q, e),
    }
}

/// Does the canonical database of `q` satisfy every dependency in Σ?
pub fn query_satisfies_all(q: &CqQuery, sigma: &DependencySet) -> bool {
    sigma.iter().all(|d| query_satisfies(q, d))
}

/// The maximal subset of Σ satisfied by the canonical database of `q`.
pub fn satisfied_subset(q: &CqQuery, sigma: &DependencySet) -> DependencySet {
    sigma.iter().filter(|d| query_satisfies(q, d)).cloned().collect()
}

fn term_value(t: &Term, asg: &Assignment) -> Option<Value> {
    match t {
        Term::Const(c) => Some(*c),
        Term::Var(v) => asg.get(v).copied(),
    }
}

/// Substitutes known assignment values into atoms (vars become constants).
fn ground_with(atoms: &[Atom], asg: &Assignment) -> Vec<Atom> {
    atoms
        .iter()
        .map(|a| Atom {
            pred: a.pred,
            args: a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => match asg.get(v) {
                        Some(val) => Term::Const(*val),
                        None => *t,
                    },
                    Term::Const(_) => *t,
                })
                .collect(),
        })
        .collect()
}

/// Does the database instance satisfy the tgd?
pub fn db_satisfies_tgd(db: &Database, tgd: &Tgd) -> bool {
    assignments(&tgd.lhs, db).iter().all(|asg| {
        let rhs = ground_with(&tgd.rhs, asg);
        !assignments(&rhs, db).is_empty()
    })
}

/// Does the database instance satisfy the egd?
pub fn db_satisfies_egd(db: &Database, egd: &Egd) -> bool {
    assignments(&egd.lhs, db)
        .iter()
        .all(|asg| term_value(&egd.eq.0, asg) == term_value(&egd.eq.1, asg))
}

/// Does the database instance satisfy the dependency?
pub fn db_satisfies(db: &Database, d: &Dependency) -> bool {
    match d {
        Dependency::Tgd(t) => db_satisfies_tgd(db, t),
        Dependency::Egd(e) => db_satisfies_egd(db, e),
    }
}

/// Does the database instance satisfy every dependency in Σ (`D ⊨ Σ`)?
pub fn db_satisfies_all(db: &Database, sigma: &DependencySet) -> bool {
    sigma.iter().all(|d| db_satisfies(db, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_dependencies, parse_dependency};
    use eqsql_cq::parse_query;

    #[test]
    fn symbolic_tgd_satisfaction() {
        let tgd = parse_dependency("p(X,Y) -> t(X,Y,W)").unwrap();
        let q_no = parse_query("q(X) :- p(X,Y)").unwrap();
        let q_yes = parse_query("q(X) :- p(X,Y), t(X,Y,W)").unwrap();
        assert!(!query_satisfies(&q_no, &tgd));
        assert!(query_satisfies(&q_yes, &tgd));
    }

    #[test]
    fn symbolic_tgd_existential_must_be_free() {
        // q already has a t-atom but with the *wrong* second coordinate:
        // the extension must still find t(X,Y,_), which it cannot.
        let tgd = parse_dependency("p(X,Y) -> t(X,Y,W)").unwrap();
        let q = parse_query("q(X) :- p(X,Y), t(X,X,W)").unwrap();
        assert!(!query_satisfies(&q, &tgd));
    }

    #[test]
    fn symbolic_egd_satisfaction() {
        let egd = parse_dependency("s(X,Y) & s(X,Z) -> Y = Z").unwrap();
        let q_bad = parse_query("q(X) :- s(X,A), s(X,B)").unwrap();
        let q_ok = parse_query("q(X) :- s(X,A)").unwrap();
        assert!(!query_satisfies(&q_bad, &egd));
        assert!(query_satisfies(&q_ok, &egd));
        // Two s-atoms whose second arguments are already equal: fine.
        let q_eq = parse_query("q(X) :- s(X,A), s(X,A)").unwrap();
        assert!(query_satisfies(&q_eq, &egd));
    }

    #[test]
    fn instance_tgd_satisfaction() {
        let tgd = parse_dependency("p(X,Y) -> t(X,Y,W)").unwrap();
        let db_yes = Database::new().with_ints("p", &[[1, 2]]).with_ints("t", &[[1, 2, 9]]);
        let db_no = Database::new().with_ints("p", &[[1, 2]]).with_ints("t", &[[1, 3, 9]]);
        assert!(db_satisfies(&db_yes, &tgd));
        assert!(!db_satisfies(&db_no, &tgd));
    }

    #[test]
    fn instance_egd_satisfaction() {
        let egd = parse_dependency("s(X,Y) & s(X,Z) -> Y = Z").unwrap();
        let db_yes = Database::new().with_ints("s", &[[1, 3], [2, 4]]);
        let db_no = Database::new().with_ints("s", &[[1, 3], [1, 4]]);
        assert!(db_satisfies(&db_yes, &egd));
        assert!(!db_satisfies(&db_no, &egd));
    }

    #[test]
    fn example_4_1_counterexample_db_satisfies_sigma() {
        // The D of Example 4.1 satisfies Σ (with U bag-valued allowed).
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let db = Database::new()
            .with_ints("p", &[[1, 2]])
            .with_ints("r", &[[1]])
            .with_ints("s", &[[1, 3]])
            .with_ints("t", &[[1, 2, 4]])
            .with_ints("u", &[[1, 5], [1, 6]]);
        assert!(db_satisfies_all(&db, &sigma));
    }

    #[test]
    fn satisfied_subset_picks_the_right_dependencies() {
        let sigma = parse_dependencies(
            "p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z).",
        )
        .unwrap();
        let q = parse_query("q(X) :- p(X,Y), r(X)").unwrap();
        let sub = satisfied_subset(&q, &sigma);
        assert_eq!(sub.len(), 1);
        assert!(sub.as_slice()[0].is_tgd());
        assert_eq!(sub.as_slice()[0].to_string(), "p(X, Y) -> r(X)");
    }

    #[test]
    fn multiplicities_do_not_affect_satisfaction() {
        let egd = parse_dependency("s(X,Y) & s(X,Z) -> Y = Z").unwrap();
        let mut db = Database::new();
        db.insert("s", eqsql_relalg::Tuple::ints([1, 3]), 5);
        assert!(db_satisfies(&db, &egd));
    }
}
