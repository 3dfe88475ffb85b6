//! Logical implication of dependencies, decided by the chase.
//!
//! The classical procedure (\[1\], ch. 8–10): to decide `Σ ⊨ σ`, freeze σ's
//! premise into a canonical query, chase it with Σ, and check that σ's
//! conclusion holds in the result — an existential witness for a tgd, the
//! equated terms actually merged for an egd. Sound and complete whenever
//! the chase terminates (guaranteed for weakly acyclic Σ, Theorem H.1).
//!
//! This lives in `eqsql-deps` but needs the chase; the chase crate
//! re-exports it as `eqsql_chase::implies`. (The implementation is here
//! via a callback to avoid a dependency cycle.)

use crate::dependency::{Dependency, Egd, Tgd};
use eqsql_cq::arena::with_scratch;
use eqsql_cq::{ArenaFrame, ArenaPlan, CqQuery, Subst, Term, Var};

/// The premise of `dep` as a query to be chased: head = the universally
/// quantified variables (so egd merges of them remain observable).
pub fn premise_query(dep: &Dependency) -> CqQuery {
    let body = dep.lhs().to_vec();
    let vars: Vec<Term> = {
        let q0 = CqQuery::new("premise", vec![], body.clone());
        q0.body_vars().into_iter().map(Term::Var).collect()
    };
    CqQuery::new("premise", vars, body)
}

/// Given the terminal chase result of [`premise_query`] and the renaming
/// the chase applied, does σ's conclusion hold?
///
/// * tgd: some homomorphism extends the (chased) premise match to the
///   conclusion;
/// * egd: the final images of the equated terms coincide.
pub fn conclusion_holds(dep: &Dependency, chased: &CqQuery, renaming: &Subst) -> bool {
    match dep {
        Dependency::Egd(Egd { eq, .. }) => renaming.apply_term(&eq.0) == renaming.apply_term(&eq.1),
        Dependency::Tgd(tgd @ Tgd { rhs, .. }) => {
            // Every universal (premise) variable is pinned — through the
            // chase renaming, identity included; only the tgd's
            // existential variables are left for the extension search.
            // Existence-only, so the selectivity-ordered plan applies.
            let universal: Vec<Var> = tgd.universal_vars().into_iter().collect();
            let seed = Subst::from_pairs(
                universal.iter().map(|v| (*v, renaming.apply_term(&Term::Var(*v)))),
            );
            with_scratch(|arena| {
                arena.push_atoms(&chased.body);
                let plan = ArenaPlan::optimized(rhs, &universal, arena);
                let mut frame = ArenaFrame::for_plan(&plan);
                frame.seed_subst(&plan, arena, &seed);
                plan.has_match(arena, &mut frame)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dependency;
    use eqsql_cq::Var;

    #[test]
    fn premise_query_exposes_all_variables() {
        let d = parse_dependency("p(X,Y) & q(Y,Z) -> r(X,Z)").unwrap();
        let q = premise_query(&d);
        assert_eq!(q.body.len(), 2);
        assert_eq!(q.head.len(), 3); // X, Y, Z
        assert!(q.is_safe());
    }

    #[test]
    fn conclusion_check_for_egd_uses_renaming() {
        let d = parse_dependency("p(X,Y) & p(X,Z) -> Y = Z").unwrap();
        let chased = eqsql_cq::parse_query("c(X,Y) :- p(X,Y)").unwrap();
        // Renaming that merged Z into Y: conclusion holds.
        let mut ren = Subst::new();
        ren.rewrite(Var::new("Z"), Term::var("Y"));
        assert!(conclusion_holds(&d, &chased, &ren));
        // Identity renaming: conclusion fails.
        assert!(!conclusion_holds(&d, &chased, &Subst::new()));
    }

    #[test]
    fn conclusion_check_for_tgd_searches_witness() {
        let d = parse_dependency("p(X,Y) -> t(X,W)").unwrap();
        let with_t = eqsql_cq::parse_query("c(X,Y) :- p(X,Y), t(X,V)").unwrap();
        let without_t = eqsql_cq::parse_query("c(X,Y) :- p(X,Y)").unwrap();
        assert!(conclusion_holds(&d, &with_t, &Subst::new()));
        assert!(!conclusion_holds(&d, &without_t, &Subst::new()));
    }
}
