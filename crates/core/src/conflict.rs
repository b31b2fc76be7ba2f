//! Conflict detection: the paper's `isConflicting` (Alg. 1, lines 7–12).
//!
//! A pair of operations conflicts iff there exists an instantiation of
//! their parameters and an `I`-valid state satisfying both operations'
//! weakest preconditions from which the convergence-rule merge of their
//! effects reaches an `I`-invalid state. The existential check is
//! discharged by the SAT solver over the small-scope grounding.

use crate::pipeline::AnalysisConfig;
use crate::summary::EffectSummary;
use crate::universe::{build_universe, query_instantiations, PairArgs};
use crate::wp::apply_summary;
use crate::AnalysisError;
use ipa_solver::{GroundFormula, Grounder, Outcome, Problem, Universe};
use ipa_spec::{AppSpec, Constant, Formula, GroundAtom, Interpretation, Operation};

/// A concrete counter-example to `I`-confluence: the paper's Figure 2
/// diagram as data.
#[derive(Clone, Debug)]
pub struct ConflictWitness {
    pub op1: ipa_spec::Symbol,
    pub args1: Vec<Constant>,
    pub op2: ipa_spec::Symbol,
    pub args2: Vec<Constant>,
    /// The `Sinit` state: `I`-valid and satisfying both preconditions.
    pub pre: Interpretation,
    /// The `Sfinal` state after merging both operations' effects.
    pub merged: Interpretation,
    /// The invariant clauses that fail in `merged`.
    pub violated: Vec<Formula>,
    /// Atoms on which the operations wrote opposing values.
    pub contested: Vec<GroundAtom>,
}

impl ConflictWitness {
    /// A short human-readable label `op1(args) ∥ op2(args)`.
    pub fn label(&self) -> String {
        format!(
            "{}({}) ∥ {}({})",
            self.op1,
            join_args(&self.args1),
            self.op2,
            join_args(&self.args2)
        )
    }
}

fn join_args(args: &[Constant]) -> String {
    args.iter()
        .map(|c| c.name.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Decide whether `op1 ∥ op2` can violate the invariant, returning a
/// counter-example if so.
///
/// One parameter instantiation per symmetry class over the small-scope
/// universe is tested: the elements of a sort are interchangeable, so
/// instantiations that differ by a renaming of elements within sorts get
/// the same verdict, and only the lexicographically least of each class
/// is solved. The witness is still the one the full product of
/// instantiations would return: that product runs in lexicographic
/// order, so its first conflicting instantiation is the least member of
/// a class that conflicts throughout, i.e. the class representative, and
/// the same SAT problem yields the same `pre` and `merged` states. When
/// an invariant or either operation names a concrete element, the
/// symmetry is broken and the full product is tested. Within each
/// instantiation, every deterministic merge alternative (more than one
/// only under last-writer-wins rules) is checked.
pub fn check_pair(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
) -> Result<Option<ConflictWitness>, AnalysisError> {
    let universe = build_universe(spec, cfg.universe_per_sort);
    check_pair_in(spec, cfg, op1, op2, &universe)
}

/// As [`check_pair`], with a caller-provided universe (used by the repair
/// search to avoid rebuilding it).
pub fn check_pair_in(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
    universe: &Universe,
) -> Result<Option<ConflictWitness>, AnalysisError> {
    let insts = query_instantiations(spec, op1, op2, &[], universe);
    check_instantiations(spec, cfg, op1, op2, universe, insts)
}

/// [`check_pair_in`] with the full product of instantiations: the oracle
/// the symmetry reduction is tested against.
#[cfg(test)]
pub(crate) fn check_pair_full(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
    universe: &Universe,
) -> Result<Option<ConflictWitness>, AnalysisError> {
    let insts = crate::universe::instantiations(op1, op2, universe);
    check_instantiations(spec, cfg, op1, op2, universe, insts)
}

/// The conflict search over the given instantiations, in order.
fn check_instantiations(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
    universe: &Universe,
    insts: Vec<PairArgs>,
) -> Result<Option<ConflictWitness>, AnalysisError> {
    let grounder = Grounder::new(universe, &spec.predicates, &spec.constants);
    let ground_invs: Vec<GroundFormula> = spec
        .invariants
        .iter()
        .map(|i| grounder.ground(i))
        .collect::<Result<_, _>>()
        .map_err(AnalysisError::from)?;

    for (args1, args2) in insts {
        let Some(ge1) = op1.ground(&args1) else {
            continue;
        };
        let Some(ge2) = op2.ground(&args2) else {
            continue;
        };
        let s1 = EffectSummary::from_effects(&ge1, &grounder).map_err(AnalysisError::from)?;
        let s2 = EffectSummary::from_effects(&ge2, &grounder).map_err(AnalysisError::from)?;
        if s1.is_empty() && s2.is_empty() {
            continue;
        }
        let wp1: Vec<GroundFormula> = ground_invs.iter().map(|g| apply_summary(g, &s1)).collect();
        let wp2: Vec<GroundFormula> = ground_invs.iter().map(|g| apply_summary(g, &s2)).collect();

        for merged in s1.merge(&s2, &spec.rules) {
            let post: Vec<GroundFormula> = ground_invs
                .iter()
                .map(|g| apply_summary(g, &merged))
                .collect();

            let mut problem = Problem::new(
                universe.clone(),
                spec.predicates.clone(),
                spec.constants.clone(),
                cfg.numeric_bound,
            );
            for g in &ground_invs {
                problem.assert_ground(g);
            }
            for g in wp1.iter().chain(wp2.iter()) {
                problem.assert_ground(g);
            }
            problem.assert_ground(&GroundFormula::not(GroundFormula::and(post)));

            if let Outcome::Sat(model) = problem.solve() {
                let pre = problem.interpretation(&model);
                let mut merged_interp = pre.clone();
                for (a, &v) in &merged.assigns {
                    merged_interp.set_bool(a.clone(), v);
                }
                for (a, &d) in &merged.deltas {
                    merged_interp.add_num(a.clone(), d);
                }
                let violated: Vec<Formula> = spec
                    .invariants
                    .iter()
                    .filter(|inv| !merged_interp.eval(inv).unwrap_or(true))
                    .cloned()
                    .collect();
                return Ok(Some(ConflictWitness {
                    op1: op1.name.clone(),
                    args1,
                    op2: op2.name.clone(),
                    args2,
                    pre,
                    merged: merged_interp,
                    violated,
                    contested: s1.contested_atoms(&s2),
                }));
            }
        }
    }
    Ok(None)
}

/// Does the repaired pair preserve the executability of the original
/// pair — i.e. `wp(orig1) ∧ wp(orig2) ⇒ wp(cand1) ∧ wp(cand2)` in every
/// `I`-valid state, for every instantiation? As in [`check_pair`], one
/// instantiation per symmetry class answers for its whole class.
///
/// This is the semantic-preservation side condition of the paper's
/// repairs ("the additional effect has no impact if there is no
/// concurrent operation", §3.3): without it the search can "solve" a
/// conflict degenerately, by adding effects that *narrow* an operation's
/// weakest precondition until the conflicting pair can no longer legally
/// co-execute (e.g. giving `enroll` an `inMatch(p,p,t)` effect whose
/// precondition contradicts `rem_tourn`'s).
pub fn preserves_executability(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    orig1: &Operation,
    orig2: &Operation,
    cand1: &Operation,
    cand2: &Operation,
    universe: &Universe,
) -> Result<bool, AnalysisError> {
    let insts = query_instantiations(spec, orig1, orig2, &[cand1, cand2], universe);
    executable_over(spec, cfg, [orig1, orig2], [cand1, cand2], universe, insts)
}

/// [`preserves_executability`] with the full product of instantiations:
/// the oracle the symmetry reduction is tested against.
#[cfg(test)]
pub(crate) fn preserves_executability_full(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    orig: [&Operation; 2],
    cand: [&Operation; 2],
    universe: &Universe,
) -> Result<bool, AnalysisError> {
    let insts = crate::universe::instantiations(orig[0], orig[1], universe);
    executable_over(spec, cfg, orig, cand, universe, insts)
}

/// The executability check over the given instantiations.
fn executable_over(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    [orig1, orig2]: [&Operation; 2],
    [cand1, cand2]: [&Operation; 2],
    universe: &Universe,
    insts: Vec<PairArgs>,
) -> Result<bool, AnalysisError> {
    let grounder = Grounder::new(universe, &spec.predicates, &spec.constants);
    let ground_invs: Vec<GroundFormula> = spec
        .invariants
        .iter()
        .map(|i| grounder.ground(i))
        .collect::<Result<_, _>>()
        .map_err(AnalysisError::from)?;

    for (args1, args2) in insts {
        let (Some(o1), Some(o2)) = (orig1.ground(&args1), orig2.ground(&args2)) else {
            continue;
        };
        let (Some(c1), Some(c2)) = (cand1.ground(&args1), cand2.ground(&args2)) else {
            continue;
        };
        let so1 = EffectSummary::from_effects(&o1, &grounder).map_err(AnalysisError::from)?;
        let so2 = EffectSummary::from_effects(&o2, &grounder).map_err(AnalysisError::from)?;
        let sc1 = EffectSummary::from_effects(&c1, &grounder).map_err(AnalysisError::from)?;
        let sc2 = EffectSummary::from_effects(&c2, &grounder).map_err(AnalysisError::from)?;

        let mut problem = Problem::new(
            universe.clone(),
            spec.predicates.clone(),
            spec.constants.clone(),
            cfg.numeric_bound,
        );
        let mut cand_wps: Vec<GroundFormula> = Vec::new();
        for g in &ground_invs {
            problem.assert_ground(g);
            problem.assert_ground(&apply_summary(g, &so1));
            problem.assert_ground(&apply_summary(g, &so2));
            cand_wps.push(apply_summary(g, &sc1));
            cand_wps.push(apply_summary(g, &sc2));
        }
        // A state where the originals execute but a candidate would not.
        problem.assert_ground(&GroundFormula::not(GroundFormula::and(cand_wps)));
        if problem.solve().is_sat() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Assert that the symmetry-reduced pair queries answer exactly as the
/// full product does on `spec`: [`check_pair_in`] on every operation
/// pair, and, for every pair that conflicts, [`preserves_executability`]
/// on each of its repair candidates.
#[cfg(test)]
pub(crate) fn assert_reduction_is_exact(spec: &AppSpec, cfg: &AnalysisConfig) {
    let universe = build_universe(spec, cfg.universe_per_sort);
    for (i, o1) in spec.operations.iter().enumerate() {
        for o2 in &spec.operations[i..] {
            let reduced = check_pair_in(spec, cfg, o1, o2, &universe).unwrap();
            let full = check_pair_full(spec, cfg, o1, o2, &universe).unwrap();
            assert_eq!(
                format!("{reduced:?}"),
                format!("{full:?}"),
                "{}: {} ∥ {}",
                spec.name,
                o1.name,
                o2.name
            );
            if reduced.is_some() {
                assert_candidate_checks_are_exact(spec, cfg, o1, o2);
            }
        }
    }
}

/// Assert that [`preserves_executability`] agrees with the full product
/// on every repair candidate [`generate`](crate::generate::generate)
/// proposes for `op1 ∥ op2`.
#[cfg(test)]
pub(crate) fn assert_candidate_checks_are_exact(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
) {
    let universe = build_universe(spec, cfg.universe_per_sort);
    for cand in crate::generate::generate(spec, op1, op2, cfg.max_added_effects) {
        let (c1, c2) = (&cand.op1, &cand.op2);
        let reduced = preserves_executability(spec, cfg, op1, op2, c1, c2, &universe).unwrap();
        let full =
            preserves_executability_full(spec, cfg, [op1, op2], [c1, c2], &universe).unwrap();
        assert_eq!(reduced, full, "{}: candidate {c1:?} ∥ {c2:?}", spec.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisConfig;
    use crate::universe::{element, instantiations, representatives};
    use ipa_spec::{AppSpecBuilder, Atom, ConvergencePolicy, Effect, Sort, Term};

    /// The paper's running example, reduced to the referential-integrity
    /// invariant and the two conflicting operations of Figure 2.
    fn tournament_mini() -> AppSpec {
        AppSpecBuilder::new("tournament-mini")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("tournament", ConvergencePolicy::AddWins)
            .rule("enrolled", ConvergencePolicy::AddWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .build()
            .unwrap()
    }

    /// Figure 2b: enroll extended with tournament(t) := true under add-wins.
    fn figure_2b_spec() -> AppSpec {
        AppSpecBuilder::new("tournament-fixed")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("tournament", ConvergencePolicy::AddWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
                    .set_true("tournament", &["t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .build()
            .unwrap()
    }

    /// rem_tourn extended with enrolled(*, t) := false, under `enrolled`'s
    /// given convergence rule: rem-wins is Figure 2c.
    fn wildcard_clear_spec(enrolled: ConvergencePolicy) -> AppSpec {
        AppSpecBuilder::new("tournament-wildcard-clear")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("enrolled", enrolled)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
                    .set_false("enrolled", &["*", "t"])
            })
            .build()
            .unwrap()
    }

    /// not(active(t) and finished(t)) with begin/finish racing.
    fn mutex_spec() -> AppSpec {
        AppSpecBuilder::new("mutex")
            .sort("Tournament")
            .predicate_bool("active", &["Tournament"])
            .predicate_bool("finished", &["Tournament"])
            .rule("active", ConvergencePolicy::AddWins)
            .rule("finished", ConvergencePolicy::AddWins)
            .invariant_str("forall(Tournament: t) :- not(active(t) and finished(t))")
            .operation("begin", &[("t", "Tournament")], |op| {
                op.set_true("active", &["t"])
            })
            .operation("finish", &[("t", "Tournament")], |op| {
                op.set_true("finished", &["t"]).set_false("active", &["t"])
            })
            .build()
            .unwrap()
    }

    /// stock(i) >= 0 with two concurrent decrements.
    fn stock_spec() -> AppSpec {
        AppSpecBuilder::new("stock")
            .sort("Item")
            .predicate_num("stock", &["Item"])
            .invariant_str("forall(Item: i) :- stock(i) >= 0")
            .operation("buy", &[("i", "Item")], |op| op.dec("stock", &["i"], 1))
            .build()
            .unwrap()
    }

    /// `featured(t) => tournament(t)`, where `feature_second` features
    /// the concrete element `Tournament#2`.
    fn featured_constant_effect_spec() -> AppSpec {
        let second = element(&Sort::new("Tournament"), 2);
        AppSpecBuilder::new("featured-effect")
            .sort("Tournament")
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("featured", &["Tournament"])
            .invariant_str("forall(Tournament: t) :- featured(t) => tournament(t)")
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .operation("feature_second", &[], |op| {
                op.effect(Effect::set_true(Atom::new(
                    "featured",
                    vec![Term::Const(second)],
                )))
            })
            .build()
            .unwrap()
    }

    /// `featured(Tournament#2) => tournament(Tournament#2)`: an invariant
    /// about one concrete element.
    fn featured_constant_invariant_spec() -> AppSpec {
        let second = || Term::Const(element(&Sort::new("Tournament"), 2));
        AppSpecBuilder::new("featured-invariant")
            .sort("Tournament")
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("featured", &["Tournament"])
            .invariant(Formula::implies(
                Formula::atom("featured", vec![second()]),
                Formula::atom("tournament", vec![second()]),
            ))
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .operation("feature", &[("t", "Tournament")], |op| {
                op.set_true("featured", &["t"])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn figure_2a_conflict_is_detected() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let w = check_pair(&spec, &cfg, enroll, rem)
            .unwrap()
            .expect("must conflict");
        assert_eq!(w.op1.as_str(), "enroll");
        assert_eq!(w.op2.as_str(), "rem_tourn");
        assert_eq!(w.violated.len(), 1);
        // The pre-state satisfies the invariant, the merged state does not.
        let inv = &spec.invariants[0];
        assert!(w.pre.eval(inv).unwrap());
        assert!(!w.merged.eval(inv).unwrap());
    }

    #[test]
    fn figure_2b_resolution_is_not_conflicting() {
        let spec = figure_2b_spec();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        // enroll ∥ rem_tourn no longer conflicts: the add-wins tournament
        // restore masks the concurrent removal (Fig. 2b).
        assert!(check_pair(&spec, &cfg, enroll, rem).unwrap().is_none());
    }

    #[test]
    fn figure_2c_rem_wins_resolution_is_not_conflicting() {
        let spec = wildcard_clear_spec(ConvergencePolicy::RemWins);
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        assert!(check_pair(&spec, &cfg, enroll, rem).unwrap().is_none());
    }

    #[test]
    fn add_wins_enrolled_does_not_save_wildcard_clear() {
        // Same as 2c but enrolled is add-wins: the wildcard clear loses to
        // the concurrent enroll, so the conflict persists.
        let spec = wildcard_clear_spec(ConvergencePolicy::AddWins);
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        assert!(check_pair(&spec, &cfg, enroll, rem).unwrap().is_some());
    }

    #[test]
    fn non_interacting_ops_do_not_conflict() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        assert!(check_pair(&spec, &cfg, enroll, enroll).unwrap().is_none());
    }

    #[test]
    fn mutual_exclusion_invariant_detects_lww_style_race() {
        let spec = mutex_spec();
        let cfg = AnalysisConfig::default();
        let begin = spec.operation("begin").unwrap();
        let finish = spec.operation("finish").unwrap();
        // begin ∥ finish: active contested (true vs false), add-wins keeps
        // it true while finished also becomes true → violation.
        let w = check_pair(&spec, &cfg, begin, finish).unwrap();
        assert!(w.is_some());
        assert!(!w.unwrap().contested.is_empty());
    }

    #[test]
    fn value_invariant_conflict_detected_by_sat_path() {
        let spec = stock_spec();
        let cfg = AnalysisConfig::default();
        let buy = spec.operation("buy").unwrap();
        let w = check_pair(&spec, &cfg, buy, buy)
            .unwrap()
            .expect("buy ∥ buy conflicts");
        // Witness: pre-stock 1, both decrements => -1.
        let inv = &spec.invariants[0];
        assert!(w.pre.eval(inv).unwrap());
        assert!(!w.merged.eval(inv).unwrap());
    }

    #[test]
    fn symmetry_reduction_matches_the_full_product() {
        let cfg = AnalysisConfig::default();
        for spec in [
            tournament_mini(),
            figure_2b_spec(),
            wildcard_clear_spec(ConvergencePolicy::RemWins),
            wildcard_clear_spec(ConvergencePolicy::AddWins),
            mutex_spec(),
            stock_spec(),
            featured_constant_effect_spec(),
            featured_constant_invariant_spec(),
        ] {
            assert_reduction_is_exact(&spec, &cfg);
        }
    }

    #[test]
    fn element_constants_fall_back_to_the_full_product() {
        // Both pairs conflict only when `rem_tourn` removes Tournament#2.
        // One representative per symmetry class would bind `t` to
        // Tournament#1 and miss it, so the constant must force the full
        // product, whose verdict and witness the check must reproduce.
        let cfg = AnalysisConfig::default();
        for (spec, op2, label) in [
            (
                featured_constant_effect_spec(),
                "feature_second",
                "rem_tourn(Tournament#2) ∥ feature_second()",
            ),
            (
                featured_constant_invariant_spec(),
                "feature",
                "rem_tourn(Tournament#2) ∥ feature(Tournament#2)",
            ),
        ] {
            let universe = build_universe(&spec, cfg.universe_per_sort);
            let rem = spec.operation("rem_tourn").unwrap();
            let other = spec.operation(op2).unwrap();
            let reps = representatives(rem, other, &universe);
            assert!(reps
                .iter()
                .all(|(a1, _)| a1[0].name.as_str() == "Tournament#1"));
            assert_eq!(
                query_instantiations(&spec, rem, other, &[], &universe),
                instantiations(rem, other, &universe),
                "{}",
                spec.name
            );

            let w = check_pair_in(&spec, &cfg, rem, other, &universe)
                .unwrap()
                .expect("rem_tourn(Tournament#2) breaks the invariant");
            assert_eq!(w.label(), label);
            let full = check_pair_full(&spec, &cfg, rem, other, &universe).unwrap();
            assert_eq!(format!("{:?}", Some(w)), format!("{full:?}"));
        }
    }
}
