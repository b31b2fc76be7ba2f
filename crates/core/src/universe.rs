//! Small-scope universe construction and operation-parameter
//! instantiation (the "test cases" the paper generates with Z3).

use ipa_solver::Universe;
use ipa_spec::{AppSpec, Atom, Constant, Operation, Sort, Term};

/// Build the analysis universe: `per_sort` distinguished elements for every
/// sort of the specification. The analysis default is two per sort, which
/// exercises both the aliased (`t1 == t2`) and distinct (`t1 != t2`) case
/// of any pair of same-sorted parameters. It does not cover three pairwise
/// distinct same-sorted parameters, such as `do_match(p, q, t)` racing
/// `rem_player(r)` with `p`, `q` and `r` all different; that needs
/// `per_sort >= 3`.
pub fn build_universe(spec: &AppSpec, per_sort: usize) -> Universe {
    let mut u = Universe::new();
    for sort in &spec.sorts {
        for i in 1..=per_sort {
            u.add(element(sort, i));
        }
    }
    u
}

/// The `i`-th distinguished element of a sort (1-based).
pub fn element(sort: &Sort, i: usize) -> Constant {
    Constant::new(format!("{}#{}", sort.name(), i), sort.clone())
}

/// An instantiation of a pair's parameters: `(args1, args2)`.
pub(crate) type PairArgs = (Vec<Constant>, Vec<Constant>);

/// The instantiations of `op1 ∥ op2` a pair query checks: one per
/// symmetry class ([`representatives`]), or the full product
/// ([`instantiations`]) when an invariant, `op1`, `op2` or one of
/// `variants` (operations the query grounds with the same arguments)
/// names a concrete element. Such a constant (`Term::Const`) tells the
/// elements of its sort apart, so a class may mix verdicts.
pub(crate) fn query_instantiations(
    spec: &AppSpec,
    op1: &Operation,
    op2: &Operation,
    variants: &[&Operation],
    universe: &Universe,
) -> Vec<PairArgs> {
    let names_element = |a: &Atom| a.args.iter().any(|t| matches!(t, Term::Const(_)));
    let mut named = false;
    for inv in &spec.invariants {
        inv.visit_atoms(&mut |a| named |= names_element(a));
    }
    named |= [op1, op2]
        .iter()
        .chain(variants)
        .flat_map(|op| op.all_effects())
        .any(|e| names_element(&e.atom));
    if named {
        instantiations(op1, op2, universe)
    } else {
        representatives(op1, op2, universe)
    }
}

/// One instantiation of the two operations' parameters per symmetry
/// class, in lexicographic order of element index.
///
/// When no invariant or operation names a concrete element, renaming the
/// elements within each sort maps a pair query to an equivalent one, so
/// every instantiation of a class gets the same verdict. The
/// representative of a class is its lexicographic minimum, the
/// restricted-growth form: reading `args1 ++ args2` left to right, each
/// parameter takes an element of its sort already used or the first
/// unused one. `enroll(p, t)` racing
/// `rem_tourn(t')` over two elements per sort gives 2 of the 8
/// instantiations of [`instantiations`]: `t == t'` and `t != t'`.
pub(crate) fn representatives(
    op1: &Operation,
    op2: &Operation,
    universe: &Universe,
) -> Vec<PairArgs> {
    let sorts = param_sorts(op1, op2);
    let mut out = Vec::new();
    grow(&sorts, universe, &mut Vec::new(), &mut out);
    split(op1, out)
}

/// Extend a restricted-growth prefix of element indices by every allowed
/// choice for the next parameter, depth first and in index order.
fn grow(
    sorts: &[&Sort],
    universe: &Universe,
    prefix: &mut Vec<usize>,
    out: &mut Vec<Vec<Constant>>,
) {
    let k = prefix.len();
    let Some(&sort) = sorts.get(k) else {
        out.push(
            prefix
                .iter()
                .zip(sorts)
                .map(|(&i, s)| universe.elements(s)[i].clone())
                .collect(),
        );
        return;
    };
    // The prefix uses elements 0..fresh of this sort.
    let fresh = prefix
        .iter()
        .zip(sorts)
        .filter(|(_, s)| **s == sort)
        .map(|(&i, _)| i + 1)
        .max()
        .unwrap_or(0);
    for i in 0..universe.size(sort).min(fresh + 1) {
        prefix.push(i);
        grow(sorts, universe, prefix, out);
        prefix.pop();
    }
}

/// Every instantiation of the two operations' parameters over the
/// universe: the cartesian product of per-parameter element choices, in
/// lexicographic order. The pair queries use it only when a constant
/// breaks the symmetry; the tests use it as the oracle for
/// [`representatives`].
pub(crate) fn instantiations(
    op1: &Operation,
    op2: &Operation,
    universe: &Universe,
) -> Vec<PairArgs> {
    let mut combos: Vec<Vec<Constant>> = vec![Vec::new()];
    for sort in param_sorts(op1, op2) {
        let elems = universe.elements(sort);
        let mut next = Vec::with_capacity(combos.len() * elems.len().max(1));
        for prefix in &combos {
            for e in elems {
                let mut p = prefix.clone();
                p.push(e.clone());
                next.push(p);
            }
        }
        combos = next;
    }
    split(op1, combos)
}

/// The sorts of `op1`'s parameters followed by `op2`'s.
fn param_sorts<'a>(op1: &'a Operation, op2: &'a Operation) -> Vec<&'a Sort> {
    op1.params
        .iter()
        .chain(&op2.params)
        .map(|p| &p.sort)
        .collect()
}

/// Split each concatenated argument list into `op1`'s and `op2`'s parts.
fn split(op1: &Operation, combos: Vec<Vec<Constant>>) -> Vec<PairArgs> {
    let n1 = op1.params.len();
    combos
        .into_iter()
        .map(|mut v| {
            let rest = v.split_off(n1);
            (v, rest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::{AppSpecBuilder, Var};
    use std::collections::BTreeSet;

    fn spec() -> AppSpec {
        AppSpecBuilder::new("t")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("in_match", &["Player", "Player", "Tournament"])
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .operation(
                "do_match",
                &[("p", "Player"), ("q", "Player"), ("t", "Tournament")],
                |op| op.set_true("in_match", &["p", "q", "t"]),
            )
            .build()
            .unwrap()
    }

    /// The element indices of an instantiation, `args1 ++ args2`.
    fn indices(u: &Universe, (args1, args2): &PairArgs) -> Vec<usize> {
        args1
            .iter()
            .chain(args2)
            .map(|c| u.elements(&c.sort).iter().position(|e| e == c).unwrap())
            .collect()
    }

    /// Every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..n {
                let mut q = p.clone();
                q.insert(at, n - 1);
                out.push(q);
            }
        }
        out
    }

    /// The orbit of an index vector under renaming the elements of each
    /// of the two sorts independently, sorted lexicographically.
    fn orbit(sorts: &[&Sort], idx: &[usize], per_sort: usize) -> BTreeSet<Vec<usize>> {
        let player = Sort::new("Player");
        let mut out = BTreeSet::new();
        for pp in permutations(per_sort) {
            for pt in permutations(per_sort) {
                let image = idx
                    .iter()
                    .zip(sorts)
                    .map(|(&i, s)| if **s == player { pp[i] } else { pt[i] })
                    .collect();
                out.insert(image);
            }
        }
        out
    }

    #[test]
    fn universe_has_per_sort_elements() {
        let u = build_universe(&spec(), 2);
        assert_eq!(u.size(&Sort::new("Player")), 2);
        assert_eq!(u.size(&Sort::new("Tournament")), 2);
        assert_eq!(u.total_size(), 4);
    }

    #[test]
    fn instantiations_cover_aliasing() {
        let s = spec();
        let u = build_universe(&s, 2);
        let enroll = s.operation("enroll").unwrap();
        let rem = s.operation("rem_tourn").unwrap();
        let inst = instantiations(enroll, rem, &u);
        // 2 (p) × 2 (t of enroll) × 2 (t of rem) = 8
        assert_eq!(inst.len(), 8);
        // Both the aliased (same tournament) and distinct cases exist.
        let aliased = inst.iter().filter(|(a1, a2)| a1[1] == a2[0]).count();
        let distinct = inst.iter().filter(|(a1, a2)| a1[1] != a2[0]).count();
        assert_eq!(aliased, 4);
        assert_eq!(distinct, 4);
    }

    #[test]
    fn zero_param_operations() {
        let op = Operation::new("noop", vec![], vec![]);
        let s = spec();
        let u = build_universe(&s, 2);
        let inst = instantiations(&op, &op, &u);
        assert_eq!(inst.len(), 1);
        assert!(inst[0].0.is_empty());
        let _ = Var::new("x", Sort::new("Player"));
    }

    #[test]
    fn representatives_keep_one_instantiation_per_aliasing_pattern() {
        let s = spec();
        let u = build_universe(&s, 2);
        let enroll = s.operation("enroll").unwrap();
        let rem = s.operation("rem_tourn").unwrap();
        let reps = representatives(enroll, rem, &u);
        // 2 of the 8: the tournaments aliased, then distinct.
        let shown: Vec<String> = reps
            .iter()
            .map(|(a1, a2)| format!("{} {} | {}", a1[0], a1[1], a2[0]))
            .collect();
        assert_eq!(
            shown,
            [
                "Player#1 Tournament#1 | Tournament#1",
                "Player#1 Tournament#1 | Tournament#2",
            ]
        );
    }

    #[test]
    fn zero_param_operations_have_one_representative() {
        let op = Operation::new("noop", vec![], vec![]);
        let u = build_universe(&spec(), 2);
        assert_eq!(representatives(&op, &op, &u), [(vec![], vec![])]);
    }

    #[test]
    fn each_orbit_has_one_representative_its_lexicographic_minimum() {
        let s = spec();
        let m = s.operation("do_match").unwrap();
        let enroll = s.operation("enroll").unwrap();
        let sorts = param_sorts(m, enroll);
        // Partitions of the three players into at most `per_sort` blocks,
        // times those of the two tournaments.
        for (per_sort, classes) in [(1, 1), (2, 4 * 2), (3, 5 * 2)] {
            let u = build_universe(&s, per_sort);
            let reps: Vec<Vec<usize>> = representatives(m, enroll, &u)
                .iter()
                .map(|r| indices(&u, r))
                .collect();
            assert_eq!(reps.len(), classes, "per_sort {per_sort}");
            assert!(
                reps.windows(2).all(|w| w[0] < w[1]),
                "representatives come in strictly increasing lexicographic order"
            );
            let all = instantiations(m, enroll, &u);
            assert_eq!(all.len(), per_sort.pow(5));
            for inst in &all {
                let orbit = orbit(&sorts, &indices(&u, inst), per_sort);
                let found: Vec<&Vec<usize>> = reps.iter().filter(|r| orbit.contains(*r)).collect();
                assert_eq!(found, [orbit.first().unwrap()], "{inst:?}");
            }
        }
    }
}
