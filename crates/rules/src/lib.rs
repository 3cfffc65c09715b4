//! # ccube-rules — closed rules (Section 6.2)
//!
//! The closed cube losslessly compresses the full cube, and its store,
//! [`ClosedCube`], answers the count of any cube cell through
//! [`ClosedCube::query`] — the machinery behind the paper's claim that
//! closed cubes preserve roll-up/drill-down semantics. [`mine_rules`] reads
//! any such store (one filled by a cuber, or a session's materialized cube
//! kept current under ingest) and extracts **closed rules**
//! `a_c1, …, a_ci → a_t1, …, a_tj` (Section 6.2): whenever a cell binds the
//! condition values, it must also bind the target values. Rules are derived
//! per closed cell from a minimal generator (greedy removal of redundant
//! bound dimensions), decomposed into single-target form and deduplicated —
//! yielding the compact representation the paper recommends over
//! lower-bound enumeration.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ccube_core::cell::{Cell, STAR};
use ccube_core::fxhash::FxHashSet;
use ccube_core::ClosedCube;

/// One closed rule: if a cell binds every `(dim, value)` in `conditions`, it
/// must also bind `target` (Section 6.2). Stored in single-target form;
/// multi-target rules are the conjunction of their single-target parts.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClosedRule {
    /// Condition bindings, ascending by dimension.
    pub conditions: Vec<(usize, u32)>,
    /// Implied binding.
    pub target: (usize, u32),
}

impl std::fmt::Display for ClosedRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (d, v)) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{d}={v}")?;
        }
        write!(f, " -> d{}={}", self.target.0, self.target.1)
    }
}

/// Summary statistics of a rule-mining run (the paper's Section 6.2 metric:
/// 462k closed cells vs 57k rules on the weather data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Number of closed cells examined.
    pub closed_cells: usize,
    /// Number of distinct single-target rules mined.
    pub rules: usize,
    /// Closed cells that are their own minimal generator (no rule derived).
    pub self_generators: usize,
}

impl RuleStats {
    /// `rules / closed_cells` — the paper reports ≈ 0.12 on weather data.
    pub fn compaction_ratio(&self) -> f64 {
        if self.closed_cells == 0 {
            0.0
        } else {
            self.rules as f64 / self.closed_cells as f64
        }
    }
}

/// Mine the deduplicated, subsumption-pruned single-target closed rules of
/// `cube`.
///
/// For every closed cell a *minimal generator* is computed by greedily
/// dropping bound dimensions whose removal keeps the tuple group intact
/// (checked through the cube's own lossless queries — no raw-data access).
/// The bindings outside the generator are implied by it, giving rules
/// `generator → implied-binding`. A final pass removes every rule whose
/// conditions are a superset of another rule with the same target — the
/// redundancy that makes rule sets "more compact … since there are many
/// lower-bound and upper-bound pairs sharing the same closed rule"
/// (Section 6.2).
pub fn mine_rules(cube: &ClosedCube) -> (Vec<ClosedRule>, RuleStats) {
    let mut seen: FxHashSet<ClosedRule> = FxHashSet::default();
    let mut rules = Vec::new();
    let mut stats = RuleStats::default();
    for (cell, count) in cube.iter() {
        stats.closed_cells += 1;
        let bound: Vec<(usize, u32)> = (0..cell.len())
            .filter_map(|d| (cell[d] != STAR).then_some((d, cell[d])))
            .collect();
        // Greedy minimal generator: drop any binding whose removal keeps the
        // recovered count equal (same count ⇒ same tuple group ⇒ same
        // closure). One scratch probe cell mutated in place per trial
        // (`unbind` to test a removal, `bind_mut` to back out) instead of a
        // fresh candidate vector + cell allocation per step — this loop runs
        // once per binding per closed cell.
        let mut generator = bound.clone();
        let mut probe = Cell::from_bindings(cell.len(), &generator);
        let mut i = 0;
        while i < generator.len() {
            if generator.len() == 1 {
                break; // keep at least one binding as the condition
            }
            let (d, v) = generator[i];
            probe.unbind(d);
            if cube.query(probe.values()) == Some(count) {
                generator.remove(i);
            } else {
                probe.bind_mut(d, v);
                i += 1;
            }
        }
        let implied: Vec<(usize, u32)> = bound
            .iter()
            .copied()
            .filter(|b| !generator.contains(b))
            .collect();
        if implied.is_empty() {
            stats.self_generators += 1;
            continue;
        }
        for t in implied {
            let rule = ClosedRule {
                conditions: generator.clone(),
                target: t,
            };
            if seen.insert(rule.clone()) {
                rules.push(rule);
            }
        }
    }
    let rules = prune_subsumed(rules);
    stats.rules = rules.len();
    (rules, stats)
}

/// Drop every rule implied by a weaker one: `(S → t)` subsumes `(C → t)`
/// whenever `S ⊂ C`. Conditions are short (≤ D bindings), so subset
/// enumeration with a hash lookup is cheap.
fn prune_subsumed(rules: Vec<ClosedRule>) -> Vec<ClosedRule> {
    let index: FxHashSet<ClosedRule> = rules.iter().cloned().collect();
    let mut kept: Vec<ClosedRule> = rules
        .into_iter()
        .filter(|rule| {
            let n = rule.conditions.len();
            if n <= 1 {
                return true;
            }
            // Every proper non-empty subset of the conditions.
            for bits in 1..(1u32 << n) - 1 {
                let sub: Vec<(usize, u32)> = rule
                    .conditions
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| bits & (1 << i) != 0)
                    .map(|(_, &b)| b)
                    .collect();
                let probe = ClosedRule {
                    conditions: sub,
                    target: rule.target,
                };
                if index.contains(&probe) {
                    return false;
                }
            }
            true
        })
        .collect();
    kept.sort();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::naive::naive_closed_counts;
    use ccube_core::{Table, TableBuilder};
    use ccube_data::{DependencyRule, RuleSet, SyntheticSpec};

    fn cube_of(t: &Table, min_sup: u64) -> ClosedCube {
        ClosedCube::new(t.dims(), min_sup, naive_closed_counts(t, min_sup))
    }

    #[test]
    fn functional_dependence_yields_rules() {
        // dim2 = dim0 (a perfect dependence): every closed cell binding dim0
        // also binds dim2, and rules d0=v -> d2=v (or generators through
        // dim2) must appear.
        let mut b = TableBuilder::new(3);
        for i in 0..12u32 {
            b.push_row(&[i % 3, i % 2, i % 3]);
        }
        let t = b.build().unwrap();
        let cube = cube_of(&t, 1);
        let (rules, stats) = mine_rules(&cube);
        assert!(!rules.is_empty());
        assert_eq!(stats.rules, rules.len());
        // Every rule must actually hold on the closed cube.
        for rule in &rules {
            for (cell, _) in cube.iter() {
                if rule.conditions.iter().all(|&(d, v)| cell[d] == v) {
                    assert_eq!(
                        cell[rule.target.0], rule.target.1,
                        "rule {rule} violated by {cell:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn independent_uniform_data_yields_few_rules() {
        let t = SyntheticSpec::uniform(200, 3, 4, 0.0, 5).generate();
        let cube = cube_of(&t, 4);
        let (_, stats) = mine_rules(&cube);
        // Most iceberg-surviving cells in independent data are their own
        // generators.
        assert!(
            stats.compaction_ratio() < 0.5,
            "ratio {}",
            stats.compaction_ratio()
        );
    }

    #[test]
    fn rules_more_compact_than_cells_under_dependence() {
        let cards = vec![6u32; 4];
        let dep = RuleSet {
            rules: vec![
                DependencyRule {
                    antecedent: vec![(0, 0), (1, 0)],
                    target_dim: 2,
                    target_value: 3,
                },
                DependencyRule {
                    antecedent: vec![(0, 1)],
                    target_dim: 3,
                    target_value: 2,
                },
            ],
        };
        let t = SyntheticSpec {
            tuples: 400,
            cards,
            skews: vec![1.0; 4],
            seed: 8,
            rules: Some(dep),
        }
        .generate();
        let cube = cube_of(&t, 2);
        let (rules, stats) = mine_rules(&cube);
        assert!(stats.rules < stats.closed_cells);
        assert!(!rules.is_empty());
    }

    #[test]
    fn display_format() {
        let r = ClosedRule {
            conditions: vec![(0, 1), (1, 2)],
            target: (2, 3),
        };
        assert_eq!(r.to_string(), "d0=1, d1=2 -> d2=3");
    }

    #[test]
    fn empty_cube_no_rules() {
        let cube = ClosedCube::new(3, 1, Vec::<(Cell, u64)>::new());
        let (rules, stats) = mine_rules(&cube);
        assert!(rules.is_empty());
        assert_eq!(stats.closed_cells, 0);
        assert_eq!(stats.compaction_ratio(), 0.0);
    }
}
