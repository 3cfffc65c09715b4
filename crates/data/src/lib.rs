//! # ccube-data — workload generators for the C-Cubing experiments
//!
//! Reproduces the paper's data-generation knobs:
//!
//! * [`synthetic`] — the synthetic generator parameterized by `T` (tuples),
//!   `D` (dimensions), `C` (cardinality), `S` (Zipf skew), as used in
//!   Figs 3–6 and 8–10.
//! * [`zipf`] — the underlying Zipf sampler (`S = 0` ⇒ uniform).
//! * [`rules`] — dependence rules and the dependence measure `R` of
//!   Section 5.3 (`R = -Σ log(1 - pruning_power)`), for Figs 12–15.
//! * [`weather`] — a surrogate for the SEP83L synoptic weather dataset with
//!   the paper's exact schema, cardinalities, skew and inter-dimension
//!   dependences (Figs 7, 11, 16, 17); the [`weather`] module doc gives
//!   the substitution rationale.
//! * [`io`] — a minimal text format for saving/loading encoded tables.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod io;
pub mod rules;
pub mod synthetic;
pub mod weather;
pub mod zipf;

pub use rules::{DependencyRule, RuleSet};
pub use synthetic::SyntheticSpec;
pub use weather::WeatherSpec;
pub use zipf::Zipf;
