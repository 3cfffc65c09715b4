//! # ccube-baselines — BUC and QC-DFS
//!
//! The two bottom-up baselines the paper positions C-Cubing against:
//!
//! * [`buc()`] — **BUC** (Beyer & Ramakrishnan, SIGMOD'99): bottom-up iceberg
//!   cubing by recursive counting-sort partitioning with Apriori pruning
//!   (Section 2.1.1 of the C-Cubing paper).
//! * [`qcdfs`] — **QC-DFS** (Lakshmanan et al., VLDB'02): the BUC-derived
//!   depth-first search that emits quotient-cube *upper bounds* (= closed
//!   cells), checking closedness by re-scanning the raw data partition
//!   (Section 2.2.1). This is the raw-data-based checking approach whose
//!   scanning overhead motivates aggregation-based checking.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buc;
pub mod qcdfs;

pub use buc::buc;
pub use qcdfs::qc_dfs;
