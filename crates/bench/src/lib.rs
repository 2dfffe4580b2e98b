//! # alex-bench — experiment harness for the ALEX reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs`), plus
//! the gate binaries CI runs. This library holds the
//! shared runner: scenario construction, series collection, and plain-text
//! / CSV / JSON rendering so `EXPERIMENTS.md` numbers are regenerable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runner;
pub mod table;
