//! Experiment harness for the same-different workspace.
//!
//! The [`table6`] module regenerates the paper's Table 6 — per circuit and
//! test-set type: the test count, the sizes of the full / pass-fail /
//! same-different dictionaries, and the fault pairs left indistinguished by
//! each (with Procedure 1 alone and after Procedure 2). The binaries wrap
//! it:
//!
//! * `cargo run -p sdd-bench --release --bin table6 [-- --circuit s953 --ttype 10det]`
//! * `cargo run -p sdd-bench --release --bin ablations`
//!
//! Micro-benchmarks for the underlying engines live in `benches/engines.rs`,
//! on a dependency-free harness: `cargo bench -p sdd-bench --bench engines`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table6;

pub use table6::{run_row, Table6Config, Table6Row, TestSetType};
