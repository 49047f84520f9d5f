//! # same-different
//!
//! A production-quality Rust reproduction of *“A Same/Different Fault
//! Dictionary: An Extended Pass/Fail Fault Dictionary with Improved
//! Diagnostic Resolution”* (Pomeranz & Reddy, DATE 2008), together with
//! every substrate the paper's experiments need: gate-level netlists, the
//! single stuck-at fault model with collapsing, a parallel-pattern fault
//! simulator, PODEM-based ATPG for detection / 10-detection / diagnostic
//! test sets, and the three dictionary types with the paper's baseline
//! selection procedures.
//!
//! This crate re-exports the workspace members and offers [`Experiment`], a
//! small pipeline type that wires them together.
//!
//! | layer | crate | re-export |
//! |-------|-------|-----------|
//! | logic values | `sdd-logic` | [`logic`] |
//! | netlists | `sdd-netlist` | [`netlist`] |
//! | fault model | `sdd-fault` | [`fault`] |
//! | simulation | `sdd-sim` | [`sim`] |
//! | test generation | `sdd-atpg` | [`atpg`] |
//! | dictionaries | `sdd-core` | [`dict`] |
//! | binary persistence | `sdd-store` | [`store`] |
//! | volume diagnosis | `sdd-volume` | [`volume`] |
//! | diagnosis service | this crate | [`serve`] |
//!
//! # Quickstart
//!
//! ```
//! use same_different::dict::{select_baselines, Procedure1Options, SameDifferentDictionary};
//! use same_different::Experiment;
//!
//! // Build the pipeline on the embedded c17 benchmark.
//! let exp = Experiment::new(same_different::netlist::library::c17());
//! // Generate a diagnostic test set and fault-simulate it.
//! let tests = exp.diagnostic_tests(&Default::default());
//! let matrix = exp.simulate(&tests.tests);
//! // Select baselines (Procedure 1) and build the dictionary.
//! let selection = select_baselines(&matrix, &Procedure1Options::default());
//! let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
//! assert!(sd.indistinguished_pairs() <= matrix.pass_fail_partition().indistinguished_pairs());
//! ```

// `deny`, not `forbid`: the one FFI module (`reactor`) opts back in with a
// scoped `#![allow(unsafe_code)]`; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use sdd_atpg as atpg;
pub use sdd_core as dict;
pub use sdd_fault as fault;
pub use sdd_logic as logic;
pub use sdd_netlist as netlist;
pub use sdd_sim as sim;
pub use sdd_store as store;
pub use sdd_volume as volume;

pub mod patch;
pub mod reactor;
pub mod serve;
mod serve_reactor;

use sdd_atpg::{AtpgOptions, GeneratedTestSet};
use sdd_fault::{CollapsedFaults, FaultId, FaultUniverse};
use sdd_logic::BitVec;
use sdd_netlist::{Circuit, CombView};
use sdd_sim::ResponseMatrix;

/// A circuit wired up for dictionary experiments: its full-scan view, fault
/// universe, and collapsed fault list.
///
/// This is the fixture every example and benchmark in the workspace starts
/// from; it owns all derived structures so nothing borrows the circuit.
///
/// # Example
///
/// ```
/// use same_different::Experiment;
///
/// let exp = Experiment::new(same_different::netlist::library::c17());
/// assert_eq!(exp.faults().len(), 22);
/// assert_eq!(exp.view().outputs().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    circuit: Circuit,
    view: CombView,
    universe: FaultUniverse,
    collapsed: CollapsedFaults,
}

impl Experiment {
    /// Prepares `circuit` for experiments: builds the full-scan view,
    /// enumerates the fault universe, and equivalence-collapses it.
    pub fn new(circuit: Circuit) -> Self {
        let view = CombView::new(&circuit);
        let universe = FaultUniverse::enumerate(&circuit);
        let collapsed = universe.collapse_on(&circuit);
        Self {
            circuit,
            view,
            universe,
            collapsed,
        }
    }

    /// Prepares the named ISCAS'89-shaped synthetic benchmark
    /// (see [`netlist::generator`]).
    ///
    /// Returns `None` for unknown circuit names.
    pub fn iscas89(name: &str, seed: u64) -> Option<Self> {
        sdd_netlist::generator::iscas89(name, seed).map(Self::new)
    }

    /// The circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The full-scan combinational view.
    pub fn view(&self) -> &CombView {
        &self.view
    }

    /// The complete fault universe.
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The collapsed fault list — the paper's fault set `F`.
    pub fn faults(&self) -> &[FaultId] {
        self.collapsed.representatives()
    }

    /// The collapsing result (class map included).
    pub fn collapsed(&self) -> &CollapsedFaults {
        &self.collapsed
    }

    /// Fault-simulates `tests` over the collapsed fault list.
    pub fn simulate(&self, tests: &[BitVec]) -> ResponseMatrix {
        self.simulate_jobs(tests, 1)
    }

    /// [`simulate`](Self::simulate) fanned out over `jobs` worker threads —
    /// identical output for every `jobs` value (see
    /// [`ResponseMatrix::simulate_jobs`]).
    pub fn simulate_jobs(&self, tests: &[BitVec], jobs: usize) -> ResponseMatrix {
        ResponseMatrix::simulate_jobs(
            &self.circuit,
            &self.view,
            &self.universe,
            self.faults(),
            tests,
            jobs,
        )
    }

    /// Generates an `n`-detection test set for the collapsed fault list.
    pub fn detection_tests(&self, n: u32, options: &AtpgOptions) -> GeneratedTestSet {
        sdd_atpg::generate_detection(
            &self.circuit,
            &self.view,
            &self.universe,
            self.faults(),
            n,
            options,
        )
    }

    /// Generates a diagnostic test set for the collapsed fault list.
    pub fn diagnostic_tests(&self, options: &AtpgOptions) -> GeneratedTestSet {
        sdd_atpg::generate_diagnostic(
            &self.circuit,
            &self.view,
            &self.universe,
            self.faults(),
            options,
        )
    }

    /// Fault-simulates `tests` and builds all three dictionary types, with
    /// baselines selected by Procedure 1 and improved by Procedure 2 —
    /// the whole Table 6 inner loop in one call.
    ///
    /// `options.jobs` parallelizes both the fault simulation and the
    /// Procedure 1 restarts; the result is identical for every value.
    pub fn build_dictionaries(
        &self,
        tests: &[BitVec],
        options: &sdd_core::Procedure1Options,
    ) -> DictionarySuite {
        let matrix = self.simulate_jobs(tests, options.jobs);
        let pass_fail = sdd_core::PassFailDictionary::build(&matrix);
        let mut selection = sdd_core::select_baselines(&matrix, options);
        let procedure1_pairs = selection.indistinguished_pairs;
        let procedure2_pairs = sdd_core::replace_baselines(&matrix, &mut selection.baselines);
        let same_different =
            sdd_core::SameDifferentDictionary::build(&matrix, &selection.baselines);
        DictionarySuite {
            full: sdd_core::FullDictionary::new(matrix),
            pass_fail,
            same_different,
            procedure1_pairs,
            procedure2_pairs,
        }
    }
}

/// All three dictionaries over one test set, built by
/// [`Experiment::build_dictionaries`].
#[derive(Debug, Clone)]
pub struct DictionarySuite {
    /// The full dictionary (owns the response matrix).
    pub full: sdd_core::FullDictionary,
    /// The pass/fail dictionary.
    pub pass_fail: sdd_core::PassFailDictionary,
    /// The same/different dictionary after Procedures 1 and 2.
    pub same_different: sdd_core::SameDifferentDictionary,
    /// Indistinguished pairs after Procedure 1 alone (the paper's
    /// `s/d rand` column).
    pub procedure1_pairs: u64,
    /// Indistinguished pairs after Procedure 2 (the `s/d repl` column).
    pub procedure2_pairs: u64,
}

impl DictionarySuite {
    /// The underlying response matrix.
    pub fn matrix(&self) -> &sdd_sim::ResponseMatrix {
        self.full.matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_pipeline_on_c17() {
        let exp = Experiment::new(netlist::library::c17());
        assert_eq!(exp.circuit().name(), "c17");
        assert_eq!(exp.faults().len(), 22);
        let tests = exp.detection_tests(1, &AtpgOptions::default());
        let matrix = exp.simulate(&tests.tests);
        assert_eq!(matrix.fault_count(), 22);
        assert!(matrix.undetected_faults().is_empty());
    }

    #[test]
    fn iscas89_lookup() {
        assert!(Experiment::iscas89("s298", 0).is_some());
        assert!(Experiment::iscas89("bogus", 0).is_none());
    }

    #[test]
    fn dictionary_suite_orders_resolutions() {
        let exp = Experiment::new(netlist::library::c17());
        let tests = exp.diagnostic_tests(&AtpgOptions::default());
        let suite = exp.build_dictionaries(
            &tests.tests,
            &dict::Procedure1Options {
                calls1: 5,
                ..Default::default()
            },
        );
        let full = suite.full.indistinguished_pairs();
        let sd = suite.same_different.indistinguished_pairs();
        let pf = suite.pass_fail.indistinguished_pairs();
        assert!(full <= sd && sd <= pf);
        assert_eq!(sd, suite.procedure2_pairs);
        assert!(suite.procedure2_pairs <= suite.procedure1_pairs);
        assert_eq!(suite.matrix().fault_count(), 22);
    }
}
