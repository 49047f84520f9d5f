//! Fault dictionaries for cause-effect defect diagnosis, centered on the
//! **same/different fault dictionary** of Pomeranz & Reddy (DATE 2008).
//!
//! Three dictionary types are provided, all built from a fault-simulation
//! [`ResponseMatrix`](sdd_sim::ResponseMatrix):
//!
//! * [`FullDictionary`] — stores the complete output vector of every fault
//!   under every test (`k·n·m` bits). Highest possible resolution.
//! * [`PassFailDictionary`] — one bit per fault and test: does the faulty
//!   output vector differ from the *fault-free* vector? (`k·n` bits.)
//! * [`SameDifferentDictionary`] — one bit per fault and test, but compared
//!   against a freely chosen per-test *baseline* output vector
//!   (`k·(n+m)` bits including baseline storage). With baselines selected
//!   by [`select_baselines`] (the paper's Procedure 1) and improved by
//!   [`replace_baselines`] (Procedure 2), it approaches — sometimes
//!   reaches — full-dictionary resolution at pass/fail-dictionary size.
//!
//! The [`diagnose`] module turns any of the three into a working
//! cause-effect diagnosis engine, including a two-phase
//! dictionary-plus-simulation mode.
//!
//! # Example
//!
//! ```
//! use sdd_core::{
//!     select_baselines, PassFailDictionary, Procedure1Options, SameDifferentDictionary,
//! };
//!
//! // The paper's own 4-fault worked example (Tables 1–5):
//! let matrix = sdd_core::example::paper_example();
//! let pass_fail = PassFailDictionary::build(&matrix);
//! assert_eq!(pass_fail.indistinguished_pairs(), 1); // f2,f3 left
//!
//! let selection = select_baselines(&matrix, &Procedure1Options::default());
//! let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
//! assert_eq!(sd.indistinguished_pairs(), 0); // all pairs distinguished
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
pub mod diagnose;
pub mod example;
mod full;
pub mod io;
pub mod multi;
mod ordering;
mod pass_fail;
mod procedure1;
mod procedure2;
mod prune;
mod same_different;
mod sizes;
pub mod slat;

pub use budget::Budget;
pub use full::FullDictionary;
pub use ordering::{order_tests_for_resolution, resolution_profile};
pub use pass_fail::PassFailDictionary;
pub use procedure1::{
    score_candidates, score_candidates_into, select_baselines, select_baselines_budgeted,
    select_baselines_once, BaselineSelection, Procedure1Options, ScoreScratch,
};
pub use procedure2::{
    refresh_baselines_budgeted, replace_baselines, replace_baselines_budgeted,
    replace_baselines_pass, ReplacementOutcome,
};
pub use prune::prune_tests;
pub use same_different::SameDifferentDictionary;
pub use sizes::DictionarySizes;
