//! Gate-level logic and fault simulation.
//!
//! Three layers, from low to high:
//!
//! * [`reference`](mod@reference) — a deliberately simple, scalar, obviously-correct
//!   simulator used as ground truth in tests and for one-off faulty
//!   responses during diagnosis.
//! * [`Engine`] — the production simulator: levelized compiled fault-free
//!   simulation plus event-driven **parallel-pattern single-fault
//!   propagation** (PPSFP, 64 patterns per machine word), the workhorse
//!   behind every experiment in the workspace.
//! * [`ResponseMatrix`] — the distilled result dictionaries need: for every
//!   test, the partition of faults into *response classes* (faults with
//!   identical output vectors), with class 0 always the fault-free response.
//!   This is information-lossless for every dictionary-resolution question
//!   while using `O(k·n)` words instead of `O(k·n·m)` bits.
//!
//! # Example
//!
//! ```
//! use sdd_fault::FaultUniverse;
//! use sdd_netlist::{library, CombView};
//! use sdd_sim::ResponseMatrix;
//! use sdd_logic::BitVec;
//!
//! let c17 = library::c17();
//! let view = CombView::new(&c17);
//! let universe = FaultUniverse::enumerate(&c17);
//! let collapsed = universe.collapse_on(&c17);
//! let tests: Vec<BitVec> = vec!["10111".parse()?, "01100".parse()?];
//! let matrix = ResponseMatrix::simulate(&c17, &view, &universe, collapsed.representatives(), &tests);
//! assert_eq!(matrix.test_count(), 2);
//! // Class 0 is the fault-free response; a fault is detected by a test
//! // exactly when its class is nonzero there.
//! # Ok::<(), sdd_logic::ParseBitVecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compactor;
mod cone;
mod corruption;
pub mod deductive;
pub mod eco;
mod engine;
mod parallel;
mod partition;
pub mod reference;
mod response;
mod tester;

pub use compactor::SpaceCompactor;
pub use cone::{contiguous_ranges, OutputCones};
pub use corruption::{CorruptionModel, TruncatedLog};
pub use eco::{EcoCircuits, EcoDelta, EcoPass};
pub use engine::{Engine, FaultEffect};
pub use parallel::available_jobs;
pub use partition::Partition;
pub use response::ResponseMatrix;
pub use tester::{FailEntry, FailLog, Observation, ScanChains};
