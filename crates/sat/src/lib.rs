//! A miniature CDCL SAT solver.
//!
//! Test generation is a satisfiability question: "is there an input
//! assignment under which the faulty circuit's output differs from the
//! fault-free one?" The [`sdd-atpg`] crate encodes that *miter* as CNF and
//! asks this solver. The solver is conflict-driven: it learns a clause
//! from every conflict (1-UIP) and jumps back to where that clause
//! asserts, branches by VSIDS activity with saved phases, and restarts on
//! the Luby sequence. The faults PODEM abandons are hard for chronological
//! backtracking; with learning, and the miter's path-sensitization
//! clauses, each settles in milliseconds. Every choice is deterministic,
//! so a formula always gets the same model. The solver stays small and
//! dependency-free: no preprocessing, and learned clauses are never
//! deleted, since the miters ATPG sends settle in milliseconds.
//!
//! # Example
//!
//! ```
//! use sdd_sat::{Cnf, Lit, Outcome, Solver};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.fresh();
//! let b = cnf.fresh();
//! cnf.clause([a.positive(), b.positive()]); // a ∨ b
//! cnf.clause([a.negative()]);               // ¬a
//! match Solver::new(cnf).solve() {
//!     Outcome::Sat(model) => {
//!         assert!(!model[a.index()]);
//!         assert!(model[b.index()]);
//!     }
//!     Outcome::Unsat => unreachable!(),
//! }
//! ```
//!
//! [`sdd-atpg`]: https://example.invalid/same-different

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod solver;

pub use solver::{Cnf, Lit, Outcome, Solver, Var};
