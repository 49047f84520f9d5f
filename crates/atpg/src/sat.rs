//! SAT-based test generation.
//!
//! A test for fault `f` exists iff the *miter* formula is satisfiable:
//! encode the fault-free circuit and the faulty circuit (which differs only
//! in the fan-out cone of the fault site) over shared inputs, and require
//! some observed output to differ. This module Tseitin-encodes the miter
//! and asks the [`sdd_sat`] DPLL solver — a complete decision procedure, so
//! `Untestable` here is a redundancy *proof* with no backtrack-limit
//! caveat, and an independent oracle for [`Podem`](crate::Podem).

use std::collections::HashMap;

use sdd_fault::{Fault, FaultSite};
use sdd_logic::BitVec;
use sdd_netlist::{Circuit, CombView, Driver, GateKind, NetId};
use sdd_sat::{Cnf, Lit, Outcome, Solver, Var};

/// The verdict of SAT-based generation — complete, no aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// A test detecting the fault (one bit per view input).
    Test(BitVec),
    /// The miter is unsatisfiable: the fault is provably untestable.
    Untestable,
}

impl SatOutcome {
    /// The generated test, if any.
    pub fn test(&self) -> Option<&BitVec> {
        match self {
            SatOutcome::Test(t) => Some(t),
            SatOutcome::Untestable => None,
        }
    }
}

/// Generates a test for `fault` by solving the miter, or proves the fault
/// untestable.
///
/// # Example
///
/// ```
/// use sdd_atpg::sat::{generate_sat, SatOutcome};
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let universe = FaultUniverse::enumerate(&c17);
/// let outcome = generate_sat(&c17, &view, universe.fault(sdd_fault::FaultId(0)));
/// assert!(matches!(outcome, SatOutcome::Test(_)));
/// ```
pub fn generate_sat(circuit: &Circuit, view: &CombView, fault: Fault) -> SatOutcome {
    generate_sat_bounded(circuit, view, fault, None).expect("unbounded SAT always decides")
}

/// Like [`generate_sat`], but gives up after `max_backtracks` solver
/// backtracks (when `Some`), returning `None` — useful as a bounded
/// fallback inside larger flows where a hard miter must not stall ATPG.
pub fn generate_sat_bounded(
    circuit: &Circuit,
    view: &CombView,
    fault: Fault,
    max_backtracks: Option<usize>,
) -> Option<SatOutcome> {
    // The fan-out cone of the fault's effect origin: the only nets whose
    // faulty-machine value can differ.
    let origin = match fault.site {
        FaultSite::Stem(net) => net,
        FaultSite::Branch { gate, .. } => gate,
    };
    let mut in_cone = vec![false; circuit.net_count()];
    in_cone[origin.index()] = true;
    for &net in view.order() {
        if in_cone[net.index()] {
            continue;
        }
        if let Driver::Gate { inputs, .. } = circuit.driver(net) {
            if inputs.iter().any(|&s| in_cone[s.index()]) {
                in_cone[net.index()] = true;
            }
        }
    }
    let observed: Vec<usize> = view
        .outputs()
        .iter()
        .enumerate()
        .filter(|&(_, &o)| in_cone[o.index()])
        .map(|(pos, _)| pos)
        .collect();
    if observed.is_empty() {
        return Some(SatOutcome::Untestable); // no observation point in the cone
    }

    let mut cnf = Cnf::new();
    let good: Vec<Var> = (0..circuit.net_count()).map(|_| cnf.fresh()).collect();
    let mut faulty: HashMap<NetId, Var> = HashMap::new();
    for net in circuit.nets() {
        if in_cone[net.index()] {
            faulty.insert(net, cnf.fresh());
        }
    }

    // Good machine constraints for every gate.
    for &net in view.order() {
        if let Driver::Gate { kind, inputs } = circuit.driver(net) {
            let pins: Vec<Var> = inputs.iter().map(|&s| good[s.index()]).collect();
            encode_gate(&mut cnf, *kind, good[net.index()], &pins);
        }
    }

    // Faulty machine constraints for cone gates.
    let faulty_pin =
        |faulty: &HashMap<NetId, Var>, s: NetId| faulty.get(&s).copied().unwrap_or(good[s.index()]);
    for &net in view.order() {
        if !in_cone[net.index()] {
            continue;
        }
        let out = faulty[&net];
        match fault.site {
            FaultSite::Stem(s) if s == net => {
                // Stuck line: constant in the faulty machine.
                cnf.clause([out.lit(fault.stuck_at)]);
                continue;
            }
            _ => {}
        }
        if let Driver::Gate { kind, inputs } = circuit.driver(net) {
            let mut pins: Vec<Var> = inputs.iter().map(|&s| faulty_pin(&faulty, s)).collect();
            if let FaultSite::Branch { gate, pin } = fault.site {
                if gate == net {
                    // The stuck pin reads a constant: model with a frozen
                    // fresh variable.
                    let frozen = cnf.fresh();
                    cnf.clause([frozen.lit(fault.stuck_at)]);
                    pins[pin as usize] = frozen;
                }
            }
            encode_gate(&mut cnf, *kind, out, &pins);
        }
    }

    // Miter: at least one observed output differs.
    let mut differs = Vec::new();
    for &pos in &observed {
        let o = view.outputs()[pos];
        let g = good[o.index()];
        let f = faulty[&o];
        let d = cnf.fresh();
        encode_xor2(&mut cnf, d, g, f);
        differs.push(d.positive());
    }
    cnf.clause(differs);

    let solver = Solver::new(cnf);
    let outcome = match max_backtracks {
        Some(limit) => solver.solve_with_budget(limit)?,
        None => solver.solve(),
    };
    Some(match outcome {
        Outcome::Unsat => SatOutcome::Untestable,
        Outcome::Sat(model) => SatOutcome::Test(
            view.inputs()
                .iter()
                .map(|&i| model[good[i.index()].index()])
                .collect(),
        ),
    })
}

/// Tseitin constraints for `out ↔ kind(pins)`.
fn encode_gate(cnf: &mut Cnf, kind: GateKind, out: Var, pins: &[Var]) {
    match kind {
        GateKind::Buf => {
            cnf.clause([out.negative(), pins[0].positive()]);
            cnf.clause([out.positive(), pins[0].negative()]);
        }
        GateKind::Not => {
            cnf.clause([out.positive(), pins[0].positive()]);
            cnf.clause([out.negative(), pins[0].negative()]);
        }
        GateKind::And | GateKind::Nand => {
            // t = AND(pins); out = t or ¬t.
            let (this, that) = if kind == GateKind::And {
                (out.negative(), out.positive())
            } else {
                (out.positive(), out.negative())
            };
            for &pin in pins {
                cnf.clause([this, pin.positive()]);
            }
            let mut all: Vec<Lit> = pins.iter().map(|p| p.negative()).collect();
            all.push(that);
            cnf.clause(all);
        }
        GateKind::Or | GateKind::Nor => {
            let (this, that) = if kind == GateKind::Or {
                (out.positive(), out.negative())
            } else {
                (out.negative(), out.positive())
            };
            for &pin in pins {
                cnf.clause([this, pin.negative()]);
            }
            let mut any: Vec<Lit> = pins.iter().map(|p| p.positive()).collect();
            any.push(that);
            cnf.clause(any);
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain: acc = p0 ⊕ p1 ⊕ …; final equals out (or its inverse).
            let mut acc = pins[0];
            for &pin in &pins[1..] {
                let next = cnf.fresh();
                encode_xor2(cnf, next, acc, pin);
                acc = next;
            }
            if kind == GateKind::Xor {
                cnf.clause([out.negative(), acc.positive()]);
                cnf.clause([out.positive(), acc.negative()]);
            } else {
                cnf.clause([out.positive(), acc.positive()]);
                cnf.clause([out.negative(), acc.negative()]);
            }
        }
    }
}

/// Constraints for `d ↔ a ⊕ b`.
fn encode_xor2(cnf: &mut Cnf, d: Var, a: Var, b: Var) {
    cnf.clause([d.negative(), a.positive(), b.positive()]);
    cnf.clause([d.negative(), a.negative(), b.negative()]);
    cnf.clause([d.positive(), a.negative(), b.positive()]);
    cnf.clause([d.positive(), a.positive(), b.negative()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Podem, PodemOutcome};
    use sdd_fault::FaultUniverse;
    use sdd_netlist::library::{c17, demo_seq};
    use sdd_netlist::{generator, CircuitBuilder};
    use sdd_sim::reference;

    fn verify(circuit: &Circuit, view: &CombView, fault: Fault, test: &BitVec) {
        let good = reference::good_response(circuit, view, test);
        let bad = reference::faulty_response(circuit, view, fault, test);
        assert_ne!(good, bad, "{} not detected", fault.describe(circuit));
    }

    #[test]
    fn every_c17_fault_gets_a_valid_sat_test() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        for (_, fault) in universe.iter() {
            match generate_sat(&c, &view, fault) {
                SatOutcome::Test(test) => verify(&c, &view, fault, &test),
                SatOutcome::Untestable => panic!("{} is testable", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn sat_proves_redundancy() {
        let mut b = CircuitBuilder::new("red");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, vec![a]);
        let y = b.gate("y", GateKind::Or, vec![a, na]);
        b.output(y);
        let c = b.finish().unwrap();
        let view = CombView::new(&c);
        let fault = Fault {
            site: FaultSite::Stem(c.net("y").unwrap()),
            stuck_at: true,
        };
        assert_eq!(generate_sat(&c, &view, fault), SatOutcome::Untestable);
    }

    #[test]
    fn sat_and_podem_agree_on_testability() {
        // On seeded generated circuits of several profiles, compare the
        // complete SAT verdicts with PODEM under a generous backtrack
        // budget, and the bounded solver with the unbounded one. Every
        // test either engine returns must detect its fault.
        for (name, seed) in [("s208", 1), ("s208", 7), ("s298", 5), ("s386", 2)] {
            let c = generator::iscas89(name, seed).unwrap();
            let view = CombView::new(&c);
            let universe = FaultUniverse::enumerate(&c);
            let collapsed = universe.collapse_on(&c);
            let mut podem = Podem::new(&c, &view).with_backtrack_limit(50_000);
            let mut rng = sdd_logic::Prng::seed_from_u64(seed);
            let mut settled_within_budget = 0;
            for &id in collapsed.representatives() {
                let fault = universe.fault(id);
                let sat = generate_sat(&c, &view, fault);
                // A budget cut only ends the same deterministic search
                // early, so a verdict reached within it is the same one.
                if let Some(bounded) = generate_sat_bounded(&c, &view, fault, Some(4)) {
                    assert_eq!(bounded, sat, "{name}/{seed}: {}", fault.describe(&c));
                    settled_within_budget += 1;
                }
                let podem_outcome = podem.generate(fault, &mut rng);
                match (&sat, &podem_outcome) {
                    (SatOutcome::Test(t), PodemOutcome::Test(t2)) => {
                        verify(&c, &view, fault, t);
                        verify(&c, &view, fault, t2);
                    }
                    (SatOutcome::Untestable, PodemOutcome::Untestable) => {}
                    (SatOutcome::Test(t), PodemOutcome::Aborted) => {
                        // SAT out-muscled PODEM; still a valid test.
                        verify(&c, &view, fault, t);
                    }
                    (sat, podem) => panic!(
                        "{name}/{seed} {}: SAT {sat:?} vs PODEM {podem:?}",
                        fault.describe(&c)
                    ),
                }
            }
            assert!(
                settled_within_budget > 0,
                "{name}/{seed}: the small budget should settle some faults"
            );
        }
    }

    #[test]
    fn sequential_demo_faults() {
        let c = demo_seq();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let mut testable = 0;
        for (_, fault) in universe.iter() {
            if let SatOutcome::Test(test) = generate_sat(&c, &view, fault) {
                verify(&c, &view, fault, &test);
                testable += 1;
            }
        }
        assert!(testable > 0);
    }

    #[test]
    fn outcome_test_accessor() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let outcome = generate_sat(&c, &view, universe.fault(sdd_fault::FaultId(3)));
        assert!(outcome.test().is_some());
        assert!(SatOutcome::Untestable.test().is_none());
    }
}
