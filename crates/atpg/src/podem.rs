//! PODEM: path-oriented decision making, the classic deterministic test
//! generation algorithm (Goel, 1981), over the five-valued D-algebra.
//!
//! PODEM searches the space of primary-input assignments directly: it picks
//! an *objective* (activate the fault, then drive its effect toward an
//! output), *backtraces* the objective to an unassigned input, assigns it,
//! implies by forward simulation, and backtracks on conflicts. The search is
//! complete: with an unlimited backtrack budget, `Untestable` is a proof of
//! redundancy.

use sdd_logic::Prng;

use sdd_fault::{Fault, FaultSite};
use sdd_logic::{BitVec, V5};
use sdd_netlist::{Circuit, CombView, Driver, GateKind, NetId};

/// How unassigned inputs are filled once a test is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillMode {
    /// Fill with `0` — deterministic, reproducible tests.
    #[default]
    Zero,
    /// Fill randomly — raises the chance of fortuitous extra detections,
    /// and lets repeated calls produce *different* tests for the same fault
    /// (the lever n-detection generation relies on).
    Random,
}

/// The outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test detecting the fault (one bit per view input).
    Test(BitVec),
    /// The decision tree was exhausted: the fault is untestable (redundant).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

impl PodemOutcome {
    /// The generated test, if any.
    pub fn test(&self) -> Option<&BitVec> {
        match self {
            PodemOutcome::Test(t) => Some(t),
            _ => None,
        }
    }
}

/// A reusable PODEM test generator bound to one circuit view.
///
/// # Example
///
/// ```
/// use sdd_atpg::{Podem, PodemOutcome};
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let universe = FaultUniverse::enumerate(&c17);
/// let mut podem = Podem::new(&c17, &view);
/// let mut rng = sdd_logic::Prng::seed_from_u64(0);
/// let fault = universe.fault(sdd_fault::FaultId(0));
/// match podem.generate(fault, &mut rng) {
///     PodemOutcome::Test(test) => assert_eq!(test.len(), 5),
///     other => panic!("c17 faults are testable, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Podem<'a> {
    circuit: &'a Circuit,
    view: &'a CombView,
    backtrack_limit: usize,
    fill: FillMode,
    randomize_backtrace: bool,
    value: Vec<V5>,
    /// The input assignment `value` was last implied from.
    implied: Vec<Option<bool>>,
    /// Gate sinks of each net, one entry per pin.
    fanout: Vec<Vec<NetId>>,
    /// Gates awaiting re-evaluation, bucketed by level, and their marks.
    pending: Vec<Vec<NetId>>,
    queued: Vec<bool>,
    reach: Vec<bool>,
    /// The live D-frontier of the current implication, in view order.
    frontier: Vec<NetId>,
}

#[derive(Debug)]
struct Decision {
    input: usize,
    value: bool,
    flipped: bool,
}

impl<'a> Podem<'a> {
    /// Creates a generator with the default backtrack limit (`4096`) and
    /// zero fill.
    pub fn new(circuit: &'a Circuit, view: &'a CombView) -> Self {
        let mut fanout = vec![Vec::new(); circuit.net_count()];
        for &net in view.order() {
            if let Driver::Gate { inputs, .. } = circuit.driver(net) {
                for &source in inputs {
                    fanout[source.index()].push(net);
                }
            }
        }
        Self {
            circuit,
            view,
            backtrack_limit: 4096,
            fill: FillMode::Zero,
            randomize_backtrace: false,
            value: vec![V5::X; circuit.net_count()],
            implied: vec![None; view.inputs().len()],
            fanout,
            pending: vec![Vec::new(); view.depth() as usize + 1],
            queued: vec![false; circuit.net_count()],
            reach: vec![false; circuit.net_count()],
            frontier: Vec::new(),
        }
    }

    /// Sets the backtrack budget after which a run gives up as
    /// [`PodemOutcome::Aborted`].
    pub fn with_backtrack_limit(mut self, limit: usize) -> Self {
        self.backtrack_limit = limit;
        self
    }

    /// Sets how don't-care inputs are filled in generated tests.
    pub fn with_fill(mut self, fill: FillMode) -> Self {
        self.fill = fill;
        self
    }

    /// Randomizes objective and backtrace choices. Combined with
    /// [`FillMode::Random`], repeated runs on the same fault explore
    /// different tests.
    pub fn with_randomized_search(mut self, on: bool) -> Self {
        self.randomize_backtrace = on;
        self
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&mut self, fault: Fault, rng: &mut Prng) -> PodemOutcome {
        match self.generate_cube(fault, rng) {
            CubeOutcome::Cube(cube) => PodemOutcome::Test(self.fill_cube(&cube, rng)),
            CubeOutcome::Untestable => PodemOutcome::Untestable,
            CubeOutcome::Aborted => PodemOutcome::Aborted,
        }
    }

    /// Attempts to generate a *test cube* for `fault`: the partial input
    /// assignment PODEM actually needed, with don't-cares left unassigned.
    /// Cubes feed static compaction ([`merge_cubes`]): compatible cubes
    /// merge into one pattern that detects both targets.
    pub fn generate_cube(&mut self, fault: Fault, rng: &mut Prng) -> CubeOutcome {
        let input_count = self.view.inputs().len();
        let mut assignment: Vec<Option<bool>> = vec![None; input_count];
        let mut decisions: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;

        // With every input unassigned, every net is X: each operation table
        // maps all-X operands to X, and forcing X leaves X.
        self.value.fill(V5::X);
        self.implied.fill(None);
        loop {
            self.imply(fault, &assignment);
            if self.detected_at_output() {
                return CubeOutcome::Cube(TestCube(assignment));
            }
            let feasible = self.feasible(fault);
            let objective = if feasible {
                self.objective(fault, rng)
            } else {
                None
            };
            match objective {
                Some((net, target)) => {
                    let (input, value) = self.backtrace(net, target, rng);
                    if assignment[input].is_some() {
                        // Defensive: should not happen; treat as conflict.
                        if !Self::backtrack(&mut decisions, &mut assignment) {
                            return CubeOutcome::Untestable;
                        }
                        backtracks += 1;
                        if backtracks > self.backtrack_limit {
                            return CubeOutcome::Aborted;
                        }
                        continue;
                    }
                    assignment[input] = Some(value);
                    decisions.push(Decision {
                        input,
                        value,
                        flipped: false,
                    });
                }
                None => {
                    // Conflict (or no live objective): backtrack.
                    if !Self::backtrack(&mut decisions, &mut assignment) {
                        return CubeOutcome::Untestable;
                    }
                    backtracks += 1;
                    if backtracks > self.backtrack_limit {
                        return CubeOutcome::Aborted;
                    }
                }
            }
        }
    }

    /// Pops flipped decisions, flips the deepest unflipped one. Returns
    /// `false` when the tree is exhausted.
    fn backtrack(decisions: &mut Vec<Decision>, assignment: &mut [Option<bool>]) -> bool {
        while let Some(mut d) = decisions.pop() {
            assignment[d.input] = None;
            if !d.flipped {
                d.value = !d.value;
                d.flipped = true;
                assignment[d.input] = Some(d.value);
                decisions.push(d);
                return true;
            }
        }
        false
    }

    /// Five-valued implication with `fault` injected. Brings `value` up to
    /// date with `assignment` by re-evaluating only the fanout cones of the
    /// inputs whose assignment changed since the last implication: level by
    /// level, and past a gate only when its value changed. Every gate is
    /// evaluated after all of its fan-ins, so the values equal a full
    /// forward simulation in view order.
    fn imply(&mut self, fault: Fault, assignment: &[Option<bool>]) {
        for (pos, &bit) in assignment.iter().enumerate() {
            if self.implied[pos] != bit {
                self.implied[pos] = bit;
                self.update(fault, self.view.inputs()[pos], assignment);
            }
        }
        // A sink's level exceeds each of its fan-ins', so no gate is queued
        // at or below the level being drained.
        for level in 1..self.pending.len() {
            let mut gates = std::mem::take(&mut self.pending[level]);
            for &net in &gates {
                self.queued[net.index()] = false;
                self.update(fault, net, assignment);
            }
            gates.clear();
            self.pending[level] = gates;
        }
    }

    /// Re-evaluates `net` and queues its sinks if its value changed.
    fn update(&mut self, fault: Fault, net: NetId, assignment: &[Option<bool>]) {
        let v = self.evaluate(fault, net, assignment);
        if v == self.value[net.index()] {
            return;
        }
        self.value[net.index()] = v;
        for &sink in &self.fanout[net.index()] {
            if !self.queued[sink.index()] {
                self.queued[sink.index()] = true;
                self.pending[self.view.level(sink) as usize].push(sink);
            }
        }
    }

    /// The value of `net` under the current values of its fan-ins (or, for
    /// an input, its assignment), with `fault` injected.
    fn evaluate(&self, fault: Fault, net: NetId, assignment: &[Option<bool>]) -> V5 {
        let v = match self.circuit.driver(net) {
            Driver::Input | Driver::Dff { .. } => {
                let pos = self.view.input_position(net).expect("source is an input");
                match assignment[pos] {
                    Some(bit) => V5::from_bool(bit),
                    None => V5::X,
                }
            }
            Driver::Gate { kind, inputs } => {
                let raw = match kind {
                    GateKind::And | GateKind::Nand => self.fold_pins(fault, net, inputs, V5::and),
                    GateKind::Or | GateKind::Nor => self.fold_pins(fault, net, inputs, V5::or),
                    GateKind::Xor | GateKind::Xnor => self.fold_pins(fault, net, inputs, V5::xor),
                    GateKind::Not | GateKind::Buf => self.pin_value(fault, net, 0, inputs[0]),
                };
                if kind.inverts() {
                    raw.not()
                } else {
                    raw
                }
            }
        };
        match fault.site {
            FaultSite::Stem(s) if s == net => force(v, fault.stuck_at),
            _ => v,
        }
    }

    /// Combines a gate's pin values left to right with `op`, ignoring the
    /// gate's output inversion.
    fn fold_pins(
        &self,
        fault: Fault,
        gate: NetId,
        inputs: &[NetId],
        op: impl Fn(V5, V5) -> V5,
    ) -> V5 {
        let mut acc = self.pin_value(fault, gate, 0, inputs[0]);
        for (pin, &source) in inputs.iter().enumerate().skip(1) {
            acc = op(acc, self.pin_value(fault, gate, pin, source));
        }
        acc
    }

    /// The composite value a gate pin sees, honoring a branch fault.
    fn pin_value(&self, fault: Fault, gate: NetId, pin: usize, source: NetId) -> V5 {
        let wire = self.value[source.index()];
        match fault.site {
            FaultSite::Branch { gate: fg, pin: fp } if fg == gate && fp as usize == pin => {
                force(wire, fault.stuck_at)
            }
            _ => wire,
        }
    }

    fn detected_at_output(&self) -> bool {
        self.view
            .outputs()
            .iter()
            .any(|&o| self.value[o.index()].is_fault_effect())
    }

    /// The composite value at the fault site line.
    fn site_value(&self, fault: Fault) -> V5 {
        match fault.site {
            FaultSite::Stem(s) => self.value[s.index()],
            FaultSite::Branch { gate, pin } => {
                let source = self.circuit.driver(gate).fanin()[pin as usize];
                self.pin_value(fault, gate, pin as usize, source)
            }
        }
    }

    /// Can the current partial assignment still be extended to a test?
    /// Once the fault is activated, this also leaves the live D-frontier in
    /// `self.frontier` for [`objective`](Self::objective).
    fn feasible(&mut self, fault: Fault) -> bool {
        let site = self.site_value(fault);
        if site.is_fault_effect() {
            self.sweep_frontier(fault);
            !self.frontier.is_empty()
        } else {
            // Not activated: feasible only while the site's good value is
            // still unknown.
            !site.is_assigned()
        }
    }

    /// One reverse topological sweep that marks the nets with X value from
    /// which an observed output is reachable through X-valued nets (the
    /// classic X-path check) and collects the live D-frontier: gates whose
    /// output is X-and-reaching and that have a fault effect on some pin.
    /// When the sweep visits a net, every sink gate has already been
    /// visited, so the net's reach is final and decides its membership.
    fn sweep_frontier(&mut self, fault: Fault) {
        self.reach.fill(false);
        self.frontier.clear();
        for &o in self.view.outputs() {
            if self.value[o.index()] == V5::X {
                self.reach[o.index()] = true;
            }
        }
        for &net in self.view.order().iter().rev() {
            if !self.reach[net.index()] {
                continue;
            }
            if let Driver::Gate { inputs, .. } = self.circuit.driver(net) {
                let mut effect = false;
                for (pin, &source) in inputs.iter().enumerate() {
                    if self.value[source.index()] == V5::X {
                        self.reach[source.index()] = true;
                    }
                    effect |= self.pin_value(fault, net, pin, source).is_fault_effect();
                }
                if effect {
                    self.frontier.push(net);
                }
            }
        }
        self.frontier.reverse();
    }

    /// Picks the next objective `(net, good-machine target value)`; after
    /// activation it draws from the frontier [`feasible`](Self::feasible)
    /// left.
    fn objective(&mut self, fault: Fault, rng: &mut Prng) -> Option<(NetId, bool)> {
        let site = self.site_value(fault);
        if !site.is_fault_effect() {
            // Activation objective: drive the site's good value opposite the
            // stuck value.
            let net = match fault.site {
                FaultSite::Stem(s) => s,
                FaultSite::Branch { gate, pin } => self.circuit.driver(gate).fanin()[pin as usize],
            };
            return Some((net, !fault.stuck_at));
        }
        // Propagation objective: pick a live D-frontier gate, then an
        // X pin to set to the non-controlling value.
        let gate = match self.frontier.len() {
            0 => return None,
            len if self.randomize_backtrace => self.frontier[rng.gen_range(0..len)],
            _ => self.frontier[0],
        };
        if let Driver::Gate { kind, inputs } = self.circuit.driver(gate) {
            let target = kind.controlling_value().map(|c| !c).unwrap_or(false);
            let candidate =
                |&(pin, &s): &(usize, &NetId)| self.pin_value(fault, gate, pin, s) == V5::X;
            let nth = match inputs.iter().enumerate().filter(candidate).count() {
                0 => return None,
                count if self.randomize_backtrace => rng.gen_range(0..count),
                _ => 0,
            };
            let (_, &pick) = inputs
                .iter()
                .enumerate()
                .filter(candidate)
                .nth(nth)
                .expect("counted above");
            return Some((pick, target));
        }
        None
    }

    /// Walks an objective back to an unassigned input.
    fn backtrace(&self, mut net: NetId, mut target: bool, rng: &mut Prng) -> (usize, bool) {
        loop {
            if let Some(pos) = self.view.input_position(net) {
                return (pos, target);
            }
            match self.circuit.driver(net) {
                Driver::Gate { kind, inputs } => {
                    let pre = target ^ kind.inverts();
                    // Prefer pins whose value is still unknown. With none
                    // (reconvergence artifacts), fall back to any pin to
                    // keep the walk terminating.
                    let unknown = |s: &NetId| !self.value[s.index()].is_assigned();
                    let any = !inputs.iter().any(unknown);
                    let eligible = |s: &NetId| any || unknown(s);
                    let count = inputs.iter().filter(|s| eligible(s)).count();
                    let nth = if self.randomize_backtrace && count > 1 {
                        rng.gen_range(0..count)
                    } else {
                        0
                    };
                    let pick = *inputs
                        .iter()
                        .filter(|s| eligible(s))
                        .nth(nth)
                        .expect("gates have inputs");
                    target = match kind {
                        GateKind::Not | GateKind::Buf => pre,
                        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                            let c = kind.controlling_value().expect("has controlling value");
                            if pre == c {
                                c
                            } else {
                                !c
                            }
                        }
                        GateKind::Xor | GateKind::Xnor => {
                            // Parity of the known other pins decides the
                            // residue this pin must contribute.
                            let mut parity = pre;
                            for &other in inputs {
                                if other != pick {
                                    if let Some(g) = self.value[other.index()].good() {
                                        parity ^= g;
                                    }
                                }
                            }
                            parity
                        }
                    };
                    net = pick;
                }
                Driver::Input | Driver::Dff { .. } => {
                    unreachable!("inputs are handled by input_position")
                }
            }
        }
    }

    /// Fills a cube's don't-cares per the configured [`FillMode`].
    pub fn fill_cube(&self, cube: &TestCube, rng: &mut Prng) -> BitVec {
        cube.0
            .iter()
            .map(|a| match (a, self.fill) {
                (Some(bit), _) => *bit,
                (None, FillMode::Zero) => false,
                (None, FillMode::Random) => rng.gen_bool(0.5),
            })
            .collect()
    }
}

/// A partial input assignment that detects a fault: `None` entries are
/// don't-cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCube(pub Vec<Option<bool>>);

impl TestCube {
    /// Number of inputs (assigned or not).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for a zero-width cube.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of assigned (care) bits.
    pub fn care_bits(&self) -> usize {
        self.0.iter().filter(|a| a.is_some()).count()
    }

    /// Two cubes are compatible when no input is assigned opposite values.
    pub fn compatible(&self, other: &TestCube) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        })
    }

    /// The union of two compatible cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cubes are incompatible or differ in width.
    pub fn merge(&self, other: &TestCube) -> TestCube {
        assert_eq!(self.len(), other.len(), "cube width mismatch");
        assert!(self.compatible(other), "merging incompatible cubes");
        TestCube(self.0.iter().zip(&other.0).map(|(a, b)| a.or(*b)).collect())
    }

    /// Fills don't-cares with `0` (deterministic).
    pub fn fill_zero(&self) -> BitVec {
        self.0.iter().map(|a| a.unwrap_or(false)).collect()
    }
}

/// The outcome of cube-level PODEM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeOutcome {
    /// A detecting partial assignment.
    Cube(TestCube),
    /// Proven untestable.
    Untestable,
    /// Backtrack limit hit.
    Aborted,
}

impl CubeOutcome {
    /// The cube, if one was found.
    pub fn cube(&self) -> Option<&TestCube> {
        match self {
            CubeOutcome::Cube(c) => Some(c),
            _ => None,
        }
    }
}

/// Static compaction by greedy cube merging: each cube is merged into the
/// first compatible accumulated cube, so compatible targets share one test.
/// Returns filled (zero-fill) patterns.
///
/// # Example
///
/// ```
/// use sdd_atpg::{merge_cubes, Podem};
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let universe = FaultUniverse::enumerate(&c17);
/// let mut podem = Podem::new(&c17, &view);
/// let mut rng = sdd_logic::Prng::seed_from_u64(0);
/// let cubes: Vec<_> = universe
///     .iter()
///     .filter_map(|(_, f)| podem.generate_cube(f, &mut rng).cube().cloned())
///     .collect();
/// let tests = merge_cubes(&cubes);
/// assert!(tests.len() < cubes.len(), "merging must compact");
/// ```
pub fn merge_cubes(cubes: &[TestCube]) -> Vec<BitVec> {
    let mut merged: Vec<TestCube> = Vec::new();
    for cube in cubes {
        match merged.iter_mut().find(|m| m.compatible(cube)) {
            Some(host) => *host = host.merge(cube),
            None => merged.push(cube.clone()),
        }
    }
    merged.iter().map(TestCube::fill_zero).collect()
}

/// Forces the faulty-machine component of `wire` to `stuck_at`.
fn force(wire: V5, stuck_at: bool) -> V5 {
    match wire.good() {
        Some(good) => V5::from_pair(good, stuck_at),
        None => V5::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_fault::FaultUniverse;
    use sdd_netlist::library::{c17, demo_seq};
    use sdd_netlist::{generator, CircuitBuilder};
    use sdd_sim::reference;

    fn rng() -> Prng {
        Prng::seed_from_u64(0xA7)
    }

    fn verify_test(circuit: &Circuit, view: &CombView, fault: Fault, test: &BitVec) {
        let good = reference::good_response(circuit, view, test);
        let bad = reference::faulty_response(circuit, view, fault, test);
        assert_ne!(
            good,
            bad,
            "{} not detected by {test}",
            fault.describe(circuit)
        );
    }

    #[test]
    fn finds_tests_for_every_c17_fault() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let mut podem = Podem::new(&c, &view);
        let mut rng = rng();
        for (_, fault) in universe.iter() {
            match podem.generate(fault, &mut rng) {
                PodemOutcome::Test(test) => verify_test(&c, &view, fault, &test),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn finds_tests_for_sequential_circuit() {
        let c = demo_seq();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let mut podem = Podem::new(&c, &view);
        let mut rng = rng();
        for (_, fault) in universe.iter() {
            if let PodemOutcome::Test(test) = podem.generate(fault, &mut rng) {
                verify_test(&c, &view, fault, &test);
            }
            // demo_seq may contain redundant faults; Untestable is fine,
            // but Aborted with the default budget would be suspicious.
            assert!(!matches!(
                podem.generate(fault, &mut rng),
                PodemOutcome::Aborted
            ));
        }
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        // y = OR(a, NOT(a)) is constantly 1; y s-a-1 is undetectable.
        let mut b = CircuitBuilder::new("red");
        let a = b.input("a");
        let na = b.gate("na", sdd_netlist::GateKind::Not, vec![a]);
        let y = b.gate("y", sdd_netlist::GateKind::Or, vec![a, na]);
        b.output(y);
        let c = b.finish().unwrap();
        let view = CombView::new(&c);
        let fault = Fault {
            site: FaultSite::Stem(c.net("y").unwrap()),
            stuck_at: true,
        };
        let mut podem = Podem::new(&c, &view);
        assert_eq!(podem.generate(fault, &mut rng()), PodemOutcome::Untestable);
        // The complementary fault is testable.
        let fault0 = Fault {
            site: FaultSite::Stem(c.net("y").unwrap()),
            stuck_at: false,
        };
        assert!(matches!(
            podem.generate(fault0, &mut rng()),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn every_generated_test_is_valid_on_generated_circuit() {
        let c = generator::iscas89("s298", 5).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let mut podem = Podem::new(&c, &view).with_backtrack_limit(2000);
        let mut rng = rng();
        let mut tested = 0;
        let mut untestable = 0;
        let mut aborted = 0;
        for &id in collapsed.representatives() {
            let fault = universe.fault(id);
            match podem.generate(fault, &mut rng) {
                PodemOutcome::Test(test) => {
                    verify_test(&c, &view, fault, &test);
                    tested += 1;
                }
                PodemOutcome::Untestable => untestable += 1,
                PodemOutcome::Aborted => aborted += 1,
            }
        }
        assert!(tested > 0);
        // A healthy generated circuit is mostly testable.
        assert!(
            tested * 10 >= (tested + untestable + aborted) * 8,
            "coverage too low: {tested} tested, {untestable} untestable, {aborted} aborted"
        );
    }

    #[test]
    fn randomized_search_produces_diverse_tests() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let fault = universe.fault(sdd_fault::FaultId(0));
        let mut podem = Podem::new(&c, &view)
            .with_fill(FillMode::Random)
            .with_randomized_search(true);
        let mut rng = rng();
        let tests: std::collections::HashSet<String> = (0..24)
            .filter_map(|_| {
                podem
                    .generate(fault, &mut rng)
                    .test()
                    .map(|t| t.to_string())
            })
            .collect();
        assert!(tests.len() > 1, "random search should vary the tests");
    }

    #[test]
    fn zero_fill_is_deterministic() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let fault = universe.fault(sdd_fault::FaultId(2));
        let mut podem = Podem::new(&c, &view);
        let a = podem.generate(fault, &mut rng());
        let b = podem.generate(fault, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn cubes_detect_their_faults_under_any_fill() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let mut podem = Podem::new(&c, &view);
        let mut r = rng();
        for (_, fault) in universe.iter() {
            let cube = match podem.generate_cube(fault, &mut r) {
                CubeOutcome::Cube(cube) => cube,
                other => panic!("{other:?}"),
            };
            assert!(cube.care_bits() <= cube.len());
            // The cube detects under zero-fill AND under all-ones fill.
            verify_test(&c, &view, fault, &cube.fill_zero());
            let ones: BitVec = cube.0.iter().map(|a| a.unwrap_or(true)).collect();
            verify_test(&c, &view, fault, &ones);
        }
    }

    #[test]
    fn cube_merging_compacts_and_preserves_detection() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let mut podem = Podem::new(&c, &view);
        let mut r = rng();
        let pairs: Vec<(Fault, TestCube)> = universe
            .iter()
            .filter_map(|(_, f)| {
                podem
                    .generate_cube(f, &mut r)
                    .cube()
                    .cloned()
                    .map(|cube| (f, cube))
            })
            .collect();
        let cubes: Vec<TestCube> = pairs.iter().map(|(_, c)| c.clone()).collect();
        let tests = merge_cubes(&cubes);
        assert!(
            tests.len() < cubes.len(),
            "{} !< {}",
            tests.len(),
            cubes.len()
        );
        // Every fault is detected by at least one merged test.
        for (fault, _) in &pairs {
            assert!(
                tests.iter().any(|t| {
                    reference::faulty_response(&c, &view, *fault, t)
                        != reference::good_response(&c, &view, t)
                }),
                "{} lost by merging",
                fault.describe(&c)
            );
        }
    }

    #[test]
    fn cube_compatibility_and_merge_rules() {
        let a = TestCube(vec![Some(true), None, Some(false)]);
        let b = TestCube(vec![None, Some(true), Some(false)]);
        let c = TestCube(vec![Some(false), None, None]);
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
        let ab = a.merge(&b);
        assert_eq!(ab.0, vec![Some(true), Some(true), Some(false)]);
        assert_eq!(ab.care_bits(), 3);
        assert_eq!(a.fill_zero().to_string(), "100");
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merging_incompatible_cubes_panics() {
        let a = TestCube(vec![Some(true)]);
        let b = TestCube(vec![Some(false)]);
        a.merge(&b);
    }

    #[test]
    fn tiny_backtrack_limit_aborts_on_hard_fault() {
        // A wide XOR tree makes naive PODEM backtrack: with limit 0 we may
        // still succeed on easy faults, so assert only that the call
        // terminates and returns a legal outcome.
        let c = generator::iscas89("s208", 2).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let mut podem = Podem::new(&c, &view).with_backtrack_limit(0);
        let mut r = rng();
        for (id, fault) in universe.iter().take(40) {
            let outcome = podem.generate(fault, &mut r);
            if let PodemOutcome::Test(t) = &outcome {
                verify_test(&c, &view, fault, t);
            }
            let _ = id;
        }
    }
}
