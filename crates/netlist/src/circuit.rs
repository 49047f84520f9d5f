//! The core circuit data model: nets, drivers, gates, and validation.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a net (a named signal) within one [`Circuit`].
///
/// `NetId`s are dense indices assigned in declaration order; they index the
/// per-net arrays used by the simulator and fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The net's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function of a combinational gate.
///
/// These are exactly the gate types of the ISCAS `.bench` format. `Buf` and
/// `Not` take one input; the rest take two or more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND.
    And,
    /// Logical NAND.
    Nand,
    /// Logical OR.
    Or,
    /// Logical NOR.
    Nor,
    /// Logical XOR (parity of inputs).
    Xor,
    /// Logical XNOR (complement of parity).
    Xnor,
    /// Inverter.
    Not,
    /// Buffer (identity).
    Buf,
}

impl GateKind {
    /// All gate kinds, handy for exhaustive tests.
    pub const ALL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Returns `true` for the single-input kinds `Not` and `Buf`.
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// The controlling input value, if the gate has one: an input at this
    /// value determines the output regardless of the other inputs.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_netlist::GateKind;
    /// assert_eq!(GateKind::Nand.controlling_value(), Some(false));
    /// assert_eq!(GateKind::Xor.controlling_value(), None);
    /// ```
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => None,
        }
    }

    /// Whether the gate complements its "natural" function (NAND/NOR/XNOR/NOT).
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// Evaluates the gate over plain booleans.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length ≠ 1 for unary kinds.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(!inputs.is_empty(), "gate with no inputs");
        if self.is_unary() {
            assert_eq!(inputs.len(), 1, "{self} takes exactly one input");
        }
        match self {
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
        }
    }

    /// The `.bench` keyword for this kind.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// What produces the value of a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Driver {
    /// A primary input: the value comes from the test pattern.
    Input,
    /// The output of a D flip-flop whose data pin is the given net.
    ///
    /// Under the full-scan assumption the flip-flop output acts as a pseudo
    /// primary input and its data net as a pseudo primary output.
    Dff {
        /// Net feeding the flip-flop's data pin.
        data: NetId,
    },
    /// The output of a combinational gate.
    Gate {
        /// Logic function.
        kind: GateKind,
        /// Fan-in nets, in pin order.
        inputs: Vec<NetId>,
    },
}

impl Driver {
    /// What kind of driver this is: `"primary input"`, `"flip-flop"` or
    /// `"gate"`.
    pub(crate) fn role(&self) -> &'static str {
        match self {
            Driver::Input => "primary input",
            Driver::Dff { .. } => "flip-flop",
            Driver::Gate { .. } => "gate",
        }
    }

    /// The fan-in nets of this driver (empty for primary inputs).
    pub fn fanin(&self) -> &[NetId] {
        match self {
            Driver::Input => &[],
            Driver::Dff { data } => std::slice::from_ref(data),
            Driver::Gate { inputs, .. } => inputs,
        }
    }
}

/// Errors produced while building, parsing, or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A signal was referenced but never given a driver.
    UndrivenNet {
        /// Name of the undriven signal.
        name: String,
    },
    /// A signal was given two drivers.
    DuplicateDriver {
        /// Name of the doubly-driven signal.
        name: String,
    },
    /// A gate was declared with an impossible number of inputs.
    BadArity {
        /// Name of the gate's output signal.
        name: String,
        /// The gate kind.
        kind: GateKind,
        /// The number of inputs declared.
        arity: usize,
    },
    /// The combinational part of the circuit contains a cycle.
    CombinationalCycle {
        /// Name of a signal on the cycle.
        name: String,
    },
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// A signal name was declared twice in the same role.
    DuplicateDeclaration {
        /// The offending name.
        name: String,
        /// The role (`"INPUT"` or `"OUTPUT"`).
        role: &'static str,
    },
    /// The circuit has no primary outputs or flip-flops, so nothing is
    /// observable and no fault can ever be detected.
    NothingObservable,
    /// An edit would change what kind of driver a net has (primary input,
    /// flip-flop or gate), which the circuit's input and flip-flop lists
    /// fix.
    DriverRoleChange {
        /// Name of the net.
        name: String,
        /// The net's role (`"primary input"`, `"flip-flop"` or `"gate"`).
        from: &'static str,
        /// The role the new driver would give it.
        to: &'static str,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UndrivenNet { name } => write!(f, "signal {name:?} has no driver"),
            NetlistError::DuplicateDriver { name } => {
                write!(f, "signal {name:?} has more than one driver")
            }
            NetlistError::BadArity { name, kind, arity } => {
                write!(f, "gate {name:?} of kind {kind} cannot take {arity} inputs")
            }
            NetlistError::CombinationalCycle { name } => {
                write!(f, "combinational cycle through signal {name:?}")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            NetlistError::DuplicateDeclaration { name, role } => {
                write!(f, "signal {name:?} declared as {role} more than once")
            }
            NetlistError::NothingObservable => {
                write!(f, "circuit has no primary outputs and no flip-flops")
            }
            NetlistError::DriverRoleChange { name, from, to } => {
                write!(
                    f,
                    "net {name:?} is a {from} and cannot be redriven as a {to}"
                )
            }
        }
    }
}

impl Error for NetlistError {}

impl From<NetlistError> for sdd_logic::SddError {
    fn from(e: NetlistError) -> Self {
        match e {
            NetlistError::Parse { line, message } => sdd_logic::SddError::Parse { line, message },
            other => sdd_logic::SddError::Invalid {
                message: other.to_string(),
            },
        }
    }
}

/// A validated gate-level netlist.
///
/// A circuit is a set of named nets, each with exactly one [`Driver`], plus
/// an ordered list of primary outputs. Construction goes through
/// [`CircuitBuilder`] (or the [`bench`](crate::bench) parser), which
/// validates that every referenced net is driven, gate arities are legal,
/// and the combinational logic is acyclic.
///
/// # Example
///
/// ```
/// use sdd_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("toy");
/// let a = b.input("a");
/// let c = b.input("b");
/// let g = b.gate("g", GateKind::Nand, vec![a, c]);
/// b.output(g);
/// let circuit = b.finish()?;
/// assert_eq!(circuit.gate_count(), 1);
/// # Ok::<(), sdd_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    names: Vec<String>,
    drivers: Vec<Driver>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    dffs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
}

impl Circuit {
    /// The circuit's name (e.g. `"s953"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nets.
    pub fn net_count(&self) -> usize {
        self.drivers.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of D flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Number of combinational gates (excludes inputs and flip-flops).
    pub fn gate_count(&self) -> usize {
        self.drivers
            .iter()
            .filter(|d| matches!(d, Driver::Gate { .. }))
            .count()
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The flip-flop output nets, in declaration order.
    pub fn dffs(&self) -> &[NetId] {
        &self.dffs
    }

    /// The driver of `net`.
    pub fn driver(&self, net: NetId) -> &Driver {
        &self.drivers[net.index()]
    }

    /// The name of `net`.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.names[net.index()]
    }

    /// Looks a net up by name.
    pub fn net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over all nets in id order.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.drivers.len() as u32).map(NetId)
    }

    /// Fan-out counts per net: how many gate/flip-flop/output pins each net
    /// feeds. Primary-output usage counts as one pin per listing.
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.net_count()];
        for driver in &self.drivers {
            for &input in driver.fanin() {
                counts[input.index()] += 1;
            }
        }
        for &output in &self.outputs {
            counts[output.index()] += 1;
        }
        counts
    }

    /// Returns a copy of the circuit with `net`'s driver replaced — the
    /// programmatic form of a gate-level ECO (kind swap, pin rewire). Net
    /// ids, names, and the input/output/flip-flop interface are preserved
    /// exactly, so fault universes enumerated on the original and the
    /// rewritten circuit line up index for index whenever the local pin
    /// structure is unchanged.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DriverRoleChange`] when the new driver is of another
    /// kind than the old one (a primary input, flip-flop or gate stays one),
    /// [`NetlistError::BadArity`] for a gate driver with the wrong input
    /// count, [`NetlistError::UndrivenNet`] when a gate input is out of
    /// range, and [`NetlistError::CombinationalCycle`] when the rewire
    /// creates one.
    pub fn with_driver(&self, net: NetId, driver: Driver) -> Result<Self, NetlistError> {
        let (from, to) = (self.driver(net).role(), driver.role());
        if from != to {
            return Err(NetlistError::DriverRoleChange {
                name: self.net_name(net).to_owned(),
                from,
                to,
            });
        }
        if let Driver::Gate { kind, inputs } = &driver {
            let arity_ok = if kind.is_unary() {
                inputs.len() == 1
            } else {
                !inputs.is_empty()
            };
            if !arity_ok {
                return Err(NetlistError::BadArity {
                    name: self.net_name(net).to_owned(),
                    kind: *kind,
                    arity: inputs.len(),
                });
            }
        }
        for &input in driver.fanin() {
            if input.index() >= self.net_count() {
                return Err(NetlistError::UndrivenNet {
                    name: format!("net id {}", input.0),
                });
            }
        }
        let mut modified = self.clone();
        modified.drivers[net.index()] = driver;
        modified.check_acyclic()?;
        Ok(modified)
    }
}

/// Incremental builder for [`Circuit`], performing validation in
/// [`finish`](CircuitBuilder::finish).
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder {
    name: String,
    names: Vec<String>,
    drivers: Vec<Option<Driver>>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    dffs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    errors: Vec<NetlistError>,
}

impl CircuitBuilder {
    /// Starts a new builder for a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Returns the id for `name`, creating an undriven net on first use.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NetId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.drivers.push(None);
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Declares a primary input named `name` and returns its net.
    pub fn input(&mut self, name: &str) -> NetId {
        let id = self.net(name);
        if self.inputs.contains(&id) {
            self.errors.push(NetlistError::DuplicateDeclaration {
                name: name.to_owned(),
                role: "INPUT",
            });
            return id;
        }
        self.set_driver(id, Driver::Input);
        self.inputs.push(id);
        id
    }

    /// Declares the net named by `net` as a primary output.
    pub fn output(&mut self, net: NetId) {
        if self.outputs.contains(&net) {
            self.errors.push(NetlistError::DuplicateDeclaration {
                name: self.names[net.index()].clone(),
                role: "OUTPUT",
            });
            return;
        }
        self.outputs.push(net);
    }

    /// Declares a gate driving a new or existing net `name`.
    pub fn gate(&mut self, name: &str, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let id = self.net(name);
        let arity = inputs.len();
        let arity_ok = if kind.is_unary() {
            arity == 1
        } else {
            arity >= 1
        };
        if !arity_ok {
            self.errors.push(NetlistError::BadArity {
                name: name.to_owned(),
                kind,
                arity,
            });
        }
        self.set_driver(id, Driver::Gate { kind, inputs });
        id
    }

    /// Declares a D flip-flop whose output is `name` and data pin is `data`.
    pub fn dff(&mut self, name: &str, data: NetId) -> NetId {
        let id = self.net(name);
        self.set_driver(id, Driver::Dff { data });
        self.dffs.push(id);
        id
    }

    fn set_driver(&mut self, id: NetId, driver: Driver) {
        let slot = &mut self.drivers[id.index()];
        if slot.is_some() {
            self.errors.push(NetlistError::DuplicateDriver {
                name: self.names[id.index()].clone(),
            });
        } else {
            *slot = Some(driver);
        }
    }

    /// Validates and produces the circuit.
    ///
    /// # Errors
    ///
    /// Returns the first error recorded during building, or detected during
    /// validation: undriven nets, duplicate drivers or declarations, bad
    /// gate arities, combinational cycles, and circuits with nothing
    /// observable.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        let mut drivers = Vec::with_capacity(self.drivers.len());
        for (i, driver) in self.drivers.into_iter().enumerate() {
            match driver {
                Some(d) => drivers.push(d),
                None => {
                    return Err(NetlistError::UndrivenNet {
                        name: self.names[i].clone(),
                    })
                }
            }
        }
        if self.outputs.is_empty() && self.dffs.is_empty() {
            return Err(NetlistError::NothingObservable);
        }
        let circuit = Circuit {
            name: self.name,
            names: self.names,
            drivers,
            inputs: self.inputs,
            outputs: self.outputs,
            dffs: self.dffs,
            by_name: self.by_name,
        };
        circuit.check_acyclic()?;
        Ok(circuit)
    }
}

impl Circuit {
    /// Detects combinational cycles (flip-flops legitimately break cycles).
    fn check_acyclic(&self) -> Result<(), NetlistError> {
        // Iterative three-color DFS over combinational edges only.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.net_count()];
        let mut stack: Vec<(NetId, usize)> = Vec::new();
        for start in self.nets() {
            if color[start.index()] != WHITE {
                continue;
            }
            stack.push((start, 0));
            color[start.index()] = GRAY;
            while let Some(&mut (net, ref mut next)) = stack.last_mut() {
                let fanin = match self.driver(net) {
                    // A DFF output depends on its data net only across a
                    // clock edge, not combinationally.
                    Driver::Dff { .. } | Driver::Input => &[],
                    Driver::Gate { inputs, .. } => inputs.as_slice(),
                };
                if *next < fanin.len() {
                    let child = fanin[*next];
                    *next += 1;
                    match color[child.index()] {
                        WHITE => {
                            color[child.index()] = GRAY;
                            stack.push((child, 0));
                        }
                        GRAY => {
                            return Err(NetlistError::CombinationalCycle {
                                name: self.net_name(child).to_owned(),
                            })
                        }
                        _ => {}
                    }
                } else {
                    color[net.index()] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_eval_truth_tables() {
        use GateKind::*;
        let cases = [
            (And, vec![true, true], true),
            (And, vec![true, false], false),
            (Nand, vec![true, true], false),
            (Nand, vec![false, true], true),
            (Or, vec![false, false], false),
            (Or, vec![false, true], true),
            (Nor, vec![false, false], true),
            (Nor, vec![true, false], false),
            (Xor, vec![true, true, true], true),
            (Xor, vec![true, true], false),
            (Xnor, vec![true, false], false),
            (Xnor, vec![true, true], true),
            (Not, vec![true], false),
            (Buf, vec![false], false),
        ];
        for (kind, inputs, expect) in cases {
            assert_eq!(kind.eval(&inputs), expect, "{kind} {inputs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn unary_gate_rejects_two_inputs_at_eval() {
        GateKind::Not.eval(&[true, false]);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xnor.controlling_value(), None);
        assert!(GateKind::Nand.inverts());
        assert!(!GateKind::Or.inverts());
    }

    fn two_nand() -> Circuit {
        let mut b = CircuitBuilder::new("two_nand");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate("g1", GateKind::Nand, vec![a, c]);
        let g2 = b.gate("g2", GateKind::Nand, vec![g1, c]);
        b.output(g2);
        b.finish().unwrap()
    }

    #[test]
    fn with_driver_swaps_a_gate_and_validates_the_rewire() {
        let c = two_nand();
        let g1 = c.net("g1").unwrap();
        let swapped = c
            .with_driver(
                g1,
                Driver::Gate {
                    kind: GateKind::And,
                    inputs: c.driver(g1).fanin().to_vec(),
                },
            )
            .unwrap();
        assert_eq!(swapped.net_count(), c.net_count());
        assert_eq!(swapped.inputs(), c.inputs());
        assert!(matches!(
            swapped.driver(g1),
            Driver::Gate {
                kind: GateKind::And,
                ..
            }
        ));
        assert_ne!(swapped.driver(g1), c.driver(g1));
        // Bad arity and self-cycles are rejected.
        assert!(matches!(
            c.with_driver(
                g1,
                Driver::Gate {
                    kind: GateKind::Not,
                    inputs: vec![NetId(0), NetId(1)]
                }
            ),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            c.with_driver(
                g1,
                Driver::Gate {
                    kind: GateKind::Buf,
                    inputs: vec![g1]
                }
            ),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn with_driver_keeps_every_net_in_its_role() {
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.net("q");
        let g = b.gate("g", GateKind::Nand, vec![a, q]);
        b.dff("q", g);
        b.output(g);
        let c = b.finish().unwrap();
        let gate = Driver::Gate {
            kind: GateKind::Not,
            inputs: vec![a],
        };
        // An input or a flip-flop turned into a gate would stay listed in
        // `inputs()` or `dffs()`; a gate turned into either would be
        // listed in neither.
        for (net, driver, from, to) in [
            (a, gate.clone(), "primary input", "gate"),
            (q, gate, "flip-flop", "gate"),
            (g, Driver::Input, "gate", "primary input"),
            (g, Driver::Dff { data: a }, "gate", "flip-flop"),
            (a, Driver::Dff { data: g }, "primary input", "flip-flop"),
        ] {
            let err = c.with_driver(net, driver).unwrap_err();
            assert_eq!(
                err,
                NetlistError::DriverRoleChange {
                    name: c.net_name(net).to_owned(),
                    from,
                    to
                }
            );
            assert!(err.to_string().contains("cannot be redriven"), "{err}");
        }
        // Moving a flip-flop's data net keeps its role.
        let moved = c.with_driver(q, Driver::Dff { data: a }).unwrap();
        assert_eq!(moved.driver(q), &Driver::Dff { data: a });
        crate::CombView::new(&moved);
    }

    #[test]
    fn builder_produces_expected_structure() {
        let c = two_nand();
        assert_eq!(c.net_count(), 4);
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.dff_count(), 0);
        let g2 = c.net("g2").unwrap();
        assert_eq!(c.outputs(), &[g2]);
        match c.driver(g2) {
            Driver::Gate { kind, inputs } => {
                assert_eq!(*kind, GateKind::Nand);
                assert_eq!(inputs.len(), 2);
            }
            other => panic!("unexpected driver {other:?}"),
        }
        assert_eq!(c.net_name(g2), "g2");
        assert_eq!(c.net("missing"), None);
    }

    #[test]
    fn undriven_net_is_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let ghost = b.net("ghost");
        let g = b.gate("g", GateKind::And, vec![a, ghost]);
        b.output(g);
        match b.finish() {
            Err(NetlistError::UndrivenNet { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected UndrivenNet, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_driver_is_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        b.gate("g", GateKind::Buf, vec![a]);
        b.gate("g", GateKind::Not, vec![a]);
        let g = b.net("g");
        b.output(g);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DuplicateDriver { .. })
        ));
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate("g", GateKind::Not, vec![a, c]);
        b.output(g);
        assert!(matches!(b.finish(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut b = CircuitBuilder::new("cyclic");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.gate("y", GateKind::And, vec![a, x]);
        b.gate("x", GateKind::Buf, vec![y]);
        b.output(y);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycle() {
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.net("q");
        let d = b.gate("d", GateKind::Xor, vec![a, q]);
        b.dff("q", d);
        b.output(d);
        let c = b.finish().expect("sequential loop through a DFF is legal");
        assert_eq!(c.dff_count(), 1);
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn nothing_observable_is_rejected() {
        let mut b = CircuitBuilder::new("blind");
        let a = b.input("a");
        b.gate("g", GateKind::Not, vec![a]);
        assert!(matches!(b.finish(), Err(NetlistError::NothingObservable)));
    }

    #[test]
    fn duplicate_input_declaration_is_rejected() {
        let mut b = CircuitBuilder::new("bad");
        b.input("a");
        b.input("a");
        let a = b.net("a");
        b.output(a);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DuplicateDeclaration { role: "INPUT", .. })
        ));
    }

    #[test]
    fn fanout_counts_include_outputs_and_dffs() {
        let mut b = CircuitBuilder::new("fo");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, vec![a]);
        let g2 = b.gate("g2", GateKind::Not, vec![a]);
        b.dff("q", g1);
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let counts = c.fanout_counts();
        assert_eq!(counts[a.index()], 2); // feeds g1 and g2
        assert_eq!(counts[g1.index()], 2); // DFF data + PO
        assert_eq!(counts[g2.index()], 1); // PO only
    }

    #[test]
    fn error_display_is_informative() {
        let err = NetlistError::BadArity {
            name: "g".into(),
            kind: GateKind::Not,
            arity: 3,
        };
        let msg = err.to_string();
        assert!(msg.contains("NOT") && msg.contains('3'), "{msg}");
    }

    #[test]
    fn netid_display() {
        assert_eq!(NetId(7).to_string(), "n7");
        assert_eq!(NetId(7).index(), 7);
    }
}
