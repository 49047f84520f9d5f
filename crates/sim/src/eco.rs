//! ECO (engineering change order) deltas: which outputs, and therefore
//! which faults, a netlist edit can possibly affect.
//!
//! The same cone argument that makes sharding exact makes patching exact.
//! A view output's value — fault-free *or* faulty — is a function of the
//! drivers in its input cone plus the injected fault, so an output none of
//! whose cone nets changed produces byte-identical responses for **every**
//! fault and test. Dually, a fault whose output cone misses every dirty
//! output keeps its exact diff set under every test: its effects only ever
//! surface at outputs whose computation did not change. An ECO therefore
//! splits the dictionary's signature matrix into a clean region that can be
//! reused verbatim and a dirty `faults × tests` region small enough to
//! re-simulate, which is what `sdd patch` exploits instead of rebuilding.
//!
//! Both the old and the new circuit's cones are consulted, so rewiring ECOs
//! (which move reachability, not just gate functions) stay sound. A clean
//! output must also *observe* the same net in both circuits: moving a
//! flip-flop's data net changes which net its pseudo-output reads without
//! putting that pseudo-output in any changed net's cone, so every output
//! position whose observed net differs is dirty too.
//!
//! [`EcoDelta::lockstep`] then patches in one pass over the 64-test blocks
//! ([`EcoPass`]). Per block, the dirty faults run through both circuits:
//! which tests the edit touched, and the old-circuit facts an artifact
//! cross-check needs, come out of word operations on the two engines'
//! output-diff words. A block that holds a touched test then runs the clean
//! faults once on the new circuit, and every fault's touched columns are
//! interned on the spot ([`EcoPass::columns`]); no diff word outlives its
//! block.

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, PatternBlock, SddError, LANES};
use sdd_netlist::{Circuit, CombView, NetId};

use crate::parallel::{fan_out, worker_chunks};
use crate::response::{set_lanes, ClassTable};
use crate::{Engine, OutputCones, ResponseMatrix};

/// The nets whose drivers differ between two interface-identical circuits.
///
/// The interface check is strict — same net count, same name per net id,
/// same input/output/flip-flop lists — because everything downstream
/// (fault ids, test vectors, signature rows) is indexed by those ids; an
/// ECO that renames or adds nets needs a full rebuild, and the typed error
/// says so, naming the first net the new circuit lacks. Circuits whose
/// files number the same nets apart line up through
/// [`Circuit::renumbered_like`] first.
///
/// # Errors
///
/// [`SddError::Invalid`] when the circuits' interfaces differ.
pub fn changed_nets(old: &Circuit, new: &Circuit) -> Result<Vec<NetId>, SddError> {
    if old.net_count() != new.net_count() {
        return Err(SddError::invalid(format!(
            "ECO changed the net count ({} -> {}): not patchable, rebuild the dictionary",
            old.net_count(),
            new.net_count()
        )));
    }
    if let Some(apart) = old
        .nets()
        .find(|&net| old.net_name(net) != new.net_name(net))
    {
        // A name the new circuit lacks is named first: in circuits numbered
        // apart, the first net whose name differs says nothing about the edit.
        let lost = old.nets().find(|&net| new.net(old.net_name(net)).is_none());
        let net = lost.unwrap_or(apart);
        return Err(SddError::invalid(format!(
            "ECO renamed, removed or renumbered net {:?} (id {}): not patchable, \
             rebuild the dictionary",
            old.net_name(net),
            net.0
        )));
    }
    if old.inputs() != new.inputs() || old.outputs() != new.outputs() || old.dffs() != new.dffs() {
        return Err(SddError::invalid(
            "ECO changed the input/output/flip-flop interface: not patchable, \
             rebuild the dictionary",
        ));
    }
    Ok(old
        .nets()
        .filter(|&net| old.driver(net) != new.driver(net))
        .collect())
}

/// `true` when two equal-width bit vectors share a set bit.
fn intersects(a: &BitVec, b: &BitVec) -> bool {
    a.as_words().zip(b.as_words()).any(|(x, y)| x & y != 0)
}

/// The cone-level footprint of an ECO over one collapsed fault list.
///
/// # Example
///
/// ```
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, Driver, GateKind};
/// use sdd_sim::EcoDelta;
///
/// let c17 = library::c17();
/// let net = c17.net("N10").unwrap();
/// let eco = c17
///     .with_driver(net, Driver::Gate {
///         kind: GateKind::And,
///         inputs: c17.driver(net).fanin().to_vec(),
///     })
///     .unwrap();
/// let universe = FaultUniverse::enumerate(&c17);
/// let collapsed = universe.collapse_on(&c17);
/// let delta = EcoDelta::compute(&c17, &eco, &universe, collapsed.representatives()).unwrap();
/// assert!(!delta.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EcoDelta {
    changed_nets: Vec<NetId>,
    dirty_outputs: BitVec,
    dirty_faults: Vec<usize>,
}

impl EcoDelta {
    /// Computes the delta between `old` and `new` for the faults in
    /// `faults` (positions in the returned delta index into this slice).
    ///
    /// `universe` must describe the fault list on **both** circuits — the
    /// caller is responsible for checking that the collapsed fault lists
    /// agree, which [`changed_nets`]'s interface checks make possible but
    /// do not themselves guarantee.
    ///
    /// # Errors
    ///
    /// [`SddError::Invalid`] when the circuits are not patch-compatible
    /// (see [`changed_nets`]).
    pub fn compute(
        old: &Circuit,
        new: &Circuit,
        universe: &FaultUniverse,
        faults: &[FaultId],
    ) -> Result<Self, SddError> {
        let changed_nets = changed_nets(old, new)?;
        let (old_view, new_view) = (CombView::new(old), CombView::new(new));
        let old_cones = OutputCones::compute(old, &old_view);
        let new_cones = OutputCones::compute(new, &new_view);
        let outputs = old_cones.outputs();
        let mut dirty_outputs = BitVec::zeros(outputs);
        // An output that reads another net (a moved flip-flop data net) is
        // dirty whatever the cones say.
        for (o, (a, b)) in old_view
            .outputs()
            .iter()
            .zip(new_view.outputs())
            .enumerate()
        {
            if a != b {
                dirty_outputs.set(o, true);
            }
        }
        for &net in &changed_nets {
            for cone in [old_cones.net_cone(net), new_cones.net_cone(net)] {
                for o in 0..outputs {
                    if cone.bit(o) {
                        dirty_outputs.set(o, true);
                    }
                }
            }
        }
        let mut dirty_faults = Vec::new();
        if dirty_outputs.any() {
            for (position, &id) in faults.iter().enumerate() {
                if intersects(&old_cones.fault_cone(universe, id), &dirty_outputs)
                    || intersects(&new_cones.fault_cone(universe, id), &dirty_outputs)
                {
                    dirty_faults.push(position);
                }
            }
        }
        Ok(Self {
            changed_nets,
            dirty_outputs,
            dirty_faults,
        })
    }

    /// Nets whose drivers differ.
    pub fn changed_nets(&self) -> &[NetId] {
        &self.changed_nets
    }

    /// View outputs whose responses may have changed (`m` bits).
    pub fn dirty_outputs(&self) -> &BitVec {
        &self.dirty_outputs
    }

    /// Positions (into the fault list handed to [`compute`](Self::compute))
    /// of faults whose signatures may have changed.
    pub fn dirty_faults(&self) -> &[usize] {
        &self.dirty_faults
    }

    /// `true` when the ECO cannot have changed any response: the circuits
    /// are functionally identical as far as the dictionary is concerned.
    pub fn is_empty(&self) -> bool {
        self.dirty_faults.is_empty()
    }

    /// Runs every dirty fault through both circuits in lockstep, one
    /// 64-test block at a time, and interns the new circuit's columns of
    /// the tests the edit touched.
    ///
    /// Per block, each worker of the dirty phase loads the block into an
    /// old-circuit and a new-circuit [`Engine`] and runs its dirty faults
    /// on both. A test is *touched* when its fault-free response or any
    /// dirty fault's diff set moved: the OR of `old_good ^ new_good` over
    /// the outputs, plus the OR of each dirty fault's old and new diff
    /// words. Alongside, each dirty fault's old-circuit response is
    /// compared with `baselines` (the stored baseline vector of every test,
    /// `m` bits each) as the OR over the outputs of
    /// `old_good ^ old_diff ^ baseline`, giving [`EcoPass::differs`]. When
    /// the block holds a touched test, the clean faults run once on
    /// new-circuit engines, and every fault's touched columns are interned
    /// in fault order ([`EcoPass::columns`]).
    ///
    /// Each phase cuts its faults into contiguous chunks, one per worker
    /// (at most `jobs`, and at most one per 32 faults); a worker of both
    /// phases runs its clean faults on the new-circuit engine that already
    /// holds the block. Touched lanes are OR-ed, rows are stored by fault
    /// position and columns interned in fault order, so the pass is the
    /// same for every `jobs`. It runs even with no dirty fault: the
    /// fault-free responses alone can move a baseline vector.
    ///
    /// # Panics
    ///
    /// Panics if `baselines` does not hold one vector per test, or a test's
    /// width differs from the views' input count.
    pub fn lockstep(
        &self,
        eco: &EcoCircuits<'_>,
        tests: &[BitVec],
        baselines: &[BitVec],
        jobs: usize,
    ) -> EcoPass {
        assert_eq!(baselines.len(), tests.len(), "one baseline per test");
        let width = eco.old_view.inputs().len();
        let outputs = eco.old_view.outputs().len();
        let mut dirty = self.dirty_faults.iter().copied().peekable();
        let clean: Vec<usize> = (0..eco.faults.len())
            .filter(|&fault| dirty.next_if_eq(&fault).is_none())
            .collect();
        let dirty_chunks = worker_chunks(&self.dirty_faults, jobs);
        let clean_chunks = worker_chunks(&clean, jobs);
        let mut workers: Vec<Worker> = (0..dirty_chunks.len().max(clean_chunks.len()))
            .map(|w| Worker {
                dirty: dirty_chunks
                    .get(w)
                    .map(|&chunk| (chunk, Engine::new(eco.old, eco.old_view))),
                clean: clean_chunks.get(w).copied().unwrap_or_default(),
                new: Engine::new(eco.new, eco.new_view),
            })
            .collect();

        // Per dirty fault: one word per block.
        let mut differs = vec![Vec::new(); self.dirty_faults.len()];
        let mut touched = Vec::new();
        let mut good = Vec::new();
        let mut table = ClassTable::new(eco.faults.len(), 0);
        let blocks = tests.chunks(LANES).zip(baselines.chunks(LANES));
        for (b, (patterns, baseline)) in blocks.enumerate() {
            let block = PatternBlock::from_patterns(width, patterns);
            let baseline = PatternBlock::from_patterns(outputs, baseline);
            let dirty_runs = fan_out(&mut workers[..dirty_chunks.len()], |worker| {
                worker.run_dirty(eco, &block, &baseline)
            });
            let words = dirty_runs.iter().flat_map(|run| &run.differs);
            for (row, &word) in differs.iter_mut().zip(words) {
                row.push(word);
            }
            let lanes = dirty_runs.iter().fold(0, |acc, run| acc | run.touched);
            if lanes == 0 {
                continue;
            }
            touched.extend(set_lanes(lanes).map(|lane| b * LANES + lane));
            good.extend(set_lanes(lanes).map(|lane| workers[0].new.good_response(lane)));
            let clean_runs = fan_out(&mut workers[..clean_chunks.len()], |worker| {
                worker.run_clean(eco, &block)
            });
            let mut by_fault: Vec<&[(u32, u64)]> = vec![&[]; eco.faults.len()];
            let runs = (self.dirty_faults.iter())
                .zip(dirty_runs.iter().flat_map(|run| &run.new_diffs))
                .chain(clean.iter().zip(clean_runs.iter().flatten()));
            for (&fault, diffs) in runs {
                by_fault[fault] = diffs;
            }
            table.push_block(lanes, by_fault);
        }
        EcoPass {
            touched,
            differs: differs
                .into_iter()
                .map(|words| BitVec::from_words(words, tests.len()).expect("one word per block"))
                .collect(),
            columns: table.into_matrix(good, outputs),
        }
    }
}

/// The two circuits of an ECO, each with its full-scan view, over one
/// collapsed fault list (`faults`, ids into `universe`) that both circuits
/// share.
#[derive(Debug, Clone, Copy)]
pub struct EcoCircuits<'a> {
    /// The circuit the artifact was built from.
    pub old: &'a Circuit,
    /// `old`'s full-scan view.
    pub old_view: &'a CombView,
    /// The edited circuit.
    pub new: &'a Circuit,
    /// `new`'s full-scan view.
    pub new_view: &'a CombView,
    /// The fault universe of both circuits.
    pub universe: &'a FaultUniverse,
    /// The collapsed fault list the dictionary's rows follow.
    pub faults: &'a [FaultId],
}

/// What one [`EcoDelta::lockstep`] pass found.
#[derive(Debug, Clone)]
pub struct EcoPass {
    touched: Vec<usize>,
    differs: Vec<BitVec>,
    columns: ResponseMatrix,
}

impl EcoPass {
    /// The touched tests, ascending: those whose fault-free response or
    /// some dirty fault's diff set differs between the two circuits.
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// For the `i`-th dirty fault (position `i` in
    /// [`EcoDelta::dirty_faults`]): bit `t` set when its **old**-circuit
    /// response under test `t` differs from the baseline vector given for
    /// `t` — the bit an artifact built from the old circuit stores.
    pub fn differs(&self, i: usize) -> &BitVec {
        &self.differs[i]
    }

    /// The new circuit's response classes of every fault under the touched
    /// tests, in ascending test order: exactly the matrix
    /// [`ResponseMatrix::simulate`] gives for the new circuit over the
    /// touched patterns, so the columns are the ones a full rebuild would
    /// write.
    pub fn columns(&self) -> &ResponseMatrix {
        &self.columns
    }
}

/// One worker of [`EcoDelta::lockstep`]: a new-circuit engine for its
/// clean faults and, for a worker of the dirty phase, its dirty faults with
/// an old-circuit engine. Both engines live across the blocks.
struct Worker<'a> {
    /// `Some` for the workers of the dirty phase; the chunk is empty when
    /// there is no dirty fault, and the worker still compares the
    /// fault-free responses.
    dirty: Option<(&'a [usize], Engine<'a>)>,
    clean: &'a [usize],
    new: Engine<'a>,
}

/// What one worker's dirty faults gave under one block.
struct DirtyRun {
    /// The lanes the worker saw touched.
    touched: u64,
    /// Per dirty fault of the chunk: the lanes where its old response
    /// differs from the baseline.
    differs: Vec<u64>,
    /// Per dirty fault of the chunk: its new-circuit output-diff words.
    new_diffs: Vec<Vec<(u32, u64)>>,
}

impl Worker<'_> {
    /// Loads `block` into both engines and runs the dirty chunk on both
    /// (see [`EcoDelta::lockstep`]); `baseline` holds the block's stored
    /// baseline vectors, one lane per test.
    fn run_dirty(
        &mut self,
        eco: &EcoCircuits<'_>,
        block: &PatternBlock,
        baseline: &PatternBlock,
    ) -> DirtyRun {
        let (chunk, old) = self.dirty.as_mut().expect("a worker of the dirty phase");
        let new = &mut self.new;
        old.load_block(block);
        new.load_block(block);
        let lanes = block.lane_mask();
        let mut touched = 0;
        // `(output, old_good ^ baseline)` where nonzero: a fault's old
        // response differs from the baseline where this XOR its diff words
        // is nonzero.
        let mut off_baseline: Vec<(u32, u64)> = Vec::new();
        let observed = eco.old_view.outputs().iter().zip(eco.new_view.outputs());
        for (o, (&old_net, &new_net)) in observed.enumerate() {
            let old_good = old.good_word(old_net);
            touched |= (old_good ^ new.good_word(new_net)) & lanes;
            let off = (old_good ^ baseline.input_word(o)) & lanes;
            if off != 0 {
                off_baseline.push((o as u32, off));
            }
        }
        let mut differs = Vec::with_capacity(chunk.len());
        let mut new_diffs = Vec::with_capacity(chunk.len());
        for &position in chunk.iter() {
            let fault = eco.universe.fault(eco.faults[position]);
            let old_effect = old.run_fault(fault);
            let new_effect = new.run_fault(fault);
            touched |= xor_any(&old_effect.output_diffs, &new_effect.output_diffs);
            differs.push(xor_any(&off_baseline, &old_effect.output_diffs));
            new_diffs.push(new_effect.output_diffs);
        }
        DirtyRun {
            touched,
            differs,
            new_diffs,
        }
    }

    /// Runs the clean chunk on the new circuit under `block`, loading the
    /// block first unless the dirty phase already did.
    fn run_clean(&mut self, eco: &EcoCircuits<'_>, block: &PatternBlock) -> Vec<Vec<(u32, u64)>> {
        if self.dirty.is_none() {
            self.new.load_block(block);
        }
        self.clean
            .iter()
            .map(|&position| {
                self.new
                    .run_fault(eco.universe.fault(eco.faults[position]))
                    .output_diffs
            })
            .collect()
    }
}

/// The OR over all outputs of `a ^ b`, for two sparse, ascending
/// `(output, word)` lists (an absent output is the zero word): the lanes
/// in which the two word vectors differ anywhere.
fn xor_any(a: &[(u32, u64)], b: &[(u32, u64)]) -> u64 {
    let (mut i, mut j, mut any) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let ((pa, wa), (pb, wb)) = (a[i], b[j]);
        if pa == pb {
            any |= wa ^ wb;
            i += 1;
            j += 1;
        } else if pa < pb {
            any |= wa;
            i += 1;
        } else {
            any |= wb;
            j += 1;
        }
    }
    a[i..]
        .iter()
        .chain(&b[j..])
        .fold(any, |acc, &(_, word)| acc | word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::{CircuitBuilder, Driver, GateKind};

    /// Two independent inverter chains: a -> g1 -> out0, b -> g2 -> out1.
    fn split_pair() -> Circuit {
        let mut b = CircuitBuilder::new("split_pair");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate("g1", GateKind::Not, vec![a]);
        let g2 = b.gate("g2", GateKind::Not, vec![c]);
        b.output(g1);
        b.output(g2);
        b.finish().unwrap()
    }

    #[test]
    fn a_one_gate_eco_dirties_only_its_cone() {
        let old = split_pair();
        let g2 = old.net("g2").unwrap();
        let new = old
            .with_driver(
                g2,
                Driver::Gate {
                    kind: GateKind::Buf,
                    inputs: old.driver(g2).fanin().to_vec(),
                },
            )
            .unwrap();
        let universe = FaultUniverse::enumerate(&old);
        let collapsed = universe.collapse_on(&old);
        let delta = EcoDelta::compute(&old, &new, &universe, collapsed.representatives()).unwrap();
        assert_eq!(delta.changed_nets(), &[g2]);
        assert!(!delta.dirty_outputs().bit(0), "g1's output is clean");
        assert!(delta.dirty_outputs().bit(1), "g2's output is dirty");
        assert!(!delta.is_empty());
        // Exactly the faults that can reach output 1 are dirty.
        let cones = OutputCones::compute(&old, &CombView::new(&old));
        for (position, &id) in collapsed.representatives().iter().enumerate() {
            let reaches = cones.fault_cone(&universe, id).bit(1);
            assert_eq!(
                delta.dirty_faults().contains(&position),
                reaches,
                "fault {id}"
            );
        }
    }

    #[test]
    fn a_moved_flip_flop_data_net_dirties_its_pseudo_output() {
        // q = DFF(g1) becomes q = DFF(g2): q's pseudo-output (position 2)
        // now observes g2, though no changed net's cone reaches it.
        let mut b = CircuitBuilder::new("moved_dff");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate("g1", GateKind::Not, vec![a]);
        let g2 = b.gate("g2", GateKind::Not, vec![c]);
        let q = b.dff("q", g1);
        b.output(g1);
        b.output(g2);
        let old = b.finish().unwrap();
        let new = old.with_driver(q, Driver::Dff { data: g2 }).unwrap();
        let universe = FaultUniverse::enumerate(&old);
        let collapsed = universe.collapse_on(&old);
        let delta = EcoDelta::compute(&old, &new, &universe, collapsed.representatives()).unwrap();
        assert_eq!(delta.changed_nets(), &[q]);
        assert!(delta.dirty_outputs().bit(2), "the pseudo-output is dirty");
        assert!(!delta.dirty_outputs().bit(0) && !delta.dirty_outputs().bit(1));
        // Every fault that reaches it in either circuit — g1's in the old,
        // g2's in the new — is dirty.
        for (position, &id) in collapsed.representatives().iter().enumerate() {
            let net = universe.site_net(id);
            assert_eq!(
                delta.dirty_faults().contains(&position),
                [a, c, g1, g2].contains(&net),
                "fault {id}"
            );
        }
    }

    /// `chains` independent inverter pairs, `a{i} -> n{i} -> o{i}`.
    fn inverter_chains(chains: usize) -> Circuit {
        let mut b = CircuitBuilder::new("chains");
        for i in 0..chains {
            let a = b.input(&format!("a{i}"));
            let n = b.gate(&format!("n{i}"), GateKind::Not, vec![a]);
            let o = b.gate(&format!("o{i}"), GateKind::Not, vec![n]);
            b.output(o);
        }
        b.finish().unwrap()
    }

    #[test]
    fn a_cone_local_eco_runs_its_clean_faults_on_every_worker() {
        // `n0` becomes a buffer: two dirty faults, one dirty chunk, while
        // the 98 clean faults make four chunks at jobs 4, so three workers
        // load each touched block for their clean faults alone.
        let old = inverter_chains(50);
        let n0 = old.net("n0").unwrap();
        let new = old
            .with_driver(
                n0,
                Driver::Gate {
                    kind: GateKind::Buf,
                    inputs: old.driver(n0).fanin().to_vec(),
                },
            )
            .unwrap();
        let universe = FaultUniverse::enumerate(&old);
        let collapsed = universe.collapse_on(&old);
        let faults = collapsed.representatives();
        let delta = EcoDelta::compute(&old, &new, &universe, faults).unwrap();
        let clean: Vec<usize> = (0..faults.len())
            .filter(|f| !delta.dirty_faults().contains(f))
            .collect();
        assert_eq!(worker_chunks(delta.dirty_faults(), 4).len(), 1);
        assert_eq!(worker_chunks(&clean, 4).len(), 4);

        let (old_view, new_view) = (CombView::new(&old), CombView::new(&new));
        let eco = EcoCircuits {
            old: &old,
            old_view: &old_view,
            new: &new,
            new_view: &new_view,
            universe: &universe,
            faults,
        };
        let mut rng = sdd_logic::Prng::seed_from_u64(3);
        let tests: Vec<BitVec> = (0..130)
            .map(|_| (0..50).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let baselines = vec![BitVec::zeros(50); tests.len()];
        let serial = delta.lockstep(&eco, &tests, &baselines, 1);
        // `o0` flips under every test.
        assert_eq!(serial.touched(), (0..tests.len()).collect::<Vec<_>>());
        assert_eq!(
            *serial.columns(),
            ResponseMatrix::simulate(&new, &new_view, &universe, faults, &tests)
        );
        let parallel = delta.lockstep(&eco, &tests, &baselines, 4);
        assert_eq!(parallel.touched(), serial.touched());
        assert_eq!(parallel.columns(), serial.columns());
        for i in 0..delta.dirty_faults().len() {
            assert_eq!(parallel.differs(i), serial.differs(i));
        }
    }

    #[test]
    fn xor_any_merges_sparse_word_lists() {
        assert_eq!(xor_any(&[], &[]), 0);
        assert_eq!(xor_any(&[(1, 0b01)], &[]), 0b01);
        assert_eq!(xor_any(&[(1, 0b11)], &[(1, 0b01)]), 0b10);
        assert_eq!(
            xor_any(&[(0, 0b100), (2, 0b1)], &[(1, 0b10), (2, 0b1)]),
            0b110
        );
    }

    #[test]
    fn identical_circuits_yield_an_empty_delta() {
        let c = split_pair();
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let delta = EcoDelta::compute(&c, &c, &universe, collapsed.representatives()).unwrap();
        assert!(delta.changed_nets().is_empty());
        assert!(delta.is_empty());
        assert!(!delta.dirty_outputs().any());
    }

    #[test]
    fn interface_changes_are_typed_errors() {
        let old = split_pair();
        let mut b = CircuitBuilder::new("bigger");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, vec![a]);
        b.output(g1);
        let smaller = b.finish().unwrap();
        let err = changed_nets(&old, &smaller).unwrap_err();
        assert!(err.to_string().contains("rebuild"), "{err}");
        // A renamed net is named even when the two circuits number their
        // nets apart, and a pure renumbering is refused too.
        let mut b = CircuitBuilder::new("renamed");
        let c = b.input("b");
        let a = b.input("a");
        let g2 = b.gate("g2", GateKind::Not, vec![c]);
        let g1 = b.gate("g1x", GateKind::Not, vec![a]);
        b.output(g1);
        b.output(g2);
        let err = changed_nets(&old, &b.finish().unwrap()).unwrap_err();
        assert!(err.to_string().contains("\"g1\""), "{err}");
        let mut b = CircuitBuilder::new("renumbered");
        let c = b.input("b");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, vec![a]);
        let g2 = b.gate("g2", GateKind::Not, vec![c]);
        b.output(g1);
        b.output(g2);
        let err = changed_nets(&old, &b.finish().unwrap()).unwrap_err();
        assert!(err.to_string().contains("\"a\" (id 0)"), "{err}");
    }
}
