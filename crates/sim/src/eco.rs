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
//! [`EcoDelta::lockstep`] then runs the dirty faults through both circuits
//! in one pass ([`EcoPass`]): which tests the edit touched, and the
//! old-circuit facts an artifact cross-check needs, come out of word
//! operations on the two engines' output-diff words, and only the touched
//! columns are ever interned ([`EcoPass::touched_columns`]).

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, PatternBlock, SddError, LANES};
use sdd_netlist::{Circuit, CombView, NetId};

use crate::response::{set_lanes, ClassTable, MIN_CHUNK_FAULTS};
use crate::{Engine, OutputCones, ResponseMatrix};

/// The nets whose drivers differ between two interface-identical circuits.
///
/// The interface check is strict — same net count, same name per net id,
/// same input/output/flip-flop lists — because everything downstream
/// (fault ids, test vectors, signature rows) is indexed by those ids; an
/// ECO that renames or adds nets needs a full rebuild, and the typed error
/// says so.
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
    for net in old.nets() {
        if old.net_name(net) != new.net_name(net) {
            return Err(SddError::invalid(format!(
                "ECO renamed net {} ({:?} -> {:?}): not patchable, rebuild the dictionary",
                net.0,
                old.net_name(net),
                new.net_name(net)
            )));
        }
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
    /// 64-test block at a time, and returns what the edit touched.
    ///
    /// Per block, an old-circuit and a new-circuit [`Engine`] load the same
    /// patterns and each dirty fault runs on both. A test is *touched* when
    /// its fault-free response or any dirty fault's diff set moved: the OR
    /// of `old_good ^ new_good` over the outputs, plus the OR of each dirty
    /// fault's old and new diff words. Alongside, each dirty fault's
    /// old-circuit response is compared with `baselines` (the stored
    /// baseline vector of every test, `m` bits each) as the OR over the
    /// outputs of `old_good ^ old_diff ^ baseline`, giving
    /// [`EcoPass::differs`]. No column is interned here; the dirty faults'
    /// new diff words are kept for [`EcoPass::touched_columns`].
    ///
    /// The dirty faults are split into contiguous chunks, one engine pair
    /// per worker (at most `jobs`); touched masks are OR-ed and rows are
    /// stored by fault position, so the result is the same for every
    /// `jobs`. The pass runs even with no dirty fault: the fault-free
    /// responses alone can move a baseline vector.
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
        let blocks = PatternBlock::blocks(width, tests);
        let baseline_blocks = PatternBlock::blocks(outputs, baselines);
        let chunks = in_chunks(&self.dirty_faults, jobs, |chunk| {
            lockstep_chunk(eco, chunk, &blocks, &baseline_blocks)
        });
        let mut touched_lanes = vec![0u64; blocks.len()];
        let mut new_good = Vec::new();
        let mut differs = Vec::with_capacity(self.dirty_faults.len());
        let mut new_diffs = Vec::with_capacity(self.dirty_faults.len() * blocks.len());
        for chunk in chunks {
            for (all, lanes) in touched_lanes.iter_mut().zip(&chunk.touched_lanes) {
                *all |= lanes;
            }
            // Every chunk saw the same fault-free responses.
            if new_good.is_empty() {
                new_good = chunk.new_good;
            }
            differs.extend((0..chunk.faults).map(|local| {
                let words = &chunk.differs[local * blocks.len()..(local + 1) * blocks.len()];
                BitVec::from_words(words.to_vec(), tests.len()).expect("one word per block")
            }));
            new_diffs.extend(chunk.new_diffs);
        }
        EcoPass {
            dirty: self.dirty_faults.clone(),
            test_count: tests.len(),
            touched_lanes,
            new_good,
            differs,
            new_diffs,
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
    /// Dirty fault positions, ascending (the delta's).
    dirty: Vec<usize>,
    test_count: usize,
    /// Per 64-test block: the touched lanes.
    touched_lanes: Vec<u64>,
    /// `[block * m + output]`: the new circuit's fault-free output words.
    new_good: Vec<u64>,
    /// Per dirty fault: bit `t` set when its old response under test `t`
    /// differs from the stored baseline vector of `t`.
    differs: Vec<BitVec>,
    /// `[dirty fault * blocks + block]`: the new circuit's output-diff words.
    new_diffs: Vec<Vec<(u32, u64)>>,
}

impl EcoPass {
    /// The touched tests, ascending: those whose fault-free response or
    /// some dirty fault's diff set differs between the two circuits.
    pub fn touched(&self) -> Vec<usize> {
        self.touched_lanes
            .iter()
            .enumerate()
            .flat_map(|(block, &lanes)| set_lanes(lanes).map(move |lane| block * LANES + lane))
            .collect()
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
    /// [`ResponseMatrix::simulate`] gives for `eco.new` over the touched
    /// patterns, so the columns are the ones a full rebuild would write.
    ///
    /// Dirty faults take the new diff words the pass kept; each clean fault
    /// gets one new-circuit run, only over blocks that hold touched tests
    /// (contiguous chunks of clean faults, one engine per worker, at most
    /// `jobs`). Every column is then interned once, in fault order.
    ///
    /// # Panics
    ///
    /// Panics if `eco` or `tests` are not the ones the pass ran on.
    pub fn touched_columns(
        &self,
        eco: &EcoCircuits<'_>,
        tests: &[BitVec],
        jobs: usize,
    ) -> ResponseMatrix {
        assert_eq!(tests.len(), self.test_count, "the pass's test set");
        let (width, outputs) = (eco.new_view.inputs().len(), eco.new_view.outputs().len());
        let block_count = self.touched_lanes.len();
        let touched_blocks: Vec<usize> = (0..block_count)
            .filter(|&b| self.touched_lanes[b] != 0)
            .collect();
        let patterns: Vec<PatternBlock> = touched_blocks
            .iter()
            .map(|&b| {
                let end = tests.len().min((b + 1) * LANES);
                PatternBlock::from_patterns(width, &tests[b * LANES..end])
            })
            .collect();
        let mut dirty = self.dirty.iter().copied().peekable();
        let clean: Vec<usize> = (0..eco.faults.len())
            .filter(|&fault| dirty.next_if_eq(&fault).is_none())
            .collect();
        // `[clean fault * touched blocks + touched block]`.
        let clean_diffs: Vec<Vec<(u32, u64)>> = in_chunks(&clean, jobs, |chunk| {
            let mut engine = Engine::new(eco.new, eco.new_view);
            let mut diffs = vec![Vec::new(); chunk.len() * patterns.len()];
            for (t, block) in patterns.iter().enumerate() {
                engine.load_block(block);
                for (local, &fault) in chunk.iter().enumerate() {
                    diffs[local * patterns.len() + t] = engine
                        .run_fault(eco.universe.fault(eco.faults[fault]))
                        .output_diffs;
                }
            }
            diffs
        })
        .concat();

        let columns = touched_blocks
            .iter()
            .map(|&b| self.touched_lanes[b].count_ones() as usize)
            .sum();
        let mut table = ClassTable::new(columns, eco.faults.len());
        let mut good = Vec::with_capacity(columns);
        for (t, &b) in touched_blocks.iter().enumerate() {
            let lanes = self.touched_lanes[b];
            let first_test = good.len();
            let words = &self.new_good[b * outputs..(b + 1) * outputs];
            good.extend(set_lanes(lanes).map(|lane| {
                words
                    .iter()
                    .map(|word| word >> lane & 1 == 1)
                    .collect::<BitVec>()
            }));
            let (mut d, mut c) = (0, 0);
            for fault in 0..eco.faults.len() {
                let diffs = if self.dirty.get(d) == Some(&fault) {
                    d += 1;
                    &self.new_diffs[(d - 1) * block_count + b]
                } else {
                    c += 1;
                    &clean_diffs[(c - 1) * patterns.len() + t]
                };
                table.record_lanes(fault, diffs, lanes, first_test);
            }
        }
        table.into_matrix(good, outputs)
    }
}

/// One worker's share of [`EcoDelta::lockstep`], laid out as [`EcoPass`]
/// lays out the whole.
struct ChunkPass {
    faults: usize,
    touched_lanes: Vec<u64>,
    new_good: Vec<u64>,
    /// `[local fault * blocks + block]`.
    differs: Vec<u64>,
    /// `[local fault * blocks + block]`.
    new_diffs: Vec<Vec<(u32, u64)>>,
}

/// Runs the dirty faults at positions `chunk` through both circuits over
/// every block (see [`EcoDelta::lockstep`]).
fn lockstep_chunk(
    eco: &EcoCircuits<'_>,
    chunk: &[usize],
    blocks: &[PatternBlock],
    baselines: &[PatternBlock],
) -> ChunkPass {
    let mut old_engine = Engine::new(eco.old, eco.old_view);
    let mut new_engine = Engine::new(eco.new, eco.new_view);
    let outputs = eco.old_view.outputs().len();
    let nb = blocks.len();
    let mut pass = ChunkPass {
        faults: chunk.len(),
        touched_lanes: vec![0; nb],
        new_good: vec![0; nb * outputs],
        differs: vec![0; chunk.len() * nb],
        new_diffs: vec![Vec::new(); chunk.len() * nb],
    };
    // `(output, old_good ^ baseline)` where nonzero: a fault's old
    // response differs from the baseline where this XOR its diff words is
    // nonzero.
    let mut off_baseline: Vec<(u32, u64)> = Vec::new();
    for (b, (block, baseline)) in blocks.iter().zip(baselines).enumerate() {
        old_engine.load_block(block);
        new_engine.load_block(block);
        let lanes = block.lane_mask();
        off_baseline.clear();
        let observed = eco.old_view.outputs().iter().zip(eco.new_view.outputs());
        for (o, (&old_net, &new_net)) in observed.enumerate() {
            let (old_good, new_good) =
                (old_engine.good_word(old_net), new_engine.good_word(new_net));
            pass.touched_lanes[b] |= (old_good ^ new_good) & lanes;
            pass.new_good[b * outputs + o] = new_good;
            let off = (old_good ^ baseline.input_word(o)) & lanes;
            if off != 0 {
                off_baseline.push((o as u32, off));
            }
        }
        for (local, &position) in chunk.iter().enumerate() {
            let fault = eco.universe.fault(eco.faults[position]);
            let old_effect = old_engine.run_fault(fault);
            let new_effect = new_engine.run_fault(fault);
            pass.touched_lanes[b] |= xor_any(&old_effect.output_diffs, &new_effect.output_diffs);
            pass.differs[local * nb + b] = xor_any(&off_baseline, &old_effect.output_diffs);
            pass.new_diffs[local * nb + b] = new_effect.output_diffs;
        }
    }
    pass
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

/// Runs `work` over contiguous chunks of `items` — one worker thread per
/// chunk, at most `jobs`, none smaller than [`MIN_CHUNK_FAULTS`] unless it
/// is the only one — and returns the results in chunk order. There is
/// always at least one chunk, so an empty `items` still runs `work` once.
fn in_chunks<T: Send>(items: &[usize], jobs: usize, work: impl Fn(&[usize]) -> T + Sync) -> Vec<T> {
    let count = jobs.min(items.len().div_ceil(MIN_CHUNK_FAULTS)).max(1);
    if count == 1 {
        return vec![work(items)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(items.len().div_ceil(count))
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    })
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
    }
}
