//! Partition refinement over fault sets.
//!
//! Diagnostic-resolution questions are partition questions: a dictionary
//! distinguishes two faults exactly when their signatures differ, so the
//! faults a dictionary *cannot* distinguish form the blocks of a partition.
//! The number of indistinguished fault pairs — the paper's figure of merit —
//! is `Σ_G C(|G|, 2)` over the blocks `G`.
//!
//! Groups are numbered by first appearance: scanning faults in index order,
//! each fault not in an earlier fault's group opens the next label. Every
//! constructor and refinement keeps this numbering, which callers can
//! observe through [`Partition::labels`] and [`Partition::groups`], and it
//! makes a refinement that splits nothing leave every label unchanged.

/// A renumber-table slot no fault has claimed yet.
const UNSEEN: u32 = u32::MAX;

/// A partition of `n` faults into groups of mutually indistinguished faults.
///
/// Starts with everything in one group and is *refined* by successive
/// observations (one per test): faults with different observations under any
/// test end up in different groups.
///
/// # Example
///
/// ```
/// use sdd_sim::Partition;
///
/// let mut p = Partition::unit(4);
/// assert_eq!(p.indistinguished_pairs(), 6); // C(4,2)
/// p.refine(&[0, 0, 1, 1]);
/// assert_eq!(p.group_count(), 2);
/// assert_eq!(p.indistinguished_pairs(), 2);
/// p.refine(&[0, 1, 0, 0]);
/// assert_eq!(p.indistinguished_pairs(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    group_of: Vec<u32>,
    group_count: u32,
}

impl Partition {
    /// The trivial partition: all `n` faults in one group.
    pub fn unit(n: usize) -> Self {
        Self {
            group_of: vec![0; n],
            group_count: u32::from(n > 0),
        }
    }

    /// Builds a partition directly from group labels (labels are
    /// renumbered densely).
    pub fn from_labels(labels: &[u32]) -> Self {
        let mut p = Self::unit(labels.len());
        p.refine(labels);
        p
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// Returns `true` for the empty partition.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// The dense group label of fault `i`.
    pub fn group_of(&self, i: usize) -> u32 {
        self.group_of[i]
    }

    /// All group labels, indexed by fault.
    pub fn labels(&self) -> &[u32] {
        &self.group_of
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.group_count as usize
    }

    /// Splits groups by a new observation: faults keep sharing a group only
    /// if they agree on `labels` too. Labels may be any `u32` values; only
    /// their equality matters.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != self.len()`.
    pub fn refine(&mut self, labels: &[u32]) {
        assert_eq!(labels.len(), self.len(), "label row width mismatch");
        let n = self.len();
        // Labels index the stamp table below, so one at or above `n` sends
        // the row through a sort first: no table is sized by a label value.
        let ranked;
        let labels = if labels.iter().all(|&label| (label as usize) < n) {
            labels
        } else {
            ranked = rank_labels(labels);
            &ranked
        };

        // Bucket the faults by current group, ascending within each bucket.
        // `end[g]` starts as bucket g's offset and is advanced past each
        // fault placed, so it finishes as the bucket's end.
        let groups = self.group_count();
        let mut end = vec![0u32; groups + 1];
        for &g in &self.group_of {
            end[g as usize + 1] += 1;
        }
        for g in 0..groups {
            end[g + 1] += end[g];
        }
        let mut bucketed = vec![0u32; n];
        for (fault, &g) in self.group_of.iter().enumerate() {
            let slot = &mut end[g as usize];
            bucketed[*slot as usize] = fault as u32;
            *slot += 1;
        }

        // Within each group, equal labels share a provisional id; `seen`
        // stamps each label with the last group that used it.
        let mut seen = vec![(UNSEEN, 0u32); n];
        let mut provisional = 0u32;
        let mut start = 0usize;
        for (g, &stop) in end[..groups].iter().enumerate() {
            for &fault in &bucketed[start..stop as usize] {
                let entry = &mut seen[labels[fault as usize] as usize];
                if entry.0 != g as u32 {
                    *entry = (g as u32, provisional);
                    provisional += 1;
                }
                self.group_of[fault as usize] = entry.1;
            }
            start = stop as usize;
        }

        // Renumber the provisional ids by first appearance.
        let mut renumber = vec![UNSEEN; provisional as usize];
        let mut next = 0u32;
        for slot in &mut self.group_of {
            let id = &mut renumber[*slot as usize];
            if *id == UNSEEN {
                *id = next;
                next += 1;
            }
            *slot = *id;
        }
        self.group_count = next;
    }

    /// Splits groups by a boolean observation (e.g. one pass/fail bit).
    pub fn refine_bits(&mut self, bit: impl Fn(usize) -> bool) {
        // Group g splits into keys 2g and 2g + 1, numbered on first sight.
        let mut renumber = vec![UNSEEN; 2 * self.group_count()];
        let mut next = 0u32;
        for (i, slot) in self.group_of.iter_mut().enumerate() {
            let id = &mut renumber[2 * *slot as usize + usize::from(bit(i))];
            if *id == UNSEEN {
                *id = next;
                next += 1;
            }
            *slot = *id;
        }
        self.group_count = next;
    }

    /// Intersects with another partition over the same faults: the result
    /// groups faults together only when both partitions do.
    ///
    /// # Panics
    ///
    /// Panics if the partitions have different lengths.
    pub fn intersect(&self, other: &Self) -> Self {
        let mut merged = self.clone();
        merged.refine(&other.group_of);
        merged
    }

    /// Sizes of all groups.
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.group_count()];
        for &g in &self.group_of {
            sizes[g as usize] += 1;
        }
        sizes
    }

    /// Number of fault pairs in the same group — the paper's
    /// "indistinguished fault pairs" metric.
    pub fn indistinguished_pairs(&self) -> u64 {
        self.group_sizes()
            .iter()
            .map(|&s| s as u64 * (s as u64 - 1) / 2)
            .sum()
    }

    /// Members of each group, as fault-index lists.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.group_count()];
        for (fault, &g) in self.group_of.iter().enumerate() {
            groups[g as usize].push(fault);
        }
        groups
    }
}

/// Replaces each label by its rank among the row's distinct labels, so
/// equal labels stay equal and every rank is below `labels.len()`.
fn rank_labels(labels: &[u32]) -> Vec<u32> {
    let mut by_label: Vec<u32> = (0..labels.len() as u32).collect();
    by_label.sort_unstable_by_key(|&fault| labels[fault as usize]);
    let mut ranked = vec![0u32; labels.len()];
    let mut rank = 0u32;
    for (pos, &fault) in by_label.iter().enumerate() {
        if pos > 0 && labels[fault as usize] != labels[by_label[pos - 1] as usize] {
            rank += 1;
        }
        ranked[fault as usize] = rank;
    }
    ranked
}

impl crate::ResponseMatrix {
    /// The partition induced by a *full* dictionary over this matrix: faults
    /// grouped by their complete response-class signature. This is the best
    /// resolution any dictionary built on the same test set can reach.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_fault::FaultUniverse;
    /// use sdd_netlist::{library, CombView};
    /// use sdd_sim::ResponseMatrix;
    /// use sdd_logic::BitVec;
    ///
    /// let c17 = library::c17();
    /// let view = CombView::new(&c17);
    /// let u = FaultUniverse::enumerate(&c17);
    /// let collapsed = u.collapse_on(&c17);
    /// let tests: Vec<BitVec> = (0u32..32)
    ///     .map(|w| (0..5).map(|i| w >> i & 1 == 1).collect())
    ///     .collect();
    /// let m = ResponseMatrix::simulate(&c17, &view, &u, collapsed.representatives(), &tests);
    /// let p = m.full_partition();
    /// // Exhaustive tests distinguish every pair of collapsed c17 faults.
    /// assert_eq!(p.indistinguished_pairs(), 0);
    /// ```
    pub fn full_partition(&self) -> Partition {
        let mut p = Partition::unit(self.fault_count());
        for test in 0..self.test_count() {
            p.refine(self.classes(test));
        }
        p
    }

    /// The partition induced by a *pass/fail* dictionary: faults grouped by
    /// their detection signature (`b[i][j] = [test j detects fault i]`).
    pub fn pass_fail_partition(&self) -> Partition {
        let mut p = Partition::unit(self.fault_count());
        for test in 0..self.test_count() {
            let row = self.classes(test);
            p.refine_bits(|i| row[i] != 0);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_partition() {
        let p = Partition::unit(5);
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.indistinguished_pairs(), 10);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert!(Partition::unit(0).is_empty());
        assert_eq!(Partition::unit(0).group_count(), 0);
    }

    #[test]
    fn refine_splits_and_renumbers_densely() {
        let mut p = Partition::unit(6);
        p.refine(&[7, 7, 9, 9, 7, 3]);
        assert_eq!(p.group_count(), 3);
        assert_eq!(p.group_of(0), p.group_of(1));
        assert_eq!(p.group_of(0), p.group_of(4));
        assert_ne!(p.group_of(0), p.group_of(2));
        assert!(p.labels().iter().all(|&g| g < 3), "labels are dense");
    }

    #[test]
    fn refinement_is_monotone() {
        let mut p = Partition::unit(8);
        let mut last = p.indistinguished_pairs();
        let rows = [
            vec![0, 0, 0, 0, 1, 1, 1, 1],
            vec![0, 0, 1, 1, 0, 0, 1, 1],
            vec![0, 0, 0, 0, 0, 0, 0, 0], // no-op row
            vec![0, 1, 0, 1, 0, 1, 0, 1],
        ];
        for row in &rows {
            p.refine(row);
            let now = p.indistinguished_pairs();
            assert!(now <= last);
            last = now;
        }
        assert_eq!(p.group_count(), 8);
        assert_eq!(p.indistinguished_pairs(), 0);
    }

    #[test]
    fn refine_is_order_insensitive_for_final_result() {
        let rows = [vec![0, 1, 0, 1], vec![0, 0, 1, 1]];
        let mut a = Partition::unit(4);
        a.refine(&rows[0]);
        a.refine(&rows[1]);
        let mut b = Partition::unit(4);
        b.refine(&rows[1]);
        b.refine(&rows[0]);
        assert_eq!(a.indistinguished_pairs(), b.indistinguished_pairs());
        assert_eq!(a.group_count(), b.group_count());
    }

    #[test]
    fn large_labels_renumber_like_small_ones() {
        let large = Partition::from_labels(&[u32::MAX, 0, u32::MAX, 7]);
        assert_eq!(large.labels(), [0, 1, 0, 2]);
        assert_eq!(large, Partition::from_labels(&[2, 0, 2, 1]));
    }

    #[test]
    fn refine_that_splits_nothing_keeps_labels() {
        let mut p = Partition::from_labels(&[3, 1, 3, 2, 1]);
        let before = p.clone();
        p.refine(&[9, 4, 9, 0, 4]);
        p.refine_bits(|i| i == 1 || i == 4);
        assert_eq!(p, before);
    }

    #[test]
    fn from_labels_and_intersect() {
        let a = Partition::from_labels(&[0, 0, 1, 1]);
        let b = Partition::from_labels(&[0, 1, 1, 1]);
        let c = a.intersect(&b);
        assert_eq!(c.group_count(), 3);
        assert_eq!(c.indistinguished_pairs(), 1); // only faults 2,3 together
    }

    #[test]
    fn groups_and_sizes_are_consistent() {
        let p = Partition::from_labels(&[0, 1, 0, 2, 1, 0]);
        let sizes = p.group_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        let groups = p.groups();
        assert_eq!(groups.len(), p.group_count());
        for (g, members) in groups.iter().enumerate() {
            assert_eq!(members.len(), sizes[g]);
            for &m in members {
                assert_eq!(p.group_of(m) as usize, g);
            }
        }
    }

    #[test]
    fn refine_bits_matches_refine() {
        let mut a = Partition::unit(4);
        a.refine_bits(|i| i % 2 == 0);
        let mut b = Partition::unit(4);
        b.refine(&[1, 0, 1, 0]);
        assert_eq!(a.group_count(), b.group_count());
        assert_eq!(a.indistinguished_pairs(), b.indistinguished_pairs());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn refine_wrong_width_panics() {
        Partition::unit(3).refine(&[0, 1]);
    }
}
