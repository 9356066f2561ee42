//! The pre-optimization, heap-allocating cut enumeration, kept as a living
//! baseline.
//!
//! This module preserves the original `Vec`-based data structures the crate
//! shipped with before the zero-allocation rewrite: leaves in a `Vec<NodeId>`,
//! truth tables in a `Vec<u64>` regardless of size, a `(size, leaves.to_vec())`
//! sort key that clones per comparison, and the per-pair dummy-cut clone in
//! the 3-fanin path. It exists for two reasons:
//!
//! 1. the `cut_enum` benchmark measures the new hot path *against* this
//!    implementation, so the recorded speedup always refers to a runnable
//!    baseline rather than a git archaeology exercise;
//! 2. the property-based tests cross-check the inline enumeration against
//!    this reference semantics cut-for-cut.
//!
//! Nothing in the mapping flows uses this module.

use crate::CutParams;
use mch_logic::{GateKind, Network, NodeId, Signal};

/// Heap-allocated truth table: always a `Vec<u64>`, as before the inline
/// small-table representation existed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LegacyTable {
    num_vars: usize,
    words: Vec<u64>,
}

fn words_for(num_vars: usize) -> usize {
    if num_vars <= 6 {
        1
    } else {
        1 << (num_vars - 6)
    }
}

fn mask_for(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

impl LegacyTable {
    /// The constant-false function.
    pub fn zeros(num_vars: usize) -> Self {
        LegacyTable {
            num_vars,
            words: vec![0; words_for(num_vars)],
        }
    }

    /// The projection of variable `var`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        let mut t = LegacyTable::zeros(num_vars);
        for i in 0..t.num_bits() {
            if i & (1 << var) != 0 {
                t.set_bit(i, true);
            }
        }
        t
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterms.
    pub fn num_bits(&self) -> usize {
        1 << self.num_vars
    }

    /// The raw backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value at minterm `index`.
    pub fn bit(&self, index: usize) -> bool {
        (self.words[index >> 6] >> (index & 63)) & 1 == 1
    }

    /// Sets the value at minterm `index`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        if value {
            self.words[index >> 6] |= 1u64 << (index & 63);
        } else {
            self.words[index >> 6] &= !(1u64 << (index & 63));
        }
    }

    fn mask(&mut self) {
        if self.num_vars < 6 {
            self.words[0] &= mask_for(self.num_vars);
        }
    }

    fn zip(&self, other: &LegacyTable, op: impl Fn(u64, u64) -> u64) -> LegacyTable {
        let mut t = LegacyTable {
            num_vars: self.num_vars,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| op(a, b))
                .collect(),
        };
        t.mask();
        t
    }

    /// Bitwise AND.
    pub fn and(&self, other: &LegacyTable) -> LegacyTable {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &LegacyTable) -> LegacyTable {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &LegacyTable) -> LegacyTable {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement.
    pub fn not(&self) -> LegacyTable {
        let mut t = LegacyTable {
            num_vars: self.num_vars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        t.mask();
        t
    }

    /// Three-input majority.
    pub fn maj(a: &LegacyTable, b: &LegacyTable, c: &LegacyTable) -> LegacyTable {
        a.and(b).or(&a.and(c)).or(&b.and(c))
    }

    /// Minterm-by-minterm variable remapping (the original implementation).
    pub fn remap_vars(&self, new_num_vars: usize, placement: &[usize]) -> LegacyTable {
        let mut t = LegacyTable::zeros(new_num_vars);
        for i in 0..t.num_bits() {
            let mut old = 0usize;
            for (ov, &nv) in placement.iter().enumerate() {
                if i & (1 << nv) != 0 {
                    old |= 1 << ov;
                }
            }
            t.set_bit(i, self.bit(old));
        }
        t
    }
}

/// A cut with heap-allocated leaves — the original representation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LegacyCut {
    root: NodeId,
    leaves: Vec<NodeId>,
    signature: u64,
    function: LegacyTable,
}

impl LegacyCut {
    /// Creates a cut from its parts. Leaves must already be sorted.
    pub fn new(root: NodeId, leaves: Vec<NodeId>, function: LegacyTable) -> Self {
        let signature = leaves
            .iter()
            .fold(0u64, |acc, l| acc | 1 << (l.index() % 64));
        LegacyCut {
            root,
            leaves,
            signature,
            function,
        }
    }

    /// The trivial cut of `node`.
    pub fn trivial(node: NodeId) -> Self {
        LegacyCut::new(node, vec![node], LegacyTable::var(1, 0))
    }

    /// The constant cut.
    pub fn constant(node: NodeId) -> Self {
        LegacyCut::new(node, vec![], LegacyTable::zeros(0))
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The sorted leaves.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// The cut function.
    pub fn function(&self) -> &LegacyTable {
        &self.function
    }

    /// Whether this is the trivial cut of its root.
    pub fn is_trivial(&self) -> bool {
        self.leaves.len() == 1 && self.leaves[0] == self.root
    }

    /// Subset test via per-leaf binary search (the original formulation).
    pub fn dominates(&self, other: &LegacyCut) -> bool {
        if self.leaves.len() > other.leaves.len() {
            return false;
        }
        if self.signature & !other.signature != 0 {
            return false;
        }
        self.leaves
            .iter()
            .all(|l| other.leaves.binary_search(l).is_ok())
    }

    /// Merges two leaf sets into a fresh `Vec`, the original allocation-heavy
    /// formulation.
    pub fn merge_leaves(a: &LegacyCut, b: &LegacyCut, max_size: usize) -> Option<Vec<NodeId>> {
        let mut out = Vec::with_capacity(a.leaves.len() + b.leaves.len());
        let (mut i, mut j) = (0, 0);
        while i < a.leaves.len() || j < b.leaves.len() {
            let next = match (a.leaves.get(i), b.leaves.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            out.push(next);
            if out.len() > max_size {
                return None;
            }
        }
        Some(out)
    }
}

/// The original two-scan, full-slice-comparing cut set.
#[derive(Clone, Debug, Default)]
pub struct LegacyCutSet {
    cuts: Vec<LegacyCut>,
}

impl LegacyCutSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LegacyCutSet::default()
    }

    /// Iterates over the stored cuts.
    pub fn iter(&self) -> impl Iterator<Item = &LegacyCut> {
        self.cuts.iter()
    }

    /// Number of cuts stored.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Returns `true` if no cut is stored.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// Dominance-filtered insertion with the original two separate scans.
    pub fn insert(&mut self, cut: LegacyCut) -> bool {
        if self
            .cuts
            .iter()
            .any(|c| c.dominates(&cut) && c.leaves() != cut.leaves())
        {
            return false;
        }
        if self.cuts.iter().any(|c| c.leaves() == cut.leaves()) {
            return false;
        }
        self.cuts
            .retain(|c| !cut.dominates(c) || c.leaves() == cut.leaves());
        self.cuts.push(cut);
        true
    }

    /// Unfiltered append with full-slice duplicate comparison.
    pub fn push_unchecked(&mut self, cut: LegacyCut) {
        if self
            .cuts
            .iter()
            .any(|c| c.leaves() == cut.leaves() && c.root() == cut.root())
        {
            return;
        }
        self.cuts.push(cut);
    }

    /// The original sort-and-truncate with a cloning sort key.
    pub fn prioritize<K: Ord>(&mut self, limit: usize, mut key: impl FnMut(&LegacyCut) -> K) {
        self.cuts.sort_by_key(|c| key(c));
        if self.cuts.len() > limit {
            let trivial = self.cuts.iter().position(|c| c.is_trivial());
            if let Some(pos) = trivial {
                if pos >= limit {
                    let t = self.cuts.remove(pos);
                    self.cuts.truncate(limit.saturating_sub(1));
                    self.cuts.push(t);
                    return;
                }
            }
            self.cuts.truncate(limit);
        }
    }
}

/// All legacy cut sets of a network, indexed by node.
#[derive(Clone, Debug)]
pub struct LegacyNetworkCuts {
    sets: Vec<LegacyCutSet>,
}

impl LegacyNetworkCuts {
    /// The cut set of `node`.
    pub fn of(&self, node: NodeId) -> &LegacyCutSet {
        &self.sets[node.index()]
    }

    /// Total number of cuts over all nodes.
    pub fn total_cuts(&self) -> usize {
        self.sets.iter().map(LegacyCutSet::len).sum()
    }
}

fn compose_function(
    kind: GateKind,
    fanins: &[Signal],
    fanin_cuts: &[&LegacyCut],
    leaves: &[NodeId],
) -> LegacyTable {
    let nvars = leaves.len();
    let mut tables: Vec<LegacyTable> = Vec::with_capacity(fanins.len());
    for (sig, cut) in fanins.iter().zip(fanin_cuts) {
        let placement: Vec<usize> = cut
            .leaves()
            .iter()
            .map(|l| leaves.binary_search(l).expect("leaf present in merged cut"))
            .collect();
        let mut t = if cut.size() == 0 {
            LegacyTable::zeros(nvars)
        } else {
            cut.function().remap_vars(nvars, &placement)
        };
        if sig.is_complement() {
            t = t.not();
        }
        tables.push(t);
    }
    match kind {
        GateKind::And2 => tables[0].and(&tables[1]),
        GateKind::Xor2 => tables[0].xor(&tables[1]),
        GateKind::Maj3 => LegacyTable::maj(&tables[0], &tables[1], &tables[2]),
        _ => unreachable!("only gates are composed"),
    }
}

/// The original priority-cut enumeration, byte-for-byte in behavior: fresh
/// allocations per node, per merge, per sort comparison and per 3-fanin pair.
pub fn legacy_enumerate_cuts(network: &Network, params: &CutParams) -> LegacyNetworkCuts {
    let mut sets: Vec<LegacyCutSet> = vec![LegacyCutSet::new(); network.len()];
    sets[0].push_unchecked(LegacyCut::constant(NodeId::CONST0));
    for &pi in network.inputs() {
        sets[pi.index()].push_unchecked(LegacyCut::trivial(pi));
    }
    for id in network.gate_ids() {
        let node = network.node(id);
        let fanins: Vec<Signal> = node.fanins().to_vec();
        let mut set = LegacyCutSet::new();

        let fanin_sets: Vec<&LegacyCutSet> =
            fanins.iter().map(|s| &sets[s.node().index()]).collect();
        match fanins.len() {
            2 => {
                for ca in fanin_sets[0].iter() {
                    for cb in fanin_sets[1].iter() {
                        if let Some(leaves) = LegacyCut::merge_leaves(ca, cb, params.cut_size) {
                            let f = compose_function(node.kind(), &fanins, &[ca, cb], &leaves);
                            set.insert(LegacyCut::new(id, leaves, f));
                        }
                    }
                }
            }
            3 => {
                for ca in fanin_sets[0].iter() {
                    for cb in fanin_sets[1].iter() {
                        let Some(ab) = LegacyCut::merge_leaves(ca, cb, params.cut_size) else {
                            continue;
                        };
                        let ab_cut = LegacyCut::new(id, ab.clone(), LegacyTable::zeros(ab.len()));
                        for cc in fanin_sets[2].iter() {
                            if let Some(leaves) =
                                LegacyCut::merge_leaves(&ab_cut, cc, params.cut_size)
                            {
                                let f =
                                    compose_function(node.kind(), &fanins, &[ca, cb, cc], &leaves);
                                set.insert(LegacyCut::new(id, leaves, f));
                            }
                        }
                    }
                }
            }
            _ => unreachable!("gates have 2 or 3 fanins"),
        }

        set.prioritize(params.cut_limit, |c| (c.size(), c.leaves().to_vec()));
        set.push_unchecked(LegacyCut::trivial(id));
        sets[id.index()] = set;
    }
    LegacyNetworkCuts { sets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_cuts, CutParams};
    use mch_logic::{Network, NetworkKind};

    #[test]
    fn legacy_matches_inline_on_full_adder() {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let (s, co) = n.full_adder(a, b, c);
        n.add_output(s);
        n.add_output(co);
        let params = CutParams::new(4, 8);
        let old = legacy_enumerate_cuts(&n, &params);
        let new = enumerate_cuts(&n, &params);
        assert_eq!(old.total_cuts(), new.total_cuts());
        for id in n.node_ids() {
            for (x, y) in new.of(id).iter().zip(old.of(id).iter()) {
                assert_eq!(x.leaves(), y.leaves());
                assert_eq!(x.function().words(), y.function().words());
                assert_eq!(x.root(), y.root());
            }
        }
    }
}
