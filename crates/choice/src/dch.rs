//! The DCH baseline: structural choices from technology-independent
//! optimization snapshots.
//!
//! ABC's `dch` command builds a choice network by combining the original
//! network with the results of running synthesis scripts on it, identifying
//! functionally equivalent nodes across the versions. This module reproduces
//! that behaviour: it takes the original network plus any number of optimized
//! snapshots and links nodes whose simulation signatures agree (up to
//! complement). It is the baseline MCH is compared against in Table I.
//!
//! # Link proofs
//!
//! A signature match is only a hypothesis. Each one is proved exactly before
//! the choice is recorded, by one of two paths picked from the mixed
//! network's primary-input count:
//!
//! * **At most 14 inputs** (`MAX_LINK_SUPPORT`): one exhaustive simulation
//!   of the linked cones decides every pair. It streams 64 input patterns
//!   at a time over all nodes, so it holds one word per node rather than
//!   `2^14` bits per node.
//! * **Wider networks**: one topological pass computes every node's
//!   input support, capped at 14 inputs. A pair whose union of supports is
//!   wider than that is rejected by set arithmetic; each survivor is
//!   simulated exhaustively over its own support in one reused buffer.
//!
//! Two bounds decide which pairs may link, whatever the path: the union of
//! the two supports has at most 14 inputs, and neither cone has more than
//! 20,000 gates (`MAX_LINK_CONE`; only checked on networks with more gates
//! than that). A pair outside either bound is skipped, never linked
//! unproven.

use crate::choice_network::ChoiceNetwork;
use mch_logic::{GateKind, Network, Node, NodeId, Prng, Signal, TruthTable};
use std::collections::HashMap;

/// Number of 64-bit simulation words used for signature matching.
const SIGNATURE_WORDS: usize = 32;

/// Maximum primary-input support for the exact functional check of a tentative
/// link; pairs whose combined support exceeds this are not linked (signature
/// agreement alone is not a proof of equivalence).
const MAX_LINK_SUPPORT: usize = 14;

/// Maximum cone, in gates, of either node of a tentative link; a pair with a
/// larger cone is not linked.
const MAX_LINK_CONE: usize = 20_000;

/// Word `word` of variable `var` in an exhaustive simulation: variables below
/// six vary inside a word, higher ones from word to word.
#[inline]
fn var_word(var: usize, word: usize) -> u64 {
    if var < 6 {
        TruthTable::var(6, var).as_u64()
    } else {
        0u64.wrapping_sub(((word >> (var - 6)) & 1) as u64)
    }
}

/// Words per node and the mask of the valid bits in each word for an
/// exhaustive simulation over `vars` variables.
fn exhaustive_shape(vars: usize) -> (usize, u64) {
    if vars < 6 {
        (1, (1u64 << (1u32 << vars)) - 1)
    } else {
        (1 << (vars - 6), u64::MAX)
    }
}

/// The all-ones word when `complement` is set, zero otherwise.
#[inline]
fn phase_mask(complement: bool) -> u64 {
    0u64.wrapping_sub(complement as u64)
}

/// Evaluates one gate over rows of simulation words: `out[w]` is the gate
/// applied to word `w` of each fanin's row, read through `row`.
#[inline]
fn eval_gate<'a>(node: &Node, row: impl Fn(NodeId) -> &'a [u64], out: &mut [u64]) {
    let f = node.fanins();
    let (a, pa) = (row(f[0].node()), phase_mask(f[0].is_complement()));
    let (b, pb) = (row(f[1].node()), phase_mask(f[1].is_complement()));
    match node.kind() {
        GateKind::And2 => {
            for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
                *o = (x ^ pa) & (y ^ pb);
            }
        }
        GateKind::Xor2 => {
            for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
                *o = x ^ pa ^ y ^ pb;
            }
        }
        GateKind::Maj3 => {
            let (c, pc) = (row(f[2].node()), phase_mask(f[2].is_complement()));
            for (((o, x), y), z) in out.iter_mut().zip(a).zip(b).zip(c) {
                let (x, y, z) = (x ^ pa, y ^ pb, z ^ pc);
                *o = (x & y) | (x & z) | (y & z);
            }
        }
        GateKind::Const | GateKind::Input => unreachable!("only gates are evaluated"),
    }
}

/// Simulates every gate of `network` on `width` words per node, in place:
/// `values` holds one row of `width` words per node, with the input rows
/// already filled and the constant's row zero.
fn simulate_rows(network: &Network, width: usize, gates: &[NodeId], values: &mut [u64]) {
    for &id in gates {
        // Fanins precede the gate, so they all lie in the part before its row.
        let (done, rest) = values.split_at_mut(id.index() * width);
        eval_gate(network.node(id), |f| &done[f.index() * width..][..width], &mut rest[..width]);
    }
}

/// Marks every node in the transitive fanin of the linked nodes.
fn linked_cones(network: &Network, links: &[(NodeId, Signal)]) -> Vec<bool> {
    let mut needed = vec![false; network.len()];
    for &(repr, cand) in links {
        needed[repr.index()] = true;
        needed[cand.node().index()] = true;
    }
    // Fanins precede their fanouts, so one descending sweep closes the set.
    for i in (0..network.len()).rev() {
        if needed[i] {
            for f in network.node(NodeId::from_index(i)).fanins() {
                needed[f.node().index()] = true;
            }
        }
    }
    needed
}

/// Decides every tentative link `(repr, candidate)`: `true` when `repr`
/// equals the candidate signal on every input assignment, both nodes have at
/// most [`MAX_LINK_SUPPORT`] inputs together and neither cone has more than
/// [`MAX_LINK_CONE`] gates.
fn prove_links(network: &Network, links: &[(NodeId, Signal)]) -> Vec<bool> {
    let mut proven = if network.input_count() <= MAX_LINK_SUPPORT {
        prove_exhaustively(network, links)
    } else {
        prove_over_supports(network, links)
    };
    // No cone can exceed the bound unless the whole network does.
    if network.gate_count() > MAX_LINK_CONE {
        let bounds = cone_upper_bounds(network);
        let mut walker = ConeWalker::new(network.len());
        let mut within = |node: NodeId| {
            bounds[node.index()] as usize <= MAX_LINK_CONE || walker.cone_within(network, node, MAX_LINK_CONE)
        };
        for (ok, &(repr, cand)) in proven.iter_mut().zip(links) {
            *ok = *ok && within(repr) && within(cand.node());
        }
    }
    proven
}

/// An upper bound on every node's cone, in gates: one more than the sum of
/// its fanins' bounds, and never more than its own index. The sum is exact
/// for fanout-free cones such as chains; the walk in
/// [`ConeWalker::cone_within`] settles the nodes it leaves above the limit.
fn cone_upper_bounds(network: &Network) -> Vec<u32> {
    let mut bounds = vec![0u32; network.len()];
    for id in network.gate_ids() {
        let sum = network
            .node(id)
            .fanins()
            .iter()
            .fold(1u32, |acc, f| acc.saturating_add(bounds[f.node().index()]));
        bounds[id.index()] = sum.min(id.index() as u32);
    }
    bounds
}

/// The narrow-network proof: with at most [`MAX_LINK_SUPPORT`] primary
/// inputs, one exhaustive simulation of the linked cones decides every pair.
/// It runs one 64-pattern word at a time over all nodes, dropping a pair at
/// its first differing word, so it holds one word per node.
fn prove_exhaustively(network: &Network, links: &[(NodeId, Signal)]) -> Vec<bool> {
    let needed = linked_cones(network, links);
    let gates: Vec<NodeId> = network.gate_ids().filter(|id| needed[id.index()]).collect();
    let (words, valid) = exhaustive_shape(network.input_count());
    let mut values = vec![0u64; network.len()];
    let mut proven = vec![true; links.len()];
    for word in 0..words {
        for (var, pi) in network.inputs().iter().enumerate() {
            values[pi.index()] = var_word(var, word);
        }
        simulate_rows(network, 1, &gates, &mut values);
        let mut open = false;
        for (ok, &(repr, cand)) in proven.iter_mut().zip(links) {
            if *ok {
                let diff = values[repr.index()] ^ values[cand.node().index()] ^ phase_mask(cand.is_complement());
                *ok = diff & valid == 0;
                open |= *ok;
            }
        }
        if !open {
            break;
        }
    }
    proven
}

/// Primary-input supports of the linked cones, each capped at
/// [`MAX_LINK_SUPPORT`] inputs: one topological pass merges the fanins'
/// sorted input-index lists.
struct Supports {
    /// Start of each node's list in `pool`.
    start: Vec<u32>,
    /// Length of each node's list, or [`Supports::WIDE`] past the cap.
    len: Vec<u8>,
    pool: Vec<u32>,
}

impl Supports {
    const WIDE: u8 = u8::MAX;

    fn compute(network: &Network, needed: &[bool]) -> Supports {
        let mut supports = Supports {
            start: vec![0; network.len()],
            len: vec![0; network.len()],
            pool: Vec::new(),
        };
        for (var, pi) in network.inputs().iter().enumerate() {
            supports.push(pi.index(), &[var as u32]);
        }
        let mut merged: Vec<u32> = Vec::with_capacity(3 * MAX_LINK_SUPPORT);
        for id in network.gate_ids().filter(|id| needed[id.index()]) {
            merged.clear();
            let mut wide = false;
            for f in network.node(id).fanins() {
                match supports.of(f.node()) {
                    Some(s) => merged.extend_from_slice(s),
                    None => wide = true,
                }
            }
            merged.sort_unstable();
            merged.dedup();
            if wide || merged.len() > MAX_LINK_SUPPORT {
                supports.len[id.index()] = Supports::WIDE;
            } else {
                supports.push(id.index(), &merged);
            }
        }
        supports
    }

    fn push(&mut self, node: usize, list: &[u32]) {
        self.start[node] = self.pool.len() as u32;
        self.len[node] = list.len() as u8;
        self.pool.extend_from_slice(list);
    }

    /// The sorted input indices `node` depends on, or `None` past the cap.
    fn of(&self, node: NodeId) -> Option<&[u32]> {
        let len = self.len[node.index()];
        if len == Supports::WIDE {
            return None;
        }
        let start = self.start[node.index()] as usize;
        Some(&self.pool[start..start + len as usize])
    }

    /// Writes the union of two nodes' supports to `out`; `false` when it
    /// is past the cap.
    fn union(&self, a: NodeId, b: NodeId, out: &mut Vec<u32>) -> bool {
        let (Some(sa), Some(sb)) = (self.of(a), self.of(b)) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(sa);
        out.extend_from_slice(sb);
        out.sort_unstable();
        out.dedup();
        out.len() <= MAX_LINK_SUPPORT
    }
}

/// The wide-network proof: reject pairs whose union of supports exceeds
/// [`MAX_LINK_SUPPORT`], and simulate each survivor exhaustively over its
/// own support.
fn prove_over_supports(network: &Network, links: &[(NodeId, Signal)]) -> Vec<bool> {
    let supports = Supports::compute(network, &linked_cones(network, links));
    let mut walker = ConeWalker::new(network.len());
    let mut union = Vec::with_capacity(2 * MAX_LINK_SUPPORT);
    let mut words = Vec::new();
    links
        .iter()
        .map(|&(repr, cand)| {
            supports.union(repr, cand.node(), &mut union)
                && walker.equivalent_over(network, &supports, &union, repr, cand, &mut words)
        })
        .collect()
}

/// Reusable state for walking cones: an epoch-stamped visited mark and a
/// per-node slot index, both sized to the network once.
struct ConeWalker {
    stamp: Vec<u32>,
    epoch: u32,
    slot: Vec<u32>,
    stack: Vec<NodeId>,
    cone: Vec<NodeId>,
}

impl ConeWalker {
    fn new(len: usize) -> ConeWalker {
        ConeWalker {
            stamp: vec![0; len],
            epoch: 0,
            slot: vec![0; len],
            stack: Vec::new(),
            cone: Vec::new(),
        }
    }

    /// Starts a new walk; every node reads as unvisited.
    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.cone.clear();
        self.stack.clear();
    }

    /// Collects the not yet visited part of `root`'s transitive fanin into
    /// `cone`, stopping once that part holds more than `limit` gates.
    /// Returns whether it stayed within the limit.
    fn collect(&mut self, network: &Network, root: NodeId, limit: usize) -> bool {
        let mut gates = 0;
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            if self.stamp[n.index()] == self.epoch {
                continue;
            }
            self.stamp[n.index()] = self.epoch;
            self.cone.push(n);
            if network.is_gate(n) {
                gates += 1;
                if gates > limit {
                    self.stack.clear();
                    return false;
                }
                self.stack.extend(network.node(n).fanins().iter().map(|f| f.node()));
            }
        }
        true
    }

    /// Whether `node`'s cone has at most `limit` gates.
    fn cone_within(&mut self, network: &Network, node: NodeId, limit: usize) -> bool {
        // A cone holds a path of `level` gates.
        if network.level(node) as usize > limit {
            return false;
        }
        self.next_epoch();
        self.collect(network, node, limit)
    }

    /// Simulates the cones of `repr` and `cand` over every assignment of the
    /// inputs in `support` (sorted input indices) and compares them.
    fn equivalent_over(
        &mut self,
        network: &Network,
        supports: &Supports,
        support: &[u32],
        repr: NodeId,
        cand: Signal,
        words: &mut Vec<u64>,
    ) -> bool {
        self.next_epoch();
        self.collect(network, repr, usize::MAX);
        self.collect(network, cand.node(), usize::MAX);
        self.cone.sort_unstable();
        let (width, valid) = exhaustive_shape(support.len());
        words.clear();
        words.resize(self.cone.len() * width, 0);
        for (slot, &id) in self.cone.iter().enumerate() {
            self.slot[id.index()] = slot as u32;
            let (done, row) = words.split_at_mut(slot * width);
            let row = &mut row[..width];
            if network.is_input(id) {
                let pi = supports.of(id).expect("an input is its own support")[0];
                let var = support.binary_search(&pi).expect("cone inputs lie in the support");
                for (w, value) in row.iter_mut().enumerate() {
                    *value = var_word(var, w);
                }
            } else if network.is_gate(id) {
                let slot = &self.slot;
                eval_gate(network.node(id), |f| &done[slot[f.index()] as usize * width..][..width], row);
            }
        }
        let (a, b) = (self.slot[repr.index()] as usize, self.slot[cand.node().index()] as usize);
        let phase = phase_mask(cand.is_complement());
        (0..width).all(|w| (words[a * width + w] ^ words[b * width + w] ^ phase) & valid == 0)
    }
}

/// Builds a choice network from the original network and optimized snapshots.
///
/// Every snapshot must have the same primary-input and primary-output counts
/// as `original`. Snapshot gates are copied into the mixed network and linked
/// to original nodes whose randomized simulation signature matches (directly
/// or complemented). Signature matching is the same lightweight equivalence
/// detection used by SAT-sweeping-based choice construction, minus the final
/// SAT proof; the experiment harness re-verifies full flows with [`mch_logic::cec`].
///
/// # Panics
///
/// Panics if a snapshot's interface differs from the original's.
pub fn dch_from_snapshots(original: &Network, snapshots: &[Network]) -> ChoiceNetwork {
    let mut cn = ChoiceNetwork::from_network(original);
    for snap in snapshots {
        add_snapshot_choices(&mut cn, snap);
    }
    cn
}

/// Copies an optimized `snapshot` of the same design into an existing choice
/// network and links its nodes to the originals by simulation signature.
///
/// This is the building block shared by the DCH baseline and the MCH flows
/// that mix whole restructured views (e.g. the XAG or MIG graph-mapped version
/// of the design) into the choice network, in addition to the per-node
/// candidates of Algorithm 2.
///
/// Returns the number of new choices recorded.
///
/// # Panics
///
/// Panics if the snapshot's interface differs from the choice network's.
pub fn add_snapshot_choices(cn: &mut ChoiceNetwork, snapshot: &Network) -> usize {
    add_snapshot_choices_with(cn, snapshot, signature_matches, prove_links)
}

/// Finds the tentative links of the copied nodes; see [`signature_matches`].
type Matcher = fn(&ChoiceNetwork, &[NodeId]) -> Vec<(NodeId, Signal)>;

/// Decides a batch of tentative links; see [`prove_links`].
type Prover = fn(&Network, &[(NodeId, Signal)]) -> Vec<bool>;

/// [`add_snapshot_choices`] with the signature match and the link proof as
/// parameters, so tests can run the same copy with reference versions.
fn add_snapshot_choices_with(
    cn: &mut ChoiceNetwork,
    snapshot: &Network,
    matches: Matcher,
    prove: Prover,
) -> usize {
    assert_eq!(
        snapshot.input_count(),
        cn.network().input_count(),
        "snapshot primary inputs must match the original"
    );
    assert_eq!(
        snapshot.output_count(),
        cn.network().output_count(),
        "snapshot primary outputs must match the original"
    );
    let mut copied: Vec<NodeId> = Vec::new();
    {
        let mixed = cn.network_mut();
        let mut map: Vec<Signal> = vec![Signal::CONST0; snapshot.len()];
        for (i, &pi) in snapshot.inputs().iter().enumerate() {
            map[pi.index()] = mixed.input(i);
        }
        for id in snapshot.gate_ids() {
            let node = snapshot.node(id);
            let f: Vec<Signal> = node
                .fanins()
                .iter()
                .map(|s| map[s.node().index()].xor_complement(s.is_complement()))
                .collect();
            let sig = match node.kind() {
                GateKind::And2 => mixed.and2(f[0], f[1]),
                GateKind::Xor2 => mixed.xor2(f[0], f[1]),
                GateKind::Maj3 => mixed.maj3(f[0], f[1], f[2]),
                _ => unreachable!("gate_ids yields only gates"),
            };
            map[id.index()] = sig;
            copied.push(sig.node());
        }
    }
    let links = matches(cn, &copied);
    if links.is_empty() {
        return 0;
    }
    // The signature match is only a hypothesis; prove it exhaustively over
    // the pair's input support before recording the choice. Pairs whose
    // support or cones are too large to prove are skipped — an unproven
    // choice could silently corrupt the mapped netlist.
    let proven = prove(cn.network(), &links);
    let mut added = 0;
    for ((repr, sig), ok) in links.into_iter().zip(proven) {
        if ok && cn.add_choice(repr, sig) {
            added += 1;
        }
    }
    added
}

/// Pairs every copied, non-original node with the first original gate whose
/// randomized simulation signature equals its own, directly or complemented.
fn signature_matches(cn: &ChoiceNetwork, candidates: &[NodeId]) -> Vec<(NodeId, Signal)> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let network = cn.network();
    let mut rng = Prng::seed_from_u64(0xD0C0_FFEE);
    let mut values = vec![0u64; network.len() * SIGNATURE_WORDS];
    for pi in network.inputs() {
        for word in &mut values[pi.index() * SIGNATURE_WORDS..][..SIGNATURE_WORDS] {
            *word = rng.next_u64();
        }
    }
    let gates: Vec<NodeId> = network.gate_ids().collect();
    simulate_rows(network, SIGNATURE_WORDS, &gates, &mut values);
    // Canonicalise each gate's signature for phase-insensitive lookup: the
    // first bit is forced to zero by complementing the row when necessary.
    let mut phase = vec![false; network.len()];
    for &id in &gates {
        let row = &mut values[id.index() * SIGNATURE_WORDS..][..SIGNATURE_WORDS];
        if row[0] & 1 == 1 {
            phase[id.index()] = true;
            for word in row {
                *word = !*word;
            }
        }
    }
    let signature = |id: NodeId| &values[id.index() * SIGNATURE_WORDS..][..SIGNATURE_WORDS];

    // Index original gate nodes by canonical signature.
    let mut index: HashMap<&[u64], (NodeId, bool)> = HashMap::new();
    for &id in &gates {
        if cn.is_original(id) {
            index.entry(signature(id)).or_insert((id, phase[id.index()]));
        }
    }

    let mut links: Vec<(NodeId, Signal)> = Vec::new();
    for &cand in candidates {
        if cn.is_original(cand) {
            continue;
        }
        if let Some(&(repr, repr_phase)) = index.get(signature(cand)) {
            links.push((repr, Signal::new(cand, repr_phase ^ phase[cand.index()])));
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_mch, MchParams};
    use mch_logic::{cec, convert, simulate_nodes, Network, NetworkKind};
    use mch_opt::{compress2rs_like, compress_round, graph_map};
    use mch_mapper::MappingObjective;
    use std::collections::HashSet;

    /// Computes the function of `node` over the primary inputs in `support`
    /// (given as the mapping PI node → variable index). Returns `None` when the
    /// cone reaches a PI outside `support` or grows beyond a safety bound.
    fn function_over_support(
        network: &Network,
        node: NodeId,
        support: &HashMap<NodeId, usize>,
    ) -> Option<TruthTable> {
        let nvars = support.len();
        let mut values: HashMap<NodeId, TruthTable> = HashMap::new();
        values.insert(NodeId::CONST0, TruthTable::zeros(nvars));
        // Collect the cone in topological (ascending id) order.
        let mut cone: Vec<NodeId> = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if network.is_input(n) {
                let var = *support.get(&n)?;
                values.insert(n, TruthTable::var(nvars, var));
                continue;
            }
            if n.is_const() {
                continue;
            }
            cone.push(n);
            if cone.len() > 20_000 {
                return None;
            }
            for f in network.node(n).fanins() {
                stack.push(f.node());
            }
        }
        cone.sort();
        for id in cone {
            let gate = network.node(id);
            let mut fs = Vec::with_capacity(3);
            for s in gate.fanins() {
                let base = values.get(&s.node())?;
                fs.push(if s.is_complement() { base.not() } else { base.clone() });
            }
            let t = match gate.kind() {
                GateKind::And2 => fs[0].and(&fs[1]),
                GateKind::Xor2 => fs[0].xor(&fs[1]),
                GateKind::Maj3 => TruthTable::maj(&fs[0], &fs[1], &fs[2]),
                _ => return None,
            };
            values.insert(id, t);
        }
        values.get(&node).cloned()
    }

    /// Collects the primary-input support of `node`, aborting when it exceeds
    /// `limit` inputs.
    fn pi_support(network: &Network, node: NodeId, limit: usize) -> Option<Vec<NodeId>> {
        let mut pis: Vec<NodeId> = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if network.is_input(n) {
                pis.push(n);
                if pis.len() > limit {
                    return None;
                }
                continue;
            }
            for f in network.node(n).fanins() {
                stack.push(f.node());
            }
        }
        pis.sort();
        Some(pis)
    }

    /// Exact equivalence check of two nodes (up to the given phase) over their
    /// combined primary-input support, rebuilding both cones per pair. Returns
    /// `false` when the support is too large to check exhaustively.
    fn nodes_equivalent(network: &Network, a: NodeId, b: NodeId, phase: bool) -> bool {
        let Some(sa) = pi_support(network, a, MAX_LINK_SUPPORT) else {
            return false;
        };
        let Some(sb) = pi_support(network, b, MAX_LINK_SUPPORT) else {
            return false;
        };
        let mut union: Vec<NodeId> = sa;
        union.extend(sb);
        union.sort();
        union.dedup();
        if union.len() > MAX_LINK_SUPPORT {
            return false;
        }
        let support: HashMap<NodeId, usize> = union.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let Some(fa) = function_over_support(network, a, &support) else {
            return false;
        };
        let Some(fb) = function_over_support(network, b, &support) else {
            return false;
        };
        if phase {
            fa == fb.not()
        } else {
            fa == fb
        }
    }

    /// Canonicalizes a signature for phase-insensitive lookup: the first bit is
    /// forced to zero by complementing when necessary.
    fn canonical_signature(words: &[u64]) -> (Vec<u64>, bool) {
        if words.first().is_some_and(|w| w & 1 == 1) {
            (words.iter().map(|w| !w).collect(), true)
        } else {
            (words.to_vec(), false)
        }
    }

    /// The per-node signature match [`signature_matches`] must reproduce,
    /// link for link: library simulation and one key vector per node.
    fn signature_matches_reference(cn: &ChoiceNetwork, candidates: &[NodeId]) -> Vec<(NodeId, Signal)> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let network = cn.network();
        let mut rng = Prng::seed_from_u64(0xD0C0_FFEE);
        let patterns: Vec<Vec<u64>> = (0..network.input_count())
            .map(|_| (0..SIGNATURE_WORDS).map(|_| rng.next_u64()).collect())
            .collect();
        let values = simulate_nodes(network, &patterns);

        // Index original gate nodes by canonical signature.
        let mut index: HashMap<Vec<u64>, (NodeId, bool)> = HashMap::new();
        for id in network.gate_ids() {
            if !cn.is_original(id) {
                continue;
            }
            let (key, phase) = canonical_signature(&values[id.index()]);
            index.entry(key).or_insert((id, phase));
        }

        let mut links: Vec<(NodeId, Signal)> = Vec::new();
        for &cand in candidates {
            if cn.is_original(cand) {
                continue;
            }
            let (key, cand_phase) = canonical_signature(&values[cand.index()]);
            if let Some(&(repr, repr_phase)) = index.get(&key) {
                links.push((repr, Signal::new(cand, repr_phase ^ cand_phase)));
            }
        }
        links
    }

    /// The per-pair proof [`prove_links`] must agree with on every link,
    /// spread over a few threads because it is slow.
    fn prove_links_reference(network: &Network, links: &[(NodeId, Signal)]) -> Vec<bool> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let chunk = links.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let parts: Vec<_> = links
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&(repr, cand)| nodes_equivalent(network, repr, cand.node(), cand.is_complement()))
                            .collect::<Vec<bool>>()
                    })
                })
                .collect();
            parts.into_iter().flat_map(|p| p.join().expect("reference proof thread")).collect()
        })
    }

    /// The reference signature match, asserting the fast one finds the same
    /// links in the same order.
    fn matches_checked(cn: &ChoiceNetwork, candidates: &[NodeId]) -> Vec<(NodeId, Signal)> {
        let expected = signature_matches_reference(cn, candidates);
        assert_eq!(signature_matches(cn, candidates), expected, "tentative links");
        expected
    }

    /// The reference proof, asserting the fast one decides every link alike.
    fn proofs_checked(network: &Network, links: &[(NodeId, Signal)]) -> Vec<bool> {
        let expected = prove_links_reference(network, links);
        assert_eq!(prove_links(network, links), expected, "link proofs");
        expected
    }

    /// Links each snapshot into `cn` with both the fast and the reference
    /// signature match and proof, and asserts the same choices, in the same
    /// order, for every representative.
    /// Returns the number of choices recorded.
    fn assert_links_match_reference(mut cn: ChoiceNetwork, snapshots: &[Network], what: &str) -> usize {
        let mut total = 0;
        for (i, snapshot) in snapshots.iter().enumerate() {
            let mut reference = cn.clone();
            let added = add_snapshot_choices(&mut cn, snapshot);
            let expected = add_snapshot_choices_with(&mut reference, snapshot, matches_checked, proofs_checked);
            assert_eq!(added, expected, "{what}, snapshot {i}: links added");
            let reprs: Vec<NodeId> = reference.representatives().collect();
            assert_eq!(cn.representatives().collect::<Vec<_>>(), reprs, "{what}, snapshot {i}");
            for repr in reprs {
                assert_eq!(cn.choices_of(repr), reference.choices_of(repr), "{what}, snapshot {i}, {repr:?}");
            }
            assert_eq!(cn, reference, "{what}, snapshot {i}");
            total += added;
        }
        total
    }

    /// The mixed networks the suite flows build for `name`: the DCH flow's
    /// and the MCH balanced ASIC flow's on the pre-optimised input, and the
    /// MCH 6-LUT area flow's on the circuit itself. `narrow` says whether the
    /// circuit has at most [`MAX_LINK_SUPPORT`] inputs.
    fn assert_flow_links_match_reference(name: &str, narrow: bool) {
        let net = mch_benchmarks::benchmark(name).expect("suite circuit");
        assert_eq!(net.input_count() <= MAX_LINK_SUPPORT, narrow, "{name} has {} inputs", net.input_count());
        let prepared = compress2rs_like(&net, 2);
        let snap1 = compress_round(&prepared);
        let snap2 = compress2rs_like(&snap1, 2);
        let mut linked =
            assert_links_match_reference(ChoiceNetwork::from_network(&prepared), &[snap1, snap2], &format!("{name} DCH"));
        for (input, params, objective, what) in [
            (&prepared, MchParams::balanced(), MappingObjective::Balanced, "MCH balanced"),
            (&net, MchParams::mixed(&[NetworkKind::Xmg]), MappingObjective::Area, "MCH 6-LUT area"),
        ] {
            let views: Vec<Network> = std::iter::once(input.kind())
                .chain(params.secondary.iter().copied())
                .map(|kind| graph_map(input, kind, objective))
                .collect();
            linked += assert_links_match_reference(build_mch(input, &params), &views, &format!("{name} {what}"));
        }
        assert!(linked > 0, "{name}: the flows link no snapshot node");
    }

    // One test per circuit, so the harness runs them side by side. `sin`,
    // `square` and `dec` have at most 14 inputs and take the exhaustive
    // simulation; `hyp` and `div` are wider and take the support path.

    #[test]
    fn sin_flow_links_match_the_reference_proof() {
        assert_flow_links_match_reference("sin", true);
    }

    #[test]
    fn square_flow_links_match_the_reference_proof() {
        assert_flow_links_match_reference("square", true);
    }

    #[test]
    fn dec_flow_links_match_the_reference_proof() {
        assert_flow_links_match_reference("dec", true);
    }

    #[test]
    fn hyp_flow_links_match_the_reference_proof() {
        assert_flow_links_match_reference("hyp", false);
    }

    #[test]
    fn div_flow_links_match_the_reference_proof() {
        assert_flow_links_match_reference("div", false);
    }

    fn original() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "dch-test");
        let a = n.add_inputs(3);
        let x = n.xor(a[0], a[1]);
        let y = n.and(x, a[2]);
        let z = n.or(y, a[0]);
        n.add_output(z);
        n.add_output(y);
        n
    }

    /// A functionally identical network with a different structure.
    fn restructured() -> Network {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_inputs(3);
        let x = n.xor2(a[0], a[1]);
        let y = n.and2(x, a[2]);
        let z = n.or(y, a[0]);
        n.add_output(z);
        n.add_output(y);
        n
    }

    /// An AND chain over three inputs, each gate folding in the next input
    /// from `first` on: every gate from the third on computes `a & b & c`.
    fn and_chain(gates: usize, first: usize) -> Network {
        let mut n = Network::new(NetworkKind::Aig);
        let pis = n.add_inputs(3);
        let mut x = pis[first % 3];
        for i in 1..=gates {
            x = n.and2(x, pis[(first + i) % 3]);
        }
        n.add_output(x);
        n
    }

    #[test]
    fn snapshot_nodes_with_oversized_cones_are_not_linked() {
        // The original's second gate is the first node computing a & b & c;
        // every snapshot gate from the second on matches it. Their cones grow
        // by one gate per link, so exactly those past the bound stay out.
        let len = MAX_LINK_CONE + 5;
        let original = and_chain(len, 0);
        let snapshot = and_chain(len, 1);
        let mut cn = ChoiceNetwork::from_network(&original);
        let repr = NodeId::from_index(original.input_count() + 2);
        let added = add_snapshot_choices(&mut cn, &snapshot);
        let network = cn.network();
        let last = network.len() - 1;
        assert_eq!(network.input_count(), 3);
        assert_eq!(added, MAX_LINK_CONE - 1, "snapshot gates 2..=bound link");
        let deepest_linked = NodeId::from_index(last - 5);
        assert_eq!(cn.repr_of(deepest_linked), Some((repr, false)));
        for node in last - 4..=last {
            assert_eq!(cn.repr_of(NodeId::from_index(node)), None, "cone of {} gates", node - original.len() + 1);
        }
    }

    /// `x0 ^ ... ^ x12` over 15 inputs, with `x12` folded in through a
    /// redundant two-way split on input `redundant` (a sum of products, or
    /// with `product_of_sums` a product of sums). The root's structural
    /// support is the 13 inputs it depends on plus `redundant`. Parity keeps
    /// every signature balanced, so the roots match each other first.
    fn parity_with_redundant_input(redundant: usize, product_of_sums: bool) -> Network {
        let mut n = Network::new(NetworkKind::Xag);
        let x = n.add_inputs(MAX_LINK_SUPPORT + 1);
        let (r, x12) = (x[redundant], x[12]);
        let mut parity = x[0];
        for &xi in &x[1..12] {
            parity = n.xor(parity, xi);
        }
        let x12_again = if product_of_sums {
            let (a, b) = (n.or(r, x12), n.or(!r, x12));
            n.and(a, b)
        } else {
            let (a, b) = (n.and(r, x12), n.and(!r, x12));
            n.or(a, b)
        };
        let root = n.xor(parity, x12_again);
        n.add_output(root);
        n
    }

    #[test]
    fn snapshot_nodes_with_oversized_support_unions_are_not_linked() {
        let original = parity_with_redundant_input(13, false);
        let snapshot_root = |cn: &ChoiceNetwork| NodeId::from_index(cn.network().len() - 1);
        let repr = original.output(0).node();
        // Same redundant input: the roots span 14 inputs together and link.
        let mut cn = ChoiceNetwork::from_network(&original);
        add_snapshot_choices(&mut cn, &parity_with_redundant_input(13, true));
        assert_eq!(cn.repr_of(snapshot_root(&cn)).map(|(r, _)| r), Some(repr));
        // Different redundant inputs: 14 each, 15 together, so no link,
        // although the two roots compute the same function.
        let mut cn = ChoiceNetwork::from_network(&original);
        let snapshot = parity_with_redundant_input(14, false);
        add_snapshot_choices(&mut cn, &snapshot);
        let root = snapshot_root(&cn);
        assert!(!cn.is_original(root));
        assert_eq!(cn.repr_of(root), None);
        assert!(cec(&original, &snapshot).holds());
    }

    #[test]
    fn snapshots_contribute_choices() {
        let orig = original();
        let snap = restructured();
        assert!(cec(&orig, &snap).holds());
        let cn = dch_from_snapshots(&orig, &[snap]);
        assert!(cn.choice_count() > 0, "equivalent snapshot nodes should link");
        assert!(cn.verify(16, 3).is_empty());
        assert!(cec(&orig, &cn.network().cleanup()).holds());
    }

    #[test]
    fn no_snapshots_means_no_choices() {
        let orig = original();
        let cn = dch_from_snapshots(&orig, &[]);
        assert_eq!(cn.choice_count(), 0);
    }

    #[test]
    fn representation_snapshot_links_across_kinds() {
        let orig = original();
        let mig = convert(&orig, NetworkKind::Mig);
        let cn = dch_from_snapshots(&orig, &[mig]);
        assert!(cn.choice_count() > 0);
        assert!(cn.verify(16, 9).is_empty());
    }

    #[test]
    #[should_panic(expected = "primary inputs must match")]
    fn mismatched_snapshot_is_rejected() {
        let orig = original();
        let mut other = Network::new(NetworkKind::Aig);
        let a = other.add_input();
        other.add_output(a);
        let _ = dch_from_snapshots(&orig, &[other]);
    }
}
