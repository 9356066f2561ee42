//! The central logic-network data structure.
//!
//! A [`Network`] is a directed acyclic graph of [`Node`]s built from the
//! primitives in [`GateKind`]. Nodes are append-only and always created after
//! their fanins, so node-id order is a topological order. Structural hashing
//! removes duplicated gates at construction time and simple Boolean rules
//! (constant propagation, idempotence, complementation) are applied eagerly.

use crate::{GateKind, NetworkKind, Node, NodeId, Signal};
use std::collections::HashMap;

/// Key of one structural-hash bucket: the gate kind plus its normalised
/// fanins (unused slots hold [`Signal::CONST0`]).
type StrashKey = (GateKind, [Signal; 3]);

/// A multi-representation combinational logic network.
///
/// # Example
///
/// ```
/// use mch_logic::{Network, NetworkKind};
///
/// let mut aig = Network::new(NetworkKind::Aig);
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.or(a, b);
/// aig.add_output(f);
/// assert_eq!(aig.gate_count(), 1);
/// assert_eq!(aig.depth(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    kind: NetworkKind,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<Signal>,
    strash: HashMap<StrashKey, NodeId>,
}

/// Structural equality over name, kind, nodes, inputs and outputs. The
/// strash table is a pure function of the node vector (one canonical key per
/// gate), so it carries no extra information and is not compared.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.nodes == other.nodes
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl Eq for Network {}

impl Network {
    /// Creates an empty network of the given representation.
    pub fn new(kind: NetworkKind) -> Self {
        let mut nodes = Vec::with_capacity(64);
        nodes.push(Node::new(GateKind::Const, [Signal::CONST0; 3], 0));
        Network {
            name: String::new(),
            kind,
            nodes,
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Creates an empty, named network of the given representation.
    pub fn with_name(kind: NetworkKind, name: impl Into<String>) -> Self {
        let mut n = Network::new(kind);
        n.name = name.into();
        n
    }

    /// The network's name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The declared logic representation.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    // ------------------------------------------------------------------
    // Structure queries
    // ------------------------------------------------------------------

    /// Total number of nodes, including the constant and the primary inputs.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the network contains no gates and no inputs.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.inputs.is_empty()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (AND/XOR/MAJ nodes).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_gate()).count()
    }

    /// Logic depth: the maximum level over all primary outputs.
    pub fn depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|s| self.level(s.node()))
            .max()
            .unwrap_or(0)
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Logic level of a node.
    pub fn level(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].level()
    }

    /// Fanout count (references from gates and primary outputs).
    pub fn fanout_count(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].fanout_count()
    }

    /// The primary inputs, in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The `i`-th primary input as a signal.
    pub fn input(&self, i: usize) -> Signal {
        self.inputs[i].signal()
    }

    /// The primary outputs, in creation order.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// The `i`-th primary output signal.
    pub fn output(&self, i: usize) -> Signal {
        self.outputs[i]
    }

    /// Iterates over every node id in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over the ids of gate nodes (AND/XOR/MAJ) in topological order.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_gate())
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Returns `true` if `id` refers to a primary input.
    pub fn is_input(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_input()
    }

    /// Returns `true` if `id` is the constant node.
    pub fn is_const(&self, id: NodeId) -> bool {
        id.is_const()
    }

    /// Returns `true` if `id` refers to a gate node.
    pub fn is_gate(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_gate()
    }

    /// Per-gate-kind counts `(and, xor, maj)`.
    pub fn gate_profile(&self) -> (usize, usize, usize) {
        let mut and = 0;
        let mut xor = 0;
        let mut maj = 0;
        for n in &self.nodes {
            match n.kind() {
                GateKind::And2 => and += 1,
                GateKind::Xor2 => xor += 1,
                GateKind::Maj3 => maj += 1,
                _ => {}
            }
        }
        (and, xor, maj)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a primary input and returns its (positive) signal.
    pub fn add_input(&mut self) -> Signal {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node::new(GateKind::Input, [Signal::CONST0; 3], 0));
        self.inputs.push(id);
        id.signal()
    }

    /// Adds `n` primary inputs and returns their signals.
    pub fn add_inputs(&mut self, n: usize) -> Vec<Signal> {
        (0..n).map(|_| self.add_input()).collect()
    }

    /// Declares `signal` as a primary output.
    pub fn add_output(&mut self, signal: Signal) {
        self.nodes[signal.node().index()].bump_fanout();
        self.outputs.push(signal);
    }

    /// Replaces the `i`-th primary output with `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn replace_output(&mut self, i: usize, signal: Signal) {
        let old = self.outputs[i];
        self.nodes[old.node().index()].drop_fanout();
        self.nodes[signal.node().index()].bump_fanout();
        self.outputs[i] = signal;
    }

    /// Returns the constant signal of the requested value.
    pub fn constant(&self, value: bool) -> Signal {
        if value {
            Signal::CONST1
        } else {
            Signal::CONST0
        }
    }

    fn push_gate(&mut self, kind: GateKind, fanins: [Signal; 3]) -> Signal {
        if let Some(&id) = self.strash.get(&(kind, fanins)) {
            return id.signal();
        }
        let level = 1 + fanins[..kind.arity()]
            .iter()
            .map(|s| self.nodes[s.node().index()].level())
            .max()
            .unwrap_or(0);
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node::new(kind, fanins, level));
        for s in &fanins[..kind.arity()] {
            self.nodes[s.node().index()].bump_fanout();
        }
        self.strash.insert((kind, fanins), id);
        id.signal()
    }

    fn assert_allowed(&self, gate: GateKind) {
        assert!(
            self.kind.allows(gate),
            "gate kind {gate} is not allowed in a {} network",
            self.kind
        );
    }

    /// Creates a raw two-input AND node (after simplification and hashing).
    ///
    /// # Panics
    ///
    /// Panics if the network kind does not allow AND nodes.
    pub fn and2(&mut self, a: Signal, b: Signal) -> Signal {
        // Boolean simplifications that avoid creating a node.
        if a == b {
            return a;
        }
        if a == !b || a.is_const0() || b.is_const0() {
            return Signal::CONST0;
        }
        if a.is_const1() {
            return b;
        }
        if b.is_const1() {
            return a;
        }
        self.assert_allowed(GateKind::And2);
        let (a, b) = if a.literal() <= b.literal() { (a, b) } else { (b, a) };
        self.push_gate(GateKind::And2, [a, b, Signal::CONST0])
    }

    /// Creates a raw two-input XOR node (after simplification and hashing).
    ///
    /// Complemented fanins are normalized onto the output edge.
    ///
    /// # Panics
    ///
    /// Panics if the network kind does not allow XOR nodes.
    pub fn xor2(&mut self, a: Signal, b: Signal) -> Signal {
        if a == b {
            return Signal::CONST0;
        }
        if a == !b {
            return Signal::CONST1;
        }
        if a.is_const0() {
            return b;
        }
        if a.is_const1() {
            return !b;
        }
        if b.is_const0() {
            return a;
        }
        if b.is_const1() {
            return !a;
        }
        self.assert_allowed(GateKind::Xor2);
        let out_compl = a.is_complement() ^ b.is_complement();
        let (a, b) = (a.abs(), b.abs());
        let (a, b) = if a.literal() <= b.literal() { (a, b) } else { (b, a) };
        self.push_gate(GateKind::Xor2, [a, b, Signal::CONST0])
            .xor_complement(out_compl)
    }

    /// Creates a raw three-input majority node (after simplification and hashing).
    ///
    /// The majority's self-duality is used to keep at most one complemented
    /// fanin in the stored node.
    ///
    /// # Panics
    ///
    /// Panics if the network kind does not allow MAJ nodes.
    pub fn maj3(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        // Majority simplification rules.
        if a == b || a == c {
            return a;
        }
        if b == c {
            return b;
        }
        if a == !b {
            return c;
        }
        if a == !c {
            return b;
        }
        if b == !c {
            return a;
        }
        self.assert_allowed(GateKind::Maj3);
        let mut fanins = [a, b, c];
        let complemented = fanins.iter().filter(|s| s.is_complement()).count();
        let out_compl = complemented >= 2;
        if out_compl {
            for f in &mut fanins {
                *f = !*f;
            }
        }
        fanins.sort_by_key(|s| s.literal());
        self.push_gate(GateKind::Maj3, fanins).xor_complement(out_compl)
    }

    // ------------------------------------------------------------------
    // Polymorphic builders (respect the declared representation)
    // ------------------------------------------------------------------

    /// Logical AND using the primitives allowed by the network kind.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        match self.kind {
            NetworkKind::Mig | NetworkKind::Xmg => self.maj3(a, b, Signal::CONST0),
            _ => self.and2(a, b),
        }
    }

    /// Logical OR using the primitives allowed by the network kind.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        match self.kind {
            NetworkKind::Mig | NetworkKind::Xmg => self.maj3(a, b, Signal::CONST1),
            _ => !self.and2(!a, !b),
        }
    }

    /// Logical NAND.
    pub fn nand(&mut self, a: Signal, b: Signal) -> Signal {
        !self.and(a, b)
    }

    /// Logical NOR.
    pub fn nor(&mut self, a: Signal, b: Signal) -> Signal {
        !self.or(a, b)
    }

    /// Logical XOR using the primitives allowed by the network kind.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        match self.kind {
            NetworkKind::Xag | NetworkKind::Xmg | NetworkKind::Mixed => self.xor2(a, b),
            _ => {
                let t = self.and(a, !b);
                let e = self.and(!a, b);
                self.or(t, e)
            }
        }
    }

    /// Logical XNOR.
    pub fn xnor(&mut self, a: Signal, b: Signal) -> Signal {
        !self.xor(a, b)
    }

    /// Three-input majority using the primitives allowed by the network kind.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        match self.kind {
            NetworkKind::Mig | NetworkKind::Xmg | NetworkKind::Mixed => self.maj3(a, b, c),
            _ => {
                let ab = self.and(a, b);
                let or_ab = self.or(a, b);
                let c_or = self.and(c, or_ab);
                self.or(ab, c_or)
            }
        }
    }

    /// Multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: Signal, t: Signal, e: Signal) -> Signal {
        match self.kind {
            NetworkKind::Mig | NetworkKind::Xmg => {
                // mux(s, t, e) = maj(and(s, t), !s, e) is 3 nodes; prefer the
                // classical 2-AND/1-OR decomposition expressed with majorities.
                let a = self.and(sel, t);
                let b = self.and(!sel, e);
                self.or(a, b)
            }
            _ => {
                let a = self.and(sel, t);
                let b = self.and(!sel, e);
                self.or(a, b)
            }
        }
    }

    /// If-then-else, an alias for [`Network::mux`].
    pub fn ite(&mut self, cond: Signal, then: Signal, els: Signal) -> Signal {
        self.mux(cond, then, els)
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: Signal, b: Signal) -> (Signal, Signal) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: Signal, b: Signal, cin: Signal) -> (Signal, Signal) {
        let sum_ab = self.xor(a, b);
        let sum = self.xor(sum_ab, cin);
        let carry = self.maj(a, b, cin);
        (sum, carry)
    }

    /// N-ary AND reduction over `signals` (returns constant true when empty).
    pub fn and_reduce(&mut self, signals: &[Signal]) -> Signal {
        self.reduce_balanced(signals, Signal::CONST1, Self::and)
    }

    /// N-ary OR reduction over `signals` (returns constant false when empty).
    pub fn or_reduce(&mut self, signals: &[Signal]) -> Signal {
        self.reduce_balanced(signals, Signal::CONST0, Self::or)
    }

    /// N-ary XOR reduction over `signals` (returns constant false when empty).
    pub fn xor_reduce(&mut self, signals: &[Signal]) -> Signal {
        self.reduce_balanced(signals, Signal::CONST0, Self::xor)
    }

    fn reduce_balanced(
        &mut self,
        signals: &[Signal],
        empty: Signal,
        mut op: impl FnMut(&mut Self, Signal, Signal) -> Signal,
    ) -> Signal {
        match signals.len() {
            0 => empty,
            1 => signals[0],
            _ => {
                let mut layer: Vec<Signal> = signals.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 2 {
                            next.push(op(self, pair[0], pair[1]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    // ------------------------------------------------------------------
    // Rebuilding
    // ------------------------------------------------------------------

    /// Rebuilds the network keeping only nodes reachable from the outputs.
    ///
    /// Node structure is copied verbatim (no re-decomposition); structural
    /// hashing may still merge duplicated gates. Returns the cleaned network.
    pub fn cleanup(&self) -> Network {
        let mut out = Network::with_name(self.kind, self.name.clone());
        let mut map: Vec<Option<Signal>> = vec![None; self.nodes.len()];
        map[0] = Some(Signal::CONST0);
        for &pi in &self.inputs {
            map[pi.index()] = Some(out.add_input());
        }
        // Mark reachable nodes.
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|s| s.node()).collect();
        while let Some(n) = stack.pop() {
            if reachable[n.index()] {
                continue;
            }
            reachable[n.index()] = true;
            for f in self.nodes[n.index()].fanins() {
                if !reachable[f.node().index()] {
                    stack.push(f.node());
                }
            }
        }
        for id in self.node_ids() {
            if !reachable[id.index()] || !self.nodes[id.index()].is_gate() {
                continue;
            }
            let node = &self.nodes[id.index()];
            let f: Vec<Signal> = node
                .fanins()
                .iter()
                .map(|s| map[s.node().index()].expect("fanin precedes node").xor_complement(s.is_complement()))
                .collect();
            let new = match node.kind() {
                GateKind::And2 => out.and2(f[0], f[1]),
                GateKind::Xor2 => out.xor2(f[0], f[1]),
                GateKind::Maj3 => out.maj3(f[0], f[1], f[2]),
                _ => unreachable!("only gates are copied"),
            };
            map[id.index()] = Some(new);
        }
        for &o in &self.outputs {
            let s = map[o.node().index()].expect("output driver is reachable");
            out.add_output(s.xor_complement(o.is_complement()));
        }
        out
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new(NetworkKind::Aig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_hashing_merges_duplicates() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.and2(a, b);
        let y = n.and2(b, a);
        assert_eq!(x, y);
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn and_simplifications() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        assert_eq!(n.and2(a, a), a);
        assert_eq!(n.and2(a, !a), Signal::CONST0);
        assert_eq!(n.and2(a, Signal::CONST1), a);
        assert_eq!(n.and2(a, Signal::CONST0), Signal::CONST0);
        assert_eq!(n.gate_count(), 0);
    }

    #[test]
    fn xor_normalizes_complements() {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.xor2(a, b);
        let y = n.xor2(!a, b);
        assert_eq!(x, !y);
        assert_eq!(n.gate_count(), 1);
        assert_eq!(n.xor2(a, a), Signal::CONST0);
        assert_eq!(n.xor2(a, !a), Signal::CONST1);
        assert_eq!(n.xor2(a, Signal::CONST1), !a);
    }

    #[test]
    fn maj_simplifications_and_duality() {
        let mut n = Network::new(NetworkKind::Mig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        assert_eq!(n.maj3(a, a, c), a);
        assert_eq!(n.maj3(a, !a, c), c);
        let m = n.maj3(a, b, c);
        let dual = n.maj3(!a, !b, !c);
        assert_eq!(dual, !m);
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn mig_uses_majorities_for_and_or() {
        let mut n = Network::new(NetworkKind::Mig);
        let a = n.add_input();
        let b = n.add_input();
        let f = n.and(a, b);
        let g = n.or(a, b);
        n.add_output(f);
        n.add_output(g);
        let (and, xor, maj) = n.gate_profile();
        assert_eq!((and, xor), (0, 0));
        assert_eq!(maj, 2);
    }

    #[test]
    #[should_panic(expected = "not allowed")]
    fn aig_rejects_raw_xor() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let _ = n.xor2(a, b);
    }

    #[test]
    fn aig_xor_decomposes_into_ands() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.xor(a, b);
        n.add_output(x);
        let (and, xor, maj) = n.gate_profile();
        assert_eq!(xor, 0);
        assert_eq!(maj, 0);
        assert_eq!(and, 3);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn levels_and_depth() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let ab = n.and2(a, b);
        let abc = n.and2(ab, c);
        n.add_output(abc);
        assert_eq!(n.level(ab.node()), 1);
        assert_eq!(n.level(abc.node()), 2);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn fanout_counting() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let ab = n.and2(a, b);
        let ac = n.and2(ab, c);
        n.add_output(ab);
        n.add_output(ac);
        assert_eq!(n.fanout_count(ab.node()), 2);
        assert_eq!(n.fanout_count(a.node()), 1);
        n.replace_output(0, ac);
        assert_eq!(n.fanout_count(ab.node()), 1);
    }

    #[test]
    fn cleanup_removes_dangling_gates() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let used = n.and2(a, b);
        let _unused = n.and2(a, !b);
        n.add_output(used);
        assert_eq!(n.gate_count(), 2);
        let clean = n.cleanup();
        assert_eq!(clean.gate_count(), 1);
        assert_eq!(clean.input_count(), 2);
        assert_eq!(clean.output_count(), 1);
    }

    #[test]
    fn reductions_are_balanced() {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(8);
        let all = n.and_reduce(&xs);
        n.add_output(all);
        assert_eq!(n.depth(), 3);
        assert_eq!(n.gate_count(), 7);
    }

    #[test]
    fn full_adder_counts() {
        let mut n = Network::new(NetworkKind::Xmg);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let (s, co) = n.full_adder(a, b, c);
        n.add_output(s);
        n.add_output(co);
        let (_, xor, maj) = n.gate_profile();
        assert_eq!(xor, 2);
        assert_eq!(maj, 1);
    }
}
