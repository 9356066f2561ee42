//! Tree balancing: re-associates maximal AND / XOR / OR trees to minimise
//! logic depth (the `b` step of ABC's `compress2rs`).

use mch_logic::{GateKind, Network, NodeId, Signal};

/// Collects the leaves of the maximal single-kind tree rooted at `root`.
///
/// A fanin is expanded when it is a gate of the same kind, is not complemented
/// (complemented edges break AND-tree associativity in an AIG), and has a
/// single fanout (so duplicating it would not lose sharing).
fn collect_tree_leaves(network: &Network, root: NodeId, kind: GateKind, leaves: &mut Vec<Signal>) {
    for &f in network.node(root).fanins() {
        let n = f.node();
        let expandable = !f.is_complement()
            && network.is_gate(n)
            && network.node(n).kind() == kind
            && network.fanout_count(n) == 1
            && kind != GateKind::Maj3;
        if expandable {
            collect_tree_leaves(network, n, kind, leaves);
        } else {
            leaves.push(f);
        }
    }
}

/// Balances the network: every maximal AND / XOR tree is rebuilt as a
/// balanced tree over its leaves, reducing depth without changing the
/// function. Majority nodes are copied verbatim.
///
/// # Example
///
/// ```
/// use mch_logic::{cec, Network, NetworkKind};
/// use mch_opt::balance;
///
/// // A skewed AND chain of depth 7 …
/// let mut n = Network::new(NetworkKind::Aig);
/// let xs = n.add_inputs(8);
/// let mut acc = xs[0];
/// for &x in &xs[1..] {
///     acc = n.and2(acc, x);
/// }
/// n.add_output(acc);
/// assert_eq!(n.depth(), 7);
///
/// // … becomes a balanced tree of depth 3.
/// let b = balance(&n);
/// assert_eq!(b.depth(), 3);
/// assert!(cec(&n, &b).holds());
/// ```
pub fn balance(network: &Network) -> Network {
    let mut out = Network::with_name(network.kind(), network.name().to_string());
    let mut map: Vec<Signal> = vec![Signal::CONST0; network.len()];
    for &pi in network.inputs() {
        map[pi.index()] = out.add_input();
    }
    for id in network.gate_ids() {
        let node = network.node(id);
        let kind = node.kind();
        let mapped: Signal = match kind {
            GateKind::And2 | GateKind::Xor2 => {
                let mut leaves = Vec::new();
                collect_tree_leaves(network, id, kind, &mut leaves);
                let mut mapped_leaves: Vec<Signal> = leaves
                    .iter()
                    .map(|s| map[s.node().index()].xor_complement(s.is_complement()))
                    .collect();
                // Sort by level so the balanced reduction pairs shallow
                // signals first (late-arriving signals end near the root).
                mapped_leaves.sort_by_key(|s| out.level(s.node()));
                if kind == GateKind::And2 {
                    out.and_reduce(&mapped_leaves)
                } else {
                    out.xor_reduce(&mapped_leaves)
                }
            }
            GateKind::Maj3 => {
                let f: Vec<Signal> = node
                    .fanins()
                    .iter()
                    .map(|s| map[s.node().index()].xor_complement(s.is_complement()))
                    .collect();
                out.maj3(f[0], f[1], f[2])
            }
            _ => unreachable!("gate_ids yields only gates"),
        };
        map[id.index()] = mapped;
    }
    for &o in network.outputs() {
        out.add_output(map[o.node().index()].xor_complement(o.is_complement()));
    }
    out.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{cec, NetworkKind};

    #[test]
    fn balances_xor_chains() {
        let mut n = Network::new(NetworkKind::Xag);
        let xs = n.add_inputs(16);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = n.xor2(acc, x);
        }
        n.add_output(acc);
        assert_eq!(n.depth(), 15);
        let b = balance(&n);
        assert_eq!(b.depth(), 4);
        assert!(cec(&n, &b).holds());
    }

    #[test]
    fn preserves_shared_subtrees() {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(4);
        let shared = n.and2(xs[0], xs[1]);
        let f = n.and2(shared, xs[2]);
        let g = n.and2(shared, xs[3]);
        n.add_output(f);
        n.add_output(g);
        let b = balance(&n);
        assert!(cec(&n, &b).holds());
        // Sharing must not be destroyed (node count may not grow).
        assert!(b.gate_count() <= n.gate_count());
    }

    #[test]
    fn balances_mig_network_without_change_in_function() {
        let mut n = Network::new(NetworkKind::Mig);
        let xs = n.add_inputs(5);
        let m1 = n.maj3(xs[0], xs[1], xs[2]);
        let m2 = n.maj3(m1, xs[3], xs[4]);
        n.add_output(m2);
        let b = balance(&n);
        assert!(cec(&n, &b).holds());
        assert_eq!(b.gate_count(), n.gate_count());
    }

    #[test]
    fn never_increases_depth() {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(6);
        let a = n.and2(xs[0], xs[1]);
        let b2 = n.or(a, xs[2]);
        let c = n.xor(b2, xs[3]);
        let d = n.and2(c, xs[4]);
        let e = n.or(d, xs[5]);
        n.add_output(e);
        let bal = balance(&n);
        assert!(bal.depth() <= n.depth());
        assert!(cec(&n, &bal).holds());
    }
}
