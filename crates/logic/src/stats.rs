//! Compact summaries of networks for reporting.

use crate::{Network, NetworkKind};
use std::fmt;

/// A summary of a network's size and shape.
///
/// # Example
///
/// ```
/// use mch_logic::{Network, NetworkKind, NetworkStats};
///
/// let mut n = Network::with_name(NetworkKind::Aig, "demo");
/// let a = n.add_input();
/// let b = n.add_input();
/// let f = n.and2(a, b);
/// n.add_output(f);
/// let stats = NetworkStats::of(&n);
/// assert_eq!(stats.gates, 1);
/// assert_eq!(stats.depth, 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkStats {
    /// Network name.
    pub name: String,
    /// Declared representation.
    pub kind: NetworkKind,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic gates.
    pub gates: usize,
    /// Logic depth.
    pub depth: u32,
    /// Number of AND nodes.
    pub and_gates: usize,
    /// Number of XOR nodes.
    pub xor_gates: usize,
    /// Number of MAJ nodes.
    pub maj_gates: usize,
}

impl NetworkStats {
    /// Gathers the statistics of `network`.
    pub fn of(network: &Network) -> Self {
        let (and_gates, xor_gates, maj_gates) = network.gate_profile();
        NetworkStats {
            name: network.name().to_string(),
            kind: network.kind(),
            inputs: network.input_count(),
            outputs: network.output_count(),
            gates: network.gate_count(),
            depth: network.depth(),
            and_gates,
            xor_gates,
            maj_gates,
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: i/o = {}/{}, gates = {} (and {}, xor {}, maj {}), depth = {}",
            if self.name.is_empty() {
                "<unnamed>"
            } else {
                &self.name
            },
            self.kind,
            self.inputs,
            self.outputs,
            self.gates,
            self.and_gates,
            self.xor_gates,
            self.maj_gates,
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkKind};

    #[test]
    fn stats_count_gate_kinds() {
        let mut n = Network::with_name(NetworkKind::Xmg, "t");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let x = n.xor2(a, b);
        let m = n.maj3(a, b, c);
        let y = n.xor2(x, m);
        n.add_output(y);
        let s = NetworkStats::of(&n);
        assert_eq!(s.gates, 3);
        assert_eq!(s.xor_gates, 2);
        assert_eq!(s.maj_gates, 1);
        assert_eq!(s.and_gates, 0);
        assert_eq!(s.depth, 2);
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 1);
    }

    #[test]
    fn display_contains_name_and_kind() {
        let n = Network::with_name(NetworkKind::Aig, "adder");
        let text = NetworkStats::of(&n).to_string();
        assert!(text.contains("adder"));
        assert!(text.contains("AIG"));
    }
}
