//! Bit-parallel simulation and combinational equivalence checking.
//!
//! This module is the reproduction's stand-in for ABC's `cec` command: small
//! networks are checked exhaustively, larger ones with high-volume randomized
//! simulation (see `DESIGN.md`, substitution table).

use crate::rng::Prng;
use crate::{GateKind, Network, TruthTable};

/// Outcome of an equivalence check.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Equivalence {
    /// The networks were proven equivalent by exhaustive simulation.
    Equivalent,
    /// No mismatch was found by randomized simulation (not a proof).
    ProbablyEquivalent,
    /// A counterexample distinguishing the networks was found.
    NotEquivalent,
    /// The interfaces differ (input or output counts do not match).
    InterfaceMismatch,
}

impl Equivalence {
    /// `true` for [`Equivalence::Equivalent`] and
    /// [`Equivalence::ProbablyEquivalent`].
    pub fn holds(self) -> bool {
        matches!(
            self,
            Equivalence::Equivalent | Equivalence::ProbablyEquivalent
        )
    }
}

/// Simulates the network on word-parallel input patterns and returns the
/// value words of **every node** (indexed by node id).
///
/// `patterns[i]` holds the stimulus words of primary input `i`; all inputs
/// must have the same number of words. Node values are in positive polarity;
/// complemented output edges are *not* applied (use [`simulate`] for that).
///
/// # Panics
///
/// Panics if the number of pattern rows differs from the input count or the
/// rows have inconsistent lengths.
pub fn simulate_nodes(network: &Network, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
    assert_eq!(
        patterns.len(),
        network.input_count(),
        "one pattern row per primary input required"
    );
    // A zero-input network has no pattern rows but its constants still need
    // one word of stimulus; otherwise every node value collapses to an empty
    // vector and downstream truth-table reconstruction has nothing to read.
    let words = patterns.first().map_or(1, Vec::len);
    for row in patterns {
        assert_eq!(row.len(), words, "inconsistent pattern widths");
    }
    let mut values: Vec<Vec<u64>> = vec![vec![0; words]; network.len()];
    for (i, &pi) in network.inputs().iter().enumerate() {
        values[pi.index()] = patterns[i].clone();
    }
    for id in network.gate_ids() {
        let node = network.node(id);
        let read = |sig: crate::Signal, w: usize, values: &Vec<Vec<u64>>| -> u64 {
            let v = values[sig.node().index()][w];
            if sig.is_complement() {
                !v
            } else {
                v
            }
        };
        let fanins = node.fanins().to_vec();
        let mut out = vec![0u64; words];
        for (w, slot) in out.iter_mut().enumerate() {
            *slot = match node.kind() {
                GateKind::And2 => read(fanins[0], w, &values) & read(fanins[1], w, &values),
                GateKind::Xor2 => read(fanins[0], w, &values) ^ read(fanins[1], w, &values),
                GateKind::Maj3 => {
                    let a = read(fanins[0], w, &values);
                    let b = read(fanins[1], w, &values);
                    let c = read(fanins[2], w, &values);
                    (a & b) | (a & c) | (b & c)
                }
                _ => unreachable!("gate_ids yields only gates"),
            };
        }
        values[id.index()] = out;
    }
    values
}

/// Simulates the network on word-parallel input patterns.
///
/// `patterns[i]` holds the stimulus words of primary input `i`; all inputs
/// must have the same number of words. Returns one vector of words per
/// primary output (complemented output edges are applied).
///
/// # Panics
///
/// Panics if the number of pattern rows differs from the input count or the
/// rows have inconsistent lengths.
pub fn simulate(network: &Network, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let values = simulate_nodes(network, patterns);
    let words = patterns.first().map_or(1, Vec::len);
    network
        .outputs()
        .iter()
        .map(|out| {
            (0..words)
                .map(|w| {
                    let v = values[out.node().index()][w];
                    if out.is_complement() {
                        !v
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// Computes the complete truth table of every primary output.
///
/// # Panics
///
/// Panics if the network has more than 16 primary inputs.
pub fn output_truth_tables(network: &Network) -> Vec<TruthTable> {
    let n = network.input_count();
    assert!(n <= 16, "exhaustive truth tables limited to 16 inputs");
    let patterns: Vec<Vec<u64>> = (0..n)
        .map(|i| TruthTable::var(n.max(6), i).words().to_vec())
        .collect();
    let outputs = simulate(network, &patterns);
    outputs
        .into_iter()
        .map(|words| {
            let full = TruthTable::from_words(n.max(6), words);
            if n >= 6 {
                full
            } else {
                // Shrink the 6-variable simulation down to the real input count.
                let mut t = TruthTable::zeros(n);
                for i in 0..t.num_bits() {
                    t.set_bit(i, full.bit(i));
                }
                t
            }
        })
        .collect()
}

/// Checks equivalence by exhaustive simulation (up to 16 inputs).
pub fn equivalent_exhaustive(a: &Network, b: &Network) -> Equivalence {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Equivalence::InterfaceMismatch;
    }
    if output_truth_tables(a) == output_truth_tables(b) {
        Equivalence::Equivalent
    } else {
        Equivalence::NotEquivalent
    }
}

/// Checks equivalence with `words * 64` random input patterns.
pub fn equivalent_random(a: &Network, b: &Network, words: usize, seed: u64) -> Equivalence {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Equivalence::InterfaceMismatch;
    }
    let mut rng = Prng::seed_from_u64(seed);
    let patterns: Vec<Vec<u64>> = (0..a.input_count())
        .map(|_| (0..words).map(|_| rng.next_u64()).collect())
        .collect();
    let ra = simulate(a, &patterns);
    let rb = simulate(b, &patterns);
    if ra == rb {
        Equivalence::ProbablyEquivalent
    } else {
        Equivalence::NotEquivalent
    }
}

/// Combinational equivalence check: exhaustive when the interface is small
/// enough, randomized otherwise.
///
/// This is the check applied after every transformation in the experiment
/// harness (the paper uses ABC's `cec`).
pub fn cec(a: &Network, b: &Network) -> Equivalence {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Equivalence::InterfaceMismatch;
    }
    if a.input_count() <= 14 {
        equivalent_exhaustive(a, b)
    } else {
        equivalent_random(a, b, 64, 0xC0FFEE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkKind};

    fn xor_aig() -> Network {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.xor(a, b);
        n.add_output(x);
        n
    }

    fn xor_xag() -> Network {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.xor2(a, b);
        n.add_output(x);
        n
    }

    #[test]
    fn simulation_computes_xor() {
        let n = xor_aig();
        let out = simulate(&n, &[vec![0b1100], vec![0b1010]]);
        assert_eq!(out[0][0] & 0xF, 0b0110);
    }

    #[test]
    fn truth_tables_of_outputs() {
        let n = xor_aig();
        let tts = output_truth_tables(&n);
        assert_eq!(tts.len(), 1);
        assert_eq!(tts[0].as_u64(), 0x6);
    }

    #[test]
    fn equivalent_across_representations() {
        assert_eq!(
            equivalent_exhaustive(&xor_aig(), &xor_xag()),
            Equivalence::Equivalent
        );
        assert!(cec(&xor_aig(), &xor_xag()).holds());
    }

    #[test]
    fn detects_non_equivalence() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.and2(a, b);
        n.add_output(x);
        assert_eq!(cec(&xor_aig(), &n), Equivalence::NotEquivalent);
        assert_eq!(
            equivalent_random(&xor_aig(), &n, 4, 1),
            Equivalence::NotEquivalent
        );
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        n.add_output(a);
        assert_eq!(cec(&xor_aig(), &n), Equivalence::InterfaceMismatch);
    }

    #[test]
    fn majority_network_simulates_correctly() {
        let mut n = Network::new(NetworkKind::Mig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let m = n.maj3(a, b, c);
        n.add_output(m);
        let tts = output_truth_tables(&n);
        assert_eq!(tts[0].as_u64(), 0xE8);
    }

    #[test]
    fn zero_input_networks_simulate_their_constants() {
        let mut n = Network::new(NetworkKind::Aig);
        n.add_output(n.constant(true));
        n.add_output(n.constant(false));
        let tts = output_truth_tables(&n);
        assert_eq!(tts.len(), 2);
        assert_eq!(tts[0], TruthTable::constant(0, true));
        assert_eq!(tts[1], TruthTable::constant(0, false));
        assert_eq!(cec(&n, &n.clone()), Equivalence::Equivalent);

        let mut flipped = Network::new(NetworkKind::Aig);
        flipped.add_output(flipped.constant(false));
        flipped.add_output(flipped.constant(true));
        assert_eq!(cec(&n, &flipped), Equivalence::NotEquivalent);
    }

    #[test]
    fn complemented_outputs_are_honoured() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.and2(a, b);
        n.add_output(!x);
        let tts = output_truth_tables(&n);
        assert_eq!(tts[0].as_u64(), 0x7);
    }
}
