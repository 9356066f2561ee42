//! Generators for the random/control half of the EPFL-like benchmark suite.

use crate::arithmetic::priority_encode;
use crate::random_logic::random_logic;
use crate::words::{barrel_shift_left, constant_word, greater_than, popcount, ripple_sub};
use mch_logic::{Network, NetworkKind, Signal};

/// `dec`: a full binary decoder with `sel_width` select bits and
/// `2^sel_width` one-hot outputs.
pub fn decoder(sel_width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "dec");
    let sel = n.add_inputs(sel_width);
    for value in 0..(1usize << sel_width) {
        let literals: Vec<Signal> = sel
            .iter()
            .enumerate()
            .map(|(bit, &s)| s.xor_complement((value >> bit) & 1 == 0))
            .collect();
        let out = n.and_reduce(&literals);
        n.add_output(out);
    }
    n
}

/// `priority`: a priority encoder over `width` request lines (MSB wins),
/// producing the binary index and a valid flag.
pub fn priority(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "priority");
    let reqs = n.add_inputs(width);
    let (index, valid) = priority_encode(&mut n, &reqs);
    for bit in index {
        n.add_output(bit);
    }
    n.add_output(valid);
    n
}

/// `voter`: the majority function of `n_inputs` voters, built as a
/// population count followed by a threshold comparison.
pub fn voter(n_inputs: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "voter");
    let votes = n.add_inputs(n_inputs);
    let count = popcount(&mut n, &votes);
    let threshold = constant_word(&n, count.len(), (n_inputs / 2) as u64);
    let majority = greater_than(&mut n, &count, &threshold);
    n.add_output(majority);
    n
}

/// `arbiter`: a combinational round-robin arbiter: `width` request lines plus
/// a `width`-bit rotating-priority mask (the registered pointer in the real
/// design), producing one-hot grants.
pub fn round_robin_arbiter(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "arbiter");
    let requests = n.add_inputs(width);
    let mask = n.add_inputs(width);
    // Grants among masked requests (the high-priority window).
    let masked: Vec<Signal> = requests
        .iter()
        .zip(&mask)
        .map(|(&r, &m)| n.and(r, m))
        .collect();
    let any_masked = n.or_reduce(&masked);
    // Fixed-priority chains over both the masked and unmasked requests.
    let chain = |n: &mut Network, reqs: &[Signal]| -> Vec<Signal> {
        let mut grants = Vec::with_capacity(reqs.len());
        let mut taken = n.constant(false);
        for &r in reqs {
            let g = n.and(r, !taken);
            grants.push(g);
            taken = n.or(taken, r);
        }
        grants
    };
    let masked_grants = chain(&mut n, &masked);
    let plain_grants = chain(&mut n, &requests);
    for i in 0..width {
        let g = n.mux(any_masked, masked_grants[i], plain_grants[i]);
        n.add_output(g);
    }
    n
}

/// `int2float`: converts a `width`-bit unsigned integer into a small
/// floating-point format (leading-one detection, normalisation, truncation),
/// with a 3-bit exponent and 4-bit mantissa like the EPFL circuit.
pub fn int2float(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "int2float");
    let a = n.add_inputs(width);
    let (msb, valid) = priority_encode(&mut n, &a);
    let max_index = constant_word(&n, msb.len(), (width - 1) as u64);
    let (shift, _) = ripple_sub(&mut n, &max_index, &msb);
    let normalised = barrel_shift_left(&mut n, &a, &shift);
    // Exponent: the MSB index (clamped to 3 bits); mantissa: top 4 bits below
    // the leading one.
    for bit in msb.iter().take(3) {
        n.add_output(*bit);
    }
    let mantissa: Vec<Signal> = normalised.iter().rev().skip(1).take(4).copied().collect();
    for bit in mantissa {
        n.add_output(bit);
    }
    let zero_flag = !valid;
    n.add_output(zero_flag);
    n
}

/// `cavlc`: the coefficient-coding controller, modelled as seeded random
/// control logic with the EPFL interface (10 inputs, 11 outputs).
pub fn cavlc() -> Network {
    random_logic("cavlc", 10, 11, 350, 0xCA71C)
}

/// `ctrl`: the small controller cone (7 inputs, 26 outputs).
pub fn ctrl() -> Network {
    random_logic("ctrl", 7, 26, 120, 0xC7121)
}

/// `i2c`: the bus-controller cone, scaled to 40 inputs / 35 outputs.
pub fn i2c() -> Network {
    random_logic("i2c", 40, 35, 700, 0x12C)
}

/// `mem_ctrl`: the memory-controller cone, scaled to 60 inputs / 50 outputs.
pub fn mem_ctrl() -> Network {
    random_logic("mem_ctrl", 60, 50, 2400, 0x3E3)
}

/// `router`: the NoC router control cone, scaled to 30 inputs / 20 outputs.
pub fn router() -> Network {
    random_logic("router", 30, 20, 180, 0x20172)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::Word;
    use mch_logic::simulate;

    fn eval(net: &Network, bits: &[(usize, bool)]) -> Vec<u64> {
        let mut patterns = vec![vec![0u64; 1]; net.input_count()];
        for &(i, v) in bits {
            patterns[i][0] = if v { u64::MAX } else { 0 };
        }
        simulate(net, &patterns).iter().map(|w| w[0] & 1).collect()
    }

    fn value(bits: &[u64]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | ((b & 1) << i))
    }

    #[test]
    fn decoder_is_one_hot() {
        let net = decoder(4);
        assert_eq!(net.output_count(), 16);
        let outs = eval(&net, &[(0, true), (2, true)]); // select = 0b0101 = 5
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(o & 1 == 1, i == 5, "output {i}");
        }
    }

    #[test]
    fn priority_encoder_prefers_msb() {
        let net = priority(16);
        let outs = eval(&net, &[(3, true), (9, true)]);
        assert_eq!(value(&outs[..4]), 9);
        assert_eq!(outs[4] & 1, 1);
        let none = eval(&net, &[]);
        assert_eq!(none[4] & 1, 0, "valid must be low with no requests");
    }

    #[test]
    fn voter_takes_majority() {
        let net = voter(15);
        // 8 of 15 votes -> majority.
        let yes: Vec<(usize, bool)> = (0..8).map(|i| (i, true)).collect();
        assert_eq!(eval(&net, &yes)[0] & 1, 1);
        let no: Vec<(usize, bool)> = (0..7).map(|i| (i, true)).collect();
        assert_eq!(eval(&net, &no)[0] & 1, 0);
    }

    #[test]
    fn arbiter_grants_exactly_one_requester() {
        let width = 8;
        let net = round_robin_arbiter(width);
        // Requests 2 and 5, mask favouring indices >= 4.
        let mut assign: Vec<(usize, bool)> = vec![(2, true), (5, true)];
        for i in 4..width {
            assign.push((width + i, true));
        }
        let outs = eval(&net, &assign);
        let grants: Word = vec![];
        drop(grants);
        assert_eq!(outs.iter().map(|b| b & 1).sum::<u64>(), 1, "one-hot grant");
        assert_eq!(outs[5] & 1, 1, "masked (rotated) priority wins");
        // Without the mask window, the lowest index wins.
        let outs = eval(&net, &[(2, true), (5, true)]);
        assert_eq!(outs[2] & 1, 1);
    }

    #[test]
    fn int2float_reports_exponent() {
        let net = int2float(11);
        // Input 0b100_0000_0000 -> exponent (MSB index) = 10.
        let outs = eval(&net, &[(10, true)]);
        assert_eq!(value(&outs[..3]), 10 & 0x7);
        // Zero input sets the zero flag (last output).
        let zero = eval(&net, &[]);
        assert_eq!(zero.last().unwrap() & 1, 1);
    }

    #[test]
    fn random_control_benchmarks_have_expected_interfaces() {
        assert_eq!(cavlc().input_count(), 10);
        assert_eq!(cavlc().output_count(), 11);
        assert_eq!(ctrl().input_count(), 7);
        assert_eq!(ctrl().output_count(), 26);
        assert_eq!(i2c().output_count(), 35);
        assert_eq!(router().output_count(), 20);
        assert!(mem_ctrl().gate_count() > 1000);
    }
}
