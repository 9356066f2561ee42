//! Word-level construction helpers: bit-vector arithmetic and selection
//! primitives used by the benchmark generators.

use mch_logic::{Network, Signal};

/// A little-endian bit vector (`bits[0]` is the least significant bit).
pub type Word = Vec<Signal>;

/// Builds a constant word of the given width.
pub fn constant_word(net: &Network, width: usize, value: u64) -> Word {
    (0..width)
        .map(|i| net.constant((value >> i) & 1 == 1))
        .collect()
}

/// Ripple-carry addition; returns the sum (same width) and the carry-out.
pub fn ripple_add(
    net: &mut Network,
    a: &[Signal],
    b: &[Signal],
    carry_in: Signal,
) -> (Word, Signal) {
    assert_eq!(a.len(), b.len(), "operands must have equal widths");
    let mut carry = carry_in;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = net.full_adder(x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Two's-complement subtraction `a - b`; returns the difference and a borrow
/// flag (`true` when `a < b`).
pub fn ripple_sub(net: &mut Network, a: &[Signal], b: &[Signal]) -> (Word, Signal) {
    let nb: Word = b.iter().map(|&s| !s).collect();
    let one = net.constant(true);
    let (diff, carry) = ripple_add(net, a, &nb, one);
    (diff, !carry)
}

/// Unsigned "greater than" comparison.
pub fn greater_than(net: &mut Network, a: &[Signal], b: &[Signal]) -> Signal {
    assert_eq!(a.len(), b.len());
    let mut gt = net.constant(false);
    let mut eq = net.constant(true);
    // From MSB to LSB: gt |= eq & a_i & !b_i ; eq &= (a_i == b_i).
    for i in (0..a.len()).rev() {
        let ai_gt_bi = net.and(a[i], !b[i]);
        let this = net.and(eq, ai_gt_bi);
        gt = net.or(gt, this);
        let same = net.xnor(a[i], b[i]);
        eq = net.and(eq, same);
    }
    gt
}

/// Returns `true` when the word is non-zero.
pub fn non_zero(net: &mut Network, a: &[Signal]) -> Signal {
    net.or_reduce(a)
}

/// Word-level 2:1 multiplexer: `sel ? a : b`.
pub fn mux_word(net: &mut Network, sel: Signal, a: &[Signal], b: &[Signal]) -> Word {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| net.mux(sel, x, y)).collect()
}

/// Logical left shift by a fixed amount (zero fill), keeping the width.
pub fn shift_left_fixed(net: &Network, a: &[Signal], amount: usize) -> Word {
    let mut out = vec![net.constant(false); a.len()];
    for i in 0..a.len() {
        if i >= amount {
            out[i] = a[i - amount];
        }
    }
    out
}

/// Logical right shift by a fixed amount (zero fill), keeping the width.
pub fn shift_right_fixed(net: &Network, a: &[Signal], amount: usize) -> Word {
    let mut out = vec![net.constant(false); a.len()];
    for i in 0..a.len() {
        if i + amount < a.len() {
            out[i] = a[i + amount];
        }
    }
    out
}

/// Barrel shifter: logical left shift of `a` by the binary amount `shift`.
pub fn barrel_shift_left(net: &mut Network, a: &[Signal], shift: &[Signal]) -> Word {
    let mut current: Word = a.to_vec();
    for (stage, &s) in shift.iter().enumerate() {
        let shifted = shift_left_fixed(net, &current, 1 << stage);
        current = mux_word(net, s, &shifted, &current);
    }
    current
}

/// Array multiplier; the result has `a.len() + b.len()` bits.
pub fn multiply(net: &mut Network, a: &[Signal], b: &[Signal]) -> Word {
    let width = a.len() + b.len();
    let mut acc = constant_word(net, width, 0);
    for (i, &bi) in b.iter().enumerate() {
        // Partial product: (a & b_i) << i, extended to `width` bits.
        let mut partial = vec![net.constant(false); width];
        for (j, &aj) in a.iter().enumerate() {
            partial[i + j] = net.and(aj, bi);
        }
        let zero = net.constant(false);
        let (sum, _) = ripple_add(net, &acc, &partial, zero);
        acc = sum;
    }
    acc
}

/// Zero-extends a word to `width` bits.
pub fn zero_extend(net: &Network, a: &[Signal], width: usize) -> Word {
    let mut out = a.to_vec();
    while out.len() < width {
        out.push(net.constant(false));
    }
    out.truncate(width);
    out
}

/// Counts the number of set bits; the result has `ceil(log2(n+1))` bits.
pub fn popcount(net: &mut Network, bits: &[Signal]) -> Word {
    if bits.is_empty() {
        return vec![];
    }
    if bits.len() == 1 {
        return vec![bits[0]];
    }
    let mid = bits.len() / 2;
    let left = popcount(net, &bits[..mid]);
    let right = popcount(net, &bits[mid..]);
    let width = left.len().max(right.len()) + 1;
    let l = zero_extend(net, &left, width);
    let r = zero_extend(net, &right, width);
    let zero = net.constant(false);
    let (sum, _) = ripple_add(net, &l, &r, zero);
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{simulate, Network, NetworkKind};

    /// Evaluates a combinational word function on concrete inputs.
    fn eval(net: &Network, inputs: &[(usize, u64)], width_in: usize) -> Vec<u64> {
        let mut patterns = vec![vec![0u64; 1]; net.input_count()];
        for &(base, value) in inputs {
            for b in 0..width_in {
                if (value >> b) & 1 == 1 {
                    patterns[base + b][0] = u64::MAX;
                }
            }
        }
        simulate(net, &patterns).iter().map(|w| w[0] & 1).collect()
    }

    fn word_value(bits: &[u64]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | ((b & 1) << i))
    }

    #[test]
    fn adder_computes_sums() {
        let mut net = Network::new(NetworkKind::Aig);
        let a = net.add_inputs(8);
        let b = net.add_inputs(8);
        let zero = net.constant(false);
        let (sum, carry) = ripple_add(&mut net, &a, &b, zero);
        for s in sum {
            net.add_output(s);
        }
        net.add_output(carry);
        for (x, y) in [(3u64, 5u64), (200, 100), (255, 255), (0, 0)] {
            let outs = eval(&net, &[(0, x), (8, y)], 8);
            let total = word_value(&outs[..8]) | (outs[8] & 1) << 8;
            assert_eq!(total, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_and_comparator() {
        let mut net = Network::new(NetworkKind::Aig);
        let a = net.add_inputs(6);
        let b = net.add_inputs(6);
        let (diff, borrow) = ripple_sub(&mut net, &a, &b);
        let gt = greater_than(&mut net, &a, &b);
        for d in diff {
            net.add_output(d);
        }
        net.add_output(borrow);
        net.add_output(gt);
        for (x, y) in [(20u64, 7u64), (7, 20), (33, 33), (63, 0)] {
            let outs = eval(&net, &[(0, x), (6, y)], 6);
            let diff = word_value(&outs[..6]);
            assert_eq!(diff, x.wrapping_sub(y) & 0x3F);
            assert_eq!(outs[6] & 1 == 1, x < y, "borrow for {x}-{y}");
            assert_eq!(outs[7] & 1 == 1, x > y, "gt for {x}>{y}");
        }
    }

    #[test]
    fn multiplier_is_correct() {
        let mut net = Network::new(NetworkKind::Aig);
        let a = net.add_inputs(5);
        let b = net.add_inputs(5);
        let p = multiply(&mut net, &a, &b);
        for s in p {
            net.add_output(s);
        }
        for (x, y) in [(0u64, 0u64), (31, 31), (12, 17), (25, 3)] {
            let outs = eval(&net, &[(0, x), (5, y)], 5);
            assert_eq!(word_value(&outs), x * y, "{x}*{y}");
        }
    }

    #[test]
    fn barrel_shifter_shifts() {
        let mut net = Network::new(NetworkKind::Aig);
        let a = net.add_inputs(8);
        let sh = net.add_inputs(3);
        let out = barrel_shift_left(&mut net, &a, &sh);
        for s in out {
            net.add_output(s);
        }
        for (value, shift) in [(0b1011u64, 0u64), (0b1011, 3), (0xFF, 7), (1, 5)] {
            let outs = eval(&net, &[(0, value), (8, shift)], 8);
            assert_eq!(
                word_value(&outs),
                (value << shift) & 0xFF,
                "{value}<<{shift}"
            );
        }
    }

    #[test]
    fn popcount_counts() {
        let mut net = Network::new(NetworkKind::Aig);
        let bits = net.add_inputs(7);
        let count = popcount(&mut net, &bits);
        for c in count {
            net.add_output(c);
        }
        for value in [0u64, 0b1111111, 0b1010101, 0b0011000] {
            let outs = eval(&net, &[(0, value)], 7);
            assert_eq!(
                word_value(&outs),
                value.count_ones() as u64,
                "popcount({value:b})"
            );
        }
    }
}
