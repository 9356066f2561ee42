//! The benchmark's own output check, independent of the program's `cec` and
//! `simulate`: a bit-parallel evaluator over the public `Node::kind()` /
//! `fanins()` API, seeded check vectors, and a structural netlist digest.

use mch_core::logic::{GateKind, Network};
use mch_core::mapper::{CellNetlist, LutNetlist, NetRef};

/// 64-bit words of patterns evaluated per block; blocks keep the evaluator's
/// memory at `nodes * BLOCK_WORDS` words whatever the vector count.
const BLOCK_WORDS: usize = 4;
/// Random check vectors per circuit (in 64-pattern words) when the circuit is
/// too wide for an exhaustive check.
const RANDOM_WORDS: usize = 64;
/// Circuits with at most this many inputs are checked on every pattern.
const EXHAUSTIVE_INPUTS: usize = 12;

/// SplitMix64: the benchmark's only source of randomness, so the inputs
/// depend on `--seed` alone.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Input patterns of one circuit: `words[i]` holds input `i`'s bits.
pub struct Vectors {
    words: Vec<Vec<u64>>,
}

impl Vectors {
    /// Exhaustive patterns for narrow circuits, seeded random ones otherwise.
    pub fn for_inputs(inputs: usize, seed: u64) -> Self {
        let words = if inputs <= EXHAUSTIVE_INPUTS {
            let patterns = 1usize << inputs;
            let n_words = patterns.div_ceil(64);
            (0..inputs)
                .map(|i| {
                    (0..n_words)
                        .map(|w| {
                            (0..64).fold(0u64, |acc, bit| {
                                let p = w * 64 + bit;
                                let on = p < patterns && (p >> i) & 1 == 1;
                                acc | (u64::from(on) << bit)
                            })
                        })
                        .collect()
                })
                .collect()
        } else {
            let mut rng = SplitMix::new(seed);
            (0..inputs)
                .map(|_| (0..RANDOM_WORDS).map(|_| rng.next_u64()).collect())
                .collect()
        };
        Vectors { words }
    }

    fn word_count(&self) -> usize {
        self.words.first().map_or(1, Vec::len)
    }
}

/// Evaluates `net` on words `[from, from + len)` of `vectors`; returns the
/// output words, output-major. Errors if the node order is not topological.
fn eval_block(
    net: &Network,
    vectors: &Vectors,
    from: usize,
    len: usize,
) -> Result<Vec<u64>, String> {
    let mut values = vec![0u64; net.len() * len];
    let mut input_pos = vec![usize::MAX; net.len()];
    for (pos, id) in net.inputs().iter().enumerate() {
        input_pos[id.index()] = pos;
    }
    for index in 0..net.len() {
        let node = net.node(mch_core::logic::NodeId::from_index(index));
        let fanins = node.fanins();
        if fanins.iter().any(|s| s.node().index() >= index) {
            return Err(format!("node {index} reads a later node"));
        }
        for w in 0..len {
            let fanin = |k: usize| {
                let s = fanins[k];
                let v = values[s.node().index() * len + w];
                if s.is_complement() {
                    !v
                } else {
                    v
                }
            };
            values[index * len + w] = match node.kind() {
                GateKind::Const => 0,
                GateKind::Input => {
                    let pos = input_pos[index];
                    vectors.words.get(pos).map_or(0, |words| words[from + w])
                }
                GateKind::And2 => fanin(0) & fanin(1),
                GateKind::Xor2 => fanin(0) ^ fanin(1),
                GateKind::Maj3 => {
                    let (a, b, c) = (fanin(0), fanin(1), fanin(2));
                    (a & b) | (a & c) | (b & c)
                }
            };
        }
    }
    let mut out = Vec::with_capacity(net.output_count() * len);
    for s in net.outputs() {
        for w in 0..len {
            let v = values[s.node().index() * len + w];
            out.push(if s.is_complement() { !v } else { v });
        }
    }
    Ok(out)
}

/// Compares two networks on every check vector. `Err` names the first
/// difference.
pub fn same_function(golden: &Network, mapped: &Network, vectors: &Vectors) -> Result<(), String> {
    if golden.input_count() != mapped.input_count()
        || golden.output_count() != mapped.output_count()
    {
        return Err(format!(
            "interface {}x{} vs {}x{}",
            golden.input_count(),
            golden.output_count(),
            mapped.input_count(),
            mapped.output_count()
        ));
    }
    let total = vectors.word_count();
    let mut from = 0;
    while from < total {
        let len = BLOCK_WORDS.min(total - from);
        let a = eval_block(golden, vectors, from, len)?;
        let b = eval_block(mapped, vectors, from, len)?;
        if let Some(i) = a.iter().zip(&b).position(|(x, y)| x != y) {
            return Err(format!(
                "output {} differs in word {}",
                i / len,
                from + i % len
            ));
        }
        from += len;
    }
    Ok(())
}

/// FNV-1a over the words of a netlist's structure.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn net_ref(&mut self, r: &NetRef) {
        match *r {
            NetRef::Const(v) => {
                self.word(0);
                self.word(u64::from(v));
            }
            NetRef::Input(i) => {
                self.word(1);
                self.word(i as u64);
            }
            NetRef::Gate(i) => {
                self.word(2);
                self.word(i as u64);
            }
        }
    }
}

/// Structural digest of a cell netlist: cells, pins and outputs in order.
pub fn cell_digest(netlist: &CellNetlist) -> u64 {
    let mut h = Fnv::new();
    h.word(netlist.input_count() as u64);
    for gate in netlist.gates() {
        h.word(gate.cell.index() as u64);
        h.word(gate.fanins.len() as u64);
        gate.fanins.iter().for_each(|r| h.net_ref(r));
    }
    netlist.outputs().iter().for_each(|r| h.net_ref(r));
    h.0
}

/// Structural digest of a LUT netlist: masks, fanins and outputs in order.
pub fn lut_digest(netlist: &LutNetlist) -> u64 {
    let mut h = Fnv::new();
    h.word(netlist.input_count() as u64);
    for lut in netlist.luts() {
        h.word(lut.function.num_vars() as u64);
        lut.function.words().iter().for_each(|&w| h.word(w));
        h.word(lut.fanins.len() as u64);
        lut.fanins.iter().for_each(|r| h.net_ref(r));
    }
    netlist.outputs().iter().for_each(|r| h.net_ref(r));
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_tree(inputs: usize, use_xor: bool) -> Network {
        let kind = if use_xor {
            mch_core::logic::NetworkKind::Xag
        } else {
            mch_core::logic::NetworkKind::Aig
        };
        let mut n = Network::new(kind);
        let ins = n.add_inputs(inputs);
        let mut acc = ins[0];
        for &s in &ins[1..] {
            acc = if use_xor {
                n.xor2(acc, s)
            } else {
                n.xor(acc, s)
            };
        }
        n.add_output(acc);
        n
    }

    #[test]
    fn equal_functions_pass_and_different_ones_fail() {
        for inputs in [3, 20] {
            let v = Vectors::for_inputs(inputs, 7);
            let aig = xor_tree(inputs, false);
            let xag = xor_tree(inputs, true);
            assert_eq!(same_function(&aig, &xag, &v), Ok(()));
            let mut wrong = xor_tree(inputs, true);
            let o = wrong.output(0);
            wrong.replace_output(0, !o);
            assert!(same_function(&aig, &wrong, &v).is_err());
        }
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(3).shuffle(&mut a);
        SplitMix::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        SplitMix::new(4).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
