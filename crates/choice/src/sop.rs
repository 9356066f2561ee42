//! Sum-of-products extraction (irredundant SOP) and simple algebraic
//! factoring.
//!
//! These form the *area-oriented* synthesis strategies of the multi-strategy
//! structural choice algorithm (Algorithm 2, lines 9–13): non-critical nodes
//! are re-expressed as factored SOPs, which tend to minimise literal count and
//! therefore mapped area.

use mch_logic::{Network, Signal, TruthTable};

/// A product term over the function's variables.
///
/// Bit `i` of `mask` indicates variable `i` appears in the cube; the matching
/// bit of `polarity` gives its phase (1 = positive literal).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Cube {
    /// Variables present in the cube.
    pub mask: u32,
    /// Phase of each present variable.
    pub polarity: u32,
}

impl Cube {
    /// The cube containing no literals (tautology).
    pub fn tautology() -> Self {
        Cube {
            mask: 0,
            polarity: 0,
        }
    }

    /// Number of literals in the cube.
    pub fn literal_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Adds a literal of `var` with the given phase.
    pub fn with_literal(mut self, var: usize, positive: bool) -> Self {
        self.mask |= 1 << var;
        if positive {
            self.polarity |= 1 << var;
        } else {
            self.polarity &= !(1 << var);
        }
        self
    }

    /// Evaluates the cube's characteristic function as a truth table.
    pub fn truth_table(&self, num_vars: usize) -> TruthTable {
        let mut t = TruthTable::ones(num_vars);
        for v in 0..num_vars {
            if self.mask & (1 << v) != 0 {
                let var = TruthTable::var(num_vars, v);
                let lit = if self.polarity & (1 << v) != 0 {
                    var
                } else {
                    var.not()
                };
                t = t.and(&lit);
            }
        }
        t
    }
}

/// Computes an irredundant sum-of-products cover of `function` using the
/// Minato–Morreale recursive ISOP procedure.
///
/// The returned cubes cover exactly the on-set of the function.
pub fn isop(function: &TruthTable) -> Vec<Cube> {
    let mut cover = Vec::new();
    isop_rec(function, function, function.num_vars(), &mut cover);
    cover
}

/// Recursive ISOP. `lower ⊆ f ⊆ upper`; returns the cover's characteristic
/// function and appends cubes to `out`.
fn isop_rec(
    lower: &TruthTable,
    upper: &TruthTable,
    num_vars: usize,
    out: &mut Vec<Cube>,
) -> TruthTable {
    if lower.is_const0() {
        return TruthTable::zeros(lower.num_vars());
    }
    if upper.is_const1() {
        out.push(Cube::tautology());
        return TruthTable::ones(lower.num_vars());
    }
    // Pick the lowest variable in the support of either bound.
    let var = (0..num_vars)
        .find(|&v| !lower.is_independent_of(v) || !upper.is_independent_of(v))
        .expect("non-constant function has a support variable");
    let l0 = lower.cofactor0(var);
    let l1 = lower.cofactor1(var);
    let u0 = upper.cofactor0(var);
    let u1 = upper.cofactor1(var);

    // Cubes that must contain the negative literal of `var`.
    let mut neg_cubes = Vec::new();
    let c0 = isop_rec(&l0.and(&u1.not()), &u0, num_vars, &mut neg_cubes);
    // Cubes that must contain the positive literal of `var`.
    let mut pos_cubes = Vec::new();
    let c1 = isop_rec(&l1.and(&u0.not()), &u1, num_vars, &mut pos_cubes);
    // Remaining minterms, covered without the variable.
    let l2 = l0.and(&c0.not()).or(&l1.and(&c1.not()));
    let mut free_cubes = Vec::new();
    let c2 = isop_rec(&l2, &u0.and(&u1), num_vars, &mut free_cubes);

    for c in neg_cubes {
        out.push(c.with_literal(var, false));
    }
    for c in pos_cubes {
        out.push(c.with_literal(var, true));
    }
    out.extend(free_cubes);

    let x = TruthTable::var(lower.num_vars(), var);
    x.not().and(&c0).or(&x.and(&c1)).or(&c2)
}

/// Verifies that a cube cover implements `function` exactly.
pub fn cover_implements(cubes: &[Cube], function: &TruthTable) -> bool {
    let mut acc = TruthTable::zeros(function.num_vars());
    for c in cubes {
        acc = acc.or(&c.truth_table(function.num_vars()));
    }
    acc == *function
}

/// Counts the literals of a cover (the classical area proxy).
pub fn literal_count(cubes: &[Cube]) -> u32 {
    cubes.iter().map(Cube::literal_count).sum()
}

/// Emits a factored form of the cube cover into `network`, reading variable
/// `i` from `leaves[i]`, and returns the output signal.
///
/// Factoring is algebraic: the most frequent literal is divided out
/// recursively; cube-free covers fall back to a balanced OR of cube ANDs.
pub fn emit_factored(network: &mut Network, cubes: &[Cube], leaves: &[Signal]) -> Signal {
    if cubes.is_empty() {
        return network.constant(false);
    }
    if cubes.iter().any(|c| c.mask == 0) {
        return network.constant(true);
    }
    // Find the most frequent literal (variable, phase).
    let mut best: Option<(usize, bool, usize)> = None;
    for v in 0..leaves.len() {
        for phase in [false, true] {
            let count = cubes
                .iter()
                .filter(|c| c.mask & (1 << v) != 0 && (c.polarity >> v) & 1 == phase as u32)
                .count();
            if count >= 2 && best.is_none_or(|(_, _, n)| count > n) {
                best = Some((v, phase, count));
            }
        }
    }
    match best {
        Some((var, phase, _)) => {
            let lit = leaves[var].xor_complement(!phase);
            let (with, without): (Vec<Cube>, Vec<Cube>) = cubes
                .iter()
                .partition(|c| c.mask & (1 << var) != 0 && (c.polarity >> var) & 1 == phase as u32);
            // Remove the divided literal from the quotient cubes.
            let quotient: Vec<Cube> = with
                .iter()
                .map(|c| Cube {
                    mask: c.mask & !(1 << var),
                    polarity: c.polarity & !(1 << var),
                })
                .collect();
            let q = emit_factored(network, &quotient, leaves);
            let divided = network.and(lit, q);
            if without.is_empty() {
                divided
            } else {
                let rest = emit_factored(network, &without, leaves);
                network.or(divided, rest)
            }
        }
        None => {
            // No sharing: balanced OR of cube ANDs.
            let terms: Vec<Signal> = cubes
                .iter()
                .map(|c| {
                    let lits: Vec<Signal> = (0..leaves.len())
                        .filter(|&v| c.mask & (1 << v) != 0)
                        .map(|v| leaves[v].xor_complement((c.polarity >> v) & 1 == 0))
                        .collect();
                    network.and_reduce(&lits)
                })
                .collect();
            network.or_reduce(&terms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{output_truth_tables, Network, NetworkKind};

    fn random_function(num_vars: usize, seed: u64) -> TruthTable {
        // Small deterministic pseudo-random function generator.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut t = TruthTable::zeros(num_vars);
        for i in 0..t.num_bits() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            t.set_bit(i, state & 1 == 1);
        }
        t
    }

    #[test]
    fn isop_covers_exactly() {
        for vars in 1..=5 {
            for seed in 0..8 {
                let f = random_function(vars, seed);
                let cubes = isop(&f);
                assert!(cover_implements(&cubes, &f), "vars={vars} seed={seed}");
            }
        }
    }

    #[test]
    fn isop_of_constants() {
        assert!(isop(&TruthTable::zeros(3)).is_empty());
        let taut = isop(&TruthTable::ones(3));
        assert_eq!(taut.len(), 1);
        assert_eq!(taut[0].literal_count(), 0);
    }

    #[test]
    fn isop_of_simple_gates_is_minimal() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(isop(&a.and(&b)).len(), 1);
        assert_eq!(isop(&a.or(&b)).len(), 2);
        assert_eq!(isop(&a.xor(&b)).len(), 2);
        assert_eq!(literal_count(&isop(&a.xor(&b))), 4);
    }

    #[test]
    fn factored_emission_preserves_function() {
        for vars in 2..=5 {
            for seed in 0..6 {
                let f = random_function(vars, 100 + seed);
                let cubes = isop(&f);
                let mut n = Network::new(NetworkKind::Aig);
                let leaves = n.add_inputs(vars);
                let out = emit_factored(&mut n, &cubes, &leaves);
                n.add_output(out);
                let tts = output_truth_tables(&n);
                assert_eq!(tts[0], f, "vars={vars} seed={seed}");
            }
        }
    }

    #[test]
    fn factoring_shares_common_literal() {
        // f = a&b | a&c | a&d should factor as a & (b | c | d): 4 gates max.
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let f = a.and(&b).or(&a.and(&c)).or(&a.and(&d));
        let cubes = isop(&f);
        let mut n = Network::new(NetworkKind::Aig);
        let leaves = n.add_inputs(4);
        let out = emit_factored(&mut n, &cubes, &leaves);
        n.add_output(out);
        assert!(n.gate_count() <= 4, "got {} gates", n.gate_count());
        assert_eq!(output_truth_tables(&n)[0], f);
    }

    #[test]
    fn cube_truth_table() {
        let cube = Cube::tautology()
            .with_literal(0, true)
            .with_literal(2, false);
        let t = cube.truth_table(3);
        let a = TruthTable::var(3, 0);
        let c = TruthTable::var(3, 2);
        assert_eq!(t, a.and(&c.not()));
    }
}
