//! Disjoint-support decomposition (DSD) and Shannon decomposition.
//!
//! These are the *level-oriented* synthesis strategies of the multi-strategy
//! structural choice algorithm (Algorithm 2, lines 2–6): critical-path nodes
//! are re-expressed with top decompositions that expose balanced, shallow
//! structures (XOR tops, MUX tops) rather than area-minimal ones.

use mch_logic::{Network, Signal, TruthTable};

/// A decomposition step discovered at the top of a function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decomposition {
    /// The function is constant.
    Constant(bool),
    /// The function is a (possibly complemented) single variable.
    Literal {
        /// Variable index.
        var: usize,
        /// Whether the literal is complemented.
        complement: bool,
    },
    /// `f = g AND h` with disjoint supports after splitting on `var`:
    /// `f = x^phase & cofactor` (simple top-AND extraction).
    TopAnd {
        /// Variable extracted.
        var: usize,
        /// Phase of the extracted literal.
        positive: bool,
        /// The remaining function (a cofactor).
        rest: TruthTable,
    },
    /// `f = x^phase OR cofactor`.
    TopOr {
        /// Variable extracted.
        var: usize,
        /// Phase of the extracted literal.
        positive: bool,
        /// The remaining function (a cofactor).
        rest: TruthTable,
    },
    /// `f = x XOR cofactor` (the variable appears linearly).
    TopXor {
        /// Variable extracted.
        var: usize,
        /// The remaining function (a cofactor).
        rest: TruthTable,
    },
    /// `f = maj(x, g, h)` where `g`/`h` are the two cofactors and the function
    /// is its own majority closure (used to seed MIG/XMG-style candidates).
    TopMaj {
        /// Variable extracted.
        var: usize,
        /// Cofactor with `var = 0`.
        low: TruthTable,
        /// Cofactor with `var = 1`.
        high: TruthTable,
    },
    /// Shannon expansion around `var`: `f = ite(x, high, low)`.
    Shannon {
        /// Splitting variable.
        var: usize,
        /// Cofactor with `var = 0`.
        low: TruthTable,
        /// Cofactor with `var = 1`.
        high: TruthTable,
    },
}

/// Finds the best top decomposition of `function`.
///
/// Preference order: constants and literals, top-XOR, top-AND/OR, majority,
/// then Shannon expansion on the most balanced variable.
pub fn decompose(function: &TruthTable) -> Decomposition {
    let n = function.num_vars();
    if function.is_const0() {
        return Decomposition::Constant(false);
    }
    if function.is_const1() {
        return Decomposition::Constant(true);
    }
    let support = function.support();
    if support.len() == 1 {
        let v = support[0];
        let complement = function.cofactor1(v).is_const0();
        return Decomposition::Literal { var: v, complement };
    }
    // Top XOR: f ^ x is independent of x.
    for &v in &support {
        let x = TruthTable::var(n, v);
        let rest = function.xor(&x);
        if rest.is_independent_of(v) {
            return Decomposition::TopXor { var: v, rest };
        }
    }
    // Top AND / OR: one cofactor constant.
    for &v in &support {
        let c0 = function.cofactor0(v);
        let c1 = function.cofactor1(v);
        if c0.is_const0() {
            return Decomposition::TopAnd {
                var: v,
                positive: true,
                rest: c1,
            };
        }
        if c1.is_const0() {
            return Decomposition::TopAnd {
                var: v,
                positive: false,
                rest: c0,
            };
        }
        if c0.is_const1() {
            return Decomposition::TopOr {
                var: v,
                positive: false,
                rest: c1,
            };
        }
        if c1.is_const1() {
            return Decomposition::TopOr {
                var: v,
                positive: true,
                rest: c0,
            };
        }
    }
    // Majority top: f == maj(x, c0, c1) iff f = x&(c0|c1) | c0&c1 ... which is
    // exactly the Shannon form rewritten; it is an *equality* only when
    // c0 & !c1 never matters, i.e. maj(x,c1,c0) == ite(x,c1,c0). Check directly.
    for &v in &support {
        let c0 = function.cofactor0(v);
        let c1 = function.cofactor1(v);
        let x = TruthTable::var(n, v);
        if TruthTable::maj(&x, &c1, &c0) == *function && c0 != c1 {
            return Decomposition::TopMaj {
                var: v,
                low: c0,
                high: c1,
            };
        }
    }
    // Shannon on the most "balanced" variable: minimise the larger cofactor
    // support, breaking ties toward smaller total support.
    let best = support
        .iter()
        .copied()
        .min_by_key(|&v| {
            let s0 = function.cofactor0(v).support().len();
            let s1 = function.cofactor1(v).support().len();
            (s0.max(s1), s0 + s1)
        })
        .expect("support is non-empty");
    Decomposition::Shannon {
        var: best,
        low: function.cofactor0(best),
        high: function.cofactor1(best),
    }
}

/// Recursively emits `function` into `network` using top decompositions,
/// reading variable `i` from `leaves[i]`. Returns the output signal.
///
/// The resulting structure favours shallow tops (XOR, MUX) and is therefore a
/// good *level-oriented* candidate.
pub fn emit_decomposed(network: &mut Network, function: &TruthTable, leaves: &[Signal]) -> Signal {
    match decompose(function) {
        Decomposition::Constant(v) => network.constant(v),
        Decomposition::Literal { var, complement } => leaves[var].xor_complement(complement),
        Decomposition::TopAnd {
            var,
            positive,
            rest,
        } => {
            let lit = leaves[var].xor_complement(!positive);
            let r = emit_decomposed(network, &rest, leaves);
            network.and(lit, r)
        }
        Decomposition::TopOr {
            var,
            positive,
            rest,
        } => {
            let lit = leaves[var].xor_complement(!positive);
            let r = emit_decomposed(network, &rest, leaves);
            network.or(lit, r)
        }
        Decomposition::TopXor { var, rest } => {
            let r = emit_decomposed(network, &rest, leaves);
            network.xor(leaves[var], r)
        }
        Decomposition::TopMaj { var, low, high } => {
            let l = emit_decomposed(network, &low, leaves);
            let h = emit_decomposed(network, &high, leaves);
            network.maj(leaves[var], h, l)
        }
        Decomposition::Shannon { var, low, high } => {
            let l = emit_decomposed(network, &low, leaves);
            let h = emit_decomposed(network, &high, leaves);
            network.mux(leaves[var], h, l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{output_truth_tables, Network, NetworkKind};

    fn check_roundtrip(f: &TruthTable, kind: NetworkKind) {
        let mut n = Network::new(kind);
        let leaves = n.add_inputs(f.num_vars());
        let out = emit_decomposed(&mut n, f, &leaves);
        n.add_output(out);
        assert_eq!(&output_truth_tables(&n)[0], f);
    }

    #[test]
    fn detects_top_xor() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = a.xor(&b.and(&c));
        assert!(matches!(
            decompose(&f),
            Decomposition::TopXor { var: 0, .. }
        ));
    }

    #[test]
    fn detects_top_and_or() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = a.and(&b.or(&c));
        assert!(matches!(decompose(&f), Decomposition::TopAnd { .. }));
        let g = a.or(&b.and(&c));
        assert!(matches!(decompose(&g), Decomposition::TopOr { .. }));
    }

    #[test]
    fn detects_majority() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = TruthTable::maj(&a, &b, &c);
        let d = decompose(&f);
        assert!(
            matches!(d, Decomposition::TopMaj { .. }),
            "majority should be recognised, got {d:?}"
        );
    }

    #[test]
    fn literal_and_constant_cases() {
        assert!(matches!(
            decompose(&TruthTable::zeros(2)),
            Decomposition::Constant(false)
        ));
        assert!(matches!(
            decompose(&TruthTable::var(3, 1).not()),
            Decomposition::Literal {
                var: 1,
                complement: true
            }
        ));
    }

    #[test]
    fn emission_round_trips_for_every_kind() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let funcs = [
            a.and(&b).or(&c.and(&d)),
            a.xor(&b).xor(&c.and(&d)),
            TruthTable::maj(&a, &b, &c).and(&d),
            TruthTable::ite(&a, &b.xor(&c), &d.or(&b)),
        ];
        for f in &funcs {
            for kind in NetworkKind::homogeneous() {
                check_roundtrip(f, kind);
            }
            check_roundtrip(f, NetworkKind::Mixed);
        }
    }

    #[test]
    fn exhaustive_three_variable_roundtrip() {
        for bits in 0..256u64 {
            let f = TruthTable::from_u64(3, bits);
            check_roundtrip(&f, NetworkKind::Aig);
            check_roundtrip(&f, NetworkKind::Xmg);
        }
    }
}
