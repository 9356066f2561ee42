//! Seeded random control-logic generator.
//!
//! Several EPFL "random/control" benchmarks (cavlc, ctrl, i2c, mem_ctrl,
//! router) are flattened controller cones without a crisp arithmetic
//! structure. They are modelled here by a deterministic, seeded generator
//! that produces layered random logic with prescribed input/output/gate
//! counts, which exercises the mappers the same way: irregular cones, mixed
//! polarities and wide fanin distributions.

use mch_logic::{Network, NetworkKind, Prng, Signal};

/// Generates a random layered control-logic network.
///
/// The generator grows a pool of signals starting from the primary inputs;
/// each new gate picks two (or three) distinct pool signals, random
/// polarities and a random operator. Outputs are drawn from the deepest
/// signals so that every output cone is non-trivial. The construction is
/// fully deterministic in `seed`.
///
/// # Panics
///
/// Panics if `inputs` is zero or `outputs` is zero.
pub fn random_logic(name: &str, inputs: usize, outputs: usize, gates: usize, seed: u64) -> Network {
    assert!(inputs > 0, "at least one input required");
    assert!(outputs > 0, "at least one output required");
    let mut rng = Prng::seed_from_u64(seed);
    let mut net = Network::with_name(NetworkKind::Aig, name.to_string());
    let mut pool: Vec<Signal> = net.add_inputs(inputs);
    let target = inputs + gates;
    while net.len() < target + 1 {
        // Bias fanin selection towards recently created signals so that most
        // of the logic ends up in the transitive fan-in of the outputs (which
        // are drawn from the tail of the pool).
        let pick = |rng: &mut Prng, pool: &Vec<Signal>| -> Signal {
            if rng.gen_bool(0.6) && pool.len() > 8 {
                let window = pool.len().min(24);
                pool[pool.len() - 1 - rng.gen_range(0..window)]
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        };
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        let a = a.xor_complement(rng.gen_bool(0.3));
        let b = b.xor_complement(rng.gen_bool(0.3));
        let s = match rng.gen_range(0..6) {
            0 | 1 => net.and(a, b),
            2 | 3 => net.or(a, b),
            4 => net.xor(a, b),
            _ => {
                let c = pool[rng.gen_range(0..pool.len())];
                net.maj(a, b, c)
            }
        };
        if !s.is_const() {
            pool.push(s);
        }
    }
    // Outputs: prefer late (deep) pool entries, fall back to earlier ones.
    let mut chosen = Vec::new();
    let start = pool.len().saturating_sub(outputs * 3);
    for i in 0..outputs {
        let idx = if start + i < pool.len() {
            rng.gen_range(start..pool.len())
        } else {
            rng.gen_range(0..pool.len())
        };
        chosen.push(pool[idx].xor_complement(rng.gen_bool(0.2)));
    }
    for s in chosen {
        net.add_output(s);
    }
    net.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::cec;

    #[test]
    fn generation_is_deterministic() {
        let a = random_logic("x", 12, 8, 200, 42);
        let b = random_logic("x", 12, 8, 200, 42);
        assert_eq!(a.gate_count(), b.gate_count());
        assert!(cec(&a, &b).holds());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_logic("x", 12, 8, 200, 1);
        let b = random_logic("x", 12, 8, 200, 2);
        // Interfaces match but structures should differ.
        assert!(a.gate_count() != b.gate_count() || !cec(&a, &b).holds());
    }

    #[test]
    fn respects_interface_counts() {
        let n = random_logic("y", 20, 10, 500, 7);
        assert_eq!(n.input_count(), 20);
        assert_eq!(n.output_count(), 10);
        assert!(
            n.gate_count() > 100,
            "cleanup should keep most of the logic"
        );
        assert!(n.depth() > 3);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_rejected() {
        let _ = random_logic("bad", 0, 1, 10, 0);
    }
}
