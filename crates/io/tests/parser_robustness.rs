//! Seeded malformed-input property test for the mch_io parsers.
//!
//! Valid AIGER/BLIF/Verilog files are generated from random networks, then
//! mutated byte-wise (replacements, truncations, duplications) under a fixed
//! seed. Every mutant must come back as `Ok` or a structured `Err` — a panic
//! in any parser fails the test. The pristine files must round-trip.

use mch_choice::ChoiceNetwork;
use mch_io::{
    read_aiger, read_blif, read_verilog, write_aiger, write_blif, write_lut_blif, write_verilog,
};
use mch_logic::{cec, Network, NetworkKind, Prng, Signal};
use mch_mapper::{map_asic, map_lut, AsicMapParams, LutMapParams, MappingObjective};
use mch_techlib::{asap7_lite, Library, LutLibrary};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A random connected multi-output network with AND/XOR/MAJ structure.
fn random_network(rng: &mut Prng, gates: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Mixed, "fuzz");
    let num_inputs = 3 + rng.gen_range(0..5);
    let inputs = n.add_inputs(num_inputs);
    let mut pool: Vec<Signal> = inputs.clone();
    pool.push(n.constant(false));
    for _ in 0..gates {
        let pick = |rng: &mut Prng, pool: &[Signal]| {
            let s = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.3) {
                !s
            } else {
                s
            }
        };
        let a = pick(rng, &pool);
        let b = pick(rng, &pool);
        let c = pick(rng, &pool);
        let g = match rng.gen_range(0..3) {
            0 => n.and2(a, b),
            1 => n.xor2(a, b),
            _ => n.maj3(a, b, c),
        };
        pool.push(g);
    }
    for _ in 0..3 {
        let o = pool[rng.gen_range(0..pool.len())];
        n.add_output(if rng.gen_bool(0.5) { !o } else { o });
    }
    n
}

/// Applies one seeded mutation to a byte buffer: replace, truncate, insert
/// or duplicate a random span.
fn mutate(rng: &mut Prng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return;
    }
    match rng.gen_range(0..4) {
        0 => {
            // Replace a random byte with a random byte.
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.next_u64() as u8;
        }
        1 => {
            // Truncate at a random point.
            let at = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
        }
        2 => {
            // Insert a random byte (often digits/whitespace to stress the
            // numeric paths).
            let at = rng.gen_range(0..bytes.len() + 1);
            let b = match rng.gen_range(0..3) {
                0 => b'0' + (rng.next_u64() % 10) as u8,
                1 => b' ',
                _ => rng.next_u64() as u8,
            };
            bytes.insert(at, b);
        }
        _ => {
            // Duplicate a random line somewhere else.
            let text = String::from_utf8_lossy(bytes).into_owned();
            let lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let line = lines[rng.gen_range(0..lines.len())].to_string();
                let at = rng.gen_range(0..bytes.len());
                let mut insertion = line.into_bytes();
                insertion.push(b'\n');
                bytes.splice(at..at, insertion);
            }
        }
    }
}

/// Fuzzes one parser: every mutant of `pristine` must parse without
/// panicking. Returns how many mutants still parsed successfully (useful as
/// a sanity signal that the corpus isn't trivially broken).
fn fuzz<T>(seed: u64, pristine: &str, parse: impl Fn(&str) -> Option<T>) -> usize {
    let mut rng = Prng::seed_from_u64(seed);
    let mut survivors = 0;
    for round in 0..200 {
        let mut bytes = pristine.as_bytes().to_vec();
        // Escalating mutation count: early rounds are near-valid (deep
        // parser paths), late rounds are heavily corrupted.
        for _ in 0..=(round / 20) {
            mutate(&mut rng, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&text).is_some()));
        match outcome {
            Ok(parsed) => survivors += usize::from(parsed),
            Err(_) => panic!("parser panicked on mutant (seed {seed}, round {round}):\n{text}"),
        }
    }
    survivors
}

fn corpus(seed: u64) -> (Network, Library) {
    let mut rng = Prng::seed_from_u64(seed);
    (random_network(&mut rng, 40), asap7_lite())
}

#[test]
fn aiger_reader_never_panics_on_mutated_input() {
    for seed in 0..5 {
        let (net, _) = corpus(seed);
        let pristine = write_aiger(&net);
        let back = read_aiger(&pristine).expect("pristine AIGER must parse");
        assert!(cec(&net, &back).holds(), "pristine AIGER must round-trip");
        fuzz(seed ^ 0xA16E5, &pristine, |t| read_aiger(t).ok());
    }
}

#[test]
fn blif_reader_never_panics_on_mutated_input() {
    for seed in 0..5 {
        let (net, _) = corpus(seed);
        let pristine = write_blif(&net);
        let back = read_blif(&pristine).expect("pristine BLIF must parse");
        assert!(cec(&net, &back).holds(), "pristine BLIF must round-trip");
        fuzz(seed ^ 0xB11F, &pristine, |t| read_blif(t).ok());
    }
}

#[test]
fn lut_blif_reader_never_panics_on_mutated_input() {
    let (net, _) = corpus(99);
    let mapped = map_lut(
        &ChoiceNetwork::from_network(&net),
        &LutLibrary::k6(),
        &LutMapParams::new(MappingObjective::Area),
    );
    let pristine = write_lut_blif(&mapped);
    let back = read_blif(&pristine).expect("pristine LUT BLIF must parse");
    assert!(
        cec(&net, &back).holds(),
        "pristine LUT BLIF must round-trip"
    );
    fuzz(0x1B11F, &pristine, |t| read_blif(t).ok());
}

#[test]
fn verilog_reader_never_panics_on_mutated_input() {
    for seed in 0..5 {
        let (net, lib) = corpus(seed);
        let mapped = map_asic(
            &ChoiceNetwork::from_network(&net),
            &lib,
            &AsicMapParams::new(MappingObjective::Balanced),
        );
        let pristine = write_verilog(&mapped, &lib);
        let back = read_verilog(&pristine, &lib).expect("pristine Verilog must parse");
        assert!(
            cec(&net, &back.to_network(&lib)).holds(),
            "pristine Verilog must round-trip"
        );
        fuzz(seed ^ 0x7E71106, &pristine, |t| read_verilog(t, &lib).ok());
    }
}

#[test]
fn header_count_lies_are_rejected_without_allocating() {
    // A 30-byte file claiming 10^15 variables must fail fast on the count
    // check, not attempt a petabyte allocation.
    assert!(read_aiger("aag 1000000000000000 1 0 1 0\n2\n2\n").is_err());
    assert!(read_aiger("aag 4 1000000000000000 0 1 0\n2\n2\n").is_err());
    assert!(read_aiger("aag 4 1 0 1000000000000000 0\n2\n2\n").is_err());
    assert!(read_aiger("aag 4 1 0 1 1000000000000000\n2\n2\n").is_err());
}
