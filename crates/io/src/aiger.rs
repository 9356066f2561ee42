//! ASCII AIGER (`aag`) reading and writing.
//!
//! The ASCII AIGER format is the lingua franca of AIG-based tools (ABC,
//! mockturtle, the EPFL benchmark distribution). Only the combinational
//! subset is supported: latches are rejected.

use mch_logic::{Network, NetworkKind, Signal};
use std::fmt;

/// Error produced while parsing an ASCII AIGER file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseAigerError {
    message: String,
    line: usize,
}

impl ParseAigerError {
    fn new(message: impl Into<String>, line: usize) -> Self {
        ParseAigerError {
            message: message.into(),
            line,
        }
    }

    /// 1-based line number at which parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAigerError {}

/// Parses an ASCII AIGER (`aag`) description into an AIG [`Network`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] for malformed headers, latches (sequential
/// AIGER is not supported), out-of-range literals or truncated files.
pub fn read_aiger(text: &str) -> Result<Network, ParseAigerError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseAigerError::new("empty file", 1))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 6 || fields[0] != "aag" {
        return Err(ParseAigerError::new("header must be 'aag M I L O A'", 1));
    }
    let parse = |s: &str, what: &str, line: usize| -> Result<usize, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::new(format!("invalid {what} '{s}'"), line))
    };
    let max_var = parse(fields[1], "maximum variable index", 1)?;
    let num_inputs = parse(fields[2], "input count", 1)?;
    let num_latches = parse(fields[3], "latch count", 1)?;
    let num_outputs = parse(fields[4], "output count", 1)?;
    let num_ands = parse(fields[5], "AND count", 1)?;
    if num_latches != 0 {
        return Err(ParseAigerError::new(
            "sequential AIGER (latches) is not supported",
            1,
        ));
    }
    // The header counts are untrusted: every declared object occupies at
    // least one byte of body text, so counts beyond the file size are lies —
    // reject them before sizing any allocation after them.
    if max_var > text.len() {
        return Err(ParseAigerError::new(
            format!("maximum variable index {max_var} exceeds the file size"),
            1,
        ));
    }
    if num_inputs.saturating_add(num_ands) > max_var {
        return Err(ParseAigerError::new(
            format!(
                "{num_inputs} inputs + {num_ands} ANDs need more variables than the declared maximum {max_var}"
            ),
            1,
        ));
    }
    if num_outputs > text.len() {
        return Err(ParseAigerError::new(
            format!("output count {num_outputs} exceeds the file size"),
            1,
        ));
    }

    let mut net = Network::new(NetworkKind::Aig);
    // literal -> signal map, indexed by variable.
    let mut map: Vec<Option<Signal>> = vec![None; max_var + 1];
    map[0] = Some(Signal::CONST0);

    let mut input_literals = Vec::with_capacity(num_inputs);
    for _ in 0..num_inputs {
        let (idx, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing input line", 0))?;
        let lit: usize = parse(line.trim(), "input literal", idx + 1)?;
        if !lit.is_multiple_of(2) || lit < 2 || lit / 2 > max_var {
            return Err(ParseAigerError::new("invalid input literal", idx + 1));
        }
        if map[lit / 2].is_some() {
            return Err(ParseAigerError::new(
                format!("variable {} defined twice", lit / 2),
                idx + 1,
            ));
        }
        let s = net.add_input();
        map[lit / 2] = Some(s);
        input_literals.push(lit);
    }

    let mut output_literals = Vec::with_capacity(num_outputs);
    for _ in 0..num_outputs {
        let (idx, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing output line", 0))?;
        let lit: usize = parse(line.trim(), "output literal", idx + 1)?;
        if lit / 2 > max_var {
            return Err(ParseAigerError::new("output literal out of range", idx + 1));
        }
        output_literals.push(lit);
    }

    // AND gates: they may reference later-defined variables only in malformed
    // files (AIGER requires topological order), which we reject.
    for _ in 0..num_ands {
        let (idx, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing AND line", 0))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(ParseAigerError::new(
                "AND line must have three literals",
                idx + 1,
            ));
        }
        let lhs: usize = parse(parts[0], "AND output literal", idx + 1)?;
        let rhs0: usize = parse(parts[1], "AND fanin literal", idx + 1)?;
        let rhs1: usize = parse(parts[2], "AND fanin literal", idx + 1)?;
        if !lhs.is_multiple_of(2) || lhs < 2 || lhs / 2 > max_var {
            return Err(ParseAigerError::new("invalid AND output literal", idx + 1));
        }
        if map[lhs / 2].is_some() {
            return Err(ParseAigerError::new(
                format!("variable {} defined twice", lhs / 2),
                idx + 1,
            ));
        }
        let resolve = |lit: usize, line: usize| -> Result<Signal, ParseAigerError> {
            let var = lit / 2;
            let base = map.get(var).copied().flatten().ok_or_else(|| {
                ParseAigerError::new(format!("literal {lit} used before definition"), line)
            })?;
            Ok(base.xor_complement(lit % 2 == 1))
        };
        let a = resolve(rhs0, idx + 1)?;
        let b = resolve(rhs1, idx + 1)?;
        map[lhs / 2] = Some(net.and2(a, b));
    }

    for (i, lit) in output_literals.into_iter().enumerate() {
        let base = map[lit / 2].ok_or_else(|| {
            ParseAigerError::new(format!("output {i} references undefined literal {lit}"), 0)
        })?;
        net.add_output(base.xor_complement(lit % 2 == 1));
    }
    Ok(net)
}

/// Serialises a network as ASCII AIGER (`aag`).
///
/// Non-AND gates (XOR, MAJ) are decomposed into ANDs on the fly, so any
/// representation can be exported; the output is always a pure AIG.
pub fn write_aiger(network: &Network) -> String {
    // Re-express the network as an AIG first (handles XOR/MAJ nodes).
    let aig = mch_logic::convert(network, NetworkKind::Aig);
    // Assign AIGER variables: inputs first, then gates in topological order.
    let mut var_of: Vec<usize> = vec![0; aig.len()];
    let mut next_var = 1;
    for &pi in aig.inputs() {
        var_of[pi.index()] = next_var;
        next_var += 1;
    }
    for id in aig.gate_ids() {
        var_of[id.index()] = next_var;
        next_var += 1;
    }
    let literal = |s: Signal| -> usize {
        if s.node().is_const() {
            s.is_complement() as usize
        } else {
            var_of[s.node().index()] * 2 + s.is_complement() as usize
        }
    };

    let mut out = String::new();
    out.push_str(&format!(
        "aag {} {} 0 {} {}\n",
        next_var - 1,
        aig.input_count(),
        aig.output_count(),
        aig.gate_count()
    ));
    for &pi in aig.inputs() {
        out.push_str(&format!("{}\n", var_of[pi.index()] * 2));
    }
    for &o in aig.outputs() {
        out.push_str(&format!("{}\n", literal(o)));
    }
    for id in aig.gate_ids() {
        let node = aig.node(id);
        let f = node.fanins();
        out.push_str(&format!(
            "{} {} {}\n",
            var_of[id.index()] * 2,
            literal(f[0]),
            literal(f[1])
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{cec, output_truth_tables};

    #[test]
    fn round_trip_preserves_function() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let x = n.xor(a, b);
        let y = n.and2(x, !c);
        n.add_output(y);
        n.add_output(!x);
        let text = write_aiger(&n);
        let back = read_aiger(&text).unwrap();
        assert_eq!(back.input_count(), 3);
        assert_eq!(back.output_count(), 2);
        assert!(cec(&n, &back).holds());
    }

    #[test]
    fn xmg_networks_are_exported_as_aigs() {
        let mut n = Network::new(NetworkKind::Xmg);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let m = n.maj3(a, b, c);
        n.add_output(m);
        let back = read_aiger(&write_aiger(&n)).unwrap();
        assert!(cec(&n, &back).holds());
        assert_eq!(output_truth_tables(&back)[0].as_u64(), 0xE8);
    }

    #[test]
    fn parses_handwritten_example() {
        // Half adder from the AIGER documentation style.
        let text = "aag 4 2 0 2 1\n2\n4\n6\n7\n6 2 4\n";
        let net = read_aiger(text).unwrap();
        assert_eq!(net.input_count(), 2);
        assert_eq!(net.output_count(), 2);
        let tts = output_truth_tables(&net);
        assert_eq!(tts[0].as_u64(), 0x8); // and
        assert_eq!(tts[1].as_u64(), 0x7); // nand
    }

    #[test]
    fn constants_in_outputs() {
        let mut n = Network::new(NetworkKind::Aig);
        let _ = n.add_input();
        n.add_output(Signal::CONST1);
        let back = read_aiger(&write_aiger(&n)).unwrap();
        assert_eq!(output_truth_tables(&back)[0].count_ones(), 2);
    }

    #[test]
    fn errors_on_malformed_input() {
        assert!(read_aiger("").is_err());
        assert!(read_aiger("aig 1 1 0 1 0\n2\n2\n").is_err());
        assert!(read_aiger("aag 1 1 1 1 0\n2\n0\n2\n").is_err());
        assert!(read_aiger("aag 3 1 0 1 1\n2\n6\n6 2 9999\n").is_err());
        let err = read_aiger("aag 1 2 0 0 0\n2\n").unwrap_err();
        assert!(err.to_string().contains("line"));
    }
}
