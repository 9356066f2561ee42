//! A small genlib-style text format for describing cell libraries.
//!
//! Each non-empty, non-comment line describes one cell:
//!
//! ```text
//! GATE <name> <area> <delay> <inputs> <expression>
//! ```
//!
//! where `<inputs>` is the number of input pins and `<expression>` a Boolean
//! expression over `a`, `b`, `c`, … (see [`crate::parse_expression`]).
//! Lines starting with `#` are comments.

use crate::{parse_expression, Cell, Library, ParseExprError};
use std::fmt;

/// Error produced while parsing a genlib description.
#[derive(Clone, PartialEq, Debug)]
pub enum ParseGenlibError {
    /// A line did not have the expected `GATE name area delay inputs expr` shape.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        reason: String,
    },
    /// A cell expression failed to parse.
    BadExpression {
        /// 1-based line number.
        line: usize,
        /// The underlying expression error.
        source: ParseExprError,
    },
}

impl fmt::Display for ParseGenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGenlibError::MalformedLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseGenlibError::BadExpression { line, source } => {
                write!(f, "line {line}: invalid expression: {source}")
            }
        }
    }
}

impl std::error::Error for ParseGenlibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseGenlibError::BadExpression { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses a genlib-style description into a [`Library`].
///
/// # Errors
///
/// Returns [`ParseGenlibError`] when a line is malformed or an expression is
/// invalid.
///
/// # Example
///
/// ```
/// use mch_techlib::parse_genlib;
///
/// let text = "GATE INV   0.05 10  1  !a\nGATE NAND2 0.08 15  2  !(a & b)\n";
/// let lib = parse_genlib("tiny", text)?;
/// assert_eq!(lib.len(), 2);
/// # Ok::<(), mch_techlib::ParseGenlibError>(())
/// ```
pub fn parse_genlib(name: &str, text: &str) -> Result<Library, ParseGenlibError> {
    let mut lib = Library::new(name);
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or_default();
        if keyword != "GATE" {
            return Err(ParseGenlibError::MalformedLine {
                line: line_no,
                reason: format!("expected 'GATE', found '{keyword}'"),
            });
        }
        let cell_name = parts
            .next()
            .ok_or_else(|| ParseGenlibError::MalformedLine {
                line: line_no,
                reason: "missing cell name".into(),
            })?;
        let area: f64 = parse_number(parts.next(), "area", line_no)?;
        let delay: f64 = parse_number(parts.next(), "delay", line_no)?;
        let inputs: usize = parse_number::<usize>(parts.next(), "input count", line_no)?;
        let expr: String = parts.collect::<Vec<_>>().join(" ");
        if expr.is_empty() {
            return Err(ParseGenlibError::MalformedLine {
                line: line_no,
                reason: "missing expression".into(),
            });
        }
        let function =
            parse_expression(&expr, inputs).map_err(|source| ParseGenlibError::BadExpression {
                line: line_no,
                source,
            })?;
        lib.add_cell(Cell::new(cell_name, function, area, delay));
    }
    Ok(lib)
}

fn parse_number<T: std::str::FromStr>(
    token: Option<&str>,
    what: &str,
    line: usize,
) -> Result<T, ParseGenlibError> {
    let token = token.ok_or_else(|| ParseGenlibError::MalformedLine {
        line,
        reason: format!("missing {what}"),
    })?;
    token.parse().map_err(|_| ParseGenlibError::MalformedLine {
        line,
        reason: format!("invalid {what} '{token}'"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::TruthTable;

    #[test]
    fn parses_small_library() {
        let text = "\n# comment\nGATE INV 0.05 10 1 !a\nGATE AOI21 0.11 20 3 !((a&b)|c)\n";
        let lib = parse_genlib("t", text).unwrap();
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.cell(lib.inverter()).name(), "INV");
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        assert!(!lib.matches(&a.and(&b).or(&c).not()).is_empty());
    }

    #[test]
    fn reports_malformed_lines() {
        assert!(matches!(
            parse_genlib("t", "CELL INV 0.05 10 1 !a"),
            Err(ParseGenlibError::MalformedLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_genlib("t", "GATE INV x 10 1 !a"),
            Err(ParseGenlibError::MalformedLine { .. })
        ));
        assert!(matches!(
            parse_genlib("t", "GATE INV 0.05 10 1"),
            Err(ParseGenlibError::MalformedLine { .. })
        ));
    }

    #[test]
    fn reports_bad_expressions() {
        let err = parse_genlib("t", "GATE BAD 0.05 10 2 a &").unwrap_err();
        assert!(matches!(
            err,
            ParseGenlibError::BadExpression { line: 1, .. }
        ));
        assert!(err.to_string().contains("line 1"));
    }
}
