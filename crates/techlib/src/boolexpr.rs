//! A small Boolean expression parser used by the genlib reader.
//!
//! Grammar (usual precedence, `!` strongest, then `&`, `^`, `|`):
//!
//! ```text
//! expr   := xorexp ('|' xorexp)*
//! xorexp := andexp ('^' andexp)*
//! andexp := unary ('&' unary)*
//! unary  := '!' unary | '(' expr ')' | var | '0' | '1'
//! var    := 'a'..'h'   (input index 0..7)
//! ```

use mch_logic::TruthTable;
use std::fmt;

/// Error produced when a Boolean expression cannot be parsed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseExprError {
    message: String,
    position: usize,
}

impl ParseExprError {
    fn new(message: impl Into<String>, position: usize) -> Self {
        ParseExprError {
            message: message.into(),
            position,
        }
    }

    /// Byte offset in the input at which parsing failed.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at position {}", self.message, self.position)
    }
}

impl std::error::Error for ParseExprError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    num_vars: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, num_vars: usize) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            num_vars,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn expr(&mut self) -> Result<TruthTable, ParseExprError> {
        let mut acc = self.xorexp()?;
        while self.peek() == Some(b'|') || self.peek() == Some(b'+') {
            self.bump();
            let rhs = self.xorexp()?;
            acc = acc.or(&rhs);
        }
        Ok(acc)
    }

    fn xorexp(&mut self) -> Result<TruthTable, ParseExprError> {
        let mut acc = self.andexp()?;
        while self.peek() == Some(b'^') {
            self.bump();
            let rhs = self.andexp()?;
            acc = acc.xor(&rhs);
        }
        Ok(acc)
    }

    fn andexp(&mut self) -> Result<TruthTable, ParseExprError> {
        let mut acc = self.unary()?;
        loop {
            match self.peek() {
                Some(b'&') | Some(b'*') => {
                    self.bump();
                    let rhs = self.unary()?;
                    acc = acc.and(&rhs);
                }
                // Juxtaposition (e.g. "ab") also means AND, as in genlib SOPs.
                Some(c) if c.is_ascii_lowercase() || c == b'(' || c == b'!' => {
                    let rhs = self.unary()?;
                    acc = acc.and(&rhs);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn unary(&mut self) -> Result<TruthTable, ParseExprError> {
        match self.peek() {
            Some(b'!') => {
                self.bump();
                Ok(self.unary()?.not())
            }
            Some(b'(') => {
                self.bump();
                let inner = self.expr()?;
                if self.bump() != Some(b')') {
                    return Err(ParseExprError::new("expected ')'", self.pos));
                }
                Ok(inner)
            }
            Some(b'0') => {
                self.bump();
                Ok(TruthTable::zeros(self.num_vars))
            }
            Some(b'1') => {
                self.bump();
                Ok(TruthTable::ones(self.num_vars))
            }
            Some(c) if c.is_ascii_lowercase() => {
                self.bump();
                let var = (c - b'a') as usize;
                if var >= self.num_vars {
                    return Err(ParseExprError::new(
                        format!("variable '{}' exceeds the declared input count", c as char),
                        self.pos,
                    ));
                }
                Ok(TruthTable::var(self.num_vars, var))
            }
            Some(c) => Err(ParseExprError::new(
                format!("unexpected character '{}'", c as char),
                self.pos,
            )),
            None => Err(ParseExprError::new(
                "unexpected end of expression",
                self.pos,
            )),
        }
    }
}

/// Parses a Boolean expression over variables `a..` into a truth table with
/// `num_vars` inputs.
///
/// # Errors
///
/// Returns [`ParseExprError`] on malformed input or when a variable exceeds
/// the declared input count.
///
/// # Example
///
/// ```
/// use mch_techlib::parse_expression;
///
/// let aoi21 = parse_expression("!((a & b) | c)", 3)?;
/// assert_eq!(aoi21.count_ones(), 3);
/// # Ok::<(), mch_techlib::ParseExprError>(())
/// ```
pub fn parse_expression(input: &str, num_vars: usize) -> Result<TruthTable, ParseExprError> {
    let mut p = Parser::new(input, num_vars);
    let t = p.expr()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseExprError::new("trailing input", p.pos));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_operators() {
        let and = parse_expression("a & b", 2).unwrap();
        assert_eq!(and.as_u64(), 0x8);
        let or = parse_expression("a | b", 2).unwrap();
        assert_eq!(or.as_u64(), 0xE);
        let xor = parse_expression("a ^ b", 2).unwrap();
        assert_eq!(xor.as_u64(), 0x6);
        let not = parse_expression("!a", 1).unwrap();
        assert_eq!(not.as_u64(), 0x1);
    }

    #[test]
    fn precedence_and_parentheses() {
        let f = parse_expression("a | b & c", 3).unwrap();
        let g = parse_expression("a | (b & c)", 3).unwrap();
        assert_eq!(f, g);
        let h = parse_expression("(a | b) & c", 3).unwrap();
        assert_ne!(f, h);
    }

    #[test]
    fn juxtaposition_is_and() {
        let f = parse_expression("ab | !c", 3).unwrap();
        let g = parse_expression("(a & b) | !c", 3).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn constants() {
        assert!(parse_expression("0", 2).unwrap().is_const0());
        assert!(parse_expression("1", 2).unwrap().is_const1());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_expression("a &", 2).is_err());
        assert!(parse_expression("a @ b", 2).is_err());
        assert!(parse_expression("(a", 2).is_err());
        assert!(parse_expression("c", 2).is_err());
        assert!(parse_expression("a b)", 2).is_err());
    }
}
