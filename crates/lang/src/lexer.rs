//! Hand-written lexer for the loop-based language.
//!
//! Produces a flat vector of [`Token`]s with line/column [`Span`]s. Supports
//! `//` line comments and `/* ... */` block comments.

use crate::{LangError, Result};

pub use diablo_diag::Span;

/// The kind of a token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// An integer literal.
    Long(i64),
    /// The integer literal 2^63, one past `i64::MAX`: only a unary minus
    /// in front of it makes a `long` (`i64::MIN`); anywhere else it is too
    /// large.
    MinLongMagnitude,
    /// A floating-point literal.
    Double(f64),
    /// A string literal (unescaped contents).
    Str(String),
    /// `:=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `*=`
    StarAssign,
    /// `^=`
    CaretAssign,
    /// `&&=`
    AndAssign,
    /// `||=`
    OrAssign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<=`
    LessEq,
    /// `>=`
    GreaterEq,
    /// `<`
    Less,
    /// `>`
    Greater,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `<|`
    RecOpen,
    /// `|>`
    RecClose,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// End of input.
    Eof,
}

/// The error of an integer literal a `long` cannot hold — what the parser
/// says of a [`TokenKind::MinLongMagnitude`] no unary minus negates.
pub(crate) fn too_large(span: Span) -> LangError {
    let e = "9223372036854775808".parse::<i64>().unwrap_err();
    LangError::new(format!("bad integer literal: {e}"), span)
}

impl TokenKind {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Long(n) => format!("`{n}`"),
            TokenKind::MinLongMagnitude => format!("`{}`", i64::MIN.unsigned_abs()),
            TokenKind::Double(x) => format!("`{x}`"),
            TokenKind::Str(s) => format!("{s:?}"),
            TokenKind::Eof => "end of input".to_string(),
            k => format!("`{}`", k.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::Assign => ":=",
            TokenKind::PlusAssign => "+=",
            TokenKind::StarAssign => "*=",
            TokenKind::CaretAssign => "^=",
            TokenKind::AndAssign => "&&=",
            TokenKind::OrAssign => "||=",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::LessEq => "<=",
            TokenKind::GreaterEq => ">=",
            TokenKind::Less => "<",
            TokenKind::Greater => ">",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Bang => "!",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Caret => "^",
            TokenKind::RecOpen => "<|",
            TokenKind::RecClose => "|>",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Colon => ":",
            TokenKind::Dot => ".",
            TokenKind::Eq => "=",
            _ => "?",
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token it is.
    pub kind: TokenKind,
    /// Where it starts.
    pub span: Span,
}

/// The lexer. Construct with [`Lexer::new`] and call [`Lexer::tokenize`].
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over the source text.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(LangError::new("unterminated block comment", start))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self) -> Result<Token> {
        let span = self.span();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_double = false;
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_double = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save = (self.pos, self.line, self.col);
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_double = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                (self.pos, self.line, self.col) = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| LangError::new("invalid UTF-8 in number", span))?;
        let kind = if is_double {
            TokenKind::Double(
                text.parse::<f64>()
                    .map_err(|e| LangError::new(format!("bad float literal: {e}"), span))?,
            )
        } else {
            match text.parse::<i64>() {
                Ok(n) => TokenKind::Long(n),
                Err(_) if text.parse::<u64>() == Ok(i64::MIN.unsigned_abs()) => {
                    TokenKind::MinLongMagnitude
                }
                Err(e) => return Err(LangError::new(format!("bad integer literal: {e}"), span)),
            }
        };
        Ok(Token { kind, span })
    }

    fn lex_ident(&mut self) -> Token {
        let span = self.span();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'')
        {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii ident");
        Token {
            kind: TokenKind::Ident(text.to_string()),
            span,
        }
    }

    fn lex_string(&mut self) -> Result<Token> {
        let span = self.span();
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    other => {
                        return Err(LangError::new(
                            format!(
                                "bad escape sequence `\\{}`",
                                other.map(char::from).unwrap_or(' ')
                            ),
                            span,
                        ))
                    }
                },
                Some(c) => out.push(char::from(c)),
                None => return Err(LangError::new("unterminated string literal", span)),
            }
        }
        Ok(Token {
            kind: TokenKind::Str(out),
            span,
        })
    }

    /// Tokenizes the whole input, appending an [`TokenKind::Eof`] token.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span,
                });
                return Ok(tokens);
            };
            let tok = match c {
                b'0'..=b'9' => self.lex_number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
                b'"' => self.lex_string()?,
                _ => {
                    // Operators and punctuation; longest match first.
                    let two = [c, self.peek2().unwrap_or(0)];
                    let three = [
                        c,
                        self.peek2().unwrap_or(0),
                        self.src.get(self.pos + 2).copied().unwrap_or(0),
                    ];
                    let (kind, len) = match &three {
                        b"&&=" => (TokenKind::AndAssign, 3),
                        b"||=" => (TokenKind::OrAssign, 3),
                        _ => match &two {
                            b":=" => (TokenKind::Assign, 2),
                            b"+=" => (TokenKind::PlusAssign, 2),
                            b"*=" => (TokenKind::StarAssign, 2),
                            b"^=" => (TokenKind::CaretAssign, 2),
                            b"==" => (TokenKind::EqEq, 2),
                            b"!=" => (TokenKind::NotEq, 2),
                            b"<=" => (TokenKind::LessEq, 2),
                            b">=" => (TokenKind::GreaterEq, 2),
                            b"&&" => (TokenKind::AndAnd, 2),
                            b"||" => (TokenKind::OrOr, 2),
                            b"<|" => (TokenKind::RecOpen, 2),
                            b"|>" => (TokenKind::RecClose, 2),
                            _ => match c {
                                b'<' => (TokenKind::Less, 1),
                                b'>' => (TokenKind::Greater, 1),
                                b'!' => (TokenKind::Bang, 1),
                                b'+' => (TokenKind::Plus, 1),
                                b'-' => (TokenKind::Minus, 1),
                                b'*' => (TokenKind::Star, 1),
                                b'/' => (TokenKind::Slash, 1),
                                b'%' => (TokenKind::Percent, 1),
                                b'^' => (TokenKind::Caret, 1),
                                b'(' => (TokenKind::LParen, 1),
                                b')' => (TokenKind::RParen, 1),
                                b'[' => (TokenKind::LBracket, 1),
                                b']' => (TokenKind::RBracket, 1),
                                b'{' => (TokenKind::LBrace, 1),
                                b'}' => (TokenKind::RBrace, 1),
                                b',' => (TokenKind::Comma, 1),
                                b';' => (TokenKind::Semi, 1),
                                b':' => (TokenKind::Colon, 1),
                                b'.' => (TokenKind::Dot, 1),
                                b'=' => (TokenKind::Eq, 1),
                                other => {
                                    return Err(LangError::new(
                                        format!("unexpected character `{}`", char::from(other)),
                                        span,
                                    ))
                                }
                            },
                        },
                    };
                    for _ in 0..len {
                        self.bump();
                    }
                    Token { kind, span }
                }
            };
            tokens.push(tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_assignment_operators() {
        assert_eq!(
            kinds("x := 1; y += 2; z *= 3; w ^= 4; b &&= c; d ||= e;"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Long(1),
                TokenKind::Semi,
                TokenKind::Ident("y".into()),
                TokenKind::PlusAssign,
                TokenKind::Long(2),
                TokenKind::Semi,
                TokenKind::Ident("z".into()),
                TokenKind::StarAssign,
                TokenKind::Long(3),
                TokenKind::Semi,
                TokenKind::Ident("w".into()),
                TokenKind::CaretAssign,
                TokenKind::Long(4),
                TokenKind::Semi,
                TokenKind::Ident("b".into()),
                TokenKind::AndAssign,
                TokenKind::Ident("c".into()),
                TokenKind::Semi,
                TokenKind::Ident("d".into()),
                TokenKind::OrAssign,
                TokenKind::Ident("e".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("0 42 3.5 0.002 1e3 2.5e-2"),
            vec![
                TokenKind::Long(0),
                TokenKind::Long(42),
                TokenKind::Double(3.5),
                TokenKind::Double(0.002),
                TokenKind::Double(1000.0),
                TokenKind::Double(0.025),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dot_after_number_is_projection_when_not_digit() {
        // `A[i].K`-style projections must not swallow the dot.
        assert_eq!(
            kinds("1.K"),
            vec![
                TokenKind::Long(1),
                TokenKind::Dot,
                TokenKind::Ident("K".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn record_brackets_and_comparison() {
        assert_eq!(
            kinds("<| x = 1 |> a < b"),
            vec![
                TokenKind::RecOpen,
                TokenKind::Ident("x".into()),
                TokenKind::Eq,
                TokenKind::Long(1),
                TokenKind::RecClose,
                TokenKind::Ident("a".into()),
                TokenKind::Less,
                TokenKind::Ident("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn single_pipe_is_an_error() {
        assert!(Lexer::new("a | b").tokenize().is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment\n b /* multi\n line */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(Lexer::new("/* nope").tokenize().is_err());
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""key1" "a\nb""#),
            vec![
                TokenKind::Str("key1".into()),
                TokenKind::Str("a\nb".into()),
                TokenKind::Eof
            ]
        );
        assert!(Lexer::new("\"open").tokenize().is_err());
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!((toks[0].span.line, toks[0].span.col), (1, 1));
        assert_eq!((toks[1].span.line, toks[1].span.col), (2, 3));
    }

    #[test]
    fn primed_identifiers_allowed() {
        // The matrix-factorization program of §3.2 uses P' and Q'.
        assert_eq!(
            kinds("P' Q'"),
            vec![
                TokenKind::Ident("P'".into()),
                TokenKind::Ident("Q'".into()),
                TokenKind::Eof
            ]
        );
    }
}
