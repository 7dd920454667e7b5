//! Recursive-descent parser for the loop-based language.
//!
//! Besides building the AST, the parser performs one desugaring required by
//! the paper's classification of updates (§3.5): a plain assignment
//! `d := d ⊕ e` (or `d := e ⊕ d`) for a *commutative* `⊕` is recognized as
//! the incremental update `d ⊕= e`. This is how programs written in the
//! style of Appendix B (e.g. `eq := eq && v == x`) are admitted.
//!
//! The parser also bounds how deep a program nests ([`MAX_NESTING`]):
//! every later pass walks the tree recursively, so hostile input — a
//! thousand nested parentheses, a chain of ten thousand `+` terms — is a
//! D001 diagnostic here instead of a stack overflow there.

use diablo_diag::{codes, Diagnostics};
use diablo_runtime::{BinOp, Func, UnOp};

use crate::ast::{Const, DeclInit, Expr, Lhs, Program, Stmt};
use crate::lexer::{Lexer, Span, Token, TokenKind};
use crate::types::Type;
use crate::{LangError, Result};

/// How deep a program may nest: each parenthesis (of a group, tuple or
/// call), index bracket, record brace, unary operator, binary operator of
/// a chain (`1 + 1 + …` is as deep as it is long), statement block and
/// loop or conditional body is one level. The programs of the paper's
/// corpus nest at most 12 levels; at this bound the deepest accepted
/// program of each shape still compiles, runs and interprets on a thread
/// with a 2 MiB stack in a debug build (`tests/hostile_nesting.rs`).
pub const MAX_NESTING: usize = 64;

/// Parses a whole program.
pub fn parse(src: &str) -> Result<Program> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::new(tokens);
    p.program()
}

/// Parses a whole program, accumulating *every* syntax error into `diags`
/// instead of stopping at the first.
///
/// After an error the parser resynchronizes at the next top-level `;` and
/// keeps going, so one run reports all independent faults. Returns `None`
/// when any error was emitted — the partial AST is not suitable for later
/// passes.
pub fn parse_multi(src: &str, diags: &mut Diagnostics) -> Option<Program> {
    let tokens = match Lexer::new(src).tokenize() {
        Ok(tokens) => tokens,
        Err(e) => {
            diags.emit(e.into_diagnostic(codes::SYNTAX));
            return None;
        }
    };
    let mut p = Parser::new(tokens);
    let before = diags.error_count();
    let program = p.program_recovering(diags);
    (diags.error_count() == before).then_some(program)
}

/// Parses a single expression (used by tests and the REPL-style examples).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The nesting levels open at `pos` (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Opens one more nesting level — right after the token that opens
    /// it, where the error points — or fails past [`MAX_NESTING`].
    fn enter(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(LangError::new(
                format!(
                    "program nests deeper than {MAX_NESTING} levels \
                     (parentheses, operator chains and blocks)"
                ),
                self.tokens[self.pos.saturating_sub(1)].span,
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Closes `levels` nesting levels opened by [`Parser::enter`].
    fn leave(&mut self, levels: usize) {
        self.depth -= levels;
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.enter()?;
        let out = f(self);
        self.leave(1);
        out
    }
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if self.peek_kind() == kind {
            Ok(self.bump())
        } else {
            Err(LangError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
                self.span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(LangError::new(
                format!("expected an identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(s) if s == name)
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, name: &str) -> Result<()> {
        if self.eat_ident(name) {
            Ok(())
        } else {
            Err(LangError::new(
                format!("expected `{name}`, found {}", self.peek_kind().describe()),
                self.span(),
            ))
        }
    }

    // ---------------------------------------------------------- program

    fn program(&mut self) -> Result<Program> {
        let mut inputs = Vec::new();
        while self.at_ident("input") {
            inputs.push(self.input_decl()?);
        }
        let mut body = Vec::new();
        while self.peek_kind() != &TokenKind::Eof {
            if self.eat(&TokenKind::Semi) {
                continue; // tolerate stray semicolons
            }
            body.push(self.stmt()?);
        }
        Ok(Program { inputs, body })
    }

    fn input_decl(&mut self) -> Result<(String, Type)> {
        self.expect_ident("input")?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.ty()?;
        self.expect(&TokenKind::Semi)?;
        Ok((name, ty))
    }

    /// Like [`Parser::program`] but emits every error into `diags` and
    /// resynchronizes after each one instead of bailing out.
    fn program_recovering(&mut self, diags: &mut Diagnostics) -> Program {
        let mut inputs = Vec::new();
        while self.at_ident("input") {
            let start = self.pos;
            match self.input_decl() {
                Ok(input) => inputs.push(input),
                Err(e) => {
                    diags.emit(e.into_diagnostic(codes::SYNTAX));
                    self.recover(start);
                }
            }
        }
        let mut body = Vec::new();
        while self.peek_kind() != &TokenKind::Eof {
            if self.eat(&TokenKind::Semi) {
                continue;
            }
            let start = self.pos;
            match self.stmt() {
                Ok(s) => body.push(s),
                Err(e) => {
                    diags.emit(e.into_diagnostic(codes::SYNTAX));
                    self.recover(start);
                    // Levels left open by the failed statement.
                    self.depth = 0;
                }
            }
        }
        Program { inputs, body }
    }

    /// Skips to just past the next `;` at brace depth zero (or Eof), making
    /// sure at least one token is consumed so recovery always progresses.
    fn recover(&mut self, start: usize) {
        if self.pos == start {
            self.bump();
        }
        let mut depth = 0i64;
        while self.peek_kind() != &TokenKind::Eof {
            let t = self.bump();
            match t.kind {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => depth -= 1,
                TokenKind::Semi if depth <= 0 => return,
                _ => {}
            }
        }
    }

    // ---------------------------------------------------------- types

    fn ty(&mut self) -> Result<Type> {
        let span = self.span();
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "bool" => Ok(Type::Bool),
                    "long" | "int" => Ok(Type::Long),
                    "double" | "float" => Ok(Type::Double),
                    "string" => Ok(Type::Str),
                    "vector" => {
                        self.expect(&TokenKind::LBracket)?;
                        let t = self.ty()?;
                        self.expect(&TokenKind::RBracket)?;
                        Ok(Type::Vector(Box::new(t)))
                    }
                    "matrix" => {
                        self.expect(&TokenKind::LBracket)?;
                        let t = self.ty()?;
                        self.expect(&TokenKind::RBracket)?;
                        Ok(Type::Matrix(Box::new(t)))
                    }
                    "map" => {
                        self.expect(&TokenKind::LBracket)?;
                        let k = self.ty()?;
                        self.expect(&TokenKind::Comma)?;
                        let v = self.ty()?;
                        self.expect(&TokenKind::RBracket)?;
                        Ok(Type::Map(Box::new(k), Box::new(v)))
                    }
                    other => Err(LangError::new(format!("unknown type `{other}`"), span)),
                }
            }
            TokenKind::LParen => {
                self.bump();
                let mut fields = vec![self.ty()?];
                while self.eat(&TokenKind::Comma) {
                    fields.push(self.ty()?);
                }
                self.expect(&TokenKind::RParen)?;
                if fields.len() < 2 {
                    return Err(LangError::new("tuple types need at least two fields", span));
                }
                Ok(Type::Tuple(fields))
            }
            TokenKind::RecOpen => {
                self.bump();
                let mut fields = Vec::new();
                loop {
                    let name = self.ident()?;
                    self.expect(&TokenKind::Colon)?;
                    let t = self.ty()?;
                    fields.push((name, t));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RecClose)?;
                Ok(Type::Record(fields))
            }
            other => Err(LangError::new(
                format!("expected a type, found {}", other.describe()),
                span,
            )),
        }
    }

    // ---------------------------------------------------------- statements

    fn stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        if self.at_ident("var") {
            return self.decl();
        }
        if self.at_ident("for") {
            return self.for_stmt();
        }
        if self.at_ident("while") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let body = self.nested(Self::stmt)?;
            return Ok(Stmt::While {
                cond,
                body: Box::new(body),
                span,
            });
        }
        if self.at_ident("if") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let then_branch = Box::new(self.nested(Self::stmt)?);
            let else_branch = if self.at_ident("else") {
                self.bump();
                Some(Box::new(self.nested(Self::stmt)?))
            } else {
                None
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            });
        }
        if self.peek_kind() == &TokenKind::LBrace {
            self.bump();
            self.enter()?;
            let mut stmts = Vec::new();
            while self.peek_kind() != &TokenKind::RBrace {
                if self.eat(&TokenKind::Semi) {
                    continue;
                }
                stmts.push(self.stmt()?);
            }
            self.leave(1);
            self.expect(&TokenKind::RBrace)?;
            self.eat(&TokenKind::Semi); // tolerate `};`
            return Ok(Stmt::Block(stmts));
        }
        // Assignment or incremental update.
        let dest = self.lhs()?;
        let tok = self.bump();
        let stmt = match tok.kind {
            TokenKind::Assign => {
                let value = self.expr()?;
                desugar_assign(dest, value, span)
            }
            TokenKind::PlusAssign => Stmt::Incr {
                dest,
                op: BinOp::Add,
                value: self.expr()?,
                span,
            },
            TokenKind::StarAssign => Stmt::Incr {
                dest,
                op: BinOp::Mul,
                value: self.expr()?,
                span,
            },
            TokenKind::CaretAssign => Stmt::Incr {
                dest,
                op: BinOp::ArgMin,
                value: self.expr()?,
                span,
            },
            TokenKind::AndAssign => Stmt::Incr {
                dest,
                op: BinOp::And,
                value: self.expr()?,
                span,
            },
            TokenKind::OrAssign => Stmt::Incr {
                dest,
                op: BinOp::Or,
                value: self.expr()?,
                span,
            },
            other => {
                return Err(LangError::new(
                    format!(
                        "expected an assignment operator, found {}",
                        other.describe()
                    ),
                    tok.span,
                ))
            }
        };
        self.expect(&TokenKind::Semi)?;
        Ok(stmt)
    }

    fn decl(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_ident("var")?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.ty()?;
        self.expect(&TokenKind::Eq)?;
        // Empty-collection constructors: vector(), matrix(), map().
        let init = if (self.at_ident("vector") || self.at_ident("matrix") || self.at_ident("map"))
            && self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen)
            && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::RParen)
        {
            self.bump();
            self.bump();
            self.bump();
            DeclInit::EmptyCollection
        } else {
            DeclInit::Expr(self.expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            span,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_ident("for")?;
        let var = self.ident()?;
        if self.eat_ident("in") {
            let source = self.expr()?;
            self.expect_ident("do")?;
            let body = self.nested(Self::stmt)?;
            return Ok(Stmt::ForIn {
                var,
                source,
                body: Box::new(body),
                span,
            });
        }
        self.expect(&TokenKind::Eq)?;
        let lo = self.expr()?;
        self.expect(&TokenKind::Comma)?;
        let hi = self.expr()?;
        self.expect_ident("do")?;
        let body = self.nested(Self::stmt)?;
        Ok(Stmt::For {
            var,
            lo,
            hi,
            body: Box::new(body),
            span,
        })
    }

    // ---------------------------------------------------------- L-values

    fn lhs(&mut self) -> Result<Lhs> {
        let span = self.span();
        let name = self.ident()?;
        let mut d = if self.eat(&TokenKind::LBracket) {
            Lhs::Index(name, self.nested(Self::indexes)?)
        } else {
            Lhs::Var(name)
        };
        while self.eat(&TokenKind::Dot) {
            let field = self.ident()?;
            d = Lhs::Proj(Box::new(d), field);
        }
        if self.peek_kind() == &TokenKind::LBracket {
            return Err(LangError::new(
                "nested array indexing is not allowed (arrays of arrays are excluded, §3.1)",
                span,
            ));
        }
        Ok(d)
    }

    // ---------------------------------------------------------- expressions

    /// `expr := and_expr (('||') and_expr)*`
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        let mut chain = 0;
        while self.eat(&TokenKind::OrOr) {
            self.enter()?;
            chain += 1;
            let rhs = self.and_expr()?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(rhs));
        }
        self.leave(chain);
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.cmp_expr()?;
        let mut chain = 0;
        while self.eat(&TokenKind::AndAnd) {
            self.enter()?;
            chain += 1;
            let rhs = self.cmp_expr()?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(rhs));
        }
        self.leave(chain);
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let e = self.add_expr()?;
        let op = match self.peek_kind() {
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Less => Some(BinOp::Lt),
            TokenKind::LessEq => Some(BinOp::Le),
            TokenKind::Greater => Some(BinOp::Gt),
            TokenKind::GreaterEq => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(e), Box::new(rhs)))
        } else {
            Ok(e)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut e = self.mul_expr()?;
        let mut chain = 0;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Caret => BinOp::ArgMin,
                _ => break,
            };
            self.bump();
            self.enter()?;
            chain += 1;
            let rhs = self.mul_expr()?;
            e = Expr::Bin(op, Box::new(e), Box::new(rhs));
        }
        self.leave(chain);
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut e = self.unary_expr()?;
        let mut chain = 0;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            self.enter()?;
            chain += 1;
            let rhs = self.unary_expr()?;
            e = Expr::Bin(op, Box::new(e), Box::new(rhs));
        }
        self.leave(chain);
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            // `-9223372036854775808` is `i64::MIN`, though its magnitude
            // is no `long`.
            if self.eat(&TokenKind::MinLongMagnitude) {
                return Ok(Expr::Const(Const::Long(i64::MIN)));
            }
            let e = self.nested(Self::unary_expr)?;
            // Fold negation of literals so `-1` is a constant.
            return Ok(match e {
                Expr::Const(Const::Long(n)) => Expr::Const(Const::Long(n.wrapping_neg())),
                Expr::Const(Const::Double(x)) => Expr::Const(Const::Double(-x)),
                other => Expr::Un(UnOp::Neg, Box::new(other)),
            });
        }
        if self.eat(&TokenKind::Bang) {
            let e = self.nested(Self::unary_expr)?;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let span = self.span();
        let mut e = self.primary_expr()?;
        while self.eat(&TokenKind::Dot) {
            let field = self.ident()?;
            // The grammar only projects destinations (Fig. 1).
            e = match e {
                Expr::Dest(d) => Expr::Dest(Lhs::Proj(Box::new(d), field)),
                _ => {
                    return Err(LangError::new(
                        "projection `.A` is only allowed on variables and array accesses",
                        span,
                    ))
                }
            };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.peek_kind().clone() {
            TokenKind::Long(n) => {
                self.bump();
                Ok(Expr::Const(Const::Long(n)))
            }
            TokenKind::Double(x) => {
                self.bump();
                Ok(Expr::Const(Const::Double(x)))
            }
            TokenKind::MinLongMagnitude => Err(crate::lexer::too_large(span)),
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Const(Const::Str(s)))
            }
            TokenKind::LParen => {
                self.bump();
                let mut fields = self.nested(Self::exprs)?;
                self.expect(&TokenKind::RParen)?;
                if fields.len() == 1 {
                    Ok(fields.pop().expect("one field"))
                } else {
                    Ok(Expr::Tuple(fields))
                }
            }
            TokenKind::RecOpen => {
                self.bump();
                let fields = self.nested(|p| {
                    let mut fields = Vec::new();
                    loop {
                        let name = p.ident()?;
                        p.expect(&TokenKind::Eq)?;
                        fields.push((name, p.expr()?));
                        if !p.eat(&TokenKind::Comma) {
                            return Ok(fields);
                        }
                    }
                })?;
                self.expect(&TokenKind::RecClose)?;
                Ok(Expr::Record(fields))
            }
            TokenKind::Ident(name) => {
                match name.as_str() {
                    "true" => {
                        self.bump();
                        return Ok(Expr::Const(Const::Bool(true)));
                    }
                    "false" => {
                        self.bump();
                        return Ok(Expr::Const(Const::Bool(false)));
                    }
                    _ => {}
                }
                self.bump();
                if self.peek_kind() == &TokenKind::LParen {
                    return self.call_expr(name, span);
                }
                if self.eat(&TokenKind::LBracket) {
                    let idxs = self.nested(Self::indexes)?;
                    if self.peek_kind() == &TokenKind::LBracket {
                        return Err(LangError::new(
                            "nested array indexing is not allowed (arrays of arrays are excluded, §3.1)",
                            span,
                        ));
                    }
                    return Ok(Expr::Dest(Lhs::Index(name, idxs)));
                }
                Ok(Expr::var(name))
            }
            other => Err(LangError::new(
                format!("expected an expression, found {}", other.describe()),
                span,
            )),
        }
    }

    /// `expr (',' expr)*`: tuple fields or call arguments.
    fn exprs(&mut self) -> Result<Vec<Expr>> {
        let mut es = vec![self.expr()?];
        while self.eat(&TokenKind::Comma) {
            es.push(self.expr()?);
        }
        Ok(es)
    }

    /// The indexes of an array access, up to and including the `]`.
    fn indexes(&mut self) -> Result<Vec<Expr>> {
        let idxs = self.exprs()?;
        self.expect(&TokenKind::RBracket)?;
        Ok(idxs)
    }

    fn call_expr(&mut self, name: String, span: Span) -> Result<Expr> {
        self.expect(&TokenKind::LParen)?;
        let args = if self.peek_kind() == &TokenKind::RParen {
            Vec::new()
        } else {
            self.nested(Self::exprs)?
        };
        self.expect(&TokenKind::RParen)?;
        // `min`/`max` are binary operators in call syntax.
        match name.as_str() {
            "min" | "max" if args.len() == 2 => {
                let op = if name == "min" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                let mut it = args.into_iter();
                let a = it.next().expect("two args");
                let b = it.next().expect("two args");
                return Ok(Expr::Bin(op, Box::new(a), Box::new(b)));
            }
            _ => {}
        }
        match Func::by_name(&name) {
            Some(f) => Ok(Expr::Call(f, args)),
            None => Err(LangError::new(format!("unknown function `{name}`"), span)),
        }
    }
}

/// Desugars `d := d ⊕ e` / `d := e ⊕ d` into `d ⊕= e` when `⊕` is
/// commutative; other assignments stay plain.
fn desugar_assign(dest: Lhs, value: Expr, span: Span) -> Stmt {
    if let Expr::Bin(op, lhs, rhs) = &value {
        if op.is_commutative() {
            if matches!(lhs.as_ref(), Expr::Dest(d) if *d == dest) {
                return Stmt::Incr {
                    dest,
                    op: *op,
                    value: (**rhs).clone(),
                    span,
                };
            }
            if matches!(rhs.as_ref(), Expr::Dest(d) if *d == dest) {
                return Stmt::Incr {
                    dest,
                    op: *op,
                    value: (**lhs).clone(),
                    span,
                };
            }
        }
    }
    Stmt::Assign { dest, value, span }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inputs_and_decls() {
        let p = parse(
            r#"
            input M: matrix[double];
            input n: long;
            var R: matrix[double] = matrix();
            var s: double = 0.0;
        "#,
        )
        .unwrap();
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.body.len(), 2);
        assert!(matches!(
            &p.body[0],
            Stmt::Decl {
                init: DeclInit::EmptyCollection,
                ..
            }
        ));
    }

    #[test]
    fn parses_matrix_multiplication_shape() {
        let p = parse(
            r#"
            input M: matrix[double];
            input N: matrix[double];
            input d: long;
            var R: matrix[double] = matrix();
            for i = 0, d-1 do
              for j = 0, d-1 do {
                R[i, j] := 0.0;
                for k = 0, d-1 do
                  R[i, j] += M[i, k] * N[k, j];
              };
        "#,
        )
        .unwrap();
        let Stmt::For { body, .. } = &p.body[1] else {
            panic!("outer for")
        };
        let Stmt::For { body, .. } = body.as_ref() else {
            panic!("inner for")
        };
        let Stmt::Block(ss) = body.as_ref() else {
            panic!("block")
        };
        assert_eq!(ss.len(), 2);
        assert!(matches!(&ss[1], Stmt::For { body, .. }
            if matches!(body.as_ref(), Stmt::Incr { op: BinOp::Add, .. })));
    }

    #[test]
    fn desugars_commutative_self_assignment() {
        let p = parse(
            r#"
            input V: vector[double];
            var eq: bool = true;
            for v in V do eq := eq && v == 0.0;
        "#,
        )
        .unwrap();
        let Stmt::ForIn { body, .. } = &p.body[1] else {
            panic!()
        };
        assert!(
            matches!(body.as_ref(), Stmt::Incr { op: BinOp::And, .. }),
            "got {body:?}"
        );
    }

    #[test]
    fn does_not_desugar_noncommutative_self_assignment() {
        let p = parse("var x: long = 0; x := x - 1;").unwrap();
        assert!(matches!(&p.body[1], Stmt::Assign { .. }));
    }

    #[test]
    fn desugars_reversed_operand_order() {
        let p = parse("var x: long = 0; x := 1 + x;").unwrap();
        assert!(matches!(
            &p.body[1],
            Stmt::Incr {
                op: BinOp::Add,
                value: Expr::Const(Const::Long(1)),
                ..
            }
        ));
    }

    #[test]
    fn parses_records_and_projections() {
        let e = parse_expr("<| index = j, distance = d |>").unwrap();
        assert!(matches!(e, Expr::Record(fields) if fields.len() == 2));
        let e = parse_expr("A[i].K").unwrap();
        assert!(matches!(e, Expr::Dest(Lhs::Proj(_, f)) if f == "K"));
    }

    #[test]
    fn rejects_projection_of_tuple_literals() {
        assert!(parse_expr("(1, 2)._1").is_err());
    }

    #[test]
    fn rejects_nested_indexing() {
        assert!(parse("input V: vector[long]; var x: long = 0; x := V[0][1];").is_err());
    }

    #[test]
    fn allows_indirect_indexing() {
        // V[W[i]] is fine — the nesting is inside the index expression.
        let e = parse_expr("V[W[i]]").unwrap();
        assert!(matches!(e, Expr::Dest(Lhs::Index(v, _)) if v == "V"));
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("a + b * c").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Add, _, rhs)
            if matches!(*rhs, Expr::Bin(BinOp::Mul, _, _))));
        let e = parse_expr("a < b && c < d || e").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Or, _, _)));
    }

    #[test]
    fn min_max_become_binops() {
        let e = parse_expr("min(a, b)").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Min, _, _)));
        let e = parse_expr("max(a, 3)").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Max, _, _)));
    }

    #[test]
    fn builtin_calls_and_unknown_functions() {
        assert!(matches!(
            parse_expr("sqrt(x)").unwrap(),
            Expr::Call(Func::Sqrt, _)
        ));
        assert!(parse_expr("frobnicate(x)").is_err());
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Const(Const::Long(-5)));
        assert!(matches!(parse_expr("-x").unwrap(), Expr::Un(UnOp::Neg, _)));
    }

    #[test]
    fn the_least_long_is_a_negated_literal() {
        let min = Expr::Const(Const::Long(i64::MIN));
        assert_eq!(parse_expr("-9223372036854775808").unwrap(), min);
        assert_eq!(parse_expr("- 09223372036854775808").unwrap(), min);
        // Negating it again wraps, as negating a `long` does.
        assert_eq!(parse_expr("--9223372036854775808").unwrap(), min);
        let p = parse("var x: long = -9223372036854775808;").unwrap();
        assert!(matches!(
            &p.body[0],
            Stmt::Decl {
                init: DeclInit::Expr(Expr::Const(Const::Long(i64::MIN))),
                ..
            }
        ));
        // Its magnitude alone is no `long`, nor is one past it.
        let too_large = "bad integer literal: number too large to fit in target type";
        for src in [
            "9223372036854775808",
            "1 - 9223372036854775808",
            "-(9223372036854775808)",
            "-9223372036854775809",
        ] {
            let e = parse_expr(src).unwrap_err();
            assert_eq!(e.message, too_large, "{src}");
        }
        let mut diags = Diagnostics::new();
        assert!(parse_multi("var x: long = 9223372036854775808;", &mut diags).is_none());
        let d = diags.iter().next().expect("one diagnostic");
        assert_eq!((d.code, d.message.as_str()), (codes::SYNTAX, too_large));
    }

    #[test]
    fn while_and_if_statements() {
        let p = parse(
            r#"
            var k: long = 0;
            while (k < 10) {
                k += 1;
                if (k == 5) k += 2; else k += 3;
            };
        "#,
        )
        .unwrap();
        assert!(matches!(&p.body[1], Stmt::While { .. }));
    }

    #[test]
    fn incremental_operators() {
        let p = parse(
            r#"
            var a: long = 0; var b: long = 1; var c: bool = true;
            var d: bool = false; var e: vector[(long, double)] = vector();
            a += 1; b *= 2; c &&= true; d ||= false; e[0] ^= (1, 0.5);
        "#,
        )
        .unwrap();
        let ops: Vec<BinOp> = p.body[5..]
            .iter()
            .map(|s| match s {
                Stmt::Incr { op, .. } => *op,
                other => panic!("expected Incr, got {other:?}"),
            })
            .collect();
        assert_eq!(
            ops,
            vec![BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::ArgMin]
        );
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("var x long = 3;").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("expected `:`"), "{err}");
    }

    #[test]
    fn parse_multi_reports_every_error() {
        let src = "var x long = 3;\nvar y: long = 0;\ny := ;\ny += 1;\nz +* 2;\n";
        let mut diags = Diagnostics::new();
        assert!(parse_multi(src, &mut diags).is_none());
        assert_eq!(diags.error_count(), 3, "{:?}", diags.into_vec());
    }

    #[test]
    fn parse_multi_first_error_matches_parse() {
        let src = "var x long = 3;\ny := ;\n";
        let err = parse(src).unwrap_err();
        let mut diags = Diagnostics::new();
        parse_multi(src, &mut diags);
        let first = diags.first_error().unwrap();
        assert_eq!(first.message, err.message);
        assert_eq!(
            (first.span.line, first.span.col),
            (err.span.line, err.span.col)
        );
    }

    #[test]
    fn parse_multi_recovers_across_blocks() {
        // The error is inside a block; recovery must not get stuck.
        let src = "input n: long;\nvar s: long = 0;\nfor i = 0, n do {\n  s += ;\n};\ns += 1;\n";
        let mut diags = Diagnostics::new();
        assert!(parse_multi(src, &mut diags).is_none());
        assert!(diags.error_count() >= 1);
    }

    #[test]
    fn parse_multi_clean_program_emits_nothing() {
        let mut diags = Diagnostics::new();
        let p = parse_multi("var x: long = 0; x += 1;", &mut diags).unwrap();
        assert!(diags.is_empty());
        assert_eq!(p.body.len(), 2);
    }
}
