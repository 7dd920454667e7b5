//! Structured diagnostics for the DIABLO front end and engine.
//!
//! Every analysis in the pipeline — lexing, parsing, type checking, the §3.2
//! parallelizability restrictions, and the program lints — reports through one
//! vocabulary: a [`Diagnostic`] carries a stable `D0xx` [code](codes), a
//! [`Severity`], a primary [`Span`], optional secondary labels (e.g. *both*
//! statements of a conflicting pair), and optional help text. A
//! [`Diagnostics`] sink accumulates them instead of stopping at the first
//! failure, so one `diabloc check` run reports every fault in a program.
//!
//! Rendering comes in two forms: [`render`]/[`render_all`] print rustc-style
//! source snippets with caret underlines, and [`to_json`] emits a stable
//! machine-readable form for `--json` consumers. This crate has no
//! dependencies and sits below `diablo-lang`.

/// A source location (1-based line and column).
///
/// Spans are diagnostic metadata, not syntax: two spans always compare
/// equal, so AST nodes that differ only in source position are `==`.
#[derive(Debug, Clone, Copy, Eq)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl PartialEq for Span {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::hash::Hash for Span {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

impl Span {
    /// The dummy span used for synthesized nodes.
    pub const SYNTH: Span = Span { line: 0, col: 0 };

    /// Creates a span.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// True if this is the synthesized (no source location) span.
    pub fn is_synth(&self) -> bool {
        self.line == 0
    }
}

/// Stable diagnostic codes.
///
/// Codes are part of the CLI/JSON contract: once shipped they keep their
/// meaning. Errors are `D00x`–`D01x`, lints (warnings) are `D02x`.
pub mod codes {
    /// Syntax error (lexer or parser).
    pub const SYNTAX: &str = "D001";
    /// Type error.
    pub const TYPE: &str = "D002";
    /// Definition 3.1 restriction 1: non-incremental destination not affine.
    pub const NOT_AFFINE: &str = "D010";
    /// Definition 3.1 restriction 2: loop-carried dependence.
    pub const DEPENDENCE: &str = "D011";
    /// Soundness: two non-incremental writes to the same array at different
    /// locations in one loop.
    pub const WRITE_WRITE: &str = "D012";
    /// Soundness: an array both written and incremented in one loop.
    pub const WRITE_AGGREGATE: &str = "D013";
    /// Soundness: an array incremented with different operators at different
    /// locations in one loop.
    pub const AGGREGATE_AGGREGATE: &str = "D014";
    /// A while-loop inside a for-loop makes the loop sequential.
    pub const WHILE_IN_FOR: &str = "D015";
    /// `var` declarations cannot appear inside for-loops.
    pub const DECL_IN_LOOP: &str = "D016";
    /// Lint: accepted update compiles to a group-by shuffle (Rule (17) does
    /// not eliminate it).
    pub const SHUFFLE: &str = "D020";
    /// Lint: aggregation whose merge function is not associative/commutative.
    pub const NON_MONOID: &str = "D021";
    /// Lint: variable or input dataset is never used.
    pub const UNUSED: &str = "D022";
    /// Lint: assignment overwritten before ever being read.
    pub const DEAD_STORE: &str = "D023";
    /// Lint: affine subscript provably out of bounds for a constant range.
    pub const BOUNDS: &str = "D024";
    /// Lint: an opaque step (expression, group-by that builds whole
    /// groups, join) makes the default engine run a collection-scanning
    /// stage tuple-at-a-time.
    pub const ROW_FALLBACK: &str = "D025";
}

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// The program is accepted but suspicious.
    Warning,
    /// Informational.
    Note,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// A single structured diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Primary message, shown on the header line.
    pub message: String,
    /// Primary span (the offending source location).
    pub span: Span,
    /// Secondary labeled spans (e.g. the other statement of a conflict pair).
    pub labels: Vec<(Span, String)>,
    /// Optional help text, shown after the snippet.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            labels: Vec::new(),
            help: None,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message, span)
        }
    }

    /// Creates a note diagnostic.
    pub fn note(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, message, span)
        }
    }

    /// Attaches a secondary labeled span.
    pub fn with_label(mut self, span: Span, label: impl Into<String>) -> Diagnostic {
        self.labels.push((span, label.into()));
        self
    }

    /// Attaches help text.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Compact one-line form: `warning[D020] 3:5: message`.
    pub fn one_line(&self) -> String {
        if self.span.is_synth() {
            format!("{}[{}]: {}", self.severity.label(), self.code, self.message)
        } else {
            format!(
                "{}[{}] {}:{}: {}",
                self.severity.label(),
                self.code,
                self.span.line,
                self.span.col,
                self.message
            )
        }
    }
}

/// An accumulating diagnostics sink.
///
/// Emission order is preserved, so the first emitted error matches the error
/// a fail-fast pass would have reported.
#[derive(Debug, Default)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Adds a diagnostic.
    pub fn emit(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// True if any error-severity diagnostic was emitted.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// The first error-severity diagnostic, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diags.iter().find(|d| d.severity == Severity::Error)
    }

    /// All diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of diagnostics of any severity.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Consumes the sink, returning the diagnostics in emission order.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diags
    }

    /// Extends the sink with already-built diagnostics.
    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(diags);
    }
}

/// Renders one diagnostic rustc-style against the program source.
///
/// ```text
/// error[D010]: destination `A` ... (Definition 3.1, restriction 1)
///   --> prog.dbl:4:5
///    |
///  4 |     A[i+j] := B[i];
///    |     ^^^^^^
///    = help: ...
/// ```
pub fn render(diag: &Diagnostic, source: &str, filename: &str) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = String::new();
    out.push_str(&format!(
        "{}[{}]: {}\n",
        diag.severity.label(),
        diag.code,
        diag.message
    ));
    render_snippet(&mut out, diag.span, None, '^', &lines, filename);
    for (span, label) in &diag.labels {
        render_snippet(&mut out, *span, Some(label), '-', &lines, filename);
    }
    if let Some(help) = &diag.help {
        out.push_str(&format!("   = help: {help}\n"));
    }
    out
}

/// Renders every diagnostic in the sink, separated by blank lines, followed
/// by an error-count summary when errors are present.
pub fn render_all(diags: &Diagnostics, source: &str, filename: &str) -> String {
    let mut out = String::new();
    for d in diags.iter() {
        out.push_str(&render(d, source, filename));
        out.push('\n');
    }
    let errs = diags.error_count();
    if errs > 0 {
        let plural = if errs == 1 { "" } else { "s" };
        out.push_str(&format!("{errs} error{plural} emitted\n"));
    }
    out
}

fn render_snippet(
    out: &mut String,
    span: Span,
    label: Option<&str>,
    underline: char,
    lines: &[&str],
    filename: &str,
) {
    if span.is_synth() {
        if let Some(label) = label {
            out.push_str(&format!("   = note: {label}\n"));
        }
        return;
    }
    out.push_str(&format!("  --> {filename}:{}:{}\n", span.line, span.col));
    let Some(line) = lines.get(span.line as usize - 1) else {
        return;
    };
    let gutter = format!("{}", span.line);
    let pad = " ".repeat(gutter.len());
    out.push_str(&format!(" {pad} |\n"));
    out.push_str(&format!(" {gutter} | {line}\n"));
    let col = span.col.max(1) as usize - 1;
    // Underline the identifier-character run starting at the span column, or
    // a single character when the span points at punctuation.
    let rest: String = line.chars().skip(col).collect();
    let width = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .count()
        .max(1);
    let carets: String = std::iter::repeat_n(underline, width).collect();
    match label {
        Some(label) => out.push_str(&format!(" {pad} | {}{carets} {label}\n", " ".repeat(col))),
        None => out.push_str(&format!(" {pad} | {}{carets}\n", " ".repeat(col))),
    }
}

/// Serializes diagnostics as a stable JSON document:
///
/// ```json
/// {"diagnostics":[{"code":"D010","severity":"error","message":"...",
///   "line":4,"col":5,"labels":[{"line":2,"col":5,"message":"..."}],
///   "help":"..."}]}
/// ```
pub fn to_json(diags: &Diagnostics) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":{},\"severity\":{},\"message\":{},\"line\":{},\"col\":{}",
            json_str(d.code),
            json_str(d.severity.label()),
            json_str(&d.message),
            d.span.line,
            d.span.col
        ));
        out.push_str(",\"labels\":[");
        for (j, (span, label)) in d.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"line\":{},\"col\":{},\"message\":{}}}",
                span.line,
                span.col,
                json_str(label)
            ));
        }
        out.push(']');
        if let Some(help) = &d.help {
            out.push_str(&format!(",\"help\":{}", json_str(help)));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_compare_equal() {
        assert_eq!(Span::new(1, 2), Span::new(9, 9));
        assert!(Span::SYNTH.is_synth());
        assert!(!Span::new(1, 1).is_synth());
    }

    #[test]
    fn sink_accumulates_and_orders() {
        let mut sink = Diagnostics::new();
        sink.emit(Diagnostic::warning(codes::SHUFFLE, "w", Span::new(1, 1)));
        sink.emit(Diagnostic::error(
            codes::NOT_AFFINE,
            "first",
            Span::new(2, 1),
        ));
        sink.emit(Diagnostic::error(
            codes::DEPENDENCE,
            "second",
            Span::new(3, 1),
        ));
        assert!(sink.has_errors());
        assert_eq!(sink.error_count(), 2);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.first_error().unwrap().message, "first");
    }

    #[test]
    fn renders_caret_snippet() {
        let src = "var x: long;\nx := y + 1;\n";
        let d = Diagnostic::error(codes::TYPE, "unknown variable `y`", Span::new(2, 6))
            .with_help("declare it with `var y: long;`");
        let r = render(&d, src, "p.dbl");
        assert!(r.contains("error[D002]: unknown variable `y`"), "{r}");
        assert!(r.contains("--> p.dbl:2:6"), "{r}");
        assert!(r.contains(" 2 | x := y + 1;"), "{r}");
        assert!(r.contains("   |      ^\n"), "{r}");
        assert!(r.contains("= help: declare it"), "{r}");
    }

    #[test]
    fn renders_secondary_labels() {
        let src = "A[i] := 1;\nA[j] := 2;\n";
        let d = Diagnostic::error(codes::WRITE_WRITE, "conflict on `A`", Span::new(2, 1))
            .with_label(Span::new(1, 1), "`A` is also written here");
        let r = render(&d, src, "p.dbl");
        assert!(r.contains("--> p.dbl:2:1"), "{r}");
        assert!(r.contains("--> p.dbl:1:1"), "{r}");
        assert!(r.contains("- `A` is also written here"), "{r}");
    }

    #[test]
    fn synth_span_skips_snippet() {
        let d = Diagnostic::error(codes::TYPE, "duplicate input", Span::SYNTH);
        let r = render(&d, "whatever", "p.dbl");
        assert!(!r.contains("-->"), "{r}");
        assert_eq!(d.one_line(), "error[D002]: duplicate input");
    }

    #[test]
    fn underline_covers_identifier() {
        let src = "total := bogus;\n";
        let d = Diagnostic::error(codes::TYPE, "unknown", Span::new(1, 10));
        let r = render(&d, src, "p.dbl");
        assert!(r.contains("^^^^^"), "{r}");
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut sink = Diagnostics::new();
        sink.emit(
            Diagnostic::error(codes::SYNTAX, "expected `;`, found \"x\"", Span::new(3, 7))
                .with_label(Span::new(1, 2), "while parsing this")
                .with_help("add a semicolon"),
        );
        let j = to_json(&sink);
        assert!(j.starts_with("{\"diagnostics\":["), "{j}");
        assert!(j.contains("\"code\":\"D001\""), "{j}");
        assert!(j.contains("\\\"x\\\""), "{j}");
        assert!(j.contains("\"labels\":[{\"line\":1,\"col\":2"), "{j}");
        assert!(j.contains("\"help\":\"add a semicolon\""), "{j}");
        let empty = to_json(&Diagnostics::new());
        assert_eq!(empty, "{\"diagnostics\":[]}");
    }

    #[test]
    fn one_line_compact() {
        let d = Diagnostic::warning(codes::SHUFFLE, "will shuffle", Span::new(4, 5));
        assert_eq!(d.one_line(), "warning[D020] 4:5: will shuffle");
    }
}
