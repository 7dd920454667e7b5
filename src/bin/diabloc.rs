//! `diabloc` — the DIABLO command-line compiler and runner.
//!
//! ```text
//! diabloc check   <program.dbl>             # parse + type check + restriction check
//! diabloc check --json <program.dbl>        # same, diagnostics as stable JSON
//! diabloc lint    <program.dbl>             # check + program lints (shuffle forecast, …)
//! diabloc lint --json <program.dbl>         # lints as stable JSON
//! diabloc show    <program.dbl>             # print the translated bulk statements
//! diabloc run     <program.dbl> [bindings]  # execute on the dataflow engine
//! diabloc interp  <program.dbl> [bindings]  # execute with the sequential interpreter
//! diabloc explain <program.dbl> [bindings]  # print the executed physical plan
//! diabloc run --explain <program.dbl> ...   # same as `explain`
//! diabloc run --workers 8 --partitions 32 --memory-budget 1048576 ...
//! ```
//!
//! Every source-consuming command runs the **multi-error front end**: a
//! faulty program reports *all* of its syntax, type, and §3.2 restriction
//! violations in one run, each as a rustc-style caret snippet with a
//! stable `D0xx` code (see `diablo_diag::codes`). `--json` (for `check`
//! and `lint`) emits the same diagnostics as one stable JSON document on
//! stdout instead. `lint` additionally reports advisory warnings on
//! *accepted* programs — updates that compile to a group-by shuffle
//! (Rule (17) not eliminable), non-monoid accumulations, unused or dead
//! stores, and provably out-of-bounds constant subscripts; warnings never
//! fail the command.
//!
//! Engine flags (for `run` and `explain` only; `diablod` parses the same
//! ones with the same code, [`diablo::EngineFlags`]):
//!
//! * `--workers N` / `--partitions N` size the engine context (default:
//!   one worker per core, two partitions per worker).
//! * `--memory-budget BYTES` caps the bytes a shuffle buffers in memory;
//!   buckets past the budget spill to sorted run files (equivalent to
//!   `DIABLO_MEMORY_BUDGET`).
//! * `--dataset-budget BYTES` caps the bytes of materialized datasets
//!   held in memory; entries past the budget demote to disk and, past
//!   the disk ledger, recompute from their plan on the next read
//!   (equivalent to `DIABLO_DATASET_BUDGET`). `0` disables dataset
//!   caching. Results never change.
//!
//! Any other argument starting with `--` is an unknown flag, rejected
//! with the usage line before the program file is read.
//!
//! Bindings are `name=value` for scalars (`n=100`, `a=0.5`, `x=hello`) and
//! `name=@file.csv` for collections. A collection CSV has one element per
//! line: `key,value` for vectors/maps, `i,j,value` for matrices. Every
//! binding is parsed against the type its input is declared with: a
//! `long` takes an integer only, a `double` any number, a `bool` `true` or
//! `false`, a `string` the text as it is, and a tuple `(a b …)` one
//! field per element type; text that is not of the type, a type CSV text
//! cannot write (records, nested tuples), and a name the program declares
//! no input for are errors naming the input, its type and the text. After
//! a run, every program variable is printed, collections in ascending key
//! order (truncated).
//!
//! The engine runs every stage in the columnar layout: a stage whose steps
//! are all transparent runs as typed column chunks, tile by tile — total
//! aggregations fold the last column directly — and every other stage
//! runs tuple-at-a-time. (The tuple-at-a-time row layout everywhere is
//! the library's reference, `Context::with_layout`, that the tests hold
//! the default to.)
//!
//! `explain` renders the engine's physical plan — one line per fused
//! per-partition stage, shuffle, and broadcast; each stage also says
//! `layout: columnar` or `layout: row (opaque …)`,
//! naming the step that kept it on the row path. Inputs that are not bound
//! on the command line are synthesized from their declared types (small
//! representative collections, default scalars), so any program can be
//! explained without data files.

use std::process::ExitCode;

use diablo::{take_flag, EngineFlags};
use diablo_core::{CompiledProgram, TStmt};
use diablo_diag::Diagnostics;
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse_multi, typecheck_multi, Type, TypedProgram};
use diablo_runtime::Value;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("diabloc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let explain_flag = args.iter().any(|a| a == "--explain");
    args.retain(|a| a != "--explain");
    let json_flag = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let engine = EngineFlags::extract(&mut args)?;
    // `run` only: execute on a `diablod` server at this address
    // (`host:port` or `unix:/path`) instead of a local engine.
    let connect = take_flag(&mut args, "--connect")?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{flag}`\n{}", usage()));
    }
    let [cmd, path, rest @ ..] = args.as_slice() else {
        return Err(usage());
    };
    let cmd = match (cmd.as_str(), explain_flag) {
        (cmd, false) => cmd,
        ("run" | "explain", true) => "explain",
        (other, true) => {
            return Err(format!(
                "--explain only applies to `run` (or use the `explain` command), not `{other}`"
            ))
        }
    };
    if (engine.any() || connect.is_some()) && !matches!(cmd, "run" | "explain") {
        return Err(format!(
            "--workers/--partitions/--memory-budget/--dataset-budget/--connect only apply to `run` and `explain`, not `{cmd}`"
        ));
    }
    if json_flag && !matches!(cmd, "check" | "lint") {
        return Err("--json only applies to `check` and `lint`".to_string());
    }
    if connect.is_some() && cmd == "explain" {
        return Err("--connect only applies to `run`".to_string());
    }
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match cmd {
        "check" => {
            let _ = front_end(&source, path, json_flag)?;
            if json_flag {
                println!("{}", diablo_diag::to_json(&Diagnostics::new()));
            } else {
                println!("{path}: ok — the program satisfies the Definition 3.1 restrictions");
            }
            Ok(())
        }
        "lint" => {
            let (tp, compiled) = front_end(&source, path, json_flag)?;
            let mut diags = Diagnostics::new();
            diags.extend(diablo_core::lint_program(&tp, &compiled));
            if json_flag {
                println!("{}", diablo_diag::to_json(&diags));
            } else if diags.is_empty() {
                println!("{path}: ok — no lint warnings");
            } else {
                eprint!("{}", diablo_diag::render_all(&diags, &source, path));
                let n = diags.len();
                eprintln!(
                    "{path}: {n} warning{} emitted",
                    if n == 1 { "" } else { "s" }
                );
            }
            // Warnings are advisory: lint fails only on front-end errors.
            Ok(())
        }
        "show" => {
            let (_, compiled) = front_end(&source, path, false)?;
            print_target(&compiled.stmts, 0);
            Ok(())
        }
        "run" => {
            if let Some(addr) = &connect {
                if engine.any() {
                    return Err(
                        "--connect runs on the server's engine; engine flags belong to diablod"
                            .to_string(),
                    );
                }
                let tp = typed_front_end(&source, path)?;
                return run_remote(addr, &source, rest, &tp.program.inputs);
            }
            let (_, compiled) = front_end(&source, path, false)?;
            let mut session = Session::new(engine.context());
            for binding in rest {
                let (name, value) = parse_binding(binding, &compiled.inputs)?;
                match value {
                    Bound::Scalar(v) => session.bind_scalar(&name, v),
                    Bound::Rows(rows) => session.bind_input(&name, rows),
                }
            }
            session.run(&compiled).map_err(|e| e.to_string())?;
            report_session(&compiled, &session);
            Ok(())
        }
        "explain" => {
            let (tp, compiled) = front_end(&source, path, false)?;
            let mut session = Session::new(engine.context());
            for binding in rest {
                let (name, value) = parse_binding(binding, &compiled.inputs)?;
                match value {
                    Bound::Scalar(v) => session.bind_scalar(&name, v),
                    Bound::Rows(rows) => session.bind_input(&name, rows),
                }
            }
            bind_synthetic_inputs(&compiled, &mut session);
            let plan = session.explain(&compiled).map_err(|e| e.to_string())?;
            print!("{plan}");
            // What the optimizer did to get from the translation schemes'
            // output to `compiled`: the front end keeps only the result, so
            // the two phases `translate` is made of run once more here.
            let raw = diablo_core::translate_raw(&tp).map_err(|e| e.to_string())?;
            println!("rewrites: {}", diablo_core::optimize_program(raw).1);
            Ok(())
        }
        "interp" => {
            // The interpreter accepts programs the restriction check would
            // reject (it runs them sequentially), so only parse and type
            // check here — still multi-error.
            let tp = typed_front_end(&source, path)?;
            let mut interp = Interpreter::new();
            for binding in rest {
                let (name, value) = parse_binding(binding, &tp.program.inputs)?;
                match value {
                    Bound::Scalar(v) => interp.bind_scalar(&name, v),
                    Bound::Rows(rows) => interp
                        .bind_collection(&name, rows)
                        .map_err(|e| e.to_string())?,
                }
            }
            interp.run(&tp).map_err(|e| e.to_string())?;
            for (name, ty) in collect_var_names(&tp.var_types) {
                if ty.is_collection() {
                    if let Some(rows) = interp.collection(&name) {
                        print_rows(&name, &rows);
                    }
                } else if let Some(v) = interp.scalar(&name) {
                    println!("{name} = {v}");
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    format!(
        "usage: diabloc <check|lint|show|run|interp|explain> [--explain] [--json] {} [--connect ADDR] <program.dbl> [name=value | name=@rows.csv ...]",
        EngineFlags::USAGE
    )
}

/// Renders accumulated front-end diagnostics — rustc-style caret snippets
/// on stderr, or the stable JSON document on stdout under `--json` — and
/// returns the one-line summary the process exits with.
fn report_diagnostics(diags: &Diagnostics, source: &str, path: &str, json: bool) -> String {
    if json {
        println!("{}", diablo_diag::to_json(diags));
    } else {
        eprint!("{}", diablo_diag::render_all(diags, source, path));
    }
    let n = diags.error_count();
    format!("{path}: {n} error{} emitted", if n == 1 { "" } else { "s" })
}

/// The multi-error front end behind every source-consuming command: on
/// any fault, every diagnostic is rendered (not just the first) and a
/// one-line summary error is returned for the exit path.
fn front_end(
    source: &str,
    path: &str,
    json: bool,
) -> Result<(TypedProgram, CompiledProgram), String> {
    let mut diags = Diagnostics::new();
    diablo_core::compile_multi(source, &mut diags)
        .ok_or_else(|| report_diagnostics(&diags, source, path, json))
}

/// Parse and type check only, multi-error: what `interp` runs (the
/// interpreter accepts programs the restriction check would reject), and
/// what `run --connect` needs to read its bindings.
fn typed_front_end(source: &str, path: &str) -> Result<TypedProgram, String> {
    let mut diags = Diagnostics::new();
    parse_multi(source, &mut diags)
        .and_then(|p| typecheck_multi(p, &mut diags))
        .ok_or_else(|| report_diagnostics(&diags, source, path, false))
}

/// `run --connect`: ship the program and bindings to a `diablod` server
/// and print its outputs exactly as a local run would.
fn run_remote(
    addr: &str,
    source: &str,
    bindings: &[String],
    inputs: &[(String, Type)],
) -> Result<(), String> {
    let mut scalars = Vec::new();
    let mut rows = Vec::new();
    for binding in bindings {
        let (name, value) = parse_binding(binding, inputs)?;
        match value {
            Bound::Scalar(v) => scalars.push((name, v)),
            Bound::Rows(r) => rows.push((name, r)),
        }
    }
    let mut client =
        diablo_serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let result = client.run(source, scalars, rows, false)?;
    // Advisory lints computed server-side ride along with the response;
    // stderr keeps stdout clean for the outputs.
    for w in &result.warnings {
        eprintln!("{w}");
    }
    for (name, output) in &result.outputs {
        match output {
            diablo_serve::Output::Scalar(v) => println!("{name} = {v}"),
            diablo_serve::Output::Rows(rows) => print_rows(name, rows),
        }
    }
    Ok(())
}

/// Binds a small synthesized value for every input the user did not bind,
/// so `explain` works on any program without data files.
fn bind_synthetic_inputs(compiled: &CompiledProgram, session: &mut Session) {
    for (name, ty) in &compiled.inputs {
        if session.binding(name).is_some() {
            continue;
        }
        if ty.is_collection() {
            session.bind_input(name, synthetic_rows(ty));
        } else {
            session.bind_scalar(name, default_scalar(ty));
        }
    }
}

/// Representative rows for a collection type: 8 entries for vectors and
/// maps, a 3×3 grid for matrices.
fn synthetic_rows(ty: &Type) -> Vec<Value> {
    let elem = ty.element().cloned().unwrap_or(Type::Long);
    match ty {
        Type::Matrix(_) => {
            let mut rows = Vec::new();
            for i in 0..3i64 {
                for j in 0..3i64 {
                    rows.push(Value::pair(
                        Value::pair(Value::Long(i), Value::Long(j)),
                        default_scalar(&elem),
                    ));
                }
            }
            rows
        }
        _ => {
            let key = ty.key_type().unwrap_or(Type::Long);
            (0..8i64)
                .map(|i| Value::pair(synthetic_key(&key, i), default_scalar(&elem)))
                .collect()
        }
    }
}

/// A key of the given type for synthetic row `i` (repeats every few rows
/// for string keys, so group-bys have something to group).
fn synthetic_key(ty: &Type, i: i64) -> Value {
    match ty {
        Type::Str => Value::str(format!("w{}", i % 3)),
        Type::Tuple(ts) => Value::tuple(
            ts.iter()
                .enumerate()
                .map(|(p, t)| synthetic_key(t, if p == 0 { i / 3 } else { i % 3 }))
                .collect(),
        ),
        _ => Value::Long(i),
    }
}

/// The default scalar of a type (`4` for longs so synthesized loop bounds
/// make a little progress).
fn default_scalar(ty: &Type) -> Value {
    match ty {
        Type::Bool => Value::Bool(true),
        Type::Long => Value::Long(4),
        Type::Double => Value::Double(0.5),
        Type::Str => Value::str("x"),
        Type::Tuple(ts) => Value::tuple(ts.iter().map(default_scalar).collect()),
        Type::Record(fs) => Value::record(
            fs.iter()
                .map(|(n, t)| (n.clone(), default_scalar(t)))
                .collect(),
        ),
        _ => Value::Long(0),
    }
}

enum Bound {
    Scalar(Value),
    Rows(Vec<Value>),
}

/// Parses a `name=value` / `name=@file` binding against the type the
/// program declares for input `name`.
fn parse_binding(s: &str, inputs: &[(String, Type)]) -> Result<(String, Bound), String> {
    let (name, rhs) = s
        .split_once('=')
        .ok_or_else(|| format!("binding `{s}` is not name=value"))?;
    let Some((_, ty)) = inputs.iter().find(|(n, _)| n == name) else {
        return Err(format!(
            "binding `{s}`: the program declares no input `{name}`"
        ));
    };
    let input = format!("input `{name}: {ty}`");
    let bound = match (rhs.strip_prefix('@'), ty.is_collection()) {
        (Some(file), true) => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let rows = parse_rows(&text, ty).map_err(|e| format!("{input}: {file} {e}"))?;
            Bound::Rows(rows)
        }
        (None, false) => Bound::Scalar(parse_cell(rhs, ty).map_err(|e| format!("{input}: {e}"))?),
        (Some(_), false) => {
            return Err(format!(
                "{input} is a scalar: bind it as `{name}=value`, not from a file"
            ))
        }
        (None, true) => {
            return Err(format!(
                "{input} is a collection: bind it as `{name}=@rows.csv`"
            ))
        }
    };
    Ok((name.to_string(), bound))
}

/// A scalar binding or CSV cell of type `ty`: a `long` takes an integer
/// only, a `double` any number (an integer promoted), a `bool` `true` or
/// `false`, a `string` the text as it is, and a tuple of those `(a b …)`
/// one field per element type. Any other type has no CSV text.
fn parse_cell(text: &str, ty: &Type) -> Result<Value, String> {
    let unfit = || format!("`{text}` is not a {ty}");
    match ty {
        Type::Long => text.parse().map(Value::Long).map_err(|_| unfit()),
        Type::Double => text.parse().map(Value::Double).map_err(|_| unfit()),
        Type::Bool => match text {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(unfit()),
        },
        Type::Str => Ok(Value::str(text)),
        Type::Tuple(ts) if !ts.iter().any(|t| matches!(t, Type::Tuple(_))) => {
            let inner = text
                .strip_prefix('(')
                .and_then(|t| t.strip_suffix(')'))
                .ok_or_else(unfit)?;
            let cells: Vec<&str> = inner.split_whitespace().collect();
            if cells.len() != ts.len() {
                return Err(unfit());
            }
            let fields = cells.iter().zip(ts).map(|(c, t)| parse_cell(c, t));
            Ok(Value::tuple(
                fields.collect::<Result<_, _>>().map_err(|_| unfit())?,
            ))
        }
        _ => Err(format!("a {ty} cannot be written as CSV text")),
    }
}

/// CSV rows of a collection of type `ty`: `key,value` for a vector or a
/// map, `i,j,value` for a matrix, each cell parsed against its type
/// ([`parse_cell`]). A value written `(a b c)` is a tuple, so
/// tuple-element vectors (e.g. K-Means points) bind from files too. An
/// array holds each key once (§3.4), so a repeated key is an error naming
/// both lines.
fn parse_rows(text: &str, ty: &Type) -> Result<Vec<Value>, String> {
    let (Some(key_ty), Some(elem)) = (ty.key_type(), ty.element()) else {
        return Err(format!("a {ty} has no rows"));
    };
    let mut rows = Vec::new();
    let mut bound_on = std::collections::HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let (key, value) = match (ty, fields.as_slice()) {
            (Type::Matrix(_), [i, j, v]) => (
                Value::pair(
                    parse_cell(i, &Type::Long).map_err(at)?,
                    parse_cell(j, &Type::Long).map_err(at)?,
                ),
                parse_cell(v, elem).map_err(at)?,
            ),
            (Type::Matrix(_), _) => return Err(at("expected `i,j,value`".to_string())),
            (_, [k, v]) => (
                parse_cell(k, &key_ty).map_err(at)?,
                parse_cell(v, elem).map_err(at)?,
            ),
            _ => return Err(at("expected `key,value`".to_string())),
        };
        if let Some(first) = bound_on.insert(key.clone(), lineno + 1) {
            return Err(at(format!("key {key} already bound on line {first}")));
        }
        rows.push(Value::pair(key, value));
    }
    Ok(rows)
}

fn print_target(stmts: &[TStmt], indent: usize) {
    let pad = "  ".repeat(indent);
    for s in stmts {
        match s {
            TStmt::Assign {
                name,
                value,
                collection,
            } => {
                let kind = if *collection { "array" } else { "scalar" };
                println!(
                    "{pad}{name} := {}   [{kind}]",
                    diablo_comp::pretty_cexpr(value)
                );
            }
            TStmt::While { cond, body } => {
                println!("{pad}while {} {{", diablo_comp::pretty_cexpr(cond));
                print_target(body, indent + 1);
                println!("{pad}}}");
            }
        }
    }
}

fn collect_var_names(var_types: &std::collections::HashMap<String, Type>) -> Vec<(String, Type)> {
    let mut names: Vec<(String, Type)> = var_types
        .iter()
        .map(|(n, t)| (n.clone(), t.clone()))
        .collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    // Hide loop indexes and compiler temporaries.
    names.retain(|(n, _)| !n.contains('#'));
    names
}

fn report_session(compiled: &CompiledProgram, session: &Session) {
    for (name, ty) in collect_var_names(&compiled.var_types) {
        if ty.is_collection() {
            if let Some(rows) = session.collect(&name) {
                print_rows(&name, &rows);
            }
        } else if let Some(v) = session.scalar(&name) {
            println!("{name} = {v}");
        }
    }
}

fn print_rows(name: &str, rows: &[Value]) {
    const LIMIT: usize = 20;
    println!("{name} = {{ {} element(s) }}", rows.len());
    for row in rows.iter().take(LIMIT) {
        println!("  {row}");
    }
    if rows.len() > LIMIT {
        println!("  ... ({} more)", rows.len() - LIMIT);
    }
}
