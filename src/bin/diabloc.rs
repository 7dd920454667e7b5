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
//! diabloc run --backend local <program.dbl> # the row layout (default: columnar)
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
//! * `--backend <columnar|local>` selects the engine's layout: `columnar`
//!   (the default: stages whose steps are all transparent run as typed
//!   column chunks, tile by tile — total aggregations fold the last
//!   column directly — and every other stage runs tuple-at-a-time) or
//!   `local` (tuple-at-a-time everywhere: the row reference the default
//!   is held byte-identical to, and the one to pick when bisecting a
//!   suspected vectorization bug). Results are identical either way
//!   (equivalent to `DIABLO_BACKEND`).
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
//! Bindings are `name=value` for scalars (`n=100`, `a=0.5`, `x=hello`) and
//! `name=@file.csv` for collections. A collection CSV has one element per
//! line: `key,value` for vectors/maps, `i,j,value` for matrices. After a
//! run, every program variable is printed, collections in ascending key
//! order (truncated).
//!
//! `explain` renders the engine's physical plan — one line per fused
//! per-partition stage, shuffle, and broadcast; on the default backend
//! each stage also says `layout: columnar` or `layout: row (opaque …)`,
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
            "--backend/--workers/--partitions/--memory-budget/--dataset-budget/--connect only apply to `run` and `explain`, not `{cmd}`"
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
                return run_remote(addr, &source, rest);
            }
            let (_, compiled) = front_end(&source, path, false)?;
            let mut session = Session::new(engine.context());
            for binding in rest {
                let (name, value) = parse_binding(binding)?;
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
                let (name, value) = parse_binding(binding)?;
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
            let mut diags = Diagnostics::new();
            let tp = parse_multi(&source, &mut diags)
                .and_then(|p| typecheck_multi(p, &mut diags))
                .ok_or_else(|| report_diagnostics(&diags, &source, path, false))?;
            let mut interp = Interpreter::new();
            for binding in rest {
                let (name, value) = parse_binding(binding)?;
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

/// `run --connect`: ship the program and bindings to a `diablod` server
/// and print its outputs exactly as a local run would.
fn run_remote(addr: &str, source: &str, bindings: &[String]) -> Result<(), String> {
    let mut scalars = Vec::new();
    let mut rows = Vec::new();
    for binding in bindings {
        let (name, value) = parse_binding(binding)?;
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

/// Parses `name=value` / `name=@file` bindings.
fn parse_binding(s: &str) -> Result<(String, Bound), String> {
    let (name, rhs) = s
        .split_once('=')
        .ok_or_else(|| format!("binding `{s}` is not name=value"))?;
    if let Some(file) = rhs.strip_prefix('@') {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let rows = parse_rows(&text)?;
        return Ok((name.to_string(), Bound::Rows(rows)));
    }
    Ok((name.to_string(), Bound::Scalar(parse_scalar(rhs))))
}

/// Scalar literals: long, double, bool, else string.
fn parse_scalar(s: &str) -> Value {
    if let Ok(n) = s.parse::<i64>() {
        return Value::Long(n);
    }
    if let Ok(x) = s.parse::<f64>() {
        return Value::Double(x);
    }
    match s {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::str(s),
    }
}

/// CSV rows: `key,value` (vector/map) or `i,j,value` (matrix). A value
/// written `(a b c)` parses as a tuple of space-separated scalars, so
/// tuple-element vectors (e.g. K-Means points) bind from files too.
fn parse_rows(text: &str) -> Result<Vec<Value>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let row = match fields.as_slice() {
            [k, v] => Value::pair(parse_scalar(k), parse_value(v)),
            [i, j, v] => Value::pair(
                Value::pair(parse_scalar(i), parse_scalar(j)),
                parse_value(v),
            ),
            _ => {
                return Err(format!(
                    "line {}: expected `key,value` or `i,j,value`",
                    lineno + 1
                ))
            }
        };
        rows.push(row);
    }
    Ok(rows)
}

/// A CSV cell: `(a b c)` is a tuple of scalars, anything else a scalar.
fn parse_value(s: &str) -> Value {
    match s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(inner) => Value::tuple(inner.split_whitespace().map(parse_scalar).collect()),
        None => parse_scalar(s),
    }
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
