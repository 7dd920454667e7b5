//! Hostile nesting: a program nested past the parser's bound
//! (`MAX_NESTING` levels of parentheses, operator chains, blocks and
//! bodies) is a D001 diagnostic — from the front end and from an
//! in-process `diablod`, which keeps serving — never a stack overflow,
//! and the deepest program the bound accepts compiles, runs and
//! interprets on a 2 MiB stack.

use std::thread;

use diablo_core::compile;
use diablo_dataflow::Context;
use diablo_diag::Diagnostics;
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::parser::MAX_NESTING;
use diablo_lang::{parse, parse_multi, typecheck};
use diablo_runtime::Value;
use diablo_serve::{Client, Output, ServeConfig, Server};

/// Each shape of nesting, `n` levels deep, with the value it gives `q`.
fn shapes(n: usize) -> Vec<(&'static str, String, i64)> {
    let head = "var q: long = 0;\n";
    vec![
        (
            "parentheses",
            format!("{head}q := {}1{};", "(".repeat(n), ")".repeat(n)),
            1,
        ),
        (
            "an operator chain",
            format!("{head}q := 1{};", " + 1".repeat(n)),
            n as i64 + 1,
        ),
        (
            "calls",
            format!("{head}q := {}1{};", "abs(".repeat(n), ")".repeat(n)),
            1,
        ),
        (
            "blocks",
            format!("{head}{}q := 1;{}", "{ ".repeat(n), " }".repeat(n)),
            1,
        ),
        (
            "conditional bodies",
            format!("{head}{}q := 1;", "if (true) ".repeat(n)),
            1,
        ),
        (
            // `n - 1` loop bodies and the block inside the last one.
            "loop bodies",
            format!(
                "var k: long = 0;\n{head}{}{{ q := 1; k := 1; }};",
                "while (k < 1) ".repeat(n - 1)
            ),
            1,
        ),
    ]
}

fn is_the_nesting_diagnostic(message: &str) -> bool {
    message.contains(&format!("program nests deeper than {MAX_NESTING} levels"))
}

#[test]
fn nesting_past_the_bound_is_a_syntax_diagnostic() {
    for (shape, src, _) in shapes(MAX_NESTING + 1) {
        let mut diags = Diagnostics::new();
        assert!(parse_multi(&src, &mut diags).is_none(), "{shape}");
        let first = diags.first_error().expect("an error");
        assert_eq!(first.code, "D001", "{shape}");
        assert!(
            is_the_nesting_diagnostic(&first.message),
            "{shape}: {first:?}"
        );
    }
}

#[test]
fn diablod_answers_hostile_nesting_with_the_diagnostic_and_serves_on() {
    let server =
        Server::start("127.0.0.1:0", Context::new(1, 2), ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut hostile: Vec<(&str, String)> = shapes(MAX_NESTING + 1)
        .into_iter()
        .map(|(shape, src, _)| (shape, src))
        .collect();
    // What used to overflow a connection thread's stack and abort the
    // daemon: a thousand nested parentheses, ten thousand terms.
    hostile.push((
        "1 000 parentheses",
        format!(
            "var q: long = 0; q := {}1{};",
            "(".repeat(1000),
            ")".repeat(1000)
        ),
    ));
    hostile.push((
        "10 000 terms",
        format!("var q: long = 0; q := 1{};", " + 1".repeat(9999)),
    ));
    for (shape, src) in &hostile {
        let err = client.run(src, vec![], vec![], false).unwrap_err();
        assert!(is_the_nesting_diagnostic(&err), "{shape}: {err}");
    }
    // The deepest accepted programs are served on the connection's own
    // thread, lints and plan hash included.
    for (shape, src, want) in shapes(MAX_NESTING) {
        let served = client
            .run(&src, vec![], vec![], false)
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        let q = served.outputs.iter().find(|(name, _)| name == "q");
        assert_eq!(
            q.map(|(_, out)| out),
            Some(&Output::Scalar(Value::Long(want))),
            "{shape}"
        );
    }
    let served = client
        .run("var q: long = 0; q := 1 + 2;", vec![], vec![], false)
        .expect("the daemon serves on");
    assert_eq!(
        served.outputs,
        vec![("q".to_string(), Output::Scalar(Value::Long(3)))]
    );
    server.stop();
}

#[test]
fn the_deepest_accepted_programs_run_on_a_2_mib_stack() {
    thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for (shape, src, want) in shapes(MAX_NESTING) {
                let compiled = compile(&src).unwrap_or_else(|e| panic!("{shape}: {e}"));
                let mut session = Session::new(Context::new(2, 2));
                session.run(&compiled).expect("runs");
                assert_eq!(session.scalar("q"), Some(Value::Long(want)), "{shape}");

                let tp = typecheck(parse(&src).expect("parses")).expect("typechecks");
                let mut interp = Interpreter::new();
                interp.run(&tp).expect("interprets");
                assert_eq!(interp.scalar("q"), Some(Value::Long(want)), "{shape}");
            }
        })
        .expect("spawn")
        .join()
        .expect("no stack overflow");
}
