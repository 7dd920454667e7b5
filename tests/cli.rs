//! Integration tests for the `diabloc` command-line compiler and the
//! `diablod` serving daemon.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

fn diabloc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diabloc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("diabloc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn check_accepts_valid_programs() {
    let p = write_temp(
        "ok.dbl",
        "input V: vector[double];
         var sum: double = 0.0;
         for v in V do sum += v;",
    );
    let out = diabloc().arg("check").arg(&p).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));
}

#[test]
fn check_rejects_recurrences_with_diagnostics() {
    let p = write_temp(
        "bad.dbl",
        "input V: vector[double];
         input n: long;
         for i = 1, n-2 do V[i] := (V[i-1] + V[i+1]) / 2.0;",
    );
    let out = diabloc().arg("check").arg(&p).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("dependence"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn show_prints_bulk_statements() {
    let p = write_temp(
        "show.dbl",
        "input words: vector[string];
         var C: map[string, long] = map();
         for w in words do C[w] += 1;",
    );
    let out = diabloc().arg("show").arg(&p).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("group by"), "{text}");
    assert!(text.contains("⊳[+]"), "{text}");
}

#[test]
fn run_and_interp_agree_on_csv_inputs() {
    let program = write_temp(
        "gb.dbl",
        "input V: vector[long];
         var C: vector[long] = vector();
         var total: long = 0;
         for i = 0, 9 do C[V[i]] += 1;
         for i = 0, 9 do total += V[i];",
    );
    let data = write_temp("v.csv", "0,5\n1,5\n2,7\n3,5\n4,7\n");
    let run = |cmd: &str| -> String {
        let out = diabloc()
            .arg(cmd)
            .arg(&program)
            .arg(format!("V=@{}", data.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let engine = run("run");
    let interp = run("interp");
    for text in [&engine, &interp] {
        assert!(text.contains("total = 29"), "{text}");
        assert!(text.contains("(5, 3)"), "{text}");
        assert!(text.contains("(7, 2)"), "{text}");
    }

    // Long arithmetic wraps at the edges of long, alike on the driver, in
    // column tiles (`V[i] / y`, `V[i] % y`, `-V[i]` over a long lane) and
    // in the interpreter.
    let program = write_temp(
        "wrap.dbl",
        "input V: vector[long];
         input x: long;
         input y: long;
         var Q: vector[long] = vector();
         var R: vector[long] = vector();
         var N: vector[long] = vector();
         var A: vector[long] = vector();
         var q: long = 0;
         var r: long = 0;
         var n: long = 0;
         var a: long = 0;
         for i = 0, 2 do {
             Q[i] := V[i] / y;
             R[i] := V[i] % y;
             N[i] := -V[i];
             A[i] := abs(V[i]);
         };
         q := x / y;
         r := x % y;
         n := -x;
         a := abs(x);",
    );
    let data = write_temp(
        "wrap.csv",
        "0,-9223372036854775808\n1,9223372036854775807\n2,-7\n",
    );
    let run = |args: &[&str]| -> String {
        let out = diabloc()
            .args(args)
            .arg(&program)
            .arg(format!("V=@{}", data.display()))
            .arg("x=-9223372036854775808")
            .arg("y=-1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let columnar = run(&["run"]);
    for scalar in ["q", "n", "a"] {
        let want = format!("{scalar} = -9223372036854775808");
        assert!(columnar.contains(&want), "{columnar}");
    }
    assert!(columnar.contains("r = 0"), "{columnar}");
    let min = "(0, -9223372036854775808)";
    for (array, row) in [("Q", min), ("R", "(0, 0)"), ("N", min), ("A", min)] {
        let block = format!("{array} = {{ 3 element(s) }}\n  {row}\n");
        assert!(columnar.contains(&block), "{block}: {columnar}");
    }
    assert_eq!(run(&["interp"]), columnar);
}

#[test]
fn scalar_bindings_parse_types() {
    let program = write_temp(
        "scalars.dbl",
        "input n: long;
         input a: double;
         var x: double = 0.0;
         x := a * n;",
    );
    let out = diabloc()
        .arg("run")
        .arg(&program)
        .arg("n=4")
        .arg("a=2.5")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("x = 10"));
}

#[test]
fn explain_renders_fused_plan_for_word_count() {
    let p = write_temp(
        "wc_explain.dbl",
        "input words: vector[string];
         var C: map[string, long] = map();
         for w in words do C[w] += 1;",
    );
    // No bindings: inputs are synthesized from their declared types.
    for args in [vec!["explain"], vec!["run", "--explain"]] {
        let mut cmd = diabloc();
        for a in args {
            cmd.arg(a);
        }
        let out = cmd.arg(&p).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("physical plan"), "{text}");
        assert!(text.contains("`columnar` backend"), "{text}");
        assert!(text.contains("fused"), "{text}");
        assert!(text.contains("reduce_by_key"), "{text}");
        assert!(text.contains("shuffle"), "{text}");
        // The optimizer's fire counts close the output, under the plan.
        let last = text.lines().last().unwrap_or_default();
        assert!(last.starts_with("rewrites: unnest "), "{text}");
        assert!(last.ends_with(" visits"), "{text}");
    }
}

#[test]
fn explain_renders_fused_plan_for_kmeans() {
    let p = write_temp("kmeans_explain.dbl", diablo_workloads::programs::KMEANS);
    let out = diabloc()
        .arg("explain")
        .arg(&p)
        .arg("K=2")
        .arg("N=6")
        .arg("num_steps=1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("physical plan"), "{text}");
    assert!(text.contains("fused"), "{text}");
    assert!(text.contains("broadcast"), "{text}");
    assert!(text.contains("while"), "{text}");
}

#[test]
fn usage_errors_are_reported() {
    let out = diabloc()
        .arg("frobnicate")
        .arg("/nonexistent")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = diabloc().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // An unknown flag — `--backend` included — is named in the error with
    // the usage line, whichever form and command it takes.
    let p = write_temp("unknown_flag.dbl", "var k: long = 0;");
    for args in [
        &["run", "--bogus"][..],
        &["run", "--backend", "local"],
        &["explain", "--backend=columnar"],
        &["check", "--backend", "local"],
    ] {
        let out = diabloc().args(args).arg(&p).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{}", args[1])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: diabloc"), "{args:?}: {stderr}");
        assert!(!stderr.contains("No such file"), "{args:?}: {stderr}");
    }
    // Never read: the flag is rejected before the (missing) file.
    let out = diabloc()
        .args(["run", "--bogus", "/nonexistent/p.dbl"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
}

#[test]
fn run_prints_each_collection_sorted_by_key() {
    // Keyed operators leave rows in hash-bucket order; `diabloc run`
    // prints every collection sorted by key whatever the worker and
    // partition counts.
    let p = write_temp(
        "sorted_keys.dbl",
        "input words: vector[string];
         var C: map[string, long] = map();
         var D: vector[long] = vector();
         for w in words do C[w] += 1;
         for i = 0, 17 do D[(i * 7) % 18] += i;",
    );
    let csv = write_temp(
        "sorted_keys.csv",
        "0,pear\n1,fig\n2,plum\n3,fig\n4,apple\n5,kiwi\n6,pear\n",
    );
    let configs: [&[&str]; 3] = [
        &[],
        &["--workers", "3", "--partitions", "7"],
        &["--partitions", "5"],
    ];
    for flags in configs {
        let out = diabloc()
            .arg("run")
            .args(flags)
            .arg(&p)
            .arg(format!("words=@{}", csv.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        // The keys of collection `name`, as its element lines spell them.
        let keys = |name: &str| -> Vec<String> {
            let header = format!("{name} = ");
            text.lines()
                .skip_while(|l| !l.starts_with(&header))
                .skip(1)
                .take_while(|l| l.starts_with("  ("))
                .map(|l| l[3..].split(", ").next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            keys("C"),
            ["\"apple\"", "\"fig\"", "\"kiwi\"", "\"pear\"", "\"plum\""],
            "{flags:?}: {text}"
        );
        let d: Vec<i64> = keys("D").iter().map(|k| k.parse().unwrap()).collect();
        assert_eq!(d, (0..18).collect::<Vec<_>>(), "{flags:?}: {text}");
    }
}

#[test]
fn engine_shape_flags_apply_to_run_and_are_rejected_elsewhere() {
    let p = write_temp(
        "shape.dbl",
        "input V: vector[long];
         var C: vector[long] = vector();
         for i = 0, 9 do C[V[i]] += 1;",
    );
    let csv = write_temp("shape.csv", "0,5\n1,5\n2,7\n3,5\n4,7\n");
    let run = |args: &[&str]| {
        let mut cmd = diabloc();
        for a in args {
            cmd.arg(a);
        }
        cmd.arg(&p).arg(format!("V=@{}", csv.display()));
        cmd.output().unwrap()
    };
    let base = run(&["run"]);
    assert!(base.status.success());
    let shaped = run(&[
        "run",
        "--workers",
        "2",
        "--partitions",
        "3",
        "--memory-budget=0",
    ]);
    assert!(
        shaped.status.success(),
        "{}",
        String::from_utf8_lossy(&shaped.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&base.stdout),
        String::from_utf8_lossy(&shaped.stdout),
        "context shape and spilling must not change results"
    );
    // Engine flags are rejected for commands that run no engine.
    for (cmd, flag) in [
        ("check", "--workers=2"),
        ("show", "--partitions=4"),
        ("interp", "--memory-budget=1024"),
    ] {
        let out = diabloc().arg(cmd).arg(flag).arg(&p).output().unwrap();
        assert!(!out.status.success(), "{cmd} must reject {flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("only apply to `run` and `explain`"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Invalid values fail loudly.
    let out = diabloc()
        .arg("run")
        .arg("--workers")
        .arg("0")
        .arg(&p)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a positive count"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Spawns `diablod` on an ephemeral port and returns the child plus the
/// resolved address parsed from its single readiness line.
fn spawn_diablod(extra: &[&str]) -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_diablod"))
        .arg("--listen")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("diablod: listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn diablod_serves_runs_identical_to_local_diabloc() {
    let program = write_temp(
        "served.dbl",
        "input V: vector[long];
         var C: vector[long] = vector();
         var total: long = 0;
         for i = 0, 9 do C[V[i]] += 1;
         for i = 0, 9 do total += V[i];",
    );
    let data = write_temp("served.csv", "0,5\n1,5\n2,7\n3,5\n4,7\n");
    let (mut child, addr) = spawn_diablod(&[]);

    let run = |args: &[&str]| {
        let mut cmd = diabloc();
        cmd.arg("run");
        for a in args {
            cmd.arg(a);
        }
        let out = cmd
            .arg(&program)
            .arg(format!("V=@{}", data.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let local = run(&[]);
    let remote = run(&["--connect", &addr]);
    assert_eq!(remote, local, "served output must match a local run");
    // A repeat of the same request is a cache hit — still byte-identical.
    let cached = run(&["--connect", &addr]);
    assert_eq!(cached, local);

    // Errors travel back verbatim, statement tags included.
    let bad = write_temp(
        "served_err.dbl",
        "input V: vector[long];
         var X: vector[long] = vector();
         for i = 0, 9 do X[i] := 100 / (V[i] - 5);",
    );
    let run_err = |args: &[&str]| {
        let mut cmd = diabloc();
        cmd.arg("run");
        for a in args {
            cmd.arg(a);
        }
        let out = cmd
            .arg(&bad)
            .arg(format!("V=@{}", data.display()))
            .output()
            .unwrap();
        assert!(!out.status.success());
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let local_err = run_err(&[]);
    let remote_err = run_err(&["--connect", &addr]);
    assert_eq!(remote_err, local_err);
    assert!(local_err.contains("division by zero"), "{local_err}");

    // Engine flags belong to the daemon, not to a connected client.
    let out = diabloc()
        .arg("run")
        .arg("--connect")
        .arg(&addr)
        .arg("--workers")
        .arg("2")
        .arg(&program)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--connect"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    child.kill().unwrap();
    child.wait().unwrap();
}

#[test]
fn diablod_rejects_bad_flags_before_binding() {
    let out = Command::new(env!("CARGO_BIN_EXE_diablod"))
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--frobnicate")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `--backend` is not an engine flag: a stray argument.
    let out = Command::new(env!("CARGO_BIN_EXE_diablod"))
        .arg("--backend")
        .arg("local")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected argument `--backend`"),
        "{stderr}"
    );
    // The usage line lists the engine flags.
    assert!(stderr.contains("[--workers N]"), "{stderr}");
    assert!(!stderr.contains("<columnar|local>"), "{stderr}");
}

#[test]
fn diablod_rejects_zero_workers_and_partitions_without_panicking() {
    // The parser `diabloc` uses: a clean error, exit code 1, not the
    // engine's `need at least one worker` panic (exit 101).
    for (flag, value) in [
        ("--workers", "0"),
        ("--partitions", "0"),
        ("--workers=0", ""),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_diablod"));
        cmd.arg("--listen").arg("127.0.0.1:0").arg(flag);
        if !value.is_empty() {
            cmd.arg(value);
        }
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("is not a positive count"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn csv_tuple_values_bind_point_vectors() {
    let p = write_temp(
        "tuple_csv.dbl",
        "input P: vector[(double, double)];
         var sx: double = 0.0;
         for p in P do sx += p._1;",
    );
    let csv = write_temp("points.csv", "0,(1.5 2.0)\n1,(2.5 3.0)\n");
    let out = diabloc()
        .arg("run")
        .arg(&p)
        .arg(format!("P=@{}", csv.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sx = 4"), "{text}");
}

#[test]
fn csv_inputs_reject_a_repeated_key() {
    // An array holds each key once (§3.4): a second row for a key is an
    // error naming both lines, before anything runs, for every command
    // that binds inputs.
    let p = write_temp(
        "dup_key.dbl",
        "input V: vector[long];
         var X: vector[long] = vector();
         for i = 0, 9 do X[i] := V[i];",
    );
    let csv = write_temp("dup_key.csv", "0,1\n1,2\n1,3\n");
    for cmd in ["run", "interp", "explain"] {
        let out = diabloc()
            .arg(cmd)
            .arg(&p)
            .arg(format!("V=@{}", csv.display()))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("line 3: key 1 already bound on line 2"),
            "{cmd}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd}");
    }
    // A matrix key is the pair of indices; comment lines keep their number.
    let m = write_temp(
        "dup_matrix.dbl",
        "input M: matrix[double];
         var s: double = 0.0;
         for v in M do s += v;",
    );
    let csv = write_temp("dup_matrix.csv", "0,0,1.0\n0,1,2.0\n# c\n0,0,3.0\n");
    let out = diabloc()
        .arg("run")
        .arg(&m)
        .arg(format!("M=@{}", csv.display()))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 4: key (0, 0) already bound on line 1"),
        "{stderr}"
    );
}

#[test]
fn the_least_long_literal_runs_and_interprets_alike() {
    let p = write_temp(
        "least_long.dbl",
        "var x: long = -9223372036854775808;
         var y: long = 0;
         y := x - 1;",
    );
    let outputs: Vec<String> = ["run", "interp"]
        .iter()
        .map(|cmd| {
            let out = diabloc().arg(cmd).arg(&p).output().unwrap();
            assert!(
                out.status.success(),
                "{cmd}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert!(
        outputs[0].contains("x = -9223372036854775808"),
        "{}",
        outputs[0]
    );
    assert!(
        outputs[0].contains("y = 9223372036854775807"),
        "{}",
        outputs[0]
    );
    // The magnitude alone is still no `long`.
    let big = write_temp("too_large.dbl", "var x: long = 9223372036854775808;");
    let out = diabloc().arg("run").arg(&big).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error[D001]: bad integer literal: number too large"),
        "{stderr}"
    );
}

#[test]
fn bindings_are_parsed_against_their_declared_types() {
    // A `long` input takes an integer only, for every command that binds
    // inputs: a double, a word or a number past `long` is an error naming
    // the input, its type and the text, before anything runs.
    let p = write_temp(
        "typed_scalar.dbl",
        "input n: long; var s: long = 0; s := n / 2;",
    );
    for text in ["3.0", "abc", "9223372036854775808"] {
        for cmd in ["run", "interp", "explain"] {
            let out = diabloc()
                .arg(cmd)
                .arg(&p)
                .arg(format!("n={text}"))
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{cmd} n={text}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let want = format!("input `n: long`: `{text}` is not a long");
            assert!(stderr.contains(&want), "{cmd}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd}");
        }
        // `run --connect` reads its bindings before it connects.
        let out = diabloc()
            .args(["run", "--connect", "127.0.0.1:1"])
            .arg(&p)
            .arg(format!("n={text}"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("is not a long"), "{stderr}");
    }
    // A `double` takes any number, an integer promoted.
    let d = write_temp(
        "typed_double.dbl",
        "input a: double; var x: double = 0.0; x := a / 2;",
    );
    for cmd in ["run", "interp"] {
        let out = diabloc().arg(cmd).arg(&d).arg("a=3").output().unwrap();
        assert!(out.status.success(), "{cmd}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("a = 3\n") && stdout.contains("x = 1.5"),
            "{stdout}"
        );
    }
    // A name the program declares no input for, and a scalar bound from a
    // file, are errors too.
    for (binding, want) in [
        ("m=3", "the program declares no input `m`"),
        ("n=@rows.csv", "input `n: long` is a scalar"),
    ] {
        let out = diabloc().arg("run").arg(&p).arg(binding).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{binding}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{stderr}");
    }
}

#[test]
fn csv_cells_are_parsed_against_their_declared_types() {
    // A map's string key `42` binds the string, not a long.
    let m = write_temp(
        "typed_map.dbl",
        "input M: map[string, long]; var s: long = 0; for v in M do s += v;",
    );
    let csv = write_temp("typed_map.csv", "42,7\nx,1\n");
    for cmd in ["run", "interp"] {
        let out = diabloc()
            .arg(cmd)
            .arg(&m)
            .arg(format!("M=@{}", csv.display()))
            .output()
            .unwrap();
        assert!(out.status.success(), "{cmd}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("(\"42\", 7)") && stdout.contains("s = 8"),
            "{stdout}"
        );
    }
    // A cell that is not of its type names the input, the file and line.
    let v = write_temp(
        "typed_vector.dbl",
        "input V: vector[(double, long)]; var s: long = 0; for p in V do s += p._2;",
    );
    for (rows, want) in [
        (
            "0,(1 2)\n1,(1.5 x)\n",
            "line 2: `(1.5 x)` is not a (double, long)",
        ),
        ("0,(1 2)\nk,(1 2)\n", "line 2: `k` is not a long"),
        ("0,(1 2 3)\n", "line 1: `(1 2 3)` is not a (double, long)"),
        ("0,0,(1 2)\n", "line 1: expected `key,value`"),
    ] {
        let csv = write_temp("typed_vector.csv", rows);
        for cmd in ["run", "interp", "explain"] {
            let out = diabloc()
                .arg(cmd)
                .arg(&v)
                .arg(format!("V=@{}", csv.display()))
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{cmd} {rows:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("input `V: vector[(double, long)]`") && stderr.contains(want),
                "{cmd}: {stderr}"
            );
        }
    }
    // A type CSV text cannot write is an error, not a guess.
    let r = write_temp(
        "typed_record.dbl",
        "input R: <| a: long |>; var s: long = 0;",
    );
    let out = diabloc().arg("run").arg(&r).arg("R=3").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot be written as CSV text"), "{stderr}");
}
