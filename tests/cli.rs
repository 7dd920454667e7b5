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
    // column tiles (`V[i] / y`, `V[i] % y`, `-V[i]` over a long lane), on
    // the row layout and in the interpreter.
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
    let columnar = run(&["run", "--backend", "columnar"]);
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
    assert_eq!(run(&["run", "--backend", "local"]), columnar);
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
fn backend_flag_selects_executor_and_outputs_match() {
    let p = write_temp(
        "wc_backend.dbl",
        "input words: vector[string];
         var C: map[string, long] = map();
         for w in words do C[w] += 1;",
    );
    let csv = write_temp("wc_backend.csv", "0,a\n1,b\n2,a\n3,c\n4,a\n");
    let run = |args: &[&str]| {
        let mut cmd = diabloc();
        for a in args {
            cmd.arg(a);
        }
        let out = cmd
            .arg(&p)
            .arg(format!("words=@{}", csv.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let default = run(&["run"]);
    let columnar = run(&["run", "--backend", "columnar"]);
    let local = run(&["run", "--backend", "local"]);
    let local_eq = run(&["run", "--backend=local"]);
    assert_eq!(default, local, "layouts must produce byte-identical output");
    assert_eq!(default, columnar);
    assert_eq!(local, local_eq);
    // Even with a zero budget — every exchanged bucket through disk.
    let local0 = run(&["run", "--backend", "local", "--memory-budget", "0"]);
    assert_eq!(default, local0, "fully spilled run must match the default");
    // explain names the backend it executed on.
    for backend in ["local", "columnar"] {
        let out = diabloc()
            .arg("explain")
            .arg("--backend")
            .arg(backend)
            .arg(&p)
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("`{backend}` backend")), "{text}");
    }
}

#[test]
fn run_prints_each_collection_sorted_by_key() {
    // Keyed operators leave rows in hash-bucket order; `diabloc run`
    // prints every collection sorted by key whatever the layout, worker
    // and partition counts.
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
        &["--backend", "local", "--partitions", "5"],
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
fn backend_flag_rejects_unknown_names_and_wrong_commands() {
    let p = write_temp("backend_err.dbl", "var k: long = 0;");
    let out = diabloc()
        .arg("run")
        .arg("--backend")
        .arg("spark")
        .arg(&p)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("unknown backend"), "{stderr}");
    assert!(
        stderr.contains("(try columnar, local)"),
        "the error must list every valid backend: {stderr}"
    );
    for gone in ["tile", "spill", "morsel"] {
        let out = diabloc()
            .args(["run", "--backend", gone])
            .arg(&p)
            .output()
            .unwrap();
        assert!(!out.status.success(), "`{gone}` is no backend any more");
    }
    let out = diabloc()
        .arg("check")
        .arg("--backend")
        .arg("local")
        .arg(&p)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("only apply to `run` and `explain`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
    // Engine flags are rejected for commands that run no engine, exactly
    // like --backend.
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
        .arg("--backend")
        .arg("local")
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
    let out = Command::new(env!("CARGO_BIN_EXE_diablod"))
        .arg("--backend")
        .arg("spark")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown backend"), "{stderr}");
    assert!(stderr.contains("(try columnar, local)"), "{stderr}");
    // The usage line lists the default layout.
    let out = Command::new(env!("CARGO_BIN_EXE_diablod"))
        .arg("--frobnicate")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--backend <columnar|local>"), "{stderr}");
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
