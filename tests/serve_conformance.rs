//! Serving conformance: `diablod` vs a local single-shot session.
//!
//! The contract (see `diablo-serve`'s crate docs): a program served over
//! the socket returns byte-identical outputs — and byte-identical error
//! messages, statement tags included — to a local run of the same
//! program, no matter how many clients are hammering the server or
//! whether the response came from the result cache.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;

use diablo_core::compile;
use diablo_dataflow::Context;
use diablo_exec::Session;
use diablo_runtime::Value;
use diablo_serve::{Client, Output, RequestStats, Response, RunResult, ServeConfig, Server};
use diablo_workloads as wl;

/// Runs a workload locally, producing outputs shaped exactly like a
/// server response: `(name, output)` per visible variable, sorted by
/// name — an independent reimplementation of the response assembly, so
/// the test does not inherit a server-side bug.
fn local_outputs(w: &wl::Workload) -> Result<Vec<(String, Output)>, String> {
    let compiled = compile(w.source).map_err(|e| e.to_string())?;
    let mut session = Session::new(Context::new(2, 4));
    for (name, v) in &w.scalars {
        session.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        session.bind_input(name, rows.clone());
    }
    session.run(&compiled).map_err(|e| e.to_string())?;
    let mut names: Vec<(String, bool)> = compiled
        .var_types
        .iter()
        .filter(|(n, _)| !n.contains('#'))
        .map(|(n, t)| (n.clone(), t.is_collection()))
        .collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    let mut outputs = Vec::new();
    for (name, is_collection) in names {
        if is_collection {
            if let Some(rows) = session.collect(&name) {
                outputs.push((name, Output::Rows(rows)));
            }
        } else if let Some(v) = session.scalar(&name) {
            outputs.push((name, Output::Scalar(v)));
        }
    }
    Ok(outputs)
}

type Scalars = Vec<(String, Value)>;
type RowBindings = Vec<(String, Vec<Value>)>;

fn remote_bindings(w: &wl::Workload) -> (Scalars, RowBindings) {
    (
        w.scalars
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect(),
        w.collections
            .iter()
            .map(|(n, r)| (n.to_string(), r.clone()))
            .collect(),
    )
}

#[test]
fn concurrent_clients_match_local_runs_byte_for_byte() {
    let workloads = Arc::new(wl::figure3_workloads(1, 9));
    let expected: Arc<Vec<_>> = Arc::new(
        workloads
            .iter()
            .map(|w| local_outputs(w).expect(w.name))
            .collect(),
    );
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();

    const CLIENTS: usize = 4;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let workloads = workloads.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                // Two passes: the first mixes cold runs and stampeding
                // concurrent misses, the second is mostly cache hits.
                // Either way every response must equal the local run.
                for pass in 0..2 {
                    for i in 0..workloads.len() {
                        let idx = (i + c + pass) % workloads.len();
                        let w = &workloads[idx];
                        let (scalars, rows) = remote_bindings(w);
                        let res = client
                            .run(w.source, scalars, rows, false)
                            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                        assert_eq!(
                            res.outputs, expected[idx],
                            "{} (client {c}, pass {pass})",
                            w.name
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

const DIV_BY_ZERO: &str = "
    input V: vector[long];
    var X: vector[long] = vector();
    for i = 0, 9 do X[i] := 100 / V[i];
";

fn div_rows() -> Vec<Value> {
    (0..10)
        .map(|i| Value::pair(Value::Long(i), Value::Long(i - 4))) // V[4] = 0
        .collect()
}

#[test]
fn error_messages_and_statement_tags_match_local_runs() {
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Runtime error: the message — statement tag included — must be
    // exactly what the local session reports.
    let compiled = compile(DIV_BY_ZERO).expect("compiles");
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input("V", div_rows());
    let local = session.run(&compiled).unwrap_err().to_string();
    assert!(local.contains(":X"), "tagged locally: {local}");
    let remote = client
        .run(
            DIV_BY_ZERO,
            vec![],
            vec![("V".to_string(), div_rows())],
            false,
        )
        .unwrap_err();
    assert_eq!(remote, local);

    // Errors are never cached: the identical failing request reports the
    // identical error again, not a stale cached success or blank hit.
    let again = client
        .run(
            DIV_BY_ZERO,
            vec![],
            vec![("V".to_string(), div_rows())],
            false,
        )
        .unwrap_err();
    assert_eq!(again, local);

    // Unbound input: same message as Session::run.
    let mut unbound = Session::new(Context::new(2, 4));
    let local_unbound = unbound.run(&compiled).unwrap_err().to_string();
    let remote_unbound = client.run(DIV_BY_ZERO, vec![], vec![], false).unwrap_err();
    assert_eq!(remote_unbound, local_unbound);

    // Compile error: the server reports the compiler's message verbatim.
    let bad = "input V: vector[long]; for i = 1, 8 do V[i] := V[i-1];";
    let local_compile = compile(bad).unwrap_err().to_string();
    let remote_compile = client.run(bad, vec![], vec![], false).unwrap_err();
    assert_eq!(remote_compile, local_compile);

    server.stop();
}

#[test]
fn concurrent_failures_keep_their_own_statement_tags() {
    // Two programs failing at different statements, hammered
    // concurrently: each response must carry the tag of *its* failing
    // statement. This is what Context::fork exists for — a shared
    // statement label would interleave tags across tenants.
    let later_failure = "
        input V: vector[long];
        var W: vector[long] = vector();
        var Y: vector[long] = vector();
        for i = 0, 9 do W[i] := V[i] + 1;
        for i = 0, 9 do Y[i] := 100 / V[i];
    ";
    // The ground truth per program comes from a local session, tag and
    // all — no hardcoded statement numbers.
    let local_err = |src: &str| {
        let compiled = compile(src).expect(src);
        let mut s = Session::new(Context::new(2, 4));
        s.bind_input("V", div_rows());
        s.run(&compiled).unwrap_err().to_string()
    };
    let expect_x = local_err(DIV_BY_ZERO);
    let expect_y = local_err(later_failure);
    assert!(expect_x.contains(":X"), "{expect_x}");
    assert!(expect_y.contains(":Y"), "{expect_y}");
    assert_ne!(expect_x, expect_y);

    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let (src, expected) = if c % 2 == 0 {
                (DIV_BY_ZERO, expect_x.clone())
            } else {
                (later_failure, expect_y.clone())
            };
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for _ in 0..5 {
                    let err = client
                        .run(src, vec![], vec![("V".to_string(), div_rows())], true)
                        .unwrap_err();
                    assert_eq!(err, expected, "wrong error for client {c}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

#[test]
fn identical_concurrent_misses_coalesce_into_one_execution() {
    // Request coalescing: a burst of identical cold requests must
    // execute the program ONCE. Whatever the interleaving, every
    // non-leader either waits on the in-flight leader (`coalesced`) or
    // hits the result cache after it settles — it never occupies an
    // admission slot with a duplicate execution. The `admitted` counter
    // is the executed-run count, so it pins the invariant exactly.
    let w = &wl::figure3_workloads(1, 9)[0];
    let expected = local_outputs(w).expect(w.name);
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = barrier.clone();
            let (scalars, rows) = remote_bindings(w);
            let name = w.name;
            let source = w.source;
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                client
                    .run(source, scalars, rows, false)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for res in &results {
        assert_eq!(res.outputs, expected, "coalesced responses match local");
    }
    let leaders = results.iter().filter(|r| !r.stats.cache_hit).count();
    assert_eq!(leaders, 1, "exactly one request executed");

    let mut client = Client::connect(&addr).expect("connect");
    let stats: HashMap<String, u64> = client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["admitted"], 1, "duplicates never reached admission");
    // Every non-leader was served by coalescing or by the result cache.
    assert_eq!(
        stats["coalesced"] + stats["cache_hits"],
        (CLIENTS - 1) as u64,
        "{stats:?}"
    );
    server.stop();
}

#[test]
fn coalesced_waiters_share_the_leaders_error_uncached() {
    // A leader that fails must propagate the SAME error to every waiter
    // (re-running an identical failing program per waiter would cost a
    // full execution each) — and never cache it: a fresh request after
    // the burst re-executes.
    let expected = {
        let compiled = compile(DIV_BY_ZERO).expect("compiles");
        let mut s = Session::new(Context::new(2, 4));
        s.bind_input("V", div_rows());
        s.run(&compiled).unwrap_err().to_string()
    };
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                client
                    .run(
                        DIV_BY_ZERO,
                        vec![],
                        vec![("V".to_string(), div_rows())],
                        false,
                    )
                    .unwrap_err()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("client thread"), expected);
    }
    // Errors are never cached: the next identical request re-executes
    // and fails with the same message again.
    let mut client = Client::connect(&addr).expect("connect");
    let again = client
        .run(
            DIV_BY_ZERO,
            vec![],
            vec![("V".to_string(), div_rows())],
            false,
        )
        .unwrap_err();
    assert_eq!(again, expected);
    let stats: HashMap<String, u64> = client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["cache_hits"], 0, "errors are never cached");
    server.stop();
}

/// A reply as the wire carries it, per-request stats aside.
fn reply_bytes(res: &RunResult) -> Vec<u8> {
    Response::RunOk {
        outputs: res.outputs.clone(),
        stats: RequestStats::default(),
        warnings: res.warnings.clone(),
    }
    .encode()
    .expect("encodes")
}

#[test]
fn overload_under_a_spilling_budget_queues_and_warm_replies_are_the_cold_bytes() {
    // Twice as many clients as execution slots, on an engine whose 4 KiB
    // exchange budget makes every shuffle spill: admission must queue the
    // excess — never fail a request, never time one out — and once the
    // cache is warm every reply is a hit with its cold reply's bytes.
    const MAX_INFLIGHT: usize = 2;
    const CLIENTS: usize = 2 * MAX_INFLIGHT;
    let workloads = Arc::new(vec![
        wl::matrix_multiplication(10, 71),
        wl::matrix_multiplication(12, 72),
        wl::matrix_multiplication(14, 73),
        wl::pagerank(40, 2, 74),
        wl::pagerank(60, 3, 75),
        wl::matrix_factorization(10, 2, 1, 76),
    ]);
    let ctx = Context::new(2, 4).with_memory_budget(4096);
    let cfg = ServeConfig {
        max_inflight: MAX_INFLIGHT,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", ctx, cfg).expect("server");
    let addr = server.addr().to_string();

    // One phase: every client runs every workload once, starting together
    // and rotated so that concurrent requests are distinct programs (equal
    // ones would coalesce rather than queue). Each client keeps its
    // rotation across phases, so reply `i` of a client is the same
    // workload in both.
    let phase = |no_cache: bool| -> Vec<Vec<(bool, Vec<u8>)>> {
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, workloads, barrier) = (addr.clone(), workloads.clone(), barrier.clone());
                thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    barrier.wait();
                    (0..workloads.len())
                        .map(|i| {
                            let w = &workloads[(i + c) % workloads.len()];
                            let (scalars, rows) = remote_bindings(w);
                            let res = client
                                .run(w.source, scalars, rows, no_cache)
                                .unwrap_or_else(|e| panic!("{} (client {c}): {e}", w.name));
                            (res.stats.cache_hit, reply_bytes(&res))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    };
    let (cold, warm) = (phase(true), phase(false));
    let pairs = cold.iter().flatten().zip(warm.iter().flatten());
    for (i, ((cold_hit, cold), (warm_hit, warm))) in pairs.enumerate() {
        assert!(
            !cold_hit && *warm_hit,
            "reply {i}: hits {cold_hit} → {warm_hit}"
        );
        assert_eq!(warm, cold, "reply {i}");
    }
    let mut client = Client::connect(&addr).expect("connect");
    let stats: HashMap<String, u64> = client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["admission_timeouts"], 0, "{stats:?}");
    assert!(stats["peak_queued"] >= 1, "the overload queued: {stats:?}");
    server.stop();
}
