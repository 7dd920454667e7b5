//! Serving conformance: `diablod` vs a local single-shot session.
//!
//! The contract (see `diablo-serve`'s crate docs): a program served over
//! the socket returns byte-identical outputs — and byte-identical error
//! messages, statement tags included — to a local run of the same
//! program, no matter how many clients are hammering the server or
//! whether the response came from the result cache.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use diablo_core::compile;
use diablo_dataflow::Context;
use diablo_exec::Session;
use diablo_runtime::Value;
use diablo_serve::{
    proto, Client, Output, Request, RequestStats, Response, RunResult, ServeConfig, Server,
};
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

/// Outputs as the wire carries them in a reply.
fn outputs_bytes(outputs: Vec<(String, Output)>) -> Vec<u8> {
    Response::RunOk {
        outputs,
        stats: RequestStats::default(),
        warnings: Vec::new(),
    }
    .encode()
    .expect("encodes")
}

#[test]
fn concurrent_clients_read_one_bound_dataset() {
    // Every Fig. 3 input is bound once, by name, and no request sends
    // rows: two clients run each program several times, uncached, so
    // their stages scan the one row vector the server holds at the same
    // time. Programs that declare an input of the same name are run in
    // different rounds, each round binding its own inputs.
    let mut rounds: Vec<Vec<wl::Workload>> = Vec::new();
    for w in wl::figure3_workloads(1, 13) {
        let names = |w: &wl::Workload| w.collections.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        let apart = |round: &Vec<wl::Workload>| {
            round
                .iter()
                .all(|x| names(x).iter().all(|n| !names(&w).contains(n)))
        };
        match rounds.iter_mut().find(|round| apart(round)) {
            Some(round) => round.push(w),
            None => rounds.push(vec![w]),
        }
    }
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let mut control = Client::connect(&addr).expect("connect");

    const CLIENTS: usize = 2;
    const RUNS: usize = 3;
    for round in rounds {
        for w in &round {
            for (name, rows) in &w.collections {
                control.bind_dataset(name, rows.clone()).expect("bind");
            }
        }
        let expected: Arc<Vec<Vec<u8>>> = Arc::new(
            round
                .iter()
                .map(|w| outputs_bytes(local_outputs(w).expect(w.name)))
                .collect(),
        );
        let round = Arc::new(round);
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, round, expected, barrier) = (
                    addr.clone(),
                    round.clone(),
                    expected.clone(),
                    barrier.clone(),
                );
                thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    barrier.wait();
                    for run in 0..RUNS {
                        for i in 0..round.len() {
                            let at = (i + c) % round.len();
                            let w = &round[at];
                            let scalars = remote_bindings(w).0;
                            let res = client
                                .run(w.source, scalars, Vec::new(), true)
                                .unwrap_or_else(|e| panic!("{} (client {c}): {e}", w.name));
                            assert!(!res.stats.cache_hit, "{} ran", w.name);
                            assert!(
                                outputs_bytes(res.outputs) == expected[at],
                                "{} (client {c}, run {run})",
                                w.name
                            );
                        }
                    }
                })
            })
            .collect();
        for h in clients {
            h.join().expect("client thread");
        }
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
fn a_client_that_drops_its_connection_mid_run_frees_its_admission_slot() {
    // One execution slot: a run whose client is gone before its reply
    // must give the slot back, or the next request waits out its queue
    // deadline and times out.
    let workloads = wl::figure3_workloads(1, 9);
    let cfg = ServeConfig {
        max_inflight: 1,
        queue_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", Context::new(2, 4), cfg).expect("server");
    let addr = server.addr().to_string();
    let mut control = Client::connect(&addr).expect("connect");
    let mut stats =
        || -> HashMap<String, u64> { control.stats().expect("stats").into_iter().collect() };

    // Client A sends a run and closes its stream without reading.
    let (scalars, rows) = remote_bindings(&workloads[0]);
    let run = Request::Run {
        program: workloads[0].source.to_string(),
        scalars,
        rows,
        no_cache: false,
    };
    let mut a = TcpStream::connect(&addr).expect("connect");
    proto::write_frame(&mut a, &run.encode().expect("encodes")).expect("a Run frame");
    drop(a);
    while stats()["admitted"] < 1 {
        thread::sleep(Duration::from_millis(1));
    }

    // Client B, and then a third run, are admitted and answered with
    // their local runs' bytes.
    for (w, admitted) in workloads[1..3].iter().zip([2, 3]) {
        let (scalars, rows) = remote_bindings(w);
        let res = Client::connect(&addr)
            .expect("connect")
            .run(w.source, scalars, rows, false)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let local = local_outputs(w).expect(w.name);
        assert_eq!(
            outputs_bytes(res.outputs),
            outputs_bytes(local),
            "{}",
            w.name
        );
        let stats = stats();
        assert_eq!(stats["admitted"], admitted, "{stats:?}");
        assert_eq!(stats["admission_timeouts"], 0, "{stats:?}");
    }
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

/// The rows of array `name` after the interpreter runs `w`.
fn interpreted_rows(w: &wl::Workload, name: &str) -> Vec<Value> {
    let tp = diablo_lang::typecheck(diablo_lang::parse(w.source).unwrap()).unwrap();
    let mut interp = diablo_interp::Interpreter::new();
    for (n, v) in &w.scalars {
        interp.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        interp.bind_collection(n, rows.clone()).unwrap();
    }
    interp.run(&tp).expect("interprets");
    interp.collection(name).expect("an array")
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
        // §5 blocks with ragged edge blocks, spilled through the exchange.
        wl::matrix_addition(33, 77),
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
    type Reply = (bool, Vec<u8>, usize, Vec<(String, Output)>);
    let phase = |no_cache: bool| -> Vec<Vec<Reply>> {
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, workloads, barrier) = (addr.clone(), workloads.clone(), barrier.clone());
                thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    barrier.wait();
                    (0..workloads.len())
                        .map(|i| {
                            let at = (i + c) % workloads.len();
                            let w = &workloads[at];
                            let (scalars, rows) = remote_bindings(w);
                            let res = client
                                .run(w.source, scalars, rows, no_cache)
                                .unwrap_or_else(|e| panic!("{} (client {c}): {e}", w.name));
                            (res.stats.cache_hit, reply_bytes(&res), at, res.outputs)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    };
    let (cold, warm) = (phase(true), phase(false));
    let pairs = cold.iter().flatten().zip(warm.iter().flatten());
    let interpreted = interpreted_rows(workloads.last().expect("a workload"), "R");
    for (i, ((cold_hit, cold, at, outputs), (warm_hit, warm, ..))) in pairs.enumerate() {
        assert!(
            !cold_hit && *warm_hit,
            "reply {i}: hits {cold_hit} → {warm_hit}"
        );
        assert_eq!(warm, cold, "reply {i}");
        if *at == workloads.len() - 1 {
            // Element-wise blocks give the interpreter's rows, bit for bit.
            let rows = outputs.iter().find(|(name, _)| name == "R");
            assert_eq!(
                rows,
                Some(&("R".to_string(), Output::Rows(interpreted.clone()))),
                "reply {i}"
            );
        }
    }
    let mut client = Client::connect(&addr).expect("connect");
    let stats: HashMap<String, u64> = client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["admission_timeouts"], 0, "{stats:?}");
    assert!(stats["peak_queued"] >= 1, "the overload queued: {stats:?}");
    server.stop();
}
