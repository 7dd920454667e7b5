//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! ```text
//! harness table1           # Table 1: translator times (DIABLO vs MOLD-like vs Casper-like)
//! harness table2           # Table 2: parallel (engine) vs sequential (interpreter)
//! harness fig3a .. fig3l   # Figure 3 panels: DIABLO vs hand-written (vs Casper) across sizes
//! harness tiles            # §5 ablation: sparse vs tiled matrix multiplication
//! harness ordered          # hash vs sort-based (key-ordered) aggregation
//! harness serve            # closed-loop diablod driver: N clients × M programs,
//!                          #   cold / cache-warm / 2× overload phases with
//!                          #   throughput and p50/p99 latency [--check]
//! harness all              # everything (used to fill EXPERIMENTS.md)
//! harness --json <cmd>     # machine-readable: one JSON object per row,
//!                          # each tagged with the execution backend
//! ```
//!
//! The end-to-end benchmark is the spine (`spine/README.md`); this binary
//! keeps the paper's tables and figures. Sizes are laptop-scale; see
//! DESIGN.md for the scale substitution. Set `DIABLO_SCALE` (default 1) to
//! grow every sweep, `DIABLO_BACKEND` (`columnar` or `local`) to pick the
//! engine's layout, and `DIABLO_MEMORY_BUDGET` to bound shuffle memory —
//! every engine-backed JSON row carries the full effective settings
//! (backend, workers, partitions, morsel size, memory budget, scheduler,
//! ordered) plus the spill counters (`spilled_records`, `spilled_bytes`,
//! `spill_files`).

use std::time::{Duration, Instant};

use diablo_baselines::casper_like::casper_translate_with_budget;
use diablo_baselines::mold_translate;
use diablo_bench::{
    compile_time, json_row, mb, millis, percentile, run_casper_program, run_diablo,
    run_handwritten, run_interp, secs, settings_fields, time_once,
};
use diablo_dataflow::Context;
use diablo_runtime::{TiledMatrix, Value};
use diablo_serve::{Client, ServeConfig, Server};
use diablo_workloads as wl;
use diablo_workloads::Workload;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let cmd = args.first().cloned().unwrap_or_else(|| "all".to_string());
    match cmd.as_str() {
        "table1" => table1(json),
        "table2" => table2(json),
        "tiles" => tiles(json),
        "ordered" => ordered(json),
        "serve" => {
            let check = args.iter().any(|a| a == "--check");
            serve_bench(json, check);
        }
        "all" => {
            table1(json);
            table2(json);
            for panel in PANELS {
                fig3(panel.0, json);
            }
            tiles(json);
            ordered(json);
        }
        other if other.starts_with("fig3") => {
            let letter = other.trim_start_matches("fig3");
            fig3(letter, json);
        }
        other => {
            eprintln!(
                "unknown command `{other}`; try table1, table2, fig3a..fig3l, tiles, ordered, serve, all"
            );
            std::process::exit(2);
        }
    }
}

fn scale() -> usize {
    std::env::var("DIABLO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

// ------------------------------------------------------------------ Table 1

/// Table 1: translation time per program for the three translators.
fn table1(json: bool) {
    if !json {
        println!("== Table 1: compilation time (seconds) =====================================");
    }
    if !json {
        println!(
            "{:<24} {:>12} {:>14} {:>14}",
            "test program", "DIABLO", "MOLD-like", "Casper-like"
        );
    }
    let n = 2_000;
    let entries: Vec<(Workload, bool)> = vec![
        (wl::average(n, 1), true),
        (wl::conditional_count(n, 2), true),
        (wl::conditional_sum(n, 3), true),
        (wl::count(n, 4), true),
        (wl::equal(n, 5), true),
        (wl::equal_frequency(n, 6), true),
        (wl::string_match(n, 7), true),
        (wl::sum(n, 8), true),
        (wl::word_count(n, 9), true),
        (wl::histogram(n, 10), true),
        (wl::matrix_multiplication(10, 11), false),
        (wl::linear_regression(n, 12), true),
        (wl::kmeans(400, 3, 1, 13), false),
        (wl::pca(n, 14), true),
        (wl::pagerank(40, 1, 15), false),
        (wl::matrix_factorization(10, 2, 1, 16), false),
    ];
    for (w, try_casper) in &entries {
        let diablo = compile_time(w);
        let (mold, tm) = time_once(|| mold_translate(w.source));
        let mold_cell = match mold {
            Ok(_) => secs(tm),
            Err(_) => "fail".to_string(),
        };
        let casper_cell = if *try_casper {
            let (c, tc) = time_once(|| casper_translate_with_budget(w, 300_000));
            match c {
                Ok(_) => secs(tc),
                Err(e) if e.contains("budget") || e.contains("no candidate") => {
                    format!("fail({})", secs(tc))
                }
                Err(_) => "fail".to_string(),
            }
        } else {
            "fail".to_string()
        };
        if json {
            println!(
                "{}",
                json_row(&[
                    ("bench", "table1"),
                    ("program", w.name),
                    // Compile-time rows run no engine; tagged for uniform
                    // downstream grouping by the "backend" key.
                    ("backend", "n/a"),
                    ("diablo_secs", &secs(diablo)),
                    ("mold", &mold_cell),
                    ("casper", &casper_cell),
                ])
            );
        } else {
            println!(
                "{:<24} {:>12} {:>14} {:>14}",
                w.name,
                secs(diablo),
                mold_cell,
                casper_cell
            );
        }
    }
    if !json {
        println!();
    }
}

// ------------------------------------------------------------------ Table 2

/// Table 2: parallel (engine) vs sequential (interpreter) evaluation.
fn table2(json: bool) {
    if !json {
        println!("== Table 2: parallel (par) vs sequential (seq) evaluation (seconds) ========");
        println!(
            "{:<24} {:>10} {:>12} {:>10} {:>8} {:>10}",
            "test program", "count", "size (MB)", "par", "stages", "seq"
        );
    }
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let s = 20 * scale();
    let workloads = vec![
        wl::conditional_sum(50_000 * s, 1),
        wl::equal(50_000 * s, 2),
        wl::string_match(50_000 * s, 3),
        wl::word_count(20_000 * s, 4),
        wl::histogram(20_000 * s, 5),
        wl::linear_regression(20_000 * s, 6),
        wl::group_by(20_000 * s, 7),
        wl::matrix_addition(16 * s, 8),
        wl::matrix_multiplication(3 * s, 9),
        wl::pagerank(20 * s, 2, 10),
        wl::kmeans(2_000 * s, 3, 1, 11),
        wl::matrix_factorization(2 * s, 2, 1, 12),
    ];
    for w in workloads {
        let before = ctx.stats().snapshot();
        let par = run_diablo(&w, &ctx);
        let stats = ctx.stats().snapshot().since(&before);
        let seq = run_interp(&w);
        if json {
            let rows_s = w.input_rows().to_string();
            let mb_s = mb(w.input_bytes());
            let par_s = secs(par);
            let stages = stats.physical_stages.to_string();
            let spill_rec = stats.spilled_records.to_string();
            let spill_bytes = stats.spilled_bytes.to_string();
            let spill_files = stats.spill_files.to_string();
            let vec_batches = stats.vectorized_batches.to_string();
            let row_fallbacks = stats.row_fallback_stages.to_string();
            let seq_s = secs(seq);
            let mut fields: Vec<(&str, &str)> = vec![("bench", "table2"), ("program", w.name)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("rows", rows_s.as_str()),
                ("mb", mb_s.as_str()),
                ("par_secs", par_s.as_str()),
                ("physical_stages", stages.as_str()),
                ("spilled_records", spill_rec.as_str()),
                ("spilled_bytes", spill_bytes.as_str()),
                ("spill_files", spill_files.as_str()),
                ("vectorized_batches", vec_batches.as_str()),
                ("row_fallback_stages", row_fallbacks.as_str()),
                ("seq_secs", seq_s.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:<24} {:>10} {:>12} {:>10} {:>8} {:>10}",
                w.name,
                w.input_rows(),
                mb(w.input_bytes()),
                secs(par),
                stats.physical_stages,
                secs(seq)
            );
        }
    }
    if !json {
        println!();
    }
}

// ----------------------------------------------------------------- Figure 3

type Maker = fn(usize, u64) -> Workload;

/// Panel id, display title, workload maker, base size, whether the Casper
/// line exists in the paper's panel.
const PANELS: &[(&str, &str, Maker, usize, bool)] = &[
    (
        "a",
        "Conditional Sum",
        |n, s| wl::conditional_sum(n, s),
        40_000,
        true,
    ),
    ("b", "Equal", |n, s| wl::equal(n, s), 40_000, true),
    (
        "c",
        "String Match",
        |n, s| wl::string_match(n, s),
        40_000,
        true,
    ),
    ("d", "Word Count", |n, s| wl::word_count(n, s), 40_000, true),
    ("e", "Histogram", |n, s| wl::histogram(n, s), 40_000, false),
    (
        "f",
        "Linear Regression",
        |n, s| wl::linear_regression(n, s),
        40_000,
        false,
    ),
    ("g", "Group By", |n, s| wl::group_by(n, s), 40_000, false),
    (
        "h",
        "Matrix Addition",
        |n, s| wl::matrix_addition(n, s),
        60,
        false,
    ),
    (
        "i",
        "Matrix Multiplication",
        |n, s| wl::matrix_multiplication(n, s),
        30,
        false,
    ),
    ("j", "PageRank", |n, s| wl::pagerank(n, 2, s), 150, false),
    (
        "k",
        "KMeans Clustering",
        |n, s| wl::kmeans(n, 10, 1, s),
        4_000,
        false,
    ),
    (
        "l",
        "Matrix Factorization",
        |n, s| wl::matrix_factorization(n, 2, 1, s),
        30,
        false,
    ),
];

/// One Figure 3 panel: a size sweep comparing DIABLO against the
/// hand-written program (and a Casper summary where the paper plots one).
fn fig3(letter: &str, json: bool) {
    let Some((_, title, maker, base, casper)) = PANELS.iter().find(|p| p.0 == letter) else {
        eprintln!("unknown panel fig3{letter}");
        std::process::exit(2);
    };
    if !json {
        println!(
            "== Figure 3{}: {title} ====================================",
            letter.to_uppercase()
        );
        // Wall-clock per system, with the number of physical (fused) engine
        // stages each plan ran next to it — the plan-shape difference behind
        // the timing gap.
        let header = if *casper {
            format!(
                "{:>12} {:>12} {:>9} {:>14} {:>9} {:>12}",
                "size (MB)", "DIABLO", "D-stages", "hand-written", "H-stages", "Casper"
            )
        } else {
            format!(
                "{:>12} {:>12} {:>9} {:>14} {:>9}",
                "size (MB)", "DIABLO", "D-stages", "hand-written", "H-stages"
            )
        };
        println!("{header}");
    }
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let s = scale();
    // The Casper summary is synthesized once, on the smallest size.
    let casper_prog = if *casper {
        casper_translate_with_budget(&maker(base / 5, 100), 300_000).ok()
    } else {
        None
    };
    for step in 1..=5usize {
        let n = base * step * s;
        let w = maker(n, 100 + step as u64);
        let before = ctx.stats().snapshot();
        let diablo = run_diablo(&w, &ctx);
        let d_stats = ctx.stats().snapshot().since(&before);
        let before = ctx.stats().snapshot();
        let hand = run_handwritten(&w, &ctx).expect("handwritten");
        let h_stats = ctx.stats().snapshot().since(&before);
        let casper_secs = casper_prog
            .as_ref()
            .map(|prog| secs(run_casper_program(prog, &w, &ctx).expect("casper run")));
        if json {
            let bench = format!("fig3{letter}");
            let mut fields: Vec<(&str, &str)> = vec![("bench", &bench), ("program", title)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            let mb_s = mb(w.input_bytes());
            let d_s = secs(diablo);
            let ds = d_stats.physical_stages.to_string();
            let d_spill_rec = d_stats.spilled_records.to_string();
            let d_spill_bytes = d_stats.spilled_bytes.to_string();
            let d_spill_files = d_stats.spill_files.to_string();
            let d_vec_batches = d_stats.vectorized_batches.to_string();
            let d_row_fallbacks = d_stats.row_fallback_stages.to_string();
            let h_s = secs(hand);
            let hs = h_stats.physical_stages.to_string();
            fields.extend([
                ("mb", mb_s.as_str()),
                ("diablo_secs", d_s.as_str()),
                ("diablo_stages", ds.as_str()),
                ("spilled_records", d_spill_rec.as_str()),
                ("spilled_bytes", d_spill_bytes.as_str()),
                ("spill_files", d_spill_files.as_str()),
                ("vectorized_batches", d_vec_batches.as_str()),
                ("row_fallback_stages", d_row_fallbacks.as_str()),
                ("handwritten_secs", h_s.as_str()),
                ("handwritten_stages", hs.as_str()),
            ]);
            if let Some(c) = &casper_secs {
                fields.push(("casper_secs", c.as_str()));
            }
            println!("{}", json_row(&fields));
        } else {
            let mut line = format!(
                "{:>12} {:>12} {:>9} {:>14} {:>9}",
                mb(w.input_bytes()),
                secs(diablo),
                d_stats.physical_stages,
                secs(hand),
                h_stats.physical_stages
            );
            if let Some(c) = &casper_secs {
                line = format!("{line} {c:>12}");
            }
            println!("{line}");
        }
    }
    if !json {
        println!();
    }
}

// --------------------------------------------------------- ordered shuffles

/// Hash vs sort-based aggregation: the same workloads once through the
/// hash shuffle and once through the key-ordered (range-scattered,
/// merge-read) path, with the sorted-shuffle and spill counters that
/// prove which path ran. JSON rows are tagged `mode` = `hash`/`sorted`.
fn ordered(json: bool) {
    if !json {
        println!("== Ordered aggregation: hash vs sort-based shuffle (seconds) ===============");
        println!(
            "{:<24} {:>8} {:>10} {:>14} {:>12}",
            "test program", "mode", "secs", "sorted_shufs", "spill_files"
        );
    }
    let s = scale();
    let workloads = || {
        vec![
            wl::word_count(20_000 * s, 31),
            wl::histogram(20_000 * s, 32),
            wl::group_by(20_000 * s, 33),
        ]
    };
    for mode in ["hash", "sorted"] {
        for w in workloads() {
            let ctx = Context::default_parallel();
            ctx.set_ordered(mode == "sorted");
            let settings = settings_fields(&ctx);
            let before = ctx.stats().snapshot();
            let t = run_diablo(&w, &ctx);
            let stats = ctx.stats().snapshot().since(&before);
            if json {
                let secs_s = secs(t);
                let sorted = stats.sorted_shuffles.to_string();
                let spill_rec = stats.spilled_records.to_string();
                let spill_bytes = stats.spilled_bytes.to_string();
                let spill_files = stats.spill_files.to_string();
                let vec_batches = stats.vectorized_batches.to_string();
                let row_fallbacks = stats.row_fallback_stages.to_string();
                let mut fields: Vec<(&str, &str)> = vec![("bench", "ordered"), ("program", w.name)];
                fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
                fields.extend([
                    ("mode", mode),
                    ("secs", secs_s.as_str()),
                    ("sorted_shuffles", sorted.as_str()),
                    ("spilled_records", spill_rec.as_str()),
                    ("spilled_bytes", spill_bytes.as_str()),
                    ("spill_files", spill_files.as_str()),
                    ("vectorized_batches", vec_batches.as_str()),
                    ("row_fallback_stages", row_fallbacks.as_str()),
                ]);
                println!("{}", json_row(&fields));
            } else {
                println!(
                    "{:<24} {:>8} {:>10} {:>14} {:>12}",
                    w.name,
                    mode,
                    secs(t),
                    stats.sorted_shuffles,
                    stats.spill_files
                );
            }
        }
    }
    if !json {
        println!();
    }
}

// ------------------------------------------------------------------- serve

/// The serving workload mix: compute-heavy programs with small inputs and
/// small outputs, so a request's wall-clock is dominated by engine work —
/// what the cold/warm comparison is meant to expose — rather than by
/// shipping rows over the socket.
fn serve_workloads() -> Vec<wl::Workload> {
    let s = scale();
    vec![
        wl::matrix_multiplication(28 * s, 71),
        wl::matrix_multiplication(32 * s, 72),
        wl::matrix_multiplication(36 * s, 73),
        wl::pagerank(150 * s, 2, 74),
        wl::pagerank(200 * s, 3, 75),
        wl::matrix_factorization(24 * s, 2, 1, 76),
    ]
}

/// What one closed-loop phase observed, aggregated over all clients.
struct PhaseResult {
    latencies: Vec<Duration>,
    failures: u64,
    hits: u64,
    wall: Duration,
}

/// Drives the server with `clients` closed-loop threads, each running
/// every workload `rounds` times (rotated per client so concurrent
/// requests interleave distinct programs).
fn serve_drive(
    addr: &str,
    clients: usize,
    rounds: usize,
    workloads: &[wl::Workload],
    no_cache: bool,
) -> PhaseResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let wls = workloads.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect to diablod");
                let mut latencies = Vec::with_capacity(rounds * wls.len());
                let mut failures = 0u64;
                let mut hits = 0u64;
                for r in 0..rounds {
                    for i in 0..wls.len() {
                        let w = &wls[(i + c + r) % wls.len()];
                        let scalars: Vec<(String, Value)> = w
                            .scalars
                            .iter()
                            .map(|(n, v)| (n.to_string(), v.clone()))
                            .collect();
                        let rows: Vec<(String, Vec<Value>)> = w
                            .collections
                            .iter()
                            .map(|(n, r)| (n.to_string(), r.clone()))
                            .collect();
                        let t0 = Instant::now();
                        match client.run(w.source, scalars, rows, no_cache) {
                            Ok(res) => {
                                latencies.push(t0.elapsed());
                                if res.stats.cache_hit {
                                    hits += 1;
                                }
                            }
                            Err(_) => failures += 1,
                        }
                    }
                }
                (latencies, failures, hits)
            })
        })
        .collect();
    let mut out = PhaseResult {
        latencies: Vec::new(),
        failures: 0,
        hits: 0,
        wall: Duration::ZERO,
    };
    for h in handles {
        let (lats, failures, hits) = h.join().expect("client thread");
        out.latencies.extend(lats);
        out.failures += failures;
        out.hits += hits;
    }
    out.wall = started.elapsed();
    out
}

/// The closed-loop `diablod` serving benchmark: starts an in-process
/// server on an ephemeral port and drives it through three phases —
/// `cold` (every request executes, cache bypassed), `warm` (every
/// request is answerable from the plan-hash result cache, primed by the
/// cold phase since `no_cache` still stores results), and `overload`
/// (2× `max_inflight` clients, where admission control must queue the
/// excess rather than fail or OOM). `--check` gates: zero failed
/// requests anywhere, every warm request a cache hit, and warm p50 at
/// least 10× below cold p50.
fn serve_bench(json: bool, check: bool) {
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let cfg = ServeConfig::default();
    let max_inflight = cfg.max_inflight;
    let max_inflight_s = max_inflight.to_string();
    let deadline_ms = cfg.queue_deadline.as_millis().to_string();
    let cache_budget = cfg.cache_budget.to_string();
    let server = Server::start("127.0.0.1:0", ctx, cfg).expect("start diablod");
    let addr = server.addr().to_string();
    let workloads = serve_workloads();

    if !json {
        println!("== Serving: diablod closed-loop (clients × programs) =======================");
        println!(
            "{:<10} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10} {:>6} {:>9}",
            "phase",
            "clients",
            "requests",
            "failures",
            "rps",
            "p50 (ms)",
            "p99 (ms)",
            "hits",
            "wall (s)"
        );
    }

    let phases: [(&str, usize, usize, bool); 3] = [
        ("cold", max_inflight, 1, true),
        ("warm", max_inflight, 20, false),
        ("overload", 2 * max_inflight, 1, true),
    ];
    let mut results: Vec<(&str, usize, PhaseResult)> = Vec::new();
    for (phase, clients, rounds, no_cache) in phases {
        let res = serve_drive(&addr, clients, rounds, &workloads, no_cache);
        results.push((phase, clients, res));
    }

    for (phase, clients, res) in &results {
        let requests = res.latencies.len() as u64 + res.failures;
        let rps = requests as f64 / res.wall.as_secs_f64().max(1e-9);
        let p50 = percentile(&res.latencies, 50.0);
        let p99 = percentile(&res.latencies, 99.0);
        if json {
            let clients_s = clients.to_string();
            let programs = workloads.len().to_string();
            let requests_s = requests.to_string();
            let failures = res.failures.to_string();
            let rps_s = format!("{rps:.1}");
            let p50_s = millis(p50);
            let p99_s = millis(p99);
            let hits = res.hits.to_string();
            let wall = secs(res.wall);
            let mut fields: Vec<(&str, &str)> = vec![("bench", "serve"), ("phase", phase)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("clients", clients_s.as_str()),
                ("programs", programs.as_str()),
                ("requests", requests_s.as_str()),
                ("failures", failures.as_str()),
                ("rps", rps_s.as_str()),
                ("p50_ms", p50_s.as_str()),
                ("p99_ms", p99_s.as_str()),
                ("cache_hits", hits.as_str()),
                ("wall_secs", wall.as_str()),
                ("max_inflight", max_inflight_s.as_str()),
                ("queue_deadline_ms", deadline_ms.as_str()),
                ("cache_budget", cache_budget.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:<10} {:>8} {:>9} {:>9} {:>10.1} {:>10} {:>10} {:>6} {:>9}",
                phase,
                clients,
                requests,
                res.failures,
                rps,
                millis(p50),
                millis(p99),
                res.hits,
                secs(res.wall)
            );
        }
    }

    // One counters row: the server's own view of the run.
    let counters = Client::connect(&addr)
        .expect("connect to diablod")
        .stats()
        .expect("server stats");
    if json {
        let mut fields: Vec<(&str, &str)> = vec![("bench", "serve"), ("phase", "counters")];
        let owned: Vec<(String, String)> = counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        fields.extend(owned.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        println!("{}", json_row(&fields));
    } else {
        let line: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("counters   {}", line.join(" "));
        println!();
    }
    let timeouts = counters
        .iter()
        .find(|(k, _)| k == "admission_timeouts")
        .map_or(0, |(_, v)| *v);
    server.stop();

    if check {
        serve_check(&results, timeouts);
    }
}

/// The gates CI holds the serving layer to: no request may fail in any
/// phase (overload queues, it does not shed), no admission timeout may
/// fire, the warm phase must be answered entirely from the cache, and a
/// cache hit must be at least 10× faster than a cold execution at the
/// median.
fn serve_check(results: &[(&str, usize, PhaseResult)], timeouts: u64) {
    let get = |phase: &str| results.iter().find(|(p, _, _)| *p == phase).map(|r| &r.2);
    let mut failures: Vec<String> = Vec::new();
    for (phase, _, res) in results {
        if res.failures > 0 {
            failures.push(format!(
                "{phase}: {} failed requests (need 0)",
                res.failures
            ));
        }
    }
    if timeouts > 0 {
        failures.push(format!("{timeouts} admission timeouts (need 0)"));
    }
    if let Some(warm) = get("warm") {
        let misses = warm.latencies.len() as u64 - warm.hits;
        if misses > 0 {
            failures.push(format!("warm: {misses} cache misses (need 0)"));
        }
    }
    if let (Some(cold), Some(warm)) = (get("cold"), get("warm")) {
        let cold_p50 = percentile(&cold.latencies, 50.0);
        let warm_p50 = percentile(&warm.latencies, 50.0);
        if warm_p50 * 10 > cold_p50 {
            failures.push(format!(
                "warm p50 {} ms not ≥10× below cold p50 {} ms",
                millis(warm_p50),
                millis(cold_p50)
            ));
        }
    }
    if failures.is_empty() {
        eprintln!("serve --check: all gates passed");
    } else {
        for f in &failures {
            eprintln!("serve --check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

// ------------------------------------------------------------- §5 ablation

/// §5 ablation: sparse matrix multiplication (the DIABLO plan) vs the
/// packed/tiled path with dense tile kernels and the no-shuffle merge.
fn tiles(json: bool) {
    if !json {
        println!("== §5 ablation: sparse vs tiled matrix multiplication =====================");
        println!(
            "{:>6} {:>14} {:>14} {:>16}",
            "d", "sparse (s)", "tiled (s)", "tiled+pack (s)"
        );
    }
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let s = scale();
    for &d in &[20usize * s, 40 * s, 60 * s, 80 * s] {
        let w = wl::matrix_multiplication(d, 7);
        let sparse = run_diablo(&w, &ctx);
        // Tiled path: dense 8×8 tiles, dense inner kernels.
        let m_rows = &w.collections[0].1;
        let n_rows = &w.collections[1].1;
        let tm = TiledMatrix::pack_values(8, 8, m_rows).expect("pack M");
        let tn = TiledMatrix::pack_values(8, 8, n_rows).expect("pack N");
        let (_, tiled) = time_once(|| tm.multiply(&tn));
        // Including pack/unpack conversion (the layer §5 fuses away).
        let start = Instant::now();
        let tm2 = TiledMatrix::pack_values(8, 8, m_rows).expect("pack M");
        let tn2 = TiledMatrix::pack_values(8, 8, n_rows).expect("pack N");
        let prod = tm2.multiply(&tn2);
        let _ = prod.unpack_values();
        let with_pack: Duration = start.elapsed();
        if json {
            let d_s = d.to_string();
            let sparse_s = secs(sparse);
            let tiled_s = secs(tiled);
            let pack_s = secs(with_pack);
            let mut fields: Vec<(&str, &str)> = vec![("bench", "tiles")];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("d", d_s.as_str()),
                ("sparse_secs", sparse_s.as_str()),
                ("tiled_secs", tiled_s.as_str()),
                ("tiled_pack_secs", pack_s.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:>6} {:>14} {:>14} {:>16}",
                d,
                secs(sparse),
                secs(tiled),
                secs(with_pack)
            );
        }
    }
    if !json {
        println!();
    }
}
