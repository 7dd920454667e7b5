//! The `serve_mix` workload: an in-process `diablod` and two closed-loop
//! clients sending a seed-ordered mix of repeated and novel requests.
//!
//! Callers of a daemon each wait for their reply, hence the closed loop:
//! a client sends its next request when the previous one is answered.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use diablo_dataflow::Context;
use diablo_runtime::Value;
use diablo_serve::proto::{read_frame, write_frame};
use diablo_serve::{Client, Request, Response, ServeConfig, Server};
use diablo_workloads::{self as wl, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::compile::compile_and_lint;
use crate::json::Json;
use crate::oracle::{mismatch, Outputs};
use crate::report::Report;
use crate::sizes::{self, PROBE_REPS};
use crate::stats::{median, slowdown_pct};
use crate::trace::{merge, micros_per_rep, Span, Tracer};
use crate::{probes, programs, Opts};

pub const CLIENTS: usize = 2;
/// Blocks per client in the timed schedule, and requests in a block: every
/// block holds each warmed key [`REPEATS_PER_KEY`] times and the ten
/// requests of [`NOVEL_MIX`], never seen before, in seeded order.
pub const TIMED_BLOCKS: usize = 20;
pub const WARMED_KEYS: usize = 10;
pub const REPEATS_PER_KEY: usize = 4;
/// Novel requests per block by kind: Conditional Sum, Histogram, Matrix
/// Addition (the three programs whose rows travel inline).
pub const NOVEL_MIX: [(Kind, usize); 3] = [
    (Kind::ConditionalSum, 4),
    (Kind::Histogram, 3),
    (Kind::MatrixAddition, 3),
];
/// A block before the clock starts, so both connections and the server's
/// threads are warm.
const WARMUP_BLOCKS: usize = 1;
/// Blocks a timed pass makes at least, however short `--seconds` is.
const MIN_BLOCKS: usize = 6;

/// Input sizes: a few thousand rows per request.
const WORDS: usize = 4_000;
const GROUP_ROWS: usize = 4_000;
const VERTICES: usize = 300;
const DOUBLES: usize = 4_000;
const PIXELS: usize = 2_000;
const MATRIX_D: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ConditionalSum,
    Histogram,
    MatrixAddition,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A repeat of warmed key `0..WARMED_KEYS`.
    Warm(usize),
    /// Novel request number `id`: fresh inline rows, so a new fingerprint,
    /// so compile + execute + cache insert.
    Novel { id: usize, kind: Kind },
}

/// The request order of every client: `[client][block][position]`. Each
/// block holds the same multiset of request kinds, so block times compare;
/// only the order inside a block and the novel rows depend on the seed. No
/// novel id appears twice, so no two requests share a novel key.
pub fn schedule(seed: u64, blocks: usize) -> Vec<Vec<Vec<Slot>>> {
    let mut next_novel = 0;
    (0..CLIENTS)
        .map(|client| {
            (0..blocks)
                .map(|block| {
                    let mut slots: Vec<Slot> = (0..WARMED_KEYS)
                        .flat_map(|key| std::iter::repeat_n(Slot::Warm(key), REPEATS_PER_KEY))
                        .collect();
                    for (kind, count) in NOVEL_MIX {
                        for _ in 0..count {
                            slots.push(Slot::Novel {
                                id: next_novel,
                                kind,
                            });
                            next_novel += 1;
                        }
                    }
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ ((client as u64) << 32) ^ ((block as u64 + 1) << 40),
                    );
                    for i in (1..slots.len()).rev() {
                        slots.swap(i, rng.gen_range(0..=i));
                    }
                    slots
                })
                .collect()
        })
        .collect()
}

/// A request to send and the outputs the interpreter expects back.
struct Planned {
    ask: Ask,
    want: Outputs,
}

enum Ask {
    /// A warmed key: the request is built once and sent many times.
    Ready(Request),
    /// A novel request, sent once: its rows are generated again from the
    /// seed before the clock of its block starts. Holding 400 row sets for
    /// the whole run would make the benchmark's own store, not the server,
    /// decide `peak_rss_mb`.
    Fresh { kind: Kind, seed: u64 },
}

/// `w` as a request. `inline` ships the rows; otherwise the program reads
/// the server's named datasets.
fn request_for(w: &Workload, inline: bool) -> Request {
    let rows = if inline {
        w.collections
            .iter()
            .map(|(n, r)| (n.to_string(), r.clone()))
            .collect()
    } else {
        Vec::new()
    };
    Request::Run {
        program: w.source.to_string(),
        scalars: w
            .scalars
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect(),
        rows,
        no_cache: false,
    }
}

fn expected(w: &Workload) -> Result<Outputs, String> {
    programs::run_interpreter(w).map_err(|e| format!("{}: {e}", w.name))
}

fn warm(w: &Workload, inline: bool) -> Result<Planned, String> {
    Ok(Planned {
        ask: Ask::Ready(request_for(w, inline)),
        want: expected(w)?,
    })
}

impl Planned {
    fn request(&self) -> std::borrow::Cow<'_, Request> {
        match &self.ask {
            Ask::Ready(request) => std::borrow::Cow::Borrowed(request),
            Ask::Fresh { kind, seed } => {
                std::borrow::Cow::Owned(request_for(&inline_workload(*kind, *seed), true))
            }
        }
    }
}

fn inline_workload(kind: Kind, seed: u64) -> Workload {
    match kind {
        Kind::ConditionalSum => wl::conditional_sum(DOUBLES, seed),
        Kind::Histogram => wl::histogram(PIXELS, seed),
        Kind::MatrixAddition => wl::matrix_addition(MATRIX_D, seed),
    }
}

pub struct ServeMix {
    server: Option<Server>,
    addr: String,
    warmed: Vec<Planned>,
    novel: Vec<Planned>,
    /// `[client][block][position]`: the warm-up block, then the timed ones.
    order: Vec<Vec<Vec<Slot>>>,
    /// The six program texts, for the client-side compile and hash probes.
    sources: Vec<&'static str>,
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// What one request measured; scaled to nominal machine speed when its
/// block ends.
struct Sample {
    latency_us: f64,
    hit: bool,
    queue_us: f64,
    exec_us: f64,
}

/// What one client did in one block.
struct Block {
    /// Whether the client recorded spans in it.
    traced: bool,
    /// Requests sent, answered or not.
    attempted: u64,
    samples: Vec<Sample>,
    failures: Vec<String>,
    /// Wall seconds from the moment both clients started the block to the
    /// moment both had their last reply, as measured and at nominal machine
    /// speed. Requests are built before and checked after.
    raw_s: f64,
    wall_s: f64,
    speed: f64,
}

/// What one client did in a pass.
struct ClientRun {
    blocks: Vec<Block>,
    spans: Vec<Span>,
}

impl ServeMix {
    /// Generates every request from `seed` with its interpreter result,
    /// starts the server, registers the three named datasets and warms the
    /// cache with the ten repeated keys.
    pub fn setup(seed: u64) -> Result<ServeMix, String> {
        let order = schedule(seed, WARMUP_BLOCKS + TIMED_BLOCKS);
        let base = seed.wrapping_mul(1_000_003);
        let words = wl::word_count(WORDS, base);
        let groups = wl::group_by(GROUP_ROWS, base + 1);
        let graph = |steps| wl::pagerank(VERTICES, steps, base + 2);
        let mut warmed = vec![
            warm(&words, false)?,
            warm(&groups, false)?,
            warm(&graph(1), false)?,
            warm(&graph(2), false)?,
        ];
        for (i, (kind, _)) in NOVEL_MIX.iter().enumerate() {
            for variant in 0..2 {
                let w = inline_workload(*kind, base + 10 + 2 * i as u64 + variant);
                warmed.push(warm(&w, true)?);
            }
        }
        assert_eq!(warmed.len(), WARMED_KEYS);
        let mut novel_kinds: Vec<(usize, Kind)> = order
            .iter()
            .flatten()
            .flatten()
            .filter_map(|slot| match slot {
                Slot::Novel { id, kind } => Some((*id, *kind)),
                Slot::Warm(_) => None,
            })
            .collect();
        novel_kinds.sort_unstable_by_key(|(id, _)| *id);
        let novel = novel_kinds
            .into_iter()
            .map(|(id, kind)| {
                let seed = base + 1_000 + id as u64;
                Ok(Planned {
                    ask: Ask::Fresh { kind, seed },
                    want: expected(&inline_workload(kind, seed))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let engine = Context::new(sizes::WORKERS, sizes::PARTITIONS);
        let server = Server::start("127.0.0.1:0", engine, ServeConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let mix = ServeMix {
            server: Some(server),
            addr,
            warmed,
            novel,
            order,
            sources: vec![
                words.source,
                groups.source,
                graph(1).source,
                inline_workload(Kind::ConditionalSum, 0).source,
                inline_workload(Kind::Histogram, 0).source,
                inline_workload(Kind::MatrixAddition, 0).source,
            ],
        };
        let mut control = mix.control()?;
        for w in [&words, &groups, &graph(1)] {
            let (name, rows) = &w.collections[0];
            control.bind_dataset(name, rows.clone())?;
        }
        let mut conn = mix.connect()?;
        let mut off = Tracer::off();
        for planned in &mix.warmed {
            let (_, response) = exchange(&mut conn, &planned.request(), &mut off)?;
            let got = expected_outputs(response, planned)?;
            if let Some(why) = mismatch(&got, &planned.want) {
                return Err(format!("cache warm-up: {why}"));
            }
        }
        Ok(mix)
    }

    fn control(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let conn = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(conn)
    }

    fn planned(&self, slot: Slot) -> &Planned {
        match slot {
            Slot::Warm(key) => &self.warmed[key],
            Slot::Novel { id, .. } => &self.novel[id],
        }
    }

    /// Both clients run their blocks `from..to`, block by block, in step.
    /// Within a block the loop is closed: a client sends its next request
    /// when the previous one is answered, and the clock runs. Between blocks
    /// it stands: each client builds the requests of its next block and
    /// checks the replies of the last one, and client 0 runs the calibration
    /// loops whose speed scales every time of the block. With an `epoch`
    /// every other block records spans. The pass stops early once `seconds`
    /// have passed and [`MIN_BLOCKS`] are done.
    fn pass(
        &self,
        from: usize,
        to: usize,
        seconds: f64,
        epoch: Option<Instant>,
    ) -> Result<Vec<ClientRun>, String> {
        let line = Barrier::new(CLIENTS);
        let stop = AtomicBool::new(false);
        let speeds = Mutex::new(vec![calib::speed(calib::ENGINE)]);
        let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .order
                .iter()
                .enumerate()
                .map(|(client, blocks)| {
                    let (line, stop, speeds) = (&line, &stop, &speeds);
                    scope.spawn(move || {
                        // A client that cannot connect still has to meet the
                        // other at every barrier, so it reports at the end.
                        let mut conn = self.connect();
                        let mut off = Tracer::off();
                        let mut on = epoch.map_or_else(Tracer::off, Tracer::on);
                        let mut done = Vec::new();
                        let start = Instant::now();
                        for (b, slots) in blocks[from..to].iter().enumerate() {
                            let traced = epoch.is_some() && b % 2 == 1;
                            let t = if traced { &mut on } else { &mut off };
                            let plan: Vec<&Planned> =
                                slots.iter().map(|slot| self.planned(*slot)).collect();
                            let requests: Vec<_> = plan.iter().map(|p| p.request()).collect();
                            if client == 0 {
                                let late = start.elapsed().as_secs_f64() >= seconds;
                                stop.store(b >= MIN_BLOCKS && late, Ordering::SeqCst);
                            }
                            line.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            t.begin_rep(b as u32);
                            let block_start = Instant::now();
                            // A reply keeps the outputs the oracle knows
                            // and drops the rest (the program's inputs come
                            // back too): a block's replies whole would be
                            // the larger part of `peak_rss_mb`.
                            let replies: Vec<_> = requests
                                .iter()
                                .zip(&plan)
                                .map(|(request, planned)| {
                                    let conn = conn.as_mut().map_err(|e| e.clone())?;
                                    let (sample, response) = exchange(conn, request, t)?;
                                    Ok((sample, expected_outputs(response, planned)?))
                                })
                                .collect();
                            line.wait();
                            let raw_s = block_start.elapsed().as_secs_f64();
                            if client == 0 {
                                let after = calib::speed(calib::ENGINE);
                                speeds.lock().expect("speeds lock").push(after);
                            }
                            line.wait();
                            let speed = {
                                let s = speeds.lock().expect("speeds lock");
                                (s[b] + s[b + 1]) / 2.0
                            };
                            t.end_rep(speed);
                            let mut block = Block {
                                traced,
                                attempted: replies.len() as u64,
                                samples: Vec::new(),
                                failures: Vec::new(),
                                raw_s,
                                wall_s: raw_s * speed,
                                speed,
                            };
                            for (reply, planned) in replies.into_iter().zip(plan) {
                                match reply {
                                    Ok((sample, got)) => match mismatch(&got, &planned.want) {
                                        None => block.samples.push(Sample {
                                            latency_us: sample.latency_us * speed,
                                            queue_us: sample.queue_us * speed,
                                            exec_us: sample.exec_us * speed,
                                            ..sample
                                        }),
                                        Some(why) => {
                                            block.failures.push(format!("block {b}: {why}"))
                                        }
                                    },
                                    Err::<_, String>(e) => {
                                        block.failures.push(format!("block {b}: {e}"))
                                    }
                                }
                            }
                            done.push(block);
                        }
                        ClientRun {
                            blocks: done,
                            spans: on.into_spans(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
                .collect()
        });
        runs.into_iter().collect()
    }

    pub fn measure(&self, opts: &Opts, report: &mut Report) -> Result<Vec<Span>, String> {
        let tally = |runs: &[ClientRun], report: &mut Report| {
            for block in runs.iter().flat_map(|r| &r.blocks) {
                report.attempted += block.attempted;
                block.failures.iter().for_each(|f| report.fail(f.clone()));
            }
        };
        let timed_from = WARMUP_BLOCKS;
        let timed_to = WARMUP_BLOCKS + TIMED_BLOCKS;
        tally(&self.pass(0, timed_from, f64::MAX, None)?, report);

        let mut control = self.control()?;
        let before = control.stats()?;
        let epoch = opts.trace.then(Instant::now);
        let mut runs = self.pass(timed_from, timed_to, opts.seconds, epoch)?;
        let after = control.stats()?;
        tally(&runs, report);
        let counter = |stats: &[(String, u64)], name: &str| {
            stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v) as f64
        };
        let delta = |name: &str| counter(&after, name) - counter(&before, name);

        // End to end: the blocks without spans. A block's wall is the same
        // for both clients; client 0 holds it.
        let plain: Vec<&Block> = runs[0].blocks.iter().filter(|b| !b.traced).collect();
        let walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
        report.set_median("run_s", &walls, 1.0);
        report.set("peak_rss_mb", crate::host::peak_rss_mb()?);
        report.set("spine.reps", runs[0].blocks.len() as f64);
        let speeds: Vec<f64> = runs[0].blocks.iter().map(|b| b.speed).collect();
        report.machine_speed(&speeds);
        let samples: Vec<&Sample> = runs
            .iter()
            .flat_map(|r| &r.blocks)
            .filter(|b| !b.traced)
            .flat_map(|b| &b.samples)
            .collect();
        let latency = |hit: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.hit == hit)
                .map(|s| s.latency_us)
                .collect()
        };
        report.set_median("hit_p50_ms", &latency(true), 1e-3);
        report.set_p90("hit_p90_ms", &latency(true), 1e-3);
        report.set_median("miss_p50_ms", &latency(false), 1e-3);
        report.set_p90("miss_p90_ms", &latency(false), 1e-3);
        report.set(
            "req_per_s",
            samples.len() as f64 / walls.iter().sum::<f64>(),
        );
        let misses: Vec<&&Sample> = samples.iter().filter(|s| !s.hit).collect();
        let of = |f: fn(&Sample) -> f64| -> Vec<f64> { misses.iter().map(|s| f(s)).collect() };
        report.set_median("serve.queue_us_p50", &of(|s| s.queue_us), 1.0);
        report.set_p90("serve.queue_us_p90", &of(|s| s.queue_us), 1.0);
        report.set_median("serve.exec_us_p50", &of(|s| s.exec_us), 1.0);
        report.set_median(
            "serve.overhead_us_p50",
            &of(|s| s.latency_us - s.queue_us - s.exec_us),
            1.0,
        );
        report.set(
            "serve.hit_ratio",
            delta("cache_hits") / (delta("cache_hits") + delta("cache_misses")),
        );
        report.set("serve.coalesced", delta("coalesced"));
        report.set("serve.admission_timeouts", delta("admission_timeouts"));
        report.set("serve.peak_queued", counter(&after, "peak_queued"));
        report.set("serve.cache_evictions", delta("cache_evictions"));
        report.set("serve.cache_bytes", counter(&after, "cache_bytes"));
        self.describe(report);
        if !opts.trace {
            return Ok(Vec::new());
        }

        let raw = |traced: bool| -> Vec<f64> {
            let blocks = runs[0].blocks.iter().filter(|b| b.traced == traced);
            blocks.map(|b| b.raw_s).collect()
        };
        let (raw_plain, raw_traced) = (raw(false), raw(true));
        let mut parts: Vec<Vec<Span>> = runs
            .iter_mut()
            .map(|r| std::mem::take(&mut r.spans))
            .collect();
        // A block's wall is one client's, so are the spans counted against it.
        report.set(
            "spine.trace_overhead_pct",
            crate::trace::overhead_pct(
                parts[0].len() as f64 / raw_traced.len() as f64,
                median(&raw_plain),
            ),
        );
        report.fact(
            "traced_vs_untraced_pct",
            Json::Num(slowdown_pct(&raw_plain, &raw_traced)),
        );
        let mut t = Tracer::on(epoch.expect("a traced run has an epoch"));
        self.probes(&mut t)?;
        parts.push(t.into_spans());
        let spans = merge(parts);

        let per_request = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::micros)
                .collect()
        };
        report.set_median("serve.req_encode_us", &per_request("serve.req_encode"), 1.0);
        report.set_median(
            "serve.resp_decode_us",
            &per_request("serve.resp_decode"),
            1.0,
        );
        report.set_median("serve.plan_hash_us", &per_request("serve.plan_hash"), 1.0);
        report.set_median("serve.rows_hash_us", &per_request("serve.rows_hash"), 1.0);
        let bytes: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.resp_decode")
            .filter_map(|s| {
                s.attrs
                    .iter()
                    .find(|(k, _)| *k == "resp_bytes")
                    .map(|(_, v)| *v)
            })
            .collect();
        report.set("serve.resp_bytes_p50", median(&bytes));
        for name in [
            "lang.parse",
            "lang.typecheck",
            "core.restrictions",
            "core.translate",
            "core.lint",
        ] {
            report.set_median(
                &format!("{name}_us"),
                &micros_per_rep(&spans, name, None),
                1.0,
            );
        }
        for kind in ["encode", "decode"] {
            report.set(
                &format!("dataflow.codec_{kind}_mbps"),
                probes::codec_mbps(&spans, &format!("dataflow.codec_{kind}")),
            );
        }
        report.fact(
            "request_unexplained_pct",
            Json::Num(crate::trace::unexplained_pct(&spans, "serve.request")),
        );
        Ok(spans)
    }

    /// What a hit pays besides the socket, measured on this side of it:
    /// compiling and linting the six programs (a hit still compiles), the
    /// plan hash, the fingerprint of inline rows, and the value codec.
    fn probes(&self, t: &mut Tracer) -> Result<(), String> {
        let inline_rows: Vec<&Vec<Value>> = self
            .warmed
            .iter()
            .filter_map(|p| match &p.ask {
                Ask::Ready(Request::Run { rows, .. }) => rows.first().map(|(_, r)| r),
                _ => None,
            })
            .collect();
        let mut cal = calib::Bracket::open(calib::FRONT_END);
        for rep in 0..PROBE_REPS {
            t.begin_rep(rep as u32);
            t.span("spine.probes", |t| {
                for src in &self.sources {
                    compile_and_lint(src, t)?;
                    let compiled = diablo_core::compile(src).map_err(|e| e.to_string())?;
                    t.span("serve.plan_hash", |_| {
                        std::hint::black_box(diablo_serve::plan_hash(&compiled))
                    });
                }
                for rows in &inline_rows {
                    t.span("serve.rows_hash", |_| {
                        std::hint::black_box(diablo_serve::rows_hash(rows))
                    });
                }
                Ok::<(), String>(())
            })?;
            t.end_rep(cal.close());
        }
        probes::codec(inline_rows[0], t).map_err(|e| e.to_string())
    }

    fn describe(&self, report: &mut Report) {
        let cfg = ServeConfig::default();
        report.fact(
            "serve",
            Json::obj([
                ("clients", Json::Num(CLIENTS as f64)),
                ("loop", Json::str("closed")),
                ("timed_blocks_per_client", Json::Num(TIMED_BLOCKS as f64)),
                (
                    "requests_per_block",
                    Json::Num(self.order[0][0].len() as f64),
                ),
                ("warmed_keys", Json::Num(WARMED_KEYS as f64)),
                ("max_inflight", Json::Num(cfg.max_inflight as f64)),
                ("cache_budget", Json::Num(cfg.cache_budget as f64)),
                ("workers", Json::Num(sizes::WORKERS as f64)),
                ("partitions", Json::Num(sizes::PARTITIONS as f64)),
            ]),
        );
        report.fact(
            "sizes",
            Json::obj([
                ("word_count_rows", Json::Num(WORDS as f64)),
                ("group_by_rows", Json::Num(GROUP_ROWS as f64)),
                ("pagerank_vertices", Json::Num(VERTICES as f64)),
                ("conditional_sum_rows", Json::Num(DOUBLES as f64)),
                ("histogram_rows", Json::Num(PIXELS as f64)),
                ("matrix_addition_d", Json::Num(MATRIX_D as f64)),
            ]),
        );
    }
}

/// One request as its caller sees it: encode, write, read, decode. The
/// server's own `queue_us` and `exec_us` ride on the span as attributes.
fn exchange(
    conn: &mut TcpStream,
    request: &Request,
    t: &mut Tracer,
) -> Result<(Sample, Response), String> {
    let start = Instant::now();
    let response = t.span("serve.request", |t| {
        let payload = t
            .span("serve.req_encode", |_| request.encode())
            .map_err(|e| e.to_string())?;
        let frame = t
            .span("serve.roundtrip", |_| {
                write_frame(conn, &payload)?;
                read_frame(conn)
            })
            .map_err(|e| format!("round trip: {e}"))?
            .ok_or("the server closed the connection")?;
        let response = t.span("serve.resp_decode", |t| {
            t.attr("resp_bytes", frame.len() as f64);
            Response::decode(&frame).map_err(|e| e.to_string())
        })?;
        if let Response::RunOk { stats, .. } = &response {
            t.attr("queue_us", stats.queue_us as f64);
            t.attr("exec_us", stats.exec_us as f64);
            t.attr("cache_hit", f64::from(u8::from(stats.cache_hit)));
        }
        Ok::<Response, String>(response)
    })?;
    let latency_us = start.elapsed().as_secs_f64() * 1e6;
    match &response {
        Response::RunOk { stats, .. } => Ok((
            Sample {
                latency_us,
                hit: stats.cache_hit,
                queue_us: stats.queue_us as f64,
                exec_us: stats.exec_us as f64,
            },
            response,
        )),
        Response::Error { message } => Err(format!("the server answered: {message}")),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// The outputs of `response` that the interpreter computed too, in the
/// interpreter's order; the others are dropped.
fn expected_outputs(response: Response, planned: &Planned) -> Result<Outputs, String> {
    let Response::RunOk { mut outputs, .. } = response else {
        return Err("not a run result".into());
    };
    planned
        .want
        .iter()
        .map(|(name, _)| {
            let at = outputs
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| format!("output `{name}` is missing"))?;
            Ok(outputs.swap_remove(at))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn timed_schedule_is_1600_repeats_and_400_novel_requests() {
        let order = schedule(5, TIMED_BLOCKS);
        assert_eq!(order.len(), CLIENTS);
        let all: Vec<Slot> = order.iter().flatten().flatten().copied().collect();
        assert_eq!(all.len(), 2_000);
        let novel: Vec<usize> = all
            .iter()
            .filter_map(|s| match s {
                Slot::Novel { id, .. } => Some(*id),
                Slot::Warm(_) => None,
            })
            .collect();
        assert_eq!(novel.len(), 400);
        assert_eq!(
            novel.iter().collect::<HashSet<_>>().len(),
            400,
            "a novel key repeats"
        );
        let mine = |client: usize| -> HashSet<usize> {
            order[client]
                .iter()
                .flatten()
                .filter_map(|s| match s {
                    Slot::Novel { id, .. } => Some(*id),
                    Slot::Warm(_) => None,
                })
                .collect()
        };
        assert!(
            mine(0).is_disjoint(&mine(1)),
            "two clients share a novel key"
        );
        for key in 0..WARMED_KEYS {
            assert_eq!(all.iter().filter(|s| **s == Slot::Warm(key)).count(), 160);
        }
    }

    #[test]
    fn every_block_has_the_same_mix_in_seeded_order() {
        let order = schedule(5, 3);
        let mix = |block: &[Slot]| {
            let warm = block.iter().filter(|s| matches!(s, Slot::Warm(_))).count();
            let of = |k: Kind| {
                block
                    .iter()
                    .filter(|s| matches!(s, Slot::Novel { kind, .. } if *kind == k))
                    .count()
            };
            (
                warm,
                of(Kind::ConditionalSum),
                of(Kind::Histogram),
                of(Kind::MatrixAddition),
            )
        };
        for block in order.iter().flatten() {
            assert_eq!(block.len(), 50);
            assert_eq!(mix(block), (40, 4, 3, 3));
        }
        assert_eq!(order, schedule(5, 3));
        assert_ne!(order, schedule(6, 3));
        assert_ne!(order[0][0], order[0][1], "blocks are shuffled apart");
    }
}
