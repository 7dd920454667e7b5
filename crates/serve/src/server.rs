//! The `diablod` server: connection handling, request execution,
//! caching, and admission.
//!
//! One [`Server`] owns one **base engine context**. Every `Run` request
//! executes on a [`Context::fork`] of it — a tenant context that shares
//! the parent's morsel worker pool and effective settings (backend,
//! memory budget) but has private statistics and statement labels, so
//! concurrent requests never interleave each other's `sN:var` error
//! tags. Named datasets registered with `BindDataset` are held once as
//! `Arc`ed partitions; every request wraps the same allocation
//! zero-copy.
//!
//! ## Request lifecycle
//!
//! ```text
//! frame scan (inline rows checked and left encoded) ──▶
//! memo: program text → compiled program, warnings, plan hash ──▶
//! cache key = fold(plan hash, input fingerprints) ──▶
//!   hit? ──▶ MAGIC, tag, cached outputs bytes, stats, warnings (no admission)
//!   ▼ miss
//! coalesce (identical run already in flight? wait for its bytes) ──▶
//! decode inline rows ──▶ admission (bounded in-flight, deadline queue) ──▶
//!   fork + run ──▶ encode the outputs once, cache the bytes ──▶ respond
//! ```
//!
//! A hit builds no `Value`: the frame scan checks each inline rows
//! section with `decode_value`'s checks but builds nothing, the section's
//! fingerprint is a hash of its bytes, the program's compiled form comes
//! from a bounded memo keyed by its text, and the answer is the cached
//! outputs bytes framed with this request's stats and the program's
//! warnings. Only a miss decodes rows, and only after the cache and
//! coalescing checks. Cache hits bypass admission entirely — they do no
//! engine work, so making them queue behind executions would be latency
//! for nothing.
//!
//! **Request coalescing**: when several requests miss on the *same*
//! cache key concurrently, only the first one (the leader) executes;
//! the rest wait for the leader's result and serve it as a cache hit.
//! Without this, a burst of identical requests — the thundering-herd
//! shape of any cache in front of slow work — would run the same
//! program once per request, occupying admission slots with duplicate
//! work. A leader error propagates to every waiter (and is never
//! cached); `no_cache` requests bypass coalescing like they bypass the
//! cache.
//!
//! Compile errors, runtime errors (message identical to a local
//! `diabloc run`, including the statement tag), admission timeouts and a
//! run that panics all travel back as [`Response::Error`]; a connection
//! is never dropped in response to a well-formed frame.

use std::any::Any;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use diablo_core::{compile, CompiledProgram};
use diablo_dataflow::{Context, Dataset};
use diablo_exec::Session;
use diablo_runtime::Value;

use crate::admission::Admission;
use crate::cache::{CachedRun, Lru, ResultCache};
use crate::planhash::{fold, plan_hash, rows_hash, value_hash};
use crate::proto::{
    encode_outputs, parse_request, read_frame, run_ok_payload, write_frame, Output, Parsed,
    Request, RequestStats, Response, RunFrame,
};

/// Serving policy knobs (engine shape lives on the [`Context`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently executing requests; excess requests queue.
    pub max_inflight: usize,
    /// How long a queued request may wait before an admission error.
    pub queue_deadline: Duration,
    /// Result-cache byte budget (0 disables caching).
    pub cache_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_inflight: 4,
            queue_deadline: Duration::from_secs(10),
            cache_budget: 64 << 20,
        }
    }
}

/// Distinct program texts the compile memo holds. A constant, not a
/// knob: clients send a handful of programs over and over, while a
/// daemon can see unbounded novel text, so the memo is bounded and
/// per-server, never process-global.
const PROGRAM_MEMO_ENTRIES: u64 = 64;

/// A program as the memo holds it: compiled, linted and hashed once per
/// text.
struct Program {
    compiled: CompiledProgram,
    /// Lint one-liners. They depend on the text alone, so every response
    /// for it — cache hits included — carries the same ones.
    warnings: Vec<String>,
    plan_hash: u64,
}

impl Program {
    fn compile(text: &str) -> Result<Program, String> {
        // The multi-error front end: a clean program yields the typed
        // form (needed for linting) alongside the compiled one; a faulty
        // program reports the first error with the same message a local
        // `diabloc run` prints for it.
        let mut diags = diablo_diag::Diagnostics::new();
        let Some((tp, compiled)) = diablo_core::compile_multi(text, &mut diags) else {
            return Err(match compile(text) {
                Err(e) => e.to_string(),
                Ok(_) => "compile failed".to_string(),
            });
        };
        let warnings = diablo_core::lint_program(&tp, &compiled)
            .iter()
            .map(diablo_diag::Diagnostic::one_line)
            .collect();
        Ok(Program {
            plan_hash: plan_hash(&compiled),
            compiled,
            warnings,
        })
    }
}

/// A server-side dataset's rows, partitioned and shared by every run.
type Parts = Arc<Vec<Vec<Value>>>;

/// A named server-side dataset: shared partitions plus the content
/// fingerprint that versions it in cache keys.
struct NamedData {
    parts: Parts,
    fingerprint: u64,
}

/// One in-flight execution of a cache key: the leader runs the program;
/// identical concurrent misses wait on `cv` until `done` holds the
/// leader's result — success or error — and share it.
struct InflightRun {
    done: Mutex<Option<std::result::Result<Arc<CachedRun>, String>>>,
    cv: Condvar,
}

struct Shared {
    ctx: Context,
    /// The resolved listen address (used to self-nudge on shutdown).
    addr: String,
    queue_deadline: Duration,
    cache: ResultCache,
    /// Program text → its compiled form, at most
    /// [`PROGRAM_MEMO_ENTRIES`] texts.
    programs: Lru<String, Arc<Program>>,
    /// Programs compiled (memo misses, failed compiles included).
    compiles: AtomicU64,
    admission: Admission,
    datasets: RwLock<HashMap<String, NamedData>>,
    /// Cache keys currently executing, for request coalescing.
    inflight: Mutex<HashMap<u64, Arc<InflightRun>>>,
    /// Requests served by waiting on an identical in-flight execution.
    coalesced: AtomicU64,
    shutdown: AtomicBool,
    requests: AtomicU64,
    /// Makes the next run panic once it leads and holds a permit.
    #[cfg(test)]
    panic_next_run: AtomicBool,
}

impl Shared {
    /// The compiled form of `text`: from the memo, or compiled now —
    /// outside the memo's lock, so a slow compile never stalls another
    /// request's lookup. Compile errors are not memoized.
    fn program(&self, text: &str) -> Result<Arc<Program>, String> {
        if let Some(program) = self.programs.get(text) {
            return Ok(program);
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(Program::compile(text)?);
        self.programs.put(text.to_string(), program.clone(), 1);
        Ok(program)
    }
}

/// The two listener flavors behind one address scheme: `unix:/path`
/// listens on a Unix domain socket, anything else is a TCP `host:port`.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, String),
}

/// A boxed duplex byte stream (TCP or Unix).
trait Conn: Read + Write + Send {}
impl Conn for TcpStream {}
impl Conn for UnixStream {}

/// A running server: accepting connections on a background thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: String,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (`host:port`, with port 0 for an ephemeral port, or
    /// `unix:/path`) and starts accepting connections.
    pub fn start(addr: &str, ctx: Context, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = match addr.strip_prefix("unix:") {
            Some(path) => {
                // A stale socket file from a dead server would fail the
                // bind; replacing it is the standard daemon idiom.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?, path.to_string())
            }
            None => Listener::Tcp(TcpListener::bind(addr)?),
        };
        let actual = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_, path) => format!("unix:{path}"),
        };
        let shared = Arc::new(Shared {
            cache: ResultCache::new(cfg.cache_budget),
            programs: Lru::new(PROGRAM_MEMO_ENTRIES),
            compiles: AtomicU64::new(0),
            admission: Admission::new(cfg.max_inflight),
            queue_deadline: cfg.queue_deadline,
            ctx,
            addr: actual.clone(),
            datasets: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            #[cfg(test)]
            panic_next_run: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept = thread::Builder::new()
            .name("diablod-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            addr: actual,
            accept: Some(accept),
        })
    }

    /// The bound address, with any ephemeral port resolved (and the
    /// `unix:` prefix preserved) — pass this to [`crate::Client`].
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// True once a `Shutdown` request has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop to exit (it exits after a `Shutdown`
    /// request). Call after a client sent `Shutdown` — or use
    /// [`Server::stop`] to do both.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops the server from the owning process: marks shutdown, nudges
    /// the accept loop with a throwaway connection, and joins it.
    pub fn stop(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        nudge(&self.addr);
        self.join();
    }
}

/// Wakes a blocked `accept` by making (and dropping) a connection.
fn nudge(addr: &str) {
    match addr.strip_prefix("unix:") {
        Some(path) => drop(UnixStream::connect(path)),
        None => drop(TcpStream::connect(addr)),
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn: Box<dyn Conn> = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    Box::new(s)
                }
                Err(_) => continue,
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(_) => continue,
            },
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn_shared = shared.clone();
        let _ = thread::Builder::new()
            .name("diablod-conn".into())
            .spawn(move || handle_conn(conn, conn_shared));
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

fn handle_conn(mut conn: Box<dyn Conn>, shared: Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let (bytes, closing) = respond(&payload, &shared);
        if write_frame(&mut conn, &bytes).is_err() {
            return;
        }
        if closing {
            shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop is likely blocked in accept(); a throwaway
            // self-connection is the portable way to unblock it.
            nudge(&shared.addr);
            return;
        }
    }
}

/// The response payload for one request payload, and whether the
/// connection closes after it. A `Run` answers with bytes it framed
/// itself; everything else goes through [`Response::encode`]. A run that
/// panics answers with an error and keeps the connection: its coalescing
/// entry and admission permit are drop guards, released as it unwinds.
fn respond(payload: &[u8], shared: &Arc<Shared>) -> (Vec<u8>, bool) {
    let response = match parse_request(payload) {
        Ok(parsed) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            match parsed {
                Parsed::Run(run) => {
                    match catch_unwind(AssertUnwindSafe(|| handle_run(run, shared))) {
                        Ok(Ok(bytes)) => return (bytes, false),
                        Ok(Err(message)) => Response::Error { message },
                        Err(panic) => Response::Error {
                            message: format!("the run panicked: {}", panic_message(&*panic)),
                        },
                    }
                }
                Parsed::Other(request) => handle_request(request, shared),
            }
        }
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    };
    let closing = matches!(response, Response::ShuttingDown);
    let bytes = match response.encode() {
        Ok(b) => b,
        Err(e) => Response::Error {
            message: e.to_string(),
        }
        .encode()
        .expect("error responses encode"),
    };
    (bytes, closing)
}

/// The text a panic was raised with, when it was raised with one.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    match panic.downcast_ref::<&str>() {
        Some(s) => s,
        None => panic
            .downcast_ref::<String>()
            .map_or("(no message)", String::as_str),
    }
}

fn handle_request(req: Request, shared: &Arc<Shared>) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::Stats => Response::StatsOk {
            counters: stat_counters(shared),
        },
        Request::BindDataset { name, rows } => {
            let fingerprint = rows_hash(&rows);
            let parts = partition_rows(rows, shared.ctx.partitions());
            // A writer only ever makes one `HashMap::insert` of a value
            // built beforehand, so a panic under the lock leaves the map
            // whole: a poisoned lock is taken over, not a panic here.
            shared
                .datasets
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(
                    name,
                    NamedData {
                        parts: Arc::new(parts),
                        fingerprint,
                    },
                );
            Response::BoundOk { fingerprint }
        }
        Request::Run { .. } => unreachable!("the parser hands a run over as a `RunFrame`"),
    }
}

/// Chunks rows into `p` partitions, mirroring `Dataset::from_vec` so a
/// server-held dataset scans exactly like an inline-bound one.
fn partition_rows(rows: Vec<Value>, p: usize) -> Vec<Vec<Value>> {
    let chunk = rows.len().div_ceil(p).max(1);
    let mut parts = Vec::with_capacity(p);
    let mut it = rows.into_iter();
    for _ in 0..p {
        parts.push(it.by_ref().take(chunk).collect());
    }
    parts
}

fn stat_counters(shared: &Arc<Shared>) -> Vec<(String, u64)> {
    let (entries, bytes) = shared.cache.occupancy();
    vec![
        ("requests".into(), shared.requests.load(Ordering::Relaxed)),
        ("cache_hits".into(), shared.cache.hits()),
        ("cache_misses".into(), shared.cache.misses()),
        ("cache_evictions".into(), shared.cache.evictions()),
        ("cache_entries".into(), entries),
        ("cache_bytes".into(), bytes),
        ("coalesced".into(), shared.coalesced.load(Ordering::Relaxed)),
        ("admitted".into(), shared.admission.admitted()),
        ("admission_timeouts".into(), shared.admission.timed_out()),
        ("peak_queued".into(), shared.admission.peak_queued()),
        (
            "max_inflight".into(),
            shared.admission.max_inflight() as u64,
        ),
        (
            "datasets".into(),
            // A read; the map is whole even under a poisoned lock, since
            // its one writer makes one `insert` (`handle_request`).
            shared
                .datasets
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
        ),
        ("compiles".into(), shared.compiles.load(Ordering::Relaxed)),
        ("compile_memo_hits".into(), shared.programs.hits()),
    ]
}

/// Serves one `Run`: `Ok` is the whole `RunOk` payload, `Err` the
/// message of an `Error` response.
fn handle_run(run: RunFrame<'_>, shared: &Arc<Shared>) -> Result<Vec<u8>, String> {
    let program = shared.program(run.program)?;
    let compiled = &program.compiled;
    let reply = |cached: &CachedRun, cache_hit: bool, queue_us: u64, exec_us: u64| {
        let stats = RequestStats {
            cache_hit,
            plan_hash: program.plan_hash,
            queue_us,
            exec_us,
        };
        run_ok_payload(&cached.section, &stats, &program.warnings).map_err(|e| e.to_string())
    };
    let scalar = |name: &str| run.scalars.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    let inline = |name: &str| run.rows.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);

    // The server-side datasets the program reads, copied out (an `Arc`
    // and a fingerprint each) under the lock, which is released at once:
    // held across the admission wait below, one queued miss and one
    // `BindDataset` — a writer, which new readers queue behind — would
    // stall every later request, hits included.
    let served: Vec<(&str, Parts, u64)> = {
        // A read; the map is whole even under a poisoned lock, since its
        // one writer makes one `insert` (`handle_request`).
        let datasets = shared
            .datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        compiled
            .inputs
            .iter()
            .filter(|(name, _)| scalar(name).is_none() && inline(name).is_none())
            .filter_map(|(name, _)| {
                let d = datasets.get(name)?;
                Some((name.as_str(), d.parts.clone(), d.fingerprint))
            })
            .collect()
    };

    // Cache key: the plan hash chained with one fingerprint per declared
    // input, in declaration order. Inline rows hash their section's bytes
    // in the frame; server-side datasets contribute their registration
    // fingerprint (the same hash of the same bytes, so where the data
    // lives does not split the cache); a missing input folds a marker —
    // the run will fail identically either way, and errors are never
    // cached.
    let mut key = program.plan_hash;
    for (name, _) in &compiled.inputs {
        let fingerprint = if let Some(v) = scalar(name) {
            value_hash(v)
        } else if let Some(section) = inline(name) {
            section.fingerprint()
        } else if let Some((.., fingerprint)) = served.iter().find(|(n, ..)| n == name) {
            *fingerprint
        } else {
            0
        };
        key = fold(key, fingerprint);
    }

    if !run.no_cache {
        if let Some(cached) = shared.cache.get(key) {
            return reply(&cached, true, 0, 0);
        }
    } else {
        // A bypassed lookup still counts as a miss in the counters: the
        // hit ratio should reflect what the cache *could* have served.
        let _ = shared.cache.get(u64::MAX ^ key);
    }

    // Request coalescing: if an identical run (same key) is already
    // executing, wait for its result instead of executing a duplicate.
    // The first miss registers itself as the leader; `no_cache` requests
    // bypass coalescing the way they bypass the cache.
    let mut leader = if run.no_cache {
        Leader::alone(shared, key)
    } else {
        match coalesce(shared, key) {
            Turn::Lead(leader) => leader,
            Turn::Cached(cached) => return reply(&cached, true, 0, 0),
            Turn::Waited(Ok(cached), queue_us) => return reply(&cached, true, queue_us, 0),
            // A leader error reaches every waiter — re-running the same
            // program against the same inputs would fail the same way, at
            // full execution cost per waiter.
            Turn::Waited(Err(message), _) => return Err(message),
        }
    };

    let outcome = (|| -> Result<(Arc<CachedRun>, u64, u64), String> {
        // A miss, so the rows are needed: decode them now, before
        // admission and before the execution clock starts. The frame scan
        // already checked every byte, so this cannot fail on a parsed
        // frame.
        let mut rows = Vec::with_capacity(run.rows.len());
        for (name, section) in &run.rows {
            rows.push((*name, section.decode().map_err(|e| e.to_string())?));
        }

        let permit = shared.admission.acquire(shared.queue_deadline)?;
        #[cfg(test)]
        if shared.panic_next_run.swap(false, Ordering::SeqCst) {
            panic!("injected run panic");
        }

        let started = Instant::now();
        let tenant = shared.ctx.fork();
        let mut session = Session::new(tenant.clone());
        for (name, v) in run.scalars {
            session.bind_scalar(&name, v);
        }
        for (name, r) in rows {
            session.bind_input(name, r);
        }
        for (name, parts, _) in served {
            session.bind_dataset(name, Dataset::from_shared_parts(tenant.clone(), parts));
        }

        session.run(compiled).map_err(|e| e.to_string())?;

        let mut outputs = Vec::new();
        let mut names: Vec<(String, bool)> = compiled
            .var_types
            .iter()
            .filter(|(n, _)| !n.contains('#'))
            .map(|(n, t)| (n.clone(), t.is_collection()))
            .collect();
        names.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, is_collection) in names {
            if is_collection {
                if let Some(rows) = session.collect(&name) {
                    outputs.push((name, Output::Rows(rows)));
                }
            } else if let Some(v) = session.scalar(&name) {
                outputs.push((name, Output::Scalar(v)));
            }
        }
        let exec_us = started.elapsed().as_micros() as u64;
        let queue_us = permit.queue_us;
        drop(permit);

        // The one encoding of these outputs: the cache stores the bytes,
        // and this reply, every later hit and every coalesced waiter frame
        // them.
        let section = encode_outputs(&outputs).map_err(|e| e.to_string())?;
        drop(outputs);
        Ok((shared.cache.put(key, section), queue_us, exec_us))
    })();
    leader.settle(match &outcome {
        Ok((cached, ..)) => Ok(cached.clone()),
        Err(message) => Err(message.clone()),
    });
    let (cached, queue_us, exec_us) = outcome?;
    reply(&cached, false, queue_us, exec_us)
}

/// How a cache miss proceeds under request coalescing.
enum Turn<'a> {
    /// No identical run is executing: this request runs the program.
    Lead(Leader<'a>),
    /// The identical run finished just before: its result is cached.
    Cached(Arc<CachedRun>),
    /// An identical run was executing: its outcome, after waiting this
    /// many microseconds for it.
    Waited(std::result::Result<Arc<CachedRun>, String>, u64),
}

/// Registers a miss of `key` as its leader, or waits for the identical
/// run already executing.
fn coalesce(shared: &Shared, key: u64) -> Turn<'_> {
    let mut inflight = shared.inflight.lock().expect("inflight lock");
    if let Some(waiting) = inflight.get(&key) {
        let waiting = waiting.clone();
        drop(inflight);
        shared.coalesced.fetch_add(1, Ordering::Relaxed);
        let waited = Instant::now();
        let mut done = waiting.done.lock().expect("inflight result lock");
        while done.is_none() {
            done = waiting.cv.wait(done).expect("inflight result lock");
        }
        let outcome = done.as_ref().expect("loop exits on Some").clone();
        return Turn::Waited(outcome, waited.elapsed().as_micros() as u64);
    }
    // Double-check the result cache under the inflight lock: a leader
    // settles by caching its result and THEN deregistering, so "cache
    // miss, then no inflight entry" can also mean the leader finished in
    // between — its result is in the cache now. Without this re-probe,
    // that interleaving would execute the identical request a second time.
    if let Some(cached) = shared.cache.peek(key) {
        return Turn::Cached(cached);
    }
    let run = Arc::new(InflightRun {
        done: Mutex::new(None),
        cv: Condvar::new(),
    });
    inflight.insert(key, run.clone());
    Turn::Lead(Leader {
        shared,
        key,
        run: Some(run),
    })
}

/// A leader's entry in [`Shared::inflight`], as a drop guard. Settling
/// publishes the run's outcome: it deregisters the key (later misses
/// start fresh — on success they hit the result cache anyway) and wakes
/// every waiter. A leader dropped unsettled — a panic unwinding out of
/// its run — publishes an error, so no identical request waits on a run
/// that is gone.
struct Leader<'a> {
    shared: &'a Shared,
    key: u64,
    /// `None` once settled, or for a run that bypasses coalescing.
    run: Option<Arc<InflightRun>>,
}

impl<'a> Leader<'a> {
    /// A run no other request can wait on (`no_cache`).
    fn alone(shared: &'a Shared, key: u64) -> Leader<'a> {
        Leader {
            shared,
            key,
            run: None,
        }
    }

    fn settle(&mut self, outcome: std::result::Result<Arc<CachedRun>, String>) {
        let Some(run) = self.run.take() else {
            return;
        };
        // Never panic here: this also runs while a panic unwinds.
        let mut inflight = self
            .shared
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inflight.remove(&self.key);
        drop(inflight);
        *run.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        run.cv.notify_all();
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        self.settle(Err(
            "the identical run this request waited on failed".to_string()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use std::sync::mpsc;

    const SUM: &str = "
        input V: vector[double];
        var sum: double = 0.0;
        for v in V do sum += v;
    ";

    fn rows(n: i64) -> Vec<Value> {
        (0..n)
            .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64)))
            .collect()
    }

    fn counters(client: &mut Client) -> HashMap<String, u64> {
        client.stats().expect("stats").into_iter().collect()
    }

    #[test]
    fn a_queued_miss_holds_no_lock_that_a_bind_or_a_hit_waits_on() {
        let cfg = ServeConfig {
            max_inflight: 1,
            queue_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", Context::new(1, 2), cfg).expect("server");
        let addr = server.addr().to_string();
        let mut control = Client::connect(&addr).expect("connect");
        control.bind_dataset("V", rows(10)).expect("bind V");
        let warm = control.run(SUM, vec![], vec![], false).expect("warm run");
        assert!(!warm.stats.cache_hit);

        // The only permit is taken, so a miss over the bound dataset
        // queues in admission.
        let permit = server
            .shared
            .admission
            .acquire(Duration::from_secs(1))
            .expect("the only permit");
        let miss = thread::spawn({
            let addr = addr.clone();
            move || {
                let doubled = SUM.replace("+= v", "+= 2.0 * v");
                Client::connect(&addr)
                    .expect("connect")
                    .run(&doubled, vec![], vec![], false)
            }
        });
        while server.shared.admission.peak_queued() < 1 {
            thread::sleep(Duration::from_millis(1));
        }

        // A bind (a writer of the datasets map) and then a hit (a reader)
        // on other connections answer while that miss waits.
        let (tx, rx) = mpsc::channel();
        let other = thread::spawn(move || {
            let bound = Client::connect(&addr)
                .expect("connect")
                .bind_dataset("W", rows(3));
            let hit = Client::connect(&addr)
                .expect("connect")
                .run(SUM, vec![], vec![], false);
            tx.send((bound, hit)).expect("send");
        });
        let answered = rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(
            server.shared.admission.admitted(),
            2,
            "the warm run and the held permit; the miss is still queued"
        );
        drop(permit);
        let (bound, hit) = answered.expect("a bind and a hit answer while a miss is queued");
        bound.expect("bind W");
        assert!(hit.expect("hit").stats.cache_hit);
        other.join().expect("bind and hit thread");
        let miss = miss.join().expect("miss thread").expect("the miss runs");
        assert!(!miss.stats.cache_hit);
        server.stop();
    }

    #[test]
    fn a_poisoned_datasets_lock_still_serves_binds_runs_and_stats() {
        let server = Server::start("127.0.0.1:0", Context::new(1, 2), ServeConfig::default())
            .expect("server");
        let shared = server.shared.clone();
        let poisoner = thread::spawn(move || {
            let _held = shared.datasets.write().expect("datasets lock");
            panic!("a thread panics holding the datasets lock");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.datasets.is_poisoned());

        let mut client = Client::connect(server.addr()).expect("connect");
        client.bind_dataset("V", rows(100)).expect("bind V");
        let res = client
            .run(SUM, vec![], vec![], false)
            .expect("a run over V");
        let sum = res.outputs.iter().find(|(name, _)| name == "sum");
        assert_eq!(
            sum.map(|(_, out)| out),
            Some(&Output::Scalar(Value::Double(4950.0)))
        );
        assert_eq!(counters(&mut client)["datasets"], 1);
        client.ping().expect("ping");
        server.stop();
    }

    #[test]
    fn the_program_memo_compiles_each_text_once_and_stays_bounded() {
        let server = Server::start("127.0.0.1:0", Context::new(1, 1), ServeConfig::default())
            .expect("server");
        let mut client = Client::connect(server.addr()).expect("connect");
        let texts = 400;
        for i in 0..texts {
            let text = SUM.replace("0.0;", &format!("{i}.0;"));
            for repeat in 0..2 {
                let res = client
                    .run(&text, vec![], vec![("V".into(), rows(2))], false)
                    .expect("runs");
                assert_eq!(res.stats.cache_hit, repeat == 1, "text {i}");
                let (entries, _) = server.shared.programs.occupancy();
                assert!(entries <= PROGRAM_MEMO_ENTRIES, "{entries} memo entries");
            }
        }
        let stats = counters(&mut client);
        assert_eq!(stats["compiles"], texts, "one compile per distinct text");
        assert_eq!(stats["compile_memo_hits"], texts, "every repeat skipped it");

        // A program that does not compile is compiled again every time.
        let bad = "input V: vector[long]; for i = 1, 8 do V[i] := V[i-1];";
        for _ in 0..2 {
            client.run(bad, vec![], vec![], false).unwrap_err();
        }
        let stats = counters(&mut client);
        assert_eq!(
            stats["compiles"],
            texts + 2,
            "compile errors are not memoized"
        );
        assert_eq!(stats["compile_memo_hits"], texts);
        server.stop();
    }

    #[test]
    fn a_leader_that_panics_strands_no_waiter() {
        let server = Server::start("127.0.0.1:0", Context::new(1, 1), ServeConfig::default())
            .expect("server");
        let shared = server.shared.clone();
        let key = 0x5eed;
        let Turn::Lead(leader) = coalesce(&shared, key) else {
            panic!("the first miss of a key leads");
        };
        let waiter = thread::spawn({
            let shared = shared.clone();
            move || match coalesce(&shared, key) {
                Turn::Waited(outcome, _) => outcome.map(|_| ()),
                _ => panic!("an identical miss waits for the leader"),
            }
        });
        while shared.coalesced.load(Ordering::Relaxed) < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _leader = leader;
            panic!("the leader's run panics");
        }));
        assert!(unwound.is_err());
        assert!(
            shared.inflight.lock().expect("inflight lock").is_empty(),
            "the unwound leader deregistered its key"
        );
        let got = waiter.join().expect("waiter thread");
        assert!(got.is_err(), "the waiter gets an error: {got:?}");
        // The next identical miss leads a fresh run.
        assert!(matches!(coalesce(&shared, key), Turn::Lead(_)));
        server.stop();
    }

    #[test]
    fn a_run_that_panics_costs_its_request_not_the_connection() {
        // One permit: had the panicking run kept it, the retry would
        // time out in admission.
        let cfg = ServeConfig {
            max_inflight: 1,
            queue_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", Context::new(1, 2), cfg).expect("server");
        let mut client = Client::connect(server.addr()).expect("connect");
        let inputs = || vec![("V".to_string(), rows(10))];
        server.shared.panic_next_run.store(true, Ordering::SeqCst);
        let err = client.run(SUM, vec![], inputs(), false).unwrap_err();
        assert!(
            err.contains("the run panicked: injected run panic"),
            "{err}"
        );
        assert!(
            server
                .shared
                .inflight
                .lock()
                .expect("inflight lock")
                .is_empty(),
            "the panicked leader deregistered its key"
        );
        let retry = client
            .run(SUM, vec![], inputs(), false)
            .expect("the same connection serves the next request");
        assert!(!retry.stats.cache_hit, "a panicked run caches nothing");
        client.ping().expect("ping");
        server.stop();
    }
}
