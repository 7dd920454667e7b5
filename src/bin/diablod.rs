//! `diablod` — the DIABLO serving daemon.
//!
//! ```text
//! diablod [--listen ADDR] [engine flags] [serving flags]
//! ```
//!
//! Starts a long-lived server that accepts concurrent DIABLO programs
//! over the length-prefixed socket protocol of `diablo-serve`, runs them
//! on **one shared engine** (one work-stealing worker pool, one global
//! memory budget), and serves repeat programs from a plan-hash result
//! cache.
//! Drive it with `diabloc run --connect ADDR program.dbl …`; the benchmark
//! spine's `serve_mix` workload drives an in-process one.
//!
//! * `--listen ADDR` — `host:port` (port 0 picks an ephemeral port) or
//!   `unix:/path` for a Unix domain socket. Default `127.0.0.1:7716`,
//!   or `DIABLO_SERVE_LISTEN`.
//! * `--max-inflight N` — concurrent executions admitted; excess
//!   requests queue (`DIABLO_SERVE_MAX_INFLIGHT`, default 4).
//! * `--queue-deadline-ms MS` — how long a queued request may wait
//!   before a clean admission error (`DIABLO_SERVE_QUEUE_DEADLINE_MS`,
//!   default 10000).
//! * `--cache-budget BYTES` — result-cache byte budget, 0 disables
//!   caching (`DIABLO_SERVE_CACHE_BUDGET`, default 64 MiB).
//!
//! Engine flags are `diabloc run`'s, parsed by the same code
//! ([`diablo::EngineFlags`]): `--backend <columnar|local>` (the columnar
//! layout is the default), `--workers N`, `--partitions N`,
//! `--memory-budget BYTES`, `--dataset-budget BYTES` (one shared dataset
//! cache across all tenants — materialized datasets past the budget
//! demote to disk and recompute when dropped) — each also honors its
//! `DIABLO_*` env var through the engine's own defaults.
//!
//! On startup the daemon prints exactly one line to stdout —
//! `diablod: listening on <resolved addr>` — so wrappers can wait for
//! readiness; it exits cleanly when a client sends the shutdown request.

use std::process::ExitCode;
use std::time::Duration;

use diablo::{take_flag, EngineFlags};
use diablo_serve::{ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match serve(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("diablod: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A flag value, falling back to its environment variable.
fn flag_or_env(args: &mut Vec<String>, flag: &str, env: &str) -> Result<Option<String>, String> {
    match take_flag(args, flag)? {
        Some(v) => Ok(Some(v)),
        None => Ok(std::env::var(env).ok().filter(|v| !v.is_empty())),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a valid value"))
}

fn usage() -> String {
    format!(
        "usage: diablod [--listen ADDR|unix:/path] {} [--max-inflight N] [--queue-deadline-ms MS] [--cache-budget BYTES]",
        EngineFlags::USAGE
    )
}

fn serve(mut args: Vec<String>) -> Result<(), String> {
    let engine = EngineFlags::extract(&mut args)?;
    let listen = flag_or_env(&mut args, "--listen", "DIABLO_SERVE_LISTEN")?
        .unwrap_or_else(|| "127.0.0.1:7716".to_string());

    let mut cfg = ServeConfig::default();
    if let Some(v) = flag_or_env(&mut args, "--max-inflight", "DIABLO_SERVE_MAX_INFLIGHT")? {
        cfg.max_inflight = parse_num("--max-inflight", &v)?;
    }
    if let Some(v) = flag_or_env(
        &mut args,
        "--queue-deadline-ms",
        "DIABLO_SERVE_QUEUE_DEADLINE_MS",
    )? {
        cfg.queue_deadline = Duration::from_millis(parse_num("--queue-deadline-ms", &v)?);
    }
    if let Some(v) = flag_or_env(&mut args, "--cache-budget", "DIABLO_SERVE_CACHE_BUDGET")? {
        cfg.cache_budget = parse_num("--cache-budget", &v)?;
    }
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument `{stray}`\n{}", usage()));
    }

    let server =
        Server::start(&listen, engine.context(), cfg).map_err(|e| format!("{listen}: {e}"))?;
    // The single readiness line wrappers wait for; flushed immediately
    // so piped stdout sees it before the first request.
    println!("diablod: listening on {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.join();
    Ok(())
}
