//! What the process can say about the machine, the build and itself.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;

/// Removes every `DIABLO_*` variable, so the engine runs with the defaults
/// `diabloc run` gives a user, and moves the engine's spill and dataset
/// cache files (it puts them in the system temp directory) under the
/// benchmark's own `out/` directory. Call before any thread starts.
pub fn clean_environment() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DIABLO_") {
            std::env::remove_var(key);
        }
    }
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

/// `spine/out`, next to the manifest this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB, less the
/// calibration loops' own table, which is the spine's memory, not the
/// workload's.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0 - crate::calib::table_mb())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine and build facts that go into every result. A checkout without
/// git history reports the commit as `unknown`.
pub fn describe() -> Json {
    Json::obj([
        ("host_cpus", Json::Num(host_cpus() as f64)),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
    ])
}
