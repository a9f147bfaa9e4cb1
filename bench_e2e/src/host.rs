//! The host header every result starts with, and the process's peak memory.

use crate::json::{object, string, Json};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, field: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Processors this process was started on (not the one the measuring
/// thread has since been pinned to).
pub fn nproc() -> usize {
    match crate::placement::allowed().len() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Git commit (with a dirty flag), CPU model, processor count, popcount
/// kernel and compiler. A checkout that is not a git repository, or a host
/// without `git`/`rustc` on the path, reports `unknown` for that field.
pub fn header() -> Json {
    let commit = command_line("git", &["rev-parse", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |c| {
            let dirty =
                command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{c}-dirty")
            } else {
                c
            }
        },
    );
    object(vec![
        ("commit", string(&commit)),
        (
            "cpu",
            string(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Json::UInt(nproc() as u64)),
        ("popcount_kernel", string(&crate::adapter::active_kernel())),
        (
            "rustc",
            string(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
    ])
}
