//! Facts about the host a result was measured on.

use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), MB (10⁶ bytes).
/// `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(name, value)` provenance pairs: CPU count and model, compiler and
/// source revision.
pub fn provenance() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    // The benchmark may run from an exported tree without `.git`; only a
    // real checkout is asked for its revision.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        (
            "rustc",
            command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
        ),
        (
            "commit",
            commit.unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        ),
        ("arch", std::env::consts::ARCH.to_owned()),
    ]
}

/// First line of a command's standard output, if it ran successfully.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_owned())
}
