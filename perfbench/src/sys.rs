//! Facts about the host and the process that every run records beside its
//! metrics: cores, peak memory, CPU steal, and the code revision.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Cores this process may run on.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`: (steal ticks, total ticks).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the current counters; zeros where `/proc/stat` is missing.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so the total stops at steal.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of all CPU time the host stole between `self` and `later`.
    pub fn steal_share_until(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where runs leave snapshots and trace files (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The git commit when the tree is a git checkout, otherwise `None`.
/// Git may not look above the repository root, so a tree copied into some
/// other repository's work tree reports `None`, not that repository's head.
pub fn git_revision() -> Option<String> {
    let root = repo_root();
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(&root);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = git.output().ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// FNV-1a over the paths and bytes of every source file the benchmark
/// builds (`crates/`, `vendor/` and this package), in sorted path order.
/// Identifies the measured code where no git metadata exists.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(&file).unwrap_or_default());
    }
    format!("fnv1a64:{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
