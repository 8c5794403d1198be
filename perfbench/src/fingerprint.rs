//! The machine fingerprint printed beside every absolute number, and the process's peak RSS.

use bnn_tensor::KernelTier;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The commit of the git checkout the benchmark runs in, read from `.git` without running git;
/// exported source trees have none.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// One line naming the machine, toolchain and code that produced the numbers.
pub fn describe() -> String {
    format!(
        "machine: nproc={} cpu=\"{}\" avx2={} kernel_tier={} rustc=\"{}\" commit={}",
        nproc(),
        cpu_model(),
        avx2(),
        KernelTier::default().label(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
