//! The host stamp every result carries, and process memory readings.

use crate::json::escape;
use std::path::Path;

/// What a result depends on besides the code: printed with every run.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether the CPU reports AVX2.
    pub avx2: bool,
    /// Whether the CPU reports FMA.
    pub fma: bool,
    /// `TCCA_KERNEL_MODE` as set (or `unset`).
    pub kernel_mode_env: String,
    /// The GEMM kernel mode the process resolved.
    pub kernel_mode: String,
    /// `TCCA_NUM_THREADS` as set (or `unset`).
    pub num_threads_env: String,
    /// Threads the numeric kernels may use (`parallel::max_threads`).
    pub threads: usize,
    /// Reactor backend the servers run on.
    pub reactor: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Stamp {
    /// Read the stamp for the current process and working directory.
    pub fn collect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2,
            fma,
            kernel_mode_env: env("TCCA_KERNEL_MODE"),
            kernel_mode: format!("{:?}", linalg::gemm::kernel_mode()),
            num_threads_env: env("TCCA_NUM_THREADS"),
            threads: parallel::max_threads(),
            reactor: serve::ReactorKind::resolve(None).name().to_string(),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let workload = escape(workload);
        format!(
            "{{\"stamp\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\"avx2\":{},\"fma\":{},\"TCCA_KERNEL_MODE\":\"{}\",\"kernel_mode\":\"{}\",\"TCCA_NUM_THREADS\":\"{}\",\"threads\":{},\"reactor\":\"{}\",\"commit\":\"{}\"}}}}",
            self.nproc,
            self.avx2,
            self.fma,
            escape(&self.kernel_mode_env),
            self.kernel_mode,
            escape(&self.num_threads_env),
            self.threads,
            self.reactor,
            escape(&self.commit)
        )
    }
}

/// Resolve `HEAD` of a git work tree by reading `.git` directly (no
/// subprocess); `None` outside a work tree.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Host-wide CPU time as `(total, stolen)` ticks from `/proc/stat`: the
/// time the hypervisor ran someone else while this machine's vCPUs wanted to
/// run. `None` where the file is missing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields.iter().sum(), fields[7]))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
