//! Pin and record the environment a run measures in.
//!
//! The stack reads several `FERROTCAM_*` knobs at run time; one of them
//! (`FERROTCAM_JOBS=1`) alone moves lookup p50 about tenfold. The
//! benchmark clears them all before any thread starts, so a result
//! never depends on the caller's shell, and records the machine facts a
//! figure is only comparable under.

/// Run-time knobs of the stack that the benchmark clears.
pub const PINNED_VARS: &[&str] = &[
    "FERROTCAM_JOBS",
    "FERROTCAM_BYPASS",
    "FERROTCAM_ORDERING",
    "FERROTCAM_TRACE",
    "FERROTCAM_ERC",
];

/// Clear every [`PINNED_VARS`] entry; returns the ones that were set,
/// with the value they had.
pub fn pin() -> Vec<(String, String)> {
    let mut cleared = Vec::new();
    for &var in PINNED_VARS {
        if let Ok(v) = std::env::var(var) {
            cleared.push((var.to_string(), v));
        }
        std::env::remove_var(var);
    }
    cleared
}

/// Target features this binary was compiled with (the repository builds
/// with `target-cpu=native`, so these are the host's).
#[must_use]
pub fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($feat:literal),*) => {$(
            if cfg!(target_feature = $feat) {
                f.push($feat);
            }
        )*};
    }
    probe!(
        "sse4.2",
        "popcnt",
        "avx",
        "avx2",
        "bmi2",
        "fma",
        "avx512f",
        "avx512vpopcntdq"
    );
    f
}

/// CPU model string from `/proc/cpuinfo`, if readable.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout when it is a git work tree, else `unknown`.
#[must_use]
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Peak resident set size of this process (MB), from `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The environment record printed before every result line.
#[must_use]
pub fn record(cleared: &[(String, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cleared: Vec<String> = cleared
        .iter()
        .map(|(k, v)| format!("\"{k}={}\"", v.replace('"', "'")))
        .collect();
    format!(
        "env {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"target_features\": [{}], \"commit\": \"{}\", \"pinned\": [{}], \"cleared\": [{}]}}",
        cpu_model().replace('"', "'"),
        target_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        commit(),
        PINNED_VARS
            .iter()
            .map(|v| format!("\"{v}\""))
            .collect::<Vec<_>>()
            .join(", "),
        cleared.join(", ")
    )
}

/// CPU time (s) this process has used so far, every thread included,
/// from `/proc/self/stat` (10 ms resolution).
#[must_use]
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
