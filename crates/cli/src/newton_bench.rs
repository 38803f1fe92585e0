//! `ferrotcam bench` — Newton hot-path benchmark for the transient
//! engine.
//!
//! Runs the Fig. 7 search experiment (one 64-bit 1.5T1DG row, two-step
//! search) under pinned solver configurations and reports wall-clock
//! per transient:
//!
//! * `bypass=off, ordering=natural` — the pre-optimisation baseline;
//! * `bypass=safe, ordering=amd` — the production default;
//! * `bypass=aggressive, ordering=amd` — caches persisted across steps.
//!
//! Results land in `BENCH_newton.json` (results dir: `$FERROTCAM_RESULTS`
//! or `./results`), in the criterion-style `results` format understood
//! by `compare_runs --bench`. With `--smoke` the acceptance invariants
//! become hard failures: the safe-bypass waveforms must agree with the
//! baseline to 1e-6 V on every probed node, and `SimStats.bypass_hits`
//! must be non-zero (a silent bypass regression fails CI, not just a
//! slow one).

use crate::commands::gate_verdict;
use crate::CliError;
use ferrotcam::cell::DesignKind;
use ferrotcam::SearchSim;
use ferrotcam_spice::{BypassPolicy, NewtonOpts, Ordering, SimStats, Trace};
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed configuration in the `BENCH_newton.json` artefact.
#[derive(Debug, Serialize)]
struct BenchEntry {
    id: String,
    /// Wall-clock nanoseconds for one full search transient (median of
    /// the repetitions).
    ns_per_iter: f64,
    samples: usize,
    /// Newton iterations per transient — the work the wall-clock buys.
    throughput: Option<u64>,
}

/// The `BENCH_newton.json` artefact (`compare_runs --bench` shape).
#[derive(Debug, Serialize)]
struct NewtonBenchFile {
    target: &'static str,
    results: Vec<BenchEntry>,
}

struct Opts {
    smoke: bool,
    bits: usize,
    reps: usize,
    design: DesignKind,
}

fn parse_opts(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<Opts, String> {
    let mut o = Opts {
        smoke: false,
        bits: 64,
        reps: 3,
        design: DesignKind::T15Dg,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--smoke" => {
                o.smoke = true;
                o.reps = 1;
            }
            "--bits" => {
                o.bits = next("a word length")?
                    .parse()
                    .map_err(|e| format!("--bits: {e}"))?
            }
            "--reps" => {
                o.reps = next("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--design" => o.design = parse_design(next("a design")?)?,
            other => return Err(format!("unknown bench flag {other:?}")),
        }
    }
    if o.bits == 0 || o.reps == 0 {
        return Err("--bits and --reps must be positive".into());
    }
    if o.design.is_two_step() && !o.bits.is_multiple_of(2) {
        return Err("1.5T designs pair cells: use an even word length".into());
    }
    Ok(o)
}

/// Build the Fig. 7 search row: an alternating stored word with a
/// single-bit mismatch in the query, so both the discharge path and the
/// two-step machinery are exercised.
fn build_sim(opts: &Opts, newton: NewtonOpts) -> Result<SearchSim, String> {
    let stored: String = (0..opts.bits)
        .map(|i| if i % 2 == 0 { '0' } else { '1' })
        .collect();
    let stored = crate::commands::parse_word(&stored)?;
    let mut query: Vec<bool> = (0..opts.bits).map(|i| i % 2 != 0).collect();
    query[opts.bits - 1] = !query[opts.bits - 1];
    let mut sim = crate::commands::build(opts.design, &stored, &query)?;
    sim.newton = newton;
    Ok(sim)
}

/// One pinned solver configuration.
fn config(bypass: BypassPolicy, ordering: Ordering) -> NewtonOpts {
    NewtonOpts {
        bypass,
        ordering,
        ..NewtonOpts::default()
    }
}

/// Time `reps` fresh transients of one configuration; returns the
/// median wall-clock ns, the stats, and the last run's trace.
fn time_config(
    opts: &Opts,
    label: &str,
    newton: &NewtonOpts,
) -> Result<(f64, SimStats, Trace), String> {
    let mut times = Vec::with_capacity(opts.reps);
    let mut last = None;
    for _ in 0..opts.reps {
        // Rebuild per repetition: `commit` advances FeFET polarisation,
        // so a reused circuit would simulate a different trajectory.
        let mut sim = build_sim(opts, newton.clone())?;
        let started = Instant::now();
        let run = sim
            .run()
            .map_err(|e| format!("{label}: transient failed: {e}"))?;
        times.push(started.elapsed().as_secs_f64() * 1e9);
        last = Some(run.trace);
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    let trace = last.expect("reps >= 1");
    let stats = trace.stats();
    println!(
        "  {label:<26} {:>9.2} ms/run   {:>6} iters   {:>6} hits / {} evals",
        median / 1e6,
        stats.newton_iters,
        stats.bypass_hits,
        stats.bypass_hits + stats.bypass_misses
    );
    Ok((median, stats, trace))
}

/// Maximum absolute deviation between two traces over every signal of
/// the baseline, sampled on the baseline time grid (the candidate is
/// interpolated, so accepted-step grids need not coincide).
fn max_waveform_deviation(base: &Trace, cand: &Trace) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for name in base.signal_names() {
        let ys = base.signal(name).map_err(|e| e.to_string())?;
        for (&t, &y) in base.time().iter().zip(ys) {
            let yc = cand
                .value_at(name, t)
                .map_err(|e| format!("candidate trace lacks {name}: {e}"))?;
            worst = worst.max((y - yc).abs());
        }
    }
    Ok(worst)
}

/// Entry point, called from the command dispatcher.
pub fn run(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<(), CliError> {
    let opts = parse_opts(args, parse_design)?;
    println!(
        "bench: {} search row, {} bits, {} rep(s) per config{}",
        opts.design.name(),
        opts.bits,
        opts.reps,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let configs = [
        (
            "bypass_off_natural",
            config(BypassPolicy::Off, Ordering::Natural),
        ),
        ("bypass_safe_amd", config(BypassPolicy::Safe, Ordering::Amd)),
        (
            "bypass_aggressive_amd",
            config(BypassPolicy::Aggressive, Ordering::Amd),
        ),
    ];
    let mut results = Vec::new();
    let mut runs = Vec::new();
    for (name, newton) in &configs {
        let (ns, stats, trace) = time_config(&opts, name, newton).map_err(CliError::Failed)?;
        results.push(BenchEntry {
            id: format!("fig7_search{}_{name}", opts.bits),
            ns_per_iter: ns,
            samples: opts.reps,
            throughput: Some(stats.newton_iters),
        });
        runs.push((name, ns, stats, trace));
    }

    let speedup = runs[0].1 / runs[1].1;
    println!("  speedup (safe+amd over off+natural): {speedup:.2}x");

    // --- Artefact ----------------------------------------------------------
    let file = NewtonBenchFile {
        target: "newton",
        results,
    };
    let dir = std::env::var("FERROTCAM_RESULTS").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&dir).map_err(|e| CliError::Failed(format!("create {dir}: {e}")))?;
    let path = std::path::Path::new(&dir).join("BENCH_newton.json");
    let json = serde_json::to_string_pretty(&file).expect("serialise bench file");
    std::fs::write(&path, json)
        .map_err(|e| CliError::Failed(format!("write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());

    // --- Acceptance invariants --------------------------------------------
    let mut report = String::new();
    let (_, _, off_stats, off_trace) = &runs[0];
    if off_stats.bypass_hits != 0 {
        let _ = writeln!(
            report,
            "bypass=off recorded {} hit(s) (bound 0)",
            off_stats.bypass_hits
        );
    }
    for (name, _, stats, trace) in &runs[1..] {
        if stats.bypass_hits == 0 {
            let _ = writeln!(
                report,
                "{name}: SimStats.bypass_hits == 0 (bypass never engaged; bound > 0)"
            );
        }
        let dev = max_waveform_deviation(off_trace, trace).map_err(CliError::Failed)?;
        println!("  {name:<26} max |ΔV| vs baseline = {dev:.3e} V");
        if dev > 1e-6 {
            let _ = writeln!(
                report,
                "{name}: waveforms deviate {dev:.3e} V from bypass=off (bound 1e-6 V)"
            );
        }
    }
    gate_verdict(
        "bench",
        &report,
        opts.smoke,
        "bench invariants hold: bypass engaged, waveforms within 1e-6 V of baseline",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<(), CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v, crate::commands::parse_design)
    }

    #[test]
    fn smoke_run_small_word() {
        let dir = std::env::temp_dir().join("ferrotcam-newton-bench-test");
        std::env::set_var("FERROTCAM_RESULTS", dir.to_str().unwrap());
        run_args(&["--smoke", "--bits", "4"]).unwrap();
        let body = std::fs::read_to_string(dir.join("BENCH_newton.json")).unwrap();
        assert!(body.contains("\"target\": \"newton\""));
        assert!(body.contains("fig7_search4_bypass_safe_amd"));
        std::env::remove_var("FERROTCAM_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(matches!(run_args(&["--bogus"]), Err(CliError::Usage(_))));
        assert!(run_args(&["--bits"]).is_err());
        assert!(run_args(&["--bits", "0"]).is_err());
        assert!(run_args(&["--bits", "3"]).is_err()); // odd on a 1.5T design
    }
}
