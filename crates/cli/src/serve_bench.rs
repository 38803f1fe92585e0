//! `ferrotcam serve-bench` — closed-loop + open-loop load generator
//! for the serving layer.
//!
//! Builds a key-partitioned random table, starts a [`TcamService`] per
//! configuration, and measures:
//!
//! 1. **closed loop** — client threads submit-and-wait as fast as the
//!    service answers, sweeping the shard count to show throughput
//!    scaling;
//! 2. **open loop** — a deterministic SplitMix64 exponential arrival
//!    process offers load beyond capacity through the fire-and-forget
//!    packed path, showing bounded-queue shedding and the bit-parallel
//!    kernels' sustained rate;
//! 3. **oracle agreement** — on an idle service at the largest shard
//!    count, 64 queries of each kind (exact routed, exact fan-out,
//!    threshold, top-k and, for even widths, range) must answer exactly
//!    as [`reference_search`] does, field by field, and every exact
//!    response's energy must equal the standalone `core::fom` figure;
//! 4. **audit lane** — under load, the service replays a sample of
//!    answers through the reference walk: queries replayed,
//!    divergences, worst energy error.
//!
//! With `--workload approx` (or `both`; smoke runs default to `both`)
//! the sweep also drives the approximate-match kinds — Hamming
//! threshold, top-k, and FeCAM-style range — one closed-loop and one
//! open-loop overload point per kind, written as `closed_approx_*` /
//! `open_approx_*` curves. Threshold curves carry the sense-model's
//! calibrated misclassification probability (`miscls`), which
//! `compare_runs --bench` gates on.
//!
//! With `--workload mixed` (also part of `both`) the open loop offers a
//! live read/write mix — 90% key-routed exact searches, 8% updates, 1%
//! inserts, 1% deletes — exercising the copy-on-write snapshot path
//! under churn. Writes are priced by the calibrated 3-step program; the
//! audit lane replays sampled searches against the same captured
//! snapshot, so any torn word a write exposed would surface as a
//! divergence. Smoke runs gate on a divergence-free lane and on
//! sustaining ≥ 100k searches/s at the reference shape under the 10%
//! write mix.
//!
//! Energy/latency attribution is calibrated from the SPICE datasheets
//! in the results directory (`table4.json`, `fig7_*.csv`, Fig. 4 miss
//! curves) via [`Calibration::load`]; `--characterize` runs a live
//! SPICE characterisation instead. Results land in `BENCH_serve.json`
//! (results dir: `$FERROTCAM_RESULTS` or `./results`), in the
//! throughput-curve format understood by `compare_runs --bench`. With
//! `--smoke` the run is bounded to a few seconds and the acceptance
//! invariants (oracle agreement, energy match within 1e-9, shard-sweep
//! scaling, shedding under overload, audit lane sampled and clean)
//! become hard failures.

use ferrotcam::fom::SearchMetrics;
use ferrotcam::{
    ApproxHit, Calibration, DesignKind, PackedQuery, RowWriteMetrics, SearchOutcome, SenseModel,
    TernaryWord,
};
use ferrotcam_eval::parasitics::row_parasitics;
use ferrotcam_eval::tech::tech_14nm;
use ferrotcam_serve::{
    reference_search, Overloaded, RequestKind, SearchResponse, ServiceConfig, ServiceMetrics,
    ShardedTcam, TcamService, DEFAULT_MAX_BATCH,
};
use rand::split_mix64;
use serde::Serialize;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::commands::gate_verdict;
use crate::CliError;

/// One point on the throughput-latency curve.
#[derive(Debug, Clone, Serialize)]
struct CurvePoint {
    id: String,
    mode: &'static str,
    shards: usize,
    rows: usize,
    offered_qps: Option<f64>,
    achieved_qps: f64,
    /// Latency percentiles are absent when the run completed nothing
    /// inside the measured window (an empty histogram has no quantile).
    #[serde(skip_serializing_if = "Option::is_none")]
    p50_ns: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p95_ns: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p99_ns: Option<f64>,
    shed: u64,
    max_queue_depth: usize,
    step1_early_termination_rate: f64,
    energy_per_query_fj: f64,
    /// Calibrated per-boundary-row misclassification probability of the
    /// sense-time threshold this curve ran at (approximate threshold
    /// workloads only).
    #[serde(skip_serializing_if = "Option::is_none")]
    miscls: Option<f64>,
    /// Completed write (insert/update/delete) rate, mixed workload only.
    #[serde(skip_serializing_if = "Option::is_none")]
    write_qps: Option<f64>,
}

/// Render an optional nanosecond percentile in microseconds for the
/// console (NaN marks an empty histogram).
fn us(v: Option<f64>) -> f64 {
    v.map_or(f64::NAN, |ns| ns / 1e3)
}

/// Per-dispatcher counters of one run,
/// `d<i> batches/steals/parks/wakeups/busy`: parks near the batch count
/// mean idle dispatchers sleep, not poll; busy is the time spent
/// executing batches, in ms.
fn dispatch_counters(m: &ServiceMetrics) -> String {
    m.dispatchers
        .iter()
        .enumerate()
        .map(|(i, d)| {
            format!(
                "d{i} {}/{}/{}/{}/{:.1}ms",
                d.batches,
                d.steals,
                d.parks,
                d.wakeups,
                d.busy_ns as f64 / 1e6
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

/// The `BENCH_serve.json` artefact.
#[derive(Debug, Serialize)]
struct ServeBenchFile {
    target: &'static str,
    curves: Vec<CurvePoint>,
}

/// Which request mix the bench drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Exact-match only (the classic sweep).
    Exact,
    /// Approximate kinds only: threshold, top-k, range.
    Approx,
    /// Live read/write mix: 90% routed searches, 10% online writes.
    Mixed,
    /// Every mix, back to back.
    Both,
}

impl Workload {
    fn includes_exact(self) -> bool {
        matches!(self, Self::Exact | Self::Both)
    }

    fn includes_approx(self) -> bool {
        matches!(self, Self::Approx | Self::Both)
    }

    fn includes_mixed(self) -> bool {
        matches!(self, Self::Mixed | Self::Both)
    }
}

/// Parsed command-line options.
struct Opts {
    smoke: bool,
    rows: usize,
    width: usize,
    shards: Vec<usize>,
    secs: f64,
    seed: u64,
    characterize: Option<DesignKind>,
    audit_period: u64,
    workload: Workload,
}

fn parse_opts(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<Opts, String> {
    let mut o = Opts {
        smoke: false,
        rows: 16384,
        width: 64,
        shards: vec![1, 2, 4],
        secs: 1.5,
        seed: 42,
        characterize: None,
        audit_period: 10_000,
        workload: Workload::Exact,
    };
    let mut explicit_workload = None;
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
                o.secs = 0.4;
                // Smoke must exercise the audit lane, so sample densely.
                o.audit_period = 500;
            }
            "--rows" => {
                o.rows = next("a count")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--width" => {
                o.width = next("a width")?
                    .parse()
                    .map_err(|e| format!("--width: {e}"))?
            }
            "--secs" => {
                o.secs = next("seconds")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?
            }
            "--seed" => {
                o.seed = next("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--audit-period" => {
                o.audit_period = next("a period")?
                    .parse()
                    .map_err(|e| format!("--audit-period: {e}"))?
            }
            "--shards" => {
                o.shards = next("a list like 1,2,4")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--shards: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if o.shards.is_empty() || o.shards.contains(&0) {
                    return Err("--shards needs positive counts".into());
                }
            }
            "--characterize" => o.characterize = Some(parse_design(next("a design")?)?),
            "--workload" => {
                explicit_workload = Some(match next("exact|approx|mixed|both")? {
                    "exact" => Workload::Exact,
                    "approx" => Workload::Approx,
                    "mixed" => Workload::Mixed,
                    "both" => Workload::Both,
                    other => return Err(format!("--workload: unknown mix {other:?}")),
                });
            }
            other => return Err(format!("unknown serve-bench flag {other:?}")),
        }
    }
    if o.width == 0 || o.rows == 0 {
        return Err("--rows and --width must be positive".into());
    }
    // A smoke run must cover the approximate-match path too (the CI
    // gate asserts its audit lane stays clean); explicit --workload
    // still wins.
    o.workload = explicit_workload.unwrap_or(if o.smoke { Workload::Both } else { o.workload });
    if o.workload.includes_approx() && !o.width.is_multiple_of(2) {
        return Err("--workload approx needs an even --width (range cells pair digits)".into());
    }
    Ok(o)
}

/// One random packed query (and nothing else) off the SplitMix64
/// stream — the open-loop hot path, no per-bit work.
fn random_packed(state: &mut u64, width: usize) -> PackedQuery {
    let mut words = [0u64; 8];
    let n = width.div_ceil(64).min(8);
    for w in words.iter_mut().take(n) {
        *w = split_mix64(state);
    }
    PackedQuery::from_words(width, &words[..n.max(1)])
}

/// Build a key-partitioned table: every stored word lives on the
/// shard its own bit-pattern hashes to, so routed queries find their
/// keys while scanning only `rows / shards` rows.
fn build_table(opts: &Opts, shards: usize, metrics: &SearchMetrics) -> ShardedTcam {
    let mut t = ShardedTcam::new(opts.width, shards);
    let mut state = opts.seed;
    for _ in 0..opts.rows {
        let q = random_packed(&mut state, opts.width);
        let shard = t.route_packed(&q);
        t.store_in(shard, TernaryWord::from_bits(&q.to_bits()));
    }
    t.attach_metrics(metrics.clone());
    t
}

/// Ring capacity of every benched service: deep enough that the
/// kernels, not queue turnover, set the open-loop rate.
const QUEUE_CAPACITY: usize = 16 * 1024;

/// The service configuration every point runs.
fn service_config(opts: &Opts) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: QUEUE_CAPACITY,
        max_batch: DEFAULT_MAX_BATCH,
        audit_period: opts.audit_period,
        ..ServiceConfig::default()
    }
}

/// Suffix of every curve id. Runs from before the reference tier was
/// retired measured each point on two tiers (`_spice` / `_behav`); the
/// served points keep their `_behav` ids so `compare_runs --bench`
/// matches older files point for point.
const ID_SUFFIX: &str = "_behav";

fn curve_point(
    base: &str,
    mode: &'static str,
    offered_qps: Option<f64>,
    achieved_qps: f64,
    shards: usize,
    rows: usize,
    m: &ServiceMetrics,
) -> CurvePoint {
    let shed = m.shed_queue_full + m.shed_rate_limited + m.shed_shutting_down;
    CurvePoint {
        id: format!("{base}{ID_SUFFIX}"),
        mode,
        shards,
        rows,
        offered_qps,
        achieved_qps,
        p50_ns: m.wall_latency_ns.p50,
        p95_ns: m.wall_latency_ns.p95,
        p99_ns: m.wall_latency_ns.p99,
        shed,
        max_queue_depth: m.max_queue_depth,
        step1_early_termination_rate: m.step1_early_termination_rate,
        energy_per_query_fj: if m.completed == 0 {
            0.0
        } else {
            m.energy_total_j / m.completed as f64 * 1e15
        },
        miscls: None,
        write_qps: None,
    }
}

/// Closed loop: `clients` threads submit-and-wait until the deadline.
/// Exact queries are key-routed to their shard; approximate kinds fan
/// out over every bank (a distance / window search has no home shard).
/// Returns (achieved qps, final metrics).
fn closed_loop(
    table: ShardedTcam,
    opts: &Opts,
    kind: RequestKind,
    clients: usize,
    secs: f64,
) -> (f64, ServiceMetrics) {
    let svc = TcamService::start(table, &service_config(opts));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let completions: u64 = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let client = svc.client();
                let width = opts.width;
                let mut state = opts.seed ^ (0x9E37 + c as u64);
                scope.spawn(move || {
                    let mut done = 0u64;
                    while Instant::now() < deadline {
                        let q = random_packed(&mut state, width);
                        let shard = match kind {
                            RequestKind::Exact => Some(client.route_packed(&q)),
                            _ => None,
                        };
                        match client.submit_kind(c as u32, q, kind, shard) {
                            Ok(ticket) => {
                                let _ = ticket.wait();
                                done += 1;
                            }
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                    done
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let metrics = svc.drain();
    (completions as f64 / elapsed, metrics)
}

/// Open loop: offer `offered_qps` with SplitMix64 exponential
/// inter-arrivals for `secs` through the fire-and-forget packed path,
/// never waiting for responses. The achieved rate counts the full
/// elapsed time *including the drain*, so every completed query was
/// genuinely executed inside the measured window.
fn open_loop(
    table: ShardedTcam,
    opts: &Opts,
    kind: RequestKind,
    offered_qps: f64,
    secs: f64,
) -> (f64, ServiceMetrics) {
    let svc = TcamService::start(table, &service_config(opts));
    let client = svc.client();
    let mut state = opts.seed ^ 0xDEAD_BEEF;
    let started = Instant::now();
    let horizon = Duration::from_secs_f64(secs);
    let mut next_arrival = 0.0f64; // seconds since start
    loop {
        let now = started.elapsed();
        if now >= horizon {
            break;
        }
        // Submit every arrival that is due by now.
        while next_arrival <= now.as_secs_f64() {
            // Exponential inter-arrival: -ln(U)/λ, U ∈ (0, 1].
            let u = (split_mix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            next_arrival += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / offered_qps;
            let q = random_packed(&mut state, opts.width);
            // Route every kind, as a sharded deployment would under
            // overload: per-query work is one shard's rows, and the
            // fan-out (whole-table) form is covered by the closed
            // loop's latency points.
            let shard = Some(client.route_packed(&q));
            match client.submit_noreply_kind(0, q, kind, shard) {
                Ok(()) => {}
                Err(Overloaded::QueueFull) => {} // counted by the service
                Err(e) => panic!("unexpected shed: {e}"),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let metrics = svc.drain();
    let elapsed = started.elapsed().as_secs_f64();
    (metrics.completed as f64 / elapsed, metrics)
}

/// The first field in which a served response differs from the
/// reference walk's answer, as a gate line naming the query lane, the
/// query's index in it and the field; `None` when they agree.
fn oracle_disagreement(
    lane: &str,
    index: usize,
    served: &SearchResponse,
    reference: &SearchOutcome,
    reference_hits: &[ApproxHit],
) -> Option<String> {
    let (field, got, want) = if served.matches != reference.matches {
        (
            "matches",
            format!("{:?}", served.matches),
            format!("{:?}", reference.matches),
        )
    } else if served.hits != reference_hits {
        (
            "hits",
            format!("{:?}", served.hits),
            format!("{reference_hits:?}"),
        )
    } else if served.step1_misses != reference.step1_misses {
        (
            "step1_misses",
            served.step1_misses.to_string(),
            reference.step1_misses.to_string(),
        )
    } else if served.step2_misses != reference.step2_misses {
        (
            "step2_misses",
            served.step2_misses.to_string(),
            reference.step2_misses.to_string(),
        )
    } else {
        return None;
    };
    Some(format!(
        "oracle agreement: {lane} query {index}: {field} differ (served {got}, reference_search {want})"
    ))
}

/// One query lane of the oracle-agreement phase: its name, its kind,
/// and whether its query `i` is routed to its shard (else fanned out).
type OracleLane = (&'static str, RequestKind, fn(usize) -> bool);

/// Queries per lane of the oracle-agreement phase.
const ORACLE_QUERIES: usize = 64;

/// What the oracle-agreement phase found.
struct OracleAudit {
    /// Queries compared with the reference walk.
    checked: usize,
    /// The first disagreement of each lane that had one.
    disagreements: Vec<String>,
    /// Worst relative deviation of an exact response's energy from the
    /// standalone `core::fom` figure.
    energy_worst_rel: f64,
}

/// Oracle agreement and energy truth on an idle service at the largest
/// shard count: [`ORACLE_QUERIES`] queries per lane — exact routed,
/// exact fan-out, threshold t=2, top-k k=8 and, for even widths, range
/// (the approximate lanes alternate fan-out and routed) — each checked
/// field by field against [`reference_search`] over the served table,
/// and every exact response's energy against `core::fom`.
fn oracle_audit(opts: &Opts, metrics: &SearchMetrics) -> OracleAudit {
    let &shards = opts.shards.iter().max().expect("non-empty");
    let svc = TcamService::start(build_table(opts, shards, metrics), &service_config(opts));
    let client = svc.client();
    // Nothing writes to the table, so one view is what every query
    // below is answered from.
    let view = client.table();
    let alternate: fn(usize) -> bool = |i| i % 2 == 1;
    let mut lanes: Vec<OracleLane> = vec![
        ("exact-routed", RequestKind::Exact, |_| true),
        ("exact-fanout", RequestKind::Exact, |_| false),
        ("threshold", RequestKind::Threshold { t: 2 }, alternate),
        ("topk", RequestKind::TopK { k: 8 }, alternate),
    ];
    if opts.width.is_multiple_of(2) {
        lanes.push(("range", RequestKind::Range, alternate));
    }
    let mut state = opts.seed ^ 0xA0D1;
    let mut audit = OracleAudit {
        checked: 0,
        disagreements: Vec::new(),
        energy_worst_rel: 0.0,
    };
    for (lane, kind, routed) in lanes {
        let mut first = None;
        let mut disagreeing = 0usize;
        for i in 0..ORACLE_QUERIES {
            let q = random_packed(&mut state, opts.width);
            let shard = routed(i).then(|| client.route_packed(&q));
            let resp = client
                .submit_kind(0, q.clone(), kind, shard)
                .expect("idle service")
                .wait()
                .expect("no deadline configured");
            let (want, want_hits) = reference_search(&view, kind, &q, shard);
            audit.checked += 1;
            if let Some(line) = oracle_disagreement(lane, i, &resp, &want, &want_hits) {
                disagreeing += 1;
                first.get_or_insert(line);
            }
            let total = resp.matches.len() + resp.step1_misses + resp.step2_misses;
            if kind == RequestKind::Exact && total > 0 {
                let miss_rate = resp.step1_misses as f64 / total as f64;
                let standalone = total as f64 * metrics.energy_avg(miss_rate);
                let served = resp.energy_j.expect("metrics attached");
                let rel = (served - standalone).abs() / standalone.abs().max(1e-30);
                audit.energy_worst_rel = audit.energy_worst_rel.max(rel);
            }
        }
        if let Some(line) = first {
            audit.disagreements.push(format!(
                "{line} ({disagreeing} of {ORACLE_QUERIES} {lane} queries disagree)"
            ));
        }
    }
    drop(svc);
    audit
}

/// Check the oracle-agreement phase, appending failures to `report`.
fn check_oracle(audit: &OracleAudit, report: &mut String) {
    for line in &audit.disagreements {
        let _ = writeln!(report, "{line}");
    }
    if audit.energy_worst_rel >= 1e-9 {
        let _ = writeln!(
            report,
            "energy attribution deviates from core::fom by {:.3e} (bound < 1e-9)",
            audit.energy_worst_rel
        );
    }
}

/// Everything the exact-match sweep produced, for the invariant checks.
struct ExactSweep {
    capacities: Vec<f64>,
    open_achieved: f64,
    open_offered: f64,
    open_metrics: ServiceMetrics,
}

fn run_exact(opts: &Opts, metrics: &SearchMetrics, curves: &mut Vec<CurvePoint>) -> ExactSweep {
    // --- Phase 1: closed-loop shard sweep --------------------------------
    let mut capacities = Vec::new();
    for &shards in &opts.shards {
        let table = build_table(opts, shards, metrics);
        let (qps, m) = closed_loop(table, opts, RequestKind::Exact, 2, opts.secs);
        println!(
            "  closed  shards={shards:<2} {qps:>10.0} qps   p50 {:>8.1} us   p99 {:>8.1} us",
            us(m.wall_latency_ns.p50),
            us(m.wall_latency_ns.p99)
        );
        println!(
            "          dispatchers (batches/steals/parks/wakeups/busy): {}",
            dispatch_counters(&m)
        );
        capacities.push(qps);
        curves.push(curve_point(
            &format!("closed_shards{shards}"),
            "closed",
            None,
            qps,
            shards,
            opts.rows,
            &m,
        ));
    }

    // --- Phase 2: open-loop overload --------------------------------------
    let &max_shards = opts.shards.iter().max().expect("non-empty");
    let capacity = capacities
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1.0);
    // The closed-loop rate is round-trip-bound, not kernel-bound; offer
    // past the 1 Mqps target so the open loop measures the dispatcher,
    // not the arrival process. Don't offer much past capacity though —
    // on a shared core every shed submission steals cycles from the
    // dispatcher being measured.
    let offered = (capacity * 3.0).max(1.8e6);
    let table = build_table(opts, max_shards, metrics);
    let (achieved, m_over) =
        open_loop(table, opts, RequestKind::Exact, offered, opts.secs.max(0.5));
    let shed_total = m_over.shed_queue_full + m_over.shed_rate_limited + m_over.shed_shutting_down;
    println!(
        "  open    shards={max_shards:<2} offered {offered:>9.0} qps -> {achieved:>9.0} qps, shed {shed_total}, max queue depth {}",
        m_over.max_queue_depth
    );
    println!(
        "          dispatchers (batches/steals/parks/wakeups/busy): {}",
        dispatch_counters(&m_over)
    );
    curves.push(curve_point(
        &format!("open_overload_shards{max_shards}"),
        "open",
        Some(offered),
        achieved,
        max_shards,
        opts.rows,
        &m_over,
    ));
    println!(
        "  audit   {} sampled, {} match / {} energy divergences, worst rel {:.3e}",
        m_over.audit_sampled,
        m_over.audit_match_divergences,
        m_over.audit_energy_divergences,
        m_over.audit_worst_energy_rel
    );

    ExactSweep {
        capacities,
        open_achieved: achieved,
        open_offered: offered,
        open_metrics: m_over,
    }
}

/// The approximate-match request mix the bench sweeps: one threshold,
/// one top-k, one range point.
const APPROX_KINDS: [(&str, RequestKind); 3] = [
    ("threshold", RequestKind::Threshold { t: 2 }),
    ("topk", RequestKind::TopK { k: 8 }),
    ("range", RequestKind::Range),
];

/// Everything the approximate sweep produced: `(kind tag, closed qps,
/// open qps, final open-loop metrics)` per approximate kind.
struct ApproxSweep {
    per_kind: Vec<(&'static str, f64, f64, ServiceMetrics)>,
}

/// Sweep the approximate kinds: a closed-loop point per kind at the
/// largest shard count, plus an open-loop overload point — the
/// sustained-rate acceptance gate.
fn run_approx(opts: &Opts, metrics: &SearchMetrics, curves: &mut Vec<CurvePoint>) -> ApproxSweep {
    let &shards = opts.shards.iter().max().expect("non-empty");
    let sense = SenseModel::analytic(metrics.latency_1step);
    let mut per_kind = Vec::new();
    for (ktag, kind) in APPROX_KINDS {
        let miscls = match kind {
            RequestKind::Threshold { t } => Some(sense.misclassification(t).p_error()),
            _ => None,
        };
        let table = build_table(opts, shards, metrics);
        let (closed_qps, m_closed) = closed_loop(table, opts, kind, 2, opts.secs);
        println!(
            "  approx  {ktag:<9} closed {closed_qps:>9.0} qps   p99 {:>8.1} us",
            us(m_closed.wall_latency_ns.p99)
        );
        let mut point = curve_point(
            &format!("closed_approx_{ktag}_shards{shards}"),
            "closed",
            None,
            closed_qps,
            shards,
            opts.rows,
            &m_closed,
        );
        point.miscls = miscls;
        curves.push(point);

        let offered = (closed_qps * 3.0).max(6e5);
        let table = build_table(opts, shards, metrics);
        let (open_qps, m_open) = open_loop(table, opts, kind, offered, opts.secs.max(0.5));
        println!(
            "  approx  {ktag:<9} open   offered {offered:>9.0} qps -> {open_qps:>9.0} qps, audit {} sampled / {} divergent",
            m_open.audit_sampled,
            m_open.audit_match_divergences + m_open.audit_energy_divergences
        );
        let busy_ns: u64 = m_open.dispatchers.iter().map(|d| d.busy_ns).sum();
        println!(
            "          dispatchers (batches/steals/parks/wakeups/busy): {}   busy {:.2} us/query",
            dispatch_counters(&m_open),
            busy_ns as f64 / 1e3 / m_open.completed.max(1) as f64
        );
        let mut point = curve_point(
            &format!("open_approx_{ktag}_shards{shards}"),
            "open",
            Some(offered),
            open_qps,
            shards,
            opts.rows,
            &m_open,
        );
        point.miscls = miscls;
        curves.push(point);
        per_kind.push((ktag, closed_qps, open_qps, m_open));
    }
    ApproxSweep { per_kind }
}

/// Check the approximate-sweep invariants.
fn check_approx(opts: &Opts, run: &ApproxSweep, report: &mut String) {
    for (ktag, closed_qps, open_qps, m) in &run.per_kind {
        if m.completed == 0 || *closed_qps <= 0.0 {
            let _ = writeln!(report, "approx {ktag}: no queries completed");
        }
        if m.audit_sampled == 0 && opts.audit_period > 0 {
            let _ = writeln!(report, "approx {ktag}: audit lane sampled nothing");
        }
        if m.audit_match_divergences > 0 || m.audit_energy_divergences > 0 {
            let _ = writeln!(
                report,
                "approx {ktag}: audit divergence ({} match, {} energy)",
                m.audit_match_divergences, m.audit_energy_divergences
            );
        }
        // The sustained-rate acceptance gate at the reference shape.
        if opts.rows >= 16384 && *open_qps < 1e5 {
            let _ = writeln!(
                report,
                "approx {ktag}: open loop sustained only {open_qps:.0} qps (< 100k at {} rows)",
                opts.rows
            );
        }
    }
}

/// What the mixed read/write point produced.
struct MixedPoint {
    search_qps: f64,
    write_qps: f64,
    m: ServiceMetrics,
}

/// Open-loop mixed read/write point at the largest shard count: 90%
/// key-routed exact searches, 8% updates, 1% inserts, 1% deletes, none
/// awaited (searches go through the no-reply path; write tickets are
/// dropped unread). Writes address rows by a locally tracked
/// (approximate) table size — a stale index past the end is an
/// `OutOfRange` no-op ack, exactly what a racing real client produces —
/// and are priced by the calibrated 3-step program.
fn run_mixed(
    opts: &Opts,
    metrics: &SearchMetrics,
    write_metrics: RowWriteMetrics,
    curves: &mut Vec<CurvePoint>,
) -> MixedPoint {
    let &shards = opts.shards.iter().max().expect("non-empty");
    let mut table = build_table(opts, shards, metrics);
    table.attach_write_metrics(write_metrics);
    // Offer enough that the service proves its search floor under churn.
    let offered = 1.2e6;
    let svc = TcamService::start(table, &service_config(opts));
    let client = svc.client();
    let mut state = opts.seed ^ 0x3317_ED00;
    let mut approx_rows = opts.rows;
    let started = Instant::now();
    let horizon = Duration::from_secs_f64(opts.secs.max(0.5));
    let mut next_arrival = 0.0f64;
    loop {
        let now = started.elapsed();
        if now >= horizon {
            break;
        }
        while next_arrival <= now.as_secs_f64() {
            let u = (split_mix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            next_arrival += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / offered;
            let pick = split_mix64(&mut state) % 100;
            let res = if pick < 90 {
                let q = random_packed(&mut state, opts.width);
                let shard = Some(client.route_packed(&q));
                client.submit_noreply_kind(0, q, RequestKind::Exact, shard)
            } else if pick < 98 {
                let row = split_mix64(&mut state) as usize % approx_rows.max(1);
                let bits = random_packed(&mut state, opts.width).to_bits();
                client
                    .submit_update(1, row, TernaryWord::from_bits(&bits))
                    .map(drop)
            } else if pick < 99 {
                let bits = random_packed(&mut state, opts.width).to_bits();
                let r = client
                    .submit_insert(1, TernaryWord::from_bits(&bits))
                    .map(drop);
                if r.is_ok() {
                    approx_rows += 1;
                }
                r
            } else {
                let row = split_mix64(&mut state) as usize % approx_rows.max(1);
                let r = client.submit_delete(1, row).map(drop);
                if r.is_ok() {
                    approx_rows = approx_rows.saturating_sub(1).max(1);
                }
                r
            };
            match res {
                Ok(()) | Err(Overloaded::QueueFull) => {}
                Err(e) => panic!("unexpected shed: {e}"),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let m = svc.drain();
    let elapsed = started.elapsed().as_secs_f64();
    let search_qps = m.completed_by_kind.exact as f64 / elapsed;
    let writes =
        m.completed_by_kind.insert + m.completed_by_kind.delete + m.completed_by_kind.update;
    let write_qps = writes as f64 / elapsed;
    println!(
        "  mixed   shards={shards:<2} offered {offered:>9.0} qps -> {search_qps:>9.0} searches/s + {write_qps:>7.0} writes/s, audit {} sampled / {} divergent",
        m.audit_sampled,
        m.audit_match_divergences + m.audit_energy_divergences
    );
    let mut point = curve_point(
        &format!("mixed_open_shards{shards}"),
        "open",
        Some(offered),
        search_qps,
        shards,
        opts.rows,
        &m,
    );
    point.write_qps = Some(write_qps);
    curves.push(point);
    MixedPoint {
        search_qps,
        write_qps,
        m,
    }
}

/// Check the mixed-point invariants: writes landed, the audit lane —
/// which replays sampled searches against the very snapshot the
/// kernels answered from — saw zero divergences (the torn-word gate),
/// and the service held the reference-shape search floor under the 10%
/// write mix.
fn check_mixed(opts: &Opts, run: &MixedPoint, report: &mut String) {
    let m = &run.m;
    if m.completed_by_kind.exact == 0 {
        let _ = writeln!(report, "mixed: no searches completed");
    }
    if run.write_qps <= 0.0 {
        let _ = writeln!(report, "mixed: no writes completed");
    }
    if m.audit_sampled == 0 && opts.audit_period > 0 {
        let _ = writeln!(report, "mixed: audit lane sampled nothing under writes");
    }
    if m.audit_match_divergences > 0 || m.audit_energy_divergences > 0 {
        let _ = writeln!(
            report,
            "mixed: torn-word gate tripped — {} match / {} energy audit divergences under live writes",
            m.audit_match_divergences, m.audit_energy_divergences
        );
    }
    if opts.rows >= 16384 && run.search_qps < 1e5 {
        let _ = writeln!(
            report,
            "mixed: searches sustained only {:.0}/s (< 100k at {} rows under 10% writes)",
            run.search_qps, opts.rows
        );
    }
}

/// Check the exact sweep's invariants, appending failures to `report`.
fn check_exact(run: &ExactSweep, report: &mut String) {
    let caps = &run.capacities;
    // The closed loop is round-trip bound (the kernels answer in well
    // under the channel cost), so its curve is flat and noisy: extra
    // shards only have to hold it steady, within this jitter.
    let tolerance = 0.7;
    for w in caps.windows(2) {
        if w[1] < w[0] * tolerance {
            let _ = writeln!(
                report,
                "throughput regressed across shard sweep: {caps:.0?} qps \
                 (bound: each point >= {tolerance} x the one before)"
            );
            break;
        }
    }
    let m = &run.open_metrics;
    let shed = m.shed_queue_full + m.shed_rate_limited + m.shed_shutting_down;
    if shed == 0 {
        let _ = writeln!(
            report,
            "overload at {:.0} qps shed nothing (bound: shed > 0; achieved {:.0} qps, max queue depth {} of {QUEUE_CAPACITY})",
            run.open_offered, run.open_achieved, m.max_queue_depth
        );
    }
    if m.max_queue_depth > QUEUE_CAPACITY {
        let _ = writeln!(
            report,
            "queue grew past its bound: {} > {QUEUE_CAPACITY}",
            m.max_queue_depth
        );
    }
    if m.audit_sampled == 0 {
        let _ = writeln!(report, "audit lane sampled nothing under load (bound > 0)");
    }
    if m.audit_match_divergences > 0 || m.audit_energy_divergences > 0 {
        let _ = writeln!(
            report,
            "audit lane divergence: {} match, {} energy (worst rel {:.3e})",
            m.audit_match_divergences, m.audit_energy_divergences, m.audit_worst_energy_rel
        );
    }
    if m.audit_worst_energy_rel > 1e-9 {
        let _ = writeln!(
            report,
            "audit energy error {:.3e} beyond pinned 1e-9",
            m.audit_worst_energy_rel
        );
    }
}

/// Entry point, called from the command dispatcher.
pub fn run(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<(), CliError> {
    let opts = parse_opts(args, parse_design)?;
    let dir = std::env::var("FERROTCAM_RESULTS").unwrap_or_else(|_| "results".into());
    let (metrics, write_metrics) = match opts.characterize {
        Some(design) => {
            println!(
                "characterising {} at {} cells (SPICE)...",
                design.name(),
                opts.width
            );
            let tech = tech_14nm();
            let m = ferrotcam::fom::characterize_search(
                design,
                opts.width,
                row_parasitics(design, &tech),
            )
            .map_err(|e| CliError::Failed(format!("characterisation failed: {e}")))?;
            // The search characterisation does not produce write-path
            // figures; price writes from the paper's program staircase.
            let wm = Calibration::paper_defaults(design).write_metrics(opts.width);
            (m, wm)
        }
        None => {
            let calib = Calibration::load(std::path::Path::new(&dir), DesignKind::T15Dg);
            if calib.sources.is_empty() {
                println!("calibration: no datasheets under {dir}/, using paper defaults");
            } else {
                println!("calibration ({}):", calib.design.name());
                for s in &calib.sources {
                    println!("  - {s}");
                }
            }
            (
                calib.search_metrics(opts.width),
                calib.write_metrics(opts.width),
            )
        }
    };
    println!(
        "serve-bench: {} rows x {} digits, shards {:?}, workload {:?}, {:.1}s per point{}",
        opts.rows,
        opts.width,
        opts.shards,
        opts.workload,
        opts.secs,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let mut curves = Vec::new();
    let exact = opts
        .workload
        .includes_exact()
        .then(|| run_exact(&opts, &metrics, &mut curves));
    let approx = opts
        .workload
        .includes_approx()
        .then(|| run_approx(&opts, &metrics, &mut curves));
    let mixed = opts
        .workload
        .includes_mixed()
        .then(|| run_mixed(&opts, &metrics, write_metrics, &mut curves));
    let oracle = oracle_audit(&opts, &metrics);
    println!(
        "  oracle  {} queries vs reference_search, {} lane(s) disagree; worst |served - fom| / fom = {:.3e}",
        oracle.checked,
        oracle.disagreements.len(),
        oracle.energy_worst_rel
    );

    // --- Artefact ----------------------------------------------------------
    let file = ServeBenchFile {
        target: "serve",
        curves,
    };
    std::fs::create_dir_all(&dir).map_err(|e| CliError::Failed(format!("create {dir}: {e}")))?;
    let path = std::path::Path::new(&dir).join("BENCH_serve.json");
    let json = serde_json::to_string_pretty(&file).expect("serialise bench file");
    std::fs::write(&path, json)
        .map_err(|e| CliError::Failed(format!("write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());

    // --- Acceptance invariants --------------------------------------------
    let mut report = String::new();
    check_oracle(&oracle, &mut report);
    if let Some(run) = &exact {
        check_exact(run, &mut report);
    }
    if let Some(run) = &approx {
        check_approx(&opts, run, &mut report);
    }
    if let Some(run) = &mixed {
        check_mixed(&opts, run, &mut report);
    }
    gate_verdict(
        "serve-bench",
        &report,
        opts.smoke,
        "serve-bench invariants hold: oracle agreement, energy-true accounting, scaling, bounded shedding, audit lane clean",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(matches: Vec<usize>, hits: Vec<ApproxHit>, s1: usize, s2: usize) -> SearchResponse {
        SearchResponse {
            kind: RequestKind::TopK { k: 2 },
            matches,
            hits,
            step1_misses: s1,
            step2_misses: s2,
            rows_searched: 10,
            energy_j: None,
            model_latency_s: 0.0,
            wall_latency_ns: 0,
        }
    }

    #[test]
    fn oracle_disagreement_names_lane_index_and_field() {
        let hits = vec![
            ApproxHit {
                row: 1,
                distance: 0,
            },
            ApproxHit {
                row: 4,
                distance: 1,
            },
        ];
        let want = SearchOutcome {
            matches: vec![1, 4],
            step1_misses: 8,
            step2_misses: 0,
        };
        let agree = response(vec![1, 4], hits.clone(), 8, 0);
        assert_eq!(oracle_disagreement("topk", 3, &agree, &want, &hits), None);

        // One doctored field at a time; each is named with its lane and
        // query index.
        let mut far = hits.clone();
        far[1].distance = 2;
        let doctored = [
            (response(vec![1, 5], hits.clone(), 8, 0), "matches"),
            (response(vec![1, 4], far, 8, 0), "hits"),
            (response(vec![1, 4], hits.clone(), 7, 0), "step1_misses"),
            (response(vec![1, 4], hits.clone(), 8, 1), "step2_misses"),
        ];
        for (resp, field) in doctored {
            let line = oracle_disagreement("topk", 17, &resp, &want, &hits)
                .unwrap_or_else(|| panic!("{field} doctoring must be reported"));
            assert!(
                line.contains("topk query 17: ") && line.contains(&format!("{field} differ")),
                "{line}"
            );
        }
    }
}
