//! Batch execution: the served kernels and the reference oracle.
//!
//! Every query batch runs on one engine: word-parallel bit-sliced
//! kernels ([`ferrotcam::BitSlices`]) that evaluate 64 rows per machine
//! word with `(query ^ value) & care` over pre-transposed match planes,
//! plus the block-scan Hamming and lane-packed range kernels.
//!
//! Beside it sits the **reference walk** ([`reference_search`]): a
//! scalar row-by-row pass over the stored packed words (two-step
//! classification for exact search, [`ferrotcam::row_distance`] for
//! threshold and top-k, [`ferrotcam::row_in_windows`] for range). It is
//! never served; it is the boolean oracle the tests, the serve-bench
//! agreement gate and the service's audit lane compare against (the
//! lane passes the service's [`SenseModel`] so threshold rows are
//! classified by the analog sense decision).
//!
//! A batch executes inline on the dispatcher thread that pulled it,
//! shard by shard in plan order, against a [`SnapView`] — the immutable
//! per-shard snapshot set the dispatcher captured for the batch — so
//! online writes landing mid-batch can never tear a word under a
//! running search. Each snapshot block already carries *both*
//! representations (sliced planes for the kernels, row-major packed
//! words for the reference walk), so nothing is rebuilt per batch.
//!
//! The kernels and the walk return identical [`SearchOutcome`]s (global
//! ids, sorted). That claim is not taken on faith: the service's
//! sampled audit lane replays a deterministic fraction of accepted
//! queries through the reference walk against the *same captured view*
//! and compares match sets bit-for-bit and energies within a pinned
//! tolerance ([`audit_compare`]).

use crate::batch;
use crate::request::RequestKind;
use crate::shard::SnapView;
use ferrotcam::approx::{threshold_search, top_k_chunked};
use ferrotcam::{row_distance, row_in_windows, ApproxHit, PackedQuery, SearchOutcome, SenseModel};
use ferrotcam_arch::sched::ScheduleOutcome;

/// The execution tier of [`crate::ServiceConfig::backend`]. Kept only
/// so the `perfbench` harness, which names it, still compiles: there is
/// one tier and the service never reads the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The bit-parallel kernels, the only served tier.
    Behavioural,
}

/// One planned batch: parallel arrays, one entry per job. Public only
/// because the `perfbench` harness builds batches for
/// [`BehaviouralBackend`].
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec<'a> {
    /// Packed queries (bit queries for exact/threshold/top-k; 2-bit
    /// level queries for range).
    pub queries: &'a [PackedQuery],
    /// What each query asks for.
    pub kinds: &'a [RequestKind],
    /// `None` fans the job out over every shard; `Some(s)` pins it.
    pub targets: &'a [Option<usize>],
    /// Per-job bank-time multiplier from the dispatcher's cost model.
    pub costs: &'a [f64],
}

/// One executed batch: per-job outcomes plus the modelled bank
/// schedule, in batch order. Public only because the `perfbench`
/// harness receives it from [`BehaviouralBackend`].
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Per-job merged outcome; matches are global slot ids, ascending.
    pub outcomes: Vec<SearchOutcome>,
    /// Per-job ranked hits for approximate kinds, best-first with ties
    /// toward the lowest global row; empty for exact and range jobs.
    pub hits: Vec<Vec<ApproxHit>>,
    /// Per-job modelled completion time on the bank pool (s).
    pub per_job_latency_s: Vec<f64>,
    /// The batch's bank schedule (utilization, makespan, waits).
    pub sched: ScheduleOutcome,
}

/// Batch execution as the `perfbench` harness calls it. Kept only for
/// that harness; the service calls the kernels directly.
pub trait ExecBackend: Send + Sync + std::fmt::Debug {
    /// Execute one batch against a captured snapshot view, inline on
    /// the calling thread. `jobs` is unused; `t_bank` is the modelled
    /// per-bank busy time (s) for a unit-cost query.
    fn execute(
        &self,
        view: &SnapView,
        spec: &BatchSpec<'_>,
        jobs: usize,
        t_bank: f64,
    ) -> ExecResult;
}

/// One job's answer on one shard: counters plus (for approximate
/// kinds) the shard-local ranked hits with *global* row ids.
#[derive(Debug, Clone)]
struct ShardAnswer {
    outcome: SearchOutcome,
    hits: Vec<ApproxHit>,
}

/// Merge-and-rank step after every shard answered: sorts matches
/// globally and applies the kind's final selection (top-k truncation
/// after the cross-shard merge, so the global ranking — not any one
/// shard's — decides).
fn finalize_job(kind: RequestKind, outcome: &mut SearchOutcome, hits: &mut Vec<ApproxHit>) {
    match kind {
        RequestKind::Exact | RequestKind::Range => outcome.matches.sort_unstable(),
        RequestKind::Threshold { .. } => {
            hits.sort_unstable();
            outcome.matches.sort_unstable();
        }
        RequestKind::TopK { k } => {
            hits.sort_unstable();
            hits.truncate(k);
            // Per-shard answers count every examined row as a step-1
            // miss; the kept winners move over to the match column.
            let examined = outcome.step1_misses;
            outcome.matches = hits.iter().map(|h| h.row).collect();
            outcome.matches.sort_unstable();
            outcome.step1_misses = examined - hits.len();
        }
        _ => unreachable!("write kinds never reach the search kernels"),
    }
}

/// The reference walk for one job on one shard: a scalar row-by-row
/// pass over the snapshot's packed words, never through the sliced
/// planes or block-scan kernels, with global row ids.
/// Exact search runs the two-step row classification of
/// [`ferrotcam::PackedRows::search`]; threshold and top-k rank rows by
/// [`row_distance`]; range tests [`row_in_windows`]. With a `sense`
/// model a threshold row is accepted iff its modelled match-line
/// discharge falls *after* the threshold's sense point — the analog
/// sense amplifier's decision, which sits strictly between the `t` and
/// `t+1` discharge curves and so nominally equals the digital
/// `d <= t` rule used without one.
///
/// # Panics
/// Panics on an out-of-range shard, a query-width mismatch, or a write
/// kind (writes never reach the search backends).
fn reference_shard(
    view: &SnapView,
    s: usize,
    kind: RequestKind,
    query: &PackedQuery,
    sense: Option<&SenseModel>,
) -> ShardAnswer {
    let snap = view.shard(s);
    let accept = |d: u32, t: u32| match sense {
        Some(model) => model.discharge_time(d) > model.sense_time(t),
        None => d <= t,
    };
    let mut outcome = SearchOutcome::empty();
    let mut hits = Vec::new();
    for (base, blk) in snap.blocks() {
        let p = blk.packed();
        match kind {
            RequestKind::Exact => {
                let mut o = p.search(query);
                for m in &mut o.matches {
                    *m = view.global_row(s, base + *m);
                }
                outcome.absorb(o);
            }
            RequestKind::Threshold { t } => {
                for l in 0..p.rows() {
                    let d = row_distance(p, l, query);
                    if accept(d, t) {
                        let row = view.global_row(s, base + l);
                        outcome.matches.push(row);
                        hits.push(ApproxHit { row, distance: d });
                    } else {
                        outcome.step1_misses += 1;
                    }
                }
            }
            // Every examined row counts as a step-1 miss until the
            // merge picks the winners.
            RequestKind::TopK { .. } => {
                outcome.step1_misses += p.rows();
                hits.extend((0..p.rows()).map(|l| ApproxHit {
                    row: view.global_row(s, base + l),
                    distance: row_distance(p, l, query),
                }));
            }
            RequestKind::Range => {
                for l in 0..p.rows() {
                    if row_in_windows(p, l, query) {
                        outcome.matches.push(view.global_row(s, base + l));
                    } else {
                        outcome.step1_misses += 1;
                    }
                }
            }
            _ => unreachable!("write kinds never reach the search backends"),
        }
    }
    // Global ids preserve the shard-local (distance, row) order, so the
    // shard's own top-k is already globally fair.
    if let RequestKind::TopK { k } = kind {
        hits.sort_unstable();
        hits.truncate(k);
    }
    ShardAnswer { outcome, hits }
}

/// The reference answer for one request over `target` (or a fan-out
/// over every shard), merged and finalized exactly like a served batch.
/// The audit lane replays sampled served answers through this with the
/// service's sense model, against the same captured view the kernels
/// answered from.
pub(crate) fn reference_answer(
    view: &SnapView,
    kind: RequestKind,
    query: &PackedQuery,
    target: Option<usize>,
    sense: Option<&SenseModel>,
) -> (SearchOutcome, Vec<ApproxHit>) {
    let mut outcome = SearchOutcome::empty();
    let mut hits = Vec::new();
    let shards = match target {
        Some(s) => s..s + 1,
        None => 0..view.shard_count(),
    };
    for s in shards {
        let ans = reference_shard(view, s, kind, query, sense);
        outcome.absorb(ans.outcome);
        hits.extend(ans.hits);
    }
    finalize_job(kind, &mut outcome, &mut hits);
    (outcome, hits)
}

/// The reference answer for one request over `target` (or a fan-out
/// over every shard): the scalar reference walk, merged and finalized
/// exactly like a served batch, with threshold rows accepted by the
/// digital `d <= t` rule.
#[must_use]
pub fn reference_search(
    view: &SnapView,
    kind: RequestKind,
    query: &PackedQuery,
    target: Option<usize>,
) -> (SearchOutcome, Vec<ApproxHit>) {
    reference_answer(view, kind, query, target, None)
}

/// One job on one shard through the bit-parallel kernels, with global
/// row ids. Every snapshot block already holds its bit-sliced match
/// planes (word-parallel step-1 rejection with a row-major step-2
/// verify of the survivors), the packed words the popcount Hamming
/// kernel scans, and (for even widths) the lane-packed `[lo,hi]` window
/// table — all maintained incrementally by the copy-on-write shard
/// snapshots, so nothing is transposed per batch.
fn kernel_shard(view: &SnapView, s: usize, kind: RequestKind, q: &PackedQuery) -> ShardAnswer {
    let snap = view.shard(s);
    match kind {
        RequestKind::Exact => {
            let mut out = SearchOutcome::empty();
            for (base, blk) in snap.blocks() {
                let mut o = blk.slices().search(q);
                for m in &mut o.matches {
                    *m = view.global_row(s, base + *m);
                }
                out.absorb(o);
            }
            ShardAnswer {
                outcome: out,
                hits: Vec::new(),
            }
        }
        RequestKind::Threshold { t } => {
            let mut hits = Vec::new();
            for (base, blk) in snap.blocks() {
                let mut h = threshold_search(blk.packed(), q, t);
                for hit in &mut h {
                    hit.row = view.global_row(s, base + hit.row);
                }
                hits.extend(h);
            }
            let mut outcome = SearchOutcome::empty();
            outcome.matches = hits.iter().map(|h| h.row).collect();
            outcome.step1_misses = snap.rows() - hits.len();
            ShardAnswer { outcome, hits }
        }
        RequestKind::TopK { k } => {
            // One selection across every block: the heap's distance
            // bound carries from block to block, so the copy-on-write
            // layout prunes as hard as a contiguous scan. Local rows scan
            // ascending and global ids are monotone in them, so the
            // (distance, row) tie order is preserved.
            let mut hits =
                top_k_chunked(snap.blocks().map(|(base, blk)| (base, blk.packed())), q, k);
            for hit in &mut hits {
                hit.row = view.global_row(s, hit.row);
            }
            ShardAnswer {
                outcome: SearchOutcome {
                    matches: Vec::new(),
                    step1_misses: snap.rows(),
                    step2_misses: 0,
                },
                hits,
            }
        }
        RequestKind::Range => {
            let mut outcome = SearchOutcome::empty();
            for (base, blk) in snap.blocks() {
                let ranges = blk.ranges().expect("range queries need an even word width");
                outcome.matches.extend(
                    ranges
                        .search(q)
                        .iter()
                        .map(|&l| view.global_row(s, base + l)),
                );
            }
            outcome.step1_misses = snap.rows() - outcome.matches.len();
            ShardAnswer {
                outcome,
                hits: Vec::new(),
            }
        }
        _ => unreachable!("write kinds never reach the search kernels"),
    }
}

/// Plan, execute and merge one batch on the bit-parallel kernels,
/// inline on the calling thread, shard by shard in plan order; then
/// model the batch's bank schedule. `t_bank` is the modelled per-bank
/// busy time (s) for a unit-cost query.
pub(crate) fn execute(view: &SnapView, spec: &BatchSpec<'_>, t_bank: f64) -> ExecResult {
    let shards = view.shard_count();
    let plan = batch::plan(spec.targets, shards);
    let n = spec.targets.len();
    let mut outcomes: Vec<SearchOutcome> = (0..n).map(|_| SearchOutcome::empty()).collect();
    let mut hits: Vec<Vec<ApproxHit>> = (0..n).map(|_| Vec::new()).collect();
    for (s, list) in plan.per_shard.iter().enumerate() {
        for &j in list {
            let ans = kernel_shard(view, s, spec.kinds[j], &spec.queries[j]);
            outcomes[j].absorb(ans.outcome);
            hits[j].extend(ans.hits);
        }
    }
    for j in 0..n {
        finalize_job(spec.kinds[j], &mut outcomes[j], &mut hits[j]);
    }
    let (sched, per_job_latency_s) = plan.schedule_weighted(shards, t_bank, spec.costs);
    ExecResult {
        outcomes,
        hits,
        per_job_latency_s,
        sched,
    }
}

/// The served kernels behind the [`ExecBackend`] trait. Kept only for
/// the `perfbench` harness, which times batches through it.
#[derive(Debug, Default, Clone, Copy)]
pub struct BehaviouralBackend;

impl ExecBackend for BehaviouralBackend {
    fn execute(
        &self,
        view: &SnapView,
        spec: &BatchSpec<'_>,
        _jobs: usize,
        t_bank: f64,
    ) -> ExecResult {
        execute(view, spec, t_bank)
    }
}

/// The audit lane's verdict on one replayed query.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// The match sets (or miss counters) disagreed — a correctness bug.
    pub match_divergence: bool,
    /// Energies agreed on the match set but differed beyond tolerance.
    pub energy_divergence: bool,
    /// Relative energy error `|fast − ref| / max(|ref|, ε)`.
    pub energy_rel: f64,
    /// Human-readable account of the first disagreement, if any.
    pub detail: Option<String>,
}

impl AuditVerdict {
    /// Whether the replay agreed on everything.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.match_divergence && !self.energy_divergence
    }
}

/// Replay comparison: the served outcome/energy against the reference
/// walk's, with `tolerance` as the relative energy bound.
/// Match sets, ranked hit lists, and both miss counters must be
/// *bit-identical* — the kernels compute the same search, so any drift
/// is a bug, not noise.
#[must_use]
pub fn audit_compare(
    fast: &SearchOutcome,
    fast_hits: &[ApproxHit],
    fast_energy: Option<f64>,
    reference: &SearchOutcome,
    ref_hits: &[ApproxHit],
    ref_energy: Option<f64>,
    tolerance: f64,
) -> AuditVerdict {
    let counters_differ = fast.matches != reference.matches
        || fast.step1_misses != reference.step1_misses
        || fast.step2_misses != reference.step2_misses;
    if counters_differ || fast_hits != ref_hits {
        let detail = if counters_differ {
            format!(
                "match sets diverged: fast {}m/{}s1/{}s2 vs ref {}m/{}s1/{}s2",
                fast.matches.len(),
                fast.step1_misses,
                fast.step2_misses,
                reference.matches.len(),
                reference.step1_misses,
                reference.step2_misses,
            )
        } else {
            format!(
                "ranked hits diverged: fast {} hits vs ref {} hits",
                fast_hits.len(),
                ref_hits.len(),
            )
        };
        return AuditVerdict {
            match_divergence: true,
            energy_divergence: false,
            energy_rel: 0.0,
            detail: Some(detail),
        };
    }
    let energy_rel = match (fast_energy, ref_energy) {
        (Some(a), Some(b)) => (a - b).abs() / b.abs().max(1e-300),
        _ => 0.0,
    };
    let energy_divergence = energy_rel > tolerance;
    AuditVerdict {
        match_divergence: false,
        energy_divergence,
        energy_rel,
        detail: energy_divergence.then(|| {
            format!(
                "energy diverged: fast {:.6e} J vs ref {:.6e} J (rel {energy_rel:.3e} > tol {tolerance:.1e})",
                fast_energy.unwrap_or(0.0),
                ref_energy.unwrap_or(0.0),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{LiveTable, ShardedTcam};
    use ferrotcam::TernaryWord;
    use rand::split_mix64;

    fn view(table: &ShardedTcam) -> SnapView {
        LiveTable::from_sharded(table).snapshot()
    }

    fn table(rows: u64, shards: usize, width: usize) -> ShardedTcam {
        let mut t = ShardedTcam::new(width, shards);
        let mut seed = 0xfeed_0000_0000_0000 ^ rows;
        for _ in 0..rows {
            let v = split_mix64(&mut seed);
            let mut w = TernaryWord::from_u64(v, width.min(64));
            if width > 64 {
                w = format!("{}{}", "X".repeat(width - 64), w)
                    .parse()
                    .expect("wide word");
            }
            // Sprinkle wildcards so step-2 actually fires.
            t.store(w);
        }
        t
    }

    fn rand_query(width: usize, seed: &mut u64) -> PackedQuery {
        let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| split_mix64(seed)).collect();
        PackedQuery::from_words(width, &words)
    }

    /// Every job of `spec` on the served kernels, checked against the
    /// reference walk job by job: matches, both step counters and the
    /// ranked hits.
    fn assert_kernels_match_reference(t: &SnapView, spec: &BatchSpec<'_>) -> ExecResult {
        let got = BehaviouralBackend.execute(t, spec, 1, 1e-9);
        for j in 0..spec.queries.len() {
            let (want, want_hits) =
                reference_search(t, spec.kinds[j], &spec.queries[j], spec.targets[j]);
            assert_eq!(got.outcomes[j].matches, want.matches, "job {j}");
            assert_eq!(got.outcomes[j].step1_misses, want.step1_misses, "job {j}");
            assert_eq!(got.outcomes[j].step2_misses, want.step2_misses, "job {j}");
            assert_eq!(got.hits[j], want_hits, "job {j} hits");
        }
        got
    }

    #[test]
    fn kernels_match_the_reference_on_fanout_and_partitioned_batches() {
        for width in [8usize, 64, 100] {
            let t = view(&table(200, 3, width));
            let mut seed = 0x1234_5678_9abc_def0 ^ width as u64;
            let queries: Vec<PackedQuery> = (0..24).map(|_| rand_query(width, &mut seed)).collect();
            let targets: Vec<Option<usize>> = (0..24)
                .map(|i| if i % 3 == 0 { None } else { Some(i % 3) })
                .collect();
            let kinds = vec![RequestKind::Exact; 24];
            let costs = vec![1.0; 24];
            let spec = BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets: &targets,
                costs: &costs,
            };
            assert_kernels_match_reference(&t, &spec);
        }
    }

    #[test]
    fn kernels_match_the_reference_on_mixed_kind_batches() {
        // Every request kind, fan-out and pinned, on even widths up to a
        // two-word row (range mode needs an even width; random bit
        // queries are valid level queries too, since any 2-bit pattern
        // is a level 0..=3).
        for width in [8usize, 64, 128] {
            let t = view(&table(160, 4, width));
            let mut seed = 0xabcd_ef01_2345_6789 ^ width as u64;
            let n = 32;
            let queries: Vec<PackedQuery> = (0..n).map(|_| rand_query(width, &mut seed)).collect();
            let kinds: Vec<RequestKind> = (0..n)
                .map(|i| match i % 4 {
                    0 => RequestKind::Exact,
                    1 => RequestKind::Threshold { t: (i % 7) as u32 },
                    2 => RequestKind::TopK { k: 1 + i % 9 },
                    _ => RequestKind::Range,
                })
                .collect();
            let targets: Vec<Option<usize>> = (0..n)
                .map(|i| if i % 3 == 0 { None } else { Some(i % 4) })
                .collect();
            let costs = vec![1.0; n];
            let spec = BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets: &targets,
                costs: &costs,
            };
            let b = assert_kernels_match_reference(&t, &spec);
            // Top-k hit lists are capped and sorted best-first.
            for (kind, hits) in kinds.iter().zip(&b.hits) {
                if let RequestKind::TopK { k } = *kind {
                    assert!(hits.len() <= k);
                    assert!(hits.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn sense_classified_threshold_equals_the_digital_rule() {
        // The sense point sits strictly between the `t` and `t+1`
        // discharge curves, so the analog decision must accept exactly
        // the rows with `d <= t`, at every threshold the width allows.
        let model = SenseModel::analytic(231e-12);
        for width in [16usize, 64, 100] {
            let t = view(&table(120, 3, width));
            let mut seed = 0x5e75_e000 ^ width as u64;
            for i in 0..4 {
                let q = rand_query(width, &mut seed);
                let target = if i % 2 == 0 { None } else { Some(i % 3) };
                for thr in 0..=width as u32 {
                    let kind = RequestKind::Threshold { t: thr };
                    let sensed = reference_answer(&t, kind, &q, target, Some(&model));
                    let digital = reference_search(&t, kind, &q, target);
                    assert_eq!(sensed, digital, "width {width} t {thr}");
                }
            }
        }
    }

    #[test]
    fn weighted_costs_shift_the_batch_schedule() {
        let t = view(&table(64, 2, 16));
        let behav = BehaviouralBackend;
        let queries: Vec<PackedQuery> = {
            let mut seed = 7u64;
            (0..4).map(|_| rand_query(16, &mut seed)).collect()
        };
        let kinds = vec![RequestKind::Exact; 4];
        let targets = vec![Some(0), Some(0), Some(1), Some(1)];
        let unit = vec![1.0; 4];
        let heavy = vec![1.0, 4.0, 1.0, 1.0];
        let a = behav.execute(
            &t,
            &BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets: &targets,
                costs: &unit,
            },
            1,
            1e-9,
        );
        let b = behav.execute(
            &t,
            &BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets: &targets,
                costs: &heavy,
            },
            1,
            1e-9,
        );
        assert!(
            b.sched.makespan > a.sched.makespan,
            "cost 4 job stretches the bank"
        );
        assert_eq!(
            a.outcomes[0].matches, b.outcomes[0].matches,
            "costs never change answers"
        );
    }

    #[test]
    fn audit_compare_flags_divergences() {
        let base = SearchOutcome {
            matches: vec![1, 5],
            step1_misses: 10,
            step2_misses: 2,
        };
        let ok = audit_compare(
            &base,
            &[],
            Some(1e-12),
            &base.clone(),
            &[],
            Some(1e-12),
            1e-9,
        );
        assert!(ok.clean());
        assert_eq!(ok.energy_rel, 0.0);

        let mut wrong = base.clone();
        wrong.matches = vec![1];
        let v = audit_compare(&wrong, &[], Some(1e-12), &base, &[], Some(1e-12), 1e-9);
        assert!(v.match_divergence && !v.energy_divergence);
        assert!(v.detail.as_deref().unwrap().contains("match sets diverged"));

        // Hit lists are compared too: same counters, different ranking.
        let h1 = [
            ApproxHit {
                row: 1,
                distance: 0,
            },
            ApproxHit {
                row: 5,
                distance: 2,
            },
        ];
        let h2 = [
            ApproxHit {
                row: 1,
                distance: 0,
            },
            ApproxHit {
                row: 5,
                distance: 3,
            },
        ];
        let v = audit_compare(
            &base,
            &h1,
            Some(1e-12),
            &base.clone(),
            &h2,
            Some(1e-12),
            1e-9,
        );
        assert!(v.match_divergence);
        assert!(v
            .detail
            .as_deref()
            .unwrap()
            .contains("ranked hits diverged"));

        let v = audit_compare(
            &base,
            &[],
            Some(1.1e-12),
            &base.clone(),
            &[],
            Some(1e-12),
            1e-9,
        );
        assert!(!v.match_divergence && v.energy_divergence);
        assert!((v.energy_rel - 0.1).abs() < 1e-12);

        // Within tolerance: clean, but the rel error is still reported.
        let v = audit_compare(
            &base,
            &[],
            Some(1e-12 + 1e-25),
            &base.clone(),
            &[],
            Some(1e-12),
            1e-9,
        );
        assert!(v.clean());
        assert!(v.energy_rel > 0.0);
    }
}
