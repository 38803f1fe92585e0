//! The per-layer ledger: each layer of the stack timed in isolation
//! through its public functions, with the spans around those calls kept
//! here in the benchmark.
//!
//! A traced run reports every layer figure and reconciles them with the
//! client's median latency: `harness.unattributed_us` is the client p50
//! minus the summed isolated cost of one request's path, so what is
//! left is wake-up, delivery and scheduling, and a regression names its
//! layer.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::serve::{Inputs, Kind, SHARDS, WIDTH};
use crate::stats::{median, time_ns};
use ferrotcam::approx::{threshold_search, top_k_chunked, word_windows};
use ferrotcam::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use ferrotcam::{
    build_search_row, levels_to_query, merge_top_k, ApproxHit, PackedQuery, SearchSim, TernaryWord,
};
use ferrotcam_serve::{
    batch, reference_search, Admission, AdmissionClass, BatchSpec, BehaviouralBackend,
    BoundedQueue, ExecBackend, LiveTable, MetricsCollector, RatePolicy, RequestKind,
    ResponseSample, ServiceClient, ShardedTcam, SnapView, WriteOp,
};
use ferrotcam_spice::matrix::sparse::Triplets;
use ferrotcam_spice::{
    default_jobs, par_map, BypassPolicy, CachedSolver, Circuit, DeviceStamps, Element, EvalCtx,
    NewtonOpts, NodeId, NonlinearDevice, Ordering, SimStats,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed rounds per layer figure (the figure is their median).
const REPS: usize = 7;

/// The production solver configuration (`ferrotcam bench`'s
/// `bypass_safe_amd`): the default the SPICE figures are measured under.
fn production_newton() -> NewtonOpts {
    NewtonOpts {
        bypass: BypassPolicy::Safe,
        ordering: Ordering::Amd,
        ..NewtonOpts::default()
    }
}

/// The paper's Fig. 7 search row: 64-bit 1.5T1DG, alternating stored
/// word, query mismatching in the last digit (caught in step 2), under
/// the production solver defaults.
///
/// # Panics
/// Panics if the row cannot be built (a programming error).
#[must_use]
pub fn fig7_row() -> SearchSim {
    let stored = ferrotcam::fom::alternating_word(WIDTH);
    let mut query: Vec<bool> = (0..WIDTH).map(|i| i % 2 != 0).collect();
    query[WIDTH - 1] = !query[WIDTH - 1];
    let params = DesignParams::preset(DesignKind::T15Dg);
    let mut sim = build_search_row(
        &params,
        &stored,
        &query,
        SearchTiming::default(),
        RowParasitics::default(),
        true,
    )
    .expect("the 1.5T1DG search row builds");
    sim.newton = production_newton();
    sim
}

/// A diagonally dominant matrix with the MNA pattern of `ckt`: one
/// unknown per non-ground node and per source branch, and an entry
/// wherever an element or device couples two unknowns. The solver's
/// cost follows the pattern, so the LU figures are timed on it; `scale`
/// changes the values and keeps the pattern.
fn mna_pattern(ckt: &Circuit, scale: f64) -> Triplets {
    let nodes = ckt.num_nodes() - 1;
    let var = |n: &NodeId| (!n.is_ground()).then(|| n.index() - 1);
    let mut groups: Vec<Vec<usize>> = ckt
        .elements()
        .iter()
        .map(|e| match e {
            Element::Resistor { p, n, .. }
            | Element::Capacitor { p, n, .. }
            | Element::ISource { p, n, .. } => [p, n].into_iter().filter_map(var).collect(),
            Element::VSource { p, n, branch, .. } => {
                let mut g: Vec<usize> = [p, n].into_iter().filter_map(var).collect();
                g.push(nodes + branch);
                g
            }
            Element::Vcvs {
                p,
                n,
                cp,
                cn,
                branch,
                ..
            } => {
                let mut g: Vec<usize> = [p, n, cp, cn].into_iter().filter_map(var).collect();
                g.push(nodes + branch);
                g
            }
            Element::Vccs { p, n, cp, cn, .. } => {
                [p, n, cp, cn].into_iter().filter_map(var).collect()
            }
            _ => Vec::new(),
        })
        .collect();
    groups.extend(
        ckt.devices()
            .iter()
            .map(|d| d.terminals().iter().filter_map(var).collect()),
    );
    let dim = nodes + ckt.num_branches();
    let mut tri = Triplets::new(dim);
    let mut degree = vec![1.0; dim];
    for g in &groups {
        for &a in g {
            for &b in g {
                if a != b {
                    tri.add(a, b, -scale);
                    degree[a] += 1.0;
                }
            }
        }
    }
    for (v, d) in degree.into_iter().enumerate() {
        tri.add(v, v, d * scale);
    }
    tri
}

/// Time the SPICE layers on the Fig. 7 row: device evaluation, the LU
/// factor and refactor, and the whole transient under the production
/// defaults, whose exact per-search engine counts are reported too.
/// `engine.assemble_us` is what the transient spends per Newton
/// iteration beyond the device evaluations and LU work it counts.
///
/// # Panics
/// Panics if the Fig. 7 transient fails (a programming error).
pub fn spice_layers(out: &mut Outcome) {
    let sim = fig7_row();
    let ckt = &sim.circuit;
    let ctx = EvalCtx::default();
    // Representative in-window biases: gate/drain/source/back-gate.
    let bias = [0.45, 0.2, 0.05, 0.8, 0.3, 0.1];
    let (fefets, mosfets): (Vec<&dyn NonlinearDevice>, Vec<&dyn NonlinearDevice>) = ckt
        .devices()
        .iter()
        .map(AsRef::as_ref)
        .partition(|d| format!("{d:?}").starts_with("Fefet"));
    let eval_class = |devs: &[&dyn NonlinearDevice]| -> f64 {
        if devs.is_empty() {
            return 0.0;
        }
        let mut scratch: Vec<DeviceStamps> = devs
            .iter()
            .map(|d| DeviceStamps::new(d.terminals().len()))
            .collect();
        time_ns(REPS, 20, || {
            for (d, st) in devs.iter().zip(scratch.iter_mut()) {
                st.clear();
                let t = d.terminals().len();
                d.eval(black_box(&bias[..t.min(bias.len())]), st, &ctx);
            }
        }) / devs.len() as f64
    };
    let fefet_ns = eval_class(&fefets);
    let mosfet_ns = eval_class(&mosfets);
    let n_dev = (fefets.len() + mosfets.len()).max(1) as f64;
    let eval_ns = (fefet_ns * fefets.len() as f64 + mosfet_ns * mosfets.len() as f64) / n_dev;

    let tri = mna_pattern(ckt, 1.0);
    let b: Vec<f64> = (0..tri.dim()).map(|i| 1e-6 * (i % 7) as f64).collect();
    let factor_us = time_ns(REPS, 5, || {
        let mut solver = CachedSolver::with_ordering(Ordering::Amd);
        black_box(solver.solve(&tri, &b).expect("pattern matrix factors"));
    }) / 1e3;
    let mut solver = CachedSolver::with_ordering(Ordering::Amd);
    solver.solve(&tri, &b).expect("pattern matrix factors");
    // Alternate two matrices with one pattern and different values (two
    // timesteps), so every solve refactors numerically.
    let pair = [tri, mna_pattern(ckt, 1.5)];
    let mut k = 0usize;
    let refactor_solve_us = time_ns(REPS, 20, || {
        k += 1;
        black_box(solver.solve(&pair[k % 2], &b).expect("refactor"));
    }) / 1e3;

    let mut host_us = Vec::with_capacity(REPS);
    let mut stats = SimStats::default();
    for _ in 0..REPS {
        let mut sim = fig7_row();
        let t0 = Instant::now();
        let run = sim.run().expect("Fig. 7 transient");
        host_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        stats = run.trace.stats();
    }
    let host_us = median(&mut host_us).expect("timed");
    let iters = stats.newton_iters.max(1) as f64;
    let assemble_us = (host_us
        - stats.bypass_misses as f64 * eval_ns / 1e3
        - stats.full_factors as f64 * factor_us
        - stats.refactors as f64 * refactor_solve_us)
        / iters;
    println!(
        "spice: Fig. 7 transient {host_us:.0} us, {} Newton iterations",
        stats.newton_iters
    );

    out.set("device.fefet_eval_ns", fefet_ns);
    out.set("device.mosfet_eval_ns", mosfet_ns);
    out.set("engine.assemble_us", assemble_us);
    out.set("matrix.factor_us", factor_us);
    out.set("matrix.refactor_solve_us", refactor_solve_us);
    out.set("engine.newton_iters", stats.newton_iters as f64);
    out.set(
        "engine.device_evals",
        (stats.bypass_hits + stats.bypass_misses) as f64,
    );
    out.set("engine.bypass_hits", stats.bypass_hits as f64);
    out.set("engine.refactors", stats.refactors as f64);
    out.set("engine.full_factors", stats.full_factors as f64);
    out.set("engine.rejected_steps", stats.rejected_steps as f64);
}

/// Fan-out queries of the similarity mix (top-k, threshold, range) near
/// rows of `view`.
fn fanout_queries(view: &SnapView, n: usize, rng: &mut Rng) -> Vec<(RequestKind, PackedQuery)> {
    (0..n)
        .map(|i| {
            let s = rng.below(view.shard_count());
            let word = view.shard(s).row_word(rng.below(view.shard(s).rows()));
            match i % 3 {
                0 | 1 => {
                    let mut bits: Vec<bool> =
                        word.iter().map(|d| *d == ferrotcam::Ternary::One).collect();
                    let p = rng.below(WIDTH);
                    bits[p] = !bits[p];
                    let kind = if i % 3 == 0 {
                        RequestKind::TopK { k: 8 }
                    } else {
                        RequestKind::Threshold { t: 2 }
                    };
                    (kind, PackedQuery::from_bits(&bits))
                }
                _ => {
                    let levels: Vec<u8> =
                        word_windows(&word).into_iter().map(|(lo, _)| lo).collect();
                    (RequestKind::Range, levels_to_query(&levels))
                }
            }
        })
        .collect()
}

/// Per-job cost (ns) of `BehaviouralBackend::execute` on batches of `b`
/// jobs with the default worker count.
fn execute_ns_per_job(
    view: &SnapView,
    jobs: &[(RequestKind, PackedQuery, Option<usize>)],
    b: usize,
) -> f64 {
    let t_bank = view.model_latency().unwrap_or(1e-9);
    let batches: Vec<_> = jobs
        .chunks(b)
        .filter(|c| c.len() == b)
        .map(|c| {
            let queries: Vec<PackedQuery> = c.iter().map(|j| j.1.clone()).collect();
            let kinds: Vec<RequestKind> = c.iter().map(|j| j.0).collect();
            let targets: Vec<Option<usize>> = c.iter().map(|j| j.2).collect();
            (queries, kinds, targets, vec![1.0; b])
        })
        .collect();
    let n_jobs = default_jobs();
    let mut i = 0;
    time_ns(REPS, batches.len().max(1), || {
        let (q, k, t, c) = &batches[i % batches.len()];
        i += 1;
        let spec = BatchSpec {
            queries: q,
            kinds: k,
            targets: t,
            costs: c,
        };
        black_box(BehaviouralBackend.execute(view, &spec, n_jobs, t_bank));
    }) / b as f64
}

/// Everything the serve-side ledger needs from a workload run.
#[derive(Debug)]
pub struct ServeContext<'a> {
    /// The workload.
    pub kind: Kind,
    /// Its inputs (pool with reference answers, table words).
    pub inputs: &'a Inputs,
    /// The live service's client (for the idle round trip).
    pub client: &'a ServiceClient,
    /// Mean batch size the service formed under the workload.
    pub mean_batch: f64,
}

/// Time the serve layers and return the isolated cost (us) of one
/// request's path for the workload: admission, a queue hop, the batch
/// plan and snapshot, executing a whole batch of the mean size, energy
/// attribution and metrics for that batch.
///
/// # Panics
/// Panics if a microbenchmark's fixed inputs are malformed.
pub fn serve_layers(ctx: &ServeContext<'_>, out: &mut Outcome) -> f64 {
    let mut rng = Rng::new(0x1ed9e5, 7);
    let table: ShardedTcam = ctx.inputs.build_table();
    let live = LiveTable::from_sharded(&table);
    let view = live.snapshot();
    let b = ctx.mean_batch.round().max(1.0) as usize;

    let lists: Vec<Vec<usize>> = (0..SHARDS)
        .map(|s| (0..16).map(|j| j * s).collect())
        .collect();
    let jobs = default_jobs();
    let par_map_ns = time_ns(REPS, 200, || {
        black_box(par_map(&lists, jobs, |_, l| l.iter().sum::<usize>()));
    });

    let admission = Admission::new(
        RatePolicy::unlimited(),
        RatePolicy::unlimited(),
        RatePolicy::unlimited(),
    );
    let admit_ns = time_ns(REPS, 20_000, || {
        black_box(admission.admit(0, AdmissionClass::Exact, Instant::now())).ok();
    });

    let queue: BoundedQueue<u64> = BoundedQueue::new(1024);
    let push_pop_ns = time_ns(REPS, 20_000, || {
        queue.push(black_box(7)).ok();
        black_box(queue.pop());
    });
    let push_pop_2t_ns = {
        let n = 200_000u64;
        let mut rounds: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for i in 0..n {
                            while queue.push(i).is_err() {
                                std::hint::spin_loop();
                            }
                        }
                    });
                    let mut got = 0;
                    while got < n {
                        if queue.pop().is_some() {
                            got += 1;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
                t0.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        median(&mut rounds).unwrap_or(0.0)
    };

    let routed = ctx.kind != Kind::Similarity;
    let targets: Vec<Option<usize>> = (0..b).map(|i| routed.then_some(i % SHARDS)).collect();
    let costs = vec![1.0; b];
    let t_bank = view.model_latency().unwrap_or(1e-9);
    let plan_ns = time_ns(REPS, 2_000, || {
        let p = batch::plan(black_box(&targets), SHARDS);
        black_box(p.schedule_weighted(SHARDS, t_bank, &costs));
    });
    let snapshot_ns = time_ns(REPS, 20_000, || {
        black_box(live.snapshot());
    });

    let pool = &ctx.inputs.pool;
    let (outcome, _) = pool[0]
        .expected
        .clone()
        .expect("reference answers prepared");
    let energy_ns = time_ns(REPS, 20_000, || {
        black_box(view.energy_of_kind(pool[0].kind, black_box(&outcome)));
    });

    let collector = MetricsCollector::new();
    let samples = vec![
        ResponseSample {
            kind: RequestKind::Exact,
            wall_ns: 700_000,
            model_latency_s: Some(1e-9),
            rows: 4096,
            step1_misses: 4000,
            step2_misses: 95,
            matches: 1,
            energy_j: Some(3e-11),
        };
        64
    ];
    let on_responses_ns = time_ns(REPS, 500, || collector.on_responses(black_box(&samples))) / 64.0;

    let routed_jobs: Vec<_> = (0..256)
        .map(|_| {
            let q = PackedQuery::from_bits(&rng.bits(WIDTH));
            let t = Some(view.route_packed(&q));
            (RequestKind::Exact, q, t)
        })
        .collect();
    let fanout_jobs: Vec<_> = fanout_queries(&view, 96, &mut rng)
        .into_iter()
        .map(|(k, q)| (k, q, None))
        .collect();
    let routed_ns = execute_ns_per_job(&view, &routed_jobs, b.min(routed_jobs.len()));
    let fanout_ns = execute_ns_per_job(&view, &fanout_jobs, b.min(fanout_jobs.len()));

    // Kernels over one shard's copy-on-write blocks.
    let snap = view.shard(0);
    let rows = snap.rows() as f64;
    let fq = fanout_queries(&view, 3, &mut rng);
    let exact_q = &routed_jobs[0].1;
    let exact_ns = time_ns(REPS, 50, || {
        for (_, blk) in snap.blocks() {
            black_box(blk.slices().search(exact_q));
        }
    }) / rows;
    let topk_ns = time_ns(REPS, 20, || {
        black_box(top_k_chunked(
            snap.blocks().map(|(base, blk)| (base, blk.packed())),
            &fq[0].1,
            8,
        ));
    }) / rows;
    let threshold_ns = time_ns(REPS, 20, || {
        for (_, blk) in snap.blocks() {
            black_box(threshold_search(blk.packed(), &fq[1].1, 2));
        }
    }) / rows;
    let range_ns = time_ns(REPS, 20, || {
        for (_, blk) in snap.blocks() {
            black_box(blk.ranges().expect("even width").search(&fq[2].1));
        }
    }) / rows;
    let lists: Vec<Vec<ApproxHit>> = (0..SHARDS)
        .map(|s| {
            (0..8)
                .map(|i| ApproxHit {
                    row: i * SHARDS + s,
                    distance: (i as u32 + s as u32) / 2,
                })
                .collect()
        })
        .collect();
    let merge_ns = time_ns(REPS, 5_000, || {
        black_box(merge_top_k(black_box(&lists), 8));
    });

    // Online writes, each a one-op batch (one block republished).
    let word = |rng: &mut Rng| TernaryWord::from_bits(&rng.bits(WIDTH));
    let upd: Vec<WriteOp> = (0..200)
        .map(|i| WriteOp::Update {
            row: (i * 37) % 4096,
            word: word(&mut rng),
        })
        .collect();
    let mut i = 0;
    let update_ns = time_ns(REPS, 100, || {
        black_box(live.apply(std::slice::from_ref(&upd[i % upd.len()])));
        i += 1;
    });
    let ins: Vec<WriteOp> = (0..100).map(|_| WriteOp::Insert(word(&mut rng))).collect();
    let (mut ins_t, mut del_t) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut slots = Vec::with_capacity(ins.len());
        let t0 = Instant::now();
        for op in &ins {
            slots.push(live.apply(std::slice::from_ref(op)));
        }
        ins_t.push(t0.elapsed().as_nanos() as f64 / ins.len() as f64);
        let t0 = Instant::now();
        for _ in 0..ins.len() {
            black_box(live.apply(&[WriteOp::Delete { row: 0 }]));
        }
        del_t.push(t0.elapsed().as_nanos() as f64 / ins.len() as f64);
    }

    let oracle_us = {
        let n = pool.len().min(64);
        let mut i = 0;
        time_ns(REPS, n, || {
            let q = &pool[i % n];
            i += 1;
            black_box(reference_search(&view, q.kind, &q.query, q.target));
        }) / 1e3
    };

    let roundtrip_us = idle_roundtrip_us(ctx.client, ctx.inputs);

    out.set("parallel.par_map_ns", par_map_ns);
    out.set("service.idle_roundtrip_us", roundtrip_us);
    out.set("admission.admit_ns", admit_ns);
    out.set("queue.push_pop_ns", push_pop_ns);
    out.set("queue.push_pop_2t_ns", push_pop_2t_ns);
    out.set("batch.plan_ns", plan_ns);
    out.set("shard.snapshot_ns", snapshot_ns);
    out.set("calib.energy_of_kind_ns", energy_ns);
    out.set("metrics.on_responses_ns_per_sample", on_responses_ns);
    out.set("backend.execute_routed_ns_per_job", routed_ns);
    out.set("backend.execute_fanout_ns_per_job", fanout_ns);
    out.set("kernel.exact_ns_per_row", exact_ns);
    out.set("kernel.topk_ns_per_row", topk_ns);
    out.set("kernel.threshold_ns_per_row", threshold_ns);
    out.set("kernel.range_ns_per_row", range_ns);
    out.set("kernel.merge_top_k_ns", merge_ns);
    out.set("shard.apply_update_ns", update_ns);
    out.set("shard.apply_insert_ns", median(&mut ins_t).unwrap_or(0.0));
    out.set("shard.apply_delete_ns", median(&mut del_t).unwrap_or(0.0));
    out.set("oracle.reference_search_us", oracle_us);

    let execute_ns = if routed { routed_ns } else { fanout_ns };
    let bf = b as f64;
    (admit_ns
        + push_pop_ns
        + plan_ns
        + snapshot_ns
        + bf * (execute_ns + energy_ns + on_responses_ns))
        / 1e3
}

/// Median submit→answer time (us) of single requests on an otherwise
/// idle service, with a pause before each so the dispatchers are idle.
fn idle_roundtrip_us(client: &ServiceClient, inputs: &Inputs) -> f64 {
    let mut v: Vec<f64> = (0..100)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(2));
            let q = &inputs.pool[i % inputs.pool.len()];
            let t0 = Instant::now();
            let r = client
                .submit_kind(0, q.query.clone(), q.kind, q.target)
                .ok()
                .and_then(ferrotcam_serve::Ticket::wait);
            black_box(r);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&mut v).unwrap_or(0.0)
}
