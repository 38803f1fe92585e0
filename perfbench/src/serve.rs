//! The open-loop serving workloads: `lookup`, `similarity` and `churn`.
//!
//! One generator thread offers Poisson arrivals at a fixed rate, submits
//! every request with a ticket, and polls the outstanding tickets
//! between arrivals. A request's latency runs from the moment it was
//! *due* (its arrival time), not from when the generator got round to
//! submitting it, so a generator that falls behind shows up as latency
//! instead of hiding it; how late the generator ran is reported too.
//! Outstanding tickets are capped; a request past the cap is not sent
//! and counts as failed.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, quantile};
use ferrotcam::approx::word_windows;
use ferrotcam::{
    levels_to_query, ApproxHit, Calibration, DesignKind, PackedQuery, SearchOutcome, TernaryWord,
};
use ferrotcam_serve::{
    reference_search, BackendKind, Overloaded, RequestKind, SearchResponse, ServiceClient,
    ServiceConfig, ServiceMetrics, ShardedTcam, SnapView, TcamService, Ticket,
};
use std::time::{Duration, Instant};

/// Rows in the served table.
pub const ROWS: usize = 16384;
/// Shards (and dispatcher threads).
pub const SHARDS: usize = 4;
/// Word width in digits.
pub const WIDTH: usize = 64;
/// Most tickets the generator keeps outstanding. Each ticket is its own
/// channel; an uncapped generator under overload grows without bound.
pub const OUTSTANDING_CAP: usize = 8192;
/// Age (s) at which the service sheds a search still waiting for
/// dispatch: a client timeout well past the host's pauses. A two-core
/// host whose neighbours take a fifth of it pauses the service for
/// tens of ms at a time; shedding at the 5 ms latency limit instead
/// failed 0.1-2% of lookups a run at 2k/s, and which runs did depended
/// on the neighbours. The latency limit still judges capacity rungs.
pub const DEADLINE_S: f64 = 0.1;
/// How long past [`DEADLINE_S`] a silent ticket is given before the
/// generator settles it with a blocking wait (s).
pub const AGE_OUT_S: f64 = 0.05;
/// Offered rate (requests/s) of every workload's measured phase. The
/// service spends 0.3 to 0.4 ms of CPU per request at this rate, most of
/// it in its dispatchers' idle polling and per-batch thread spawns, so
/// it leaves most of a two-core host free. Nearer its capacity, latency
/// measures how much CPU the neighbours leave rather than the service:
/// with 12-23% of a two-core host stolen, five lookup runs at 10k/s gave
/// p50 from 0.66 to 3.3 ms and shed up to 13% of requests.
pub const NOMINAL_RATE: f64 = 2_000.0;
/// Share of requests that may fail before a ladder rung fails.
pub const MAX_FAIL_FRAC: f64 = 0.01;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Key-routed exact lookups.
    Lookup,
    /// Fan-out top-k / threshold / range queries.
    Similarity,
    /// Routed lookups mixed with 8% update, 1% insert, 1% delete.
    Churn,
}

/// Capacity ladder of a traced run, as multiples of [`NOMINAL_RATE`]:
/// from the nominal rate to 100x it, past the service's capacity on a
/// two-core host.
pub const LADDER: [f64; 6] = [2.0, 5.0, 10.0, 25.0, 50.0, 100.0];
/// Unmeasured warm-up at the nominal rate before the measured phase (s).
pub const WARM_S: f64 = 0.3;
/// Windows the measured phase is split into (see [`Phase::search_q`]).
pub const WINDOWS: usize = 20;

/// Load shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// p99 limit (us) a capacity rung must hold.
    pub limit_us: f64,
    /// Measured phase at the nominal rate (s).
    pub main_s: f64,
    /// Length of one ladder rung (s).
    pub rung_s: f64,
}

impl Spec {
    /// The workload's shape for a run that measures `seconds`: all of it
    /// at the nominal rate, or with `ladder` half at the nominal rate and
    /// half on the capacity ladder.
    #[must_use]
    pub fn new(kind: Kind, seconds: f64, ladder: bool) -> Self {
        let limit_us = match kind {
            Kind::Lookup | Kind::Churn => 5_000.0,
            Kind::Similarity => 20_000.0,
        };
        Self {
            kind,
            limit_us,
            main_s: if ladder { seconds * 0.5 } else { seconds },
            rung_s: seconds * 0.5 / LADDER.len() as f64,
        }
    }
}

/// One query of the workload's fixed pool, with its reference answer.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    /// What is asked.
    pub kind: RequestKind,
    /// The packed query.
    pub query: PackedQuery,
    /// `Some(shard)` for key-routed queries, `None` for fan-out.
    pub target: Option<usize>,
    /// Reference answer on the static table (filled in by the oracle).
    pub expected: Option<(SearchOutcome, Vec<ApproxHit>)>,
}

/// One operation of the seeded stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Pool query `i`.
    Search(usize),
    /// Re-program `row` with `word`.
    Update {
        /// Global row id.
        row: usize,
        /// Word to program.
        word: TernaryWord,
    },
    /// Program `word` into a fresh row.
    Insert(TernaryWord),
    /// Retire global row `row`.
    Delete(usize),
}

/// Everything a workload needs that is derived from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Table words in storage order.
    pub words: Vec<TernaryWord>,
    /// Whether words are key-routed (stored on their hash shard).
    pub routed: bool,
    /// Query pool.
    pub pool: Vec<PoolQuery>,
}

fn binary_word(rng: &mut Rng) -> TernaryWord {
    TernaryWord::from_bits(&rng.bits(WIDTH))
}

/// A word with about one digit in sixteen a wildcard.
fn ternary_word(rng: &mut Rng) -> TernaryWord {
    let digits = (0..WIDTH)
        .map(|_| match rng.below(32) {
            0 | 1 => ferrotcam::Ternary::X,
            n if n % 2 == 0 => ferrotcam::Ternary::Zero,
            _ => ferrotcam::Ternary::One,
        })
        .collect();
    TernaryWord::new(digits)
}

/// Query bits that hit `word` (wildcards resolved at random) with
/// `flips` random positions inverted.
fn near_query(rng: &mut Rng, word: &TernaryWord, flips: usize) -> Vec<bool> {
    let mut bits: Vec<bool> = word
        .iter()
        .map(|d| match d {
            ferrotcam::Ternary::One => true,
            ferrotcam::Ternary::Zero => false,
            ferrotcam::Ternary::X => rng.below(2) == 1,
        })
        .collect();
    for _ in 0..flips {
        let p = rng.below(WIDTH);
        bits[p] = !bits[p];
    }
    bits
}

impl Inputs {
    /// Seeded table words and query pool (without reference answers).
    #[must_use]
    pub fn generate(kind: Kind, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let routed = kind != Kind::Similarity;
        let words: Vec<TernaryWord> = (0..ROWS)
            .map(|_| {
                if routed {
                    binary_word(&mut rng)
                } else {
                    ternary_word(&mut rng)
                }
            })
            .collect();
        let mut rng = Rng::new(seed, 2);
        let pool = match kind {
            Kind::Lookup | Kind::Churn => (0..4096)
                .map(|_| {
                    // Nine in ten lookups ask for a stored key.
                    let bits = if rng.below(10) < 9 {
                        {
                            let row = rng.below(ROWS);
                            near_query(&mut rng, &words[row], 0)
                        }
                    } else {
                        rng.bits(WIDTH)
                    };
                    PoolQuery {
                        kind: RequestKind::Exact,
                        query: PackedQuery::from_bits(&bits),
                        target: None,
                        expected: None,
                    }
                })
                .collect(),
            Kind::Similarity => (0..192)
                .map(|i| {
                    let word = &words[rng.below(ROWS)];
                    let (kind, query) = match i % 3 {
                        0 => (RequestKind::TopK { k: 8 }, {
                            let flips = rng.below(4);
                            PackedQuery::from_bits(&near_query(&mut rng, word, flips))
                        }),
                        1 => (RequestKind::Threshold { t: 2 }, {
                            let flips = rng.below(4);
                            PackedQuery::from_bits(&near_query(&mut rng, word, flips))
                        }),
                        _ => {
                            // Levels inside the row's windows (a hit) three
                            // times in four, otherwise random levels.
                            let hit = rng.below(4) != 0;
                            let levels: Vec<u8> = word_windows(word)
                                .into_iter()
                                .map(|(lo, hi)| {
                                    if hit {
                                        lo + rng.below(usize::from(hi - lo) + 1) as u8
                                    } else {
                                        rng.below(4) as u8
                                    }
                                })
                                .collect();
                            (RequestKind::Range, levels_to_query(&levels))
                        }
                    };
                    PoolQuery {
                        kind,
                        query,
                        target: None,
                        expected: None,
                    }
                })
                .collect(),
        };
        Self {
            words,
            routed,
            pool,
        }
    }

    /// Build the served table (the timed part of set-up).
    #[must_use]
    pub fn build_table(&self) -> ShardedTcam {
        let calib = Calibration::paper_defaults(DesignKind::T15Dg);
        let mut t = ShardedTcam::new(WIDTH, SHARDS);
        for w in &self.words {
            if self.routed {
                let shard = t.route_packed(&PackedQuery::from_bits(&near_bits(w)));
                t.store_in(shard, w.clone());
            } else {
                t.store(w.clone());
            }
        }
        t.attach_metrics(calib.search_metrics(WIDTH));
        t.attach_write_metrics(calib.write_metrics(WIDTH));
        t
    }

    /// Fill in routes and reference answers from the served table's
    /// view. Runs outside every timed window.
    pub fn prepare(&mut self, view: &SnapView) {
        for q in &mut self.pool {
            if self.routed {
                q.target = Some(view.route_packed(&q.query));
            }
            q.expected = Some(reference_search(view, q.kind, &q.query, q.target));
        }
    }
}

/// The bits of a binary word (routing key).
fn near_bits(w: &TernaryWord) -> Vec<bool> {
    w.iter().map(|d| *d == ferrotcam::Ternary::One).collect()
}

/// The seeded operation stream of a workload.
#[derive(Debug)]
pub struct OpStream {
    kind: Kind,
    rng: Rng,
    pool_len: usize,
}

impl OpStream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(kind: Kind, seed: u64, inputs: &Inputs) -> Self {
        Self {
            kind,
            rng: Rng::new(seed, 4),
            pool_len: inputs.pool.len(),
        }
    }

    /// A row whose local index stays in range however the churn's
    /// inserts and deletes shift shard lengths (they roughly balance).
    fn churn_row(&mut self) -> usize {
        self.rng.below(ROWS / SHARDS / 2) * SHARDS + self.rng.below(SHARDS)
    }

    /// Next operation.
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::Lookup | Kind::Similarity => Op::Search(self.rng.below(self.pool_len)),
            Kind::Churn => match self.rng.below(100) {
                0..=89 => Op::Search(self.rng.below(self.pool_len)),
                90..=97 => Op::Update {
                    row: self.churn_row(),
                    word: binary_word(&mut self.rng),
                },
                98 => Op::Insert(binary_word(&mut self.rng)),
                _ => Op::Delete(self.churn_row()),
            },
        }
    }
}

/// Why a request failed; the discriminant indexes [`Phase::failures`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// `Overloaded::QueueFull`.
    QueueFull,
    /// `Overloaded::RateLimited`.
    RateLimited,
    /// `Overloaded::ShuttingDown`.
    ShuttingDown,
    /// The ticket resolved to `None` (deadline-shed).
    Unanswered,
    /// Not sent: the outstanding-ticket cap was reached.
    OverCap,
    /// Answered wrongly.
    Wrong,
}

impl Cause {
    /// Every cause, in report order.
    pub const ALL: [Cause; 6] = [
        Cause::QueueFull,
        Cause::RateLimited,
        Cause::ShuttingDown,
        Cause::Unanswered,
        Cause::OverCap,
        Cause::Wrong,
    ];

    /// Report tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Cause::QueueFull => "queue_full",
            Cause::RateLimited => "rate_limited",
            Cause::ShuttingDown => "shutting_down",
            Cause::Unanswered => "unanswered",
            Cause::OverCap => "over_cap",
            Cause::Wrong => "wrong",
        }
    }
}

/// What a phase of open-loop load measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Offered rate (requests/s).
    pub rate: f64,
    /// Length of the arrival window (s).
    pub secs: f64,
    /// Requests due in the window.
    pub attempted: u64,
    /// Failures by cause, in [`Cause::ALL`] order.
    pub failures: [u64; 6],
    /// `(due s, latency us)` of every search; a failed one counts as
    /// missing the latency limit.
    pub search_lat: Vec<(f64, f64)>,
    /// `(due s, latency us)` of every write, failures as for searches.
    pub write_lat: Vec<(f64, f64)>,
    /// Due times (s) of the failed requests.
    pub failed_due: Vec<f64>,
    /// How late each request was submitted after it was due (us).
    pub late_us: Vec<f64>,
    /// `(sequence, energy J)` of every correctly answered search.
    pub energy: Vec<(u64, f64)>,
    /// Inserts acknowledged with a slot.
    pub inserts: u64,
    /// Deletes acknowledged as applied.
    pub deletes: u64,
}

/// Split `(due, value)` samples into `windows` equal due-time windows
/// of a `secs`-long phase.
fn split(samples: &[(f64, f64)], secs: f64, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for &(due, v) in samples {
        let w = ((due / secs * windows as f64) as usize).min(windows - 1);
        out[w].push(v);
    }
    out
}

impl Phase {
    /// Total failures.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    /// Failures over attempts.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Correct answers per second of arrival window.
    #[must_use]
    pub fn achieved(&self) -> f64 {
        (self.attempted - self.failed()) as f64 / self.secs
    }

    /// Median over `windows` equal due-time windows of the per-window
    /// `p`-quantile of `samples`: on a shared machine a preempted stretch
    /// of the run moves one window, not the figure.
    fn windowed(&self, samples: &[(f64, f64)], p: f64, windows: usize) -> Option<f64> {
        let mut per: Vec<f64> = split(samples, self.secs, windows)
            .into_iter()
            .filter_map(|mut v| quantile(&mut v, p))
            .collect();
        median(&mut per)
    }

    /// Search-latency `p`-quantile (us) of the median window (see
    /// [`Self::windowed`]).
    #[must_use]
    pub fn search_q(&self, p: f64, windows: usize) -> f64 {
        self.windowed(&self.search_lat, p, windows)
            .unwrap_or(f64::INFINITY)
    }

    /// Write-latency `p`-quantile (us) over the whole phase: writes are
    /// a few percent of requests, so pooling leaves enough samples beyond
    /// the p99. `None` without writes.
    #[must_use]
    pub fn write_q(&self, p: f64) -> Option<f64> {
        quantile(
            &mut self.write_lat.iter().map(|&(_, l)| l).collect::<Vec<_>>(),
            p,
        )
    }

    /// Median over windows of the per-window failed share.
    #[must_use]
    pub fn windowed_fail(&self, windows: usize) -> f64 {
        let mut attempts = vec![0usize; windows];
        for &(due, _) in self.search_lat.iter().chain(&self.write_lat) {
            attempts[((due / self.secs * windows as f64) as usize).min(windows - 1)] += 1;
        }
        let mut fails = vec![0usize; windows];
        for &due in &self.failed_due {
            fails[((due / self.secs * windows as f64) as usize).min(windows - 1)] += 1;
        }
        let mut per: Vec<f64> = attempts
            .iter()
            .zip(&fails)
            .filter(|(&a, _)| a > 0)
            .map(|(&a, &f)| f as f64 / a as f64)
            .collect();
        median(&mut per).unwrap_or(1.0)
    }

    /// Mean modelled energy per correctly answered search (fJ), summed
    /// in request order so the figure is bit-reproducible.
    #[must_use]
    pub fn energy_fj(&self) -> f64 {
        let mut e = self.energy.clone();
        e.sort_by_key(|&(seq, _)| seq);
        let total: f64 = e.iter().map(|&(_, j)| j).sum();
        total / e.len().max(1) as f64 * 1e15
    }

    /// Whether this phase holds the capacity criteria over its median
    /// window: p99 within the limit (failures count as misses) and at
    /// most 1% failed. A growing backlog shows as a p99 past the limit,
    /// and past [`DEADLINE_S`] as failures.
    #[must_use]
    pub fn holds(&self, limit_us: f64, windows: usize) -> bool {
        self.search_q(0.99, windows) <= limit_us && self.windowed_fail(windows) <= MAX_FAIL_FRAC
    }
}

/// What the generator must check in a response.
#[derive(Debug)]
enum Check {
    /// Pool query with a reference answer.
    Search(usize),
    /// Pool query on a changing table: only the shape is checked here
    /// (the audit lane checks the answers).
    LiveSearch,
    /// Update or delete of `row`: applied to exactly that row.
    Row(usize),
    /// Insert: assigned exactly one slot.
    Insert,
}

#[derive(Debug)]
struct Pending {
    ticket: Ticket,
    due: f64,
    seq: u64,
    check: Check,
}

/// The running workload: service, client, inputs and op stream.
#[derive(Debug)]
pub struct Harness {
    /// The workload's shape.
    pub spec: Spec,
    /// Seeded inputs with reference answers.
    pub inputs: Inputs,
    ops: OpStream,
    arrivals: Rng,
    seq: u64,
    /// The service under test.
    pub service: TcamService,
    /// Its client.
    pub client: ServiceClient,
    /// Median set-up time (s): table build plus service start.
    pub setup_s: f64,
}

/// The service configuration every serving workload runs: the
/// behavioural tier with its audit lane replaying one search in 100
/// (20 a second, where the default 1 in 10000 would audit one search
/// in five seconds at the nominal rate), the tier's preferred batch, and
/// searches older than [`DEADLINE_S`] shed.
#[must_use]
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        backend: BackendKind::Behavioural,
        queue_capacity: 16 * 1024,
        max_batch: 0,
        audit_period: 100,
        deadline: Some(Duration::from_secs_f64(DEADLINE_S)),
        ..ServiceConfig::default()
    }
}

/// Least set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-ups repeat until they have taken at least this long (s), so their
/// median spans the machine's second-scale speed swings.
pub const SETUP_MIN_S: f64 = 2.0;

impl Harness {
    /// Generate inputs, set the service up repeatedly (at least
    /// [`SETUP_REPS`] times and [`SETUP_MIN_S`] seconds, timing each),
    /// and compute reference answers on the last one.
    #[must_use]
    pub fn start(spec: Spec, seed: u64) -> Self {
        let mut inputs = Inputs::generate(spec.kind, seed);
        let config = service_config();
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut service = None;
        let started = Instant::now();
        while times.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
            drop(service.take());
            let t0 = Instant::now();
            let table = inputs.build_table();
            let svc = TcamService::start(table, &config);
            times.push(t0.elapsed().as_secs_f64());
            service = Some(svc);
        }
        let service = service.expect("at least one set-up");
        let client = service.client();
        let t0 = Instant::now();
        inputs.prepare(&client.table());
        println!(
            "setup: {} reps; reference answers for {} queries in {:.2} s",
            times.len(),
            inputs.pool.len(),
            t0.elapsed().as_secs_f64()
        );
        let ops = OpStream::new(spec.kind, seed, &inputs);
        Self {
            spec,
            inputs,
            ops,
            arrivals: Rng::new(seed, 5),
            seq: 0,
            service,
            client,
            setup_s: median(&mut times).expect("timed"),
        }
    }

    fn submit(&self, op: &Op) -> Result<(Ticket, Check), Overloaded> {
        let c = &self.client;
        match op {
            Op::Search(i) => {
                let q = &self.inputs.pool[*i];
                let ticket = c.submit_kind(0, q.query.clone(), q.kind, q.target)?;
                let check = if self.spec.kind == Kind::Churn {
                    Check::LiveSearch
                } else {
                    Check::Search(*i)
                };
                Ok((ticket, check))
            }
            Op::Update { row, word } => {
                Ok((c.submit_update(1, *row, word.clone())?, Check::Row(*row)))
            }
            Op::Insert(word) => Ok((c.submit_insert(1, word.clone())?, Check::Insert)),
            Op::Delete(row) => Ok((c.submit_delete(1, *row)?, Check::Row(*row))),
        }
    }

    fn verify(&self, check: &Check, r: &SearchResponse) -> bool {
        match check {
            Check::Search(i) => {
                let (o, hits) = self.inputs.pool[*i]
                    .expected
                    .as_ref()
                    .expect("reference answers prepared");
                r.matches == o.matches
                    && r.step1_misses == o.step1_misses
                    && r.step2_misses == o.step2_misses
                    && r.hits == *hits
                    && r.energy_j.is_some_and(|e| e > 0.0)
            }
            Check::LiveSearch => !r.kind.is_write() && r.energy_j.is_some(),
            Check::Row(row) => r.kind.is_write() && r.matches == [*row],
            Check::Insert => r.kind == RequestKind::Insert && r.matches.len() == 1,
        }
    }

    /// Offer `rate` requests/s for `secs` seconds of arrivals, then wait
    /// for every outstanding ticket.
    pub fn run_phase(&mut self, rate: f64, secs: f64) -> Phase {
        let mut ph = Phase {
            rate,
            secs,
            ..Phase::default()
        };
        let mut pending: Vec<Pending> = Vec::with_capacity(OUTSTANDING_CAP);
        let start = Instant::now();
        let mut next_due = self.arrivals.exp_gap(rate);
        let age_out = DEADLINE_S + AGE_OUT_S;
        loop {
            let now = start.elapsed().as_secs_f64();
            let mut busy = false;
            while next_due <= now && next_due < secs {
                busy = true;
                let op = self.ops.next_op();
                let is_write = !matches!(op, Op::Search(_));
                ph.attempted += 1;
                self.seq += 1;
                let sent = start.elapsed().as_secs_f64();
                ph.late_us.push((sent - next_due) * 1e6);
                let cause = if pending.len() >= OUTSTANDING_CAP {
                    Some(Cause::OverCap)
                } else {
                    match self.submit(&op) {
                        Ok((ticket, check)) => {
                            pending.push(Pending {
                                ticket,
                                due: next_due,
                                seq: self.seq,
                                check,
                            });
                            None
                        }
                        Err(Overloaded::QueueFull) => Some(Cause::QueueFull),
                        Err(Overloaded::RateLimited { .. }) => Some(Cause::RateLimited),
                        Err(Overloaded::ShuttingDown) => Some(Cause::ShuttingDown),
                    }
                };
                if let Some(c) = cause {
                    ph.failures[c as usize] += 1;
                    ph.failed_due.push(next_due);
                    let lat = self.spec.limit_us;
                    if is_write {
                        ph.write_lat.push((next_due, lat));
                    } else {
                        ph.search_lat.push((next_due, lat));
                    }
                }
                next_due += self.arrivals.exp_gap(rate);
            }
            let arrivals_done = next_due >= secs;
            let polled = start.elapsed().as_secs_f64();
            let mut i = 0;
            while i < pending.len() {
                if let Some(resp) = pending[i].ticket.try_wait() {
                    busy = true;
                    let p = pending.swap_remove(i);
                    self.settle(&mut ph, p.due, p.seq, &p.check, Some(resp), polled);
                } else if polled - pending[i].due > age_out {
                    // A shed ticket never answers and `try_wait` cannot
                    // tell it from a slow one; this old, it has either
                    // been shed (resolves to `None` at once) or is about
                    // to be answered, so a blocking wait settles it.
                    busy = true;
                    let Pending {
                        ticket,
                        due,
                        seq,
                        check,
                    } = pending.swap_remove(i);
                    let resp = ticket.wait();
                    let now = start.elapsed().as_secs_f64();
                    self.settle(&mut ph, due, seq, &check, resp, now);
                } else {
                    i += 1;
                }
            }
            if arrivals_done && (pending.is_empty() || polled > secs + 1.0) {
                break;
            }
            if !busy {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        // Anything still outstanding a second after the last arrival was
        // deadline-shed (resolves to `None`) or is answered now, late.
        for p in pending.drain(..) {
            let Pending {
                ticket,
                due,
                seq,
                check,
            } = p;
            let resp = ticket.wait();
            let now = start.elapsed().as_secs_f64();
            self.settle(&mut ph, due, seq, &check, resp, now);
        }
        ph
    }

    /// Resolve one ticket's answer (`None`: deadline-shed) observed at
    /// `now` into the phase tallies.
    fn settle(
        &self,
        ph: &mut Phase,
        due: f64,
        seq: u64,
        check: &Check,
        resp: Option<SearchResponse>,
        now: f64,
    ) {
        let is_write = matches!(check, Check::Row(_) | Check::Insert);
        let ok = match &resp {
            None => {
                ph.failures[Cause::Unanswered as usize] += 1;
                false
            }
            Some(r) if !self.verify(check, r) => {
                ph.failures[Cause::Wrong as usize] += 1;
                false
            }
            Some(r) => {
                match r.kind {
                    RequestKind::Insert => ph.inserts += 1,
                    RequestKind::Delete { .. } => ph.deletes += 1,
                    RequestKind::Update { .. } => {}
                    _ => ph.energy.push((seq, r.energy_j.unwrap_or(0.0))),
                }
                true
            }
        };
        let lat = (now - due) * 1e6;
        let lat = if ok {
            lat
        } else {
            ph.failed_due.push(due);
            lat.max(self.spec.limit_us)
        };
        if is_write {
            ph.write_lat.push((due, lat));
        } else {
            ph.search_lat.push((due, lat));
        }
    }
}

/// Failure counts by cause, as one report line.
fn failure_line(label: &str, ph: &Phase) -> String {
    let causes: Vec<String> = Cause::ALL
        .iter()
        .zip(ph.failures)
        .map(|(c, n)| format!("{}={n}", c.tag()))
        .collect();
    format!(
        "{label}: offered {:.0}/s, attempted {}, failed {} ({})",
        ph.rate,
        ph.attempted,
        ph.failed(),
        causes.join(" ")
    )
}

/// What the nominal phase measured, with the service counters it
/// accumulated and the process CPU time it took.
#[derive(Debug)]
struct Main {
    /// The unmeasured warm-up (its writes count in the row tally).
    warm: Phase,
    /// The measured phase.
    phase: Phase,
    /// Service counters of the measured phase.
    service: ServiceMetrics,
    /// Process CPU time (s) of the measured phase, every thread
    /// included: the client's submit path, the dispatchers and their
    /// batch workers, and the generator.
    cpu_s: f64,
}

/// Warm up, then measure the nominal phase.
fn measure_main(d: &mut Harness) -> Main {
    let warm = d.run_phase(NOMINAL_RATE, WARM_S);
    let before = d.client.metrics();
    let cpu0 = crate::env::cpu_seconds();
    let phase = d.run_phase(NOMINAL_RATE, d.spec.main_s);
    let cpu_s = crate::env::cpu_seconds() - cpu0;
    let after = d.client.metrics();
    println!("{}", failure_line("main", &phase));
    println!("{}", phase_line("main", &phase, WINDOWS, ""));
    Main {
        warm,
        phase,
        service: metrics_delta(&before, &after),
        cpu_s,
    }
}

/// Service counters accumulated between two snapshots.
fn metrics_delta(before: &ServiceMetrics, after: &ServiceMetrics) -> ServiceMetrics {
    let mut m = after.clone();
    m.batch.batches = after.batch.batches - before.batch.batches;
    m.batch.mean_size = if m.batch.batches == 0 {
        0.0
    } else {
        (after.batch.mean_size * after.batch.batches as f64
            - before.batch.mean_size * before.batch.batches as f64)
            / m.batch.batches as f64
    };
    m.rows_searched = after.rows_searched - before.rows_searched;
    m.step1_misses = after.step1_misses - before.step1_misses;
    m.step1_early_termination_rate = if m.rows_searched == 0 {
        0.0
    } else {
        m.step1_misses as f64 / m.rows_searched as f64
    };
    m.audit_sampled = after.audit_sampled - before.audit_sampled;
    m.audit_match_divergences = after.audit_match_divergences - before.audit_match_divergences;
    m.audit_energy_divergences = after.audit_energy_divergences - before.audit_energy_divergences;
    m
}

/// Output checks that hold for the whole run — every answer matched its
/// reference (checked as it arrived), the audit lane saw no divergence,
/// and the table's final row count equals the generator's tally of
/// acknowledged inserts and deletes. Prints each failed check.
fn run_checks(d: &Harness, phases: &[&Phase]) -> bool {
    let mut notes = Vec::new();
    let m = d.client.metrics();
    let divergences = m.audit_match_divergences + m.audit_energy_divergences;
    if divergences != 0 {
        notes.push(format!("audit lane: {divergences} divergence(s)"));
    }
    let wrong: u64 = phases
        .iter()
        .map(|p| p.failures[Cause::Wrong as usize])
        .sum();
    if wrong != 0 {
        notes.push(format!("{wrong} wrong answer(s)"));
    }
    let inserts: u64 = phases.iter().map(|p| p.inserts).sum();
    let deletes: u64 = phases.iter().map(|p| p.deletes).sum();
    let expected_rows = (ROWS as u64 + inserts) - deletes;
    let rows = d.client.table().len() as u64;
    if rows != expected_rows {
        notes.push(format!(
            "row tally: table holds {rows}, generator expects {expected_rows}"
        ));
    }
    for n in &notes {
        println!("check failed: {n}");
    }
    notes.is_empty()
}

/// Windows a ladder rung is judged over.
const RUNG_WINDOWS: usize = 4;

/// One phase as a report line.
fn phase_line(label: &str, ph: &Phase, windows: usize, verdict: &str) -> String {
    format!(
        "  {label} {:>8.0}/s: achieved {:>8.0}/s  p50 {:>8.1} us  p99 {:>9.1} us  fail {:.4}  late p99 {:>7.1} us  {verdict}",
        ph.rate,
        ph.achieved(),
        ph.search_q(0.5, windows),
        ph.search_q(0.99, windows),
        ph.windowed_fail(windows),
        quantile(&mut ph.late_us.clone(), 0.99).unwrap_or(0.0),
    )
}

/// The capacity ladder. Climbs the rungs (the nominal phase counts as
/// the lowest) until one fails the limits, and reports the achieved
/// rate of the highest rung that held, moved toward the failing rung's
/// offered rate by where the limit falls between the two rungs' p99 on
/// a log scale — so the figure is continuous rather than a rung value.
/// With every rung holding it is the top rung's achieved rate.
fn ladder(d: &mut Harness, main: &Phase, out: &mut Vec<Phase>) -> f64 {
    let limit = d.spec.limit_us;
    if !main.holds(limit, WINDOWS) {
        return main.achieved();
    }
    let (mut lo_rate, mut lo_p99) = (main.achieved(), main.search_q(0.99, WINDOWS));
    for m in LADDER {
        let ph = d.run_phase(NOMINAL_RATE * m, d.spec.rung_s);
        let holds = ph.holds(limit, RUNG_WINDOWS);
        println!(
            "{}",
            phase_line(
                "rung",
                &ph,
                RUNG_WINDOWS,
                if holds { "holds" } else { "fails" }
            )
        );
        let p99 = ph.search_q(0.99, RUNG_WINDOWS);
        out.push(ph);
        if !holds {
            // Failing on failures alone (p99 within the limit) gives no
            // latency slope to interpolate on: stay at the lower rung.
            let f = if p99 > limit {
                ((limit.ln() - lo_p99.ln()) / (p99.ln() - lo_p99.ln())).clamp(0.0, 1.0)
            } else {
                0.0
            };
            return lo_rate + f * (NOMINAL_RATE * m - lo_rate).max(0.0);
        }
        (lo_rate, lo_p99) = (out.last().expect("pushed").achieved(), p99);
    }
    lo_rate
}

/// One untraced run: set-up, warm-up, then `seconds` at the nominal
/// rate; every end-to-end metric.
#[must_use]
pub fn run_e2e(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let mut d = Harness::start(Spec::new(kind, seconds, false), seed);
    let main = measure_main(&mut d);
    let correct = run_checks(&d, &[&main.warm, &main.phase]);
    let ph = &main.phase;
    let mut o = Outcome {
        correct,
        attempted: ph.attempted,
        failed: ph.failed(),
        metrics: Vec::new(),
    };
    o.set(
        "cpu_us_per_op",
        main.cpu_s * 1e6 / ph.attempted.max(1) as f64,
    );
    o.set("ok_frac", 1.0 - ph.fail_frac());
    o.set("energy_fj_per_search", ph.energy_fj());
    o.set("setup_s", d.setup_s);
    o.set("peak_rss_mb", crate::env::peak_rss_mb());
    drop(d.service.drain());
    o
}

/// One traced run: the nominal phase and the capacity ladder as a
/// client sees them, the service's counters, then every layer in
/// isolation.
#[must_use]
pub fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let mut d = Harness::start(Spec::new(kind, seconds, true), seed);
    let main = measure_main(&mut d);
    let mut rungs = Vec::new();
    let capacity = ladder(&mut d, &main.phase, &mut rungs);
    let mut phases = vec![&main.warm, &main.phase];
    phases.extend(rungs.iter());
    let correct = run_checks(&d, &phases);
    let (ph, m, w) = (&main.phase, &main.service, WINDOWS);
    let mut o = Outcome {
        correct,
        attempted: ph.attempted,
        failed: ph.failed(),
        metrics: Vec::new(),
    };
    let p50 = ph.search_q(0.5, w);
    o.set("client.p50_us", p50);
    o.set("client.p99_us", ph.search_q(0.99, w));
    o.set("client.write_p50_us", ph.write_q(0.5).unwrap_or(0.0));
    o.set("client.write_p99_us", ph.write_q(0.99).unwrap_or(0.0));
    println!(
        "client: {} searches in {w} windows, {} writes",
        ph.search_lat.len(),
        ph.write_lat.len()
    );
    o.set("client.capacity_qps", capacity);
    o.set("service.batches", m.batch.batches as f64);
    o.set("service.mean_batch", m.batch.mean_size);
    o.set("service.max_queue_depth", m.max_queue_depth as f64);
    o.set("service.audit_sampled", m.audit_sampled as f64);
    o.set(
        "service.audit_divergences",
        (m.audit_match_divergences + m.audit_energy_divergences) as f64,
    );
    o.set("service.step1_et_rate", m.step1_early_termination_rate);
    o.set(
        "harness.gen_late_p99_us",
        quantile(&mut ph.late_us.clone(), 0.99).unwrap_or(0.0),
    );
    let ctx = crate::ledger::ServeContext {
        kind,
        inputs: &d.inputs,
        client: &d.client,
        mean_batch: m.batch.mean_size,
    };
    let path_us = crate::ledger::serve_layers(&ctx, &mut o);
    println!("reconcile: p50 {p50:.1} us, isolated request path {path_us:.1} us");
    o.set("harness.unattributed_us", p50 - path_us);
    crate::ledger::spice_layers(&mut o);
    drop(d.service.drain());
    o
}
