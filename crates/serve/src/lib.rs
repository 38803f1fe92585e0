//! # ferrotcam-serve
//!
//! The serving layer of the ferroTCAM workspace: a multi-tenant,
//! sharded, batched associative-search service over the behavioural
//! TCAM, with SPICE-calibrated energy and latency attribution on every
//! response.
//!
//! Where the rest of the workspace *simulates* the paper's TCAM, this
//! crate *serves* it: queries and online writes arrive concurrently
//! from many clients, pass per-tenant admission control
//! ([`admission`]), queue in per-shard bounded lock-free rings
//! ([`queue`]), get coalesced into per-bank batches ([`batch`]) by
//! per-shard work-stealing dispatchers (which park when idle and are
//! woken on push, [`park`]), execute on copy-on-write shard
//! snapshots ([`shard`]) through the bit-parallel kernels ([`backend`])
//! — with a sampled audit lane that replays answers through the scalar
//! reference walk — inline on the dispatcher thread that pulled the
//! batch, and come back with the exact Table IV early-termination
//! energy the search would have burned in silicon. Writes (insert /
//! delete / update) publish fresh per-shard snapshots behind an epoch
//! counter, so an in-flight search can never observe a torn word, and
//! are priced by the calibrated 3-step program. Load beyond capacity is
//! shed with typed [`Overloaded`] errors instead of growing queues
//! without bound (and, with a configured deadline, queries whose SLO
//! already expired are shed at dispatch), and a [`ServiceMetrics`]
//! snapshot (latency percentiles, queue depth, batch sizes, shed
//! counts, step-1 early-termination rate) exports as JSON at any time.
//!
//! Clients submit through five calls: [`ServiceClient::submit_kind`]
//! (any search kind, fanned out or pinned to a shard),
//! [`ServiceClient::submit_noreply_kind`] (the same without a reply),
//! and [`ServiceClient::submit_insert`] / [`ServiceClient::submit_update`]
//! / [`ServiceClient::submit_delete`] for writes.
//!
//! ```
//! use ferrotcam::{PackedQuery, TernaryWord};
//! use ferrotcam_serve::{RequestKind, ServiceConfig, ShardedTcam, TcamService};
//!
//! let mut table = ShardedTcam::new(8, 2);
//! for i in 0..16u64 {
//!     table.store(TernaryWord::from_u64(i, 8));
//! }
//! let service = TcamService::start(table, &ServiceConfig::default());
//! let client = service.client();
//! let query = PackedQuery::from_u64(5, 8);
//! let response = client
//!     .submit_kind(0, query, RequestKind::Exact, None)?
//!     .wait()
//!     .expect("answered");
//! assert_eq!(response.matches, vec![5]);
//! // Online write: program a new word, then find it.
//! let ack = client.submit_insert(0, TernaryWord::from_u64(0xAB, 8))?.wait();
//! let slot = ack.expect("answered").matches[0];
//! let probe = PackedQuery::from_u64(0xAB, 8);
//! let hit = client
//!     .submit_kind(0, probe, RequestKind::Exact, None)?
//!     .wait()
//!     .expect("answered");
//! assert_eq!(hit.matches, vec![slot]);
//! let metrics = service.drain();
//! assert_eq!(metrics.completed, 3);
//! # Ok::<(), ferrotcam_serve::Overloaded>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod backend;
pub mod batch;
pub mod drain;
pub mod metrics;
pub mod park;
pub mod queue;
pub mod request;
pub mod service;
pub mod shard;
pub(crate) mod sync;

pub use admission::{Admission, Overloaded, RatePolicy, TenantId, TokenBucket};
pub use backend::{
    audit_compare, reference_search, AuditVerdict, BackendKind, BatchSpec, BehaviouralBackend,
    ExecBackend, ExecResult,
};
pub use drain::DrainGate;
pub use metrics::{
    DispatcherStats, Histogram, KindBreakdown, LatencySummary, MetricsCollector, ResponseSample,
    ServiceMetrics,
};
pub use park::Sleepers;
pub use queue::BoundedQueue;
pub use request::{AdmissionClass, RequestKind, KIND_COUNT};
pub use service::{
    SearchResponse, ServiceClient, ServiceConfig, TcamService, Ticket, DEFAULT_MAX_BATCH,
};
pub use shard::{
    hash_bits, hash_packed, EpochCell, LiveTable, RangeView, RowBlock, ShardSnap, ShardedTcam,
    SnapView, WriteAck, WriteOp, BLOCK_ROWS,
};
