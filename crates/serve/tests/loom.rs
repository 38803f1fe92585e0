//! Exhaustive model checking of the service's two lock-free protocols.
//!
//! Compiled (and run) only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ferrotcam-serve --test loom
//! ```
//!
//! `loom::model` re-executes each closure under every distinguishable
//! thread interleaving (bounded-preemption DFS), so the assertions
//! below are checked against *all* schedules, not one lucky run:
//!
//! * [`BoundedQueue`] — the Vyukov-style submission ring never loses a
//!   ticket, never duplicates one, and reports full/empty correctly
//!   under concurrent producers.
//! * [`DrainGate`] — the drain-bit/accepted-count shutdown word never
//!   strands an accepted request: once the dispatcher observes
//!   quiescence, no request can have been accepted without also having
//!   been completed.
//! * [`Admission`] — the passthrough fast-flag and the bucket map stay
//!   coherent: a finite bucket is never double-spent by racing admits,
//!   and installing a policy is immediately visible to the installer.
//! * [`EpochCell`] — the snapshot/epoch pair a reader loads is always
//!   consistent (the epoch names exactly the snapshot returned), and
//!   racing updaters serialise without losing a publication.
//! * Work stealing × drain — the per-shard queue topology: a job queued
//!   on one dispatcher's ring is executed exactly once even when the
//!   idle peer steals it, and both dispatchers exit only after the
//!   drained gate is quiescent with every ring empty.
//! * [`Sleepers`] — parking: a push racing a dispatcher's announce /
//!   re-check / park never strands the job, a drain wakes every parked
//!   dispatcher so each exits once the queued job ran, and a shed
//!   submit whose retraction makes the drained gate quiescent wakes
//!   them too. A lost wake-up leaves a thread parked for good, which
//!   the checker reports as a deadlock.
#![cfg(loom)]

use ferrotcam_serve::queue::BoundedQueue;
use ferrotcam_serve::{Admission, AdmissionClass, DrainGate, EpochCell, RatePolicy, Sleepers};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Two producers race to push distinct values; the parent then drains.
/// Every pushed value must come out exactly once.
#[test]
fn queue_no_lost_or_duplicated_tickets() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(p).is_ok())
            })
            .collect();
        let accepted: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Capacity 2 with 2 producers: both pushes must land.
        assert!(accepted.iter().all(|&a| a), "push refused below capacity");
        let mut seen = [false; 2];
        while let Some(v) = q.pop() {
            let v = v as usize;
            assert!(!seen[v], "value {v} popped twice");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "value lost in the ring");
        assert!(q.is_empty());
    });
}

/// A full ring rejects the excess push and hands the value back; the
/// rejected value is the producer's own (no swap with a queued one).
/// Two producers race for the single remaining slot.
///
/// An earlier revision of this model ran a capacity-1 ring and caught
/// a real soundness hole: with one slot, "filled by ticket 0"
/// (`seq = 1`) collides with "freed for ticket 1" (`head + capacity =
/// 1`), so both racing pushes succeeded and one value was silently
/// overwritten. `BoundedQueue::new` now rejects capacities below 2.
#[test]
fn queue_full_ring_rejects_without_corruption() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || match q2.push(1u32) {
            Ok(()) => None,
            Err(v) => Some(v),
        });
        let mine = match q.push(2u32) {
            Ok(()) => None,
            Err(v) => Some(v),
        };
        let theirs = t.join().unwrap();
        // Exactly one of the two racing pushes fits the last slot.
        match (mine, theirs) {
            (None, Some(v)) => assert_eq!(v, 1, "producer got someone else's value back"),
            (Some(v), None) => assert_eq!(v, 2, "producer got someone else's value back"),
            other => panic!("expected exactly one accepted push, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(0), "FIFO violated");
        let second = q.pop().expect("winning push queued");
        assert!(second == 1 || second == 2);
        assert_eq!(q.pop(), None);
    });
}

/// Concurrent producer and consumer on a ring mid-lap: the consumer
/// sees either nothing or exactly the pushed value, never garbage.
#[test]
fn queue_producer_consumer_handoff() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(10u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(20u32).unwrap());
        let first = q.pop().expect("pre-filled value is poppable");
        assert_eq!(first, 10, "FIFO violated");
        producer.join().unwrap();
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), None);
    });
}

/// The accept/drain race: a client races `try_accept` against the
/// dispatcher's `begin_drain` + quiescence poll. If the dispatcher ever
/// observes quiescence, the client's request must be either already
/// completed or refused — an accept landing after the dispatcher exits
/// would be a lost request.
#[test]
fn drain_never_strands_an_accepted_request() {
    loom::model(|| {
        let gate = Arc::new(DrainGate::new());
        let exited = Arc::new(AtomicUsize::new(0));
        let (g, e) = (Arc::clone(&gate), Arc::clone(&exited));
        let client = thread::spawn(move || {
            if g.try_accept() {
                // The dispatcher cannot have exited: quiescence requires
                // accepted == completed, and our complete() is pending.
                assert_eq!(
                    e.load(Ordering::SeqCst),
                    0,
                    "dispatcher exited with an accepted, uncompleted request"
                );
                g.complete();
                true
            } else {
                false
            }
        });
        gate.begin_drain();
        if gate.quiescent() {
            // Dispatcher would break its loop here.
            exited.store(1, Ordering::SeqCst);
        }
        let accepted = client.join().unwrap();
        // Whatever interleaving ran, the gate must settle quiescent:
        // the request was either refused or accepted-and-completed.
        assert!(gate.quiescent(), "accepted={accepted}, gate not quiescent");
    });
}

/// A retracted accept (queue-full shed path) must not hold quiescence
/// open: the dispatcher never waits for a request that was handed back.
#[test]
fn drain_retract_releases_quiescence() {
    loom::model(|| {
        let gate = Arc::new(DrainGate::new());
        let g = Arc::clone(&gate);
        let client = thread::spawn(move || {
            if g.try_accept() {
                // Simulate the enqueue failing: hand the slot back.
                g.retract();
            }
        });
        gate.begin_drain();
        client.join().unwrap();
        assert!(
            gate.quiescent(),
            "retracted accept still counted against quiescence"
        );
    });
}

/// Two submitters race one tenant's burst-1 bucket: the token must be
/// spent exactly once. A lost update inside the bucket map (or an
/// admit sneaking down the passthrough fast path despite the finite
/// default) would let both racing requests through.
#[test]
fn admission_burst_token_spent_exactly_once() {
    loom::model(|| {
        let t0 = std::time::Instant::now();
        let adm = Arc::new(Admission::new(
            RatePolicy::per_second(0.0, 1.0),
            RatePolicy::unlimited(),
            RatePolicy::unlimited(),
        ));
        let a2 = Arc::clone(&adm);
        let t = thread::spawn(move || a2.admit(1, AdmissionClass::Exact, t0).is_ok());
        let mine = adm.admit(1, AdmissionClass::Exact, t0).is_ok();
        let theirs = t.join().unwrap();
        assert!(
            mine ^ theirs,
            "burst-1 bucket admitted {} of 2 racing submits",
            usize::from(mine) + usize::from(theirs)
        );
    });
}

/// The passthrough flip: `set_policy` stores the flag with `Release`
/// *while still holding* the bucket lock, so the installer's own next
/// admit — and, after a join, anyone else's — must consult the bucket
/// it just installed. A racing admit may still ride the old fast path,
/// but it can never observe `passthrough == false` without also seeing
/// the bucket.
#[test]
fn admission_policy_install_is_immediately_enforced() {
    loom::model(|| {
        let t0 = std::time::Instant::now();
        let adm = Arc::new(Admission::new(
            RatePolicy::unlimited(),
            RatePolicy::unlimited(),
            RatePolicy::unlimited(),
        ));
        let a2 = Arc::clone(&adm);
        // A concurrent admit may win or lose the race with the install;
        // either way it must not panic or corrupt the map.
        let racer = thread::spawn(move || a2.admit(2, AdmissionClass::Exact, t0).is_ok());
        adm.set_policy(2, RatePolicy::per_second(0.0, 0.0));
        assert!(
            adm.admit(2, AdmissionClass::Exact, t0).is_err(),
            "installer's own admit bypassed the empty bucket it installed"
        );
        racer.join().unwrap();
        assert!(
            adm.admit(2, AdmissionClass::Exact, t0).is_err(),
            "post-join admit bypassed the installed policy"
        );
    });
}

/// The epoch/snapshot handoff behind online writes: a reader's
/// `load()` returns a *pair* — the epoch must name exactly the
/// snapshot it came with, under any interleaving with a publishing
/// writer. Here each update publishes `(v, v)` where `v` equals the
/// number of updates applied, so a consistent load has
/// `snap.0 == snap.1 == epoch`; a torn pair (epoch from one
/// publication, Arc from another) would break the equality.
#[test]
fn epoch_cell_pairs_are_never_torn() {
    loom::model(|| {
        let cell = Arc::new(EpochCell::new((0u64, 0u64)));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || {
            for v in 1..=2u64 {
                c2.update(|_| ((v, v), ()));
            }
        });
        let (snap, epoch) = cell.load();
        assert_eq!(snap.0, snap.1, "reader saw a torn snapshot: {snap:?}");
        assert_eq!(snap.0, epoch, "epoch does not name the loaded snapshot");
        writer.join().unwrap();
        let (fin, e) = cell.load();
        assert_eq!(*fin, (2, 2), "a publication was lost");
        assert_eq!(e, 2);
    });
}

/// Racing updaters serialise: both read-modify-write publications land,
/// none is lost, and the final epoch counts both.
#[test]
fn epoch_cell_racing_updates_both_land() {
    loom::model(|| {
        let cell = Arc::new(EpochCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.update(|v| (v + 1, ())));
        cell.update(|v| (v + 1, ()));
        t.join().unwrap();
        let (snap, epoch) = cell.load();
        assert_eq!(*snap, 2, "an update was lost to the race");
        assert_eq!(epoch, 2);
    });
}

/// The per-shard dispatch topology under drain: one job sits on
/// dispatcher 0's ring while both dispatchers run the real exit
/// protocol (drain own ring, steal from the peer, exit only on
/// `quiescent() && all-empty`). The job must execute exactly once —
/// whether its owner or the stealing peer gets it — and neither
/// dispatcher may exit while it is still queued or in flight.
///
/// The service's idle loop spins (`yield_now` is a free scheduling
/// point), and an unbounded spin under DFS admits infinitely long
/// executions — the scheduler may lawfully starve the peer forever, so
/// the naive model diverges (observed past 30 GiB of schedule state).
/// Each dispatcher therefore gets a *round budget*: enough scan rounds
/// to guarantee the job is popped on every schedule (each dispatcher's
/// first round checks both rings), with the clean-exit safety assert —
/// quiescence implies the job already completed — checked on the exit
/// path itself. Budget exhaustion models scheduler starvation, not a
/// protocol exit, so it carries no assert.
#[test]
fn work_stealing_drain_executes_every_job_exactly_once() {
    loom::model(|| {
        let queues = Arc::new([BoundedQueue::new(2), BoundedQueue::new(2)]);
        let gate = Arc::new(DrainGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        assert!(gate.try_accept(), "gate open before drain");
        queues[0].push(7u32).unwrap();
        gate.begin_drain();
        let dispatchers: Vec<_> = (0..2usize)
            .map(|me| {
                let q = Arc::clone(&queues);
                let g = Arc::clone(&gate);
                let d = Arc::clone(&done);
                thread::spawn(move || {
                    for _ in 0..4 {
                        let job = q[me].pop().or_else(|| q[(me + 1) % 2].pop());
                        if let Some(v) = job {
                            assert_eq!(v, 7, "ring handed back a corrupted job");
                            d.fetch_add(1, Ordering::SeqCst);
                            g.complete();
                        } else if g.quiescent() && q.iter().all(|r| r.is_empty()) {
                            assert_eq!(
                                d.load(Ordering::SeqCst),
                                1,
                                "dispatcher exited with the job still queued or in flight"
                            );
                            return;
                        } else {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in dispatchers {
            h.join().unwrap();
        }
        // Whichever dispatcher won the pop — owner or stealer — the job
        // ran exactly once: both first rounds scan both rings, so it
        // cannot still be queued, and the ring cannot duplicate it.
        assert_eq!(done.load(Ordering::SeqCst), 1, "job executed exactly once");
        assert!(gate.quiescent());
    });
}

/// Two clients race the drain; accepted-but-uncompleted work always
/// blocks quiescence until the matching `complete` lands.
#[test]
fn drain_quiescence_counts_every_accept() {
    loom::model(|| {
        let gate = Arc::new(DrainGate::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let g = Arc::clone(&gate);
                thread::spawn(move || {
                    if g.try_accept() {
                        g.complete();
                        1usize
                    } else {
                        0
                    }
                })
            })
            .collect();
        gate.begin_drain();
        let accepted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(accepted <= 2);
        assert!(gate.quiescent(), "{accepted} accepts, gate not quiescent");
        assert!(!gate.try_accept(), "drained gate accepted new work");
    });
}

/// Re-check rounds a model dispatcher may spend without parking or
/// popping before it gives up. `pop` answers `None` while a push is
/// half done even though the ring already reads non-empty, so the
/// re-check can send the dispatcher round again; in the service the
/// pusher finishes in parallel, but the checker may starve it forever,
/// which would make the executions unbounded (see
/// `work_stealing_drain_executes_every_job_exactly_once`). Giving up
/// models that starvation and carries no assert. A park is not a round:
/// a dispatcher parked with nobody left to wake it is still reported
/// as a deadlock.
const RECHECK_ROUNDS: usize = 3;

/// A push racing the dispatcher's announce / re-check / park: the
/// dispatcher runs the service's idle step (`Sleepers::sleep` with the
/// same "a ring is non-empty or the gate is quiescent" re-check) until
/// it pops the job, while a client accepts, pushes and wakes the owner.
/// Nothing else wakes the dispatcher, so a lost wake-up parks it for
/// good and the checker reports the deadlock.
#[test]
fn push_racing_park_never_strands_the_job() {
    loom::model(|| {
        let ring = Arc::new(BoundedQueue::new(2));
        let gate = Arc::new(DrainGate::new());
        let sleepers = Arc::new(Sleepers::new(1));
        let dispatcher = {
            let (ring, gate, sleepers) =
                (Arc::clone(&ring), Arc::clone(&gate), Arc::clone(&sleepers));
            thread::spawn(move || {
                sleepers.register(0);
                let mut rechecks = 0;
                while rechecks < RECHECK_ROUNDS {
                    if let Some(v) = ring.pop() {
                        gate.complete();
                        return Some(v);
                    }
                    if sleepers
                        .sleep(0, || gate.quiescent() || !ring.is_empty())
                        .is_none()
                    {
                        rechecks += 1;
                    }
                }
                None
            })
        };
        assert!(gate.try_accept(), "gate open");
        ring.push(7u32).unwrap();
        sleepers.wake_for(0);
        let popped = dispatcher.join().unwrap();
        assert!(popped.is_none_or(|v| v == 7), "ring handed back {popped:?}");
    });
}

/// Two model dispatchers sharing two rings, a gate, the sleep bits
/// and a count of jobs run.
type Pool = (
    Arc<[BoundedQueue<u32>; 2]>,
    Arc<DrainGate>,
    Arc<Sleepers>,
    Arc<AtomicUsize>,
);

/// Spawn dispatcher `me` of the pool running the service loop: own
/// ring, steal, exit on quiescence (waking its peers as it leaves),
/// otherwise park. Exiting before every queued job ran fails the
/// model; so does a park nobody ever wakes (a deadlock at the join).
fn spawn_dispatcher(me: usize, (q, g, s, d): Pool, queued: usize) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        s.register(me);
        let mut rechecks = 0;
        while rechecks < RECHECK_ROUNDS {
            if let Some(v) = q[me].pop().or_else(|| q[1 - me].pop()) {
                assert_eq!(v, 7, "ring handed back a corrupted job");
                d.fetch_add(1, Ordering::SeqCst);
                g.complete();
            } else if g.quiescent() && q.iter().all(|r| r.is_empty()) {
                assert_eq!(
                    d.load(Ordering::SeqCst),
                    queued,
                    "dispatcher exited with a job still queued or in flight"
                );
                s.wake_all();
                return;
            } else if s
                .sleep(me, || g.quiescent() || q.iter().any(|r| !r.is_empty()))
                .is_none()
            {
                rechecks += 1;
            }
        }
    })
}

/// A fresh two-dispatcher pool with empty rings, an open gate and
/// nobody asleep.
fn pool() -> Pool {
    (
        Arc::new([BoundedQueue::new(2), BoundedQueue::new(2)]),
        Arc::new(DrainGate::new()),
        Arc::new(Sleepers::new(2)),
        Arc::new(AtomicUsize::new(0)),
    )
}

fn clone_pool((q, g, s, d): &Pool) -> Pool {
    (Arc::clone(q), Arc::clone(g), Arc::clone(s), Arc::clone(d))
}

/// The drain with both dispatchers parked: a job sits on ring 0 with no
/// push wake-up, then the drain begins and wakes everyone. The job must
/// run exactly once and no dispatcher may exit before it ran; a
/// dispatcher left parked is reported as a deadlock at the join.
#[test]
fn drain_wakes_parked_dispatchers_and_both_exit() {
    loom::model(|| {
        let pool = pool();
        let dispatchers: Vec<_> = (0..2)
            .map(|me| spawn_dispatcher(me, clone_pool(&pool), 1))
            .collect();
        let (rings, gate, sleepers, done) = pool;
        assert!(gate.try_accept(), "gate open before drain");
        rings[0].push(7u32).unwrap();
        gate.begin_drain();
        sleepers.wake_all();
        for h in dispatchers {
            h.join().unwrap();
        }
        assert!(done.load(Ordering::SeqCst) <= 1, "job executed twice");
    });
}

/// A shed submit during a drain: the client was accepted before the
/// drain began, its push then found the ring full, and it hands the
/// acceptance back. Until the retraction the gate is not quiescent, so
/// both dispatchers may already have re-checked and parked; the
/// retraction is what makes the gate quiescent, and it must wake them
/// (the service's `enqueue` shed path), or they stay parked for good.
#[test]
fn retract_during_drain_wakes_parked_dispatchers() {
    loom::model(|| {
        let pool = pool();
        let (_, gate, sleepers, _) = &pool;
        assert!(gate.try_accept(), "gate open before drain");
        gate.begin_drain();
        let dispatchers: Vec<_> = (0..2)
            .map(|me| spawn_dispatcher(me, clone_pool(&pool), 0))
            .collect();
        gate.retract();
        if gate.is_draining() {
            sleepers.wake_all();
        }
        for h in dispatchers {
            h.join().unwrap();
        }
        assert!(gate.quiescent());
    });
}
