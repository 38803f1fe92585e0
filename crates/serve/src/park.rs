//! Parking idle dispatchers and waking them on push.
//!
//! A dispatcher that has found every ring empty for a short snooze
//! parks its thread instead of polling. The handshake with submitters
//! is the classic Dekker pattern, on one bit per dispatcher:
//!
//! ```text
//!  dispatcher (Sleepers::sleep)         submitter (enqueue)
//!  set my bit                           push the job
//!  SC fence                             SC fence
//!  re-check rings and drain gate        read the owner's bit
//!  park unless work was found           bit set: claim it, unpark
//! ```
//!
//! With both fences in the single total order of `SeqCst` fences,
//! either the submitter's read sees the bit (and unparks the sleeper)
//! or the sleeper's re-check sees the pushed job (and does not park).
//! `std::thread::park`'s token semantics make the remaining race, an
//! unpark landing between the re-check and the park, harmless: the
//! park consumes the token and returns at once.
//!
//! A waker *claims* a bit by clearing it before it unparks, so two
//! submitters never both spend a syscall on one sleeper, and a
//! submitter whose owner is awake can hand its wake-up to a parked
//! peer instead, which keeps work stealing alive while dispatchers
//! sleep. When nobody is asleep, [`Sleepers::wake_for`] costs one fence
//! and one load and makes no syscall: every dispatcher's bit lives in
//! one word, so a service runs at most [`MAX_SLEEPERS`] dispatchers.
//!
//! `tests/loom.rs` model-checks the handshake against a racing push,
//! against a drain that must wake every parked dispatcher, and against
//! a shed submit whose retraction makes the drained gate quiescent.

use crate::sync::{current, fence, park, AtomicU64, Mutex, Ordering, Thread};

/// Most dispatchers one [`Sleepers`] tracks: one bit each in one word.
pub const MAX_SLEEPERS: usize = 64;

/// Which dispatchers are parked (or about to park), and their threads.
#[derive(Debug)]
pub struct Sleepers {
    /// Bit `i`: dispatcher `i` announced that it is going to park and
    /// nobody has claimed its wake-up yet.
    asleep: AtomicU64,
    /// Each dispatcher's thread, registered by the dispatcher itself
    /// before its first announcement. Locked only to unpark.
    threads: Vec<Mutex<Option<Thread>>>,
}

impl Sleepers {
    /// Bookkeeping for `n` dispatchers, none of them asleep.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`MAX_SLEEPERS`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_SLEEPERS,
            "{n} dispatchers; at most {MAX_SLEEPERS} can park"
        );
        Self {
            asleep: AtomicU64::new(0),
            threads: (0..n)
                .map(|_| Mutex::new("serve.park.thread", None))
                .collect(),
        }
    }

    /// Record the calling thread as dispatcher `me`. Must run on that
    /// thread before its first [`Self::sleep`].
    pub fn register(&self, me: usize) {
        *self.threads[me].lock() = Some(current());
    }

    /// Park dispatcher `me` unless `has_work` finds something to do
    /// after the announcement. Returns `None` when `has_work` was true
    /// (no park), else `Some(woken)`: whether a waker claimed the
    /// announcement, as opposed to a spurious return or a token left
    /// over from an earlier wake-up.
    pub fn sleep(&self, me: usize, has_work: impl FnOnce() -> bool) -> Option<bool> {
        self.asleep.fetch_or(1 << me, Ordering::AcqRel); // ordering: park-flag-acqrel
        fence(Ordering::SeqCst); // ordering: park-sc-fence
        if has_work() {
            self.claim(me);
            return None;
        }
        park();
        Some(!self.claim(me))
    }

    /// A job was pushed onto dispatcher `owner`'s ring: unpark the
    /// owner if it is asleep, else one parked peer, which will steal.
    pub fn wake_for(&self, owner: usize) {
        fence(Ordering::SeqCst); // ordering: park-sc-fence
        let bits = self.asleep.load(Ordering::Relaxed); // ordering: park-peek-relaxed
        if bits & 1 << owner != 0 && self.claim(owner) {
            self.unpark(owner);
            return;
        }
        let mut peers = bits & !(1 << owner);
        while peers != 0 {
            let peer = peers.trailing_zeros() as usize;
            if self.claim(peer) {
                self.unpark(peer);
                return;
            }
            peers &= peers - 1;
        }
    }

    /// Unpark every dispatcher that is asleep: the drain began, or the
    /// gate may have gone quiescent and the sleepers must see it to exit.
    pub fn wake_all(&self) {
        fence(Ordering::SeqCst); // ordering: park-sc-fence
        let mut bits = self.asleep.swap(0, Ordering::AcqRel); // ordering: park-flag-acqrel
        while bits != 0 {
            self.unpark(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }

    /// Whether every dispatcher has announced that it is parking.
    #[cfg(all(test, not(loom)))]
    pub(crate) fn all_asleep(&self) -> bool {
        let all = u64::MAX >> (64 - self.threads.len());
        self.asleep.load(Ordering::Relaxed) & all == all // ordering: park-peek-relaxed
    }

    /// Clear dispatcher `i`'s bit; true if this call cleared it. A
    /// waker must win this before it unparks `i`; the sleeper uses it
    /// to withdraw its announcement.
    fn claim(&self, i: usize) -> bool {
        // ordering: park-flag-acqrel
        self.asleep.fetch_and(!(1 << i), Ordering::AcqRel) & 1 << i != 0
    }

    fn unpark(&self, i: usize) {
        if let Some(thread) = &*self.threads[i].lock() {
            thread.unpark();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The sleep bits (tests only look, on one thread).
    fn bits(s: &Sleepers) -> u64 {
        s.asleep.load(Ordering::Relaxed) // ordering: park-peek-relaxed
    }

    #[test]
    fn wake_for_prefers_the_owner_then_one_peer() {
        let s = Sleepers::new(3);
        for i in 0..3 {
            s.register(i);
        }
        s.asleep.fetch_or(0b111, Ordering::AcqRel); // ordering: park-flag-acqrel
        s.wake_for(1);
        assert_eq!(bits(&s), 0b101, "owner claimed");
        s.wake_for(1);
        assert_eq!(bits(&s), 0b100, "one peer claimed");
        s.wake_all();
        assert_eq!(bits(&s), 0, "all claimed");
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn more_dispatchers_than_bits_is_refused() {
        let _ = Sleepers::new(MAX_SLEEPERS + 1);
    }

    #[test]
    fn sleep_returns_woken_after_wake_for() {
        let s = Arc::new(Sleepers::new(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let sleeper = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                s.register(0);
                tx.send(()).expect("test alive");
                loop {
                    if let Some(woken) = s.sleep(0, || false) {
                        if woken {
                            return;
                        }
                    }
                }
            })
        };
        rx.recv().expect("sleeper registered");
        // Wake until the sleeper reports a claimed wake-up; a wake-up
        // sent before it announced finds no bit and is a no-op.
        while !sleeper.is_finished() {
            s.wake_for(0);
            std::thread::yield_now();
        }
        sleeper.join().expect("sleeper");
    }

    #[test]
    fn sleep_skips_the_park_when_work_appears() {
        let s = Sleepers::new(2);
        s.register(0);
        assert_eq!(s.sleep(0, || true), None);
        assert_eq!(bits(&s), 0, "announcement withdrawn");
    }
}
