//! The executor's pending-timer store: a binary min-heap keyed by
//! `(deadline, registration seq)`.
//!
//! Invariants (each exercised by the property test below against a
//! sorted-`Vec` oracle):
//!
//! - all entries for one absolute instant pop in registration (`seq`)
//!   order, so a due batch fires same-deadline timers FIFO;
//! - cancellation is lazy: cancelled entries are dropped when they reach
//!   the top of the heap, and a batch that turns out all-cancelled
//!   reports nothing, so the caller's clock never advances to a
//!   cancelled-only deadline.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::executor::TimerState;

/// One pending timer: absolute deadline, registration order, shared flags.
pub(crate) struct TimerEntry {
    /// Absolute deadline in nanoseconds of virtual time.
    pub(crate) at: u64,
    /// Registration sequence number; ties on `at` fire in `seq` order.
    pub(crate) seq: u64,
    /// Flags shared with the owning `Sleep`/`TimerHandle`.
    pub(crate) state: Rc<TimerState>,
}

impl TimerEntry {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Pending timers, earliest `(at, seq)` on top.
#[derive(Default)]
pub(crate) struct TimerQueue {
    heap: BinaryHeap<Reverse<TimerEntry>>,
}

impl TimerQueue {
    /// True when no entries (live or cancelled) remain.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert a timer with absolute deadline `at`.
    pub(crate) fn insert(&mut self, at: u64, seq: u64, state: Rc<TimerState>) {
        self.heap.push(Reverse(TimerEntry { at, seq, state }));
    }

    /// Pop the batch of live entries due at the earliest live deadline,
    /// in registration order, dropping cancelled entries on the way.
    /// Returns `None` — leaving the queue empty — when no live timers
    /// remain.
    pub(crate) fn pop_next_due(&mut self) -> Option<(u64, Vec<TimerEntry>)> {
        let mut due: Vec<TimerEntry> = Vec::new();
        while let Some(Reverse(top)) = self.heap.peek() {
            if due.first().is_some_and(|first| top.at != first.at) {
                break;
            }
            let Reverse(entry) = self.heap.pop()?;
            if !entry.state.cancelled.get() {
                due.push(entry);
            }
        }
        let at = due.first()?.at;
        Some((at, due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use std::cell::{Cell, RefCell};

    fn state() -> Rc<TimerState> {
        Rc::new(TimerState {
            waker: RefCell::new(None),
            fired: Cell::new(false),
            cancelled: Cell::new(false),
        })
    }

    /// The oracle: a flat vector popped by scanning for the minimum
    /// `(at, seq)`. Obviously correct, O(n) per pop.
    #[derive(Default)]
    struct OracleQueue {
        entries: Vec<(u64, u64, Rc<TimerState>)>,
    }

    impl OracleQueue {
        fn insert(&mut self, at: u64, seq: u64, state: Rc<TimerState>) {
            self.entries.push((at, seq, state));
        }

        fn pop_next_due(&mut self) -> Option<(u64, Vec<u64>)> {
            self.entries.retain(|(_, _, s)| !s.cancelled.get());
            let min_at = self.entries.iter().map(|&(at, _, _)| at).min()?;
            let mut seqs: Vec<u64> = self
                .entries
                .iter()
                .filter(|&&(at, _, _)| at == min_at)
                .map(|&(_, seq, _)| seq)
                .collect();
            seqs.sort_unstable();
            self.entries.retain(|&(at, _, _)| at != min_at);
            Some((min_at, seqs))
        }
    }

    /// Drive queue and oracle in lockstep over one advance and compare
    /// the full batch: instant and seq order.
    fn advance_both(queue: &mut TimerQueue, oracle: &mut OracleQueue) -> Option<u64> {
        let got = queue.pop_next_due();
        let want = oracle.pop_next_due();
        match (got, want) {
            (None, None) => None,
            (Some((at, batch)), Some((want_at, want_seqs))) => {
                assert_eq!(at, want_at, "queue advanced to the wrong instant");
                let seqs: Vec<u64> = batch.iter().map(|e| e.seq).collect();
                assert_eq!(seqs, want_seqs, "batch order diverged at t={at}");
                Some(at)
            }
            (got, want) => {
                let got = got.map(|(at, _)| at);
                let want = want.map(|(at, _)| at);
                assert_eq!(got, want, "queue and oracle disagree on emptiness");
                None
            }
        }
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let mut queue = TimerQueue::default();
        // Interleave a later deadline so the shared one is not simply
        // inserted in heap order.
        let at = 3_000_000_007;
        for seq in 0..10u64 {
            queue.insert(at, seq, state());
            queue.insert(at + 1, 100 + seq, state());
        }
        let (fired_at, batch) = queue.pop_next_due().unwrap();
        assert_eq!(fired_at, at);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        let (fired_at, batch) = queue.pop_next_due().unwrap();
        assert_eq!(fired_at, at + 1);
        assert_eq!(batch.len(), 10);
        assert!(queue.is_empty());
    }

    #[test]
    fn far_future_deadlines_fire_in_order() {
        let mut queue = TimerQueue::default();
        queue.insert(u64::MAX, 0, state());
        queue.insert(u64::MAX - 1, 1, state());
        queue.insert(1u64 << 63, 2, state());
        let instants: Vec<u64> =
            std::iter::from_fn(|| queue.pop_next_due().map(|(at, _)| at)).collect();
        assert_eq!(instants, vec![1u64 << 63, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn cancelled_only_deadlines_never_surface() {
        let mut queue = TimerQueue::default();
        let doomed = state();
        queue.insert(500, 0, Rc::clone(&doomed));
        queue.insert(900, 1, state());
        doomed.cancelled.set(true);
        // The cancelled 500ns deadline is skipped without being reported.
        let (at, batch) = queue.pop_next_due().unwrap();
        assert_eq!(at, 900);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].seq, 1);
        assert!(queue.pop_next_due().is_none());
    }

    #[test]
    fn cancel_then_reinsert_at_same_deadline() {
        let mut queue = TimerQueue::default();
        let doomed = state();
        queue.insert(1_000_000, 0, Rc::clone(&doomed));
        doomed.cancelled.set(true);
        queue.insert(1_000_000, 1, state());
        let (at, batch) = queue.pop_next_due().unwrap();
        assert_eq!(at, 1_000_000);
        assert_eq!(batch.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1]);
        assert!(queue.is_empty());
    }

    #[test]
    fn insert_after_cancelled_drain_still_fires() {
        // Draining a cancelled far-future timer leaves the queue empty; an
        // earlier timer inserted afterwards must still fire.
        let mut queue = TimerQueue::default();
        let doomed = state();
        queue.insert(1_000_000_000_000, 0, Rc::clone(&doomed));
        doomed.cancelled.set(true);
        assert!(queue.pop_next_due().is_none());
        assert!(queue.is_empty());
        queue.insert(1_000, 1, state());
        let (at, batch) = queue.pop_next_due().unwrap();
        assert_eq!(at, 1_000);
        assert_eq!(batch[0].seq, 1);
    }

    #[test]
    fn randomized_programs_match_sorted_vec_oracle() {
        // Seeded insert/cancel/advance programs, queue vs oracle in
        // lockstep. Durations mix a coarse grid (forcing same-deadline
        // ties), fine offsets, and far-future outliers.
        for seed in 0..64u64 {
            let mut rng = DetRng::new(seed, "timer-queue-property");
            let mut queue = TimerQueue::default();
            let mut oracle = OracleQueue::default();
            let mut live: Vec<Rc<TimerState>> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..400 {
                match rng.uniform_u64(0, 10) {
                    // insert (weighted heaviest)
                    0..=5 => {
                        let d = match rng.uniform_u64(0, 4) {
                            0 => 250_000_000 * rng.uniform_u64(1, 16), // coarse grid: ties
                            1 => rng.uniform_u64(1, 5_000_000_000),    // fine
                            2 => 1_000_000_000 * rng.uniform_u64(1, 300),
                            _ => 1_000_000_000 * rng.uniform_u64(1, 20_000), // far future
                        };
                        let at = now.saturating_add(d.max(1));
                        let s = state();
                        queue.insert(at, seq, Rc::clone(&s));
                        oracle.insert(at, seq, Rc::clone(&s));
                        live.push(s);
                        seq += 1;
                    }
                    // cancel a random live timer
                    6..=7 => {
                        if !live.is_empty() {
                            let idx = rng.index(live.len());
                            live.swap_remove(idx).cancelled.set(true);
                        }
                    }
                    // advance one batch
                    _ => {
                        if let Some(at) = advance_both(&mut queue, &mut oracle) {
                            now = at;
                        }
                        live.retain(|s| !s.cancelled.get());
                    }
                }
            }
            // Drain to empty: both sides must agree on every remaining batch.
            while advance_both(&mut queue, &mut oracle).is_some() {}
            assert!(queue.is_empty(), "seed {seed}: queue not drained");
        }
    }
}
