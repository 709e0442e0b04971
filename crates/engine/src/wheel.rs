//! Hierarchical timing wheel: an O(1)-amortized replacement for the
//! comparison-heap event queue.
//!
//! A discrete-event simulator spends a large share of its time pushing and
//! popping scheduler events; a binary heap pays `O(log n)` sift work per
//! operation against the whole pending set. The classic alternative
//! (Varghese & Lauck's hashed/hierarchical wheels, the calendar queues of
//! gem5-style simulators) indexes events *by time* instead of comparing
//! them: an event scheduled `d` cycles ahead lands in a bucket addressed by
//! its timestamp bits, and popping the minimum is a bitmask scan.
//!
//! [`TimingWheel`] keeps the exact ordering contract of
//! [`EventQueue`](crate::EventQueue): pops are non-decreasing in time, and
//! events scheduled for the same cycle pop in push order (FIFO). That
//! stability is part of the simulator's correctness contract — see the
//! `EventQueue` docs and DESIGN.md — so the two backends are differentially
//! tested to produce identical `(cycle, seq)` pop streams.
//!
//! # Shape
//!
//! Eight levels of 64 slots (6 bits per level) cover a 2^48-cycle horizon
//! relative to the current frontier; events beyond that land in a spillover
//! list and are folded back in when the frontier reaches them. Each level
//! keeps a 64-bit occupancy mask, so finding the next bucket is a
//! `trailing_zeros` instruction rather than a scan.

use std::collections::VecDeque;

use crate::Cycle;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; the wheel spans `2^(SLOT_BITS * LEVELS)` cycles.
const LEVELS: usize = 8;
/// Mask extracting a slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// A scheduled event and its absolute firing time. No sequence number is
/// needed for FIFO stability: same-cycle entries always share a bucket
/// (pushes append, cascades drain front-to-back), so push order is
/// preserved structurally.
#[derive(Debug)]
struct Entry<E> {
    at: u64,
    event: E,
}

/// A deterministic hierarchical timing wheel with the same stability
/// contract as [`EventQueue`](crate::EventQueue).
///
/// Differences from `EventQueue`:
///
/// * `push` must not schedule before the current frontier (the time of the
///   most recent pop). The simulator never does — every event is scheduled
///   at or after the cycle being processed — and the wheel's time-indexed
///   buckets rely on it, so violating the contract panics.
/// * Push and pop are O(1) amortized instead of `O(log n)`: level-0
///   operations are a bitmask update, and the occasional redistribution of
///   a higher-level bucket is paid once per entry per level crossed.
///
/// # Examples
///
/// ```
/// use dynapar_engine::{Cycle, TimingWheel};
///
/// let mut w = TimingWheel::new();
/// w.push(Cycle(5), 'b');
/// w.push(Cycle(1), 'a');
/// w.push(Cycle(5), 'c');
/// assert_eq!(w.pop(), Some((Cycle(1), 'a')));
/// assert_eq!(w.pop(), Some((Cycle(5), 'b'))); // FIFO among same-cycle events
/// assert_eq!(w.pop(), Some((Cycle(5), 'c')));
/// assert_eq!(w.pop(), None);
/// ```
pub struct TimingWheel<E> {
    /// `LEVELS * SLOTS` buckets, flattened; level `l` slot `s` lives at
    /// `l * SLOTS + s`. Within a bucket, entries with equal `at` are in
    /// push order (pushes append, redistribution preserves relative order).
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Per-level occupancy bitmask (bit `s` set ⇔ bucket `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon, in push order.
    overflow: Vec<Entry<E>>,
    /// The pop frontier: time of the most recent pop (0 initially). All
    /// pending entries are at `now` or later.
    now: u64,
    len: usize,
    pushed: u64,
    /// Memoized earliest pending time; `None` means "unknown, recompute".
    /// Kept in a `Cell` so [`peek_time`](Self::peek_time) can lazily
    /// refresh it through `&self`. Pop's fast path maintains it in O(1),
    /// which makes the peek-then-pop loops the simulator runs per wakeup
    /// batch constant-time instead of bucket scans.
    peek_cache: std::cell::Cell<Option<u64>>,
    /// Recycled buffer for [`advance`](Self::advance): the drained
    /// bucket's allocation parks here between cascades instead of being
    /// dropped (and the emptied slot re-allocating on its next use).
    /// Cascades happen every few dozen pops in steady state, so without
    /// this the wheel churns the allocator for the whole run.
    cascade_buf: VecDeque<Entry<E>>,
    /// Same recycling for the overflow fold-in.
    spill_buf: Vec<Entry<E>>,
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel with the frontier at cycle 0.
    pub fn new() -> Self {
        TimingWheel {
            buckets: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            now: 0,
            len: 0,
            pushed: 0,
            peek_cache: std::cell::Cell::new(None),
            cascade_buf: VecDeque::new(),
            spill_buf: Vec::new(),
        }
    }

    /// The level whose window (relative to `now`) contains `at`, or
    /// `LEVELS` when `at` is beyond the horizon. Level 0 holds times whose
    /// bits above `SLOT_BITS` equal `now`'s; level `l` holds times first
    /// differing from `now` within bit range `[l*SLOT_BITS, (l+1)*SLOT_BITS)`.
    #[inline]
    fn level_of(now: u64, at: u64) -> usize {
        let diff = at ^ now;
        if diff == 0 {
            return 0;
        }
        let high = 63 - diff.leading_zeros();
        (high / SLOT_BITS) as usize
    }

    /// Files an entry into its bucket (or the overflow list) relative to
    /// the current frontier. Callers guarantee `entry.at >= self.now`.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        let level = Self::level_of(self.now, entry.at);
        if level >= LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((entry.at >> (level as u32 * SLOT_BITS)) & SLOT_MASK) as usize;
        self.occupied[level] |= 1 << slot;
        self.buckets[level * SLOTS + slot].push_back(entry);
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the most recently popped time: the
    /// wheel's buckets are indexed relative to that frontier, so the
    /// simulator contract "never schedule into the past" is enforced here.
    pub fn push(&mut self, at: Cycle, event: E) {
        let at = at.as_u64();
        assert!(
            at >= self.now,
            "TimingWheel: push at {at} before frontier {}",
            self.now
        );
        self.pushed += 1;
        self.len += 1;
        if self.len == 1 {
            // The wheel was empty, so this event is the minimum.
            self.peek_cache.set(Some(at));
        } else if let Some(min) = self.peek_cache.get() {
            if at < min {
                self.peek_cache.set(Some(at));
            }
        }
        self.place(Entry { at, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    /// Same-cycle events return in push order.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: every entry in a slot shares one exact timestamp,
            // so the lowest occupied slot's front is the global minimum.
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let bucket = &mut self.buckets[slot];
                let entry = bucket.pop_front().expect("occupancy bit implies entries");
                if bucket.is_empty() {
                    self.occupied[0] &= !(1 << slot);
                }
                debug_assert!(entry.at >= self.now);
                self.now = entry.at;
                self.len -= 1;
                // Refresh the peek memo: a non-empty slot means more
                // same-cycle entries; another occupied level-0 slot holds
                // exactly the time its index spells out (level-0 windows
                // share `now`'s upper bits); otherwise leave it unknown.
                let next = if !bucket.is_empty() {
                    Some(entry.at)
                } else if self.occupied[0] != 0 {
                    let s = self.occupied[0].trailing_zeros() as u64;
                    Some((entry.at & !SLOT_MASK) | s)
                } else {
                    None
                };
                self.peek_cache.set(next);
                return Some((Cycle(entry.at), entry.event));
            }
            self.advance();
        }
    }

    /// No level-0 entry exists: advance the frontier to the earliest
    /// pending time and redistribute the bucket (or overflow list) that
    /// contains it into lower levels. Relative order of same-cycle entries
    /// is preserved because buckets are drained front-to-back.
    fn advance(&mut self) {
        for level in 1..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            let idx = level * SLOTS + slot;
            // Swap the full bucket out against the recycled cascade
            // buffer (empty), so neither side's allocation is dropped.
            let mut bucket =
                std::mem::replace(&mut self.buckets[idx], std::mem::take(&mut self.cascade_buf));
            self.occupied[level] &= !(1 << slot);
            // The lowest occupied slot of the lowest occupied level holds
            // the earliest pending entries; jump the frontier to their
            // minimum so every entry re-files strictly below this level.
            self.now = bucket.iter().map(|e| e.at).min().expect("non-empty bucket");
            for entry in bucket.drain(..) {
                debug_assert!(Self::level_of(self.now, entry.at) < level);
                self.place(entry);
            }
            self.cascade_buf = bucket;
            return;
        }
        // Wheel empty: fold the overflow back in around the new frontier.
        debug_assert!(!self.overflow.is_empty(), "len > 0 with empty wheel");
        let mut spill = std::mem::replace(&mut self.overflow, std::mem::take(&mut self.spill_buf));
        self.now = spill.iter().map(|e| e.at).min().expect("non-empty overflow");
        for entry in spill.drain(..) {
            self.place(entry);
        }
        self.spill_buf = spill;
    }

    /// Returns the firing time of the earliest event without removing it.
    /// O(1) when the memoized minimum is fresh (the common case); falls
    /// back to a bucket scan and re-memoizes otherwise.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if let Some(min) = self.peek_cache.get() {
            debug_assert_eq!(Some(Cycle(min)), self.peek_time_scan());
            return Some(Cycle(min));
        }
        let t = self.peek_time_scan();
        self.peek_cache.set(t.map(|c| c.as_u64()));
        t
    }

    /// The uncached scan behind [`peek_time`](Self::peek_time).
    fn peek_time_scan(&self) -> Option<Cycle> {
        if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as usize;
            // Level-0 slots hold exactly one timestamp each.
            return self.buckets[slot].front().map(|e| Cycle(e.at));
        }
        for level in 1..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            let min = self.buckets[level * SLOTS + slot]
                .iter()
                .map(|e| e.at)
                .min()
                .expect("occupancy bit implies entries");
            return Some(Cycle(min));
        }
        self.overflow.iter().map(|e| Cycle(e.at)).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever pushed (diagnostic counter).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// The pop frontier (time of the most recent pop; 0 initially).
    /// Serialized into snapshots so [`restore_entries`](Self::restore_entries)
    /// can rebuild the wheel around the same origin.
    pub fn frontier(&self) -> u64 {
        self.now
    }

    /// Returns every pending entry in pop order, without observably
    /// mutating the wheel: the frontier, the `total_pushed` counter, the
    /// length, and the future pop stream are all preserved. (Internally
    /// the entries are drained and re-filed relative to the current
    /// frontier; bucket residency is not observable through the API.)
    pub fn snapshot_entries(&mut self) -> Vec<(u64, E)>
    where
        E: Clone,
    {
        let saved_now = self.now;
        let mut out = Vec::with_capacity(self.len);
        while let Some((t, e)) = self.pop() {
            out.push((t.as_u64(), e));
        }
        self.now = saved_now;
        for &(at, ref event) in &out {
            self.place(Entry {
                at,
                event: event.clone(),
            });
        }
        self.len = out.len();
        // Pop order is time-sorted, so the first entry is the minimum.
        self.peek_cache.set(out.first().map(|&(t, _)| t));
        out
    }

    /// Rebuilds a wheel from a snapshot: `entries` in pop order (as
    /// returned by [`snapshot_entries`](Self::snapshot_entries)), the
    /// original `frontier`, and the original `total_pushed` counter.
    ///
    /// # Panics
    ///
    /// Panics if any entry is scheduled before `frontier`.
    pub fn restore_entries(frontier: u64, pushed: u64, entries: Vec<(u64, E)>) -> Self {
        let mut w = TimingWheel::new();
        w.now = frontier;
        w.peek_cache.set(entries.first().map(|&(t, _)| t));
        for (at, event) in entries {
            assert!(
                at >= frontier,
                "TimingWheel: snapshot entry at {at} before frontier {frontier}"
            );
            w.len += 1;
            w.place(Entry { at, event });
        }
        w.pushed = pushed;
        w
    }
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for TimingWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("pending", &self.len)
            .field("frontier", &self.now)
            .field("overflow", &self.overflow.len())
            .field("total_pushed", &self.pushed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        w.push(Cycle(30), 3);
        w.push(Cycle(10), 1);
        w.push(Cycle(20), 2);
        assert_eq!(w.pop(), Some((Cycle(10), 1)));
        assert_eq!(w.pop(), Some((Cycle(20), 2)));
        assert_eq!(w.pop(), Some((Cycle(30), 3)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..100 {
            w.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(w.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn fifo_survives_redistribution() {
        // Same-cycle entries placed at a high level must keep their push
        // order through the cascade into level 0.
        let mut w = TimingWheel::new();
        let far = 1 << 20; // level 3 relative to frontier 0
        for i in 0..10 {
            w.push(Cycle(far), i);
        }
        w.push(Cycle(far - 1), 100);
        assert_eq!(w.pop(), Some((Cycle(far - 1), 100)));
        for i in 0..10 {
            assert_eq!(w.pop(), Some((Cycle(far), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut w = TimingWheel::new();
        w.push(Cycle(10), "a");
        w.push(Cycle(5), "b");
        assert_eq!(w.pop(), Some((Cycle(5), "b")));
        w.push(Cycle(7), "c");
        w.push(Cycle(10), "d");
        assert_eq!(w.pop(), Some((Cycle(7), "c")));
        assert_eq!(w.pop(), Some((Cycle(10), "a")));
        assert_eq!(w.pop(), Some((Cycle(10), "d")));
    }

    #[test]
    fn far_future_lands_in_overflow_and_returns() {
        let mut w = TimingWheel::new();
        let beyond = 1u64 << 52; // past the 2^48 horizon
        w.push(Cycle(beyond), "far");
        w.push(Cycle(beyond + 1), "farther");
        w.push(Cycle(3), "near");
        assert_eq!(w.pop(), Some((Cycle(3), "near")));
        assert_eq!(w.pop(), Some((Cycle(beyond), "far")));
        assert_eq!(w.pop(), Some((Cycle(beyond + 1), "farther")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_matches_pop_at_every_level() {
        let times = [0u64, 1, 63, 64, 65, 4095, 4096, 1 << 17, (1 << 48) + 7];
        let mut w = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            w.push(Cycle(t), i);
        }
        let mut last = None;
        while let Some(t) = w.peek_time() {
            let (pt, _) = w.pop().expect("peeked");
            assert_eq!(pt, t);
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn counters_and_emptiness() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        w.push(Cycle(1), ());
        assert_eq!(w.len(), 1);
        assert_eq!(w.total_pushed(), 1);
        assert_eq!(w.peek_time(), Some(Cycle(1)));
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.total_pushed(), 1);
    }

    #[test]
    #[should_panic(expected = "before frontier")]
    fn pushing_into_the_past_panics() {
        let mut w = TimingWheel::new();
        w.push(Cycle(10), 0);
        w.pop();
        w.push(Cycle(9), 1);
    }

    #[test]
    fn push_at_frontier_is_allowed() {
        let mut w = TimingWheel::new();
        w.push(Cycle(10), 0);
        assert_eq!(w.pop(), Some((Cycle(10), 0)));
        w.push(Cycle(10), 1); // same cycle as the frontier: legal
        assert_eq!(w.pop(), Some((Cycle(10), 1)));
    }

    #[test]
    fn debug_is_nonempty() {
        let w: TimingWheel<u8> = TimingWheel::new();
        assert!(!format!("{w:?}").is_empty());
    }

    #[test]
    fn drain_and_refill_reuses_cleanly() {
        let mut w = TimingWheel::new();
        for round in 0..5u64 {
            for i in 0..100 {
                w.push(Cycle(round * 1000 + i), i);
            }
            let mut count = 0;
            while w.pop().is_some() {
                count += 1;
            }
            assert_eq!(count, 100);
            assert!(w.is_empty());
        }
    }

    #[test]
    fn snapshot_preserves_pop_stream_and_counters() {
        // Build a wheel with entries at several levels (and overflow),
        // advance the frontier a bit, snapshot, and check that (a) the
        // snapshot lists the remaining entries in pop order, (b) the
        // original wheel pops identically afterwards, and (c) a restored
        // wheel pops the same stream with the same counters.
        let times = [5u64, 5, 6, 70, 4096, 1 << 20, (1 << 50) + 3];
        let mut w = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            w.push(Cycle(t), i);
        }
        assert_eq!(w.pop(), Some((Cycle(5), 0)));
        let snap = w.snapshot_entries();
        assert_eq!(w.frontier(), 5);
        assert_eq!(w.len(), times.len() - 1);
        assert_eq!(w.total_pushed(), times.len() as u64);
        assert_eq!(
            snap.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![5, 6, 70, 4096, 1 << 20, (1 << 50) + 3]
        );

        let mut restored =
            TimingWheel::restore_entries(w.frontier(), w.total_pushed(), snap.clone());
        assert_eq!(restored.len(), w.len());
        assert_eq!(restored.total_pushed(), w.total_pushed());
        loop {
            assert_eq!(restored.peek_time(), w.peek_time());
            let (a, b) = (w.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_of_empty_wheel_is_empty() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.snapshot_entries().is_empty());
        let restored: TimingWheel<u8> = TimingWheel::restore_entries(0, 0, Vec::new());
        assert!(restored.is_empty());
    }

    #[test]
    #[should_panic(expected = "before frontier")]
    fn restore_rejects_entries_before_frontier() {
        TimingWheel::restore_entries(10, 1, vec![(9, ())]);
    }
}
