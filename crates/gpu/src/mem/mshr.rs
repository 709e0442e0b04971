//! Per-SMX miss-status holding registers (Table II's L1 MSHRs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::Cycle;

/// Ring slots: cycles past the cursor the ring reaches (18 KiB with its
/// bitmap). Paper-scale DRAM backlogs need 16 Ki; completions further out
/// wait in the `far` heap.
const WINDOW: usize = 1 << 14;
/// `cycle & MASK` is a cycle's ring slot.
const MASK: u64 = WINDOW as u64 - 1;

/// The completion cycles of one SMX's in-flight L1 misses. A new miss
/// entering a full set stalls until the earliest outstanding one
/// returns.
///
/// Returned completions are reclaimed lazily: expired entries are only
/// dropped once the set apparently reaches capacity. They inflate the
/// occupancy in between, and a snapshot writes them, but every decision
/// that depends on occupancy drops them first, so admission times and
/// stall counts equal eager reclamation's — while a set that never fills
/// never pays a reclaim.
///
/// Completion cycles are integers just ahead of a cursor that only moves
/// forward in a run, so the set is a bucket ring rather than a heap:
/// per-cycle counts plus an occupancy bitmap over `[base, base +
/// WINDOW)`, indexed by `cycle & MASK`. Pop-min is the first set
/// bit at or after the cursor, and moves the cursor there; insertion and
/// reclamation are O(1) amortised. Entries the cursor passed before a
/// reclaim wait in `returned`; entries past the window (a deep DRAM
/// backlog) wait in `far`. The multiset of times is exactly the one the
/// lazy heap it replaced keeps (`tests::HeapMshrSet`), whatever order
/// operations arrive in.
#[derive(Debug)]
pub(super) struct MshrSet {
    /// First cycle the ring covers; no ring entry is earlier.
    base: u64,
    /// Entries per cycle, indexed by `cycle & MASK`.
    counts: Box<[u8; WINDOW]>,
    /// Bit `s` is set iff `counts[s] > 0`.
    occupied: Box<[u64; WINDOW / 64]>,
    /// Entries in the ring.
    ring_len: usize,
    /// Entries the cursor swept past that no reclaim has dropped yet
    /// (unsorted).
    returned: Vec<u64>,
    /// Entries the ring cannot hold: past its window, before it (only in
    /// a sequence whose cursor moves backwards), or beyond a full slot
    /// count.
    far: BinaryHeap<Reverse<u64>>,
}

impl Default for MshrSet {
    fn default() -> Self {
        MshrSet {
            base: 0,
            counts: Box::new([0; WINDOW]),
            occupied: Box::new([0; WINDOW / 64]),
            ring_len: 0,
            returned: Vec::new(),
            far: BinaryHeap::new(),
        }
    }
}

impl MshrSet {
    /// Admits a miss issued at `now`; returns the cycle it may actually
    /// enter the memory system.
    pub(super) fn admit(&mut self, now: Cycle, capacity: usize) -> Cycle {
        let now = now.as_u64();
        if self.len() < capacity {
            // Keep the cursor at `now`, so the window covers the
            // completions this miss and its followers will add.
            self.sweep(now, true);
            return Cycle(now);
        }
        self.reclaim(now);
        if self.len() < capacity {
            Cycle(now)
        } else {
            Cycle(self.pop_min().max(now))
        }
    }

    /// Records an admitted miss that completes at `done`.
    pub(super) fn complete_at(&mut self, done: Cycle) {
        let t = done.as_u64();
        if !self.put_in_ring(t) {
            self.far.push(Reverse(t));
        }
    }

    /// Serializes the in-flight completion times in ascending order, so
    /// the bytes depend only on the multiset (admission behaviour only
    /// depends on the multiset, so the order is observation-free).
    pub(super) fn encode_state(&self, w: &mut ByteWriter) {
        let mut times = self.returned.clone();
        times.extend(self.far.iter().map(|r| r.0));
        self.for_each_in_ring(|t, n| times.extend(std::iter::repeat_n(t, n as usize)));
        times.sort_unstable();
        w.put_len(times.len());
        for t in times {
            w.put_u64(t);
        }
    }

    /// Restores [`encode_state`](MshrSet::encode_state) bytes. Any
    /// multiset of times is accepted (order and duplicates do not
    /// matter); memory grows with the number of entries read, never with
    /// their values.
    pub(super) fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut set = MshrSet::default();
        for _ in 0..n {
            set.complete_at(Cycle(r.get_u64()?));
        }
        Ok(set)
    }

    fn len(&self) -> usize {
        self.returned.len() + self.ring_len + self.far.len()
    }

    /// The cycle ring slot `s` holds.
    fn time_of(&self, s: usize) -> u64 {
        self.base + ((s as u64).wrapping_sub(self.base) & MASK)
    }

    /// Counts `t` in its slot, unless it is outside the window or the
    /// slot is full.
    fn put_in_ring(&mut self, t: u64) -> bool {
        let s = (t & MASK) as usize;
        if t < self.base || t - self.base > MASK || self.counts[s] == u8::MAX {
            return false;
        }
        self.counts[s] += 1;
        self.occupied[s / 64] |= 1 << (s % 64);
        self.ring_len += 1;
        true
    }

    /// Moves `far` entries that now fall inside the window into the ring.
    fn pull_far(&mut self) {
        while let Some(&Reverse(t)) = self.far.peek() {
            if !self.put_in_ring(t) {
                break;
            }
            self.far.pop();
        }
    }

    /// Calls `f(cycle, count)` for every occupied ring slot, in cycle
    /// order.
    fn for_each_in_ring(&self, mut f: impl FnMut(u64, u8)) {
        let first = (self.base & MASK) as usize;
        let words = WINDOW / 64;
        for i in 0..=words {
            let word = (first / 64 + i) % words;
            let mut bits = self.occupied[word];
            // The cursor's word is visited twice: its high bits first,
            // its low bits (a full window later) last.
            if i == 0 {
                bits &= !0u64 << (first % 64);
            } else if i == words {
                bits &= !(!0u64 << (first % 64));
            }
            while bits != 0 {
                let s = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(self.time_of(s), self.counts[s]);
            }
        }
    }

    /// Moves the cursor to `now + 1` unless it is already past it.
    /// Entries at or before `now` leave the ring and `far`: into
    /// `returned` when `keep`, otherwise out of the set.
    fn sweep(&mut self, now: u64, keep: bool) {
        let moves = now >= self.base && now < u64::MAX;
        if moves {
            let span = (now - self.base).min(MASK) + 1;
            let mut off = 0;
            while off < span && self.ring_len > 0 {
                let s = ((self.base + off) & MASK) as usize;
                let bit = s % 64;
                let take = (64 - bit as u64).min(span - off);
                let mask = (!0u64 >> (64 - take)) << bit;
                let mut hits = self.occupied[s / 64] & mask;
                self.occupied[s / 64] &= !mask;
                while hits != 0 {
                    let slot = (s / 64) * 64 + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let n = std::mem::take(&mut self.counts[slot]);
                    self.ring_len -= n as usize;
                    if keep {
                        let t = self.time_of(slot);
                        self.returned.extend(std::iter::repeat_n(t, n as usize));
                    }
                }
                off += take;
            }
            self.base = now + 1;
        }
        while let Some(&Reverse(t)) = self.far.peek() {
            if t > now {
                break;
            }
            self.far.pop();
            if keep {
                self.returned.push(t);
            }
        }
        if moves {
            self.pull_far();
        }
    }

    /// Drops every entry at or before `now`, moving the cursor past it,
    /// which leaves `returned` empty.
    fn reclaim(&mut self, now: u64) {
        if now == u64::MAX {
            *self = MshrSet::default();
            return;
        }
        self.sweep(now, false);
        // In a run every swept entry is at or before `now`. One that is
        // not (the cursor moved backwards, which only a restored or
        // synthetic sequence does) is still in flight: it waits in `far`.
        for t in self.returned.drain(..) {
            if t > now {
                self.far.push(Reverse(t));
            }
        }
    }

    /// Removes and returns the earliest entry of a non-empty, freshly
    /// reclaimed set.
    fn pop_min(&mut self) -> u64 {
        debug_assert!(self.returned.is_empty());
        let far_min = self.far.peek().map_or(u64::MAX, |r| r.0);
        if self.ring_len == 0 {
            let Reverse(t) = self.far.pop().expect("full set is non-empty");
            self.advance_to(t);
            return t;
        }
        let first = (self.base & MASK) as usize;
        let words = WINDOW / 64;
        let mut word = first / 64;
        let mut bits = self.occupied[word] & (!0u64 << (first % 64));
        while bits == 0 {
            word = (word + 1) % words;
            bits = self.occupied[word];
        }
        let s = word * 64 + bits.trailing_zeros() as usize;
        let t = self.time_of(s);
        if far_min < t {
            self.far.pop();
            self.advance_to(far_min);
            return far_min;
        }
        self.counts[s] -= 1;
        if self.counts[s] == 0 {
            self.occupied[word] &= !(1 << (s % 64));
        }
        self.ring_len -= 1;
        self.advance_to(t);
        t
    }

    /// Moves the cursor forward to `t`, the set's new minimum, so the
    /// next pop starts there and the ring reaches `t + WINDOW`.
    fn advance_to(&mut self, t: u64) {
        if t > self.base {
            self.base = t;
            self.pull_far();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_engine::DetRng;

    /// The lazy binary heap the ring replaced, kept as its differential
    /// oracle: the ring must reproduce its admission times and its
    /// snapshot bytes on every sequence of operations.
    #[derive(Debug, Default)]
    struct HeapMshrSet {
        inflight: BinaryHeap<Reverse<u64>>,
    }

    impl HeapMshrSet {
        fn admit(&mut self, now: Cycle, capacity: usize) -> Cycle {
            if self.inflight.len() >= capacity {
                while let Some(&Reverse(done)) = self.inflight.peek() {
                    if done <= now.as_u64() {
                        self.inflight.pop();
                    } else {
                        break;
                    }
                }
            }
            if self.inflight.len() < capacity {
                now
            } else {
                let Reverse(earliest) = self.inflight.pop().expect("full set is non-empty");
                Cycle(earliest.max(now.as_u64()))
            }
        }

        fn complete_at(&mut self, done: Cycle) {
            self.inflight.push(Reverse(done.as_u64()));
        }

        fn encode_state(&self, w: &mut ByteWriter) {
            let mut times: Vec<u64> = self.inflight.iter().map(|r| r.0).collect();
            times.sort_unstable();
            w.put_len(times.len());
            for t in times {
                w.put_u64(t);
            }
        }

        fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
            let n = r.get_len()?;
            let mut set = HeapMshrSet::default();
            for _ in 0..n {
                set.inflight.push(Reverse(r.get_u64()?));
            }
            Ok(set)
        }
    }

    fn ring_bytes(s: &MshrSet) -> Vec<u8> {
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        w.into_bytes()
    }

    fn heap_bytes(s: &HeapMshrSet) -> Vec<u8> {
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        w.into_bytes()
    }

    /// A ring and its oracle, driven in lock step.
    struct Pair {
        ring: MshrSet,
        heap: HeapMshrSet,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                ring: MshrSet::default(),
                heap: HeapMshrSet::default(),
            }
        }

        fn admit(&mut self, now: u64, capacity: usize) -> u64 {
            let a = self.ring.admit(Cycle(now), capacity);
            let b = self.heap.admit(Cycle(now), capacity);
            assert_eq!(a, b, "issue cycle at now={now}, capacity={capacity}");
            a.as_u64()
        }

        fn complete_at(&mut self, done: u64) {
            self.ring.complete_at(Cycle(done));
            self.heap.complete_at(Cycle(done));
        }

        /// Asserts equal snapshot bytes, then continues from both sets'
        /// decoded copies.
        fn check_and_restore(&mut self) {
            let bytes = ring_bytes(&self.ring);
            assert_eq!(bytes, heap_bytes(&self.heap), "encode_state bytes");
            let mut r = ByteReader::new(&bytes);
            self.ring = MshrSet::decode_state(&mut r).unwrap();
            r.finish().unwrap();
            let mut r = ByteReader::new(&bytes);
            self.heap = HeapMshrSet::decode_state(&mut r).unwrap();
            assert_eq!(ring_bytes(&self.ring), bytes, "decode round trip");
        }
    }

    /// Drives a ring and the heap through a seeded, simulator-shaped
    /// sequence: a cursor that moves forward in small steps with long idle
    /// gaps, bursts of misses up to several times the capacity, shared
    /// completion cycles, and DRAM backlogs far beyond the ring's window.
    /// With `wild`, the cursor also jumps backwards and completions land
    /// anywhere around it, which no run produces but a snapshot may.
    fn drive(seed: u64, capacity: usize, steps: usize, wild: bool) {
        let mut rng = DetRng::new(seed);
        let mut pair = Pair::new();
        let mut now = rng.below(1 << 20);
        for _ in 0..steps {
            now += match rng.below(100) {
                0..=59 => 0,
                60..=94 => rng.range_inclusive(1, 8),
                95..=97 => rng.range_inclusive(1_000, 40_000),
                _ => rng.range_inclusive(100_000, 5_000_000),
            };
            if wild && rng.chance(0.05) {
                now = now.saturating_sub(rng.range_inclusive(1, 50_000));
            }
            let burst = match rng.below(10) {
                0 => rng.range_inclusive(capacity as u64, 3 * capacity as u64),
                _ => rng.range_inclusive(1, 8),
            };
            for _ in 0..burst {
                let issue = pair.admit(now, capacity);
                let done = match rng.below(10) {
                    // Shared completion cycles: the same few latencies.
                    0..=3 => issue + [300, 300, 412][rng.below(3) as usize],
                    4..=7 => issue + rng.range_inclusive(200, 1_500),
                    // A backlog past the ring's window.
                    8 => issue + rng.range_inclusive(10_000, 200_000),
                    _ if wild => (issue + 5_000).saturating_sub(rng.below(10_000)),
                    _ => issue + rng.range_inclusive(1, 4 * WINDOW as u64),
                };
                pair.complete_at(done);
            }
            if rng.chance(0.02) {
                pair.check_and_restore();
            }
        }
        pair.check_and_restore();
    }

    #[test]
    fn ring_matches_the_heap_on_simulator_shaped_sequences() {
        for seed in 0..12 {
            for capacity in [1, 4, 64, 1024] {
                drive(seed, capacity, 600, false);
            }
        }
    }

    #[test]
    fn ring_matches_the_heap_when_the_cursor_moves_backwards() {
        for seed in 100..112 {
            for capacity in [1, 3, 64, 1024] {
                drive(seed, capacity, 600, true);
            }
        }
    }

    #[test]
    fn ring_matches_the_heap_at_the_ends_of_the_cycle_range() {
        let mut pair = Pair::new();
        for t in [0, 5, u64::MAX - 1, u64::MAX, u64::MAX, 1 << 40] {
            pair.complete_at(t);
        }
        pair.check_and_restore();
        for now in [0, 3, 1 << 41, u64::MAX - 2, u64::MAX - 1] {
            let issue = pair.admit(now, 2);
            pair.complete_at(issue.saturating_add(100));
            pair.check_and_restore();
        }
        pair.admit(u64::MAX, 1);
        pair.complete_at(u64::MAX);
        pair.check_and_restore();
        assert_eq!(pair.admit(7, 1), u64::MAX);
        pair.check_and_restore();
    }

    #[test]
    fn ring_matches_the_heap_beyond_a_full_slot_count() {
        let mut pair = Pair::new();
        // 700 entries share cycle 500: more than a slot can count.
        for i in 0..800u64 {
            pair.complete_at(500 + (i % 8 == 0) as u64);
        }
        pair.check_and_restore();
        for now in [10, 10, 10, 501, 501] {
            let issue = pair.admit(now, 600);
            pair.complete_at(issue + 3);
        }
        pair.check_and_restore();
    }
}
