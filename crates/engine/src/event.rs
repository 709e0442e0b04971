//! Stable time-ordered event queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::Cycle;

/// An entry in the queue: ordered by time, then by insertion sequence so
/// that same-cycle events pop in FIFO order (which keeps the simulator
/// deterministic regardless of heap internals).
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earlier (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// same cycle pop in the order they were pushed (FIFO). This stability is
/// load-bearing: the GPU simulator relies on it so that, for example, a CTA
/// completion observed by the SPAWN controller is processed before a launch
/// decision scheduled later in the same cycle by a different component.
///
/// The simulator itself schedules on [`TimingWheel`](crate::TimingWheel);
/// this comparison heap is the simple reference implementation of the
/// same contract, and the wheel's differential tests check it against
/// this queue pop for pop.
///
/// # Examples
///
/// ```
/// use dynapar_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(5), 'b');
/// q.push(Cycle(1), 'a');
/// assert_eq!(q.pop(), Some((Cycle(1), 'a')));
/// assert_eq!(q.peek_time(), Some(Cycle(5)));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Same-cycle fast lane: events all scheduled for `lane_time`, in push
    /// order. The simulator's hot loop schedules bursts of events for the
    /// current cycle (warp round-robin, launch cascades); routing those
    /// through a FIFO instead of the heap turns the dominant push/pop pair
    /// from O(log n) sift into O(1).
    ///
    /// Invariant: while `lane` is non-empty, the heap holds no entry at
    /// exactly `lane_time` — a lane is only opened when the heap minimum is
    /// strictly later than `at`, and every push at `lane_time` while the
    /// lane is open joins the lane. Pop order therefore needs no seq
    /// comparison across the two structures: heap entries earlier than
    /// `lane_time` go first, the lane drains next, later heap entries after.
    lane: VecDeque<E>,
    lane_time: Cycle,
    next_seq: u64,
    pushed: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_time: Cycle::ZERO,
            next_seq: 0,
            pushed: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        self.pushed += 1;
        if !self.lane.is_empty() {
            if at == self.lane_time {
                self.lane.push_back(event);
                return;
            }
        } else if self.heap.peek().map_or(true, |min| min.at > at) {
            // No earlier-or-equal heap entry exists, so this event is next
            // up and same-cycle followers can join it FIFO.
            self.lane_time = at;
            self.lane.push_back(event);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if !self.lane.is_empty() {
            // Heap entries at lane_time cannot exist (see invariant), so
            // the lane wins unless the heap has something strictly earlier.
            if self.heap.peek().map_or(true, |min| min.at > self.lane_time) {
                let event = self.lane.pop_front().expect("lane checked non-empty");
                return Some((self.lane_time, event));
            }
        }
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        let heap_min = self.heap.peek().map(|e| e.at);
        if self.lane.is_empty() {
            heap_min
        } else {
            Some(heap_min.map_or(self.lane_time, |h| h.min(self.lane_time)))
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Total number of events ever pushed (diagnostic counter).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("lane", &self.lane.len())
            .field("total_pushed", &self.pushed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), "a");
        q.push(Cycle(5), "b");
        assert_eq!(q.pop(), Some((Cycle(5), "b")));
        q.push(Cycle(7), "c");
        q.push(Cycle(10), "d");
        assert_eq!(q.pop(), Some((Cycle(7), "c")));
        assert_eq!(q.pop(), Some((Cycle(10), "a")));
        assert_eq!(q.pop(), Some((Cycle(10), "d")));
    }

    #[test]
    fn counters_and_emptiness() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(1), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.total_pushed(), 1);
        assert_eq!(q.peek_time(), Some(Cycle(1)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn lane_respects_earlier_heap_events() {
        // Open a lane at t=10, then schedule something earlier: the heap
        // event must pop first, then the lane drains FIFO.
        let mut q = EventQueue::new();
        q.push(Cycle(10), "lane-a");
        q.push(Cycle(5), "early");
        q.push(Cycle(10), "lane-b");
        assert_eq!(q.peek_time(), Some(Cycle(5)));
        assert_eq!(q.pop(), Some((Cycle(5), "early")));
        assert_eq!(q.pop(), Some((Cycle(10), "lane-a")));
        assert_eq!(q.pop(), Some((Cycle(10), "lane-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn closed_lane_ties_stay_fifo_via_heap() {
        // Once a lane at t=10 closes (drains), later t=10 pushes that find
        // an equal heap minimum must fall back to the heap and keep FIFO
        // order through seq numbers.
        let mut q = EventQueue::new();
        q.push(Cycle(10), 0);
        assert_eq!(q.pop(), Some((Cycle(10), 0)));
        q.push(Cycle(12), 1); // heap (lane would need min > 12? no: lane opens at 12)
        q.push(Cycle(10), 2); // earlier than lane_time: heap
        q.push(Cycle(10), 3); // heap again (lane busy at 12)
        assert_eq!(q.pop(), Some((Cycle(10), 2)));
        assert_eq!(q.pop(), Some((Cycle(10), 3)));
        assert_eq!(q.pop(), Some((Cycle(12), 1)));
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::DetRng;

    #[test]
    fn large_random_workload_stays_sorted() {
        let mut rng = DetRng::new(99);
        let mut q = EventQueue::new();
        for i in 0..50_000u64 {
            q.push(Cycle(rng.below(1 << 24)), i);
        }
        let mut last = Cycle::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 50_000);
        assert_eq!(q.total_pushed(), 50_000);
    }

    #[test]
    fn drain_and_refill_reuses_cleanly() {
        let mut q = EventQueue::new();
        for round in 0..5u64 {
            for i in 0..100 {
                q.push(Cycle(round * 1000 + i), i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            assert_eq!(count, 100);
            assert!(q.is_empty());
        }
    }
}
