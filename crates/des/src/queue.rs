//! The event queue: a stable priority queue of timestamped events.
//!
//! Ordering is `(time, priority, sequence)`: earlier times first, then lower
//! priority values, then insertion order. The sequence number makes the queue
//! *stable*, which is what makes whole simulations reproducible.
//!
//! Storage is one flat binary heap whose entries carry their ordering key
//! inline: the time as its `f64::total_cmp` integer key
//! (`SimTime::order_key`), the priority and the sequence number. A
//! comparison is three integer compares on the entries themselves, with no
//! indirection. The heap vector only grows when the pending count sets a new
//! record, so steady-state push/pop churn performs no allocations.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Priority of an event at equal timestamps. Lower fires first.
pub type Priority = i32;

/// One queued event with its `(time, priority, seq)` key inline.
struct Entry<E> {
    time: i64,
    seq: u64,
    priority: Priority,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (i64, Priority, u64) {
        (self.time, self.priority, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// Reversed: `BinaryHeap` pops its greatest entry, the queue its least key.
// `seq` is unique, so no two queued entries compare equal and pop order is
// fully determined by the keys, independent of heap layout history.
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A stable priority queue of events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events before
    /// it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events while keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Schedules `event` at `time` with default priority 0.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_with_priority(time, 0, event);
    }

    /// Schedules `event` at `time`; lower `priority` fires first among
    /// same-time events.
    pub fn push_with_priority(&mut self, time: SimTime, priority: Priority, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: time.order_key(),
            priority,
            seq,
            event,
        });
    }

    /// The `(time, priority)` of the earliest event, without removing it.
    pub fn peek_key(&self) -> Option<(SimTime, Priority)> {
        self.heap
            .peek()
            .map(|e| (SimTime::from_order_key(e.time), e.priority))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap
            .pop()
            .map(|e| (SimTime::from_order_key(e.time), e.event))
    }

    /// Removes and returns the earliest event if it is stamped at or
    /// before `horizon`: one heap operation per event for bounded runs.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let top = self
            .heap
            .peek_mut()
            .filter(|e| e.time <= horizon.order_key())?;
        let e = PeekMut::pop(top);
        Some((SimTime::from_order_key(e.time), e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// `-0.0`, which [`SimTime::from_secs`] normalises away but float
    /// arithmetic on times can still produce.
    fn neg_zero() -> SimTime {
        SimTime::from_order_key(-1)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_priority_then_fifo() {
        let mut q = EventQueue::new();
        q.push_with_priority(t(1.0), 5, "low-prio-first-in");
        q.push_with_priority(t(1.0), 0, "high-prio");
        q.push_with_priority(t(1.0), 5, "low-prio-second-in");
        assert_eq!(q.pop().unwrap().1, "high-prio");
        assert_eq!(q.pop().unwrap().1, "low-prio-first-in");
        assert_eq!(q.pop().unwrap().1, "low-prio-second-in");
    }

    #[test]
    fn negative_zero_pops_before_positive_zero() {
        // IEEE total order puts -0.0 below +0.0, even against a better
        // priority and an earlier insertion.
        let mut q = EventQueue::new();
        q.push_with_priority(SimTime::ZERO, -5, "plus");
        q.push_with_priority(neg_zero(), 5, "minus");
        let (time, ev) = q.pop().unwrap();
        assert_eq!(ev, "minus");
        assert_eq!(time.as_secs().to_bits(), (-0.0f64).to_bits());
        let (time, ev) = q.pop().unwrap();
        assert_eq!(ev, "plus");
        assert_eq!(time.as_secs().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn pop_until_stops_at_the_horizon() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_until(SimTime::MAX), None);
        q.push(t(2.0), 2);
        q.push(t(1.0), 1);
        assert_eq!(q.pop_until(t(0.5)), None);
        assert_eq!(q.pop_until(t(1.0)), Some((t(1.0), 1)), "inclusive");
        assert_eq!(q.pop_until(t(1.5)), None);
        assert_eq!(q.len(), 1, "a refused pop leaves the event queued");
        assert_eq!(q.pop_until(SimTime::MAX), Some((t(2.0), 2)));
    }

    #[test]
    fn max_time_events_pop_last() {
        let mut q = EventQueue::new();
        q.push_with_priority(SimTime::MAX, -1, "max");
        q.push(t(f64::MAX / 2.0), "half");
        q.push(t(0.0), "zero");
        assert_eq!(q.pop().unwrap().1, "zero");
        assert_eq!(q.pop().unwrap().1, "half");
        assert_eq!(q.pop(), Some((SimTime::MAX, "max")));
    }

    #[test]
    fn pushes_after_pops_keep_the_order() {
        let mut q = EventQueue::new();
        q.push(t(5.0), 5);
        q.push(t(1.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        // Later insertions at earlier or equal times still sort by key;
        // the equal-time one fires after the older entry (FIFO).
        q.push(t(3.0), 3);
        q.push(t(5.0), 6);
        q.push(t(2.0), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![2, 3, 5, 6]);
    }

    #[test]
    fn steady_state_churn_reuses_slots() {
        let mut q = EventQueue::with_capacity(4);
        let cap = q.heap.capacity();
        for i in 0..100u32 {
            q.push(t(i as f64), i);
            let (_, v) = q.pop().unwrap();
            assert_eq!(v, i);
        }
        // The heap never grew past its capacity.
        assert_eq!(q.heap.capacity(), cap);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..16u32 {
            q.push(t(i as f64), i);
        }
        let cap = q.heap.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(q.heap.capacity() >= cap);
        q.push(t(1.0), 99);
        assert_eq!(q.pop(), Some((t(1.0), 99)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Maps a small draw onto a time palette with many ties plus the two
    /// edge keys: `-0.0` and [`SimTime::MAX`].
    fn palette(code: u32) -> SimTime {
        match code {
            0 => SimTime::from_order_key(-1),
            1 => SimTime::MAX,
            c => SimTime::from_secs((c / 3) as f64),
        }
    }

    /// The reference queue: a plain list, popped at its minimum under
    /// `SimTime`'s `Ord` (IEEE total order), then priority, then insertion.
    fn pop_min(model: &mut Vec<(SimTime, Priority, usize)>) -> Option<(SimTime, usize)> {
        let pos = (0..model.len()).min_by(|&a, &b| {
            let (ta, pa, sa) = model[a];
            let (tb, pb, sb) = model[b];
            ta.cmp(&tb).then(pa.cmp(&pb)).then(sa.cmp(&sb))
        })?;
        let (time, _, id) = model.remove(pos);
        Some((time, id))
    }

    proptest! {
        /// Pops come out sorted by (time, then insertion order for ties),
        /// and every event comes out exactly once.
        #[test]
        fn pops_are_sorted_and_complete(times in proptest::collection::vec(0u32..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_secs(t as f64), i);
            }
            let mut popped = Vec::new();
            let mut last = (SimTime::ZERO, 0usize);
            while let Some((t, v)) = q.pop() {
                prop_assert!(t >= last.0, "time went backwards");
                if t == last.0 && !popped.is_empty() {
                    prop_assert!(v > last.1, "FIFO broken among ties");
                }
                last = (t, v);
                popped.push(v);
            }
            let mut sorted = popped.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..times.len()).collect::<Vec<_>>());
        }

        /// Push-all-then-drain equals a stable sort by `(time, priority)`,
        /// bit for bit on the popped times, across priority and sequence
        /// ties, `-0.0` and `SimTime::MAX`.
        #[test]
        fn pops_match_sorted_reference(
            keys in proptest::collection::vec((0u32..40, 0u32..5), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut expected: Vec<(SimTime, Priority, usize)> = Vec::new();
            for (i, &(code, prio)) in keys.iter().enumerate() {
                let prio = prio as Priority - 2;
                q.push_with_priority(palette(code), prio, i);
                expected.push((palette(code), prio, i));
            }
            expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(time, _, id) in &expected {
                let (gt, gid) = q.pop_until(time).expect("reference has an event at its head");
                prop_assert_eq!(gt.as_secs().to_bits(), time.as_secs().to_bits());
                prop_assert_eq!(gid, id);
            }
            prop_assert_eq!(q.pop(), None);
        }

        /// Interleaved push/pop churn matches the reference list: the flat
        /// heap stays externally indistinguishable from the naive stable
        /// queue, edge keys and priority ties included.
        #[test]
        fn churn_matches_reference_model(
            ops in proptest::collection::vec((0u32..50, 0u32..5, any::<bool>()), 1..300),
        ) {
            let mut q = EventQueue::with_capacity(8);
            let mut model: Vec<(SimTime, Priority, usize)> = Vec::new();
            let mut next_id = 0usize;
            for &(code, prio, do_pop) in &ops {
                let prio = prio as Priority - 2;
                if do_pop {
                    let got = q.pop();
                    match pop_min(&mut model) {
                        None => prop_assert_eq!(got, None),
                        Some((time, id)) => {
                            let (gt, gid) = got.expect("model has an event");
                            prop_assert_eq!(gt.as_secs().to_bits(), time.as_secs().to_bits());
                            prop_assert_eq!(gid, id);
                        }
                    }
                } else {
                    q.push_with_priority(palette(code), prio, next_id);
                    model.push((palette(code), prio, next_id));
                    next_id += 1;
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
