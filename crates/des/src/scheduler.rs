//! The execution model: a [`World`] handles events, a [`Scheduler`] drives it.
//!
//! The engine is single-threaded and fully deterministic. A simulation is a
//! type implementing [`World`]; its `handle` method receives each event in
//! timestamp order together with a mutable scheduler through which it can
//! schedule further events.

use crate::queue::{EventQueue, Priority};
use crate::time::SimTime;

/// A simulation model driven by events of type `Self::Event`.
pub trait World {
    /// The event alphabet of this simulation.
    type Event;

    /// Handles one event occurring at `now`.
    ///
    /// The handler may schedule follow-up events through `sched`. It must not
    /// assume anything about wall-clock time; `now` is the only clock.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
    /// The configured event budget was exhausted.
    BudgetExhausted,
}

/// Event scheduler and simulation clock.
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    events_processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a scheduler whose event heap holds `capacity` pending events
    /// before reallocating. Sizing this to the expected concurrent-event
    /// high-water mark makes steady-state execution allocation-free.
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The `(time, priority)` of the next event to fire, if any.
    pub fn peek_key(&self) -> Option<(SimTime, Priority)> {
        self.queue.peek_key()
    }

    /// Counts one event that the world handled without a queue trip: a
    /// step that would have been queued to fire right after the event in
    /// hand, folded into that event's handler instead. Keeps
    /// [`Scheduler::events_processed`] equal to the unfolded run's.
    pub fn count_inline(&mut self) {
        self.events_processed += 1;
    }

    /// Schedules an event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the current clock).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules an event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event)
    }

    /// Schedules with an explicit same-time priority (lower fires first).
    pub fn schedule_at_with_priority(&mut self, at: SimTime, priority: Priority, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push_with_priority(at, priority, event)
    }

    /// Runs until the queue drains. Returns the final clock value.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> SimTime {
        let (_outcome, end) = self.run_bounded(world, SimTime::MAX, u64::MAX);
        end
    }

    /// Runs until the queue drains, the clock passes `horizon`, or
    /// `max_events` have been dispatched — whichever comes first.
    ///
    /// The `horizon` is inclusive: events stamped exactly at the horizon are
    /// still dispatched.
    pub fn run_bounded<W: World<Event = E>>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
        max_events: u64,
    ) -> (RunOutcome, SimTime) {
        let mut budget = max_events;
        loop {
            if budget == 0 {
                return (RunOutcome::BudgetExhausted, self.now);
            }
            let Some((time, event)) = self.queue.pop_until(horizon) else {
                let outcome = if self.queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::HorizonReached
                };
                return (outcome, self.now);
            };
            debug_assert!(time >= self.now, "event queue went backwards in time");
            self.now = time;
            self.events_processed += 1;
            budget -= 1;
            world.handle(time, event, self);
        }
    }

    /// Resets the clock to zero, discarding all pending events.
    ///
    /// Counters ([`Scheduler::events_processed`]) are preserved so that a
    /// sequence of sub-simulations can be accounted together.
    pub fn reset_clock(&mut self) {
        self.queue.clear();
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(f64, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now.as_secs(), ev));
            // Event 1 spawns two children, exercising nested scheduling.
            if ev == 1 {
                sched.schedule_in(SimTime::from_secs(0.5), 10);
                sched.schedule_at(now + SimTime::from_secs(0.25), 11);
            }
        }
    }

    #[test]
    fn runs_in_order_with_nested_scheduling() {
        let mut w = Recorder { seen: Vec::new() };
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 1);
        s.schedule_at(SimTime::from_secs(2.0), 2);
        let end = s.run(&mut w);
        assert_eq!(
            w.seen,
            vec![(1.0, 1), (1.25, 11), (1.5, 10), (2.0, 2)],
            "children interleave before the later root event"
        );
        assert_eq!(end, SimTime::from_secs(2.0));
        assert_eq!(s.events_processed(), 4);
    }

    #[test]
    fn horizon_stops_early_inclusive() {
        let mut w = Recorder { seen: Vec::new() };
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 0);
        s.schedule_at(SimTime::from_secs(2.0), 0);
        s.schedule_at(SimTime::from_secs(3.0), 0);
        let (outcome, end) = s.run_bounded(&mut w, SimTime::from_secs(2.0), u64::MAX);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(end, SimTime::from_secs(2.0));
        assert_eq!(w.seen.len(), 2, "event at the horizon still fires");
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn event_budget() {
        let mut w = Recorder { seen: Vec::new() };
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::from_secs(i as f64), 0);
        }
        let (outcome, _) = s.run_bounded(&mut w, SimTime::MAX, 4);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(w.seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_scheduling() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                // Attempt to schedule one second before `now`.
                sched.schedule_at(now.saturating_sub(SimTime::from_secs(1.0)), ());
            }
        }
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5.0), ());
        s.run(&mut Bad);
    }

    #[test]
    fn inline_steps_count_as_events_and_peek_sees_the_next_key() {
        struct Folding {
            peeked: Vec<Option<(SimTime, Priority)>>,
        }
        impl World for Folding {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, _ev: u32, sched: &mut Scheduler<u32>) {
                // Each event folds one follow-up step into its handler.
                sched.count_inline();
                self.peeked.push(sched.peek_key());
            }
        }
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 1);
        s.schedule_at_with_priority(SimTime::from_secs(1.0), -1, 2);
        s.schedule_at(SimTime::from_secs(2.0), 3);
        assert_eq!(s.peek_key(), Some((SimTime::from_secs(1.0), -1)));
        let mut w = Folding { peeked: Vec::new() };
        s.run(&mut w);
        assert_eq!(s.events_processed(), 6, "three popped, three folded");
        assert_eq!(
            w.peeked,
            vec![
                Some((SimTime::from_secs(1.0), 0)),
                Some((SimTime::from_secs(2.0), 0)),
                None
            ]
        );
    }

    #[test]
    fn reset_clock_discards_pending() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 1);
        s.reset_clock();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.now(), SimTime::ZERO);
    }
}
