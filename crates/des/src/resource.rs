//! Calendar-based FCFS resources.
//!
//! A [`Resource`] models one or more identical servers that perform
//! fixed-duration jobs one at a time (per server). Instead of queueing
//! events, the resource keeps a calendar of when each server becomes free and
//! answers "if a job of length `d` is requested at time `t`, when does it
//! start and finish?". This is exactly the shape of the tape-library robot
//! arm (one server per library) and composes naturally with an event-driven
//! world: the caller schedules completion events at the returned finish time.
//!
//! FCFS fairness holds because requests are issued in non-decreasing request
//! time by the deterministic world and each request immediately claims the
//! earliest-free server.

use crate::time::SimTime;

/// A grant returned by [`Resource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the job actually begins (>= the request time).
    pub start: SimTime,
    /// When the job completes and the server frees up.
    pub finish: SimTime,
    /// Which server (0-based) runs the job.
    pub server: usize,
}

/// A bank of `k` identical FCFS servers with a free-time calendar.
#[derive(Debug, Clone)]
pub struct Resource {
    free_at: Vec<SimTime>,
    busy: SimTime,
    jobs: u64,
}

impl Resource {
    /// Creates a resource with `servers` identical servers, all free at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a Resource needs at least one server");
        Resource {
            free_at: vec![SimTime::ZERO; servers],
            busy: SimTime::ZERO,
            jobs: 0,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Requests a job of length `duration` at time `at`; books the
    /// earliest-free server and returns the grant.
    pub fn acquire(&mut self, at: SimTime, duration: SimTime) -> Grant {
        // Earliest-free server, lowest index on ties (`reduce` keeps the
        // first minimum under a strict `<`). The constructor guarantees
        // at least one server.
        let earliest =
            self.free_at
                .iter_mut()
                .enumerate()
                .reduce(|best, next| if *next.1 < *best.1 { next } else { best });
        let (server, start, finish) = match earliest {
            Some((server, free)) => {
                let start = at.max(*free);
                *free = start + duration;
                (server, start, *free)
            }
            None => (0, at, at + duration),
        };
        self.busy += duration;
        self.jobs += 1;
        Grant {
            start,
            finish,
            server,
        }
    }

    /// The earliest time any server is free, given a request at `at`.
    pub fn earliest_start(&self, at: SimTime) -> SimTime {
        let free = self
            .free_at
            .iter()
            .copied()
            .reduce(SimTime::min)
            .unwrap_or(SimTime::ZERO);
        at.max(free)
    }

    /// Total busy time booked across all servers.
    pub fn total_busy(&self) -> SimTime {
        self.busy
    }

    /// Number of jobs granted.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilisation over `[0, horizon]` across all servers (0..=1).
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs() / (horizon.as_secs() * self.free_at.len() as f64)
    }

    /// Clears the calendar back to "all free at t=0" keeping counters.
    pub fn reset(&mut self) {
        for f in &mut self.free_at {
            *f = SimTime::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_server_serialises() {
        let mut r = Resource::new(1);
        let g1 = r.acquire(t(0.0), t(10.0));
        let g2 = r.acquire(t(5.0), t(10.0));
        assert_eq!(g1.start, t(0.0));
        assert_eq!(g1.finish, t(10.0));
        assert_eq!(g2.start, t(10.0), "second job waits for the first");
        assert_eq!(g2.finish, t(20.0));
    }

    #[test]
    fn idle_gap_respected() {
        let mut r = Resource::new(1);
        r.acquire(t(0.0), t(2.0));
        let g = r.acquire(t(100.0), t(1.0));
        assert_eq!(g.start, t(100.0), "server idles until the request arrives");
    }

    #[test]
    fn two_servers_parallelise() {
        let mut r = Resource::new(2);
        let g1 = r.acquire(t(0.0), t(10.0));
        let g2 = r.acquire(t(0.0), t(10.0));
        let g3 = r.acquire(t(0.0), t(10.0));
        assert_eq!(g1.start, t(0.0));
        assert_eq!(g2.start, t(0.0));
        assert_ne!(g1.server, g2.server);
        assert_eq!(g3.start, t(10.0), "third job waits for a free server");
    }

    #[test]
    fn accounting() {
        let mut r = Resource::new(2);
        r.acquire(t(0.0), t(4.0));
        r.acquire(t(0.0), t(6.0));
        assert_eq!(r.total_busy(), t(10.0));
        assert_eq!(r.jobs(), 2);
        let u = r.utilisation(t(10.0));
        assert!((u - 0.5).abs() < 1e-12, "10 busy over 2x10 capacity");
    }

    #[test]
    fn earliest_start_matches_acquire() {
        let mut r = Resource::new(1);
        r.acquire(t(0.0), t(7.0));
        assert_eq!(r.earliest_start(t(3.0)), t(7.0));
        assert_eq!(r.earliest_start(t(9.0)), t(9.0));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Resource::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// With non-decreasing request times (how the engine uses it),
        /// grants per server never overlap, never start before the
        /// request, and total busy time is the sum of durations.
        #[test]
        fn grants_are_consistent(
            servers in 1usize..4,
            jobs in proptest::collection::vec((0u32..50, 1u32..100), 1..60),
        ) {
            let mut r = Resource::new(servers);
            let mut at = 0.0f64;
            let mut per_server: Vec<Vec<Grant>> = vec![Vec::new(); servers];
            let mut total = 0.0;
            for &(gap, dur) in &jobs {
                at += gap as f64;
                let g = r.acquire(SimTime::from_secs(at), SimTime::from_secs(dur as f64));
                prop_assert!(g.start >= SimTime::from_secs(at));
                prop_assert_eq!(g.finish, g.start + SimTime::from_secs(dur as f64));
                per_server[g.server].push(g);
                total += dur as f64;
            }
            for grants in &per_server {
                for pair in grants.windows(2) {
                    prop_assert!(
                        pair[1].start >= pair[0].finish,
                        "server double-booked: {:?} then {:?}",
                        pair[0],
                        pair[1]
                    );
                }
            }
            prop_assert!((r.total_busy().as_secs() - total).abs() < 1e-9);
        }

        /// FCFS: when requests arrive in non-decreasing time order, the
        /// granted start times are non-decreasing too — a later request
        /// never jumps ahead of an earlier one.
        #[test]
        fn fcfs_grants_start_in_request_order(
            servers in 1usize..4,
            jobs in proptest::collection::vec((0u32..50, 1u32..100), 1..60),
        ) {
            let mut r = Resource::new(servers);
            let mut at = 0.0f64;
            let mut last_start = SimTime::ZERO;
            for &(gap, dur) in &jobs {
                at += gap as f64;
                let g = r.acquire(SimTime::from_secs(at), SimTime::from_secs(dur as f64));
                prop_assert!(
                    g.start >= last_start,
                    "start went backwards: {:?} after {:?}",
                    g.start,
                    last_start
                );
                last_start = g.start;
            }
        }
    }
}
