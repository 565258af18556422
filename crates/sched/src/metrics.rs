//! Per-request scheduling metrics with percentiles.
//!
//! [`SchedMetrics`] keeps mean wait/service/sojourn, utilisation and the
//! served count, plus retained samples for percentile queries and
//! scheduler-level counters (mounts, events processed). One definition
//! holds for every policy: a request's wait is its first byte minus its
//! arrival, and utilisation is drive busy time over drives × horizon.

use serde::{Deserialize, Serialize};
use tapesim_des::stats::{Samples, Welford};
use tapesim_des::SimTime;

/// One served request: its arrival, first service instant and completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Submission index of the request within its run (the `i` of the
    /// `i`-th accepted arrival). Lets external collectors — the serve
    /// runtime's shard join — map a record back to the request it
    /// answers; purely an identifier, never part of the metric bits.
    pub request: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// When the first byte of the request started streaming.
    pub first_start: SimTime,
    /// When the last job of the request completed.
    pub finish: SimTime,
}

impl RequestRecord {
    /// Seconds from arrival to completion.
    pub fn sojourn_secs(&self) -> f64 {
        (self.finish - self.arrival).as_secs()
    }
}

/// Aggregated per-request metrics of one scheduled run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SchedMetrics {
    wait: Welford,
    service: Welford,
    sojourn: Welford,
    wait_samples: Samples,
    sojourn_samples: Samples,
    mounts: u64,
    busy: f64,
    horizon: f64,
    servers: u32,
    events: u64,
    retries: u64,
    failovers: u64,
    lost: u64,
    availability: f64,
    degraded_samples: Samples,
}

impl SchedMetrics {
    /// Empty metrics for a run on `servers` concurrently-serving drives.
    /// A fault-free run never degrades, so availability starts at 1.
    pub fn new(servers: u32) -> SchedMetrics {
        SchedMetrics {
            servers,
            availability: 1.0,
            ..SchedMetrics::default()
        }
    }

    /// Records one served request from its timeline.
    ///
    /// Public so external record collectors (the serve runtime's merge of
    /// per-shard records) can rebuild the exact per-request accumulator
    /// state: feeding the same records in the same order reproduces a
    /// batch run's Welford/percentile bits.
    pub fn record(&mut self, r: &RequestRecord) {
        let wait = (r.first_start - r.arrival).as_secs();
        let sojourn = (r.finish - r.arrival).as_secs();
        self.wait.push(wait);
        self.service.push(sojourn - wait);
        self.sojourn.push(sojourn);
        self.wait_samples.push(wait);
        self.sojourn_samples.push(sojourn);
    }

    pub(crate) fn add_mounts(&mut self, n: u64) {
        self.mounts += n;
    }

    pub(crate) fn add_busy(&mut self, time: SimTime) {
        self.busy += time.as_secs();
    }

    pub(crate) fn set_horizon(&mut self, time: SimTime) {
        self.horizon = time.as_secs();
    }

    pub(crate) fn set_events(&mut self, events: u64) {
        self.events = events;
    }

    pub(crate) fn add_retries(&mut self, n: u64) {
        self.retries += n;
    }

    pub(crate) fn add_failovers(&mut self, n: u64) {
        self.failovers += n;
    }

    pub(crate) fn add_lost(&mut self, n: u64) {
        self.lost += n;
    }

    /// Records the sojourn of a request that arrived while the system
    /// was degraded (a drive dead or a robot jammed). Public for the same
    /// reason as [`SchedMetrics::record`]: external collectors replay the
    /// engine's exact recording sequence.
    pub fn record_degraded_sojourn(&mut self, r: &RequestRecord) {
        self.degraded_samples.push((r.finish - r.arrival).as_secs());
    }

    /// Sets availability from per-drive healthy time: the sum over drives
    /// of the time each was alive inside the run span, over
    /// `servers × span`. 1.0 when nothing failed.
    pub(crate) fn set_availability(&mut self, healthy: SimTime, span: SimTime) {
        let denom = span.as_secs() * self.servers.max(1) as f64;
        self.availability = if denom <= 0.0 {
            1.0
        } else {
            (healthy.as_secs() / denom).clamp(0.0, 1.0)
        };
    }

    /// Folds another run's scheduler-level counters into `self`: mounts,
    /// busy time, events, retries, failovers and losses add; the horizon
    /// keeps the maximum (shards share one virtual time axis); the
    /// availability keeps the minimum (the merged fleet is no healthier
    /// than its least-healthy shard). The per-request accumulators are
    /// *not* touched — rebuild those with [`SchedMetrics::record`] in a
    /// deterministic record order.
    pub fn merge_counters(&mut self, other: &SchedMetrics) {
        self.mounts += other.mounts;
        self.busy += other.busy;
        self.horizon = self.horizon.max(other.horizon);
        self.events += other.events;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.lost += other.lost;
        self.availability = self.availability.min(other.availability);
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.sojourn.count()
    }

    /// Mean time from arrival to first service, seconds.
    pub fn avg_wait(&self) -> f64 {
        self.wait.mean()
    }

    /// Mean service time (sojourn minus wait), seconds.
    pub fn avg_service(&self) -> f64 {
        self.service.mean()
    }

    /// Mean time from arrival to completion, seconds.
    pub fn avg_sojourn(&self) -> f64 {
        self.sojourn.mean()
    }

    /// The `p`-th percentile of per-request wait, seconds.
    pub fn wait_percentile(&self, p: f64) -> f64 {
        self.wait_samples.percentile(p)
    }

    /// The `p`-th percentile of per-request sojourn, seconds.
    pub fn sojourn_percentile(&self, p: f64) -> f64 {
        self.sojourn_samples.percentile(p)
    }

    /// Raw per-request sojourn samples in recording order, for feeding
    /// external aggregators (registries, histograms).
    pub fn sojourn_seconds(&self) -> &[f64] {
        self.sojourn_samples.values()
    }

    /// Tape mounts (exchanges) performed over the run.
    pub fn mounts(&self) -> u64 {
        self.mounts
    }

    /// DES events processed by the scheduling engine's event loop.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total read retries burned over the run.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Jobs that failed over to a replica copy.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Requests terminally lost (retries exhausted with no replica, or
    /// stranded by dead drives).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Fraction of drive-hours the fleet was alive over the run span
    /// (1.0 when no drive failed).
    pub fn availability(&self) -> f64 {
        self.availability
    }

    /// Requests that arrived while the system was degraded.
    pub fn degraded_served(&self) -> u64 {
        self.degraded_samples.len() as u64
    }

    /// The `p`-th percentile of sojourn among requests that arrived while
    /// the system was degraded, seconds (0 if none did).
    pub fn degraded_sojourn_percentile(&self, p: f64) -> f64 {
        self.degraded_samples.percentile(p)
    }

    /// Aggregate drive busy time over the run span, normalised by server
    /// count: `busy / (horizon × servers)`, the servers being every drive
    /// of the fleet under every policy.
    pub fn utilisation(&self) -> f64 {
        if self.horizon <= 0.0 {
            0.0
        } else {
            self.busy / (self.horizon * self.servers.max(1) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn record_decomposes_timeline() {
        let mut m = SchedMetrics::new(1);
        m.record(&RequestRecord {
            request: 0,
            arrival: t(10.0),
            first_start: t(15.0),
            finish: t(40.0),
        });
        assert_eq!(m.served(), 1);
        assert!((m.avg_wait() - 5.0).abs() < 1e-12);
        assert!((m.avg_service() - 25.0).abs() < 1e-12);
        assert!((m.avg_sojourn() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_come_from_samples() {
        let mut m = SchedMetrics::new(2);
        for (w, s) in [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)] {
            m.record(&RequestRecord {
                request: 0,
                arrival: t(0.0),
                first_start: t(w),
                finish: t(s),
            });
        }
        assert_eq!(m.wait_percentile(50.0), 2.0);
        assert_eq!(m.sojourn_percentile(100.0), 30.0);
    }

    #[test]
    fn fault_counters_and_availability() {
        let mut m = SchedMetrics::new(4);
        assert_eq!(m.availability(), 1.0, "fault-free default");
        assert_eq!((m.retries(), m.failovers(), m.lost()), (0, 0, 0));

        m.add_retries(3);
        m.add_failovers(1);
        m.add_lost(2);
        assert_eq!((m.retries(), m.failovers(), m.lost()), (3, 1, 2));

        // One of four drives dead for half the span: 7/8 availability.
        m.set_availability(t(350.0), t(100.0));
        assert!((m.availability() - 0.875).abs() < 1e-12);
        // Degenerate span: defined as fully available.
        m.set_availability(SimTime::ZERO, SimTime::ZERO);
        assert_eq!(m.availability(), 1.0);

        m.record_degraded_sojourn(&RequestRecord {
            request: 0,
            arrival: t(0.0),
            first_start: t(5.0),
            finish: t(30.0),
        });
        assert_eq!(m.degraded_served(), 1);
        assert_eq!(m.degraded_sojourn_percentile(50.0), 30.0);
    }

    #[test]
    fn utilisation_normalises_by_servers() {
        let mut m = SchedMetrics::new(4);
        m.add_busy(t(100.0));
        m.set_horizon(t(50.0));
        assert!((m.utilisation() - 0.5).abs() < 1e-12);

        let empty = SchedMetrics::new(4);
        assert_eq!(empty.utilisation(), 0.0);
    }
}
