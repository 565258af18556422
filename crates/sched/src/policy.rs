//! Pluggable tape-selection policies.
//!
//! When a drive goes idle the scheduler builds one [`TapeCandidate`] per
//! tape that has queued jobs and is neither mounted nor already being
//! fetched, then asks the [`SchedPolicy`] which to serve next. The policy
//! sees only the candidate summaries — queue depth, queued bytes, waiting
//! time, and locate/service estimates for the drive under consideration —
//! never the simulator's internals, so policies stay interchangeable.

use std::cmp::Reverse;
use tapesim_des::SimTime;
use tapesim_model::{Bytes, TapeId};

/// One tape eligible for service, as presented to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapeCandidate {
    /// The tape holding queued jobs.
    pub tape: TapeId,
    /// Number of jobs that would ride the next mount (capped at the
    /// configured batch size).
    pub queued_jobs: usize,
    /// Total bytes those jobs would stream.
    pub queued_bytes: Bytes,
    /// Arrival time of the longest-waiting queued job.
    pub oldest_arrival: SimTime,
    /// Estimated time to get the tape mounted on the candidate drive
    /// (rewind + exchange + load for that drive's actual state).
    pub est_locate: SimTime,
    /// Estimated transfer time for the queued bytes.
    pub est_service: SimTime,
}

/// A tape-selection policy.
///
/// `choose` returns the index of the candidate to serve next, or `None`
/// to leave the drive idle (no policy shipped here ever declines work).
pub trait SchedPolicy: std::fmt::Debug + Send + Sync {
    /// Short display name ("fcfs", "batch", ...).
    fn name(&self) -> &'static str;

    /// Picks a candidate index from a non-empty slice.
    fn choose(&self, candidates: &[TapeCandidate]) -> Option<usize>;

    /// Whether the engine admits one request at a time: while a request
    /// has jobs outstanding, later arrivals wait in a FIFO gate (the §6
    /// single-server model with a queue in front). FCFS sets this;
    /// concurrent policies do not.
    fn sequential(&self) -> bool {
        false
    }
}

/// The index of the candidate with the smallest `key`; equal keys go to
/// the earlier candidate.
fn choose_min<K: PartialOrd>(
    candidates: &[TapeCandidate],
    key: impl Fn(&TapeCandidate) -> K,
) -> Option<usize> {
    let mut best: Option<(K, usize)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let k = key(c);
        if best.as_ref().is_none_or(|(b, _)| k < *b) {
            best = Some((k, i));
        }
    }
    best.map(|(_, i)| i)
}

/// First-come-first-served, one request at a time: the paper's §6
/// operating model with a queue in front of it. The engine's admission
/// gate keeps one request in service; `choose` sends its tapes largest
/// job first, the order the §6 engine dispatches a request's pending
/// jobs in (`tape_jobs` sorts by bytes, descending), so a lone request
/// costs what the §6 simulator says it costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn choose(&self, candidates: &[TapeCandidate]) -> Option<usize> {
        choose_min(candidates, |c| {
            (c.oldest_arrival, Reverse(c.queued_bytes), c.tape)
        })
    }

    fn sequential(&self) -> bool {
        true
    }
}

/// Coalesces requests per tape and serves the tape whose head-of-queue
/// job has waited longest: one mount amortised over every queued job for
/// that tape.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchByTape;

impl SchedPolicy for BatchByTape {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn choose(&self, candidates: &[TapeCandidate]) -> Option<usize> {
        choose_min(candidates, |c| (c.oldest_arrival, c.tape))
    }
}

/// Shortest-locate/service-time-first: serves the tape that finishes its
/// batch soonest (mount estimate + transfer estimate), trading fairness
/// for throughput. Ties break on waiting time, then tape id.
#[derive(Debug, Clone, Copy, Default)]
pub struct SltfTape;

impl SchedPolicy for SltfTape {
    fn name(&self) -> &'static str {
        "sltf"
    }

    fn choose(&self, candidates: &[TapeCandidate]) -> Option<usize> {
        choose_min(candidates, |c| {
            (c.est_locate + c.est_service, c.oldest_arrival, c.tape)
        })
    }
}

/// The built-in policies, for CLI parsing and experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Fcfs`].
    Fcfs,
    /// [`BatchByTape`].
    BatchByTape,
    /// [`SltfTape`].
    SltfTape,
}

impl PolicyKind {
    /// Every built-in policy, in presentation order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::Fcfs,
        PolicyKind::BatchByTape,
        PolicyKind::SltfTape,
    ];

    /// Short label ("fcfs" / "batch" / "sltf").
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::BatchByTape => "batch",
            PolicyKind::SltfTape => "sltf",
        }
    }

    /// Parses a label as accepted by the CLI.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "fcfs" => Some(PolicyKind::Fcfs),
            "batch" | "batch-by-tape" => Some(PolicyKind::BatchByTape),
            "sltf" | "sltf-tape" => Some(PolicyKind::SltfTape),
            _ => None,
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn SchedPolicy> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs),
            PolicyKind::BatchByTape => Box::new(BatchByTape),
            PolicyKind::SltfTape => Box::new(SltfTape),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::LibraryId;

    fn cand(slot: u16, oldest: f64, locate: f64, service: f64) -> TapeCandidate {
        TapeCandidate {
            tape: TapeId::new(LibraryId(0), slot),
            queued_jobs: 1,
            queued_bytes: Bytes::gb(1),
            oldest_arrival: SimTime::from_secs(oldest),
            est_locate: SimTime::from_secs(locate),
            est_service: SimTime::from_secs(service),
        }
    }

    #[test]
    fn fcfs_and_batch_pick_longest_waiting() {
        let cands = [
            cand(0, 30.0, 1.0, 1.0),
            cand(1, 10.0, 50.0, 50.0),
            cand(2, 20.0, 2.0, 2.0),
        ];
        assert_eq!(Fcfs.choose(&cands), Some(1));
        assert_eq!(BatchByTape.choose(&cands), Some(1));
    }

    #[test]
    fn fcfs_breaks_arrival_ties_largest_job_first() {
        let mut small = cand(1, 10.0, 5.0, 5.0);
        small.queued_bytes = Bytes::gb(2);
        let mut large = cand(3, 10.0, 5.0, 5.0);
        large.queued_bytes = Bytes::gb(7);
        let mut also_large = cand(2, 10.0, 5.0, 5.0);
        also_large.queued_bytes = Bytes::gb(7);
        let older = cand(4, 9.0, 5.0, 5.0);
        // Same arrival: the most bytes win, then the smaller tape id.
        assert_eq!(Fcfs.choose(&[small, large, also_large]), Some(2));
        // An older arrival still beats any size.
        assert_eq!(Fcfs.choose(&[large, older]), Some(1));
        // `BatchByTape` keeps its tape-id tie-break.
        assert_eq!(BatchByTape.choose(&[small, large, also_large]), Some(0));
    }

    #[test]
    fn sltf_picks_cheapest_batch() {
        let cands = [
            cand(0, 5.0, 40.0, 100.0),
            cand(1, 50.0, 10.0, 20.0), // cheapest despite arriving last
            cand(2, 1.0, 60.0, 90.0),
        ];
        assert_eq!(SltfTape.choose(&cands), Some(1));
    }

    #[test]
    fn ties_break_on_tape_id() {
        let cands = [cand(3, 10.0, 5.0, 5.0), cand(1, 10.0, 5.0, 5.0)];
        // Same arrival: the smaller tape id wins regardless of position.
        assert_eq!(BatchByTape.choose(&cands), Some(1));
        assert_eq!(SltfTape.choose(&cands), Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(Fcfs.choose(&[]), None);
        assert_eq!(BatchByTape.choose(&[]), None);
        assert_eq!(SltfTape.choose(&[]), None);
    }

    #[test]
    fn only_fcfs_is_sequential() {
        assert!(Fcfs.sequential());
        assert!(!BatchByTape.sequential());
        assert!(!SltfTape.sequential());
    }

    #[test]
    fn kind_round_trips_through_labels() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.build().name(), kind.label());
        }
        assert_eq!(
            PolicyKind::parse("batch-by-tape"),
            Some(PolicyKind::BatchByTape)
        );
        assert_eq!(PolicyKind::parse("sltf-tape"), Some(PolicyKind::SltfTape));
        assert_eq!(PolicyKind::parse("nope"), None);
    }
}
