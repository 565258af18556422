//! Seek-optimised service order of objects on one tape.
//!
//! "The objects retrieving order within a tape is optimized to reduce the
//! data seek time based on object location information retrieved from the
//! indexing database" (§6). On a linear medium where reading an extent
//! carries the head from its start to its end, the total seek of a service
//! order is the head travel *between* extents.
//!
//! Finding the optimum is the Linear Tape Scheduling Problem (LTSP —
//! Honoré, Simon & Suter; Cardonha & Villa Real): reads displace the head
//! forward, so it is not plain sortedness. The engines pick a planner via
//! [`SeekPolicy`] and call [`plan_with`]; three planners exist, forming the
//! lattice `exact ≤ greedy` and `exact ≤ approx ≤ 2·exact`:
//!
//! * [`SeekPolicy::Greedy`] — the default:
//!   evaluates a fixed family of five sweep-shaped candidate orders
//!   (ascending; above-then-below ascending/descending; nearest-below hop;
//!   below-descending first). Cheap, and usually within a few percent of
//!   optimal — but a *measured* regime exists where every sweep loses
//!   (see the `greedy_loses_to_the_dp_on_the_pinned_regime` test: a long
//!   extent just below the head whose read carries the head upward for
//!   free defeats all five shapes by >30%).
//! * [`SeekPolicy::ExactDp`] — a polynomial dynamic
//!   program in the spirit of the exact LTSP algorithms. The key
//!   asymmetry: a read traverses its extent's span *upward for free*
//!   (seek cost counts only inter-extent travel), while any downward
//!   crossing pays full distance. So an optimal head path is a sequence
//!   of descending "dips" ending in one final ascent — equivalently,
//!   some optimal order **partitions the position-sorted extents into
//!   consecutive runs, serves the runs top-down, and serves each run in
//!   ascending order** (one upward pass per run picks up every extent in
//!   it en route). The DP searches all such partitions: state `(r, j)` =
//!   least remaining travel when the lowest `r` extents are unserved and
//!   the head sits at the end of extent `j`; a transition peels the next
//!   run `k..r` off the top of the unserved prefix. `O(n²)` states,
//!   `O(n)` per transition, choice tables reconstruct the order. This is
//!   provably optimal for **pairwise-disjoint** extents — the engine
//!   invariant; placement never overlaps extents on one tape — and is
//!   differentially pinned to the permutation oracle in tests. (With
//!   overlap the free-ride argument breaks, so on overlapping input
//!   the DP detects the violated precondition and falls back to the
//!   greedy sweep.)
//! * [`SeekPolicy::Approx`] — a guaranteed-ratio sweep
//!   for large batches: the cheaper of the plain ascending sweep and
//!   below-descending-then-above-ascending. For disjoint extents the
//!   ascending sweep alone costs `|h − m| + G` (head `h`, lowest offset
//!   `m`, `G` = the sum of inter-extent gaps), while every order pays at
//!   least `G` (each gap is crossed by seeks, never by reads) and at
//!   least `(h − m)⁺` (the head must reach `m`) — so the sweep is at most
//!   `2·OPT`, and *equal* to OPT when the head starts below every extent.
//!
//! The brute-force permutation oracle (`oracle::optimal_order`) is the
//! differential wall the DP is tested against: compiled only under
//! `cfg(test)` or the `oracle` feature, it pins `ExactDp` to the true
//! optimum on every randomized disjoint case.

use tapesim_model::tape::Extent;
use tapesim_model::Bytes;

/// Which planner orders the extents of one tape job.
///
/// Per-tape-local: the choice never changes which tapes are mounted or
/// how batches form, only the in-tape service order — so parallel
/// partition eligibility and cross-library behaviour are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeekPolicy {
    /// The five-candidate sweep; bit-identical to every run recorded
    /// before seek policies existed. The default.
    #[default]
    Greedy,
    /// The interval DP: optimal for disjoint extents, greedy fallback on
    /// overlapping input.
    ExactDp,
    /// The two-candidate sweep with a proven factor-2 bound on disjoint
    /// extents.
    Approx,
}

impl SeekPolicy {
    /// Parses a CLI spelling: `greedy`, `exact` or `approx`.
    pub fn parse(text: &str) -> Option<SeekPolicy> {
        match text.trim().to_ascii_lowercase().as_str() {
            "greedy" => Some(SeekPolicy::Greedy),
            "exact" | "exact-dp" | "exactdp" => Some(SeekPolicy::ExactDp),
            "approx" => Some(SeekPolicy::Approx),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            SeekPolicy::Greedy => "greedy",
            SeekPolicy::ExactDp => "exact",
            SeekPolicy::Approx => "approx",
        }
    }
}

/// Total inter-extent head travel (bytes) of serving `order` from `head`.
pub fn seek_distance(head: Bytes, order: &[Extent]) -> u64 {
    let mut pos = head;
    let mut travel = 0u64;
    for e in order {
        travel += pos.distance(e.offset).get();
        pos = e.end();
    }
    travel
}

/// Plans the service order under `policy`, writing it into `out`
/// (cleared first) and reusing its capacity across calls. The one
/// planner entry point; extents must all lie on the same tape, and the
/// result contains each exactly once.
pub fn plan_with(policy: SeekPolicy, head: Bytes, extents: &[Extent], out: &mut Vec<Extent>) {
    match policy {
        SeekPolicy::Greedy => plan_into(head, extents, out),
        SeekPolicy::ExactDp => exact_into(head, extents, out),
        SeekPolicy::Approx => approx_into(head, extents, out),
    }
}

/// Plans the service order under `policy` and hands it back as a slice:
/// `extents` itself when it already is the planner's answer, otherwise
/// `out`, filled by [`plan_with`]. The input is its own plan when it
/// holds at most one extent (any policy), or when its offsets ascend and
/// the head sits at or below the first one under [`SeekPolicy::Greedy`]
/// or [`SeekPolicy::Approx`]: both then keep the plain ascending sweep,
/// which a stable sort of ascending input leaves as it is. The exact DP
/// sorts by `(offset, size)`, so it borrows only the trivial case.
///
/// Two extents under [`SeekPolicy::Greedy`] take the sweep's closed
/// form: its five shapes reduce to the pair's two orders, and the first
/// minimum keeps the ascending one unless the head is above the lower
/// offset and the other order is strictly shorter. That answer is
/// borrowed when it is the input order and written into `out` otherwise.
#[inline]
pub fn plan_borrowed<'a>(
    policy: SeekPolicy,
    head: Bytes,
    extents: &'a [Extent],
    out: &'a mut Vec<Extent>,
) -> &'a [Extent] {
    match *extents {
        [] | [_] => return extents,
        [a, b] if policy == SeekPolicy::Greedy => {
            let descending = b.offset < a.offset;
            let (lo, hi) = if descending { (b, a) } else { (a, b) };
            let swap =
                head > lo.offset && seek_distance(head, &[hi, lo]) < seek_distance(head, &[lo, hi]);
            if swap == descending {
                return extents;
            }
            out.clear();
            out.extend([b, a]);
            return out;
        }
        [first, ..]
            if policy != SeekPolicy::ExactDp
                && head <= first.offset
                && extents.is_sorted_by_key(|e| e.offset) =>
        {
            return extents;
        }
        _ => {}
    }
    plan_with(policy, head, extents, out);
    out
}

/// The allocating form of the greedy sweep: materialises every candidate
/// order and keeps the cheapest (see module docs). The reference the
/// scratch-backed [`plan_into`] is pinned against.
#[cfg(test)]
fn plan(head: Bytes, extents: &[Extent]) -> Vec<Extent> {
    if extents.len() <= 1 {
        return extents.to_vec();
    }
    let mut asc: Vec<Extent> = extents.to_vec();
    asc.sort_by_key(|e| e.offset);
    let (below, above): (Vec<Extent>, Vec<Extent>) = asc.iter().partition(|e| e.offset < head);
    let below_desc: Vec<Extent> = below.iter().rev().copied().collect();

    let mut candidates: Vec<Vec<Extent>> = Vec::with_capacity(5);
    // 1. Plain ascending sweep.
    candidates.push(asc.clone());
    // 2. Above ascending, then below ascending.
    let mut c = above.clone();
    c.extend(below.iter().copied());
    candidates.push(c);
    // 3. Above ascending, then below descending.
    let mut c = above.clone();
    c.extend(below_desc.iter().copied());
    candidates.push(c);
    // 5. Short backward hop to the nearest below-extent, then a plain
    //    ascending sweep of the rest. Wins when one extent sits just
    //    behind the head and the others are far below: the hop costs
    //    little and the sweep restarts from the bottom.
    if let Some(&nearest_below) = below.last() {
        let mut c = vec![nearest_below];
        c.extend(below[..below.len() - 1].iter().copied());
        c.extend(above.iter().copied());
        candidates.push(c);
    }
    // 4. Below descending, then above ascending.
    let mut c = below_desc;
    c.extend(above);
    candidates.push(c);

    candidates
        .into_iter()
        .map(|c| (seek_distance(head, &c), c))
        // First minimum on ties, matching `min_by_key`; the candidate list
        // is never empty, so the fallback is unreachable.
        .reduce(|best, next| if next.0 < best.0 { next } else { best })
        .map(|(_, c)| c)
        .unwrap_or_default()
}

/// The greedy sweep: the cheapest of the five sweep-shaped candidate
/// orders (see module docs), written into `out` (cleared first). No
/// candidate is materialised: each sweep shape is walked as an index
/// sequence over one sorted buffer and only the winner is laid out, by
/// in-place reverse/rotate. Ties keep the first minimum in the candidate
/// order below.
fn plan_into(head: Bytes, extents: &[Extent], out: &mut Vec<Extent>) {
    out.clear();
    out.extend_from_slice(extents);
    if extents.len() <= 1 {
        return;
    }
    out.sort_by_key(|e| e.offset);
    // `out` is ascending; the first `k` extents lie below the head.
    let k = out.partition_point(|e| e.offset < head);
    let n = out.len();
    if k == 0 {
        // Nothing below the head: every sweep shape degenerates to the
        // plain ascending order `out` already holds, and the
        // first-minimum tie-break picks exactly that candidate.
        return;
    }

    let dist = |order: &mut dyn Iterator<Item = usize>| -> u64 {
        let mut pos = head;
        let mut travel = 0u64;
        for i in order {
            let e = &out[i];
            travel += pos.distance(e.offset).get();
            pos = e.end();
        }
        travel
    };
    // The candidates in evaluation order: ascending; above-then-below;
    // above-then-below-descending; nearest-below hop (only when a below
    // part exists); below-descending first. Strict `<` keeps the first
    // minimum on ties.
    let mut best_shape = 0usize;
    let mut best_travel = dist(&mut (0..n));
    let mut consider = |shape: usize, travel: u64| {
        if travel < best_travel {
            best_travel = travel;
            best_shape = shape;
        }
    };
    consider(1, dist(&mut (k..n).chain(0..k)));
    consider(2, dist(&mut (k..n).chain((0..k).rev())));
    if k > 0 {
        consider(
            3,
            dist(&mut std::iter::once(k - 1).chain(0..k - 1).chain(k..n)),
        );
    }
    consider(4, dist(&mut (0..k).rev().chain(k..n)));

    match best_shape {
        0 => {}
        1 => out.rotate_left(k),
        2 => {
            out[..k].reverse();
            out.rotate_left(k);
        }
        3 => out[..k].rotate_right(1),
        _ => out[..k].reverse(),
    }
}

/// An unreached DP state / unset choice.
const UNREACHED: u64 = u64::MAX;
const NO_CHOICE: usize = usize::MAX;

/// The exact partition DP (module docs): writes a seek-minimal order into
/// `out` (cleared first). Optimal whenever the extents are pairwise
/// disjoint — the placement invariant on one tape. On overlapping input
/// the free-ride structure can fail, so the precondition is checked and
/// the call falls back to the greedy sweep ([`plan_into`]), keeping the
/// lattice `exact ≤ greedy` unconditionally true.
fn exact_into(head: Bytes, extents: &[Extent], out: &mut Vec<Extent>) {
    out.clear();
    out.extend_from_slice(extents);
    let n = out.len();
    if n <= 1 {
        return;
    }
    // Position order; the size tiebreak parks zero-length extents before
    // any extent spanning past their offset, so touching layouts
    // (`prev.end() == next.offset`) stay within the disjoint precondition.
    out.sort_by_key(|e| (e.offset, e.size));
    let disjoint = out.windows(2).all(|pair| match pair {
        [a, b] => a.end() <= b.offset,
        _ => true,
    });
    if !disjoint {
        plan_into(head, extents, out);
        return;
    }

    let starts: Vec<u64> = out.iter().map(|e| e.offset.get()).collect();
    let ends: Vec<u64> = out.iter().map(|e| e.end().get()).collect();
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    // gap_sum[i] = Σ_{m<i} (starts[m+1] − ends[m]): prefix sums of the
    // inter-extent gaps, so an ascending pass over the run `k..=i` pays
    // `gap_sum[i] − gap_sum[k]` beyond its first seek. Disjointness makes
    // every term non-negative.
    let mut gap_sum: Vec<u64> = Vec::with_capacity(n);
    let mut acc = 0u64;
    for i in 0..n {
        if i > 0 {
            acc += at(&starts, i).saturating_sub(at(&ends, i - 1));
        }
        gap_sum.push(acc);
    }
    let gaps = |k: usize, i: usize| at(&gap_sum, i).saturating_sub(at(&gap_sum, k));

    // State `(r, j)`: the lowest `r` extents are still unserved and the
    // head sits at `ends[j]` (`j ≥ r`: everything at or above the head's
    // extent is already served). A transition peels the next run
    // `k..r` off the top of the unserved prefix: descend to `starts[k]`,
    // ascend through the whole run, leaving state `(k, r − 1)`.
    let state = |r: usize, j: usize| r * n + j;
    let mut cost = vec![UNREACHED; n * n];
    let mut choice = vec![NO_CHOICE; n * n];
    // `cost[(0, j)]` is 0 (nothing left). Fill `r` ascending: `(r, j)`
    // depends only on `(k, r − 1)` with `k < r`. Smallest `k` wins ties
    // (first minimum under strict `<`): prefer the longest run — fewest
    // direction changes — deterministically.
    for r in 0..n {
        for j in r..n {
            let mut best = if r == 0 { 0 } else { UNREACHED };
            let mut pick = NO_CHOICE;
            for k in 0..r {
                let rest = cost.get(state(k, r - 1)).copied().unwrap_or(UNREACHED);
                if rest == UNREACHED {
                    continue;
                }
                let descend = at(&ends, j).abs_diff(at(&starts, k));
                let run = descend + gaps(k, r - 1) + rest;
                if run < best {
                    best = run;
                    pick = k;
                }
            }
            if let (Some(slot), Some(ch)) = (cost.get_mut(state(r, j)), choice.get_mut(state(r, j)))
            {
                *slot = best;
                *ch = pick;
            }
        }
    }

    // The first run `k..n` starts from the real head position instead of
    // a served extent's end; same tie-break.
    let mut best = UNREACHED;
    let mut first = NO_CHOICE;
    for k in 0..n {
        let rest = cost.get(state(k, n - 1)).copied().unwrap_or(UNREACHED);
        if rest == UNREACHED {
            continue;
        }
        let seek = head.get().abs_diff(at(&starts, k));
        let total = seek + gaps(k, n - 1) + rest;
        if total < best {
            best = total;
            first = k;
        }
    }

    // Replay the chosen runs top-down, each run ascending.
    let mut order: Vec<Extent> = Vec::with_capacity(n);
    let mut r = n;
    let mut k = first;
    while k != NO_CHOICE && r > 0 {
        order.extend(out.get(k..r).into_iter().flatten().copied());
        let next_r = k;
        k = if next_r == 0 {
            NO_CHOICE
        } else {
            choice
                .get(state(next_r, r - 1))
                .copied()
                .unwrap_or(NO_CHOICE)
        };
        r = next_r;
    }
    if order.len() == n {
        out.clear();
        out.extend_from_slice(&order);
    }
}

/// The ratio-bounded sweep (module docs): the cheaper of the plain
/// ascending order and below-descending-then-above-ascending, written
/// into `out` (cleared first). For pairwise-disjoint extents the result
/// is at most twice the optimum — and exactly optimal when the head
/// starts at or below the lowest extent.
fn approx_into(head: Bytes, extents: &[Extent], out: &mut Vec<Extent>) {
    out.clear();
    out.extend_from_slice(extents);
    let n = out.len();
    if n <= 1 {
        return;
    }
    out.sort_by_key(|e| e.offset);
    let k = out.partition_point(|e| e.offset < head);
    if k == 0 {
        // Head below everything: the ascending sweep is optimal (the
        // `|h − m| + G` cost meets the lower bound with equality).
        return;
    }
    let dist = |order: &mut dyn Iterator<Item = usize>| -> u64 {
        let mut pos = head;
        let mut travel = 0u64;
        for e in order.filter_map(|i| out.get(i)) {
            travel += pos.distance(e.offset).get();
            pos = e.end();
        }
        travel
    };
    let asc = dist(&mut (0..n));
    let down_up = dist(&mut (0..k).rev().chain(k..n));
    // Strict `<`: the ascending shape wins ties, deterministically.
    if down_up < asc {
        out[..k].reverse();
    }
}

/// The brute-force LTSP oracle: exhaustive permutation search, `O(n!)`.
///
/// Sealed off from production builds — compiled only for tests and under
/// the explicit `oracle` feature (the CI differential leg) — so no engine
/// path can ever reach a factorial search. Its sole purpose is the
/// differential wall: every planner is measured against the true optimum.
#[cfg(any(test, feature = "oracle"))]
pub mod oracle {
    use super::{seek_distance, Bytes, Extent};

    /// Exhaustive optimum over all permutations of at most 9 extents.
    pub fn optimal_order(head: Bytes, extents: &[Extent]) -> Vec<Extent> {
        assert!(extents.len() <= 9, "exhaustive search capped at 9 extents");
        // Seed with the identity order so `best` always holds a permutation.
        let mut best = (seek_distance(head, extents), extents.to_vec());
        let mut current = extents.to_vec();
        permute(&mut current, 0, &mut |perm| {
            let d = seek_distance(head, perm);
            if d < best.0 {
                best = (d, perm.to_vec());
            }
        });
        best.1
    }

    fn permute<F: FnMut(&[Extent])>(items: &mut [Extent], k: usize, visit: &mut F) {
        if k == items.len() {
            visit(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, visit);
            items.swap(k, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::optimal_order;
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use tapesim_model::ObjectId;

    fn ext(id: u32, offset_gb: u64, size_gb: u64) -> Extent {
        Extent {
            object: ObjectId(id),
            offset: Bytes::gb(offset_gb),
            size: Bytes::gb(size_gb),
        }
    }

    /// A random pairwise-disjoint extent set (zero-length extents and
    /// touching boundaries allowed) plus a head position, from raw gap
    /// and size draws.
    fn disjoint_case(gaps: &[(u64, u64)], head_frac: u64) -> (Bytes, Vec<Extent>) {
        let mut extents = Vec::new();
        let mut cursor = 0u64;
        for (i, &(gap, size)) in gaps.iter().enumerate() {
            cursor += gap % 64;
            extents.push(ext(i as u32, cursor, size % 32));
            cursor += size % 32;
        }
        let head = Bytes::gb(head_frac % (cursor + 1));
        (head, extents)
    }

    fn cost(policy: SeekPolicy, head: Bytes, extents: &[Extent]) -> u64 {
        let mut out = Vec::new();
        plan_with(policy, head, extents, &mut out);
        seek_distance(head, &out)
    }

    #[test]
    fn forward_sweep_when_head_below_all() {
        let extents = [ext(0, 10, 1), ext(1, 5, 1), ext(2, 20, 1)];
        let order = plan(Bytes::ZERO, &extents);
        let ids: Vec<u32> = order.iter().map(|e| e.object.0).collect();
        assert_eq!(ids, vec![1, 0, 2]);
        // Travel: 0→5, 6→10, 11→20 = 5+4+9.
        assert_eq!(seek_distance(Bytes::ZERO, &order), Bytes::gb(18).get());
    }

    #[test]
    fn nearest_first_when_all_below_and_sparse() {
        // Head at 200 GB, sparse extents below: grab on the way down.
        let extents = [ext(0, 10, 2), ext(1, 60, 5)];
        let order = plan(Bytes::gb(200), &extents);
        assert_eq!(order[0].object, ObjectId(1), "highest below-extent first");
        // 200→60 (140) + 65→10 (55) = 195 GB of travel.
        assert_eq!(seek_distance(Bytes::gb(200), &order), Bytes::gb(195).get());
    }

    #[test]
    fn above_first_when_head_in_the_middle() {
        let extents = [ext(0, 101, 2), ext(1, 2, 1)];
        let order = plan(Bytes::gb(100), &extents);
        assert_eq!(
            order[0].object,
            ObjectId(0),
            "serve the near-above extent first"
        );
    }

    #[test]
    fn matches_exhaustive_on_canonical_cases() {
        let cases: Vec<(u64, Vec<Extent>)> = vec![
            (0, vec![ext(0, 10, 2), ext(1, 30, 5), ext(2, 1, 1)]),
            (
                50,
                vec![ext(0, 10, 2), ext(1, 60, 5), ext(2, 45, 3), ext(3, 90, 1)],
            ),
            (200, vec![ext(0, 10, 2), ext(1, 60, 5)]),
            (
                35,
                vec![ext(0, 30, 4), ext(1, 36, 4), ext(2, 20, 4), ext(3, 50, 4)],
            ),
        ];
        for (head_gb, extents) in cases {
            let head = Bytes::gb(head_gb);
            let ours = seek_distance(head, &plan(head, &extents));
            let best = seek_distance(head, &optimal_order(head, &extents));
            assert_eq!(ours, best, "head={head_gb} GB, extents={extents:?}");
        }
    }

    #[test]
    fn within_a_few_percent_of_optimal_on_random_cases() {
        let mut rng = ChaCha12Rng::seed_from_u64(21);
        for case in 0..200 {
            let n = rng.gen_range(2..=6);
            let mut extents = Vec::new();
            let mut cursor = 0u64;
            for i in 0..n {
                cursor += rng.gen_range(0..60);
                let size = rng.gen_range(1..=16);
                extents.push(ext(i, cursor, size));
                cursor += size;
            }
            let subset: Vec<Extent> = extents
                .iter()
                .filter(|_| rng.gen_bool(0.7))
                .copied()
                .collect();
            if subset.is_empty() {
                continue;
            }
            let head = Bytes::gb(rng.gen_range(0..=cursor));
            let ours = seek_distance(head, &plan(head, &subset));
            let best = seek_distance(head, &optimal_order(head, &subset));
            assert!(
                ours as f64 <= best as f64 * 1.10 + 1.0,
                "case {case}: ours {ours} vs optimal {best} (head {head:?}, {subset:?})"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(plan(Bytes::ZERO, &[]).is_empty());
        let one = [ext(0, 7, 1)];
        assert_eq!(plan(Bytes::gb(50), &one), one.to_vec());
        for policy in [SeekPolicy::Greedy, SeekPolicy::ExactDp, SeekPolicy::Approx] {
            let mut out = vec![ext(9, 9, 9)];
            plan_with(policy, Bytes::ZERO, &[], &mut out);
            assert!(out.is_empty(), "{policy:?}");
            plan_with(policy, Bytes::gb(50), &one, &mut out);
            assert_eq!(out, one.to_vec(), "{policy:?}");
        }
    }

    /// The scratch-backed planner must return exactly what the allocating
    /// reference returns — order, not just cost — across random heads,
    /// extent layouts (including ties on offset) and a reused scratch
    /// buffer.
    #[test]
    fn plan_into_is_order_identical_to_plan() {
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        let mut scratch = Vec::new();
        for case in 0..500 {
            let n = rng.gen_range(0..=7);
            let mut extents = Vec::new();
            for i in 0..n {
                // Coarse offsets make equal-offset ties common, exercising
                // the stable sort and first-minimum tie-breaks.
                let offset = rng.gen_range(0..12) * 25;
                let size = rng.gen_range(1..=20);
                extents.push(ext(i, offset, size));
            }
            let head = Bytes::gb(rng.gen_range(0..=400));
            let expected = plan(head, &extents);
            plan_into(head, &extents, &mut scratch);
            assert_eq!(
                scratch, expected,
                "case {case}: head {head:?}, extents {extents:?}"
            );
        }
    }

    /// `plan_with(Greedy, ..)` must be the default planner verbatim —
    /// order-identical, not just cost-identical — so threading the policy
    /// through the engines cannot move a single golden bit.
    #[test]
    fn plan_with_greedy_is_order_identical_to_plan_into() {
        let mut rng = ChaCha12Rng::seed_from_u64(41);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..300 {
            let n = rng.gen_range(0..=8);
            let extents: Vec<Extent> = (0..n)
                .map(|i| ext(i, rng.gen_range(0..15) * 20, rng.gen_range(0..=12)))
                .collect();
            let head = Bytes::gb(rng.gen_range(0..=350));
            plan_into(head, &extents, &mut a);
            plan_with(SeekPolicy::Greedy, head, &extents, &mut b);
            assert_eq!(a, b, "head {head:?}, extents {extents:?}");
        }
    }

    #[test]
    fn result_is_a_permutation() {
        let extents: Vec<Extent> = (0..6)
            .map(|i| ext(i, 13 * (i as u64 + 1) % 97, 2))
            .collect();
        let order = plan(Bytes::gb(40), &extents);
        assert_eq!(order.len(), extents.len());
        let mut ids: Vec<u32> = order.iter().map(|e| e.object.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    /// The committed adversarial regime: a long extent starting just
    /// below the head. Reading it carries the head upward for free, so
    /// the optimal order serves it first, grabs the adjacent above-extent
    /// and only then descends — a shape none of the five sweeps can
    /// express. Every candidate's cost is pinned, and the measured gap
    /// turns the old module-doc claim "never far from optimal" into a
    /// number: greedy pays 231 GB of travel against the DP's 175 GB,
    /// a 32% regression.
    #[test]
    fn greedy_loses_to_the_dp_on_the_pinned_regime() {
        let head = Bytes::gb(180);
        let extents = [
            ext(0, 56, 10),
            ext(1, 120, 2),
            ext(2, 137, 5),
            ext(3, 179, 29),
            ext(4, 210, 11),
        ];
        // Each sweep candidate, costed by hand (and re-derived here):
        // ascending 232, above+below-asc 301, above+below-desc 231,
        // nearest-below hop 290, below-desc+above-asc 304.
        let greedy = cost(SeekPolicy::Greedy, head, &extents);
        assert_eq!(greedy, Bytes::gb(231).get(), "five-candidate minimum");
        let exact = cost(SeekPolicy::ExactDp, head, &extents);
        assert_eq!(exact, Bytes::gb(175).get(), "DP optimum");
        let oracle_best = seek_distance(head, &optimal_order(head, &extents));
        assert_eq!(exact, oracle_best, "the DP found the true optimum");
        // The pinned gap: 56 GB of extra travel, a >1.3x ratio.
        assert_eq!(greedy - exact, Bytes::gb(56).get());
        assert!(greedy as f64 > 1.3 * exact as f64);
        // The optimal order itself: serve the long just-below extent
        // first (its read ends above the head), hop to the adjacent
        // above-extent, then descend through the rest.
        let mut order = Vec::new();
        exact_into(head, &extents, &mut order);
        let ids: Vec<u32> = order.iter().map(|e| e.object.0).collect();
        assert_eq!(ids, vec![3, 4, 2, 1, 0]);
    }

    /// Differential wall: the DP must equal the brute-force permutation
    /// oracle on every randomized disjoint case (the acceptance
    /// criterion), across heads, duplicate boundaries and zero-length
    /// extents.
    #[test]
    fn exact_dp_matches_the_oracle_on_random_disjoint_cases() {
        let mut rng = ChaCha12Rng::seed_from_u64(91);
        let mut out = Vec::new();
        for case in 0..400 {
            let n = rng.gen_range(1..=if case % 10 == 0 { 9 } else { 7 });
            let mut extents = Vec::new();
            let mut cursor = 0u64;
            for i in 0..n {
                cursor += rng.gen_range(0..48);
                // Zero-length extents at touching boundaries included.
                let size = rng.gen_range(0..=24);
                extents.push(ext(i, cursor, size));
                cursor += size;
            }
            let head = Bytes::gb(rng.gen_range(0..=cursor + 20));
            exact_into(head, &extents, &mut out);
            let ours = seek_distance(head, &out);
            let best = seek_distance(head, &optimal_order(head, &extents));
            assert_eq!(
                ours, best,
                "case {case}: DP {ours} vs oracle {best} (head {head:?}, {extents:?})"
            );
        }
    }

    /// On overlapping input — outside the DP's exactness precondition —
    /// `exact_into` must detect the violation and produce exactly the
    /// greedy order, keeping `exact ≤ greedy` unconditional.
    #[test]
    fn exact_dp_falls_back_to_greedy_on_overlap() {
        let cases = [
            // One extent strictly containing another's start.
            (60, vec![ext(0, 0, 1), ext(1, 50, 950), ext(2, 100, 1)]),
            // A zero-length extent strictly inside another's span.
            (10, vec![ext(0, 5, 40), ext(1, 20, 0), ext(2, 60, 3)]),
        ];
        let mut exact = Vec::new();
        let mut greedy = Vec::new();
        for (head_gb, extents) in cases {
            let head = Bytes::gb(head_gb);
            exact_into(head, &extents, &mut exact);
            plan_into(head, &extents, &mut greedy);
            assert_eq!(exact, greedy, "head {head:?}, extents {extents:?}");
        }
    }

    proptest! {
        /// `exact ≤ greedy` at every size — disjoint (DP regime) or not
        /// (fallback regime) — plus oracle equality when small enough.
        #[test]
        fn exact_never_exceeds_greedy(
            gaps in proptest::collection::vec((0u64..64, 0u64..32), 0..24),
            head_frac in 0u64..10_000,
        ) {
            let (head, extents) = disjoint_case(&gaps, head_frac);
            let exact = cost(SeekPolicy::ExactDp, head, &extents);
            let greedy = cost(SeekPolicy::Greedy, head, &extents);
            prop_assert!(
                exact <= greedy,
                "exact {exact} > greedy {greedy} (head {head:?}, {extents:?})"
            );
            if extents.len() <= 7 {
                let best = seek_distance(head, &optimal_order(head, &extents));
                prop_assert_eq!(exact, best, "DP missed the optimum");
            }
        }

        /// The approximation lattice on disjoint extents:
        /// `exact ≤ approx ≤ 2·exact`, with equality when the head starts
        /// below every extent.
        #[test]
        fn approx_is_within_twice_exact(
            gaps in proptest::collection::vec((0u64..64, 0u64..32), 1..24),
            head_frac in 0u64..10_000,
        ) {
            let (head, extents) = disjoint_case(&gaps, head_frac);
            let exact = cost(SeekPolicy::ExactDp, head, &extents);
            let approx = cost(SeekPolicy::Approx, head, &extents);
            prop_assert!(exact <= approx, "lattice broken: exact {exact} > approx {approx}");
            prop_assert!(
                approx <= 2 * exact,
                "ratio bound broken: approx {approx} > 2x exact {exact} \
                 (head {head:?}, {extents:?})"
            );
            let lowest = extents.iter().map(|e| e.offset).min();
            if lowest.is_some_and(|m| head <= m) {
                prop_assert_eq!(approx, exact, "head below all extents: sweep must be optimal");
            }
        }

        /// Every policy emits a permutation — each input extent exactly
        /// once — across duplicate offsets and zero-length extents.
        #[test]
        fn every_policy_returns_a_permutation(
            raw in proptest::collection::vec((0u64..300, 0u64..25), 0..24),
            head_gb in 0u64..400,
        ) {
            let extents: Vec<Extent> = raw
                .iter()
                .enumerate()
                .map(|(i, &(offset, size))| ext(i as u32, offset, size))
                .collect();
            let head = Bytes::gb(head_gb);
            let mut out = Vec::new();
            for policy in [
                SeekPolicy::Greedy,
                SeekPolicy::ExactDp,
                SeekPolicy::Approx,
            ] {
                plan_with(policy, head, &extents, &mut out);
                prop_assert_eq!(out.len(), extents.len(), "{:?} dropped extents", policy);
                let mut ids: Vec<u32> = out.iter().map(|e| e.object.0).collect();
                ids.sort_unstable();
                let mut want: Vec<u32> = (0..extents.len() as u32).collect();
                want.sort_unstable();
                prop_assert_eq!(ids, want, "{:?} is not a permutation", policy);
            }
        }
    }

    proptest! {
        /// The borrowed plan is `plan_with`'s order for every policy, on
        /// sorted and unsorted input with equal offsets, zero-size
        /// extents and heads at, below and between offsets; it is the
        /// input itself exactly when the input is its own plan, whatever
        /// the scratch held before.
        #[test]
        fn borrowed_plan_equals_plan_with(
            raw in proptest::collection::vec((0u64..40, 0u64..4), 0..8),
            sorted in any::<bool>(),
            head_pick in 0usize..4,
            at in 0usize..8,
        ) {
            let mut extents: Vec<Extent> = raw
                .iter()
                .enumerate()
                .map(|(i, &(offset, size))| ext(i as u32, offset, size))
                .collect();
            if sorted {
                extents.sort_by_key(|e| e.offset);
            }
            let lowest = extents.iter().map(|e| e.offset).min().unwrap_or(Bytes::ZERO);
            let head = match head_pick {
                0 => Bytes::ZERO,
                1 => lowest,
                2 => extents.get(at % extents.len().max(1)).map_or(Bytes::ZERO, |e| e.offset),
                _ => Bytes::gb(at as u64 * 5 + 1),
            };
            for policy in [SeekPolicy::Greedy, SeekPolicy::ExactDp, SeekPolicy::Approx] {
                let mut want = Vec::new();
                plan_with(policy, head, &extents, &mut want);
                let mut scratch = vec![ext(99, 7, 1); 3];
                let got = plan_borrowed(policy, head, &extents, &mut scratch);
                prop_assert_eq!(got, &want[..], "{:?} from {:?}", policy, head);
                let own = extents.len() <= 1
                    || (policy != SeekPolicy::ExactDp
                        && extents.is_sorted_by_key(|e| e.offset)
                        && head <= lowest)
                    || (policy == SeekPolicy::Greedy && extents.len() == 2 && want == extents);
                prop_assert_eq!(
                    std::ptr::eq(got, &extents[..]),
                    own,
                    "{:?}: borrowed {} extents from {:?}",
                    policy,
                    extents.len(),
                    head
                );
            }
        }
    }

    /// The greedy sweep's two-extent closed form, exhaustively over
    /// small offsets, sizes (zero included, overlaps included) and heads:
    /// it equals `plan_with`, and it borrows exactly when that answer is
    /// the input order.
    #[test]
    fn two_extent_closed_form_matches_the_sweep() {
        let mut swapped = 0;
        for (a_off, a_size, b_off, b_size) in (0..7u64).flat_map(|ao| {
            (0..4u64).flat_map(move |asz| {
                (0..7u64).flat_map(move |bo| (0..4u64).map(move |bsz| (ao, asz, bo, bsz)))
            })
        }) {
            let extents = [ext(0, a_off, a_size), ext(1, b_off, b_size)];
            for head_gb in 0..9 {
                let head = Bytes::gb(head_gb);
                let mut want = Vec::new();
                plan_with(SeekPolicy::Greedy, head, &extents, &mut want);
                let mut scratch = Vec::new();
                let got = plan_borrowed(SeekPolicy::Greedy, head, &extents, &mut scratch);
                assert_eq!(got, &want[..], "head {head_gb} GB, {extents:?}");
                assert_eq!(std::ptr::eq(got, &extents[..]), want == extents);
                swapped += usize::from(want != extents);
            }
        }
        assert!(swapped > 0);
    }

    #[test]
    fn seek_policy_parses_cli_spellings() {
        assert_eq!(SeekPolicy::parse("greedy"), Some(SeekPolicy::Greedy));
        assert_eq!(SeekPolicy::parse("exact"), Some(SeekPolicy::ExactDp));
        assert_eq!(SeekPolicy::parse("EXACT-DP"), Some(SeekPolicy::ExactDp));
        assert_eq!(SeekPolicy::parse(" approx "), Some(SeekPolicy::Approx));
        assert_eq!(SeekPolicy::parse("auto"), None);
        assert_eq!(SeekPolicy::parse("optimal"), None);
        assert_eq!(SeekPolicy::default(), SeekPolicy::Greedy);
        for policy in [SeekPolicy::Greedy, SeekPolicy::ExactDp, SeekPolicy::Approx] {
            assert_eq!(SeekPolicy::parse(policy.label()), Some(policy));
        }
    }
}
