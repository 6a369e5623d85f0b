//! Lazy min-heap index over prefetch-partition ejection costs.
//!
//! The paper's Eq. 11 prices ejecting a prefetched block `b` at
//!
//! ```text
//! C_pr(b) = p_b · (T_driver + T_stall(x)) / (d_remaining(b) − x)
//! ```
//!
//! where `d_remaining = distance − (period − issued_at)` decays by one per
//! access period. The engine needs the *cheapest* such block once per
//! eviction decision; a full scan is O(n) in the prefetch-partition size on
//! a per-reference hot path. This index answers the same argmin query in
//! amortised O(log n) by exploiting three structural facts:
//!
//! 1. `T_driver + T_stall(x)` is a constant within one query, so ordering
//!    by cost equals ordering by the ratio `ρ(b) = p_b / (due_b − period − x)`
//!    with `due_b = issued_at + distance` (the period the block's free
//!    window closes).
//! 2. `ρ(b)` is monotone **non-decreasing** in `period` (the denominator
//!    only shrinks), so any previously computed ρ is a valid *lower bound*
//!    forever after: a classic lazy-heap invariant. A popped minimum is
//!    refreshed to its current ρ and re-inserted; it is the true minimum
//!    exactly when its refreshed value still beats the next entry's stored
//!    lower bound.
//! 3. Once `due_b ≤ period + x` the cost is exactly `0.0` and stays there
//!    (the scan's `d_remaining ≤ x` early-out), so such blocks move to a
//!    dedicated zero-cost set ordered by recency alone.
//!
//! Tie-breaking replicates the exact scan bit-for-bit: the scan keeps the
//! *first* strict minimum in MRU-first iteration order, i.e. among equal
//! costs the most recently inserted block wins. Entries are invalidated
//! lazily: each carries the insertion sequence number and the stored-key
//! bits, and is discarded on pop if the live state disagrees (the block was
//! referenced, evicted, re-inserted, or its meta rewritten).
//!
//! The index works in the ratio domain ρ rather than the engine's fully
//! rounded cost domain. The two orders can disagree only when two distinct
//! `(p, denominator)` pairs produce bit-identical *costs* but distinct
//! ratios (a ~1-ulp rounding coincidence); the engine re-verifies against
//! the exact scan under `debug_assertions`.
//!
//! Stale copies are otherwise discarded only by queries, so a cache whose
//! policy never queries (next-limit) would grow the heaps forever. Once the
//! heaps hold more than `COMPACT_FACTOR × live + COMPACT_SLACK` entries
//! they are rebuilt from the live states, one copy per entry.
//! Every heap order is total, so this cannot change an answer; the
//! amortised cost is O(1) per push.

use crate::buffer_cache::PrefetchMeta;
use prefetch_hash::FxHashMap;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Heap copies allowed per live entry before a compaction (a fresh entry
/// needs two: one in `fresh`, one in `due`).
const COMPACT_FACTOR: usize = 4;
/// Heap copies allowed on top of the per-entry allowance, so small
/// indexes do not rebuild on every push.
const COMPACT_SLACK: usize = 1024;

/// Live facts about one resident prefetch entry, against which lazy heap
/// entries are validated.
#[derive(Clone, Copy, Debug)]
struct EntryState {
    /// Insertion sequence number; also the recency tie-breaker.
    seq: u64,
    /// `p_b` at insertion (or last meta rewrite).
    probability: f64,
    /// `issued_at + distance`: the period the free window closes.
    due: u64,
    /// Whether the cost has collapsed to exactly 0.0 (permanent).
    zeroed: bool,
    /// Bit pattern of the key currently stored in the fresh heap for this
    /// entry; older heap copies carry older bits and are discarded.
    key_bits: u64,
}

/// Max-heap entry ordered so that the heap's top is the *best* victim:
/// smallest stored key, then largest sequence number (most recent).
#[derive(Clone, Copy, Debug)]
struct FreshEntry {
    key: f64,
    seq: u64,
    block: u64,
}

impl PartialEq for FreshEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FreshEntry {}

impl PartialOrd for FreshEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FreshEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed key comparison: BinaryHeap is a max-heap, so "greater"
        // must mean "cheaper, then more recent".
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| self.seq.cmp(&other.seq))
            .then_with(|| self.block.cmp(&other.block))
    }
}

/// The lazy victim index. Maintained by [`crate::BufferCache`] on every
/// prefetch-partition mutation; queried via
/// [`crate::BufferCache::cheapest_prefetch_victim`].
#[derive(Clone, Debug, Default)]
pub(crate) struct VictimIndex {
    states: FxHashMap<u64, EntryState>,
    /// Entries with (still) positive cost, keyed by a lower bound of ρ.
    fresh: BinaryHeap<FreshEntry>,
    /// `(due, seq, block)` min-heap: drains entries whose free window has
    /// closed into the zero set.
    due: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// `(seq, block)` max-heap over zero-cost entries: recency decides.
    zeroed: BinaryHeap<(u64, u64)>,
    next_seq: u64,
}

impl VictimIndex {
    /// Register a newly inserted prefetch entry.
    pub(crate) fn on_insert(&mut self, block: u64, meta: &PrefetchMeta) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let due = meta.issued_at.saturating_add(u64::from(meta.distance));
        // p ≤ 0 never yields a positive cost; park it in the zero set now.
        let zeroed = meta.probability <= 0.0 || meta.probability.is_nan();
        // ρ at `period = issued_at` is p/(distance − x) ≥ p/distance, so
        // p/distance is a valid lower bound for any query time (ρ only
        // grows). distance == 0 gives +inf, but such entries are due
        // immediately and drain to the zero set before the bound matters.
        let key = if zeroed { 0.0 } else { meta.probability / f64::from(meta.distance) };
        self.states.insert(
            block,
            EntryState { seq, probability: meta.probability, due, zeroed, key_bits: key.to_bits() },
        );
        self.push_copies(block, seq, due, zeroed, key);
    }

    /// Drop a departed entry (referenced, evicted, or cancelled). Heap
    /// copies are left behind and discarded lazily on pop.
    pub(crate) fn on_remove(&mut self, block: u64) {
        self.states.remove(&block);
    }

    /// Re-register `block` after its meta was rewritten in place, keeping
    /// its insertion recency. Stale heap copies die via seq/key checks.
    pub(crate) fn on_rewrite(&mut self, block: u64, meta: &PrefetchMeta) {
        let Some(st) = self.states.get_mut(&block) else { return };
        let seq = st.seq;
        let due = meta.issued_at.saturating_add(u64::from(meta.distance));
        let zeroed = meta.probability <= 0.0 || meta.probability.is_nan();
        let key = if zeroed { 0.0 } else { meta.probability / f64::from(meta.distance) };
        *st =
            EntryState { seq, probability: meta.probability, due, zeroed, key_bits: key.to_bits() };
        self.push_copies(block, seq, due, zeroed, key);
    }

    /// Push the heap copies for one entry's new state, compacting first
    /// when the heaps have outgrown their bound.
    fn push_copies(&mut self, block: u64, seq: u64, due: u64, zeroed: bool, key: f64) {
        if self.heap_len() > COMPACT_FACTOR * self.states.len() + COMPACT_SLACK {
            self.compact();
        }
        if zeroed {
            self.zeroed.push((seq, block));
        } else {
            self.fresh.push(FreshEntry { key, seq, block });
            self.due.push(Reverse((due, seq, block)));
        }
    }

    /// Total heap copies, live and stale.
    fn heap_len(&self) -> usize {
        self.fresh.len() + self.due.len() + self.zeroed.len()
    }

    /// Rebuild the heaps from `states`: exactly the copies a query would
    /// accept, one per live entry, with every stale copy dropped. Buffers
    /// are reused, so their capacity stays at the bounded high-water mark.
    fn compact(&mut self) {
        let mut fresh = std::mem::take(&mut self.fresh).into_vec();
        let mut due = std::mem::take(&mut self.due).into_vec();
        let mut zeroed = std::mem::take(&mut self.zeroed).into_vec();
        fresh.clear();
        due.clear();
        zeroed.clear();
        for (&block, st) in &self.states {
            if st.zeroed {
                zeroed.push((st.seq, block));
            } else {
                fresh.push(FreshEntry { key: f64::from_bits(st.key_bits), seq: st.seq, block });
                due.push(Reverse((st.due, st.seq, block)));
            }
        }
        self.fresh = BinaryHeap::from(fresh);
        self.due = BinaryHeap::from(due);
        self.zeroed = BinaryHeap::from(zeroed);
    }

    /// The block the exact Eq. 11 scan would pick at `period` with free
    /// window `x`: minimum ejection cost, most recent insertion on ties.
    /// Amortised O(log n); `None` iff the prefetch partition is empty.
    ///
    /// Contract: the horizon `period + x` must be non-decreasing across
    /// queries on one index — both the zero set ("cost collapsed to 0.0,
    /// permanently") and the stored lower bounds rely on it. The engine
    /// satisfies this trivially: `x` is a run-constant from `ModelConfig`
    /// and the access period never goes backwards.
    pub(crate) fn query(&mut self, period: u64, x: u32) -> Option<u64> {
        if self.states.is_empty() {
            return None;
        }
        let horizon = period.saturating_add(u64::from(x));

        // (1) Entries whose free window closed cost exactly 0.0, permanently.
        while let Some(&Reverse((due, seq, block))) = self.due.peek() {
            if due > horizon {
                break;
            }
            self.due.pop();
            if let Some(st) = self.states.get_mut(&block) {
                if st.seq == seq && st.due == due && !st.zeroed {
                    st.zeroed = true;
                    self.zeroed.push((seq, block));
                }
            }
        }

        // (2) Any zero-cost entry beats every positive cost; the scan keeps
        // the first zero in MRU order, i.e. the largest seq.
        while let Some(&(seq, block)) = self.zeroed.peek() {
            match self.states.get(&block) {
                Some(st) if st.seq == seq && st.zeroed => return Some(block),
                _ => {
                    self.zeroed.pop();
                }
            }
        }

        // (3) Lazy pop: refresh the top's stale lower bound to its current
        // ρ and accept it once no stored lower bound can still beat it.
        loop {
            let top = self.pop_valid_fresh()?;
            let st = self.states[&top.block];
            // due > horizon is guaranteed by the drain in (1).
            let key_now = st.probability / (st.due - horizon) as f64;
            let next = self.peek_valid_fresh();
            let refreshed = FreshEntry { key: key_now, seq: top.seq, block: top.block };
            self.states.get_mut(&top.block).unwrap().key_bits = key_now.to_bits();
            self.fresh.push(refreshed);
            // `refreshed ≥ next` in heap order means: no other entry's
            // lower bound is cheaper (or equally cheap but more recent), so
            // `top` is the scan's answer. Since stored keys only ever
            // increase toward current ρ, a failed comparison makes the
            // next iteration pop `next` — strict progress, ≤ n refreshes.
            match next {
                None => return Some(top.block),
                Some(n) if refreshed.cmp(&n) != Ordering::Less => return Some(top.block),
                Some(_) => {}
            }
        }
    }

    /// Pop fresh-heap entries until one matches the live state.
    fn pop_valid_fresh(&mut self) -> Option<FreshEntry> {
        loop {
            let e = *self.fresh.peek()?;
            self.fresh.pop();
            if self.is_live(&e) {
                return Some(e);
            }
        }
    }

    /// Peek the best fresh entry that matches the live state, discarding
    /// stale ones on the way.
    fn peek_valid_fresh(&mut self) -> Option<FreshEntry> {
        loop {
            let e = *self.fresh.peek()?;
            if self.is_live(&e) {
                return Some(e);
            }
            self.fresh.pop();
        }
    }

    fn is_live(&self, e: &FreshEntry) -> bool {
        match self.states.get(&e.block) {
            Some(st) => st.seq == e.seq && !st.zeroed && st.key_bits == e.key.to_bits(),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(p: f64, distance: u32, issued_at: u64) -> PrefetchMeta {
        PrefetchMeta { probability: p, distance, issued_at, sequential: false }
    }

    /// The exact scan in ρ space: min cost first, most recent on ties.
    fn reference_pick(entries: &[(u64, PrefetchMeta)], period: u64, x: u32) -> Option<u64> {
        let mut best: Option<(u64, f64)> = None;
        // MRU-first = reverse insertion order, first strict minimum wins.
        for &(b, m) in entries.iter().rev() {
            let elapsed = period.saturating_sub(m.issued_at);
            let remaining = u64::from(m.distance).saturating_sub(elapsed) as u32;
            let cost = if remaining <= x { 0.0 } else { m.probability / f64::from(remaining - x) };
            if best.is_none_or(|(_, bc)| cost < bc) {
                best = Some((b, cost));
            }
        }
        best.map(|(b, _)| b)
    }

    #[test]
    fn matches_the_exact_scan_under_churn() {
        // Deterministic pseudo-random workload of inserts, removals, meta
        // rewrites, and queries at advancing periods. `x` is fixed per
        // index (it is a run constant in the engine — the query contract).
        for x in [0u32, 1, 2, 5] {
            let mut rng = 0x243f_6a88_85a3_08d3u64 ^ u64::from(x);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut idx = VictimIndex::default();
            let mut live: Vec<(u64, PrefetchMeta)> = Vec::new();
            let mut period = 0u64;
            for step in 0..4000u64 {
                match next() % 10 {
                    0..=4 => {
                        let block = 10_000 + step;
                        let m = meta(
                            (next() % 1000) as f64 / 1000.0,
                            (next() % 12) as u32,
                            period.saturating_sub(next() % 3),
                        );
                        idx.on_insert(block, &m);
                        live.push((block, m));
                    }
                    5 | 6 if !live.is_empty() => {
                        let i = (next() as usize) % live.len();
                        let (b, _) = live.remove(i);
                        idx.on_remove(b);
                    }
                    7 if !live.is_empty() => {
                        let i = (next() as usize) % live.len();
                        let m = meta((next() % 1000) as f64 / 1000.0, (next() % 12) as u32, period);
                        live[i].1 = m;
                        idx.on_rewrite(live[i].0, &m);
                    }
                    _ => period += next() % 3,
                }
                if step % 1000 == 500 {
                    idx.compact();
                    assert!(idx.heap_len() <= 2 * live.len(), "compaction kept stale copies");
                }
                assert_eq!(
                    idx.query(period, x),
                    reference_pick(&live, period, x),
                    "diverged at step {step}, period {period}, x {x}"
                );
            }
        }
    }

    #[test]
    fn heaps_stay_bounded_without_queries() {
        // Next-limit never queries: insert/rewrite/remove churn alone must
        // not grow the heaps past the compaction bound.
        const LIVE: usize = 64;
        // One insert or rewrite may push two copies past a bound taken at
        // the peak population (LIVE + 1, before the removal).
        const BOUND: usize = COMPACT_FACTOR * (LIVE + 1) + COMPACT_SLACK + 2;
        let mut idx = VictimIndex::default();
        let mut live: std::collections::VecDeque<u64> = Default::default();
        let mut max_heap = 0;
        for step in 0..200_000u64 {
            let m = meta((step % 997) as f64 / 997.0, (step % 13) as u32, step / 4);
            idx.on_insert(step, &m);
            live.push_back(step);
            if step % 3 == 0 {
                idx.on_rewrite(live[live.len() / 2], &m);
            }
            if live.len() > LIVE {
                idx.on_remove(live.pop_front().unwrap());
            }
            assert!(idx.heap_len() <= BOUND, "step {step}: {} copies", idx.heap_len());
            max_heap = max_heap.max(idx.heap_len());
        }
        assert!(max_heap > COMPACT_SLACK, "churn never reached the compaction point");
        let capacity = idx.fresh.capacity() + idx.due.capacity() + idx.zeroed.capacity();
        assert!(capacity <= 3 * BOUND.next_power_of_two(), "heap buffers grew to {capacity}");
    }

    #[test]
    fn recency_breaks_equal_cost_ties() {
        let mut idx = VictimIndex::default();
        // Identical meta: identical cost at any period; the scan keeps the
        // most recently inserted.
        idx.on_insert(1, &meta(0.5, 10, 0));
        idx.on_insert(2, &meta(0.5, 10, 0));
        idx.on_insert(3, &meta(0.5, 10, 0));
        assert_eq!(idx.query(0, 1), Some(3));
        idx.on_remove(3);
        assert_eq!(idx.query(0, 1), Some(2));
    }

    #[test]
    fn overdue_entries_cost_zero_and_win() {
        let mut idx = VictimIndex::default();
        idx.on_insert(1, &meta(0.9, 100, 0)); // cost 0.9/99 ≈ 0.0091
        idx.on_insert(2, &meta(0.1, 2, 0)); // cost 0.1/1 = 0.1, due at period 2
        assert_eq!(idx.query(0, 1), Some(1), "cheapest positive cost");
        assert_eq!(idx.query(5, 1), Some(2), "overdue → zero cost beats all");
        idx.on_remove(2);
        assert_eq!(idx.query(5, 1), Some(1));
        assert_eq!(idx.query(5, 1), Some(1), "queries are repeatable");
    }

    #[test]
    fn empty_index_returns_none() {
        let mut idx = VictimIndex::default();
        assert_eq!(idx.query(7, 1), None);
        idx.on_insert(4, &meta(0.5, 3, 0));
        idx.on_remove(4);
        assert_eq!(idx.query(7, 1), None);
    }
}
