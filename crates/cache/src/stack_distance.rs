//! Online Mattson stack-distance estimation.
//!
//! Equation 13 of the paper prices the ejection of a demand-cache buffer at
//! `(H(n) − H(n−1)) · (T_driver + T_disk)`, where `H(n)` is the hit rate an
//! LRU cache of `n` buffers would achieve on the reference stream. A
//! single LRU *stack* simulation yields `H(n)` for **all** `n`
//! simultaneously (Mattson et al. 1970): a reference at stack distance `d`
//! hits in every cache of size `> d`.
//!
//! [`StackDistanceEstimator`] maintains that histogram online in
//! O(log U) per reference using the classic timestamp + Fenwick-tree
//! algorithm: each block remembers the slot of its last access, and the
//! number of *live* slots after it equals the number of distinct blocks
//! referenced since — its stack distance. Slots are compacted when the
//! timeline fills.
//!
//! Because workloads shift phase, the histogram supports exponential
//! decay so the marginal hit rate tracks the *recent* stream (the paper
//! computes its dynamic values "during execution").

use crate::fenwick::FenwickTree;
use prefetch_hash::FxHashMap;

/// Online LRU stack-distance histogram with exponential decay.
#[derive(Clone, Debug)]
pub struct StackDistanceEstimator {
    /// block id → timeline slot of the most recent access
    last_access: FxHashMap<u64, u32>,
    /// 1 at live slots
    live: FenwickTree,
    /// next timeline slot
    time: u32,
    /// decayed histogram over stack distances; last bin collects overflow
    hist: Vec<f64>,
    /// decayed weight of cold (first-ever) references
    cold_weight: f64,
    /// total decayed weight (hist mass + cold mass)
    total_weight: f64,
    /// weight of the next sample; grows by 1/decay each reference
    sample_weight: f64,
    /// per-reference decay factor in (0, 1]; 1.0 disables decay
    decay: f64,
}

impl StackDistanceEstimator {
    /// Largest distance tracked exactly; deeper references land in the
    /// overflow bin. 64 Ki bins comfortably covers the paper's largest
    /// cache (16 Ki blocks) with a 4× margin.
    pub const MAX_TRACKED: usize = 1 << 16;

    const INITIAL_TIMELINE: usize = 1 << 12;

    /// A fresh estimator. `decay` is the per-reference weight decay in
    /// `(0, 1]`; `1.0` gives the cumulative (undecayed) histogram. A value
    /// like `0.99999` makes the estimate track roughly the last ~100k
    /// references.
    ///
    /// # Panics
    /// Panics unless `0 < decay <= 1`.
    pub fn new(decay: f64) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0,1], got {decay}");
        StackDistanceEstimator {
            last_access: FxHashMap::default(),
            live: FenwickTree::new(Self::INITIAL_TIMELINE),
            time: 0,
            hist: vec![0.0; 256],
            cold_weight: 0.0,
            total_weight: 0.0,
            sample_weight: 1.0,
            decay,
        }
    }

    /// Record a reference to `block`; returns its stack distance
    /// (`None` for a first-ever reference).
    pub fn record(&mut self, block: u64) -> Option<usize> {
        if self.time as usize == self.live.len() {
            self.compact();
        }
        let slot = self.time;
        self.time += 1;

        let distance = match self.last_access.insert(block, slot) {
            Some(prev) => {
                // Distinct blocks referenced strictly after `prev`. Every
                // tracked block holds exactly one live slot (compaction
                // included), so the live total is the map's length — no
                // Fenwick walk needed.
                let live = self.last_access.len() as u64;
                debug_assert_eq!(live, self.live.total());
                let after = live - self.live.prefix_sum(prev as usize);
                self.live.add(prev as usize, -1);
                Some(after as usize)
            }
            None => None,
        };
        self.live.add(slot as usize, 1);

        let w = self.sample_weight;
        match distance {
            Some(d) => {
                let bin = d.min(Self::MAX_TRACKED);
                if bin >= self.hist.len() {
                    let new_len = (bin + 1).next_power_of_two().min(Self::MAX_TRACKED + 1);
                    self.hist.resize(new_len.max(bin + 1), 0.0);
                }
                self.hist[bin] += w;
            }
            None => self.cold_weight += w,
        }
        self.total_weight += w;
        self.sample_weight /= self.decay;
        if self.sample_weight > 1e100 {
            self.rescale();
        }
        distance
    }

    /// Estimated LRU hit rate H(n) for a cache of `n` buffers.
    pub fn hit_rate(&self, n: usize) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let upto = n.min(self.hist.len());
        let mass: f64 = self.hist[..upto].iter().sum();
        mass / self.total_weight
    }

    /// Estimated marginal hit rate H(n) − H(n−1): the value of the n-th
    /// buffer. Smoothed over a window of neighbouring bins because a single
    /// bin of a decayed histogram is noisy; the window grows with `n`
    /// (±max(1, n/16)).
    pub fn marginal_hit_rate(&self, n: usize) -> f64 {
        if n == 0 || self.total_weight <= 0.0 {
            return 0.0;
        }
        let center = n - 1;
        let half = (n / 16).max(1);
        let lo = center.saturating_sub(half);
        let hi = (center + half + 1).min(self.hist.len());
        if hi <= lo {
            return 0.0;
        }
        let mass: f64 = self.hist[lo.min(self.hist.len())..hi].iter().sum();
        mass / (hi - lo) as f64 / self.total_weight
    }

    /// Fraction of references that were first-ever (compulsory).
    pub fn cold_fraction(&self) -> f64 {
        if self.total_weight <= 0.0 {
            0.0
        } else {
            self.cold_weight / self.total_weight
        }
    }

    /// Number of references recorded (undecayed count of distinct blocks
    /// currently tracked).
    pub fn tracked_blocks(&self) -> usize {
        self.last_access.len()
    }

    /// Rebuild the timeline, remapping live slots to 0..live_count.
    fn compact(&mut self) {
        let mut live_slots: Vec<(u32, u64)> =
            self.last_access.iter().map(|(&block, &slot)| (slot, block)).collect();
        live_slots.sort_unstable();
        let needed = (live_slots.len() * 2).max(Self::INITIAL_TIMELINE);
        self.live = FenwickTree::new(needed);
        for (new_slot, &(_, block)) in live_slots.iter().enumerate() {
            self.last_access.insert(block, new_slot as u32);
            self.live.add(new_slot, 1);
        }
        self.time = live_slots.len() as u32;
    }

    /// Divide all weights by the current sample weight to avoid overflow.
    fn rescale(&mut self) {
        let s = self.sample_weight;
        for h in &mut self.hist {
            *h /= s;
        }
        self.cold_weight /= s;
        self.total_weight /= s;
        self.sample_weight = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_example() {
        // a b a c b a  →  a:cold b:cold a:1 c:cold b:2 a:2
        let mut e = StackDistanceEstimator::new(1.0);
        assert_eq!(e.record(1), None);
        assert_eq!(e.record(2), None);
        assert_eq!(e.record(1), Some(1));
        assert_eq!(e.record(3), None);
        assert_eq!(e.record(2), Some(2));
        assert_eq!(e.record(1), Some(2));
    }

    #[test]
    fn hit_rates_match_offline_oracle() {
        use prefetch_trace::stats::ReuseDistances;
        use prefetch_trace::synth::TraceKind;
        let trace = TraceKind::Cad.generate(20_000, 5);
        let oracle = ReuseDistances::compute(&trace);
        let mut e = StackDistanceEstimator::new(1.0);
        for b in trace.blocks() {
            e.record(b.0);
        }
        for n in [1, 2, 8, 64, 256, 1024, 4096] {
            let got = e.hit_rate(n);
            let expect = oracle.hit_rate(n);
            assert!((got - expect).abs() < 1e-9, "H({n}): got {got}, expected {expect}");
        }
        assert!((e.cold_fraction() - oracle.cold as f64 / oracle.total as f64).abs() < 1e-9);
    }

    #[test]
    fn repeated_single_block_is_distance_zero() {
        let mut e = StackDistanceEstimator::new(1.0);
        e.record(9);
        for _ in 0..100 {
            assert_eq!(e.record(9), Some(0));
        }
        // A cache of one buffer captures everything after the cold miss.
        assert!((e.hit_rate(1) - 100.0 / 101.0).abs() < 1e-12);
        assert!(e.marginal_hit_rate(1) > 0.0);
        assert_eq!(e.marginal_hit_rate(0), 0.0);
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many compactions with a timeline-heavy pattern.
        let mut e = StackDistanceEstimator::new(1.0);
        // Cycle over k blocks: steady state distance is k-1.
        let k = 500u64;
        for round in 0..40 {
            for b in 0..k {
                let d = e.record(b);
                if round > 0 {
                    assert_eq!(d, Some((k - 1) as usize), "round {round} block {b}");
                }
            }
        }
        // 20k references over a 4096-slot initial timeline: compaction ran.
        assert!(e.time < 20_000);
    }

    #[test]
    fn decay_tracks_phase_changes() {
        let mut e = StackDistanceEstimator::new(0.999);
        // Phase 1: tight loop over 4 blocks → big marginal value at n<=4.
        for i in 0..4000u64 {
            e.record(i % 4);
        }
        let early = e.hit_rate(4);
        assert!(early > 0.9, "phase-1 hit rate {early}");
        // Phase 2: loop over 64 blocks → H(4) should fall substantially.
        for i in 0..4000u64 {
            e.record(100 + (i % 64));
        }
        let late = e.hit_rate(4);
        assert!(late < 0.3, "decayed H(4) still {late}");
        assert!(e.hit_rate(64) > 0.7);
    }

    #[test]
    fn undecayed_histogram_is_cumulative() {
        let mut e = StackDistanceEstimator::new(1.0);
        for i in 0..1000u64 {
            e.record(i % 10);
        }
        // H is monotone in n and bounded by 1.
        let mut prev = 0.0;
        for n in 0..32 {
            let h = e.hit_rate(n);
            assert!((0.0..=1.0).contains(&h));
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn marginal_sums_to_hit_rate_without_smoothing_error() {
        // The smoothed marginals should roughly integrate to H(n).
        let mut e = StackDistanceEstimator::new(1.0);
        for i in 0..5000u64 {
            e.record(i % 37);
        }
        let integral: f64 = (1..=64).map(|n| e.marginal_hit_rate(n)).sum();
        let h = e.hit_rate(64);
        assert!((integral - h).abs() < 0.15, "sum of marginals {integral} vs H(64) {h}");
    }

    #[test]
    #[should_panic(expected = "decay must be in (0,1]")]
    fn zero_decay_panics() {
        StackDistanceEstimator::new(0.0);
    }
}
