//! Golden digests of node-budgeted trees under churn.
//!
//! Synthetic streams run through `PrefetchTree::with_node_limit` at
//! budgets 16, 64 and 1024: enough distinct blocks that the root goes
//! wide (more than 8 children, so its edges are hashed) and LRU eviction
//! removes root children on most novel accesses. Each case hashes every
//! `AccessOutcome`, a `pftree-snap/v1` image every few thousand accesses,
//! and the final image, so a change to how children are removed that
//! drifts child order, node ids, LRU order or snapshot bytes fails here.

use prefetch_hash::Fnv64;
use prefetch_trace::BlockId;
use prefetch_tree::{AccessOutcome, PrefetchTree};

/// xorshift64*: a fixed, dependency-free stream generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// `n` references: with probability 3/4 the next step of one of `runs`
/// recurring 12-block runs (so weights grow and children reorder), else a
/// uniformly random block out of `alphabet` (so novel accesses keep
/// creating and evicting nodes).
fn stream(seed: u64, n: usize, runs: u64, alphabet: u64) -> Vec<u64> {
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(n);
    let mut run = 0u64;
    let mut step = 12u64;
    while out.len() < n {
        if step == 12 {
            run = rng.next() % runs;
            step = 0;
        }
        if rng.next().is_multiple_of(4) {
            out.push(rng.next() % alphabet);
        } else {
            out.push(10_000 + run * 12 + step);
            step += 1;
        }
    }
    out
}

fn hash_outcome(h: &mut Fnv64, o: &AccessOutcome) {
    let lvc = match o.lvc_repeat {
        None => 0u8,
        Some(false) => 1,
        Some(true) => 2,
    };
    h.bytes(&[u8::from(o.predictable), lvc, u8::from(o.created_node), u8::from(o.reset)]);
}

fn digest(budget: usize, blocks: &[u64]) -> u64 {
    let mut t = PrefetchTree::with_node_limit(budget);
    let mut h = Fnv64::new();
    let mut snap = Vec::new();
    for (i, &b) in blocks.iter().enumerate() {
        hash_outcome(&mut h, &t.record_access(BlockId(b)));
        if i % 5000 == 4999 {
            snap.clear();
            t.write_snapshot(&mut snap).unwrap();
            h.bytes(&snap);
        }
    }
    t.check_invariants();
    assert!(t.node_count() <= budget);
    assert!(t.stats().nodes_evicted > 0, "budget {budget} never evicted");
    snap.clear();
    t.write_snapshot(&mut snap).unwrap();
    h.bytes(&snap);
    h.finish()
}

#[test]
fn budgeted_churn_matches_the_pinned_digests() {
    let cases: [(usize, u64, usize, u64, u64); 6] = [
        (16, 1, 20_000, 3, 40),
        (16, 2, 20_000, 6, 300),
        (64, 3, 30_000, 8, 200),
        (64, 4, 30_000, 20, 2_000),
        (1024, 5, 60_000, 40, 3_000),
        (1024, 6, 60_000, 120, 20_000),
    ];
    let pinned: [u64; 6] = [
        0x2b01_1890_c315_406f,
        0x1d70_8521_00f7_ace4,
        0xe651_3f64_acb7_d2f7,
        0x1511_46fb_d95e_244d,
        0x9c32_c09e_4437_dbd8,
        0xe219_56c0_c067_df84,
    ];
    let got: Vec<u64> = cases
        .iter()
        .map(|&(budget, seed, n, runs, alphabet)| digest(budget, &stream(seed, n, runs, alphabet)))
        .collect();
    for (i, (&(budget, seed, ..), (&want, &have))) in
        cases.iter().zip(pinned.iter().zip(&got)).enumerate()
    {
        assert_eq!(have, want, "case {i} (budget {budget}, seed {seed}) drifted: {got:#018x?}");
    }
}
