//! Eviction churn under `OverflowPolicy::Evict`: long random streams
//! against a tight node budget exercise the arena's free list (every
//! evicted `NodeId` must be recycled, never leaked), the stats
//! accounting identities, and the children/edge-index invariants after
//! thousands of create/evict cycles. Edge lookup is checked against a
//! linear search of each node's children on both sides of the 8-child
//! point where a node's edges move into the hash index.

use prefetch_trace::BlockId;
use prefetch_tree::{NodeId, OverflowPolicy, PrefetchTree};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Highest arena slot index reachable from the root. With budget `L` the
/// arena allocates at most `L + 1` slots ever (one transient overshoot
/// before `maybe_evict` trims back), so recycling is observable from the
/// public API: no reachable id may exceed that.
fn max_reachable_index(t: &PrefetchTree) -> usize {
    let mut queue: Vec<NodeId> = vec![t.root()];
    let mut max = 0;
    while let Some(n) = queue.pop() {
        max = max.max(n.index());
        queue.extend(t.children(n));
    }
    max
}

/// `child_by_block` must equal a linear search of `children` at every
/// live node, for each child's block and for blocks outside the alphabet
/// or absent at that node. Returns the largest fan-out seen.
fn check_lookup_matches_scan(t: &PrefetchTree, alphabet: u64) -> Result<usize, TestCaseError> {
    let mut queue: Vec<NodeId> = vec![t.root()];
    let mut widest = 0;
    while let Some(n) = queue.pop() {
        let kids: Vec<NodeId> = t.children(n).collect();
        widest = widest.max(kids.len());
        for b in (0..=alphabet).map(BlockId) {
            let scan = kids.iter().copied().find(|&c| t.block(c) == Some(b));
            prop_assert_eq!(t.child_by_block(n, b), scan);
        }
        for &c in &kids {
            let b = t.block(c).expect("children are never the root");
            prop_assert_eq!(t.child_by_block(n, b), Some(c));
        }
        prop_assert_eq!(t.child_by_block(n, BlockId(u64::MAX)), None);
        queue.extend(kids);
    }
    Ok(widest)
}

fn budgeted(mode: u8, limit: usize) -> PrefetchTree {
    match mode {
        0 => PrefetchTree::new(),
        1 => PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict),
        _ => PrefetchTree::with_node_budget(limit, OverflowPolicy::Freeze),
    }
}

#[test]
fn lookup_survives_promotion_and_shrinking_below_it() {
    // Twelve unique blocks give the root a 16-slot (hashed) child list.
    let mut t = PrefetchTree::with_node_budget(12, OverflowPolicy::Evict);
    for b in 0..12u64 {
        t.record_access(BlockId(b));
    }
    assert_eq!(t.child_count(t.root()), 12);
    check_lookup_matches_scan(&t, 200).unwrap();
    // Each (11, novel) pair grows node 11 and evicts the LRU root leaf,
    // so the root drops below 9 children while its slot stays wide.
    for i in 0..9u64 {
        t.record_access(BlockId(11));
        t.record_access(BlockId(100 + i));
    }
    t.check_invariants();
    assert!(t.child_count(t.root()) < 9, "root kept {}", t.child_count(t.root()));
    let eleven = t.child_by_block(t.root(), BlockId(11)).expect("hot root child survives");
    assert!(t.child_count(eleven) > 8, "node 11 crossed into the hashed class");
    check_lookup_matches_scan(&t, 200).unwrap();
    let mut buf = Vec::new();
    t.write_snapshot(&mut buf).unwrap();
    let back = PrefetchTree::read_snapshot(&mut buf.as_slice()).unwrap();
    back.check_invariants();
    check_lookup_matches_scan(&back, 200).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wide-node hash and the narrow-node scan answer exactly what a
    /// linear search would, under growth, eviction and freezing, and
    /// again after a snapshot round trip (which rebuilds every slot at
    /// its minimal class, so nodes that shrank below 9 children become
    /// narrow).
    #[test]
    fn edge_lookup_matches_linear_search_under_churn(
        raw in proptest::collection::vec(0u64..1 << 16, 100..1500),
        alphabet in 2u64..40,
        mode in 0u8..3,
        limit in 2usize..65,
    ) {
        let mut t = budgeted(mode, limit);
        for (i, &r) in raw.iter().enumerate() {
            t.record_access(BlockId(r % alphabet));
            if i % 97 == 0 {
                check_lookup_matches_scan(&t, alphabet)?;
            }
        }
        t.check_invariants();
        let widest = check_lookup_matches_scan(&t, alphabet)?;
        prop_assert!(mode == 0 || widest <= limit);

        let mut buf = Vec::new();
        t.write_snapshot(&mut buf).unwrap();
        let mut back = PrefetchTree::read_snapshot(&mut buf.as_slice()).unwrap();
        back.check_invariants();
        check_lookup_matches_scan(&back, alphabet)?;
        // Keep training both: the restored tree's rebuilt slots must give
        // the same outcomes as the original's grown ones.
        for &r in raw.iter().rev() {
            let b = BlockId(r.wrapping_mul(7) % alphabet);
            prop_assert_eq!(t.record_access(b), back.record_access(b));
        }
        back.check_invariants();
        check_lookup_matches_scan(&back, alphabet)?;
    }

    #[test]
    fn evict_churn_recycles_ids_and_keeps_invariants(
        blocks in proptest::collection::vec(0u64..40, 200..2000),
        limit in 8usize..64,
    ) {
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict);
        let mut high_water = 0usize;
        for (i, &b) in blocks.iter().enumerate() {
            t.record_access(BlockId(b));
            high_water = high_water.max(t.node_count());
            prop_assert!(t.node_count() <= limit, "budget exceeded at access {i}");
        }
        t.check_invariants();

        let s = t.stats();
        // Every access either followed an existing edge or created a node
        // (Evict never refuses a creation).
        prop_assert_eq!(s.accesses, s.predictable + s.nodes_created);
        prop_assert_eq!(s.nodes_capped, 0);
        // Created minus evicted is exactly what remains (`node_count`
        // already excludes the root).
        prop_assert_eq!(s.nodes_created - s.nodes_evicted, t.node_count() as u64);
        // Free-list recycling: once at the budget, eviction must feed
        // allocation — the arena never grows past limit + 1 slots.
        prop_assert!(
            max_reachable_index(&t) <= limit + 1,
            "leaked arena slots: reachable id {} with limit {}",
            max_reachable_index(&t),
            limit
        );
        // And the same bound holds for exact memory: churn must not
        // accrete bytes once the population is capped.
        if high_water == limit {
            let bytes_now = t.bytes_in_use();
            for &b in &blocks {
                t.record_access(BlockId(b.wrapping_add(7)));
            }
            t.check_invariants();
            prop_assert!(
                t.bytes_in_use() <= bytes_now * 2,
                "unbounded growth under churn: {} -> {}",
                bytes_now,
                t.bytes_in_use()
            );
        }
    }

    #[test]
    fn freeze_counts_every_refusal(
        blocks in proptest::collection::vec(0u64..40, 200..2000),
        limit in 8usize..64,
    ) {
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Freeze);
        for &b in &blocks {
            t.record_access(BlockId(b));
        }
        t.check_invariants();
        let s = t.stats();
        // Every access followed an edge, created a node, or was refused.
        prop_assert_eq!(s.accesses, s.predictable + s.nodes_created + s.nodes_capped);
        prop_assert_eq!(s.nodes_evicted, 0);
        prop_assert_eq!(t.node_count() as u64, s.nodes_created);
    }

    /// Snapshot/restore in the middle of eviction churn preserves the
    /// free list: the restored tree keeps recycling ids within the same
    /// arena bound instead of growing fresh slots.
    #[test]
    fn restore_preserves_free_list_recycling(
        blocks in proptest::collection::vec(0u64..40, 400..1200),
        limit in 8usize..48,
    ) {
        let mid = blocks.len() / 2;
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict);
        for &b in &blocks[..mid] {
            t.record_access(BlockId(b));
        }
        let mut buf = Vec::new();
        t.write_snapshot(&mut buf).unwrap();
        let mut back = PrefetchTree::read_snapshot(&mut buf.as_slice()).unwrap();
        for &b in &blocks[mid..] {
            back.record_access(BlockId(b));
        }
        back.check_invariants();
        prop_assert!(back.node_count() <= limit);
        prop_assert!(max_reachable_index(&back) <= limit + 1);
    }
}
