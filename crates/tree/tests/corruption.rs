//! Corruption robustness: any byte-level damage to a serialized tree —
//! truncation, bit flips, random byte rewrites — must surface as a typed
//! `TreeIoError`, never a panic, for both the legacy preorder format
//! (`read_tree`, `PFLZ`) and the full-state snapshot (`read_snapshot`,
//! `pftree-snap/v1`). When a mutation happens to still parse, the decoded
//! tree must satisfy every structural invariant: the readers admit
//! nothing they cannot vouch for.

use prefetch_trace::BlockId;
use prefetch_tree::io::{read_tree, write_tree};
use prefetch_tree::PrefetchTree;
use prefetch_tree::TreeIoError;
use proptest::prelude::*;

fn trained(blocks: &[u64]) -> PrefetchTree {
    let mut t = PrefetchTree::new();
    for &b in blocks {
        t.record_access(BlockId(b));
    }
    t
}

fn legacy_bytes(t: &PrefetchTree) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tree(t, &mut buf).unwrap();
    buf
}

fn snap_bytes(t: &PrefetchTree) -> Vec<u8> {
    let mut buf = Vec::new();
    t.write_snapshot(&mut buf).unwrap();
    buf
}

/// Small alphabet so the tree has real structure (shared prefixes,
/// multi-child nodes) rather than a root fan.
fn blocks() -> proptest::collection::VecStrategy<core::ops::Range<u64>> {
    proptest::collection::vec(0u64..12, 1..200)
}

/// (position-seed, new-byte) pairs applied to the serialized image.
fn mutations() -> proptest::collection::VecStrategy<(core::ops::Range<usize>, core::ops::Range<u8>)>
{
    proptest::collection::vec((0usize..1 << 20, 0u8..255), 1..16)
}

fn mutate(buf: &mut [u8], muts: &[(usize, u8)]) {
    for &(pos, byte) in muts {
        let at = pos % buf.len();
        buf[at] = byte;
    }
}

proptest! {
    #[test]
    fn mutated_legacy_stream_errors_but_never_panics(
        blocks in blocks(),
        muts in mutations(),
    ) {
        let mut buf = legacy_bytes(&trained(&blocks));
        mutate(&mut buf, &muts);
        if let Ok(t) = read_tree(&mut &buf[..]) {
            t.check_invariants();
        }
    }

    #[test]
    fn truncated_legacy_stream_errors_but_never_panics(
        blocks in blocks(),
        keep in 0usize..1 << 20,
    ) {
        let buf = legacy_bytes(&trained(&blocks));
        let cut = keep % buf.len();
        if let Ok(t) = read_tree(&mut &buf[..cut]) {
            t.check_invariants();
        }
    }

    #[test]
    fn mutated_snapshot_errors_but_never_panics(
        blocks in blocks(),
        muts in mutations(),
    ) {
        let mut buf = snap_bytes(&trained(&blocks));
        mutate(&mut buf, &muts);
        if let Ok(t) = PrefetchTree::read_snapshot(&mut &buf[..]) {
            t.check_invariants();
        }
    }

    #[test]
    fn truncated_snapshot_errors_but_never_panics(
        blocks in blocks(),
        keep in 0usize..1 << 20,
    ) {
        let buf = snap_bytes(&trained(&blocks));
        let cut = keep % buf.len();
        if let Ok(t) = PrefetchTree::read_snapshot(&mut &buf[..cut]) {
            t.check_invariants();
        }
    }

    /// Payload damage behind an intact header must be caught by the
    /// FNV-1a fingerprint — a flipped payload byte can never restore
    /// silently.
    #[test]
    fn snapshot_payload_flips_are_always_detected(
        blocks in blocks(),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let mut buf = snap_bytes(&trained(&blocks));
        // Header: magic(4) + version(2) + codec(2) + fingerprint(8) + len(8).
        const HEADER: usize = 24;
        prop_assert!(buf.len() > HEADER, "snapshots always carry a payload");
        let at = HEADER + pos % (buf.len() - HEADER);
        buf[at] ^= 1 << bit;
        prop_assert!(PrefetchTree::read_snapshot(&mut &buf[..]).is_err());
    }
}

/// A legacy `PFLZ` image of a root (weight 255) whose children are the
/// given `(block, weight)` leaves, in order.
fn legacy_root_fan(kids: &[(u8, u8)]) -> Vec<u8> {
    let mut buf = b"PFLZ\x01\x00".to_vec();
    buf.extend_from_slice(&[0xff, 0x01, kids.len() as u8]);
    for &(block, weight) in kids {
        buf.extend_from_slice(&[block, weight, 0]);
    }
    buf
}

/// Two children with the same block are refused with a typed error
/// whether the parent is narrow (its slot is scanned) or wide (its edges
/// are hashed).
#[test]
fn duplicate_child_blocks_are_rejected() {
    let ok: Vec<(u8, u8)> = (0..12).map(|b| (b, 2)).collect();
    assert_eq!(read_tree(&mut &legacy_root_fan(&ok)[..]).unwrap().node_count(), 12);
    let narrow = [(5, 3), (6, 2), (5, 2)];
    let mut wide = ok.clone();
    wide.push((3, 1));
    for kids in [&narrow[..], &wide[..]] {
        match read_tree(&mut &legacy_root_fan(kids)[..]) {
            Err(TreeIoError::Corrupt("duplicate child block")) => {}
            other => {
                panic!("{} children: expected duplicate child block, got {other:?}", kids.len())
            }
        }
    }
}

#[test]
fn arbitrary_garbage_is_rejected() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
    for len in [0usize, 1, 6, 24, 25, 100, 4096] {
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert!(read_tree(&mut &noise[..]).is_err(), "legacy accepted {len}B of noise");
        assert!(
            PrefetchTree::read_snapshot(&mut &noise[..]).is_err(),
            "snapshot accepted {len}B of noise"
        );
    }
}
