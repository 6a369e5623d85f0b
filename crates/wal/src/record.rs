//! The on-disk record format and the open-time scan.
//!
//! ```text
//! file   := header record*
//! header := "PFWL" u16(version=1) u16(reserved=0)           ; 8 bytes
//! record := u32(len) u64(fingerprint) payload[len]          ; 12 + len bytes
//! ```
//!
//! All integers are little-endian; `fingerprint` is FNV-1a over the
//! payload bytes. `len` is bounded by [`MAX_RECORD_LEN`] so a damaged
//! length field can never drive an allocation from garbage.
//!
//! ## Torn vs corrupt
//!
//! The writer ([`crate::AppendLog`]) encodes each appended record into a
//! pending buffer and hands the buffer to the OS in one `write_all` when
//! it is flushed — once per tenant per batch in `pfserve`, at the commit
//! point. Whether a write carries one record or a hundred, a crash during
//! it leaves a strict prefix of the bytes written, and the bytes of
//! earlier writes are whole records. So the file is always a byte prefix
//! of the appended record stream, and the scanner exploits that to
//! classify damage precisely:
//!
//! * record extends past EOF, or an all-zero header at the tail (some
//!   filesystems zero-fill recovered extents) → [`Tail::Torn`]: drop the
//!   tail, the log is usable from the last complete record;
//! * a *fully present* record whose fingerprint mismatches, or an insane
//!   length field → [`Tail::Corrupt`]: this cannot be a crash artifact,
//!   only bit rot or an overwrite — the caller must distrust the log.

use prefetch_hash::Fnv64;

/// Magic + version + reserved prefix of every log file.
pub const FILE_HEADER_LEN: usize = 8;
/// Per-record prefix: `u32` length + `u64` fingerprint.
pub const RECORD_HEADER_LEN: usize = 12;
/// Upper bound on one record's payload; a length field above this is
/// corruption by definition (no writer produces it).
pub const MAX_RECORD_LEN: usize = 1 << 20;

const MAGIC: &[u8; 4] = b"PFWL";
const VERSION: u16 = 1;

/// Fingerprint of a record payload (FNV-1a, stable across platforms).
pub fn fingerprint(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(payload);
    h.finish()
}

/// Render the file header.
pub(crate) fn file_header() -> [u8; FILE_HEADER_LEN] {
    let mut out = [0u8; FILE_HEADER_LEN];
    out[..4].copy_from_slice(MAGIC);
    out[4..6].copy_from_slice(&VERSION.to_le_bytes());
    out
}

/// Append one record (header + payload) to `out` without an
/// intermediate buffer: `fill` appends the payload after a reserved
/// header, which is then filled in. Returns the record's length.
pub(crate) fn encode_record(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; RECORD_HEADER_LEN]);
    fill(out);
    let len = out.len() - start - RECORD_HEADER_LEN;
    assert!(
        (1..=MAX_RECORD_LEN).contains(&len),
        "record payload must be 1..={MAX_RECORD_LEN} bytes, got {len}"
    );
    let fp = fingerprint(&out[start + RECORD_HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + RECORD_HEADER_LEN].copy_from_slice(&fp.to_le_bytes());
    RECORD_HEADER_LEN + len
}

/// How the scan ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tail {
    /// Every byte belonged to a complete, verified record.
    Clean,
    /// A crash artifact: the bytes at `at` are a strict prefix of a record
    /// (or a zero-filled extent). Truncating to `at` yields a valid log.
    Torn {
        /// Offset of the first byte that is not part of a complete record.
        at: u64,
        /// Bytes dropped by truncating there.
        dropped: u64,
    },
    /// Damage no crash can produce (fingerprint mismatch on a complete
    /// record, insane length, bad magic): the log must not be trusted.
    Corrupt {
        /// Offset of the offending record (or 0 for a bad header).
        at: u64,
        /// Human-readable cause.
        reason: String,
    },
}

/// Result of scanning a log file.
#[derive(Clone, Debug)]
pub struct Scan {
    /// Every verified record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length of the verified prefix (header + complete records); the
    /// offset a resuming writer truncates to.
    pub valid_len: u64,
    /// How the file ended.
    pub tail: Tail,
}

impl Scan {
    /// Whether the log can be resumed (possibly after truncation) —
    /// i.e. the damage, if any, is a crash artifact, not corruption.
    pub fn resumable(&self) -> bool {
        !matches!(self.tail, Tail::Corrupt { .. })
    }
}

/// Scan a log file from disk. An absent file scans as empty and clean.
pub fn scan(path: &std::path::Path) -> std::io::Result<Scan> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(scan_bytes(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(Scan { records: Vec::new(), valid_len: 0, tail: Tail::Clean })
        }
        Err(e) => Err(e),
    }
}

/// Scan an in-memory image of a log file (see the module docs for the
/// torn/corrupt classification rules).
pub fn scan_bytes(bytes: &[u8]) -> Scan {
    let n = bytes.len();
    if n == 0 {
        return Scan { records: Vec::new(), valid_len: 0, tail: Tail::Clean };
    }
    if n < FILE_HEADER_LEN {
        // A crash during creation leaves a short header prefix.
        let torn = Tail::Torn { at: 0, dropped: n as u64 };
        if bytes == &file_header()[..n] || bytes.iter().all(|&b| b == 0) {
            return Scan { records: Vec::new(), valid_len: 0, tail: torn };
        }
        return Scan {
            records: Vec::new(),
            valid_len: 0,
            tail: Tail::Corrupt { at: 0, reason: "short file with foreign bytes".into() },
        };
    }
    if &bytes[..4] != MAGIC {
        if bytes[..FILE_HEADER_LEN].iter().all(|&b| b == 0) {
            return Scan {
                records: Vec::new(),
                valid_len: 0,
                tail: Tail::Torn { at: 0, dropped: n as u64 },
            };
        }
        return Scan {
            records: Vec::new(),
            valid_len: 0,
            tail: Tail::Corrupt { at: 0, reason: "bad magic".into() },
        };
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Scan {
            records: Vec::new(),
            valid_len: 0,
            tail: Tail::Corrupt { at: 0, reason: format!("unsupported version {version}") },
        };
    }
    if bytes[6] != 0 || bytes[7] != 0 {
        return Scan {
            records: Vec::new(),
            valid_len: 0,
            tail: Tail::Corrupt { at: 0, reason: "nonzero reserved header bytes".into() },
        };
    }

    let mut records = Vec::new();
    let mut at = FILE_HEADER_LEN;
    loop {
        if at == n {
            return Scan { records, valid_len: at as u64, tail: Tail::Clean };
        }
        let torn = |records: Vec<Vec<u8>>| Scan {
            records,
            valid_len: at as u64,
            tail: Tail::Torn { at: at as u64, dropped: (n - at) as u64 },
        };
        let corrupt = |records: Vec<Vec<u8>>, reason: String| Scan {
            records,
            valid_len: at as u64,
            tail: Tail::Corrupt { at: at as u64, reason },
        };
        if n - at < RECORD_HEADER_LEN {
            return torn(records);
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let fp = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        if len == 0 && fp == 0 {
            // Zero-filled extent: a crash artifact on some filesystems.
            return torn(records);
        }
        if len == 0 || len > MAX_RECORD_LEN {
            return corrupt(records, format!("record length {len} out of range"));
        }
        if at + RECORD_HEADER_LEN + len > n {
            return torn(records);
        }
        let payload = &bytes[at + RECORD_HEADER_LEN..at + RECORD_HEADER_LEN + len];
        if fingerprint(payload) != fp {
            // The record is fully present, so a prefix-writing crash
            // cannot explain the mismatch: a bit flipped.
            return corrupt(records, format!("record fingerprint mismatch at offset {at}"));
        }
        records.push(payload.to_vec());
        at += RECORD_HEADER_LEN + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = file_header().to_vec();
        for p in payloads {
            encode_record(&mut buf, |b| b.extend_from_slice(p));
        }
        buf
    }

    #[test]
    fn roundtrip_and_clean_scan() {
        let img = image(&[b"alpha", b"b", &[0u8; 300]]);
        let scan = scan_bytes(&img);
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(scan.valid_len, img.len() as u64);
        assert_eq!(scan.records, vec![b"alpha".to_vec(), b"b".to_vec(), vec![0u8; 300]]);
    }

    #[test]
    fn truncation_at_every_boundary_is_torn_or_shorter_clean() {
        let img = image(&[b"one", b"two", b"three"]);
        let full = scan_bytes(&img);
        for cut in 0..img.len() {
            let scan = scan_bytes(&img[..cut]);
            assert!(scan.resumable(), "cut at {cut} must stay resumable");
            assert!(scan.records.len() <= full.records.len());
            // The surviving records are exactly a prefix of the originals.
            assert_eq!(scan.records[..], full.records[..scan.records.len()]);
            assert!(scan.valid_len <= cut as u64);
        }
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let img = image(&[b"first record", b"second record"]);
        let clean = scan_bytes(&img).records;
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut dmg = img.clone();
                dmg[byte] ^= 1 << bit;
                let scan = scan_bytes(&dmg);
                // Either the damage is detected (torn/corrupt) or — when
                // it hit a length/fingerprint header in a way that still
                // parses — the decoded records must not silently differ
                // while claiming a clean tail.
                if scan.tail == Tail::Clean {
                    assert_ne!(
                        scan.records, clean,
                        "flip at byte {byte} bit {bit} must not decode cleanly to the originals"
                    );
                    // A clean-scanning flip can only happen if it moved a
                    // record boundary onto another valid record, which the
                    // fingerprint makes a 2^-64 event; treat as failure.
                    panic!("flip at byte {byte} bit {bit} produced a clean scan");
                }
            }
        }
    }

    #[test]
    fn zero_fill_tail_is_torn_not_corrupt() {
        let mut img = image(&[b"x"]);
        let valid = img.len() as u64;
        img.extend_from_slice(&[0u8; 40]);
        let scan = scan_bytes(&img);
        assert_eq!(scan.tail, Tail::Torn { at: valid, dropped: 40 });
        assert_eq!(scan.valid_len, valid);
    }

    #[test]
    fn payload_flip_in_last_record_is_corrupt() {
        let mut img = image(&[b"abc", b"tail-record"]);
        let last = img.len() - 3;
        img[last] ^= 0x10;
        let scan = scan_bytes(&img);
        assert!(matches!(scan.tail, Tail::Corrupt { .. }), "{:?}", scan.tail);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn foreign_file_is_corrupt() {
        let scan = scan_bytes(b"not a wal file at all, definitely");
        assert!(matches!(scan.tail, Tail::Corrupt { .. }));
    }
}
