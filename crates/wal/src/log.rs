//! The append-only log writer and its group-commit policy.

use crate::fault::{AppendFault, WriteFaults};
use crate::record::{encode_record, file_header, FILE_HEADER_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When group commits fsync the dirty logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync at every commit point (durability = everything acknowledged).
    Always,
    /// Never sync during operation (the OS flushes when it pleases).
    Never,
    /// Sync once every `n` appended records.
    EveryN(u64),
    /// Sync when at least this many milliseconds passed since the last.
    IntervalMs(u64),
}

impl FsyncPolicy {
    /// Stable name for logs and bench artifacts.
    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Never => "never".into(),
            FsyncPolicy::EveryN(n) => format!("every-n={n}"),
            FsyncPolicy::IntervalMs(ms) => format!("interval-ms={ms}"),
        }
    }
}

/// Tracks appends across a set of logs and decides, at each commit
/// point, whether the policy calls for an fsync pass.
#[derive(Debug)]
pub struct GroupCommit {
    policy: FsyncPolicy,
    pending: u64,
    last_sync: Instant,
}

impl GroupCommit {
    /// A fresh tracker (counts from zero, interval from now).
    pub fn new(policy: FsyncPolicy) -> Self {
        GroupCommit { policy, pending: 0, last_sync: Instant::now() }
    }

    /// The policy this tracker enforces.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Record `appended` new records since the last call.
    pub fn note(&mut self, appended: u64) {
        self.pending += appended;
    }

    /// Whether a sync pass is due now; resets the counters when it is.
    pub fn due(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryN(n) => self.pending >= n.max(1),
            FsyncPolicy::IntervalMs(ms) => self.last_sync.elapsed().as_millis() as u64 >= ms,
        };
        if due {
            self.pending = 0;
            self.last_sync = Instant::now();
        }
        due
    }
}

/// An append-only record log (see [`crate::record`] for the format).
///
/// [`append`] encodes a record into a pending buffer owned by the log;
/// [`flush`] hands every pending byte to the OS in one `write_all`, and
/// [`sync`] flushes before it fsyncs. The owner decides when to do
/// either (`pfserve` flushes every log once per batch at its commit
/// point and syncs under a [`GroupCommit`] policy). Dropping a log
/// discards what was never flushed, exactly as a crash would. The writer
/// tracks how many appends happened since the last sync
/// ([`AppendLog::dirty`]); injected faults ([`WriteFaults`]) sabotage
/// individual appends and syncs deterministically.
///
/// [`append`]: AppendLog::append
/// [`flush`]: AppendLog::flush
/// [`sync`]: AppendLog::sync
pub struct AppendLog {
    path: PathBuf,
    file: File,
    /// Encoded records (and, for a fresh log, the file header) not yet
    /// handed to the OS.
    pending: Vec<u8>,
    len: u64,
    appends: u64,
    writes: u64,
    syncs: u64,
    dirty: u64,
    faults: Option<Box<dyn WriteFaults>>,
}

impl std::fmt::Debug for AppendLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendLog")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("pending", &self.pending.len())
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl AppendLog {
    /// Create (or truncate) the log at `path`. The header goes out with
    /// the first flush, together with the first records.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(AppendLog {
            path: path.to_path_buf(),
            file,
            pending: file_header().to_vec(),
            len: FILE_HEADER_LEN as u64,
            appends: 0,
            writes: 0,
            syncs: 0,
            dirty: 1, // the header itself is not yet durable
            faults: None,
        })
    }

    /// Reopen an existing log for appending, truncating to `valid_len`
    /// (from a [`crate::scan`] — drops any torn tail). A `valid_len` of
    /// zero recreates the file, header included.
    pub fn resume(path: &Path, valid_len: u64) -> io::Result<Self> {
        if valid_len < FILE_HEADER_LEN as u64 {
            return Self::create(path);
        }
        // Append mode: every write lands at EOF, which after the
        // truncation is exactly `valid_len`.
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(valid_len)?;
        Ok(AppendLog {
            path: path.to_path_buf(),
            file,
            pending: Vec::new(),
            len: valid_len,
            appends: 0,
            writes: 0,
            syncs: 0,
            dirty: 1, // the truncation is not yet durable
            faults: None,
        })
    }

    /// Install a deterministic fault stream (tests only).
    pub fn set_faults(&mut self, faults: Option<Box<dyn WriteFaults>>) {
        self.faults = faults;
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical file length (header + every appended record, flushed or
    /// pending).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records beyond the header.
    pub fn is_empty(&self) -> bool {
        self.len <= FILE_HEADER_LEN as u64
    }

    /// Operations (appends or truncations) since the last successful sync.
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    /// `write_all` calls over this log's lifetime (one per non-empty
    /// flush, plus the one an injected short write makes).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Successful syncs over this log's lifetime.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Append one record whose payload `fill` writes straight into the
    /// pending buffer — no allocation per record. Nothing reaches the OS
    /// until [`AppendLog::flush`], except under an injected short write:
    /// that writes the pending records plus a prefix of this one and
    /// returns the error. On any error the log must be considered broken
    /// — the file may hold a torn tail that only a fresh [`crate::scan`]
    /// + [`AppendLog::resume`] can repair.
    pub fn append(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let start = self.pending.len();
        let len = encode_record(&mut self.pending, fill);
        let index = self.appends;
        self.appends += 1;
        self.dirty += 1;
        match self.faults.as_mut().and_then(|f| f.on_append(index, len)) {
            Some(AppendFault::ShortWrite { keep }) => {
                let keep = keep.min(len.saturating_sub(1));
                self.pending.truncate(start + keep);
                self.len += keep as u64;
                self.flush()?;
                return Err(io::Error::other("injected short write"));
            }
            Some(AppendFault::BitFlip { bit }) => {
                let bit = bit as usize % (len * 8);
                self.pending[start + bit / 8] ^= 1 << (bit % 8);
            }
            None => {}
        }
        self.len += len as u64;
        Ok(())
    }

    /// Hand every pending byte to the OS in one `write_all` (no-op when
    /// nothing is pending). The buffer is emptied either way: after an
    /// error the log is broken, as after a failed append.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.writes += 1;
        let written = self.file.write_all(&self.pending);
        self.pending.clear();
        written
    }

    /// Flush, then make every appended record durable (no-op when
    /// nothing is dirty).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty == 0 {
            return Ok(());
        }
        self.flush()?;
        let index = self.syncs;
        if self.faults.as_mut().is_some_and(|f| f.on_sync(index)) {
            return Err(io::Error::other("injected fsync error"));
        }
        self.file.sync_data()?;
        self.syncs += 1;
        self.dirty = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{scan, Tail, RECORD_HEADER_LEN};

    fn put(log: &mut AppendLog, payload: &[u8]) -> io::Result<()> {
        log.append(|buf| buf.extend_from_slice(payload))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pfwal-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_scan_roundtrip_and_resume() {
        let path = tmp("roundtrip.wal");
        let mut log = AppendLog::create(&path).unwrap();
        put(&mut log, b"one").unwrap();
        put(&mut log, b"two").unwrap();
        log.sync().unwrap();
        assert_eq!(log.syncs(), 1);
        let valid = {
            let s = scan(&path).unwrap();
            assert_eq!(s.tail, Tail::Clean);
            assert_eq!(s.records, vec![b"one".to_vec(), b"two".to_vec()]);
            s.valid_len
        };
        drop(log);
        let mut log = AppendLog::resume(&path, valid).unwrap();
        put(&mut log, b"three").unwrap();
        log.sync().unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_truncates_a_torn_tail() {
        let path = tmp("torn.wal");
        let mut log = AppendLog::create(&path).unwrap();
        put(&mut log, b"kept").unwrap();
        log.sync().unwrap();
        // Simulate a crash mid-append: raw partial record bytes.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[7, 0, 0, 0, 1, 2]).unwrap(); // len=7, half a fingerprint
        drop(f);
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Torn { .. }));
        assert_eq!(s.records, vec![b"kept".to_vec()]);
        let mut log = AppendLog::resume(&path, s.valid_len).unwrap();
        put(&mut log, b"after").unwrap();
        log.sync().unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.tail, Tail::Clean);
        assert_eq!(s.records, vec![b"kept".to_vec(), b"after".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    struct OneShot(u64, AppendFault);
    impl WriteFaults for OneShot {
        fn on_append(&mut self, index: u64, _len: usize) -> Option<AppendFault> {
            (index == self.0).then_some(self.1)
        }
        fn on_sync(&mut self, _index: u64) -> bool {
            false
        }
    }

    #[test]
    fn injected_short_write_leaves_a_resumable_torn_tail() {
        let path = tmp("short.wal");
        let mut log = AppendLog::create(&path).unwrap();
        put(&mut log, b"good").unwrap();
        log.set_faults(Some(Box::new(OneShot(1, AppendFault::ShortWrite { keep: 5 }))));
        assert!(put(&mut log, b"doomed record").is_err());
        drop(log);
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Torn { .. }), "{:?}", s.tail);
        assert_eq!(s.records, vec![b"good".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_bit_flip_is_caught_by_the_fingerprint() {
        let path = tmp("flip.wal");
        let mut log = AppendLog::create(&path).unwrap();
        put(&mut log, b"good").unwrap();
        // Flip a payload bit of the second record (header is 12 bytes).
        log.set_faults(Some(Box::new(OneShot(1, AppendFault::BitFlip { bit: 12 * 8 + 3 }))));
        put(&mut log, b"silently damaged").unwrap();
        log.sync().unwrap();
        drop(log);
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Corrupt { .. }), "{:?}", s.tail);
        assert_eq!(s.records, vec![b"good".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    /// The file the per-record writer produced: the header, then each
    /// record's `len | fingerprint | payload` written one `write_all` at a
    /// time. Built independently of `encode_record`, as the oracle for
    /// the batched writer's bytes.
    fn per_record_image(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut img = b"PFWL\x01\x00\x00\x00".to_vec();
        for p in payloads {
            img.extend_from_slice(&(p.len() as u32).to_le_bytes());
            img.extend_from_slice(&crate::record::fingerprint(p).to_le_bytes());
            img.extend_from_slice(p);
        }
        img
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("E {}", i * 7919 % 1000).into_bytes()).collect()
    }

    #[test]
    fn one_flush_writes_the_bytes_of_per_record_appends() {
        let path = tmp("batched.wal");
        let recs = payloads(40);
        let mut log = AppendLog::create(&path).unwrap();
        for p in &recs {
            put(&mut log, p).unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"", "appends stay pending until a flush");
        assert_eq!(log.len(), per_record_image(&recs).len() as u64);
        log.flush().unwrap();
        assert_eq!(log.writes(), 1, "header and 40 records go out in one write");
        log.flush().unwrap();
        assert_eq!(log.writes(), 1, "an empty flush writes nothing");
        assert_eq!(std::fs::read(&path).unwrap(), per_record_image(&recs));

        // A second batch after a flush lands behind the first.
        let more = payloads(45);
        for p in &more[40..] {
            put(&mut log, p).unwrap();
        }
        log.flush().unwrap();
        assert_eq!(log.writes(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), per_record_image(&more));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_flushes_pending_records() {
        let path = tmp("syncflush.wal");
        let recs = payloads(5);
        let mut log = AppendLog::create(&path).unwrap();
        for p in &recs {
            put(&mut log, p).unwrap();
        }
        log.sync().unwrap();
        assert_eq!((log.writes(), log.syncs(), log.dirty()), (1, 1, 0));
        assert_eq!(std::fs::read(&path).unwrap(), per_record_image(&recs));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_faults_leave_the_per_record_bytes() {
        let recs = payloads(12);
        for k in [0usize, 1, 5, 11] {
            let len = RECORD_HEADER_LEN + recs[k].len();
            for keep in [0usize, 3, RECORD_HEADER_LEN, len - 1, len + 10] {
                let path = tmp(&format!("short-{k}-{keep}.wal"));
                let mut log = AppendLog::create(&path).unwrap();
                let fault = AppendFault::ShortWrite { keep };
                log.set_faults(Some(Box::new(OneShot(k as u64, fault))));
                for (i, p) in recs.iter().enumerate() {
                    let r = put(&mut log, p);
                    assert_eq!(r.is_err(), i == k, "record {i}, short write at {k}");
                    if r.is_err() {
                        break;
                    }
                }
                // The error came from the append itself: the prefix and
                // the partial record are already in the file.
                let mut want = per_record_image(&recs[..=k]);
                want.truncate(want.len() - len + keep.min(len - 1));
                assert_eq!(std::fs::read(&path).unwrap(), want, "short write {keep} at {k}");
                assert_eq!(log.len(), want.len() as u64);
                let _ = std::fs::remove_file(&path);
            }
            for bit in [0u32, 35, 12 * 8 + 1, 1000] {
                let path = tmp(&format!("flip-{k}-{bit}.wal"));
                let mut log = AppendLog::create(&path).unwrap();
                log.set_faults(Some(Box::new(OneShot(k as u64, AppendFault::BitFlip { bit }))));
                for p in &recs {
                    put(&mut log, p).unwrap();
                }
                log.flush().unwrap();
                let mut want = per_record_image(&recs);
                let at = per_record_image(&recs[..k]).len();
                let bit = bit as usize % (len * 8);
                want[at + bit / 8] ^= 1 << (bit % 8);
                assert_eq!(std::fs::read(&path).unwrap(), want, "bit flip {bit} at {k}");
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    struct FailSync;
    impl WriteFaults for FailSync {
        fn on_append(&mut self, _index: u64, _len: usize) -> Option<AppendFault> {
            None
        }
        fn on_sync(&mut self, _index: u64) -> bool {
            true
        }
    }

    #[test]
    fn injected_fsync_error_surfaces_without_corrupting() {
        let path = tmp("fsync.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.set_faults(Some(Box::new(FailSync)));
        put(&mut log, b"record").unwrap();
        assert!(log.sync().is_err());
        assert_eq!(log.syncs(), 0);
        let s = scan(&path).unwrap();
        assert_eq!(s.records, vec![b"record".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_policies() {
        let mut always = GroupCommit::new(FsyncPolicy::Always);
        always.note(1);
        assert!(always.due());
        assert!(!always.due()); // nothing pending

        let mut never = GroupCommit::new(FsyncPolicy::Never);
        never.note(1_000_000);
        assert!(!never.due());

        let mut every = GroupCommit::new(FsyncPolicy::EveryN(10));
        every.note(4);
        assert!(!every.due());
        every.note(6);
        assert!(every.due());
        assert!(!every.due());

        let mut interval = GroupCommit::new(FsyncPolicy::IntervalMs(3_600_000));
        interval.note(5);
        assert!(!interval.due(), "an hour has not passed");
        let mut instant = GroupCommit::new(FsyncPolicy::IntervalMs(0));
        instant.note(1);
        assert!(instant.due());
    }
}
