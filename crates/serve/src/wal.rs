//! Crash durability for the service: per-tenant write-ahead logs,
//! periodic checkpoints, and the typed recovery vocabulary.
//!
//! Every admitted tenant gets an append-only `prefetch-wal` log at
//! `<wal_dir>/<name>.wal` holding its complete accepted history: one
//! `O` record (the resolved [`TenantSpec`], re-encoded in the `OPEN`
//! option grammar), one `E` record per accepted event, `S`/`H` markers
//! for attributed skips and sheds (so `FINAL` counters survive a
//! crash), `P` when the chaos hook arms, and `C` at close. Records are
//! appended at *accept* time — before the event is processed — into the
//! log's pending buffer. At each batch end, before the batch's responses
//! are released, the commit pass hands every log's pending records to
//! the OS in one write per tenant and then, when the group-commit policy
//! ([`prefetch_wal::GroupCommit`]) says so, syncs the dirty logs. So
//! every acknowledged response is written to the OS, and under
//! `--fsync always` it is durable. Paths that sync or drop a log
//! mid-batch (close, quarantine, degradation) flush it first.
//!
//! Recovery (`Service::recover`) replays each live log **in full**
//! through a fresh tenant: a tenant's advice stream is a pure function
//! of its own ordered events (the crate's determinism contract), so the
//! replayed advice — file and counters — is bit-identical to the
//! uninterrupted run. Periodic checkpoints (`<name>.ckpt.pftree`, with
//! one `.prev` generation) exist to bound *degraded* recovery: a log
//! longer than `--recover-cap-events` is not replayed but warm-started
//! from the freshest readable checkpoint, trading the simulator's cache
//! state for O(1) restart. Damage is classified by the scan: torn tails
//! (crash artifacts) are truncated and the log resumes; corruption
//! quarantines that one tenant with a typed [`RecoveryError`] while
//! every sibling recovers normally.

use crate::tenant::{TenantDefaults, TenantSpec, TenantState};
use prefetch_sim::PolicySpec;
use prefetch_wal::{AppendLog, FsyncPolicy, GroupCommit};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Durability configuration carried inside `ServeOpts`.
#[derive(Clone, Debug)]
pub struct WalOpts {
    /// Per-tenant WAL directory; `None` disables durability entirely.
    pub dir: Option<PathBuf>,
    /// When the group-commit pass syncs dirty logs.
    pub fsync: FsyncPolicy,
    /// Checkpoint a tenant's tree after this many logged events
    /// (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Run recovery from `dir` before serving.
    pub recover: bool,
    /// Replay at most this many events per tenant; longer logs recover
    /// degraded from the freshest checkpoint (0 = unbounded replay).
    pub recover_cap_events: u64,
}

impl Default for WalOpts {
    fn default() -> Self {
        WalOpts {
            dir: None,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 4096,
            recover: false,
            recover_cap_events: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// One decoded WAL record (see the module docs for the grammar).
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Tenant admitted: the resolved spec, and whether a warm-start base
    /// snapshot (`<name>.base.pftree`) was captured at open.
    Open {
        /// Resolved configuration the tenant was admitted under.
        spec: TenantSpec,
        /// Replay must warm-start from the captured base snapshot.
        base: bool,
    },
    /// One accepted access event.
    Event(u64),
    /// A malformed line was charged to this tenant (`skipped` counter).
    Skip,
    /// An event was shed by backpressure (`shed` counter).
    Shed,
    /// The chaos hook armed: the next event processing panics.
    PanicArm,
    /// The tenant closed cleanly (its snapshot, if any, was saved first).
    Close,
}

/// Render a policy in the `OPEN` option grammar, so the `O` record
/// round-trips through `TenantSpec::from_opts`. Variants the grammar
/// cannot express (never produced by `from_opts`) render to their
/// rejected names, which recovery surfaces as a typed quarantine rather
/// than silently mis-replaying.
fn render_policy(p: &PolicySpec) -> String {
    match p {
        PolicySpec::NoPrefetch => "no-prefetch".into(),
        PolicySpec::NextLimit => "next-limit".into(),
        PolicySpec::Tree => "tree".into(),
        PolicySpec::TreeNextLimit => "tree-next-limit".into(),
        PolicySpec::TreeLvc => "tree-lvc".into(),
        PolicySpec::TreeReanchor => "tree-reanchor".into(),
        PolicySpec::TreeThreshold(t) => format!("tree-threshold={t}"),
        PolicySpec::TreeChildren(k) => format!("tree-children={k}"),
        PolicySpec::PerfectSelector => "perfect-selector".into(),
        PolicySpec::PanicProbe { .. } => "panic-probe".into(),
    }
}

impl WalRecord {
    /// Append the record payload (ASCII, one logical line) to `out`. The
    /// log's pending buffer is the usual `out`, so appending a record
    /// allocates nothing.
    pub fn encode(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        // Writing into a `Vec` cannot fail, so the results are dropped.
        match self {
            WalRecord::Open { spec, base } => {
                let _ = write!(
                    out,
                    "O cache={} policy={} nodes={} overflow={} base={}",
                    spec.cache_blocks,
                    render_policy(&spec.policy),
                    spec.node_limit,
                    if spec.freeze { "freeze" } else { "evict" },
                    u8::from(*base),
                );
                if let Some(d) = spec.disks {
                    let _ = write!(out, " disks={d}");
                }
                if spec.fault_rate > 0.0 {
                    let _ = write!(
                        out,
                        " fault_rate={} fault_seed={}",
                        spec.fault_rate, spec.fault_seed
                    );
                }
            }
            WalRecord::Event(block) => {
                let _ = write!(out, "E {block}");
            }
            WalRecord::Skip => out.push(b'S'),
            WalRecord::Shed => out.push(b'H'),
            WalRecord::PanicArm => out.push(b'P'),
            WalRecord::Close => out.push(b'C'),
        }
    }

    /// Decode one record payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "record is not UTF-8".to_string())?;
        let mut fields = text.split_ascii_whitespace();
        match fields.next() {
            Some("O") => {
                let mut base = false;
                let mut opts: Vec<(String, String)> = Vec::new();
                for opt in fields {
                    let Some((k, v)) = opt.split_once('=') else {
                        return Err(format!("O option {opt:?} is not key=value"));
                    };
                    if k == "base" {
                        base = v == "1";
                    } else {
                        opts.push((k.to_owned(), v.to_owned()));
                    }
                }
                // Every field is explicit in the record, so the defaults
                // in force at replay time cannot skew the spec.
                let spec = TenantSpec::from_opts(&opts, &TenantDefaults::default())
                    .map_err(|e| format!("O record does not resolve: {}", e.render("?")))?;
                Ok(WalRecord::Open { spec, base })
            }
            Some("E") => {
                let raw = fields.next().ok_or("E record lacks a block")?;
                let block = raw.parse().map_err(|_| format!("E block {raw:?} is not a u64"))?;
                Ok(WalRecord::Event(block))
            }
            Some("S") => Ok(WalRecord::Skip),
            Some("H") => Ok(WalRecord::Shed),
            Some("P") => Ok(WalRecord::PanicArm),
            Some("C") => Ok(WalRecord::Close),
            other => Err(format!("unknown record tag {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Live-side bookkeeping
// ---------------------------------------------------------------------------

/// One tenant's open log plus its checkpoint countdown.
pub(crate) struct TenantLog {
    pub(crate) log: AppendLog,
    /// Events appended since the last checkpoint.
    pub(crate) since_ckpt: u64,
}

/// The service's durability state: the WAL directory, every open
/// tenant log (keyed by slot index), the group-commit tracker, and the
/// counters surfaced in `BYE` and the recovery bench artifact.
pub(crate) struct Durability {
    dir: PathBuf,
    pub(crate) commit: GroupCommit,
    pub(crate) checkpoint_every: u64,
    pub(crate) logs: BTreeMap<usize, TenantLog>,
    /// Records appended across all logs.
    pub(crate) appends: u64,
    /// `write_all` calls of logs no longer open (see [`Durability::writes`]).
    retired_writes: u64,
    /// Successful group-commit fsync passes (log-level syncs).
    pub(crate) fsyncs: u64,
    /// Sync failures (each degrades its tenant to in-memory).
    pub(crate) sync_errors: u64,
    /// Tenants that lost durability mid-run and kept serving in-memory.
    pub(crate) degraded_tenants: u64,
    /// Checkpoint snapshots written.
    pub(crate) checkpoints: u64,
}

impl Durability {
    /// Open the durability layer, creating the WAL directory.
    pub(crate) fn new(dir: &Path, fsync: FsyncPolicy, checkpoint_every: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Durability {
            dir: dir.to_path_buf(),
            commit: GroupCommit::new(fsync),
            checkpoint_every,
            logs: BTreeMap::new(),
            appends: 0,
            retired_writes: 0,
            fsyncs: 0,
            sync_errors: 0,
            degraded_tenants: 0,
            checkpoints: 0,
        })
    }

    /// The WAL directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a tenant's WAL file.
    pub(crate) fn wal_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.wal"))
    }

    /// Path of a tenant's warm-start base snapshot (captured at open so
    /// replay starts from the same tree the live tenant did, even after
    /// later checkpoints overwrite the main snapshot).
    pub(crate) fn base_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.base.pftree"))
    }

    /// Path of a tenant's freshest checkpoint snapshot.
    pub(crate) fn ckpt_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt.pftree"))
    }

    /// Path of the previous checkpoint generation.
    pub(crate) fn ckpt_prev_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt.pftree.prev"))
    }

    /// Create a fresh log for a newly admitted tenant and append its
    /// `O` record.
    pub(crate) fn create_log(
        &mut self,
        name: &str,
        spec: &TenantSpec,
        base: bool,
    ) -> io::Result<TenantLog> {
        let mut log = AppendLog::create(&self.wal_path(name))?;
        let open = WalRecord::Open { spec: spec.clone(), base };
        log.append(|buf| open.encode(buf))?;
        self.appends += 1;
        self.commit.note(1);
        Ok(TenantLog { log, since_ckpt: 0 })
    }

    /// Append one record to a tenant's pending buffer (no-op when the
    /// tenant has no log — already degraded); it reaches the OS at the
    /// next flush. Errors (only an injected short write fails here) must
    /// degrade the tenant.
    pub(crate) fn append(&mut self, idx: usize, record: &WalRecord) -> io::Result<()> {
        let Some(t) = self.logs.get_mut(&idx) else { return Ok(()) };
        t.log.append(|buf| record.encode(buf))?;
        self.appends += 1;
        self.commit.note(1);
        if matches!(record, WalRecord::Event(_)) {
            t.since_ckpt += 1;
        }
        Ok(())
    }

    /// Delete every on-disk artifact of a closed tenant (log, base
    /// snapshot, checkpoint generations). Best-effort: the tenant is
    /// gone either way, and a surviving log ends in `C`, which recovery
    /// treats as closed.
    pub(crate) fn retire(&mut self, idx: usize, name: &str) {
        self.drop_log(idx);
        for path in [
            self.wal_path(name),
            self.base_path(name),
            self.ckpt_path(name),
            self.ckpt_prev_path(name),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Drop a tenant's log without touching its files (mid-run
    /// degradation keeps the history for postmortem, quarantine keeps it
    /// so recovery reproduces the failure). Pending records are flushed
    /// first, best-effort: the tenant is losing durability either way.
    pub(crate) fn drop_log(&mut self, idx: usize) {
        if let Some(mut t) = self.logs.remove(&idx) {
            let _ = t.log.flush();
            self.retired_writes += t.log.writes();
        }
    }

    /// `write_all` calls across all logs, live and dropped.
    pub(crate) fn writes(&self) -> u64 {
        self.retired_writes + self.logs.values().map(|t| t.log.writes()).sum::<u64>()
    }

    /// Hand every log's pending records to the OS, one write per log;
    /// returns the slot indices whose write failed, with the error (the
    /// caller degrades those tenants).
    pub(crate) fn flush_all(&mut self) -> Vec<(usize, io::Error)> {
        let mut failed = Vec::new();
        for (&idx, t) in self.logs.iter_mut() {
            if let Err(e) = t.log.flush() {
                failed.push((idx, e));
            }
        }
        failed
    }

    /// Sync (flushing first) every dirty log; returns the slot indices
    /// whose sync failed (the caller degrades those tenants).
    pub(crate) fn sync_all(&mut self) -> Vec<usize> {
        let mut failed = Vec::new();
        for (&idx, t) in self.logs.iter_mut() {
            if t.log.dirty() == 0 {
                continue;
            }
            match t.log.sync() {
                Ok(()) => self.fsyncs += 1,
                Err(_) => {
                    self.sync_errors += 1;
                    failed.push(idx);
                }
            }
        }
        failed
    }

    /// Slot indices whose checkpoint countdown expired.
    pub(crate) fn checkpoint_due(&mut self) -> Vec<usize> {
        if self.checkpoint_every == 0 {
            return Vec::new();
        }
        let every = self.checkpoint_every;
        self.logs
            .iter_mut()
            .filter_map(|(&idx, t)| {
                if t.since_ckpt >= every {
                    t.since_ckpt = 0;
                    Some(idx)
                } else {
                    None
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Recovery vocabulary
// ---------------------------------------------------------------------------

/// Why one tenant could not be recovered (the other tenants are
/// unaffected; the damaged one is quarantined with this reason).
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryError {
    /// The scan found damage no crash can produce.
    Corrupt {
        /// Byte offset of the damage.
        at: u64,
        /// Scanner's cause.
        reason: String,
    },
    /// A record decoded to garbage or violated the protocol (no leading
    /// `O`, a duplicate `O`, records after `C`).
    Malformed {
        /// Record index in the log.
        index: usize,
        /// What was wrong.
        reason: String,
    },
    /// Admission control refused the restored tenant (the budget shrank
    /// between runs).
    AdmissionRefused(String),
    /// The log could not be read at all.
    Io(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Corrupt { at, reason } => {
                write!(f, "corrupt wal at byte {at}: {reason}")
            }
            RecoveryError::Malformed { index, reason } => {
                write!(f, "malformed wal record {index}: {reason}")
            }
            RecoveryError::AdmissionRefused(r) => write!(f, "admission refused: {r}"),
            RecoveryError::Io(e) => write!(f, "wal unreadable: {e}"),
        }
    }
}

/// What `Service::recover` did, per class; rendered into the recovery
/// bench artifact and the startup log line.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Tenants restored by full replay (bit-identical state).
    pub replayed: u64,
    /// Tenants warm-started from a checkpoint because their log
    /// exceeded the replay cap (tree restored, cache state lost).
    pub degraded: u64,
    /// Logs that ended in `C`: the tenant closed cleanly, nothing to do.
    pub closed: u64,
    /// Tenants quarantined by a typed [`RecoveryError`] (or by a panic
    /// faithfully reproduced during replay).
    pub quarantined: u64,
    /// Logs whose torn tail was truncated before resuming.
    pub torn_truncated: u64,
    /// Events replayed across all tenants.
    pub replayed_events: u64,
    /// Wall-clock recovery time.
    pub elapsed_ms: u64,
    /// Per-tenant failure detail, in recovery order.
    pub errors: Vec<(String, String)>,
}

/// Decode and sequence-check a scanned log: exactly one leading `O`,
/// nothing after `C`. Returns the records (first is always the `Open`).
pub(crate) fn decode_log(records: &[Vec<u8>]) -> Result<Vec<WalRecord>, RecoveryError> {
    let mut out = Vec::with_capacity(records.len());
    for (index, payload) in records.iter().enumerate() {
        let rec = WalRecord::decode(payload)
            .map_err(|reason| RecoveryError::Malformed { index, reason })?;
        match (&rec, index, out.last()) {
            (WalRecord::Open { .. }, 0, _) => {}
            (WalRecord::Open { .. }, _, _) => {
                return Err(RecoveryError::Malformed {
                    index,
                    reason: "duplicate O record".into(),
                });
            }
            (_, 0, _) => {
                return Err(RecoveryError::Malformed {
                    index,
                    reason: "first record is not O".into(),
                });
            }
            (_, _, Some(WalRecord::Close)) => {
                return Err(RecoveryError::Malformed { index, reason: "record after C".into() });
            }
            _ => {}
        }
        out.push(rec);
    }
    Ok(out)
}

/// Replay a decoded event history into a fresh tenant (no `catch_unwind`
/// here — the caller wraps each event so a reproduced panic quarantines
/// exactly like the live run). Returns events applied.
pub(crate) fn apply_record(state: &mut TenantState, record: &WalRecord) -> bool {
    match record {
        WalRecord::Open { .. } | WalRecord::Close => false,
        WalRecord::Event(block) => {
            state.process_event(*block);
            true
        }
        WalRecord::Skip => {
            state.skipped += 1;
            false
        }
        WalRecord::Shed => {
            state.shed += 1;
            false
        }
        WalRecord::PanicArm => {
            state.panic_armed = true;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode(&mut out);
        out
    }

    fn spec(pairs: &[(&str, &str)]) -> TenantSpec {
        let opts: Vec<(String, String)> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        TenantSpec::from_opts(&opts, &TenantDefaults::default()).unwrap()
    }

    #[test]
    fn records_roundtrip() {
        let cases = vec![
            WalRecord::Open { spec: spec(&[]), base: false },
            WalRecord::Open {
                spec: spec(&[
                    ("cache", "128"),
                    ("policy", "tree-threshold=0.25"),
                    ("nodes", "512"),
                    ("overflow", "freeze"),
                    ("disks", "4"),
                    ("fault_rate", "0.125"),
                    ("fault_seed", "77"),
                ]),
                base: true,
            },
            WalRecord::Event(0),
            WalRecord::Event(u64::MAX),
            WalRecord::Skip,
            WalRecord::Shed,
            WalRecord::PanicArm,
            WalRecord::Close,
        ];
        for rec in cases {
            let back = WalRecord::decode(&encoded(&rec)).unwrap();
            match (&rec, &back) {
                (WalRecord::Open { spec: a, base: ba }, WalRecord::Open { spec: b, base: bb }) => {
                    assert_eq!(ba, bb);
                    assert_eq!(a.cache_blocks, b.cache_blocks);
                    assert_eq!(a.policy, b.policy);
                    assert_eq!(a.node_limit, b.node_limit);
                    assert_eq!(a.freeze, b.freeze);
                    assert_eq!(a.disks, b.disks);
                    assert_eq!(a.fault_rate, b.fault_rate);
                    assert_eq!(a.fault_seed, b.fault_seed);
                }
                _ => assert_eq!(rec, back),
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [&b"X 1"[..], b"E", b"E not-a-number", b"O cache", b"", b"\xff\xfe"] {
            assert!(WalRecord::decode(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn sequence_violations_are_typed() {
        let img = |recs: &[WalRecord]| recs.iter().map(encoded).collect::<Vec<_>>();
        let open = WalRecord::Open { spec: spec(&[]), base: false };

        // Event before open.
        let e = decode_log(&img(&[WalRecord::Event(1)])).unwrap_err();
        assert!(matches!(e, RecoveryError::Malformed { index: 0, .. }), "{e}");

        // Duplicate open.
        let e = decode_log(&img(&[open.clone(), open.clone()])).unwrap_err();
        assert!(matches!(e, RecoveryError::Malformed { index: 1, .. }), "{e}");

        // Records after close.
        let e =
            decode_log(&img(&[open.clone(), WalRecord::Close, WalRecord::Event(3)])).unwrap_err();
        assert!(matches!(e, RecoveryError::Malformed { index: 2, .. }), "{e}");

        // The happy path decodes.
        let recs =
            decode_log(&img(&[open, WalRecord::Event(1), WalRecord::Shed, WalRecord::Close]))
                .unwrap();
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn unexpressible_policies_fail_closed() {
        let mut s = spec(&[]);
        s.policy = PolicySpec::PerfectSelector;
        let rec = WalRecord::Open { spec: s, base: false };
        assert!(WalRecord::decode(&encoded(&rec)).is_err());
    }
}
