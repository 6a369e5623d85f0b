//! Crash-recovery integration tests: the durability contract of `pfserve`.
//!
//! The load-bearing property is **kill-anywhere bit-identity**: with
//! `fsync always`, crash the service at any point (drop without drain),
//! recover from the write-ahead logs, feed the remaining script, and every
//! tenant's advice file — events, advice, counters, FINAL report — is
//! byte-identical to an uninterrupted run (modulo the honest
//! `recovered=` marker). Around it, the damage-containment properties:
//! any single flipped bit or truncation quarantines or prefix-truncates
//! only the damaged tenant, injected write/sync faults degrade only their
//! victim, and an unusable WAL directory degrades the whole service to
//! in-memory-only — recovery and serving never panic, never abort.

use prefetch_disk::DurabilityFaultPlan;
use prefetch_serve::{ServeOpts, Service, TenantDefaults, TenantSpec, WalOpts, WalRecord};
use prefetch_wal::{AppendLog, FsyncPolicy, Tail};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfserve-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `ServeOpts` with advice files and an always-fsync WAL — the strictest
/// durability point, where acked implies durable.
fn opts(advice: &Path, wal: &Path) -> ServeOpts {
    ServeOpts {
        advice_dir: Some(advice.to_path_buf()),
        echo_advice: false,
        wal: WalOpts {
            dir: Some(wal.to_path_buf()),
            fsync: FsyncPolicy::Always,
            ..WalOpts::default()
        },
        ..ServeOpts::default()
    }
}

/// A deterministic interleaved script: `tenants` tenants, `events` events
/// each, walking overlapping block sequences so the prefetch trees learn
/// real structure and the advice streams are non-trivial.
fn script(tenants: usize, events: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for t in 0..tenants {
        lines.push(format!("OPEN t{t} cache=8 nodes=128"));
    }
    for e in 0..events {
        for t in 0..tenants {
            let block = (e as u64).wrapping_mul(2654435761).wrapping_add(t as u64 * 97) % 48;
            lines.push(format!("EV t{t} {block}"));
        }
    }
    lines
}

fn feed(service: &mut Service, lines: &[String], chunk: usize) {
    for batch in lines.chunks(chunk) {
        let tagged: Vec<(u64, String)> = batch.iter().map(|l| (0, l.clone())).collect();
        let _ = service.process_batch(&tagged);
    }
}

/// A tenant's advice file with the `recovered=` marker normalised away —
/// the one field that is *supposed* to differ after a recovery.
fn advice_file(dir: &Path, tenant: &str) -> String {
    fs::read_to_string(dir.join(format!("{tenant}.advice")))
        .unwrap_or_default()
        .replace(" recovered=replayed", " recovered=none")
        .replace(" recovered=degraded", " recovered=none")
}

/// Run the full script uninterrupted and drain; returns the root so the
/// caller can read `advice-base/` and clone `wal-base/`.
fn baseline(root: &Path, lines: &[String]) {
    let ab = root.join("advice-base");
    let wb = root.join("wal-base");
    let mut s = Service::new(opts(&ab, &wb)).expect("baseline service");
    feed(&mut s, lines, 16);
    let _ = s.drain();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Kill-anywhere bit-identity: crash after any prefix of the script
    /// at any batch size, recover, feed the rest — every advice file
    /// matches the uninterrupted run byte for byte.
    #[test]
    fn random_kill_points_recover_bit_identical(cut in 0usize..=93, chunk in 1usize..9) {
        let root = tmp_dir(&format!("kill-{cut}-{chunk}"));
        let lines = script(3, 30);
        let cut = cut.min(lines.len());
        baseline(&root, &lines);

        // Crash: feed a prefix, then drop without drain.
        let ar = root.join("advice-rec");
        let wr = root.join("wal-rec");
        let crashed = Service::new(opts(&ar, &wr)).expect("crash service");
        {
            let mut crashed = crashed;
            feed(&mut crashed, &lines[..cut], chunk);
        }

        // Recover, feed the suffix, drain.
        let mut ropts = opts(&ar, &wr);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).expect("recovery service");
        let report = s.recover();
        prop_assert!(
            report.quarantined == 0,
            "clean logs must not quarantine: {:?}",
            report.errors
        );
        prop_assert_eq!(report.degraded, 0);
        feed(&mut s, &lines[cut..], 16);
        let _ = s.drain();

        let ab = root.join("advice-base");
        for t in 0..3 {
            let name = format!("t{t}");
            prop_assert!(
                advice_file(&ab, &name) == advice_file(&ar, &name),
                "tenant {} diverged after crash at line {}",
                name,
                cut
            );
        }
        let _ = fs::remove_dir_all(&root);
    }
}

/// One flipped bit anywhere in a WAL never panics recovery, never reaches
/// the damaged tenant's advice silently (it is quarantined, or honestly
/// truncated to a clean replayed prefix), and never touches the sibling.
#[test]
fn bit_flips_quarantine_or_truncate_only_the_victim() {
    let root = tmp_dir("bitflip");
    let lines = script(2, 20);
    baseline(&root, &lines);
    let ab = root.join("advice-base");
    let wb = root.join("wal-base");
    let pristine_t0 = fs::read(wb.join("t0.wal")).unwrap();
    let pristine_t1 = fs::read(wb.join("t1.wal")).unwrap();
    let base_t0 = advice_file(&ab, "t0");
    let base_t1 = advice_file(&ab, "t1");

    // Every bit of the header and first record, then a stride across the
    // rest of the file: headers, length fields, fingerprints, payloads.
    let mut targets: Vec<usize> = (0..20 * 8).collect();
    targets.extend((20 * 8..pristine_t0.len() * 8).step_by(41));
    let mut quarantined = 0u64;
    let mut truncated = 0u64;
    for bit in targets {
        let case = root.join(format!("flip-{bit}"));
        let wal = case.join("wal");
        let advice = case.join("advice");
        fs::create_dir_all(&wal).unwrap();
        let mut damaged = pristine_t0.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        fs::write(wal.join("t0.wal"), &damaged).unwrap();
        fs::write(wal.join("t1.wal"), &pristine_t1).unwrap();

        let mut ropts = opts(&advice, &wal);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        let _ = s.drain();

        // The sibling is untouched, bit for bit.
        assert_eq!(advice_file(&advice, "t1"), base_t1, "flip at bit {bit} leaked into t1");
        // The victim is quarantined, or replayed to an honest prefix.
        let t0 = advice_file(&advice, "t0");
        if report.quarantined == 1 {
            quarantined += 1;
            assert_eq!(t0, "", "quarantined t0 must not write advice (bit {bit})");
            assert_eq!(report.errors.len(), 1);
            assert_eq!(report.errors[0].0, "t0");
        } else {
            truncated += 1;
            assert_eq!(report.quarantined, 0, "bit {bit}");
            // Replayed prefix: every ADV line must match the baseline's
            // ADV lines from the start, in order — detected damage may
            // cost the tail, never silently change advice.
            let got: Vec<&str> = t0.lines().filter(|l| l.starts_with("ADV")).collect();
            let want: Vec<&str> = base_t0.lines().filter(|l| l.starts_with("ADV")).collect();
            assert!(
                got.len() <= want.len() && got[..] == want[..got.len()],
                "flip at bit {bit} silently changed t0's advice"
            );
        }
        let _ = fs::remove_dir_all(&case);
    }
    // Sanity: the sweep exercised both containment paths.
    assert!(quarantined > 0, "no flip quarantined");
    assert!(truncated > 0, "no flip tore the tail");
    let _ = fs::remove_dir_all(&root);
}

/// Truncating the WAL at every byte boundary never panics: the tenant
/// recovers to a clean replayed prefix or is quarantined; nothing else.
#[test]
fn truncation_at_every_byte_boundary_never_panics() {
    let root = tmp_dir("trunc");
    let lines = script(1, 10);
    baseline(&root, &lines);
    let ab = root.join("advice-base");
    let pristine = fs::read(root.join("wal-base").join("t0.wal")).unwrap();
    let want: Vec<String> = advice_file(&ab, "t0")
        .lines()
        .filter(|l| l.starts_with("ADV"))
        .map(str::to_string)
        .collect();

    for len in 0..=pristine.len() {
        let case = root.join(format!("cut-{len}"));
        let wal = case.join("wal");
        let advice = case.join("advice");
        fs::create_dir_all(&wal).unwrap();
        fs::write(wal.join("t0.wal"), &pristine[..len]).unwrap();

        let mut ropts = opts(&advice, &wal);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        let _ = s.drain();

        let got: Vec<String> = advice_file(&advice, "t0")
            .lines()
            .filter(|l| l.starts_with("ADV"))
            .map(str::to_string)
            .collect();
        assert!(
            got.len() <= want.len() && got[..] == want[..got.len()],
            "cut at {len}: advice is not a clean prefix"
        );
        if len == pristine.len() {
            assert_eq!(report.replayed, 1);
            assert_eq!(got.len(), want.len(), "full file must replay fully");
        }
        let _ = fs::remove_dir_all(&case);
    }
    let _ = fs::remove_dir_all(&root);
}

/// Hand-crafted sequence violations — event before OPEN, duplicate OPEN,
/// records after CLOSE — are typed quarantines, and the damaged name
/// stays quarantined for the life of the service.
#[test]
fn sequence_violations_quarantine_with_typed_errors() {
    let spec = TenantSpec::from_opts(&[], &TenantDefaults::default()).unwrap();
    let open = WalRecord::Open { spec, base: false };
    let cases: Vec<(&str, Vec<WalRecord>)> = vec![
        ("ev-before-open", vec![WalRecord::Event(3), open.clone()]),
        ("double-open", vec![open.clone(), WalRecord::Event(3), open.clone()]),
        (
            "after-close",
            vec![open.clone(), WalRecord::Event(3), WalRecord::Close, WalRecord::Event(4)],
        ),
    ];
    for (tag, records) in cases {
        let root = tmp_dir(&format!("seq-{tag}"));
        let wal = root.join("wal");
        fs::create_dir_all(&wal).unwrap();
        let mut log = AppendLog::create(&wal.join("bad.wal")).unwrap();
        for r in &records {
            log.append(|buf| r.encode(buf)).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let mut ropts = opts(&root.join("advice"), &wal);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        assert_eq!(report.quarantined, 1, "{tag} must quarantine");
        assert_eq!(report.errors.len(), 1, "{tag}");
        assert_eq!(report.errors[0].0, "bad", "{tag}");

        // The name is poisoned: a fresh OPEN is refused, the service serves on.
        let responses = s.process_batch(&[
            (0, "OPEN bad".to_string()),
            (0, "OPEN good".to_string()),
            (0, "EV good 7".to_string()),
        ]);
        let lines: Vec<&str> = responses.iter().map(|(_, l)| l.as_str()).collect();
        assert!(
            lines.iter().any(|l| l.starts_with("REJECT bad") && l.contains("quarantined")),
            "{tag}: {lines:?}"
        );
        assert!(lines.iter().any(|l| l.starts_with("OK open good")), "{tag}: {lines:?}");
        let _ = s.drain();
        let _ = fs::remove_dir_all(&root);
    }
}

/// Injected append and sync faults (the `prefetch-disk` durability fault
/// plan driving `prefetch-wal`'s fault hooks) degrade only the victim's
/// WAL; the victim and its siblings keep serving advice.
#[test]
fn injected_durability_faults_degrade_only_the_victim() {
    for (tag, plan) in [
        (
            "short-write",
            DurabilityFaultPlan {
                seed: 11,
                short_write_rate: 1.0,
                ..DurabilityFaultPlan::disabled()
            },
        ),
        (
            "fsync-error",
            DurabilityFaultPlan {
                seed: 12,
                fsync_error_rate: 1.0,
                ..DurabilityFaultPlan::disabled()
            },
        ),
    ] {
        let root = tmp_dir(&format!("inject-{tag}"));
        let mut o = opts(&root.join("advice"), &root.join("wal"));
        o.echo_advice = true;
        let mut s = Service::new(o).unwrap();
        feed(&mut s, &script(2, 5), 16);
        assert!(s.inject_wal_faults("t0", Box::new(plan.injector(0))), "{tag}: no log to arm");

        let more: Vec<String> =
            (0..6).flat_map(|e| [format!("EV t0 {e}"), format!("EV t1 {e}")]).collect();
        let tagged: Vec<(u64, String)> = more.iter().map(|l| (0, l.clone())).collect();
        let responses = s.process_batch(&tagged);
        let adv =
            |t: &str| responses.iter().filter(|(_, l)| l.starts_with(&format!("ADV {t}"))).count();
        // Both tenants served every event, fault or not.
        assert_eq!(adv("t0"), 6, "{tag}");
        assert_eq!(adv("t1"), 6, "{tag}");

        let finals = s.drain();
        let final_of = |t: &str| {
            finals
                .iter()
                .find(|l| l.starts_with(&format!("FINAL {t}")))
                .unwrap_or_else(|| panic!("{tag}: no FINAL for {t}"))
        };
        assert!(final_of("t0").contains(" wal=degraded "), "{tag}: {}", final_of("t0"));
        assert!(final_of("t1").contains(" wal=on "), "{tag}: {}", final_of("t1"));
        let bye = finals.iter().find(|l| l.starts_with("BYE")).unwrap();
        assert!(bye.contains(" wal=on"), "{tag}: {bye}");
        assert!(bye.contains(" wal_degraded=1"), "{tag}: {bye}");
        let _ = fs::remove_dir_all(&root);
    }
}

/// The records of a tenant's log, decoded (the scan must be clean or
/// torn — never corrupt).
fn logged(wal: &Path, tenant: &str) -> (Vec<WalRecord>, Tail) {
    let scan = prefetch_wal::scan(&wal.join(format!("{tenant}.wal"))).unwrap();
    let records = scan.records.iter().map(|r| WalRecord::decode(r).unwrap()).collect();
    (records, scan.tail)
}

fn adv_lines(dir: &Path, tenant: &str) -> Vec<String> {
    advice_file(dir, tenant).lines().filter(|l| l.starts_with("ADV")).map(str::to_string).collect()
}

/// A tenant quarantined in the middle of a batch (its armed panic fires
/// at the batch-end flush) has every record it accepted in that batch on
/// disk — including the events queued behind the `PANIC` line — and a
/// recovery replays the log into the same quarantine with the same
/// counters. `fsync never`: only the flush makes the records visible.
#[test]
fn mid_batch_quarantine_keeps_accepted_records_and_recovers_into_it() {
    let root = tmp_dir("midq");
    let (advice, wal) = (root.join("advice"), root.join("wal"));
    let mut o = opts(&advice, &wal);
    o.wal.fsync = FsyncPolicy::Never;
    let mut s = Service::new(o.clone()).unwrap();
    feed(&mut s, &script(2, 4), 64);
    let batch: Vec<(u64, String)> =
        ["EV t0 5", "EV t1 5", "EV t0 6", "PANIC t0", "EV t0 7", "EV t1 6", "EV t0 8"]
            .iter()
            .map(|l| (0, l.to_string()))
            .collect();
    let responses = s.process_batch(&batch);
    assert!(responses.iter().any(|(_, l)| l.starts_with("PANIC t0 quarantined")), "{responses:?}");

    // Before any drain: t0's log holds the whole accepted history.
    let (records, tail) = logged(&wal, "t0");
    assert_eq!(tail, Tail::Clean);
    let events: Vec<u64> = records
        .iter()
        .filter_map(|r| if let WalRecord::Event(b) = r { Some(*b) } else { None })
        .collect();
    assert_eq!(events.len(), 4 + 4, "{records:?}");
    assert_eq!(&events[4..], &[5, 6, 7, 8]);
    assert_eq!(records.iter().filter(|r| **r == WalRecord::PanicArm).count(), 1);
    let live = s.drain();
    let live_final = live.iter().find(|l| l.starts_with("FINAL t0")).unwrap().clone();
    assert!(live_final.contains(" quarantined=true "), "{live_final}");

    let mut ro = o;
    ro.advice_dir = Some(root.join("advice-rec"));
    ro.wal.recover = true;
    let mut r = Service::new(ro).unwrap();
    let report = r.recover();
    assert_eq!((report.replayed, report.quarantined), (1, 1), "{:?}", report.errors);
    assert_eq!(report.errors[0].0, "t0");
    let rec = r.drain();
    let rec_final = rec.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    let counters = |l: &str| l.split(" err=").next().unwrap().to_string();
    assert_eq!(counters(rec_final), counters(&live_final));
    assert_eq!(adv_lines(&root.join("advice-rec"), "t0"), adv_lines(&advice, "t0"));
    let _ = fs::remove_dir_all(&root);
}

/// Fails append number `at` (counted from installation) with a short
/// write that keeps `keep` bytes of the record.
struct ShortAt {
    calls: u64,
    at: u64,
    keep: usize,
}

impl prefetch_wal::WriteFaults for ShortAt {
    fn on_append(&mut self, _index: u64, _len: usize) -> Option<prefetch_wal::AppendFault> {
        self.calls += 1;
        (self.calls - 1 == self.at)
            .then_some(prefetch_wal::AppendFault::ShortWrite { keep: self.keep })
    }
    fn on_sync(&mut self, _index: u64) -> bool {
        false
    }
}

/// A tenant degraded by a short write in the middle of a batch has every
/// record accepted before the failing one on disk, followed by the torn
/// partial record; it keeps serving in memory. Recovery truncates the
/// torn tail and replays exactly the logged prefix: the recovered
/// tenant's advice is the live tenant's up to the degradation point.
#[test]
fn mid_batch_degradation_keeps_accepted_records_and_recovers_the_prefix() {
    let root = tmp_dir("midd");
    let (advice, wal) = (root.join("advice"), root.join("wal"));
    let mut o = opts(&advice, &wal);
    o.wal.fsync = FsyncPolicy::Never;
    let mut s = Service::new(o.clone()).unwrap();
    feed(&mut s, &script(2, 4), 64);
    assert!(s.inject_wal_faults("t0", Box::new(ShortAt { calls: 0, at: 2, keep: 7 })));
    let batch: Vec<(u64, String)> =
        ["EV t0 5", "EV t1 5", "EV t0 6", "EV t0 7", "EV t1 6", "EV t0 8"]
            .iter()
            .map(|l| (0, l.to_string()))
            .collect();
    let _ = s.process_batch(&batch);

    // The third t0 append (block 7) failed: blocks 5 and 6, pending at
    // that moment, reached the file in front of the torn record.
    let (records, tail) = logged(&wal, "t0");
    assert!(matches!(tail, Tail::Torn { dropped: 7, .. }), "{tail:?}");
    let events: Vec<u64> = records
        .iter()
        .filter_map(|r| if let WalRecord::Event(b) = r { Some(*b) } else { None })
        .collect();
    assert_eq!(events.len(), 4 + 2);
    assert_eq!(&events[4..], &[5, 6]);
    let live = s.drain();
    let live_final = live.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    assert!(
        live_final.contains(" events=8 ") && live_final.contains(" wal=degraded "),
        "{live_final}"
    );

    let mut ro = o;
    ro.advice_dir = Some(root.join("advice-rec"));
    ro.wal.recover = true;
    let mut r = Service::new(ro).unwrap();
    let report = r.recover();
    assert_eq!((report.replayed, report.torn_truncated, report.quarantined), (2, 1, 0));
    let rec = r.drain();
    let rec_final = rec.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    assert!(rec_final.contains(" events=6 "), "{rec_final}");
    let want = adv_lines(&advice, "t0");
    assert_eq!(adv_lines(&root.join("advice-rec"), "t0"), want[..6].to_vec());
    assert_eq!(adv_lines(&root.join("advice-rec"), "t1"), adv_lines(&advice, "t1"));
    let _ = fs::remove_dir_all(&root);
}

/// An unusable WAL directory degrades the whole service to in-memory-only
/// — a warning and a flag, not a refused start, and serving is unaffected.
#[test]
fn unusable_wal_dir_degrades_to_memory_only() {
    let root = tmp_dir("nodir");
    let file = root.join("blocker");
    fs::write(&file, b"i am a file, not a directory").unwrap();
    let mut o = opts(&root.join("advice"), &file.join("sub"));
    o.echo_advice = true;
    let mut s = Service::new(o).expect("degraded start must succeed");
    let responses = s.process_batch(&[
        (0, "OPEN t0".to_string()),
        (0, "EV t0 1".to_string()),
        (0, "EV t0 2".to_string()),
    ]);
    assert!(responses.iter().filter(|(_, l)| l.starts_with("ADV t0")).count() == 2);
    let finals = s.drain();
    let final_t0 = finals.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    assert!(final_t0.contains(" wal=off "), "{final_t0}");
    let bye = finals.iter().find(|l| l.starts_with("BYE")).unwrap();
    assert!(bye.contains(" wal=degraded"), "{bye}");
    let _ = fs::remove_dir_all(&root);
}

/// CLOSE seals and retires the tenant's durability artifacts: the log is
/// deleted after the close record is durable, and recovery over the
/// directory finds nothing to restore.
#[test]
fn close_retires_the_log_and_recovery_finds_nothing() {
    let root = tmp_dir("close");
    let wal = root.join("wal");
    let mut s = Service::new(opts(&root.join("advice"), &wal)).unwrap();
    let mut lines = script(1, 8);
    lines.push("CLOSE t0".to_string());
    feed(&mut s, &lines, 16);
    assert!(!wal.join("t0.wal").exists(), "CLOSE must retire the log");
    let _ = s.drain();

    let mut ropts = opts(&root.join("advice2"), &wal);
    ropts.wal.recover = true;
    let mut s = Service::new(ropts).unwrap();
    let report = s.recover();
    assert_eq!(
        (report.replayed, report.degraded, report.closed, report.quarantined),
        (0, 0, 0, 0),
        "retired tenant must leave no recovery work"
    );
    let _ = s.drain();
    let _ = fs::remove_dir_all(&root);
}

/// Over the replay cap, recovery degrades honestly: counters come back
/// from the log (FINAL events match), state warm-starts from the latest
/// checkpoint, and the marker says `recovered=degraded`.
#[test]
fn over_cap_recovery_degrades_from_checkpoint() {
    let root = tmp_dir("cap");
    let wal = root.join("wal");
    let mut o = opts(&root.join("advice"), &wal);
    o.wal.checkpoint_every = 5;
    {
        let mut s = Service::new(o.clone()).unwrap();
        feed(&mut s, &script(1, 20), 4);
        // Crash: no drain.
    }
    assert!(wal.join("t0.ckpt.pftree").exists(), "checkpoints must have been written");

    let mut ropts = o;
    ropts.wal.recover = true;
    ropts.wal.recover_cap_events = 3;
    let mut s = Service::new(ropts).unwrap();
    let report = s.recover();
    assert_eq!(report.degraded, 1, "{:?}", report.errors);
    assert_eq!(report.replayed, 0);
    let finals = s.drain();
    let final_t0 = finals.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    assert!(
        final_t0.contains(" events=20 "),
        "counters must survive degraded recovery: {final_t0}"
    );
    assert!(final_t0.contains(" recovered=degraded "), "{final_t0}");
    let _ = fs::remove_dir_all(&root);
}
