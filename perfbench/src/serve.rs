//! The service workload, `serve-wal`.
//!
//! One closed-loop client drives an in-process [`Service`] with
//! `pfserve-loadgen` traffic (no chaos) in batches of pfserve's default
//! size: it sends a batch, waits for the responses, then sends the next.
//! The write-ahead log is on with `fsync=never` and the default
//! checkpoint interval. Tenants run under a node budget the events
//! overrun, so tree eviction runs.
//!
//! Halfway through the events the client asks every tenant for `STATS`
//! and drops the service without draining it: that is the crash. A new
//! service recovers from the log (timed), every tenant's `STATS` must
//! match its pre-crash line apart from the `wal=` and `queue_hwm=` fields,
//! and the client finishes the script and drains. A pass is that whole sequence; every
//! pass must produce the same response stream.
//!
//! The traced run adds side calls after each batch: `parse_line` on every
//! line, and a replay of each tenant's events through a standalone
//! [`TenantState`] and a standalone [`CostBenefitEngine`] tree update.

use crate::report::{fill, median, peak_rss_mb, ratio, reduce, Outcome, SegmentTimes, Tally};
use crate::report::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use prefetch_core::CostBenefitEngine;
use prefetch_hash::Fnv64;
use prefetch_serve::loadgen::{self, LoadgenOpts};
use prefetch_serve::WalOpts;
use prefetch_serve::{parse_line, ConnId, Request, ServeOpts, Service, TenantSpec, TenantState};
use prefetch_trace::BlockId;
use prefetch_wal::FsyncPolicy;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Tenants in the script.
const TENANTS: usize = 200;
/// Per-tenant prefetch-tree node budget (the server default is 4096).
const NODE_BUDGET: usize = 1024;
/// Access events per tenant: 2.5 × the node budget.
const EVENTS_PER_TENANT: usize = 2560;
/// Request lines per `process_batch` call (pfserve's default `--batch`).
const BATCH_LINES: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The generated request script and where the crash happens in it.
struct Script {
    lines: Vec<String>,
    /// Line index of the crash: the batch boundary nearest the middle of
    /// the `EV` lines.
    crash_at: usize,
    /// `STATS <tenant>` for every tenant.
    stats: Vec<String>,
}

fn make_script(seed: u64) -> Script {
    let generated = loadgen::generate(&LoadgenOpts {
        tenants: TENANTS,
        events_per_tenant: EVENTS_PER_TENANT,
        seed,
        chaos: false,
        shutdown: true,
        ..LoadgenOpts::default()
    });
    let lines = generated.lines;
    let first = lines.iter().position(|l| l.starts_with("EV ")).expect("script has events");
    let last = lines.iter().rposition(|l| l.starts_with("EV ")).expect("script has events");
    let mid = (first + last) / 2;
    let crash_at = mid - mid % BATCH_LINES;
    let stats = (0..TENANTS).map(|i| format!("STATS {}", loadgen::tenant_name(i))).collect();
    Script { lines, crash_at, stats }
}

fn serve_opts(wal_dir: &Path, recover: bool) -> ServeOpts {
    let mut opts = ServeOpts::default();
    opts.defaults.node_limit = NODE_BUDGET;
    opts.wal = WalOpts {
        dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::Never,
        recover,
        ..WalOpts::default()
    };
    opts
}

/// Pool workers. One: on a 2-vCPU shared Xeon VM, a worker per core made
/// each batch wait for whichever core a neighbour was using, and the
/// run-to-run spread of `refs_per_s` rose from 6% to 53%.
pub const POOL_THREADS: usize = 1;

/// Summary facts of a run, printed as the metadata line's service part.
pub fn describe() -> String {
    format!(
        "tenants={TENANTS} events_per_tenant={EVENTS_PER_TENANT} node_budget={NODE_BUDGET} \
         batch_lines={BATCH_LINES} fsync=never checkpoint_every={} pool_threads={}",
        WalOpts::default().checkpoint_every,
        POOL_THREADS
    )
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// The unsigned integer after `"key":` in a flat JSON object.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    json.find(&pat)
        .map(|i| &json[i + pat.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
        .unwrap_or(0)
}

/// The value of `key=` in a response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(' ').find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// A `STATS` response without its `wal=` field and the service's
/// `queue_hwm=` field. The queue high-water mark describes how the
/// listener batched the tenant's input; it is not logged, so a recovered
/// tenant restarts it at 0 (the run prints how many did).
fn recovered_part(line: &str) -> String {
    line.split(' ')
        .filter(|tok| !tok.starts_with("wal=") && !tok.starts_with("queue_hwm="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Side calls of the traced pass: standalone per-tenant state fed the
/// same events as the service.
struct Shadow {
    tenants: HashMap<String, (TenantState, CostBenefitEngine)>,
    lines_parsed: u64,
    events_replayed: u64,
}

impl Shadow {
    fn new(defaults: &prefetch_serve::TenantDefaults) -> Self {
        let mut tenants = HashMap::new();
        for i in 0..TENANTS {
            let name = loadgen::tenant_name(i);
            let spec = TenantSpec::from_opts(&[], defaults).expect("default tenant spec is valid");
            let config = spec.to_sim_config();
            let engine = CostBenefitEngine::new(config.params, config.engine);
            let state = TenantState::new(&name, spec, None).expect("no advice file to create");
            tenants.insert(name, (state, engine));
        }
        Shadow { tenants, lines_parsed: 0, events_replayed: 0 }
    }

    /// After batch `id`: parse every line (one span), then replay each
    /// tenant's events of the batch through its standalone state (one
    /// span per tenant) and its standalone tree update (one span per
    /// tenant). Returns the nanoseconds spent.
    fn after_batch(&mut self, id: u64, lines: &[(ConnId, String)], spans: &mut Spans) -> u64 {
        let t0 = spans.now();
        let mut parsed = Vec::with_capacity(lines.len());
        for (_, line) in lines {
            parsed.push(parse_line(line));
        }
        let t1 = spans.now();
        spans.record(id, "serve.parse", None, t0, t1);
        self.lines_parsed += lines.len() as u64;

        let mut order: Vec<&str> = Vec::new();
        let mut events: HashMap<&str, Vec<u64>> = HashMap::new();
        for req in &parsed {
            if let Ok(Some(Request::Event { tenant, block })) = req {
                let list = events.entry(tenant.as_str()).or_default();
                if list.is_empty() {
                    order.push(tenant.as_str());
                }
                list.push(*block);
            }
        }
        for tenant in order {
            let blocks = &events[tenant];
            let (state, engine) = self.tenants.get_mut(tenant).expect("script tenant");
            let s0 = spans.now();
            for &b in blocks {
                std::hint::black_box(state.process_event_full(b));
            }
            let s1 = spans.now();
            for &b in blocks {
                std::hint::black_box(engine.record_reference(BlockId(b)));
            }
            let s2 = spans.now();
            spans.record(id, "serve.tenant_event", None, s0, s1);
            spans.record(id, "core.record_reference", None, s1, s2);
            self.events_replayed += blocks.len() as u64;
        }
        spans.now() - t0
    }
}

/// Timing segments of a pass: the script before the crash and after
/// recovery. Tenants' trees are larger in the second, so its calls are
/// slower.
const SEGMENTS: usize = 2;

/// What one pass measured.
#[derive(Default)]
struct Pass {
    /// Seconds of each timed `process_batch` call, per segment.
    batch_s: [Vec<f64>; SEGMENTS],
    /// `EV` lines answered with advice.
    answered: u64,
    /// Digest of every response, in order.
    digest: u64,
    /// Sums over the `FINAL` reports.
    events: u64,
    misses: u64,
    elapsed_ms: f64,
    recover_s: f64,
    replayed_events: u64,
    wal_bytes: u64,
    acked_events: u64,
    appends: u64,
    fsyncs: u64,
    checkpoints: u64,
    /// Tenants whose `queue_hwm=` differs after recovery.
    queue_hwm_reset: u64,
    /// Host seconds of the whole pass, minus traced side calls.
    wall_s: f64,
}

/// Tracing state of a traced pass.
struct Tracer<'a> {
    spans: &'a mut Spans,
    shadow: Shadow,
    side_ns: u64,
    batches: u64,
}

/// Send `lines` in batches of [`BATCH_LINES`], one `process_batch` call
/// each, and return the responses. Failure responses count against
/// `tally`; every response feeds `hash`. With a `segment`, each call's
/// seconds go to that segment of `out.batch_s`.
fn send(
    service: &mut Service,
    lines: &[String],
    segment: Option<usize>,
    out: &mut Pass,
    tracer: &mut Option<&mut Tracer<'_>>,
    tally: &mut Tally,
    hash: &mut Fnv64,
) -> Vec<String> {
    let mut responses = Vec::new();
    for chunk in lines.chunks(BATCH_LINES) {
        let batch: Vec<(ConnId, String)> = chunk.iter().map(|l| (0, l.clone())).collect();
        let r0 = tracer.as_ref().map(|t| t.spans.now());
        let t0 = Instant::now();
        let resp = service.process_batch(&batch);
        let dt = t0.elapsed().as_secs_f64();
        if let Some(seg) = segment {
            out.batch_s[seg].push(dt);
        }
        if let (Some(t), Some(r0)) = (tracer.as_mut(), r0) {
            let r1 = t.spans.now();
            let id = t.batches;
            t.batches += 1;
            t.spans.record(id, "serve.process_batch", None, r0, r1);
            t.side_ns += t.shadow.after_batch(id, &batch, t.spans);
        }
        for (_, line) in resp {
            match line.split(' ').next().unwrap_or("") {
                "ADV" => out.answered += 1,
                "REJECT" | "SHED" | "ERR" | "PANIC" => tally.fail(&line),
                "FINAL" => {
                    let num =
                        |k| field(&line, k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                    out.events += num("events") as u64;
                    out.misses += num("misses") as u64;
                    out.elapsed_ms += num("elapsed_ms");
                }
                _ => {}
            }
            hash.str(&line);
            hash.str("\n");
            responses.push(line);
        }
    }
    responses
}

/// Add the WAL counters of `service`'s recovery bench record to `out`.
fn add_wal_counts(service: &Service, out: &mut Pass) {
    let bench = service.recovery_bench_json();
    out.appends += json_u64(&bench, "appends");
    out.fsyncs += json_u64(&bench, "fsyncs");
    out.checkpoints += json_u64(&bench, "checkpoints");
}

/// Run one pass of `script` with its log under `wal_dir`.
fn pass(
    script: &Script,
    wal_dir: &Path,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer<'_>>,
) -> Pass {
    let _ = std::fs::remove_dir_all(wal_dir);
    let wall0 = Instant::now();
    let mut out = Pass::default();
    let mut hash = Fnv64::new();
    let mut service = Service::new(serve_opts(wal_dir, false)).expect("service starts");

    let (head, tail) = script.lines.split_at(script.crash_at);
    send(&mut service, head, Some(0), &mut out, &mut tracer, tally, &mut hash);
    let before = send(&mut service, &script.stats, None, &mut out, &mut tracer, tally, &mut hash);
    out.wal_bytes = dir_bytes(wal_dir);
    out.acked_events = service.stats.events;
    add_wal_counts(&service, &mut out);
    // The crash: no drain, no final sync.
    drop(service);

    let span0 = tracer.as_ref().map(|t| t.spans.now());
    let r0 = Instant::now();
    let mut service = Service::new(serve_opts(wal_dir, true)).expect("service restarts");
    let report = service.recover();
    out.recover_s = r0.elapsed().as_secs_f64();
    if let (Some(t), Some(s0)) = (tracer.as_mut(), span0) {
        let s1 = t.spans.now();
        t.spans.record(t.batches, "recover", None, s0, s1);
    }
    out.replayed_events = report.replayed_events;
    tally.check(
        report.replayed as usize == TENANTS && report.quarantined == 0 && report.degraded == 0,
        &format!(
            "recovery replayed={} degraded={} quarantined={}",
            report.replayed, report.degraded, report.quarantined
        ),
    );

    let after = send(&mut service, &script.stats, None, &mut out, &mut tracer, tally, &mut hash);
    tally.check(before.len() == after.len(), "STATS response count after recovery");
    for (b, a) in before.iter().zip(&after) {
        tally.check(recovered_part(b) == recovered_part(a), &format!("recovered {a} != {b}"));
        if field(b, "queue_hwm") != field(a, "queue_hwm") {
            out.queue_hwm_reset += 1;
        }
    }

    send(&mut service, tail, Some(1), &mut out, &mut tracer, tally, &mut hash);
    for line in service.drain() {
        hash.str(&line);
        hash.str("\n");
    }
    add_wal_counts(&service, &mut out);
    drop(service);
    let _ = std::fs::remove_dir_all(wal_dir);

    out.digest = hash.finish();
    let side_ns = tracer.as_ref().map_or(0, |t| t.side_ns);
    out.wall_s = wall0.elapsed().as_secs_f64() - side_ns as f64 * 1e-9;
    out
}

/// One set-up: generate the script and start a service on an empty log
/// directory.
fn setup(seed: u64, wal_dir: &Path) -> (f64, Script) {
    let _ = std::fs::remove_dir_all(wal_dir);
    let t0 = Instant::now();
    let script = make_script(seed);
    let service = Service::new(serve_opts(wal_dir, false)).expect("service starts");
    let dt = t0.elapsed().as_secs_f64();
    drop(service);
    (dt, script)
}

/// Check that a pass reproduces the first pass of the run.
fn check_repeat(tally: &mut Tally, first: &Pass, p: &Pass) {
    tally.check(
        p.digest == first.digest && p.answered == first.answered,
        "repeat pass response stream differs",
    );
}

/// The untraced run: set-up, then passes until `seconds` are spent.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    prefetch_pool::set_threads(POOL_THREADS);
    let wal_dir = work.join("serve-wal");
    let mut setups = Vec::new();
    let mut script = None;
    for _ in 0..SETUP_REPS {
        let (dt, s) = setup(seed, &wal_dir);
        setups.push(dt);
        script = Some(s);
    }
    let script = script.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss = 0.0;
    let start = Instant::now();
    loop {
        let p = pass(&script, &wal_dir, &mut tally, None);
        match passes.first() {
            None => {
                rss = peak_rss_mb();
                println!(
                "serve answered={} acked_at_crash={} replayed={} queue_hwm_reset={} digest={:016x}",
                    p.answered, p.acked_events, p.replayed_events, p.queue_hwm_reset, p.digest
                );
            }
            Some(first) => check_repeat(&mut tally, first, &p),
        }
        passes.push(p);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Every request line sent counts as attempted.
    tally.attempted += (passes.len() * (script.lines.len() + 2 * script.stats.len())) as u64;

    let mut times: Vec<SegmentTimes> = (0..SEGMENTS).map(|_| SegmentTimes::default()).collect();
    let mut samples = 0;
    for p in &mut passes {
        for (seg, calls) in times.iter_mut().zip(&mut p.batch_s) {
            samples += calls.len();
            seg.push(calls);
        }
    }
    let (secs, p50, p95) = reduce(&mut times);
    println!("passes={} batch_samples={samples} batch_lines={BATCH_LINES}", passes.len());
    let first = &passes[0];
    let values = [
        ("setup_s", median(&mut setups)),
        ("ok_frac", tally.ok_frac()),
        ("peak_rss_mb", rss),
        ("refs_per_s", first.answered as f64 / secs),
        ("miss_rate", ratio(first.misses as f64, first.events as f64)),
        ("virtual_s", first.elapsed_ms / 1000.0),
        ("batch_p50_us", p50 * 1e6),
        ("batch_p95_us", p95 * 1e6),
    ];
    tally.outcome(fill(END_TO_END, &values))
}

/// The traced run: pairs of an untraced and a traced pass until `seconds`
/// are spent. Spans are written to `spans_path` at the end.
pub fn run_traced(seed: u64, seconds: f64, work: &Path, spans_path: &Path) -> Outcome {
    prefetch_pool::set_threads(POOL_THREADS);
    let wal_dir = work.join("serve-wal");
    let script = make_script(seed);
    let defaults = serve_opts(&wal_dir, false).defaults;
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut untraced_wall = 0.0;
    let mut traced_wall = 0.0;
    let mut lines_parsed = 0u64;
    let mut replayed = 0u64;
    let mut last;
    let mut recover_s = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let plain = pass(&script, &wal_dir, &mut tally, None);
        let mut tracer =
            Tracer { spans: &mut spans, shadow: Shadow::new(&defaults), side_ns: 0, batches: 0 };
        let traced = pass(&script, &wal_dir, &mut tally, Some(&mut tracer));
        tally.check(
            traced.digest == plain.digest && traced.answered == plain.answered,
            "traced pass response stream differs from the untraced pass",
        );
        untraced_wall += plain.wall_s;
        traced_wall += traced.wall_s;
        recover_s.extend([plain.recover_s, traced.recover_s]);
        lines_parsed += tracer.shadow.lines_parsed;
        replayed += tracer.shadow.events_replayed;
        last = tracer.shadow;
        traced_passes.push(traced);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tally.attempted +=
        (traced_passes.len() * 2 * (script.lines.len() + 2 * script.stats.len())) as u64;
    println!("traced_passes={} sample_every=1", traced_passes.len());
    if let Err(e) = spans.write_csv(spans_path) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }

    let n = last.tenants.len() as f64;
    let tenant_bytes: f64 = last.tenants.values().map(|(s, _)| s.resident_bytes() as f64).sum();
    let nodes: f64 = last.tenants.values().map(|(_, e)| e.tree().node_count() as f64).sum();
    let tree_bytes: f64 = last.tenants.values().map(|(_, e)| e.tree().bytes_in_use() as f64).sum();
    let p = &traced_passes[0];
    let recover = median(&mut recover_s);
    let event_ns = spans.total("serve.tenant_event").total_ns as f64;
    let batch_ns = spans.total("serve.process_batch").total_ns as f64;
    let values = [
        (
            "core.record_reference_ns",
            ratio(spans.total("core.record_reference").total_ns as f64, replayed as f64),
        ),
        ("tree.nodes", nodes / n),
        ("tree.bytes_per_node", ratio(tree_bytes, nodes)),
        ("serve.parse_ns", ratio(spans.total("serve.parse").total_ns as f64, lines_parsed as f64)),
        ("serve.tenant_event_ns", ratio(event_ns, replayed as f64)),
        ("serve.engine_share", ratio(event_ns, batch_ns * POOL_THREADS as f64)),
        ("serve.tenant_bytes", tenant_bytes / n),
        ("wal.appends", p.appends as f64),
        ("wal.fsyncs", p.fsyncs as f64),
        ("wal.checkpoints", p.checkpoints as f64),
        ("wal.bytes_per_event", ratio(p.wal_bytes as f64, p.acked_events as f64)),
        ("recover.s", recover),
        ("recover.replayed_events", p.replayed_events as f64),
        ("recover.ns_per_event", ratio(recover * 1e9, p.replayed_events as f64)),
        ("trace.overhead_frac", ratio(traced_wall, untraced_wall) - 1.0),
    ];
    tally.outcome(fill(PER_LAYER, &values))
}
