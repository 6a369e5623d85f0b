//! The simulator workloads, `sim-tree` and `sim-baseline`.
//!
//! Each workload is a fixed list of cells (policy × synthetic trace), all
//! at 1024 cache blocks, streamed one cell at a time on one thread. A pass
//! simulates every cell once through [`Simulator::step`]; the untraced run
//! repeats passes until its time is up, and every pass must reproduce the
//! first one's metrics bit for bit.
//!
//! The traced run re-drives each cell through the public calls
//! `Simulator::step` makes (trace source, cache, policy or cost-benefit
//! engine, clock, I/O model) with a span around each layer call on every
//! `sample_every`-th reference, and checks that the re-driven
//! [`SimMetrics`] equal the untraced pass's exactly.

use crate::report::{digest, fill, median, peak_rss_mb, percentile, ratio, reduce, Outcome};
use crate::report::{SegmentTimes, Tally, END_TO_END, PER_LAYER};
use crate::spans::{Clock, Spans};
use prefetch_cache::buffer_cache::RefOutcome;
use prefetch_cache::BufferCache;
use prefetch_core::kernel::{self, DepthTable};
use prefetch_core::policy::{
    apply_victim, PeriodActivity, PrefetchPolicy, RefContext, RefKind, Victim,
};
use prefetch_core::{CostBenefitEngine, EngineConfig};
use prefetch_sim::{IoSubsystem, PolicySpec, SimConfig, SimEvent, SimMetrics, SimObserver};
use prefetch_sim::{Simulator, VirtualClock};
use prefetch_trace::synth::TraceKind;
use prefetch_trace::{BlockId, TraceRecord, TraceSource};
use prefetch_tree::CandidateBatch;
use std::hint::black_box;
use std::time::Instant;

/// Cache size of every cell, in blocks.
const CACHE_BLOCKS: usize = 1024;
/// Set-ups before the first pass; one more runs before each later pass,
/// so the median `setup_s` samples the whole run, not just its start.
const SETUP_REPS: usize = 9;
/// References each cell simulates during set-up, to warm caches and the
/// allocator before the first timed pass.
const WARMUP_REFS: usize = 32_768;

/// One simulation: a policy on a synthetic trace.
#[derive(Clone, Copy)]
struct Cell {
    policy: PolicySpec,
    kind: TraceKind,
    refs: usize,
}

impl Cell {
    fn config(&self) -> SimConfig {
        SimConfig::new(CACHE_BLOCKS, self.policy)
    }

    fn label(&self) -> String {
        format!("{}/{}", self.policy.name(), self.kind.name())
    }
}

/// A simulator workload.
pub struct Workload {
    cells: Vec<Cell>,
    /// References per timed call: one batch of `Simulator::step` calls.
    batch: usize,
    /// The traced run spans every `sample_every`-th reference.
    sample_every: u64,
}

impl Workload {
    /// Summary facts of the workload, printed in the metadata line.
    pub fn describe(&self) -> String {
        let cells: Vec<String> =
            self.cells.iter().map(|c| format!("{}:{}", c.label(), c.refs)).collect();
        format!(
            "cells={} cache_blocks={CACHE_BLOCKS} batch_refs={} sample_every={}",
            cells.join(","),
            self.batch,
            self.sample_every
        )
    }
}

/// The simulator workload named `name`, or `None` for another name.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        // The cost-benefit tree on the two traces with the most tree work.
        // Each tree grows to 300k-380k nodes, far past the L2 cache and
        // clear of the edge index's resize points (229k and 459k entries),
        // so tree memory does not jump between seeds.
        "sim-tree" => Some(Workload {
            cells: vec![
                Cell { policy: PolicySpec::Tree, kind: TraceKind::Snake, refs: 750_000 },
                Cell { policy: PolicySpec::Tree, kind: TraceKind::Cad, refs: 1_500_000 },
            ],
            batch: 256,
            sample_every: 256,
        }),
        // The bypass workload: trace generation, the L1 filter, the LRU
        // cache and next-limit do the work; no tree, engine or kernel.
        // A reference costs about an eighth of a `tree` one, so a timed
        // call steps more of them.
        "sim-baseline" => {
            let mut cells = Vec::new();
            for policy in [PolicySpec::NoPrefetch, PolicySpec::NextLimit] {
                for kind in [TraceKind::Cello, TraceKind::Sitar] {
                    cells.push(Cell { policy, kind, refs: 2_000_000 });
                }
            }
            Some(Workload { cells, batch: 4096, sample_every: 256 })
        }
        _ => None,
    }
}

fn next(src: &mut impl TraceSource) -> Option<TraceRecord> {
    src.next_record().expect("synthetic trace sources cannot fail")
}

/// Simulate one cell untraced. Each batch of `batch` references (drawn
/// from the streaming source and stepped) is one timed call; its seconds
/// are appended to `lat`.
fn run_cell(cell: &Cell, seed: u64, batch: usize, lat: &mut Vec<f64>) -> SimMetrics {
    let mut src = cell.kind.stream(cell.refs, seed);
    let mut sim = Simulator::new(&cell.config());
    let mut m = SimMetrics::default();
    let mut pending = next(&mut src);
    while pending.is_some() {
        let t0 = Instant::now();
        for _ in 0..batch {
            let Some(rec) = pending else { break };
            let lookahead = next(&mut src);
            sim.step(rec, lookahead.map(|r| r.block), &mut m);
            pending = lookahead;
        }
        lat.push(t0.elapsed().as_secs_f64());
    }
    sim.finish(&mut m);
    m
}

/// One set-up: build every cell's source and simulator and simulate its
/// first [`WARMUP_REFS`] references.
fn setup(cells: &[Cell], seed: u64) -> f64 {
    let t0 = Instant::now();
    for cell in cells {
        let mut src = cell.kind.stream(cell.refs, seed);
        let mut sim = Simulator::new(&cell.config());
        let mut m = SimMetrics::default();
        for _ in 0..WARMUP_REFS {
            let Some(rec) = next(&mut src) else { break };
            sim.step(rec, None, &mut m);
        }
        black_box(&m);
    }
    t0.elapsed().as_secs_f64()
}

/// Whether `m` passes `SimMetrics::check_invariants` (which panics on a
/// violated conservation law).
fn invariants_hold(m: &SimMetrics) -> bool {
    std::panic::catch_unwind(|| m.check_invariants()).is_ok()
}

fn metrics_digest(m: &SimMetrics) -> u64 {
    digest(&format!("{m:?}"))
}

/// The untraced run: set-up, then passes until `seconds` are spent.
/// Each cell is one timing segment (see [`reduce`]).
pub fn run(workload: &str, seed: u64, seconds: f64) -> Option<Outcome> {
    let Workload { cells, batch, .. } = self::workload(workload)?;
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(&cells, seed)).collect();

    let mut tally = Tally::default();
    let mut first: Vec<SimMetrics> = Vec::new();
    let mut times: Vec<SegmentTimes> = cells.iter().map(|_| SegmentTimes::default()).collect();
    let mut lat: Vec<f64> = Vec::new();
    let (mut passes, mut samples, mut rss) = (0, 0, 0.0);
    let start = Instant::now();
    loop {
        if passes > 0 {
            setups.push(setup(&cells, seed));
        }
        for (i, cell) in cells.iter().enumerate() {
            lat.clear();
            let m = run_cell(cell, seed, batch, &mut lat);
            samples += lat.len();
            times[i].push(&mut lat);
            tally.check(invariants_hold(&m), &format!("{} invariants", cell.label()));
            match first.get(i) {
                None => {
                    println!(
                        "cell {} refs={} misses={} digest={:016x}",
                        cell.label(),
                        m.refs,
                        m.misses,
                        metrics_digest(&m)
                    );
                    first.push(m);
                }
                Some(f) => tally.check(*f == m, &format!("{} repeat pass differs", cell.label())),
            }
        }
        if passes == 0 {
            rss = peak_rss_mb();
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    println!("passes={passes} batch_samples={samples} batch_refs={batch}");

    let refs: u64 = first.iter().map(|m| m.refs).sum();
    let misses: u64 = first.iter().map(|m| m.misses).sum();
    let virtual_s: f64 = first.iter().map(|m| m.elapsed_ms).sum::<f64>() / 1000.0;
    for ((cell, m), t) in cells.iter().zip(&first).zip(&times) {
        println!("cell {} median_refs_per_s={:.0}", cell.label(), m.refs as f64 / t.median_secs());
    }
    let (secs, p50, p95) = reduce(&mut times);
    let values = [
        ("setup_s", median(&mut setups)),
        ("ok_frac", tally.ok_frac()),
        ("peak_rss_mb", rss),
        ("refs_per_s", refs as f64 / secs),
        ("miss_rate", ratio(misses as f64, refs as f64)),
        ("virtual_s", virtual_s),
        ("batch_p50_us", p50 * 1e6),
        ("batch_p95_us", p95 * 1e6),
    ];
    let metrics = fill(END_TO_END, &values);
    Some(tally.outcome(metrics))
}

/// The layer doing the policy's work in a re-driven cell: the
/// cost-benefit engine for `tree` (called exactly as `TreePolicy` calls
/// it), any other policy through its trait object.
enum Decider {
    Engine(Box<CostBenefitEngine>),
    Policy(Box<dyn PrefetchPolicy>),
}

/// What a traced cell adds beyond its metrics.
struct TracedCell {
    metrics: SimMetrics,
    /// Host seconds of the re-drive, minus its side calls.
    wall_s: f64,
    /// Tree node count and bytes at the end (tree cells only).
    nodes: usize,
    tree_bytes: usize,
}

/// Seed-batch side calls of the traced tree cells: batch lengths, for
/// the frontier batch-size distribution.
#[derive(Default)]
struct SideCalls {
    seed_lens: Vec<f64>,
    batch: CandidateBatch,
    dt: DepthTable,
    dt_s_bits: Option<u64>,
    net: Vec<f64>,
}

/// Child spans of the reference being re-driven, held back until its
/// root span ends so that storing them costs the root nothing.
struct Children {
    clock: Clock,
    sampled: bool,
    held: Vec<(&'static str, u64, u64)>,
}

impl Children {
    /// Run `f`, timing it as a child span named `name` when the
    /// reference is sampled.
    #[inline(always)]
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.sampled {
            return f();
        }
        let t0 = self.clock.now();
        let out = f();
        let t1 = self.clock.now();
        self.held.push((name, t0, t1));
        out
    }
}

/// Re-drive one cell through the calls `Simulator::step` makes, in its
/// order, spanning each layer call on sampled references.
fn traced_cell(
    cell: &Cell,
    cell_index: u64,
    seed: u64,
    sample_every: u64,
    spans: &mut Spans,
    side: &mut SideCalls,
) -> TracedCell {
    let cfg = cell.config();
    let p = cfg.params;
    let mut cache = BufferCache::new(cfg.cache_blocks);
    let mut clock = VirtualClock::for_run(cfg.cache_blocks, cfg.engine.max_per_period);
    let mut io = IoSubsystem::from_config(&cfg);
    let mut decider = match cfg.policy {
        PolicySpec::Tree => Decider::Engine(Box::new(CostBenefitEngine::new(p, cfg.engine))),
        other => Decider::Policy(other.build(p, cfg.engine)),
    };
    let mut act = PeriodActivity::default();
    let mut faulted: Vec<BlockId> = Vec::new();
    let mut m = SimMetrics::default();
    let mut side_ns = 0u64;

    let host = spans.clock();
    let mut kids = Children { clock: host, sampled: false, held: Vec::new() };
    let wall0 = Instant::now();
    let mut src = cell.kind.stream(cell.refs, seed);
    let mut pending = next(&mut src);
    let mut period: u64 = 0;
    while let Some(rec) = pending {
        let sampled = period.is_multiple_of(sample_every);
        let id = (cell_index << 40) | period;
        kids.sampled = sampled;
        let root0 = if sampled { host.now() } else { 0 };
        let lookahead = kids.timed("trace.next_record", || next(&mut src));

        clock.begin_period(period);
        let mut evicted_prefetch = false;
        let outcome = kids.timed("cache.reference", || cache.reference(rec.block));
        let (kind, stall_ms) = match outcome {
            RefOutcome::DemandHit => (RefKind::DemandHit, 0.0),
            RefOutcome::PrefetchHit(meta) => {
                (RefKind::PrefetchHit, io.prefetch_hit_stall(rec.block, meta.issued_at, &clock, &p))
            }
            RefOutcome::Miss => {
                if cache.is_full() {
                    let victim: Victim = match &mut decider {
                        Decider::Engine(e) => {
                            kids.timed("core.demand_victim", || e.demand_victim_timed(&cache))
                        }
                        Decider::Policy(pol) => {
                            kids.timed("policy.demand_victim", || pol.choose_demand_victim(&cache))
                        }
                    };
                    if kids.timed("cache.apply_victim", || apply_victim(victim, &mut cache)) {
                        evicted_prefetch = true;
                    }
                }
                kids.timed("cache.insert", || cache.insert_demand(rec.block));
                let fetch = io.demand_fetch(rec.block, period, &clock, &p, &mut |e| m.on_event(&e));
                if fetch.read_succeeded && io.faults_active() {
                    match &mut decider {
                        Decider::Engine(e) => e.note_read_success(rec.block),
                        Decider::Policy(pol) => pol.note_read_success(rec.block),
                    }
                }
                (RefKind::Miss, fetch.stall_ms)
            }
        };
        clock.advance(stall_ms);
        m.on_event(&SimEvent::Reference { period, record: rec, kind, stall_ms, evicted_prefetch });

        let mut blocks = std::mem::take(&mut act.prefetched_blocks);
        blocks.clear();
        act = PeriodActivity { prefetched_blocks: blocks, ..PeriodActivity::default() };
        let mut s_before = None;
        match &mut decider {
            Decider::Engine(e) => {
                // `TreePolicy::observe_served`, then its `after_reference`.
                e.observe_outcome(rec.block, kind, stall_ms);
                if kind == RefKind::PrefetchHit {
                    e.model_mut().observe_prefetch_hit();
                }
                act.lvc_already_cached = e.lvc_already_cached(&cache);
                let out = kids.timed("core.record_reference", || e.record_reference(rec.block));
                act.predictable = out.predictable;
                act.lvc_repeat = out.lvc_repeat;
                s_before = Some(e.model().s());
                kids.timed("core.prefetch_round", || {
                    e.prefetch_round(rec.block, &mut cache, &mut act)
                });
            }
            Decider::Policy(pol) => {
                pol.observe_served(rec.block, kind, stall_ms);
                let ctx = RefContext {
                    block: rec.block,
                    kind,
                    next_block: lookahead.map(|r| r.block),
                    period,
                };
                kids.timed("policy.after_reference", || {
                    pol.after_reference(&ctx, &mut cache, &mut act)
                });
            }
        }
        m.on_event(&SimEvent::Period { period, kind, activity: &act });

        faulted.clear();
        io.submit_prefetches(
            &act.prefetched_blocks,
            period,
            clock.now(),
            p.t_driver,
            &mut faulted,
            &mut |e| m.on_event(&e),
        );
        for &b in &faulted {
            cache.cancel_prefetch(b);
            let quarantined = match &mut decider {
                Decider::Engine(e) => e.note_prefetch_fault(b),
                Decider::Policy(pol) => pol.note_prefetch_fault(b),
            };
            m.on_event(&SimEvent::PrefetchFault { period, block: b, quarantined });
        }
        clock.advance(p.t_hit + act.prefetches_issued as f64 * p.t_driver + p.t_cpu);

        if sampled {
            let root1 = host.now();
            spans.record(id, "sim.reference", None, root0, root1);
            for (name, t0, t1) in kids.held.drain(..) {
                spans.record(id, name, Some("sim.reference"), t0, t1);
            }
            if let (Decider::Engine(e), Some(s)) = (&decider, s_before) {
                side_ns += seed_side_calls(e, s, &cfg.engine, id, spans, side);
            }
        }
        period += 1;
        pending = lookahead;
    }
    m.on_event(&SimEvent::End { elapsed_ms: clock.now(), disk: io.summary() });
    let wall_s = wall0.elapsed().as_secs_f64() - side_ns as f64 * 1e-9;

    let (nodes, tree_bytes) = match &decider {
        Decider::Engine(e) => (e.tree().node_count(), e.tree().bytes_in_use()),
        Decider::Policy(_) => (0, 0),
    };
    TracedCell { metrics: m, wall_s, nodes, tree_bytes }
}

/// Side calls after a sampled tree reference: enumerate the frontier seed
/// batch the round just used (the cursor's children above the memoized
/// seed cutoff) and price it through the active kernel with the `ΔT_pf`
/// table for the `s` the round started from. Returns the nanoseconds
/// spent, which the cell's wall time excludes.
fn seed_side_calls(
    e: &CostBenefitEngine,
    s: f64,
    cfg: &EngineConfig,
    id: u64,
    spans: &mut Spans,
    side: &mut SideCalls,
) -> u64 {
    let t0 = spans.now();
    if side.dt_s_bits != Some(s.to_bits()) {
        side.dt.rebuild(e.model().params(), s, cfg.max_depth);
        side.dt_s_bits = Some(s.to_bits());
    }
    let tree = e.tree();
    let cutoff = e.seed_cutoff().max(cfg.min_probability);
    let c0 = spans.now();
    side.batch.clear();
    tree.child_candidates_pruned_soa(tree.cursor(), 1.0, 0, cutoff, &mut side.batch);
    let c1 = spans.now();
    kernel::active().net_benefit_batch(
        &side.batch.p_b,
        &side.batch.p_x,
        &side.batch.d_b,
        &side.dt,
        e.model().params().t_driver,
        &mut side.net,
    );
    let k1 = spans.now();
    black_box(&side.net);
    spans.record(id, "tree.seed_candidates", None, c0, c1);
    spans.record(id, "kernel.net_benefit", None, c1, k1);
    side.seed_lens.push(side.batch.len() as f64);
    spans.now() - t0
}

/// The traced run: pairs of an untraced pass and a traced re-drive of
/// every cell, until `seconds` are spent. Spans are written to
/// `spans_path` at the end.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
) -> Option<Outcome> {
    let Workload { cells, batch, sample_every } = self::workload(workload)?;
    let mut spans = Spans::new();
    let mut side = SideCalls::default();
    let mut tally = Tally::default();
    let mut untraced_wall = 0.0;
    let mut traced_wall = 0.0;
    let mut tree_cells: Vec<TracedCell> = Vec::new();
    let start = Instant::now();
    let mut pass: u64 = 0;
    loop {
        for (i, cell) in cells.iter().enumerate() {
            let t0 = Instant::now();
            let plain = run_cell(cell, seed, batch, &mut Vec::new());
            untraced_wall += t0.elapsed().as_secs_f64();
            let index = pass * cells.len() as u64 + i as u64;
            let traced = traced_cell(cell, index, seed, sample_every, &mut spans, &mut side);
            traced_wall += traced.wall_s;
            tally.check(invariants_hold(&traced.metrics), &format!("{} invariants", cell.label()));
            tally.check(
                traced.metrics == plain,
                &format!("{} traced counts differ from the untraced run", cell.label()),
            );
            if pass == 0 {
                println!(
                    "cell {} refs={} digest={:016x} traced_digest={:016x} tree_nodes={}",
                    cell.label(),
                    plain.refs,
                    metrics_digest(&plain),
                    metrics_digest(&traced.metrics),
                    traced.nodes
                );
            }
            if cell.policy == PolicySpec::Tree {
                tree_cells.push(traced);
            }
        }
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    println!(
        "traced_passes={pass} sample_every={sample_every} clock_read_ns={:.1}",
        spans.clock_ns()
    );
    if let Err(e) = spans.write_csv(spans_path) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }

    let mean_ns = |name: &str| spans.total(name).mean_ns();
    let sum =
        |f: fn(&SimMetrics) -> u64| tree_cells.iter().map(|c| f(&c.metrics)).sum::<u64>() as f64;
    let rounds = sum(|m| m.refs);
    let issued = sum(|m| m.prefetches_issued);
    let nodes: f64 = tree_cells.iter().map(|c| c.nodes as f64).sum();
    let bytes: f64 = tree_cells.iter().map(|c| c.tree_bytes as f64).sum();
    let empty = side.seed_lens.iter().filter(|&&l| l == 0.0).count() as f64;
    let seeds = side.seed_lens.len() as f64;
    let values = [
        ("trace.next_record_ns", mean_ns("trace.next_record")),
        ("cache.reference_ns", mean_ns("cache.reference")),
        ("cache.insert_ns", mean_ns("cache.insert")),
        ("cache.apply_victim_ns", mean_ns("cache.apply_victim")),
        ("policy.after_reference_ns", mean_ns("policy.after_reference")),
        ("policy.demand_victim_ns", mean_ns("policy.demand_victim")),
        ("core.record_reference_ns", mean_ns("core.record_reference")),
        ("core.prefetch_round_ns", mean_ns("core.prefetch_round")),
        ("core.demand_victim_ns", mean_ns("core.demand_victim")),
        ("core.candidates_per_round", ratio(sum(|m| m.candidates_considered), rounds)),
        ("core.prefetches_per_round", ratio(issued, rounds)),
        ("core.prefetch_useful_frac", ratio(sum(|m| m.prefetch_hits), issued)),
        ("tree.seed_batch_empty_frac", ratio(empty, seeds)),
        ("tree.seed_batch_p99_len", percentile(&mut side.seed_lens, 0.99)),
        ("tree.seed_candidates_ns", mean_ns("tree.seed_candidates")),
        ("kernel.net_benefit_ns", mean_ns("kernel.net_benefit")),
        ("tree.nodes", ratio(nodes, tree_cells.len() as f64)),
        ("tree.bytes_per_node", ratio(bytes, nodes)),
        ("sim.unattributed_frac", spans.unattributed_frac("sim.reference")),
        ("trace.overhead_frac", ratio(traced_wall, untraced_wall) - 1.0),
    ];
    let metrics = fill(PER_LAYER, &values);
    Some(tally.outcome(metrics))
}
