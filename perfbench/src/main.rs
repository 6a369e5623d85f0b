//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-tree|sim-baseline|serve-wal> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir> [--commit <id>]
//! ```
//!
//! It links the workspace crates as a library and times calls into their
//! public functions; nothing inside the program is instrumented. Inputs
//! come from `--seed` alone. Each run checks its outputs (see the
//! workload modules) and counts every check and request as an attempted
//! operation.
//!
//! `BENCHMARK.json` lists `sim-tree` and `serve-wal`. `sim-baseline`, the
//! workload that bypasses the tree, engine and kernel, runs the same way
//! but is not listed: on a small shared host its run-to-run spread of
//! `refs_per_s` exceeds the benchmark's bound.
//!
//! With `--trace 0` the run reports the end-to-end metrics:
//!
//! | metric | meaning |
//! |---|---|
//! | `setup_s` | median of several set-ups in the run: trace sources, simulators and a warm-up, or the request script and a fresh `Service` |
//! | `ok_frac` | 1 − failed ÷ attempted |
//! | `peak_rss_mb` | `VmHWM` of this process after set-up and the first pass (later passes only repeat it for timing, and the allocator's reuse of freed memory varies between them) |
//! | `refs_per_s` | references simulated (or `EV` lines answered) ÷ host seconds in the timed calls |
//! | `miss_rate` | simulated demand misses ÷ references; exact per seed |
//! | `virtual_s` | simulated elapsed time summed over cells or tenants; exact per seed |
//! | `batch_p50_us`, `batch_p95_us` | host time of one timed call: a batch of `Simulator::step` calls (256 on `sim-tree`, 4096 on `sim-baseline`), or one `Service::process_batch` of 256 lines |
//!
//! Timed calls are grouped in segments (a simulator cell; the service
//! script before the crash and after recovery) and reduced per segment
//! over the run's passes with medians; see `report::reduce`.
//!
//! With `--trace 1` the run re-drives the workload with spans around each
//! layer call (see `spans`), reports the per-layer metrics, and writes the
//! spans to `<work-dir>/spans-<workload>.csv`. A layer the workload does
//! not exercise reports 0.
//!
//! The last line of standard output is the result as one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the line before
//! it is the run's metadata (commit, cores, CPU model, pool threads,
//! seed, kernel path). Exit status: 0 with a result, 2 for bad arguments.

mod report;
mod serve;
mod sim;
mod spans;

use report::json_str;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let spans_path = args.work_dir.join(format!("spans-{}.csv", args.workload));
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve-wal", false) => serve::run(args.seed, args.seconds, &args.work_dir),
        ("serve-wal", true) => {
            serve::run_traced(args.seed, args.seconds, &args.work_dir, &spans_path)
        }
        (w, false) => match sim::run(w, args.seed, args.seconds) {
            Some(o) => o,
            None => return unknown(w),
        },
        (w, true) => match sim::run_traced(w, args.seed, args.seconds, &spans_path) {
            Some(o) => o,
            None => return unknown(w),
        },
    };
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"pool_threads\": {}, \"kernel\": {}, \
         \"config\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.commit),
        std::thread::available_parallelism().map_or(1, usize::from),
        json_str(&report::cpu_model()),
        if args.workload == "serve-wal" { serve::POOL_THREADS } else { 1 },
        json_str(prefetch_core::kernel::active().name),
        json_str(&sim::workload(&args.workload).map_or_else(serve::describe, |w| w.describe())),
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

fn unknown(workload: &str) -> ExitCode {
    eprintln!("perfbench: unknown workload {workload:?} (sim-tree, sim-baseline, serve-wal)");
    ExitCode::from(2)
}
