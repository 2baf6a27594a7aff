//! `memcom-perf`: the benchmark every performance or simplicity change
//! to this repository is measured with.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Builds each workload's models from the seed, drives it, checks
//! outputs against a reference, prints every metric as `workload metric
//! value unit`, writes `out/BENCH.json` (and `out/trace.json` for the
//! traced pass), and ends with one JSON result line. With no
//! `--workload` it runs all five; `--trace` runs the traced pass —
//! per-layer metrics — instead of the end-to-end one. It measures every
//! layer from outside, by timing calls into public functions; see
//! `README.md` for the workloads, the metrics and the rules.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod fixture;
mod measure;
mod ondevice;
mod refresh;
mod report;
mod trace;
mod wire;

use fixture::Scale;
use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Traced;
use wire::Kind;

/// Counts every allocation in the process, so `proc.allocs_per_op` is
/// exact and machine-independent.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` plus two relaxed counter
// bumps; every GlobalAlloc contract obligation is discharged by the
// delegated call.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: ptr/layout/new_size forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: ptr/layout forwarded unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` by the whole process so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

pub const WORKLOADS: &[&str] = &[
    "wire_point",
    "wire_bulk_int8",
    "wire_score",
    ondevice::NAME,
    refresh::NAME,
];

const DEFAULT_SEED: u64 = 11;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

fn wire_kind(workload: &str) -> Option<Kind> {
    [Kind::Point, Kind::Bulk, Kind::Score]
        .into_iter()
        .find(|k| k.name() == workload)
}

/// The end-to-end run of one workload (tracing off).
pub fn run_workload(workload: &str, scale: &Scale, seed: u64, seconds: f64) -> Outcome {
    match (wire_kind(workload), workload) {
        (Some(kind), _) => wire::run(kind, scale, seed, seconds),
        (_, ondevice::NAME) => ondevice::run(scale, seed, seconds),
        (_, refresh::NAME) => refresh::run(scale, seed, seconds),
        _ => unreachable!("workload names are validated at the command line"),
    }
}

/// The traced pass of one workload: every per-layer metric.
pub fn trace_workload(workload: &str, scale: &Scale, seed: u64, seconds: f64) -> Traced {
    let mut traced = match (wire_kind(workload), workload) {
        (Some(kind), _) => wire::trace(kind, scale, seed, seconds),
        (_, ondevice::NAME) => ondevice::trace(scale, seed, seconds),
        (_, refresh::NAME) => refresh::trace(scale, seed, seconds),
        _ => unreachable!("workload names are validated at the command line"),
    };
    // The decode kernels are the same code under every workload; their
    // cost is measured once per pass so each ledger carries it.
    for (metric, ns_per_row) in trace::decode_row_costs(scale.decode_repeats) {
        traced.ledger.set(metric, ns_per_row);
    }
    traced.ledger.emit(&mut traced.outcome);
    for (stage, p50) in &traced.stages {
        traced.outcome.push(stage, *p50, "ns");
    }
    traced
        .outcome
        .notes
        .push(format!("decode kernel: {}", trace::kernel_name()));
    traced
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// `crates/perf/out`, wherever the binary was started from.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

fn write_out(file: &str, text: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), text));
    if let Err(e) = written {
        eprintln!("perf: cannot write {}: {e}", dir.join(file).display());
        std::process::exit(2);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        eprintln!("usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]");
        std::process::exit(2);
    });
    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = measure::pin_to_one_cpu();
    println!(
        "# memcom-perf seed {} seconds {} trace {} cpus {cpus} pinned to {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        pinned.map_or("none (affinity call failed)".to_string(), |cpu| format!(
            "cpu {cpu}"
        ))
    );

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut traces: Vec<Traced> = Vec::new();
    for workload in workloads {
        if args.trace {
            let traced = trace_workload(workload, &Scale::FULL, args.seed, args.seconds);
            print!("{}", traced.outcome.text());
            traces.push(traced);
        } else {
            let outcome = run_workload(workload, &Scale::FULL, args.seed, args.seconds);
            print!("{}", outcome.text());
            outcomes.push(outcome);
        }
    }
    if args.trace {
        write_out("trace.json", &trace::trace_json(&traces));
        outcomes = traces.into_iter().map(|t| t.outcome).collect();
    }
    let entries: Vec<String> = outcomes.iter().map(Outcome::bench_json).collect();
    write_out(
        "BENCH.json",
        &format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": [\n  {}\n]}}\n",
            args.seed,
            args.seconds,
            args.trace,
            entries.join(",\n  ")
        ),
    );

    // The result line: one workload's listed metrics when the driver
    // named a workload, the whole suite's verdict otherwise.
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    match (&args.workload, outcomes.as_slice()) {
        (Some(_), [only]) => println!("{}", only.result_line(names)),
        _ => println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcomes.iter().all(Outcome::correct),
            outcomes.iter().map(|o| o.attempted).sum::<u64>(),
            outcomes.iter().map(|o| o.failed).sum::<u64>()
        ),
    }
    // A named workload's verdict is its result line; the suite's is also
    // the exit code, for scripts.
    if args.workload.is_none() && !outcomes.iter().all(Outcome::correct) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
