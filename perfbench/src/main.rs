//! The repository benchmark: three workloads over the SAGE crates, each
//! checked against reference outputs, reporting end-to-end metrics (untraced
//! runs) or per-layer metrics plus a Chrome trace (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bfs-rmat-1t --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! - `bfs-rmat-1t`: closed-loop BFS queries on one R-MAT upload, 1 host thread;
//! - `adapt-social-2t`: a self-adaptive `SageRuntime` session (BFS, periodic
//!   PageRank, `maybe_reorder` after every query) at 2 host threads;
//! - `serve-open`: open-loop Poisson arrivals into a `SageService`.
//!
//! The last line of standard output is the JSON result; the lines before it
//! print every metric with its unit, the host fingerprint and the
//! simulation fingerprint.

mod batch;
mod check;
mod clock;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use report::Metrics;
use std::time::Duration;
use trace::Tracer;

/// What a workload hands back to be printed.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: check::Tally,
    /// Host threads the simulation actually used.
    pub threads: String,
    /// Hash of outputs, profiler counters and direction traces
    /// (informational; see `BENCHMARK.json`).
    pub fingerprint: String,
    /// Workload-specific lines printed with the result.
    pub notes: Vec<String>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace,
    })
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "bfs-rmat-1t" => batch::bfs_rmat(&args, &mut tracer),
        "adapt-social-2t" => batch::adapt_social(&args, &mut tracer),
        "serve-open" => serve::serve_open(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut metrics = outcome.metrics;
    metrics.set("peak_rss_mib", peak_rss_mib());
    metrics.set("error_rate", outcome.tally.error_rate());

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc={cores} rustc=\"{}\" profile={profile} threads={}",
        env!("PERFBENCH_RUSTC"),
        outcome.threads
    );
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    println!("sim_fingerprint: {}", outcome.fingerprint);
    for note in &outcome.notes {
        println!("{note}");
    }
    let tally = outcome.tally;
    println!(
        "checks: attempted={} wrong={} errors={} error_rate={}",
        tally.attempted,
        tally.wrong,
        tally.errors,
        tally.error_rate()
    );
    if tracer.enabled() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
            Ok(()) => println!("trace: {} spans -> {path}", tracer.span_count()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    assert!(
        tally.attempted > 0,
        "every workload sends at least one query"
    );
    let (lines, json) = report::render(
        &metrics,
        args.trace,
        tally.wrong == 0,
        tally.attempted,
        tally.failed(),
    );
    for l in lines {
        println!("{l}");
    }
    println!("{json}");
}
