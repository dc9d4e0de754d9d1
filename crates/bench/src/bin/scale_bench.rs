//! `scale_bench` — million-node scale sweep of the simulator.
//!
//! Generates R-MAT and social graphs up to 2^20 nodes / ~50M edges, runs
//! BFS from the max-degree source on a fresh device, and writes
//! `BENCH_scale.json` with one row per graph: simulated seconds, GTEPS and
//! host wall-clock.
//!
//! Three invariants are enforced on every graph:
//!
//! * **bitwise determinism** — a second run on another fresh device must
//!   reproduce the outputs, simulated cycles and all profiler counters;
//! * **placement** — graphs whose CSR (plus 25% state headroom) exceeds the
//!   simulated device memory route through the out-of-core path, and the
//!   sweep includes one deliberately memory-capped run to exercise it;
//! * **sanitizer** — one run repeats under the race sanitizer and must
//!   come back hazard-free.
//!
//! Flags:
//! - `--scales 14,17,20`   R-MAT scales to sweep (default `14,17,20`)
//! - `--edge-factor N`     R-MAT directed edges per node (default 24)
//! - `--no-social`         skip the social graph at the largest scale
//! - `--smoke`             quick CI mode: R-MAT scale 14 only; exits
//!   nonzero on any determinism, placement or sanitizer failure
//! - `--out PATH`          output path (default `BENCH_scale.json`)

use gpu_sim::{Device, DeviceConfig};
use sage::app::Bfs;
use sage::engine::ResidentEngine;
use sage::ooc::{upload_auto, Placement};
use sage::{RunReport, Runner};
use sage_bench::validate_json;
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};
use sage_graph::Csr;

/// Everything one BFS run produces that must be identical across runs:
/// the app output plus every simulated-machine observable.
struct Fingerprint {
    distances: Vec<u32>,
    seconds_bits: u64,
    cycles_bits: u64,
    profiler: gpu_sim::Profiler,
    edges_examined: u64,
    direction_trace: String,
}

struct RunOutcome {
    report: RunReport,
    fp: Fingerprint,
    placement: Placement,
}

fn run_bfs(csr: &Csr, source: u32, mem_cap: Option<u64>, sanitize: bool) -> RunOutcome {
    let mut cfg = DeviceConfig::default();
    if let Some(bytes) = mem_cap {
        cfg.memory_bytes = bytes;
    }
    cfg.sanitize = sanitize;
    let mut dev = Device::new(cfg);
    let (g, placement) = upload_auto(&mut dev, csr.clone());
    let mut engine = ResidentEngine::new();
    let mut app = Bfs::new(&mut dev);
    let report = Runner::new().run(&mut dev, &g, &mut engine, &mut app, source);
    let fp = Fingerprint {
        distances: app.distances().iter().map(|&d| d as u32).collect(),
        seconds_bits: report.seconds.to_bits(),
        cycles_bits: dev.profiler().cycles.to_bits(),
        profiler: dev.profiler().clone(),
        edges_examined: report.edges_examined,
        direction_trace: report.direction_trace.clone(),
    };
    RunOutcome {
        report,
        fp,
        placement,
    }
}

fn identical(a: &Fingerprint, b: &Fingerprint) -> bool {
    a.distances == b.distances
        && a.seconds_bits == b.seconds_bits
        && a.cycles_bits == b.cycles_bits
        && a.profiler == b.profiler
        && a.edges_examined == b.edges_examined
        && a.direction_trace == b.direction_trace
}

fn row_json(family: &str, scale: u32, csr: &Csr, out: &RunOutcome, bitwise: bool) -> String {
    format!(
        "{{\"family\": \"{family}\", \"scale\": {scale}, \"nodes\": {}, \"edges\": {}, \
         \"placement\": \"{}\", \"sim_seconds\": {:.9}, \"gteps\": {:.4}, \
         \"host_seconds\": {:.6}, \"bitwise_identical_on_rerun\": {bitwise}}}",
        csr.num_nodes(),
        csr.num_edges(),
        out.placement.as_str(),
        out.report.seconds,
        out.report.gteps(),
        out.report.host_seconds,
    )
}

struct Args {
    scales: Vec<u32>,
    edge_factor: usize,
    social: bool,
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        scales: vec![14, 17, 20],
        edge_factor: 24,
        social: true,
        smoke: false,
        out: "BENCH_scale.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    let fail = |flag: &str| -> ! {
        eprintln!("bad or missing value for {flag}");
        std::process::exit(2);
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scales" => {
                args.scales = argv
                    .next()
                    .and_then(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or_else(|| fail("--scales"));
            }
            "--edge-factor" => {
                args.edge_factor = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--edge-factor"));
            }
            "--no-social" => args.social = false,
            "--smoke" => args.smoke = true,
            "--out" => args.out = argv.next().unwrap_or_else(|| fail("--out")),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if args.smoke {
        args.scales = vec![14];
        args.social = false;
    }
    args.scales.sort_unstable();
    args.scales.dedup();
    args
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut failed = false;
    let mut rows: Vec<String> = Vec::new();

    // (family, scale, graph) work list: R-MAT at every scale, plus a social
    // graph matching the largest scale's node count.
    let mut graphs: Vec<(String, u32, Csr)> = Vec::new();
    for &scale in &args.scales {
        eprintln!(
            "generating rmat scale {scale} (edge factor {})...",
            args.edge_factor
        );
        graphs.push((
            "rmat".to_string(),
            scale,
            rmat_graph(scale, args.edge_factor, 42),
        ));
    }
    if args.social {
        let scale = *args.scales.last().expect("at least one scale");
        eprintln!("generating social graph at 2^{scale} nodes...");
        let csr = social_graph(&SocialParams {
            nodes: 1usize << scale,
            avg_deg: args.edge_factor as f64,
            alpha: 2.0,
            max_deg_frac: 0.001,
            ..SocialParams::default()
        });
        graphs.push(("social".to_string(), scale, csr));
    }

    for (family, scale, csr) in &graphs {
        let (source, _) = csr.max_degree();
        eprintln!(
            "{family} scale {scale}: {} nodes / {} edges, source {source}",
            csr.num_nodes(),
            csr.num_edges()
        );
        let out = run_bfs(csr, source, None, false);
        let bitwise = identical(&out.fp, &run_bfs(csr, source, None, false).fp);
        println!(
            "{family:<6} 2^{scale}  sim {:>9.4} ms  {:>7.3} GTEPS  host {:>8.2} s  rerun {}",
            out.report.seconds * 1e3,
            out.report.gteps(),
            out.report.host_seconds,
            if bitwise { "identical" } else { "DIVERGED" },
        );
        if !bitwise {
            eprintln!("FAIL: {family} 2^{scale} diverged on a rerun");
            failed = true;
        }
        rows.push(row_json(family, *scale, csr, &out, bitwise));
    }

    // ---- out-of-core row: cap simulated device memory below the largest
    // CSR so upload_auto must route it through the host/PCIe path.
    let ooc_json = {
        let (family, scale, csr) = graphs.last().expect("at least one graph");
        let cap = (csr.bytes() as u64) / 2;
        eprintln!("{family} scale {scale}: re-running with device memory capped to {cap} bytes...");
        let out = run_bfs(csr, csr.max_degree().0, Some(cap), false);
        if out.placement != Placement::OutOfCore {
            eprintln!("FAIL: memory-capped run was not routed out of core");
            failed = true;
        }
        if out.report.gteps() <= 0.0 {
            eprintln!("FAIL: out-of-core run traversed no edges");
            failed = true;
        }
        println!(
            "{family:<6} 2^{scale} ooc  sim {:>9.4} ms  {:>7.3} GTEPS  host {:>8.2} s",
            out.report.seconds * 1e3,
            out.report.gteps(),
            out.report.host_seconds,
        );
        format!(
            ",\n  \"ooc\": {}",
            row_json(family, *scale, csr, &out, true)
        )
    };

    // ---- sanitizer row: the smallest graph re-runs under the race
    // sanitizer and must come back clean (BFS writes are dirty-annotated
    // or atomic by construction).
    let sanitize_json = {
        let (family, scale, csr) = graphs.first().expect("at least one graph");
        eprintln!("{family} scale {scale}: re-running under the race sanitizer...");
        let out = run_bfs(csr, csr.max_degree().0, None, true);
        let hazards = out.report.hazards.len();
        if hazards != 0 {
            eprintln!("FAIL: sanitizer flagged {hazards} hazards on the BFS sweep");
            failed = true;
        }
        println!("{family:<6} 2^{scale} sanitize  {hazards} hazards");
        format!(
            ",\n  \"sanitize\": {{\"hazards\": {hazards}, \"clean\": {}, \"row\": {}}}",
            hazards == 0,
            row_json(family, *scale, csr, &out, true)
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"host_cores\": {host_cores},\n  \
         \"edge_factor\": {},\n  \
         \"rows\": [\n    {}\n  ]{ooc_json}{sanitize_json}\n}}\n",
        args.edge_factor,
        rows.join(",\n    "),
    );
    if let Err(e) = validate_json(&json) {
        eprintln!("FAIL: emitted JSON does not parse: {e}");
        failed = true;
    }
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    let back = std::fs::read_to_string(&args.out).expect("just wrote it");
    if let Err(e) = validate_json(&back) {
        eprintln!("FAIL: {} re-read does not parse: {e}", args.out);
        failed = true;
    }
    eprintln!("wrote {}", args.out);
    if failed {
        std::process::exit(1);
    }
}
