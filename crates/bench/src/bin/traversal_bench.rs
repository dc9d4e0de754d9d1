//! `traversal_bench` — push-only vs adaptive direction-optimizing traversal.
//!
//! Runs BFS / PR / CC on a scrambled power-law social graph from the
//! max-degree source, once with the classic push-only pipeline and once
//! with the Beamer-style adaptive runner, on identical fresh devices.
//! Verifies the two pipelines produce bitwise-identical outputs, asserts
//! the adaptive runner actually wins on BFS (simulated seconds and GTEPS,
//! with at least one matrix/SpMV iteration in the trace), and writes the
//! per-iteration direction trace, per-mode iteration counts, and both
//! measurements to `BENCH_traversal.json` for the perf trajectory.
//!
//! Knob: `SAGE_SCALE`, the node-count scale factor (default 1.0 → 6000
//! nodes).

use gpu_sim::{Device, DeviceConfig};
use sage::app::{Bfs, Cc, PageRank};
use sage::engine::ResidentEngine;
use sage::{DeviceGraph, DirectionPolicy, RunReport, Runner};
use sage_graph::gen::{social_graph, SocialParams};
use sage_graph::Csr;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One measured run: the report plus the app's output as raw bit patterns
/// (so float outputs compare bitwise, not approximately).
fn run_app(csr: &Csr, app_name: &str, source: u32, runner: &Runner) -> (RunReport, Vec<u32>) {
    let mut dev = Device::new(DeviceConfig::scaled_rtx_8000(0.05));
    let g = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
    let mut engine = ResidentEngine::new();
    match app_name {
        "bfs" => {
            let mut app = Bfs::new(&mut dev);
            let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
            let out = app.distances().iter().map(|&d| d as u32).collect();
            (r, out)
        }
        "pr" => {
            let mut app = PageRank::new(&mut dev, 20, 0.0);
            let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
            let out = app.ranks().iter().map(|p| p.to_bits()).collect();
            (r, out)
        }
        "cc" => {
            let mut app = Cc::new(&mut dev);
            let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
            let out = app.labels().to_vec();
            (r, out)
        }
        other => unreachable!("unknown app {other}"),
    }
}

/// Count one trace letter (`>` push, `<` pull, `M` matrix).
fn mode_count(r: &RunReport, letter: char) -> usize {
    r.direction_trace.chars().filter(|&c| c == letter).count()
}

fn report_json(r: &RunReport) -> String {
    format!(
        "{{\"iterations\": {}, \"edges\": {}, \"edges_examined\": {}, \
         \"seconds\": {:.9}, \"gteps\": {:.4}, \"trace\": \"{}\", \
         \"modes\": {{\"push\": {}, \"pull\": {}, \"matrix\": {}}}, \
         \"converged\": {}, \"host_seconds\": {:.6}}}",
        r.iterations,
        r.edges,
        r.edges_examined,
        r.seconds,
        r.gteps(),
        r.direction_trace,
        mode_count(r, '>'),
        mode_count(r, '<'),
        mode_count(r, 'M'),
        r.converged,
        r.host_seconds,
    )
}

use sage_bench::validate_json;

fn main() {
    let scale = env_f64("SAGE_SCALE", 1.0);
    if let Some(flag) = std::env::args().nth(1) {
        eprintln!("unknown flag {flag:?} (traversal_bench takes none)");
        std::process::exit(2);
    }
    let nodes = ((6_000.0 * scale) as usize).max(512);
    let csr = social_graph(&SocialParams {
        nodes,
        avg_deg: 16.0,
        alpha: 1.9,
        max_deg_frac: 0.2,
        ..SocialParams::default()
    });
    let (source, _) = csr.max_degree();
    eprintln!(
        "traversal_bench: {} nodes / {} edges, source {source}",
        csr.num_nodes(),
        csr.num_edges()
    );

    let mut failed = false;
    let mut app_jsons: Vec<String> = Vec::new();
    for app in ["bfs", "pr", "cc"] {
        let (push, out_push) = run_app(&csr, app, source, &Runner::push_only());
        let (adaptive, out_adaptive) = run_app(&csr, app, source, &Runner::new());
        let identical = out_push == out_adaptive;
        let speedup = push.seconds / adaptive.seconds.max(f64::MIN_POSITIVE);
        println!(
            "{app:<3} push     {:>2} iters {:>9} edges examined  {:>10.6} ms  {:>7.3} GTEPS  [{}]",
            push.iterations,
            push.edges_examined,
            push.seconds * 1e3,
            push.gteps(),
            push.direction_trace,
        );
        println!(
            "{app:<3} adaptive {:>2} iters {:>9} edges examined  {:>10.6} ms  {:>7.3} GTEPS  [{}]  \
             {:.2}x  outputs {}",
            adaptive.iterations,
            adaptive.edges_examined,
            adaptive.seconds * 1e3,
            adaptive.gteps(),
            adaptive.direction_trace,
            speedup,
            if identical { "identical" } else { "DIVERGED" },
        );
        if !identical {
            eprintln!("FAIL: {app} outputs differ between push-only and adaptive");
            failed = true;
        }
        if app == "bfs" {
            if !adaptive.direction_trace.contains('M') {
                eprintln!(
                    "FAIL: bfs adaptive trace has no matrix iteration: {}",
                    adaptive.direction_trace
                );
                failed = true;
            }
            // per-mode counts must add up to the iteration total (the JSON
            // consumers key off these fields)
            let counted = mode_count(&adaptive, '>')
                + mode_count(&adaptive, '<')
                + mode_count(&adaptive, 'M');
            if counted != adaptive.iterations {
                eprintln!(
                    "FAIL: mode counts {counted} != iterations {} in trace {}",
                    adaptive.iterations, adaptive.direction_trace
                );
                failed = true;
            }
            if adaptive.seconds >= push.seconds || adaptive.gteps() <= push.gteps() {
                eprintln!(
                    "FAIL: bfs adaptive must beat push-only: {:.6} ms / {:.3} GTEPS vs {:.6} ms / {:.3} GTEPS",
                    adaptive.seconds * 1e3,
                    adaptive.gteps(),
                    push.seconds * 1e3,
                    push.gteps(),
                );
                failed = true;
            }
        }
        app_jsons.push(format!(
            "{{\"app\": \"{app}\", \"identical_outputs\": {identical}, \
             \"speedup\": {speedup:.4}, \"push\": {}, \"adaptive\": {}}}",
            report_json(&push),
            report_json(&adaptive),
        ));
    }

    // ---- pull-arm coverage row: under the three-way default a dense
    // frontier takes the matrix gear, so the scalar pull path (`<`) never
    // shows up in the app traces above. Re-run BFS under the *two-way*
    // adaptive policy (no matrix gear) so the same dense frontiers must
    // flip to bottom-up, and assert at least one pull iteration so the
    // optimizer's pull arm keeps bench coverage.
    let two_way = Runner {
        policy: DirectionPolicy::adaptive(),
        ..Runner::default()
    };
    let (pull, out_pull) = run_app(&csr, "bfs", source, &two_way);
    let (push_ref, out_push_ref) = run_app(&csr, "bfs", source, &Runner::push_only());
    let pull_iters = mode_count(&pull, '<');
    println!(
        "bfs two-way  {:>2} iters {:>9} edges examined  {:>10.6} ms  {:>7.3} GTEPS  [{}]  outputs {}",
        pull.iterations,
        pull.edges_examined,
        pull.seconds * 1e3,
        pull.gteps(),
        pull.direction_trace,
        if out_pull == out_push_ref { "identical" } else { "DIVERGED" },
    );
    if pull_iters == 0 {
        eprintln!(
            "FAIL: two-way adaptive BFS never pulled: {}",
            pull.direction_trace
        );
        failed = true;
    }
    if out_pull != out_push_ref {
        eprintln!("FAIL: two-way adaptive BFS outputs differ from push-only");
        failed = true;
    }
    app_jsons.push(format!(
        "{{\"app\": \"bfs_two_way\", \"identical_outputs\": {}, \
         \"speedup\": {:.4}, \"push\": {}, \"adaptive\": {}}}",
        out_pull == out_push_ref,
        push_ref.seconds / pull.seconds.max(f64::MIN_POSITIVE),
        report_json(&push_ref),
        report_json(&pull),
    ));

    let json = format!(
        "{{\n  \"bench\": \"traversal\",\n  \"graph_nodes\": {},\n  \
         \"graph_edges\": {},\n  \"source\": {source},\n  \
         \"apps\": [\n    {}\n  ]\n}}\n",
        csr.num_nodes(),
        csr.num_edges(),
        app_jsons.join(",\n    "),
    );
    if let Err(e) = validate_json(&json) {
        eprintln!("FAIL: emitted JSON does not parse: {e}");
        failed = true;
    }
    let out = "BENCH_traversal.json";
    std::fs::write(out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    let back = std::fs::read_to_string(out).expect("just wrote it");
    if let Err(e) = validate_json(&back) {
        eprintln!("FAIL: {out} re-read does not parse: {e}");
        failed = true;
    }
    eprintln!("wrote {out}");
    if failed {
        std::process::exit(1);
    }
}
