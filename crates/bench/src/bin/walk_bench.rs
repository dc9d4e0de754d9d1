//! `walk_bench` — throughput and fidelity of the deterministic walk engine.
//!
//! Three measurements on a scrambled power-law social graph, written to
//! `BENCH_walk.json` for the perf trajectory:
//!
//! 1. **Sampler throughput** — PPR walk batches under synthetic edge
//!    weights, once with the ITS sampler (O(d) weighted draw over the CSR
//!    row) and once with the epoch-cached alias table (O(1) draws after an
//!    amortized build), reporting walks/sec and steps/sec of simulated
//!    device time for each.
//! 2. **MC-PPR fidelity** — walks started uniformly from *every* node with
//!    restart-to-source at rate `alpha = 1 - DAMPING` aggregate into a
//!    Monte-Carlo PageRank estimate; its top-k must overlap the
//!    power-iteration `pagerank` top-k in at least `k * 0.6` positions
//!    (the documented tolerance — MC endpoint counts are exact in
//!    expectation but carry sampling noise in the tail).
//! 3. **Serve fusion** — a single-worker service is pinned by one heavy
//!    PageRank query while >1000 walk queries pile up behind it; they must
//!    fuse into one launch (max observed batch ≥ 1000).

use gpu_sim::{Device, DeviceConfig};
use sage::app::PageRank;
use sage::engine::ResidentEngine;
use sage::walk::{Ppr, SamplerKind, WalkApp, WalkOutput, WalkSpec, WalkWeights};
use sage::{DeviceGraph, Runner, SageRuntime};
use sage_graph::gen::{social_graph, SocialParams};
use sage_graph::Csr;

/// One walk batch on a fresh device.
fn run_walk(csr: &Csr, app: &dyn WalkApp, spec: &WalkSpec, sources: &[u32]) -> WalkOutput {
    let mut dev = Device::new(DeviceConfig::scaled_rtx_8000(0.05));
    let mut rt = SageRuntime::new(&mut dev, csr.clone());
    rt.run_walk(&mut dev, app, spec, sources)
}

/// Power-iteration PageRank reference on a fresh device (original ids).
fn power_iteration_ranks(csr: &Csr) -> Vec<f32> {
    let mut dev = Device::new(DeviceConfig::scaled_rtx_8000(0.05));
    let g = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
    let mut engine = ResidentEngine::new();
    let mut app = PageRank::new(&mut dev, 50, 0.0);
    Runner::new().run(&mut dev, &g, &mut engine, &mut app, 0);
    app.ranks().to_vec()
}

fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Serve-layer fusion: pin the lone worker with a heavy PageRank, pile up
/// `requests` walk queries behind it, and report the largest fused batch.
fn serve_fusion(requests: usize) -> (usize, usize) {
    use sage_serve::{AppKind, QueryRequest, SageService, ServiceConfig};

    let nodes = (requests + 256).next_multiple_of(64);
    let mut cfg = ServiceConfig::test_config(1);
    cfg.queue_capacity = requests * 2 + 64;
    cfg.max_batch = 8;
    cfg.walk_batch = requests * 2;
    cfg.reorder_threshold = Some(u64::MAX);
    cfg.walk.walks_per_source = 2;
    cfg.walk.length = 4;
    let service = SageService::start(cfg);
    let csr = sage_graph::gen::uniform_graph(nodes, nodes * 8, 7);
    let g = service.register_graph("fusion", csr);

    let busy = service
        .submit(QueryRequest {
            app: AppKind::Pr,
            graph: g,
            source: 0,
        })
        .expect("queue sized for the workload");
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            service
                .submit(QueryRequest {
                    app: AppKind::Walk,
                    graph: g,
                    source: i as u32,
                })
                .expect("queue sized for the workload")
        })
        .collect();
    busy.wait().expect("pageRank pin must complete");
    let mut max_batch = 0usize;
    for t in tickets {
        max_batch = max_batch.max(t.wait().expect("walk must complete").batch_size);
    }
    service.shutdown();
    (requests, max_batch)
}

use sage_bench::validate_json;

fn main() {
    if let Some(flag) = std::env::args().nth(1) {
        eprintln!("unknown flag {flag:?} (walk_bench takes none)");
        std::process::exit(2);
    }

    let csr = social_graph(&SocialParams {
        nodes: 1_500,
        avg_deg: 14.0,
        alpha: 1.9,
        max_deg_frac: 0.2,
        ..SocialParams::default()
    });
    let (hub, _) = csr.max_degree();
    eprintln!(
        "walk_bench: {} nodes / {} edges, hub {hub}",
        csr.num_nodes(),
        csr.num_edges()
    );
    let mut failed = false;

    // ---- 1. sampler throughput: weighted PPR batches, ITS vs alias -------
    let ppr = Ppr::new(0.15);
    let sources: Vec<u32> = (0..8)
        .map(|i| (hub + i * 97) % csr.num_nodes() as u32)
        .collect();
    let mut throughput_jsons = Vec::new();
    for sampler in [SamplerKind::Its, SamplerKind::Alias] {
        let spec = WalkSpec {
            walks_per_source: 256,
            max_length: 32,
            seed: 42,
            sampler,
            weights: WalkWeights::Synthetic,
        };
        let r = run_walk(&csr, &ppr, &spec, &sources);
        let seconds = r.report.seconds;
        let walks_per_sec = r.walkers as f64 / seconds.max(f64::MIN_POSITIVE);
        let steps_per_sec = r.steps as f64 / seconds.max(f64::MIN_POSITIVE);
        println!(
            "throughput {:<5} {:>6} walks {:>8} steps  {:>9.4} ms  {:>12.0} walks/s  {:>12.0} steps/s",
            sampler.name(),
            r.walkers,
            r.steps,
            seconds * 1e3,
            walks_per_sec,
            steps_per_sec,
        );
        throughput_jsons.push(format!(
            "{{\"sampler\": \"{}\", \"walkers\": {}, \"steps\": {}, \"seconds\": {:.9}, \
             \"walks_per_sec\": {walks_per_sec:.1}, \"steps_per_sec\": {steps_per_sec:.1}, \
             \"host_seconds\": {:.6}}}",
            sampler.name(),
            r.walkers,
            r.steps,
            seconds,
            r.report.host_seconds,
        ));
    }

    // ---- 2. MC-PPR    // ---- 3. MC-PPR vs power-iteration PageRank ---------------------------
    // Restart-to-source walks launched uniformly from every node estimate
    // global PageRank with uniform teleport; alpha matches 1 - DAMPING.
    let k = 10usize;
    let min_overlap = (k * 6).div_ceil(10); // documented tolerance: >= 60 %
    let all_sources: Vec<u32> = (0..csr.num_nodes() as u32).collect();
    let spec = WalkSpec {
        walks_per_source: 24,
        max_length: 48,
        seed: 42,
        sampler: SamplerKind::Its,
        weights: WalkWeights::Uniform,
    };
    let mc = run_walk(
        &csr,
        &Ppr::new((1.0 - sage::app::pagerank::DAMPING) as f64),
        &spec,
        &all_sources,
    );
    let n = csr.num_nodes();
    let mut mc_scores = vec![0.0f32; n];
    for slot in 0..all_sources.len() {
        for (v, &c) in mc.endpoints[slot * n..(slot + 1) * n].iter().enumerate() {
            mc_scores[v] += c as f32;
        }
    }
    let reference = power_iteration_ranks(&csr);
    let mc_top = top_k(&mc_scores, k);
    let ref_top = top_k(&reference, k);
    let overlap = mc_top.iter().filter(|v| ref_top.contains(v)).count();
    println!(
        "ppr fidelity: top-{k} overlap {overlap}/{k} (need >= {min_overlap}) | mc {:?} | ref {:?}",
        mc_top, ref_top
    );
    if overlap < min_overlap {
        eprintln!("FAIL: MC-PPR top-{k} overlap {overlap} below tolerance {min_overlap}");
        failed = true;
    }

    // ---- 3. serve-layer fusion -------------------------------------------
    let (fusion_requests, max_batch) = serve_fusion(1_200);
    println!(
        "serve fusion: {fusion_requests} concurrent walk queries, largest fused batch {max_batch}"
    );
    if max_batch < 1_000 {
        eprintln!("FAIL: walk queries must fuse into batches >= 1000, saw {max_batch}");
        failed = true;
    }

    let json = format!(
        "{{\n  \"bench\": \"walk\",\n  \"graph_nodes\": {},\n  \"graph_edges\": {},\n  \
         \"throughput\": [\n    {}\n  ],\n  \
         \"ppr_fidelity\": {{\"k\": {k}, \"overlap\": {overlap}, \"min_required\": {min_overlap}, \
         \"alpha\": {:.4}, \"walks_per_source\": {}}},\n  \
         \"serve_fusion\": {{\"requests\": {fusion_requests}, \"max_batch\": {max_batch}, \
         \"min_required\": 1000}}\n}}\n",
        csr.num_nodes(),
        csr.num_edges(),
        throughput_jsons.join(",\n    "),
        1.0 - sage::app::pagerank::DAMPING,
        spec.walks_per_source,
    );
    if let Err(e) = validate_json(&json) {
        eprintln!("FAIL: emitted JSON does not parse: {e}");
        failed = true;
    }
    let out = "BENCH_walk.json";
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
