//! The two batch (closed-loop) workloads.
//!
//! Both issue queries back to back from one client: the next query is sent
//! only after the previous one (and, on the adaptive session, the
//! `maybe_reorder` call after it) returned. Simulated caches are never
//! flushed between queries.
//!
//! The loop runs for `--seconds` of wall time, in whole blocks of
//! `BLOCK` queries, but never fewer than a fixed number of queries after
//! the warm-up query: that fixed prefix is what `sim_gteps`, the simulated
//! per-layer counts and the simulation fingerprint summarize, so they
//! repeat bit for bit at one seed however fast the host is.
//!
//! Host time here is CPU time of the process (see `clock`): a closed loop
//! never waits, so a query's latency is its host cost. The rates
//! (`host_meps`, `goodput_qps`) are medians over the blocks, so a burst of
//! host contention that slows a few blocks does not move them.

use crate::check::{self, Tally};
use crate::clock::cpu_s;
use crate::report::{Metrics, KERNELS};
use crate::rng::Rng;
use crate::stats::{median, quantile, Fnv};
use crate::trace::{SpanId, Tracer, NONE};
use crate::{Args, Outcome};
use gpu_sim::{Device, DeviceConfig, Profiler, ReplayStats};
use sage::app::{Bfs, PageRank};
use sage::engine::ResidentEngine;
use sage::{reference, DeviceGraph, RunReport, Runner, SageRuntime};
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};
use sage_graph::{Csr, NodeId};
use std::time::Instant;

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 9;

/// `bfs-rmat-1t`: R-MAT 2^15 nodes, 16 edges per node before symmetrizing.
/// The graph is part of the workload (fixed generator seed); `--seed` draws
/// the query sources. A BFS costs about 25 ms of host time, so one run
/// holds over a thousand queries.
const RMAT_SCALE: u32 = 15;
const RMAT_GRAPH_SEED: u64 = 42;
const RMAT_EDGE_FACTOR: usize = 16;
const RMAT_PREFIX: usize = 320;
/// Queries per block of the rate metrics (the PageRank period of
/// `adapt-social-2t`, so every block there holds the same mix).
const BLOCK: usize = 10;
/// Latency limit of a `bfs-rmat-1t` query, for `goodput_qps`.
const RMAT_LIMIT_S: f64 = 1.0;

/// `adapt-social-2t`: scrambled-id social graph, 2^15 nodes.
const SOCIAL_SCALE: u32 = 15;
const SOCIAL_AVG_DEG: f64 = 16.0;
const SOCIAL_GRAPH_SEED: u64 = 42;
/// Every `PR_EVERY`-th query is a PageRank of `PR_ITERS` iterations. Each
/// one fills the reorder sampler, so a round follows every PageRank until
/// the order converges (about seven rounds, inside the prefix).
const PR_EVERY: usize = BLOCK;
const PR_ITERS: usize = 2;
const ADAPT_PREFIX: usize = 80;
/// Latency limit of an `adapt-social-2t` query, for `goodput_qps`.
const ADAPT_LIMIT_S: f64 = 1.0;

/// Seed-stream tag of the query sources (the schedule has its own).
pub const STREAM_SOURCES: u64 = 2;

/// Trace tracks.
const TRACK_SETUP: u32 = 1;
const TRACK_CLIENT: u32 = 2;

/// One query's outcome as the closed loop sees it.
struct Step {
    report: RunReport,
    /// Host seconds of the traversal call.
    run_s: f64,
    /// Host seconds of the adaptation call after it (0 when none).
    adapt_s: f64,
    /// Whether the adaptation call ran a reordering round.
    round: bool,
    /// Output hash for the simulation fingerprint.
    out_hash: u64,
    /// Checked now (`Some`) or after the loop (`None`, BFS by hash).
    ok: Option<bool>,
    source: NodeId,
}

/// A closed-loop client over one device.
trait Client {
    fn device(&mut self) -> &mut Device;
    fn query(&mut self, k: usize, tracer: &mut Tracer, parent: SpanId) -> Step;
    /// Current reorder epoch (0 without adaptation).
    fn epoch(&self) -> u64;
}

/// Device counters at one instant.
struct Snap {
    prof: Profiler,
    replay: ReplayStats,
    kernels: Vec<(String, u64, f64)>,
}

fn snap(dev: &mut Device) -> Snap {
    Snap {
        prof: dev.profiler_snapshot(),
        replay: dev.replay_stats().clone(),
        kernels: dev.kernel_breakdown(),
    }
}

/// One measured query as the closed loop saw it.
struct QueryRec {
    /// Host (CPU) seconds of the traversal call, and of the whole query
    /// (the traversal plus the adaptation call after it).
    run_s: f64,
    latency_s: f64,
    edges: u64,
    /// Whether the answer checked out (`None` until its deferred check ran).
    ok: Option<bool>,
}

/// What the loop measured.
#[derive(Default)]
struct LoopStats {
    queries: Vec<QueryRec>,
    round_s: Vec<f64>,
    wall_s: f64,
    /// (query index or `usize::MAX` for the warm-up, source, output hash)
    deferred: Vec<(usize, NodeId, u64)>,
    // the fixed prefix
    prefix_edges: u64,
    prefix_sim_s: f64,
    prefix_examined: u64,
    prefix_run_s: f64,
    dirs: [u64; 3],
    iterations: u64,
    rounds_in_prefix: u64,
    prefix_epoch: u64,
    fp: Fnv,
}

/// Tally a direction trace: push (`>`), pull (`<`) and matrix (`M`)
/// iterations.
pub fn count_dirs(trace: &str, dirs: &mut [u64; 3]) {
    for c in trace.chars() {
        match c {
            '>' => dirs[0] += 1,
            '<' => dirs[1] += 1,
            'M' => dirs[2] += 1,
            _ => {}
        }
    }
}

/// Run the closed loop: one unmeasured warm-up query, then at least
/// `prefix` queries and until `args.seconds` of wall time have passed, in
/// whole blocks.
fn closed_loop(
    client: &mut impl Client,
    args: &Args,
    prefix: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (LoopStats, Snap, Snap) {
    debug_assert!(prefix.is_multiple_of(BLOCK));
    let mut ls = LoopStats::default();
    let warm = client.query(usize::MAX, tracer, NONE);
    match warm.ok {
        Some(ok) => tally.answer(ok),
        None => ls.deferred.push((usize::MAX, warm.source, warm.out_hash)),
    }
    let before = snap(client.device());
    let mut after = None;
    let start = Instant::now();
    let mut k = 0usize;
    while k < prefix || !k.is_multiple_of(BLOCK) || start.elapsed() < args.seconds {
        let q0 = Instant::now();
        let qspan = tracer.begin("query", TRACK_CLIENT, k as u64, NONE, q0);
        let step = client.query(k, tracer, qspan);
        tracer.end(qspan, Instant::now());
        if tracer.enabled() {
            // counters read between calls (joins any in-flight replay)
            let t = Instant::now();
            let dev = client.device();
            let prof = dev.profiler_snapshot();
            let replay = dev.replay_stats().clone();
            let t2 = Instant::now();
            tracer.span("sim.read_counters", TRACK_CLIENT, k as u64, qspan, t, t2);
            tracer.sample(
                "sim",
                t2,
                vec![
                    ("mem_requests", prof.mem_requests as f64),
                    ("l1_hit_rate", prof.l1_hit_rate()),
                    ("l2_hit_rate", prof.l2_hit_rate()),
                    ("cycles", prof.cycles),
                ],
            );
            tracer.sample(
                "replay",
                t2,
                vec![
                    ("recorded_probes", replay.recorded_probes as f64),
                    ("parallel_replays", replay.parallel_replays as f64),
                ],
            );
        }
        if step.round {
            ls.round_s.push(step.adapt_s);
        }
        match step.ok {
            Some(ok) => tally.answer(ok),
            None => ls.deferred.push((k, step.source, step.out_hash)),
        }
        ls.queries.push(QueryRec {
            run_s: step.run_s,
            latency_s: step.run_s + step.adapt_s,
            edges: step.report.edges,
            ok: step.ok,
        });
        if k < prefix {
            let r = &step.report;
            ls.prefix_edges += r.edges;
            ls.prefix_sim_s += r.seconds;
            ls.prefix_examined += r.edges_examined;
            ls.prefix_run_s += step.run_s;
            ls.iterations += r.iterations as u64;
            ls.rounds_in_prefix += u64::from(step.round);
            count_dirs(&r.direction_trace, &mut ls.dirs);
            ls.fp.u64(u64::from(step.source));
            ls.fp.u64(step.out_hash);
            ls.fp.u64(r.seconds.to_bits());
            ls.fp.u64(r.edges);
            ls.fp.bytes(r.direction_trace.as_bytes());
            if k + 1 == prefix {
                after = Some(snap(client.device()));
                ls.prefix_epoch = client.epoch();
            }
        }
        k += 1;
    }
    ls.wall_s = start.elapsed().as_secs_f64();
    let after = after.expect("the loop runs the whole prefix");
    ls.fp.bytes(format!("{:?}", after.prof).as_bytes());
    ls.fp.u64(ls.prefix_epoch);
    (ls, before, after)
}

/// Check the deferred BFS answers against the reference on the original
/// graph, marking each measured query with its verdict.
fn check_deferred(g: &Csr, ls: &mut LoopStats, tally: &mut Tally) {
    let mut expected: std::collections::HashMap<NodeId, u64> = Default::default();
    for &(idx, source, got) in &ls.deferred {
        let want = *expected
            .entry(source)
            .or_insert_with(|| check::bfs_expected(g, source));
        tally.answer(got == want);
        if let Some(q) = ls.queries.get_mut(idx) {
            q.ok = Some(got == want);
        }
    }
}

/// Nodes with out-degree > 0 in the component of the highest-degree node
/// (the giant component on these generators): BFS sources that traverse.
pub fn giant_sources(g: &Csr) -> Vec<NodeId> {
    let (hub, _) = g.max_degree();
    reference::bfs_levels(g, hub)
        .iter()
        .enumerate()
        .filter(|&(u, &d)| d >= 0 && g.degree(u as NodeId) > 0)
        .map(|(u, _)| u as NodeId)
        .collect()
}

/// Build the workload's state `SETUP_REPS` times, keeping the last; each
/// build returns (state, generation seconds, upload seconds).
fn repeated_setup<T>(
    tracer: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> (T, f64, f64),
    m: &mut Metrics,
) -> T {
    let (mut setups, mut gens, mut uploads) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (s, gen_s, upload_s) = build(tracer);
        setups.push(gen_s + upload_s);
        gens.push(gen_s);
        uploads.push(upload_s);
        state = Some(s);
    }
    m.set("setup_s", median(&setups));
    m.set("graph.gen_s", median(&gens));
    m.set("dgraph.upload_s", median(&uploads));
    state.expect("at least one set-up")
}

/// Profiler counters accumulated between two snapshots.
pub fn profile_delta(b: &Profiler, a: &Profiler) -> Profiler {
    Profiler {
        kernels: b.kernels - a.kernels,
        warp_insts: b.warp_insts - a.warp_insts,
        active_lanes: b.active_lanes - a.active_lanes,
        lane_slots: b.lane_slots - a.lane_slots,
        mem_requests: b.mem_requests - a.mem_requests,
        l1_hit_sectors: b.l1_hit_sectors - a.l1_hit_sectors,
        l2_hit_sectors: b.l2_hit_sectors - a.l2_hit_sectors,
        dram_sectors: b.dram_sectors - a.dram_sectors,
        write_sectors: b.write_sectors - a.write_sectors,
        atomics: b.atomics - a.atomics,
        atomic_conflicts: b.atomic_conflicts - a.atomic_conflicts,
        syncs: b.syncs - a.syncs,
        mma_ops: b.mma_ops - a.mma_ops,
        pcie_bytes: b.pcie_bytes - a.pcie_bytes,
        pcie_requests: b.pcie_requests - a.pcie_requests,
        peer_bytes: b.peer_bytes - a.peer_bytes,
        cycles: b.cycles - a.cycles,
    }
}

/// Simulator counters of one measured window (shared with `serve`).
pub fn sim_metrics(m: &mut Metrics, p: &Profiler, replay: &ReplayStats, host_s: f64) {
    m.set("sim.kernels", p.kernels as f64);
    m.set("sim.warp_insts", p.warp_insts);
    m.set("sim.simt_efficiency", p.simt_efficiency());
    m.set("sim.l1_hit_rate", p.l1_hit_rate());
    m.set("sim.l2_hit_rate", p.l2_hit_rate());
    m.set("sim.dram_mib", p.dram_bytes() as f64 / (1024.0 * 1024.0));
    m.set("sim.atomics", p.atomics as f64);
    m.set("sim.mma_ops", p.mma_ops as f64);
    if p.mem_requests > 0 {
        m.set(
            "sim.host_ns_per_request",
            host_s * 1e9 / p.mem_requests as f64,
        );
    }
    m.set("replay.recorded_probes", replay.recorded_probes as f64);
    m.set("replay.elided_probes", replay.elided_probes as f64);
    m.set("replay.parallel_replays", replay.parallel_replays as f64);
    m.set("replay.inline_replays", replay.inline_replays as f64);
    m.set("replay.l1_absorption", replay.l1_absorption());
    m.set(
        "replay.arena_mib",
        replay.arena_bytes as f64 / (1024.0 * 1024.0),
    );
    if replay.recorded_probes > 0 {
        m.set(
            "replay.host_ns_per_probe",
            host_s * 1e9 / replay.recorded_probes as f64,
        );
    }
}

/// Replay telemetry accumulated between two snapshots (the arena keeps its
/// high-water mark).
pub fn replay_delta(b: &ReplayStats, a: &ReplayStats) -> ReplayStats {
    ReplayStats {
        traced_kernels: b.traced_kernels - a.traced_kernels,
        recorded_probes: b.recorded_probes - a.recorded_probes,
        elided_probes: b.elided_probes - a.elided_probes,
        l2_probes: b.l2_probes - a.l2_probes,
        parallel_replays: b.parallel_replays - a.parallel_replays,
        inline_replays: b.inline_replays - a.inline_replays,
        arena_bytes: b.arena_bytes,
    }
}

/// Turn a loop's measurements into metrics; `limit_s` is the latency
/// limit of a query for `goodput_qps`.
fn loop_metrics(m: &mut Metrics, ls: &LoopStats, before: &Snap, after: &Snap, limit_s: f64) {
    // end to end: rates are medians over whole blocks of queries
    let (mut meps, mut goodput) = (Vec::new(), Vec::new());
    for block in ls.queries.chunks_exact(BLOCK) {
        let edges: u64 = block.iter().map(|q| q.edges).sum();
        let busy: f64 = block.iter().map(|q| q.latency_s).sum();
        meps.push(edges as f64 / busy / 1e6);
        let good = block
            .iter()
            .filter(|q| q.ok == Some(true) && q.latency_s <= limit_s)
            .count();
        goodput.push(good as f64 / busy);
    }
    let run_s: Vec<f64> = ls.queries.iter().map(|q| q.run_s).collect();
    let latency_s: Vec<f64> = ls.queries.iter().map(|q| q.latency_s).collect();
    m.set("host_meps", median(&meps));
    m.set("query_s_p50", median(&run_s));
    m.set("sim_gteps", ls.prefix_edges as f64 / ls.prefix_sim_s / 1e9);
    m.set("serve_p50_ms", median(&latency_s) * 1e3);
    m.set("serve_p95_ms", quantile(&latency_s, 0.95) * 1e3);
    m.set("goodput_qps", median(&goodput));
    m.set("trace.host_meps", median(&meps));

    // per layer, over the fixed prefix
    let p = profile_delta(&after.prof, &before.prof);
    let replay = replay_delta(&after.replay, &before.replay);
    sim_metrics(m, &p, &replay, ls.prefix_run_s);
    m.set("pipeline.iterations", ls.iterations as f64);
    m.set("pipeline.push_iters", ls.dirs[0] as f64);
    m.set("pipeline.pull_iters", ls.dirs[1] as f64);
    m.set("pipeline.matrix_iters", ls.dirs[2] as f64);
    m.set(
        "pipeline.examined_ratio",
        ls.prefix_examined as f64 / ls.prefix_edges.max(1) as f64,
    );
    m.set("reorder.rounds", ls.rounds_in_prefix as f64);
    m.set("reorder.round_s_p50", median(&ls.round_s));
    m.set("reorder.epoch", ls.prefix_epoch as f64);
    for (name, launches, seconds) in &after.kernels {
        let (l0, s0) = before
            .kernels
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or((0, 0.0), |&(_, l, s)| (l, s));
        let key = if KERNELS.contains(&name.as_str()) {
            name.as_str()
        } else {
            "other"
        };
        m.add(format!("sim.kernel.{key}.ms"), (seconds - s0) * 1e3);
        m.add(format!("sim.kernel.{key}.launches"), (launches - l0) as f64);
    }
}

struct RmatClient {
    dev: Device,
    g: DeviceGraph,
    engine: ResidentEngine,
    bfs: Bfs,
    runner: Runner,
    sources: Vec<NodeId>,
    rng: Rng,
}

impl Client for RmatClient {
    fn device(&mut self) -> &mut Device {
        &mut self.dev
    }

    fn query(&mut self, k: usize, tracer: &mut Tracer, parent: SpanId) -> Step {
        let source = self.sources[self.rng.below(self.sources.len())];
        let (t0, c0) = (Instant::now(), cpu_s());
        let report = self.runner.run(
            &mut self.dev,
            &self.g,
            &mut self.engine,
            &mut self.bfs,
            source,
        );
        let (c1, t1) = (cpu_s(), Instant::now());
        tracer.span("pipeline.run", TRACK_CLIENT, k as u64, parent, t0, t1);
        Step {
            report,
            run_s: c1 - c0,
            adapt_s: 0.0,
            round: false,
            out_hash: check::depths_hash(self.bfs.distances()),
            ok: None,
            source,
        }
    }

    fn epoch(&self) -> u64 {
        0
    }
}

/// `bfs-rmat-1t`: back-to-back BFS on one upload, one host thread.
pub fn bfs_rmat(args: &Args, tracer: &mut Tracer) -> Outcome {
    tracer.track(TRACK_SETUP, "setup");
    tracer.track(TRACK_CLIENT, "client");
    let mut m = Metrics::default();
    let (csr, mut dev, g) = repeated_setup(
        tracer,
        |tracer| {
            let (t0, c0) = (Instant::now(), cpu_s());
            let csr = rmat_graph(RMAT_SCALE, RMAT_EDGE_FACTOR, RMAT_GRAPH_SEED);
            let (c1, t1) = (cpu_s(), Instant::now());
            let original = csr.clone();
            let (t2, c2) = (Instant::now(), cpu_s());
            let mut dev = Device::new(DeviceConfig::default());
            dev.set_host_threads(1);
            let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
            let (c3, t3) = (cpu_s(), Instant::now());
            tracer.span("graph.gen", TRACK_SETUP, 0, NONE, t0, t1);
            tracer.span("dgraph.upload", TRACK_SETUP, 0, NONE, t2, t3);
            ((original, dev, g), c1 - c0, c3 - c2)
        },
        &mut m,
    );
    let threads = dev.host_threads();
    let bfs = Bfs::new(&mut dev);
    let mut client = RmatClient {
        dev,
        g,
        engine: ResidentEngine::new(),
        bfs,
        runner: Runner::new(),
        sources: giant_sources(&csr),
        rng: Rng::new(args.seed, STREAM_SOURCES),
    };
    let mut tally = Tally::default();
    let (mut ls, before, after) = closed_loop(&mut client, args, RMAT_PREFIX, tracer, &mut tally);
    check_deferred(&csr, &mut ls, &mut tally);
    loop_metrics(&mut m, &ls, &before, &after, RMAT_LIMIT_S);
    Outcome {
        metrics: m,
        tally,
        threads: format!("sim={threads}"),
        fingerprint: format!("{:016x}", ls.fp.finish()),
        notes: vec![format!(
            "graph: {} nodes, {} edges; {} queries in {:.1} s, first {} in the fixed prefix",
            csr.num_nodes(),
            csr.num_edges(),
            ls.queries.len(),
            ls.wall_s,
            RMAT_PREFIX
        )],
    }
}

struct AdaptClient {
    dev: Device,
    rt: SageRuntime,
    bfs: Bfs,
    pr: PageRank,
    pr_want: Vec<f64>,
    sources: Vec<NodeId>,
    rng: Rng,
}

impl Client for AdaptClient {
    fn device(&mut self) -> &mut Device {
        &mut self.dev
    }

    fn query(&mut self, k: usize, tracer: &mut Tracer, parent: SpanId) -> Step {
        let is_pr = k != usize::MAX && k % PR_EVERY == PR_EVERY - 1;
        let source = if is_pr {
            0
        } else {
            self.sources[self.rng.below(self.sources.len())]
        };
        let q = k as u64;
        let (t0, c0) = (Instant::now(), cpu_s());
        let report = if is_pr {
            self.rt.run(&mut self.dev, &mut self.pr, source)
        } else {
            self.rt.run(&mut self.dev, &mut self.bfs, source)
        };
        let (c1, t1) = (cpu_s(), Instant::now());
        // results come back in original ids, remapped before the id space
        // can move (benchmark-side, untimed)
        let (out_hash, ok) = if is_pr {
            let ranks = self.rt.to_original_order(self.pr.ranks());
            let ok = check::pr_ok(&self.pr_want, &ranks);
            (
                crate::stats::hash_u32s(ranks.iter().map(|r| r.to_bits())),
                Some(ok),
            )
        } else {
            let depths = self.rt.to_original_order(self.bfs.distances());
            (check::depths_hash(&depths), None)
        };
        let epoch = self.rt.epoch();
        let (t2, c2) = (Instant::now(), cpu_s());
        self.rt.maybe_reorder(&mut self.dev);
        let (c3, t3) = (cpu_s(), Instant::now());
        tracer.span("pipeline.run", TRACK_CLIENT, q, parent, t0, t1);
        tracer.span("reorder.maybe_reorder", TRACK_CLIENT, q, parent, t2, t3);
        Step {
            report,
            run_s: c1 - c0,
            adapt_s: c3 - c2,
            round: self.rt.epoch() != epoch,
            out_hash,
            ok,
            source,
        }
    }

    fn epoch(&self) -> u64 {
        self.rt.epoch()
    }
}

/// `adapt-social-2t`: a self-adaptive session at two host threads.
pub fn adapt_social(args: &Args, tracer: &mut Tracer) -> Outcome {
    tracer.track(TRACK_SETUP, "setup");
    tracer.track(TRACK_CLIENT, "client");
    let mut m = Metrics::default();
    let params = SocialParams {
        nodes: 1 << SOCIAL_SCALE,
        avg_deg: SOCIAL_AVG_DEG,
        seed: SOCIAL_GRAPH_SEED,
        ..SocialParams::default()
    };
    let (csr, mut dev, rt) = repeated_setup(
        tracer,
        |tracer| {
            let (t0, c0) = (Instant::now(), cpu_s());
            let csr = social_graph(&params);
            let (c1, t1) = (cpu_s(), Instant::now());
            let original = csr.clone();
            let (t2, c2) = (Instant::now(), cpu_s());
            let mut dev = Device::new(DeviceConfig::default());
            dev.set_host_threads(2);
            let rt = SageRuntime::new(&mut dev, csr);
            let (c3, t3) = (cpu_s(), Instant::now());
            tracer.span("graph.gen", TRACK_SETUP, 0, NONE, t0, t1);
            tracer.span("dgraph.runtime_new", TRACK_SETUP, 0, NONE, t2, t3);
            ((original, dev, rt), c1 - c0, c3 - c2)
        },
        &mut m,
    );
    let threads = dev.host_threads();
    let bfs = Bfs::new(&mut dev);
    let pr = PageRank::new(&mut dev, PR_ITERS, 0.0);
    let mut client = AdaptClient {
        dev,
        rt,
        bfs,
        pr,
        pr_want: reference::pagerank(&csr, PR_ITERS),
        sources: giant_sources(&csr),
        rng: Rng::new(args.seed, STREAM_SOURCES),
    };
    let mut tally = Tally::default();
    let (mut ls, before, after) = closed_loop(&mut client, args, ADAPT_PREFIX, tracer, &mut tally);
    check_deferred(&csr, &mut ls, &mut tally);
    loop_metrics(&mut m, &ls, &before, &after, ADAPT_LIMIT_S);
    Outcome {
        metrics: m,
        tally,
        threads: format!("sim={threads}"),
        fingerprint: format!("{:016x}", ls.fp.finish()),
        notes: vec![format!(
            "graph: {} nodes, {} edges; {} queries in {:.1} s, first {} in the fixed prefix",
            csr.num_nodes(),
            csr.num_edges(),
            ls.queries.len(),
            ls.wall_s,
            ADAPT_PREFIX
        )],
    }
}
