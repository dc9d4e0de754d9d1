//! Determinism suite for the simulator: on random power-law graphs, running
//! the same traversal again on a fresh device with a fresh engine must
//! produce **bitwise identical** results — application outputs, simulated
//! cycles, and every cache counter (L1/L2 hits, DRAM sectors) — across
//! BFS/CC/PR, in the push-only, the adaptive three-way (push/pull/matrix),
//! and the matrix-forced (masked SpMV) pipelines, on every pull-capable
//! engine. Hidden state (hash iteration order, statics, engine state that
//! leaks between instances) shows up here as a diverging rerun.
//!
//! The rerun asks its device for a parallel host budget through
//! [`Device::set_host_threads`]. The simulator has one sequential backend
//! and keeps that call only as a no-op for the repo benchmark, whose
//! adaptive workload requests 2 threads; the request must not move a bit.

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use sage::app::{Bfs, Cc, PageRank};
use sage::engine::{Engine, NaiveEngine, ResidentEngine, TiledPartitioningEngine};
use sage::{DeviceGraph, Runner};
use sage_graph::gen::{social_graph, SocialParams};
use sage_graph::Csr;

/// Host-thread budget the rerun requests; the first run requests 1.
const PARALLEL: usize = 4;

/// The tiny test device widened to 8 SMs.
fn cfg8() -> DeviceConfig {
    DeviceConfig {
        num_sms: 8,
        ..DeviceConfig::test_tiny()
    }
}

/// Engine factories: some engines (the resident-scheduling one) carry
/// resident state across runs, so every measured run gets a fresh instance.
fn engines() -> Vec<fn() -> Box<dyn Engine>> {
    vec![
        || Box::new(NaiveEngine::new()),
        || {
            Box::new(TiledPartitioningEngine {
                block_size: 16,
                min_tile: 4,
                align_tiles: true,
            })
        },
        || Box::new(ResidentEngine::with_geometry(16, 4, true)),
    ]
}

fn graph(nodes: usize, avg_deg: f64, seed: u64) -> Csr {
    social_graph(&SocialParams {
        nodes,
        avg_deg,
        seed,
        ..SocialParams::default()
    })
}

#[derive(Clone, Copy)]
enum AppSel {
    Bfs,
    Cc,
    Pr,
}

/// Direction policies under test: push-only, the adaptive three-way
/// optimizer, and the matrix-forced (masked SpMV) pipeline.
#[derive(Clone, Copy)]
enum PolicySel {
    Push,
    Adaptive3,
    Matrix,
}

impl PolicySel {
    fn from_u8(v: u8) -> Self {
        match v % 3 {
            0 => PolicySel::Push,
            1 => PolicySel::Adaptive3,
            _ => PolicySel::Matrix,
        }
    }

    fn runner(self) -> Runner {
        match self {
            PolicySel::Push => Runner::push_only(),
            PolicySel::Adaptive3 => Runner::new(),
            PolicySel::Matrix => Runner::matrix_only(),
        }
    }
}

/// Everything one run produces, captured as exact bit patterns.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    outputs: Vec<u32>,
    sim_cycles: u64,
    report_seconds: u64,
    l1_hits: u64,
    l2_hits: u64,
    dram: u64,
    writes: u64,
    atomics: u64,
    edges: u64,
    examined: u64,
    trace: String,
}

fn run_once(
    csr: &Csr,
    engine: &mut dyn Engine,
    threads: usize,
    policy: PolicySel,
    app: AppSel,
    src: u32,
) -> Fingerprint {
    let mut dev = Device::new(cfg8());
    dev.set_host_threads(threads);
    let dg = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
    let runner = policy.runner();
    let (report, outputs) = match app {
        AppSel::Bfs => {
            let mut a = Bfs::new(&mut dev);
            let r = runner.run(&mut dev, &dg, engine, &mut a, src);
            (r, a.distances().iter().map(|&d| d as u32).collect())
        }
        AppSel::Cc => {
            let mut a = Cc::new(&mut dev);
            let r = runner.run(&mut dev, &dg, engine, &mut a, src);
            (r, a.labels().to_vec())
        }
        AppSel::Pr => {
            let mut a = PageRank::new(&mut dev, 8, 0.0);
            let r = runner.run(&mut dev, &dg, engine, &mut a, src);
            (r, a.ranks().iter().map(|p| p.to_bits()).collect())
        }
    };
    let cycles = dev.elapsed_cycles();
    let p = dev.profiler();
    Fingerprint {
        outputs,
        sim_cycles: cycles.to_bits(),
        report_seconds: report.seconds.to_bits(),
        l1_hits: p.l1_hit_sectors,
        l2_hits: p.l2_hit_sectors,
        dram: p.dram_sectors,
        writes: p.write_sectors,
        atomics: p.atomics,
        edges: report.edges,
        examined: report.edges_examined,
        trace: report.direction_trace,
    }
}

/// Assert a rerun on a fresh device with a fresh engine, requesting
/// [`PARALLEL`] host threads, reproduces the sequential first run's
/// fingerprint bit for bit.
fn assert_deterministic(
    csr: &Csr,
    policy: PolicySel,
    app: AppSel,
    src: u32,
) -> Result<(), TestCaseError> {
    for make in engines() {
        let first = run_once(csr, make().as_mut(), 1, policy, app, src);
        let mut engine = make();
        let rerun = run_once(csr, engine.as_mut(), PARALLEL, policy, app, src);
        prop_assert_eq!(&rerun, &first, "rerun diverged on {}", engine.name());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bfs_parallel_matches_sequential_bitwise(
        nodes in 60usize..160, seed in 0u64..1000, src in 0u32..60, policy in 0u8..3
    ) {
        let g = graph(nodes, 8.0, seed);
        assert_deterministic(&g, PolicySel::from_u8(policy), AppSel::Bfs, src)?;
    }

    #[test]
    fn cc_parallel_matches_sequential_bitwise(
        nodes in 60usize..140, seed in 0u64..1000, policy in 0u8..3
    ) {
        let g = graph(nodes, 6.0, seed);
        assert_deterministic(&g, PolicySel::from_u8(policy), AppSel::Cc, 0)?;
    }

    #[test]
    fn pr_parallel_matches_sequential_bitwise(
        nodes in 60usize..120, seed in 0u64..1000, policy in 0u8..3
    ) {
        let g = graph(nodes, 6.0, seed);
        assert_deterministic(&g, PolicySel::from_u8(policy), AppSel::Pr, 0)?;
    }
}

/// The whole engine roster (not just the pull-capable trio) agrees with its
/// own rerun on one fixed power-law graph — a cheap deterministic sweep that
/// catches a port regression in any single engine.
#[test]
fn all_engines_deterministic_on_fixed_graph() {
    use sage::engine::{B40cEngine, GunrockEngine};
    let g = graph(200, 8.0, 42);
    let roster: Vec<fn() -> Box<dyn Engine>> = vec![
        || Box::new(NaiveEngine::new()),
        || {
            Box::new(TiledPartitioningEngine {
                block_size: 16,
                min_tile: 4,
                align_tiles: true,
            })
        },
        || Box::new(ResidentEngine::with_geometry(16, 4, true)),
        || Box::new(B40cEngine::default()),
        || Box::new(GunrockEngine::default()),
    ];
    for make in roster {
        let first = run_once(&g, make().as_mut(), 1, PolicySel::Push, AppSel::Bfs, 0);
        let mut engine = make();
        let rerun = run_once(
            &g,
            engine.as_mut(),
            PARALLEL,
            PolicySel::Push,
            AppSel::Bfs,
            0,
        );
        assert_eq!(rerun, first, "{} diverged on a rerun", engine.name());
    }
}

/// The matrix pipeline really runs its SpMV iterations: a dense fixed graph
/// traces `M` on every pull-capable engine and a rerun reproduces the
/// fingerprint bit for bit.
#[test]
fn matrix_pipeline_deterministic_and_traced_on_fixed_graph() {
    let g = graph(200, 8.0, 7);
    for make in engines() {
        let first = run_once(&g, make().as_mut(), 1, PolicySel::Matrix, AppSel::Bfs, 0);
        assert!(
            first.trace.contains('M'),
            "matrix-forced run never took the SpMV path: {}",
            first.trace
        );
        let mut engine = make();
        let rerun = run_once(
            &g,
            engine.as_mut(),
            PARALLEL,
            PolicySel::Matrix,
            AppSel::Bfs,
            0,
        );
        assert_eq!(rerun, first, "{} diverged on a rerun", engine.name());
    }
}
