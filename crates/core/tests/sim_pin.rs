//! Pins the simulated numbers of the simulator.
//!
//! Every line below is the exact `Profiler` state (float counters as raw
//! bits) after BFS or PageRank runs on a fixed R-MAT graph, under each
//! direction policy, on three devices:
//! - the tiny test device, whose small caches see streaming bypass and
//!   capacity misses;
//! - the default device, the only shipped geometry whose L2 has a
//!   non-power-of-two set count (3072), so the modulo set index runs;
//! - the default device with a 24 KiB 4-way L2 (48 sets, again modulo).
//!   The graph fits the full 6 MiB L2, whose 16-way sets never evict it,
//!   so only this shrunken L2 makes the modulo set index decide hits.
//!
//! PageRank's initial frontier is every vertex, so the pull and adaptive
//! runners keep it on push; only the matrix runner changes its path.
//!
//! A second table pins the paths beyond a plain `Runner`: a `SageRuntime`
//! session on a scrambled social graph until a sampling-reorder round
//! commits, PPR walk batches under the ITS and alias samplers, BFS on a
//! host-placed (out-of-core) graph, and a 2-device multi-GPU BFS.
//!
//! Host-side optimisations of the simulator (coalescing, cache indexing,
//! the matrix-mode merge) must leave every number here bit for bit
//! unchanged. A change that *means* to alter the cost model regenerates
//! the table from the failure message and says why in the change log.

use gpu_sim::{Device, DeviceConfig, Profiler};
use sage::app::{App, Bfs, PageRank};
use sage::engine::ResidentEngine;
use sage::multigpu::{MgKind, MultiGpuConfig, MultiGpuDriver};
use sage::ooc::sage_out_of_core;
use sage::pipeline::DirectionPolicy;
use sage::walk::{Ppr, SamplerKind, WalkSpec, WalkWeights};
use sage::{DeviceGraph, Runner, SageRuntime};
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};

#[rustfmt::skip]
const EXPECTED: [&str; 24] = [
    "tiny/bfs/push >>>>>,>>>>>,>>>>>> k=48 wi=40e3424000000000 al=410af94800000000 ls=4110560000000000 req=26882 l1=9799 l2=53157 dram=20690 wr=5937 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=410d0d6200000000",
    "tiny/bfs/pull <<<<<,<<<<<,<<<<<< k=16 wi=40f697b000000000 al=41228f9400000000 ls=41262c4000000000 req=48013 l1=40817 l2=1208 dram=37071 wr=6201 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=4118f7c700000000",
    "tiny/bfs/matrix MMMMM,MMMMM,MMMMMM k=16 wi=4100d05000000000 al=4121fd1400000000 ls=412b8d7000000000 req=61804 l1=27399 l2=2794 dram=68078 wr=4562 at=0 ac=0 sy=0 mma=23164 pcie=0/0 peer=0 cyc=412771d380000000",
    "tiny/bfs/adaptive >MM>>,><MM>,>>MMM> k=32 wi=40df804000000000 al=4103ccb000000000 ls=410b4f0000000000 req=16445 l1=9403 l2=2332 dram=11130 wr=5081 at=0 ac=0 sy=0 mma=2307 pcie=0/0 peer=0 cyc=40f8108c00000000",
    "tiny/pr/push >>> k=12 wi=40e50d4000000000 al=410cab5000000000 ls=4110bc0000000000 req=28266 l1=5721 l2=56826 dram=16944 wr=1831 at=76254 ac=210 sy=0 mma=0 pcie=0/0 peer=0 cyc=41155f1300000000",
    "tiny/pr/pull >>> k=12 wi=40e50d4000000000 al=410cab5000000000 ls=4110bc0000000000 req=28266 l1=5721 l2=56826 dram=16944 wr=1831 at=76254 ac=210 sy=0 mma=0 pcie=0/0 peer=0 cyc=41155f1300000000",
    "tiny/pr/matrix MMM k=6 wi=40ff4fd000000000 al=41215f9200000000 ls=4129e8a000000000 req=71040 l1=46554 l2=9138 dram=99852 wr=1560 at=0 ac=0 sy=0 mma=16767 pcie=0/0 peer=0 cyc=4132039780000000",
    "tiny/pr/adaptive >>> k=12 wi=40e50d4000000000 al=410cab5000000000 ls=4110bc0000000000 req=28266 l1=5721 l2=56826 dram=16944 wr=1831 at=76254 ac=210 sy=0 mma=0 pcie=0/0 peer=0 cyc=41155f1300000000",
    "default/bfs/push >>>>>,>>>>>,>>>>>> k=48 wi=40db704000000000 al=4110533400000000 ls=41227e4000000000 req=12793 l1=49321 l2=22292 dram=4746 wr=5830 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=410bc69d80000000",
    "default/bfs/pull <<<<<,<<<<<,<<<<<< k=16 wi=40fad49000000000 al=41382b8a00000000 ls=41415ba000000000 req=31275 l1=66333 l2=4718 dram=4101 wr=6284 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=40fc8c2100000000",
    "default/bfs/matrix MMMMM,MMMMM,MMMMMM k=16 wi=40e0628000000000 al=4120a31400000000 ls=412b2ec000000000 req=16084 l1=56393 l2=1729 dram=4100 wr=4195 at=0 ac=0 sy=0 mma=5006 pcie=0/0 peer=0 cyc=40f5141d00000000",
    "default/bfs/adaptive >MM>>,><MM>,>>MMM> k=32 wi=40d6278000000000 al=41139ec800000000 ls=4120644000000000 req=9352 l1=15860 l2=3241 dram=3160 wr=4499 at=0 ac=0 sy=0 mma=1125 pcie=0/0 peer=0 cyc=410375f700000000",
    "default/pr/push >>> k=12 wi=40dbcc4000000000 al=411197a800000000 ls=41223e4000000000 req=12471 l1=14761 l2=52979 dram=5145 wr=1831 at=76254 ac=2427 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f1de3f00000000",
    "default/pr/pull >>> k=12 wi=40dbcc4000000000 al=411197a800000000 ls=41223e4000000000 req=12471 l1=14761 l2=52979 dram=5145 wr=1831 at=76254 ac=2427 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f1de3f00000000",
    "default/pr/matrix MMM k=6 wi=40d79d0000000000 al=411c003800000000 ls=4123db8000000000 req=14574 l1=90801 l2=8270 dram=4462 wr=1056 at=0 ac=0 sy=0 mma=2580 pcie=0/0 peer=0 cyc=40ebab4800000000",
    "default/pr/adaptive >>> k=12 wi=40dbcc4000000000 al=411197a800000000 ls=41223e4000000000 req=12471 l1=14761 l2=52979 dram=5145 wr=1831 at=76254 ac=2427 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f1de3f00000000",
    "default-l2-24k/bfs/push >>>>>,>>>>>,>>>>>> k=48 wi=40db704000000000 al=4110533400000000 ls=41227e4000000000 req=12793 l1=48848 l2=12228 dram=15283 wr=5830 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=410c662f80000000",
    "default-l2-24k/bfs/pull <<<<<,<<<<<,<<<<<< k=16 wi=40fad49000000000 al=41382b8a00000000 ls=41415ba000000000 req=31275 l1=46548 l2=2482 dram=26122 wr=6284 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=4107b2fc00000000",
    "default-l2-24k/bfs/matrix MMMMM,MMMMM,MMMMMM k=16 wi=40e0628000000000 al=4120a31400000000 ls=412b2ec000000000 req=16084 l1=15461 l2=1702 dram=45059 wr=4195 at=0 ac=0 sy=0 mma=5006 pcie=0/0 peer=0 cyc=4101976a80000000",
    "default-l2-24k/bfs/adaptive >MM>>,><MM>,>>MMM> k=32 wi=40d6278000000000 al=41139ec800000000 ls=4120644000000000 req=9352 l1=12321 l2=2041 dram=7899 wr=4499 at=0 ac=0 sy=0 mma=1125 pcie=0/0 peer=0 cyc=41040f9100000000",
    "default-l2-24k/pr/push >>> k=12 wi=40dbcc4000000000 al=411197a800000000 ls=41223e4000000000 req=12471 l1=8405 l2=52787 dram=11693 wr=1831 at=76254 ac=2427 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f24cfd00000000",
    "default-l2-24k/pr/pull >>> k=12 wi=40dbcc4000000000 al=411197a800000000 ls=41223e4000000000 req=12471 l1=8405 l2=52787 dram=11693 wr=1831 at=76254 ac=2427 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f24cfd00000000",
    "default-l2-24k/pr/matrix MMM k=6 wi=40d79d0000000000 al=411c003800000000 ls=4123db8000000000 req=14574 l1=58144 l2=7707 dram=37682 wr=1056 at=0 ac=0 sy=0 mma=2580 pcie=0/0 peer=0 cyc=40fcae1a00000000",
    "default-l2-24k/pr/adaptive >>> k=12 wi=40dbcc4000000000 al=411197a800000000 ls=41223e4000000000 req=12471 l1=8405 l2=52787 dram=11693 wr=1831 at=76254 ac=2427 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f24cfd00000000",
];

/// The four direction policies. "pull" pins the runner bottom-up as soon
/// as any vertex is unvisited and never lets it switch back, so the scalar
/// pull kernel (not the matrix one) carries every dense iteration.
fn runners() -> [(&'static str, Runner); 4] {
    [
        ("push", Runner::push_only()),
        (
            "pull",
            Runner {
                policy: DirectionPolicy::Adaptive {
                    alpha: 1e12,
                    beta: 1e12,
                },
                ..Runner::default()
            },
        ),
        ("matrix", Runner::matrix_only()),
        ("adaptive", Runner::new()),
    ]
}

fn pinned_line(
    dev_name: &str,
    cfg: &DeviceConfig,
    pr: bool,
    name: &str,
    runner: &Runner,
) -> String {
    let mut dev = Device::new(cfg.clone());
    let g = DeviceGraph::upload(&mut dev, rmat_graph(11, 8, 5)).with_in_edges(&mut dev);
    let mut engine = ResidentEngine::new();
    let mut traces = Vec::new();
    // back-to-back queries on one upload: later runs start on warm caches
    let (app_name, mut app): (&str, Box<dyn App>) = if pr {
        ("pr", Box::new(PageRank::new(&mut dev, 3, 0.0)))
    } else {
        ("bfs", Box::new(Bfs::new(&mut dev)))
    };
    let sources: &[u32] = if pr { &[0] } else { &[0, 7, 1500] };
    for &src in sources {
        let r = runner.run(&mut dev, &g, &mut engine, app.as_mut(), src);
        traces.push(r.direction_trace);
    }
    format!(
        "{dev_name}/{app_name}/{name} {} {}",
        traces.join(","),
        profile_line(dev.profiler())
    )
}

/// Every profiler counter, float counters as raw bits.
fn profile_line(p: &Profiler) -> String {
    format!(
        "k={} wi={:x} al={:x} ls={:x} req={} l1={} l2={} \
         dram={} wr={} at={} ac={} sy={} mma={} pcie={}/{} peer={} cyc={:x}",
        p.kernels,
        p.warp_insts.to_bits(),
        p.active_lanes.to_bits(),
        p.lane_slots.to_bits(),
        p.mem_requests,
        p.l1_hit_sectors,
        p.l2_hit_sectors,
        p.dram_sectors,
        p.write_sectors,
        p.atomics,
        p.atomic_conflicts,
        p.syncs,
        p.mma_ops,
        p.pcie_bytes,
        p.pcie_requests,
        p.peer_bytes,
        p.cycles.to_bits(),
    )
}

/// Compare a regenerated table against its pinned rows.
fn assert_table(actual: &[String], expected: &[&str]) {
    let table = actual
        .iter()
        .map(|l| format!("    \"{l}\",\n"))
        .collect::<String>();
    assert_eq!(
        actual.len(),
        expected.len(),
        "regenerate the table from:\n{table}"
    );
    for (got, want) in actual.iter().zip(expected) {
        assert_eq!(got, want, "simulated numbers drifted; full table:\n{table}");
    }
}

#[test]
fn sequential_simulation_numbers_are_pinned() {
    let mut small_l2 = DeviceConfig::default();
    small_l2.l2.capacity_bytes = 24 * 1024;
    small_l2.l2.ways = 4;
    let devices = [
        ("tiny", DeviceConfig::test_tiny()),
        ("default", DeviceConfig::default()),
        ("default-l2-24k", small_l2),
    ];
    let mut actual = Vec::new();
    for (dev_name, cfg) in &devices {
        for pr in [false, true] {
            for (name, runner) in runners() {
                actual.push(pinned_line(dev_name, cfg, pr, name, &runner));
            }
        }
    }
    assert_table(&actual, &EXPECTED);
}

#[rustfmt::skip]
const EXPECTED_SCENARIOS: [&str; 7] = [
    "session >>MM>,>>MM>,>>MMM,>>,>>MM> epoch=1 reorder_kernels=2 out=3567be2143d66e2f k=52 wi=40f58d9000000000 al=4126a0b600000000 ls=4137a96000000000 req=28632 l1=47771 l2=93461 dram=14529 wr=11905 at=94832 ac=420 sy=0 mma=3581 pcie=0/0 peer=0 cyc=41104d2ec0000000",
    "walk/ppr/its steps=717 walkers=128 ends=640ac3b9f31a217b visits=b2c9fdfde3125bda s=3f199984200ab769 k=1 wi=40b3820000000000 al=40d97a4000000000 ls=40de480000000000 req=3638 l1=42 l2=878 dram=6221 wr=0 at=973 ac=148 sy=0 mma=0 pcie=0/0 peer=0 cyc=40f7d77000000000",
    "walk/ppr/alias steps=717 walkers=128 ends=f1166ea0392a6b35 visits=59394573b7c93318 s=3f210d5903fd3aa8 k=3 wi=40e1214000000000 al=40f9d96000000000 ls=40fbd50000000000 req=13770 l1=4762 l2=1313 dram=20954 wr=10848 at=1946 ac=291 sy=0 mma=0 pcie=0/0 peer=0 cyc=410bcd4400000000",
    "ooc/bfs >>>>>,>>>>> out=4159515862b5ad28 k=30 wi=40d4298000000000 al=4105d47000000000 ls=4119a38000000000 req=8522 l1=29739 l2=11389 dram=1169 wr=4467 at=0 ac=0 sy=0 mma=0 pcie=276576/3925 peer=0 cyc=4108f56a5c28f5c2",
    "mgpu/bfs  edges=25418 s=3f1e10518c9554ed out=629bf66f86321c7a",
    "mgpu/dev0 k=8 wi=40c4ca0000000000 al=40e92de000000000 ls=40ef960000000000 req=6151 l1=2395 l2=12657 dram=4419 wr=2150 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=2824 cyc=40ea6e4000000000",
    "mgpu/dev1 k=8 wi=40b5400000000000 al=40d3a30000000000 ls=40dd140000000000 req=2637 l1=1058 l2=4781 dram=2431 wr=845 at=0 ac=0 sy=0 mma=0 pcie=0/0 peer=0 cyc=40da3a6000000000",
];

/// FNV-1a over a result vector, so a row pins outputs as well as counters.
fn hash_u32s(xs: impl IntoIterator<Item = u32>) -> u64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn social(nodes: usize) -> sage_graph::Csr {
    social_graph(&SocialParams {
        nodes,
        avg_deg: 16.0,
        seed: 42,
        ..SocialParams::default()
    })
}

/// The self-adaptive session: BFS queries with a 2-iteration PageRank
/// every fourth query on a scrambled social graph, `maybe_reorder` after
/// each, until one reordering round commits (so the
/// `sampling_reorder_*` kernels run), then one BFS on the new order.
fn session_line() -> String {
    let mut dev = Device::new(DeviceConfig::default());
    let csr = social(1 << 11);
    let sources: Vec<u32> = (0..csr.num_nodes() as u32)
        .filter(|&u| csr.degree(u) > 0)
        .take(8)
        .collect();
    let mut rt = SageRuntime::new(&mut dev, csr);
    let mut bfs = Bfs::new(&mut dev);
    let mut pr = PageRank::new(&mut dev, 2, 0.0);
    let mut traces = Vec::new();
    let mut out = Vec::new();
    for q in 0..16usize {
        let r = if q % 4 == 3 {
            rt.run(&mut dev, &mut pr, 0)
        } else {
            rt.run(&mut dev, &mut bfs, sources[q % sources.len()])
        };
        traces.push(r.direction_trace);
        if rt.maybe_reorder(&mut dev) && rt.rounds() == 1 {
            break;
        }
    }
    assert_eq!(rt.rounds(), 1, "no reordering round committed");
    let r = rt.run(&mut dev, &mut bfs, sources[0]);
    traces.push(r.direction_trace);
    out.extend(
        rt.to_original_order(bfs.distances())
            .iter()
            .map(|&d| d as u32),
    );
    out.extend(rt.to_original_order(pr.ranks()).iter().map(|r| r.to_bits()));
    let reorder_launches: u64 = dev
        .kernel_breakdown()
        .iter()
        .filter(|(name, _, _)| name.starts_with("sampling_reorder_"))
        .map(|&(_, launches, _)| launches)
        .sum();
    assert!(reorder_launches > 0, "sampling_reorder_* kernels never ran");
    format!(
        "session {} epoch={} reorder_kernels={reorder_launches} out={:x} {}",
        traces.join(","),
        rt.epoch(),
        hash_u32s(out),
        profile_line(dev.profiler())
    )
}

/// One PPR walk batch per sampler, back to back on one runtime.
fn walk_line(sampler: SamplerKind, dev: &mut Device, rt: &mut SageRuntime) -> String {
    let spec = WalkSpec {
        walks_per_source: 32,
        max_length: 16,
        seed: 7,
        sampler,
        weights: WalkWeights::Synthetic,
    };
    let out = rt.run_walk(dev, &Ppr::new(0.15), &spec, &[0, 3, 99, 512]);
    format!(
        "walk/ppr/{} steps={} walkers={} ends={:x} visits={:x} s={:x} {}",
        sampler.name(),
        out.steps,
        out.walkers,
        hash_u32s(out.endpoints),
        hash_u32s(out.visits),
        out.report.seconds.to_bits(),
        profile_line(dev.profiler())
    )
}

/// BFS on a host-placed graph: adjacency reads cross PCIe.
fn out_of_core_line() -> String {
    let mut dev = Device::new(DeviceConfig::default());
    let (g, mut engine) = sage_out_of_core(&mut dev, rmat_graph(11, 8, 5));
    let mut bfs = Bfs::new(&mut dev);
    let mut traces = Vec::new();
    for src in [0, 7] {
        let r = Runner::new().run(&mut dev, &g, &mut engine, &mut bfs, src);
        traces.push(r.direction_trace);
    }
    let out = hash_u32s(bfs.distances().iter().map(|&d| d as u32));
    format!(
        "ooc/bfs {} out={out:x} {}",
        traces.join(","),
        profile_line(dev.profiler())
    )
}

/// One BFS across two devices with frontier exchange; one row per device.
fn multi_gpu_lines() -> Vec<String> {
    let cfg = MultiGpuConfig {
        gpus: 2,
        kind: MgKind::Sage,
        metis: false,
    };
    let dev_cfg = DeviceConfig::test_tiny();
    let mut driver = MultiGpuDriver::new(cfg, &rmat_graph(11, 8, 5), &dev_cfg);
    let mut bfs = Bfs::new(&mut Device::new(dev_cfg));
    let r = driver.run(&mut bfs, 0);
    let out = hash_u32s(bfs.distances().iter().map(|&d| d as u32));
    let mut lines = vec![format!(
        "mgpu/bfs {} edges={} s={:x} out={out:x}",
        r.direction_trace,
        r.edges,
        r.seconds.to_bits()
    )];
    for d in 0..2 {
        lines.push(format!(
            "mgpu/dev{d} {}",
            profile_line(driver.device(d).profiler())
        ));
    }
    lines
}

#[test]
fn adaptive_session_walk_ooc_and_multi_gpu_numbers_are_pinned() {
    let mut actual = vec![session_line()];
    let mut dev = Device::new(DeviceConfig::test_tiny());
    let mut rt = SageRuntime::new(&mut dev, social(1 << 10));
    for sampler in [SamplerKind::Its, SamplerKind::Alias] {
        actual.push(walk_line(sampler, &mut dev, &mut rt));
    }
    actual.push(out_of_core_line());
    actual.extend(multi_gpu_lines());
    assert_table(&actual, &EXPECTED_SCENARIOS);
}
