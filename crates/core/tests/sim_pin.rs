//! Pins the simulated numbers of the sequential (1-host-thread) path.
//!
//! Every line below is the exact `Profiler` state (float counters as raw
//! bits) after BFS or PageRank runs on a fixed R-MAT graph, under each
//! direction policy, on three devices:
//! - the tiny test device, whose small caches see streaming bypass and
//!   capacity misses;
//! - the default device, the only shipped geometry whose L2 slices have a
//!   non-power-of-two set count (192), so the modulo set index runs;
//! - the default device with a 24 KiB 4-way L2: still 16 slices, each of
//!   3 sets. The graph fits the full 6 MiB L2, whose 16-way sets never
//!   evict it, so only this shrunken L2 makes the modulo set index decide
//!   hits.
//!
//! PageRank's initial frontier is every vertex, so the pull and adaptive
//! runners keep it on push; only the matrix runner changes its path.
//!
//! Host-side optimisations of the simulator (coalescing, cache indexing,
//! the matrix-mode merge) must leave every number here bit for bit
//! unchanged. A change that *means* to alter the cost model regenerates
//! the table from the failure message and says why in the change log.

use gpu_sim::{Device, DeviceConfig};
use sage::app::{App, Bfs, PageRank};
use sage::engine::ResidentEngine;
use sage::pipeline::DirectionPolicy;
use sage::{DeviceGraph, Runner};
use sage_graph::gen::rmat_graph;

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
    dev.set_host_threads(1);
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
    let p = dev.profiler();
    format!(
        "{dev_name}/{app_name}/{name} {} k={} wi={:x} al={:x} ls={:x} req={} l1={} l2={} \
         dram={} wr={} at={} ac={} sy={} mma={} pcie={}/{} peer={} cyc={:x}",
        traces.join(","),
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
    let table = actual
        .iter()
        .map(|l| format!("    \"{l}\",\n"))
        .collect::<String>();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "regenerate EXPECTED from:\n{table}"
    );
    for (got, want) in actual.iter().zip(EXPECTED) {
        assert_eq!(got, want, "simulated numbers drifted; full table:\n{table}");
    }
}
