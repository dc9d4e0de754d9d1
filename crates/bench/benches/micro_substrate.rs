//! Micro-benchmarks of the substrate: cache probes, coalescing, tile
//! decomposition, permutation application, and one masked-SpMV iteration.
//!
//! ```text
//! cargo bench -p sage-bench --bench micro_substrate
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{AccessKind, Device, DeviceConfig, SectorCache};
use sage::app::{App, Bfs};
use sage::engine::spmv::matrix_iterate;
use sage::frontier::BitFrontier;
use sage::DeviceGraph;
use sage_graph::datasets::Dataset;
use sage_graph::gen::rmat_graph;
use sage_graph::reorder::Permutation;
use sage_graph::NodeId;
use std::hint::black_box;

/// Warp requests issued per timed sample of the access benches.
const REQUESTS: u64 = 1024;

fn bench_cache_probe(c: &mut Criterion) {
    let mut cache = SectorCache::new(49152, 16, 4);
    let mut i = 0u64;
    c.bench_function("substrate/l2_probe", |b| {
        b.iter(|| {
            i = (i + 97) % 100_000;
            black_box(cache.access(i))
        })
    });
}

fn bench_warp_access(c: &mut Criterion) {
    let mut dev = Device::new(DeviceConfig::default());
    let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 128).collect();
    c.bench_function("substrate/warp_access_scattered", |b| {
        b.iter(|| {
            let mut k = dev.launch("bench");
            k.access(0, AccessKind::Read, black_box(&addrs), 4);
            black_box(k.finish())
        })
    });
}

/// 32-lane `Kernel::access` on consecutive 4-byte elements, in lane order
/// (a CSR range: the coalescer never sorts) and shuffled (it must).
fn bench_warp_access_order(c: &mut Criterion) {
    let mut dev = Device::new(DeviceConfig::default());
    let monotone: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let mut shuffled = monotone.clone();
    // fixed permutation: stride 13 is coprime to 32
    for (lane, a) in shuffled.iter_mut().enumerate() {
        *a = ((lane * 13) % 32) as u64 * 4;
    }
    for (name, lanes) in [("monotone", &monotone), ("shuffled", &shuffled)] {
        let mut batch = vec![0u64; 32];
        c.bench_function(&format!("substrate/warp_access_{name}_x1024"), |b| {
            b.iter(|| {
                let mut k = dev.launch("bench");
                for r in 0..REQUESTS {
                    let base = (1 << 20) + (r % 256) * 128;
                    for (dst, &off) in batch.iter_mut().zip(lanes.iter()) {
                        *dst = base + off;
                    }
                    k.access(0, AccessKind::Read, black_box(&batch), 4);
                }
                black_box(k.finish())
            })
        });
    }
}

/// One dense-frontier matrix (masked SpMV) BFS step on an R-MAT 2^12:
/// the frontier holds every fourth vertex, so most rows claim early.
fn bench_matrix_iterate(c: &mut Criterion) {
    let mut dev = Device::new(DeviceConfig::default());
    let g = DeviceGraph::upload(&mut dev, rmat_graph(12, 16, 3)).with_in_edges(&mut dev);
    let n = g.csr().num_nodes();
    let bitmap = dev.alloc_array::<u64>(n.div_ceil(64), 0);
    let queue = dev.alloc_array::<u32>(n, 0);
    let nodes: Vec<NodeId> = (0..n as NodeId).step_by(4).collect();
    let fr = BitFrontier::from_nodes(&nodes, n, bitmap.base());
    let mut app = Bfs::new(&mut dev);
    c.bench_function("substrate/matrix_iterate_dense_rmat12", |b| {
        b.iter(|| {
            let _ = app.init(&mut dev, g.csr(), 1);
            let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "bench", queue.base());
            black_box(out.edges)
        })
    });
}

fn bench_permutation_apply(c: &mut Criterion) {
    let csr = Dataset::Ljournal.generate(0.05);
    let perm = Permutation::random(csr.num_nodes(), 1);
    c.bench_function("substrate/permutation_apply_csr", |b| {
        b.iter(|| black_box(perm.apply_csr(&csr)))
    });
}

criterion_group!(
    benches,
    bench_cache_probe,
    bench_warp_access,
    bench_warp_access_order,
    bench_matrix_iterate,
    bench_permutation_apply
);
criterion_main!(benches);
