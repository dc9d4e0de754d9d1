//! **Matrix traversal mode** — the direction optimizer's third gear.
//!
//! A pull iteration is a masked sparse-matrix/vector product in disguise:
//! `next = (Aᵀ ⊙ mask) · f`, where `Aᵀ` is the reversed adjacency, `f` the
//! frontier bitmap and `mask` the candidate gate (unvisited vertices for
//! BFS/CC, everything for PR). When the frontier is *dense*, executing that
//! product block-by-block on the matrix units beats lane-by-lane CSR
//! scanning: the adjacency is processed as `block_dim × block_dim` binary
//! blocks, each block-column of the frontier is loaded once as a bitmap
//! fragment (one 64-bit word read per active pair instead of one probe per
//! edge), and the block multiply itself retires as a single tensor-unit op
//! (`SmShard::mma`) instead of a cooperative per-candidate election.
//!
//! Early exit survives at block granularity: column blocks are consumed in
//! ascending order and a row whose app claims it (BFS's first parent)
//! drops out of every later fragment, so a row-block stops multiplying as
//! soon as all its candidate rows have converged — the block-level
//! convergence check of tensor-core BFS kernels. The residual trade is
//! granularity (a claimed row still pays for the whole fragment that
//! claimed it), which is why the runner only picks this mode above a
//! frontier-density threshold, where first fragments almost always hit.
//!
//! Functionally the mode is *identical* to pull: candidates are walked in
//! ascending order and updates go through the same `pull_update` /
//! `pull_finish` contract, so outputs stay bitwise identical to push-only
//! runs. Cost charging is block-granular and independent of the functional
//! early exit, so simulated cycles are deterministic too.

use super::common::charge_bitmap_build;
use super::naive::NaiveEngine;
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::{App, PullStep};
use crate::dgraph::DeviceGraph;
use crate::frontier::BitFrontier;
use gpu_sim::{AccessKind, Device};
use sage_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shared masked-SpMV iteration: every engine that advertises
/// [`Engine::supports_matrix`] delegates here so the mode's cost character
/// (and its bitwise-deterministic event stream) is engine-independent.
///
/// Per row-block of `block_dim` consecutive vertices (placed round-robin
/// over SMs):
///
/// 1. gate the rows through `pull_candidate` — a fully masked-out block is
///    skipped outright, the `⊙ mask` saving;
/// 2. read the surviving rows' in-offset ranges. A row's in-adjacency is
///    sorted ascending, so it splits into per-column-block *runs*
///    (contiguous CSR ranges) that come out in ascending column order;
/// 3. merge the rows' runs lazily: one CSR cursor per candidate row and a
///    min-heap keyed by `(col_block, slot)` holding each live row's next
///    run. Popping every entry of the smallest column block forms that
///    block's group, in ascending row order. Per group: read the bitmap
///    fragment (the 64-bit words covering the column range), gather the
///    rows' runs with coalesced range reads (the on-the-fly `Aᵀ` fragment —
///    no preprocessed block storage), retire one tensor op via
///    [`gpu_sim::SmShard::mma`], and apply the app's pull contract to the
///    run members. A row goes back on the heap only if it is still live
///    and has runs left, so a claimed row is dead for every later block
///    and its later runs are never even delimited; once every row has
///    converged or run out the heap drains and the row-block stops.
/// 4. append survivors to the queue at `queue_base` in ascending order.
///
/// The merge visits column blocks in ascending order, and within a block
/// the rows in ascending order — the order a stable sort of all runs by
/// column block gives, without building or sorting them. Each row's runs
/// are therefore visited in its CSR order, so every row sees exactly the
/// `pull_update` call sequence a scalar pull scan gives it and outputs are
/// bitwise identical to pull (and therefore to push). Cost charging is
/// run-granular and independent of the functional early exit inside a
/// fragment, so simulated cycles are deterministic too. Scratch space is
/// O(`block_dim`): nothing is precomputed per graph.
pub fn matrix_iterate(
    dev: &mut Device,
    g: &DeviceGraph,
    app: &mut dyn App,
    fr: &BitFrontier,
    kernel: &'static str,
    queue_base: u64,
) -> IterationOutput {
    let n = g.csr().num_nodes();
    let clock = dev.cfg().clock_hz;
    let issue = dev.cfg().issue_width;
    let block_dim = dev.cfg().tensor.block_dim;
    // `Device::new` asserts a power-of-two block_dim
    let block_shift = block_dim.trailing_zeros();
    let mut out = IterationOutput::default();
    let mut rec = AccessRecorder::new();
    let mut scratch: Vec<u64> = Vec::new();
    let mut candidates: Vec<NodeId> = Vec::new();
    // per candidate slot: end of its in-adjacency in the CSR
    let mut row_end: Vec<u32> = Vec::new();
    // min-heap of each live row's next run: (col_block, slot, run start)
    let mut heap: BinaryHeap<Reverse<(u32, usize, u32)>> = BinaryHeap::new();
    // (slot, csr range) runs of the column block being consumed
    let mut group: Vec<(usize, u32, u32)> = Vec::new();
    let mut joined: Vec<bool> = Vec::new();
    let mut overhead_insts = 0u64;

    let row_blocks = n.div_ceil(block_dim);
    let mut k = dev.launch(kernel);
    let sms = k.num_sms();
    let warp = k.cfg().warp_size;
    // full occupancy: warpgroups double-buffer their fragment loads
    // (cp.async software pipelining), so every resident warp is an
    // independent latency-hiding stream, as in the stealing consume kernel
    k.set_concurrency(k.cfg().max_resident_warps as f64);

    // prologue: materialize the frontier bitmap inside this launch
    charge_bitmap_build(&mut k, fr, queue_base);

    let in_csr = g.in_csr().expect("matrix mode requires the in-edge view");
    let targets = in_csr.targets();
    for rb in 0..row_blocks {
        let lo = rb * block_dim;
        let hi = (lo + block_dim).min(n);
        let mut sh = k.shard(rb % sms);

        // 1. candidate gate, one lane per row
        candidates.clear();
        let mut chunk_lo = lo;
        while chunk_lo < hi {
            let chunk_hi = (chunk_lo + warp).min(hi);
            sh.exec(1, chunk_hi - chunk_lo, warp);
            for u in chunk_lo..chunk_hi {
                if app.pull_candidate(u as NodeId, &mut rec) {
                    candidates.push(u as NodeId);
                }
            }
            rec.flush(&mut sh);
            chunk_lo = chunk_hi;
        }
        if candidates.is_empty() {
            continue; // masked-out block: no fragment work at all
        }

        // 2. in-offset ranges; each row's first run seeds the merge
        for chunk in candidates.chunks(warp) {
            scratch.clear();
            for &u in chunk {
                scratch.push(g.in_offset_addr(u));
                scratch.push(g.in_offset_addr(u + 1));
            }
            sh.access(AccessKind::Read, &scratch, 4);
        }
        row_end.clear();
        for (slot, &u) in candidates.iter().enumerate() {
            let beg = in_csr.offset(u);
            let end = beg + in_csr.degree(u) as u32;
            row_end.push(end);
            if beg < end {
                heap.push(Reverse((targets[beg as usize] >> block_shift, slot, beg)));
            }
        }
        joined.clear();
        joined.resize(candidates.len(), false);

        // 3. consume column blocks in ascending order with block-level
        // convergence: a claimed row is never re-queued, so it is dead for
        // every later fragment
        while let Some(&Reverse((cb, _, _))) = heap.peek() {
            group.clear();
            while let Some(&Reverse((c, slot, beg))) = heap.peek() {
                if c != cb {
                    break;
                }
                heap.pop();
                let end = row_end[slot];
                let mut j = beg + 1;
                while j < end && targets[j as usize] >> block_shift == cb {
                    j += 1;
                }
                group.push((slot, beg, j));
            }

            // bitmap fragment: the 64-bit words covering the column block
            scratch.clear();
            let cb = cb as usize;
            let w_lo = (cb << block_shift) / 64;
            let w_hi = ((((cb + 1) << block_shift) - 1) / 64).min(fr.num_words() - 1);
            for w in w_lo..=w_hi {
                scratch.push(fr.word_addr_at(w));
            }
            sh.access(AccessKind::Read, &scratch, 8);
            // one tensor op per active pair + fragment steering
            sh.mma(1);
            sh.exec_uniform(2);
            overhead_insts += 2;

            // gather the rows' fragment slices cooperatively: the warp's
            // lanes pack the group's nonzeros into warp-wide loads (a run is
            // contiguous CSR indices, so they coalesce), charged whole
            // regardless of where a claim lands inside them
            scratch.clear();
            for &(_, beg, end) in &group {
                for idx in beg..end {
                    scratch.push(g.in_target_addr(idx));
                }
                out.edges += u64::from(end - beg);
            }
            for chunk in scratch.chunks(warp) {
                sh.access(AccessKind::Read, chunk, 4);
            }

            for &(slot, beg, end) in &group {
                let u = candidates[slot];
                let mut claimed = false;
                for &v in &targets[beg as usize..end as usize] {
                    if !fr.contains(v) {
                        continue;
                    }
                    match app.pull_update(u, v, &mut rec) {
                        PullStep::Claim => {
                            joined[slot] = true;
                            claimed = true;
                            break;
                        }
                        PullStep::Update => joined[slot] = true,
                        PullStep::Skip => {}
                    }
                }
                if !claimed && end < row_end[slot] {
                    heap.push(Reverse((targets[end as usize] >> block_shift, slot, end)));
                }
            }
            rec.flush(&mut sh);
        }

        // 4. survivors in ascending row order — `next` matches a pull
        // iteration bit for bit
        for (slot, &u) in candidates.iter().enumerate() {
            if joined[slot] {
                out.next.push(u);
            }
            app.pull_finish(u, &mut rec);
        }
        rec.flush(&mut sh);
    }

    // epilogue: survivors append to the next queue through an atomic
    // cursor — contiguous coalesced writes, no separate contraction
    let kept = out.next.len();
    let per_sm = kept.div_ceil(sms);
    for sm in 0..sms {
        let lo = sm * per_sm;
        if lo >= kept {
            break;
        }
        let cnt = per_sm.min(kept - lo);
        k.exec_uniform(sm, (cnt.div_ceil(warp) * 2) as u64);
        k.access_range(
            sm,
            AccessKind::Write,
            queue_base + (lo * 4) as u64,
            cnt as u64,
            4,
        );
    }

    k.finish();
    out.overhead_seconds = overhead_insts as f64 / issue / clock;
    out
}

/// The standalone SpMV engine: matrix-mode iterations with a
/// thread-per-vertex push fallback for sparse frontiers. It deliberately
/// does **not** advertise pull, so runners exercise the matrix path as a
/// first-class direction rather than a pull variant.
#[derive(Debug, Default)]
pub struct SpmvEngine {
    push: NaiveEngine,
}

impl SpmvEngine {
    /// Default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            push: NaiveEngine::new(),
        }
    }
}

impl Engine for SpmvEngine {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn iterate(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &[NodeId],
    ) -> IterationOutput {
        self.push.iterate(dev, g, app, frontier)
    }

    fn supports_matrix(&self) -> bool {
        true
    }

    fn iterate_matrix(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &BitFrontier,
        queue_base: u64,
    ) -> IterationOutput {
        matrix_iterate(dev, g, app, frontier, "spmv_matrix", queue_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use crate::engine::common::{pull_iterate, PullConfig};
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    fn chain_plus_fan() -> Csr {
        // 0 -> everyone in 1..40, plus a chain 40 -> 41 -> 42
        let mut edges: Vec<(u32, u32)> = (1..40).map(|t| (0u32, t)).collect();
        edges.push((1, 40));
        edges.push((40, 41));
        edges.push((41, 42));
        Csr::from_edges(43, &edges)
    }

    fn setup() -> (Device, DeviceGraph) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, chain_plus_fan()).with_in_edges(&mut dev);
        (dev, g)
    }

    #[test]
    fn matrix_output_matches_pull_output() {
        let run = |matrix: bool| {
            let (mut dev, g) = setup();
            let mut app = Bfs::new(&mut dev);
            let f = crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
            let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
            let out = if matrix {
                matrix_iterate(&mut dev, &g, &mut app, &fr, "m", 1 << 25)
            } else {
                let cfg = PullConfig {
                    kernel: "p",
                    block_size: 256,
                    concurrency: 1.0,
                    cooperative: false,
                };
                pull_iterate(&mut dev, &g, &mut app, &fr, &cfg, 1 << 25)
            };
            out.next
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), (1..40).collect::<Vec<u32>>());
    }

    #[test]
    fn matrix_retires_tensor_ops() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
        let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "m", 1 << 25);
        assert!(
            dev.profiler().mma_ops > 0,
            "block pairs must hit the mma pipe"
        );
        // every row here has a single one-block run, so each candidate's
        // first (and only) fragment covers all its in-edges
        assert_eq!(out.edges, g.in_csr().unwrap().num_edges() as u64);
        assert!(out.overhead_seconds > 0.0, "fragment steering is charged");
    }

    #[test]
    fn claimed_rows_drop_out_of_later_fragments() {
        // node 50's in-edges span col-blocks 0..3 (sources 0..40); with the
        // frontier at {0} it claims inside its first fragment and the later
        // fragments of its row must not be gathered
        let mut edges: Vec<(u32, u32)> = (0..40).map(|s| (s, 50u32)).collect();
        edges.push((50, 51));
        let csr = Csr::from_edges(52, &edges);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
        let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "m", 1 << 25);
        assert_eq!(out.next, vec![50]);
        // row 50: only its first run (block_dim = 16 sources) is charged,
        // not all 40; row 51's single-source run adds one more edge
        let block_dim = dev.cfg().tensor.block_dim as u64;
        assert_eq!(out.edges, block_dim + 1);
        assert_eq!(
            dev.profiler().mma_ops,
            2,
            "row 50 claims in fragment 0; its fragments 1-2 are skipped"
        );
    }

    #[test]
    fn masked_out_blocks_are_skipped() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
        // first step visits 1..40; afterwards only 40.. are candidates
        let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "m", 1 << 25);
        let before = dev.profiler().mma_ops;
        let fr2 = BitFrontier::from_nodes(&out.next, g.csr().num_nodes(), 1 << 24);
        let out2 = matrix_iterate(&mut dev, &g, &mut app, &fr2, "m", 1 << 25);
        let second = dev.profiler().mma_ops - before;
        assert!(
            second <= before,
            "mostly-visited graph needs fewer block ops"
        );
        assert_eq!(out2.next, vec![40]);
    }

    #[test]
    fn spmv_engine_pushes_when_sparse_and_multiplies_when_dense() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let mut e = SpmvEngine::new();
        assert_eq!(e.name(), "SpMV");
        assert!(e.supports_matrix());
        assert!(!e.supports_pull());
        let push_out = e.iterate(&mut dev, &g, &mut app, &f);
        assert_eq!(push_out.next, (1..40).collect::<Vec<u32>>());
        let fr = BitFrontier::from_nodes(&push_out.next, g.csr().num_nodes(), 1 << 24);
        let m_out = e.iterate_matrix(&mut dev, &g, &mut app, &fr, 1 << 25);
        assert!(dev.profiler().mma_ops > 0);
        assert_eq!(m_out.next, vec![40]);
    }
}
