//! Output checks. Every answer the program gives is compared with
//! `sage::reference` (or, for walks, with the properties a walk
//! distribution must have), and every mismatch is tallied as a failure.

use crate::stats::hash_u32s;
use sage::reference;
use sage_graph::{Csr, NodeId};

/// Relative tolerance of a PageRank value against the reference power
/// iteration (plus an absolute floor of `PR_ABS_TOL / n`).
pub const PR_REL_TOL: f64 = 1e-3;
pub const PR_ABS_TOL: f64 = 1e-3;
/// Tolerance of a BC dependency score: `|got - want| <= BC_TOL * max(want, 1)`.
pub const BC_TOL: f64 = 1e-2;
/// Largest deviation of a walk distribution's total mass from 1.
pub const WALK_MASS_TOL: f64 = 1e-3;

/// Attempted queries and their failures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Answers that disagreed with the reference.
    pub wrong: u64,
    /// Queries refused (`Overloaded`) or failed with a ticket error.
    pub errors: u64,
}

impl Tally {
    /// Count one answered query and whether its output checked out.
    pub fn answer(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
        }
    }

    /// Count one query that produced no answer.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Fingerprint of BFS depths (exact comparison).
pub fn depths_hash(depths: &[i32]) -> u64 {
    hash_u32s(depths.iter().map(|&d| d as u32))
}

/// Fingerprint of SSSP distances (exact comparison).
pub fn dists_hash(dists: &[u32]) -> u64 {
    hash_u32s(dists.iter().copied())
}

pub fn bfs_expected(g: &Csr, source: NodeId) -> u64 {
    depths_hash(&reference::bfs_levels(g, source))
}

pub fn sssp_expected(g: &Csr, source: NodeId) -> u64 {
    dists_hash(&reference::sssp_dists(g, source))
}

pub fn pr_ok(want: &[f64], got: &[f32]) -> bool {
    let floor = PR_ABS_TOL / want.len().max(1) as f64;
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(&w, &g)| (f64::from(g) - w).abs() <= PR_REL_TOL * w + floor)
}

pub fn bc_ok(want: &[f64], got: &[f32]) -> bool {
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(&w, &g)| (f64::from(g) - w).abs() <= BC_TOL * w.max(1.0))
}

/// Component label of every node (labels are arbitrary but equal within a
/// component), for walk reachability checks on symmetric graphs.
pub fn components(g: &Csr) -> Vec<u32> {
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        label[s] = s as u32;
        stack.push(s as NodeId);
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = s as u32;
                    stack.push(v);
                }
            }
        }
    }
    label
}

/// A walk answer is a probability distribution whose support lies in the
/// source's component.
pub fn walk_ok(component: &[u32], source: NodeId, scores: &[f32]) -> bool {
    if scores.len() != component.len() {
        return false;
    }
    let home = component[source as usize];
    let mut mass = 0.0f64;
    for (v, &p) in scores.iter().enumerate() {
        if !p.is_finite() || p < 0.0 || (p > 0.0 && component[v] != home) {
            return false;
        }
        mass += f64::from(p);
    }
    (mass - 1.0).abs() <= WALK_MASS_TOL
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceConfig};
    use sage::app::{Bfs, PageRank};
    use sage::engine::ResidentEngine;
    use sage::{DeviceGraph, Runner};

    fn graph() -> Csr {
        sage_graph::gen::rmat_graph(9, 8, 3)
    }

    #[test]
    fn real_outputs_pass() {
        let g = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
        let mut engine = ResidentEngine::new();
        let mut bfs = Bfs::new(&mut dev);
        let (src, _) = g.max_degree();
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut bfs, src);
        let mut tally = Tally::default();
        tally.answer(depths_hash(bfs.distances()) == bfs_expected(&g, src));
        let mut pr = PageRank::new(&mut dev, 10, 0.0);
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut pr, 0);
        tally.answer(pr_ok(&reference::pagerank(&g, 10), pr.ranks()));
        assert_eq!((tally.attempted, tally.failed()), (2, 0));
    }

    #[test]
    fn corrupted_results_are_counted() {
        let g = graph();
        let (src, _) = g.max_degree();
        let mut tally = Tally::default();

        let mut depths = reference::bfs_levels(&g, src);
        tally.answer(depths_hash(&depths) == bfs_expected(&g, src));
        let far = depths
            .iter()
            .position(|&d| d > 1)
            .expect("a node two hops away");
        depths[far] -= 1;
        tally.answer(depths_hash(&depths) == bfs_expected(&g, src));

        let want = reference::pagerank(&g, 10);
        let mut ranks: Vec<f32> = want.iter().map(|&r| r as f32).collect();
        tally.answer(pr_ok(&want, &ranks));
        ranks[3] *= 1.01;
        tally.answer(pr_ok(&want, &ranks));

        let comp = components(&g);
        let mut walk = vec![0.0f32; g.num_nodes()];
        walk[src as usize] = 0.5;
        walk[g.neighbors(src)[0] as usize] = 0.5;
        tally.answer(walk_ok(&comp, src, &walk));
        walk[src as usize] = 0.25; // mass no longer sums to one
        tally.answer(walk_ok(&comp, src, &walk));

        tally.error(); // a refused query

        assert_eq!(tally.attempted, 7);
        assert_eq!(
            tally.wrong, 3,
            "each corruption must count as a wrong answer"
        );
        assert_eq!(tally.failed(), 4);
        assert!((tally.error_rate() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn walk_mass_outside_component_fails() {
        // two components: {0,1} and {2,3}
        let g = Csr::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let comp = components(&g);
        assert!(walk_ok(&comp, 0, &[0.5, 0.5, 0.0, 0.0]));
        assert!(!walk_ok(&comp, 0, &[0.5, 0.0, 0.5, 0.0]));
    }
}
