//! The simplified Shiloach–Vishkin connected-components PPA (Section II,
//! Figure 2 of the paper).
//!
//! Every vertex `v` maintains a parent pointer `D[v]`, initially pointing at
//! itself. Each round performs:
//!
//! 1. **tree hooking** — for each edge `(u, v)`, if `w = D[u]` is a tree root
//!    and `D[v] < w`, hook `w` under `D[v]` (i.e. `D[w] ← D[v]`);
//! 2. **shortcutting** — every vertex re-points itself at its grandparent
//!    (`D[v] ← D[D[v]]`).
//!
//! The paper's simplification drops the *star hooking* step of the original
//! PRAM algorithm. `D[v]` decreases monotonically and converges to the
//! smallest vertex ID of `v`'s connected component in `O(log n)` rounds. Each
//! round is implemented here as four supersteps:
//!
//! | phase (superstep mod 4) | receives | action | sends |
//! |---|---|---|---|
//! | 0 | `D[D[v]]` | apply the shortcut, broadcast `D[v]` to neighbours | `D[v]` |
//! | 1 | neighbours' `D` | forward the smallest, if below `D[v]`, to `D[v]` | hook target |
//! | 2 | hook targets | a root hooks under the smallest; ask the parent for its parent | own ID |
//! | 3 | requesters' IDs | answer each with `D[v]`; report "did I change this round?" | `D[v]` |
//!
//! **Messages carry no tag.** A message is a bare vertex ID and its meaning
//! is the phase it arrives in: in BSP everything sent in superstep `s` is
//! delivered in superstep `s + 1` and nowhere else, and phase `p` sends
//! exactly one kind of message, so phase `(p + 1) % 4` receives only that
//! kind. A message record is therefore `(u32, u32)` — 8 bytes.
//!
//! Neighbour lists do not live in the vertex values either: they sit in one
//! slab per worker on the [`SvProgram`], and a fixed-size [`SvState`] holds
//! its bounds in it.
//!
//! Termination is detected with a [`BoolOr`] aggregator: as soon as a full
//! round passes with no parent change anywhere, the job stops.

use crate::aggregate::BoolOr;
use crate::config::PregelConfig;
use crate::dense::{run_dense_on, DenseSet};
use crate::engine::ExecCtx;
use crate::metrics::Metrics;
use crate::vertex::{Context, VertexProgram};

/// Per-vertex state of the S-V program: the parent pointer `D[v]` and the
/// bounds of the vertex's neighbour list in its worker's slab.
#[derive(Debug, Clone, PartialEq)]
pub struct SvState {
    parent: u32,
    start: u32,
    end: u32,
    changed_this_round: bool,
}

impl SvState {
    /// The state of vertex `rank` before the first round — its own parent —
    /// with `neighbors` appended to `slab`, the neighbour slab of the worker
    /// that owns `rank`.
    ///
    /// # Panics
    ///
    /// Panics if the slab outgrows the state's `u32` offsets.
    pub fn push(
        slab: &mut Vec<u32>,
        rank: u32,
        neighbors: impl IntoIterator<Item = u32>,
    ) -> SvState {
        let start = slab.len() as u32;
        slab.extend(neighbors);
        assert!(
            slab.len() <= u32::MAX as usize,
            "a worker's S-V neighbour slab holds {} entries; offsets into it are u32",
            slab.len()
        );
        SvState {
            parent: rank,
            start,
            end: slab.len() as u32,
            changed_this_round: false,
        }
    }

    /// `D[v]`: once the job has converged, the smallest rank of the vertex's
    /// component.
    pub fn parent(&self) -> u32 {
        self.parent
    }
}

/// The simplified S-V vertex program over [`SvState`] values built with
/// [`SvState::push`].
pub struct SvProgram {
    /// Per worker, the neighbour lists of its vertices, one after the other.
    neighbors: Vec<Vec<u32>>,
}

impl SvProgram {
    /// `neighbors[w]` is the slab the states of worker `w`'s vertices were
    /// pushed onto — `w` being the owner of the vertex's rank range in the
    /// [`DenseSet`], the worker [`Context::worker`] names when the vertex
    /// computes. [`DenseSet::from_fn_on`] hands back one such slab per
    /// worker.
    pub fn new(neighbors: Vec<Vec<u32>>) -> SvProgram {
        SvProgram { neighbors }
    }
}

// What the tagless, slab-backed layout buys: an 8-byte message record and a
// value slot of at most 16 bytes.
const _: () = assert!(
    std::mem::size_of::<(u32, <SvProgram as VertexProgram>::Message)>() == 8
        && std::mem::size_of::<SvState>() <= 16
);

impl VertexProgram for SvProgram {
    type Value = SvState;
    type Message = u32;
    type Aggregate = BoolOr;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u32,
        value: &mut SvState,
        messages: &mut [u32],
    ) {
        // Phases 0–2 act on the smallest rank they receive.
        let least_below = |bound: u32| messages.iter().copied().min().filter(|x| *x < bound);
        match ctx.superstep() % 4 {
            0 => {
                // Apply the shortcut response from the previous round.
                if let Some(grandparent) = least_below(value.parent) {
                    value.parent = grandparent;
                    value.changed_this_round = true;
                }
                // Tree hooking step 1: advertise D[v] along every edge.
                let (start, end) = (value.start as usize, value.end as usize);
                for &n in &self.neighbors[ctx.worker()][start..end] {
                    ctx.send_message(n, value.parent);
                }
            }
            1 => {
                // Tree hooking step 2: forward the smallest neighbour parent to
                // our own parent, which will hook itself if it is a root.
                if let Some(x) = least_below(value.parent) {
                    ctx.send_message(value.parent, x);
                }
            }
            2 => {
                // Tree hooking step 3: roots accept the smallest hook target.
                if value.parent == id {
                    if let Some(x) = least_below(id) {
                        value.parent = x;
                        value.changed_this_round = true;
                    }
                }
                // Shortcutting step 1: ask the (possibly new) parent for its parent.
                if value.parent != id {
                    ctx.send_message(value.parent, id);
                }
            }
            _ => {
                // Shortcutting step 2: answer grandparent queries.
                for &requester in messages.iter() {
                    ctx.send_message(requester, value.parent);
                }
                // End of round: report whether anything changed and reset.
                ctx.aggregate(BoolOr(value.changed_this_round));
                value.changed_this_round = false;
            }
        }
    }

    fn should_terminate(&self, aggregate: &BoolOr, superstep: usize) -> bool {
        superstep % 4 == 3 && !aggregate.0
    }
}

/// Computes connected components of an undirected graph over the ranks
/// `0..adjacency.len()`.
///
/// `adjacency[v]` lists the neighbours of rank `v`; for correct results
/// every edge should be present in both endpoints' lists (the function does
/// not symmetrise the input). Returns every rank's component, represented by
/// its smallest rank, together with the job metrics. The job runs on `ctx`'s
/// workers.
///
/// # Panics
///
/// Panics if there are more than `u32::MAX` vertices.
pub fn connected_components(
    ctx: &ExecCtx,
    adjacency: &[Vec<u32>],
    config: &PregelConfig,
) -> (Vec<u32>, Metrics) {
    let ranks = u32::try_from(adjacency.len()).expect("S-V ranks fit u32");
    let (mut set, slabs) = DenseSet::from_fn_on(ctx, ranks, |rank, slab| {
        let neighbors = adjacency[rank as usize].iter().copied();
        Some(SvState::push(slab, rank, neighbors))
    });
    let metrics = run_dense_on(ctx, &SvProgram::new(slabs), config, &mut set);
    let mut components = vec![0; adjacency.len()];
    set.read_on(ctx, &mut components, SvState::parent);
    (components, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::RankRanges;
    use proptest::prelude::*;

    fn config() -> PregelConfig {
        PregelConfig::default().max_supersteps(400)
    }

    /// Union-find oracle: every vertex's smallest component member.
    fn oracle(n: u32, edges: &[(u32, u32)]) -> Vec<u32> {
        let mut parent: Vec<u32> = (0..n).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            let mut c = x;
            while parent[c as usize] != r {
                let next = parent[c as usize];
                parent[c as usize] = r;
                c = next;
            }
            r
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        }
        // Every root is its component's smallest vertex (hooks go low).
        (0..n).map(|v| find(&mut parent, v)).collect()
    }

    fn adjacency(n: u32, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n as usize];
        for &(a, b) in edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        adj
    }

    fn run_and_check(n: u32, edges: &[(u32, u32)]) -> Metrics {
        let (components, metrics) =
            connected_components(&ExecCtx::new(4), &adjacency(n, edges), &config());
        assert_eq!(components, oracle(n, edges));
        assert!(metrics.converged);
        metrics
    }

    #[test]
    fn path_graph() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        run_and_check(10, &edges);
    }

    #[test]
    fn two_components_and_isolated_vertices() {
        let edges = vec![(0, 1), (1, 2), (5, 6), (6, 7), (7, 5)];
        run_and_check(10, &edges);
    }

    #[test]
    fn star_and_cycle() {
        let mut edges: Vec<(u32, u32)> = (1..20).map(|i| (0, i)).collect();
        edges.extend((20..30).map(|i| (i, if i == 29 { 20 } else { i + 1 })));
        run_and_check(30, &edges);
    }

    #[test]
    fn no_edges_terminates_in_one_round() {
        let metrics = run_and_check(16, &[]);
        assert_eq!(metrics.supersteps, 4, "one round of 4 supersteps suffices");
    }

    #[test]
    fn long_path_uses_logarithmic_rounds() {
        let n = 2048u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let metrics = run_and_check(n, &edges);
        // At most ~log2(n) + slack rounds of 4 supersteps each. This is the
        // qualitative contrast with list ranking: more supersteps per round
        // and messages along every edge every round.
        let rounds = metrics.supersteps / 4;
        assert!(rounds <= 16, "expected O(log n) rounds, got {rounds}");
        assert!(metrics.total_messages > 0);
    }

    #[test]
    fn empty_graph() {
        let (out, metrics) = connected_components(&ExecCtx::new(4), &[], &config());
        assert!(out.is_empty());
        assert!(metrics.converged);
    }

    /// One worker's superstep over `states`, driven by hand: every vertex
    /// computes on what the previous phase sent it. Returns what was sent, as
    /// `(destination, payload)` in vertex order.
    fn superstep(
        program: &SvProgram,
        states: &mut [(u32, SvState)],
        superstep: usize,
        sent_before: &[(u32, u32)],
    ) -> (Vec<(u32, u32)>, BoolOr) {
        let prev = BoolOr(false);
        let mut local = BoolOr(false);
        let mut outbox = vec![Vec::new()];
        let (mut sent, mut unrouted) = (0u64, 0u64);
        for (id, state) in states.iter_mut() {
            let mut inbox: Vec<u32> = sent_before
                .iter()
                .filter(|(to, _)| to == id)
                .map(|&(_, payload)| payload)
                .collect();
            let mut ctx: Context<'_, SvProgram> = Context {
                superstep,
                worker: 0,
                num_workers: 1,
                total_vertices: 3,
                prev_aggregate: &prev,
                local_aggregate: &mut local,
                outbox: &mut outbox,
                ranges: RankRanges::new(10, 1),
                unrouted: &mut unrouted,
                messages_sent: &mut sent,
                halt: false,
            };
            program.compute(&mut ctx, *id, state, &mut inbox);
            assert!(!ctx.halt, "S-V vertices never vote to halt");
        }
        assert_eq!(sent as usize, outbox[0].len());
        (outbox.remove(0), local)
    }

    #[test]
    fn each_phase_receives_only_what_the_phase_before_sent() {
        // The path 5 – 3 – 9. A message has no tag, so its meaning is the
        // phase it arrives in: one full round (and the first phase of the
        // next), with what every phase sends spelled out.
        let mut slab = Vec::new();
        let mut states: Vec<(u32, SvState)> = [(3, vec![5, 9]), (5, vec![3]), (9, vec![3])]
            .into_iter()
            .map(|(id, neighbors)| (id, SvState::push(&mut slab, id, neighbors)))
            .collect();
        let program = SvProgram::new(vec![slab]);
        let parents = |states: &[(u32, SvState)]| -> Vec<u32> {
            states.iter().map(|(_, st)| st.parent()).collect()
        };

        // Phase 0 (nothing received): D[v] to every neighbour.
        let (sent, _) = superstep(&program, &mut states, 0, &[]);
        assert_eq!(sent, vec![(5, 3), (9, 3), (3, 5), (3, 9)]);
        // Phase 1 receives neighbours' D: the smallest, if below D[v], goes
        // to D[v] as a hook target. 3 hears {5, 9} and stays silent.
        let (sent, _) = superstep(&program, &mut states, 1, &sent);
        assert_eq!(sent, vec![(5, 3), (9, 3)]);
        // Phase 2 receives hook targets: the roots 5 and 9 hook under 3, and
        // every non-root asks its parent for its parent, naming itself.
        let (sent, _) = superstep(&program, &mut states, 2, &sent);
        assert_eq!(parents(&states), vec![3, 3, 3]);
        assert_eq!(sent, vec![(3, 5), (3, 9)]);
        // Phase 3 receives requesters' IDs and answers each with D[v].
        let (sent, changed) = superstep(&program, &mut states, 3, &sent);
        assert_eq!(sent, vec![(5, 3), (9, 3)]);
        assert!(changed.0, "two roots were hooked this round");
        assert!(!program.should_terminate(&changed, 3));
        // Phase 0 receives D[D[v]] — here no shortcut — and starts over.
        let (sent, _) = superstep(&program, &mut states, 4, &sent);
        assert_eq!(parents(&states), vec![3, 3, 3]);
        assert_eq!(sent, vec![(5, 3), (9, 3), (3, 3), (3, 3)]);
        // The second round changes nothing, which ends the job.
        let (sent, _) = superstep(&program, &mut states, 5, &sent);
        assert_eq!(sent, vec![]);
        let (sent, _) = superstep(&program, &mut states, 6, &sent);
        assert_eq!(sent, vec![(3, 5), (3, 9)]);
        let (sent, changed) = superstep(&program, &mut states, 7, &sent);
        assert_eq!(sent, vec![(5, 3), (9, 3)]);
        assert!(program.should_terminate(&changed, 7));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matches_union_find(
            n in 1u32..60,
            edge_seeds in proptest::collection::vec((0u32..60, 0u32..60), 0..120)
        ) {
            let edges: Vec<(u32, u32)> = edge_seeds
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .collect();
            let (components, metrics) =
                connected_components(&ExecCtx::new(4), &adjacency(n, &edges), &config());
            prop_assert!(metrics.converged);
            prop_assert_eq!(components, oracle(n, &edges));
        }
    }
}
