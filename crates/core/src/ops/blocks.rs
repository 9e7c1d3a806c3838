//! Minimizer blocks: the chain fragments contig labeling contracts before
//! its BSP job, after Blogel's block-centric model (Yan, Cheng, Lu and Ng,
//! *PVLDB* 2014): serial work inside a block, supersteps between blocks.
//!
//! Ranks follow k-mer value, so every labeling message along a chain lands
//! on a random rank. Consecutive k-mers of a chain share their minimizer
//! ([`ppa_seq::kmer::minimizer_rank`], the order construct's super-k-mers
//! are cut by) in runs of about (k − m + 2) / 2. A **block** is the set of
//! vertices with one key: a k-mer's minimizer; a contig, or a k-mer with a
//! self-loop, is a block of its own. [`Blocks::build_on`] contracts every
//! maximal run of unambiguous vertices joined by sole edges, each naming
//! the other, that share their key into one **fragment**, serially: each
//! pool worker walks the fragments of the keys it owns, so every fragment
//! is walked once. Its **representative** is its smallest rank; an
//! ambiguous vertex is a fragment of its own.
//!
//! The jobs run unchanged on the fragments' **slots**: slot `s` is the
//! `s`-th fragment by representative, so slots order as ranks do. A
//! fragment's sides are the slots beyond its two ends ([`Blocks::sides`]).
//! A fragment is a run of one maximal unambiguous path or cycle, so the
//! contracted graph has the same paths and cycles: a component's smallest
//! slot names its smallest vertex ([`Blocks::rank`]), and the end fragments
//! list ranking reaches name their terminal vertices ([`Blocks::terminal`]).
//! [`Blocks::spread_on`] copies each slot's outcome to its fragment. The key
//! decides how much is contracted, never a label: a cycle inside one block
//! is one fragment pointing at itself on both sides, and takes list
//! ranking's cycle fallback like any cycle.

use crate::node::{GraphNode, NodeSource};
use crate::polarity::Side;
use crate::ranks::{RankDict, AMBIGUOUS, RANK_FLIP};
use ppa_pregel::fxhash::hash_one;
use ppa_pregel::ExecCtx;
use ppa_seq::kmer::minimizer_rank;
use std::sync::atomic::{AtomicU32, Ordering};

/// A side without a neighbour. Ranks, the absent one included, stay below
/// it (`ranks::fits_rank_space`).
const NO_NEIGHBOR: u32 = u32::MAX - 1;

/// The ranks of a node's sole neighbours, `[left, right]` ([`NO_NEIGHBOR`]
/// for a side without one), or `[AMBIGUOUS; 2]` if a side has several.
fn sole_ranks(node: &impl GraphNode, dict: &RankDict<'_>) -> [u32; 2] {
    let mut sole = [NO_NEIGHBOR; 2];
    for edge in node.real_edges() {
        let side = &mut sole[usize::from(edge.side() == Side::Right)];
        if *side != NO_NEIGHBOR {
            return [AMBIGUOUS; 2];
        }
        *side = dict.rank(edge.neighbor);
    }
    sole
}

/// A vertex of the contracted graph: a contracted run of one chain, or an
/// ambiguous vertex on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fragment {
    /// Its smallest rank.
    rep: u32,
    /// The vertex a list-ranking pointer has reached once it ends, flipped,
    /// at this fragment: the end whose side faces no neighbour or an
    /// ambiguous one, the smaller if both do (the fragment is its whole
    /// path) or neither does.
    terminal: u32,
    /// Per side, the rank beyond the end (or [`NO_NEIGHBOR`]); a cycle's
    /// first vertex on both sides; `[AMBIGUOUS; 2]` for an ambiguous vertex.
    outs: [u32; 2],
}

/// The fragments of a node set and the job's address space over them: a
/// fragment's **slot** is its position in ascending representative order,
/// so slots order as their representatives' ranks and IDs do.
pub(crate) struct Blocks {
    /// Per rank, the slot of the fragment that holds it.
    slot_of: Vec<u32>,
    /// Per slot, its fragment.
    fragments: Vec<Fragment>,
}

impl Blocks {
    /// Contracts the fragments of `nodes`, ranked by `dict` (the node set's
    /// own ID column), in two passes on `ctx`'s pool: one over contiguous
    /// shares of the nodes reads every vertex's sole neighbours and key, one
    /// walks the fragments, each worker those of the keys it owns.
    pub(crate) fn build_on<S: NodeSource + ?Sized>(
        ctx: &ExecCtx,
        nodes: &S,
        dict: &RankDict<'_>,
    ) -> Blocks {
        let (workers, n) = (ctx.workers(), nodes.len());
        // Per rank: its sole neighbours' ranks ([AMBIGUOUS; 2] for an
        // ambiguous vertex), then its key. A k-mer's is the low 31 bits of
        // its minimizer's rank, which tell the at most 22-bit m-mers apart;
        // any other vertex's is its own rank with bit 31 set.
        let mut links = vec![[0u32; 3]; n];
        ctx.pool()
            .run_per_worker(shares(&mut links, workers), |w, share| {
                let base = n * w / workers;
                for (rank, link) in (base..).zip(share.iter_mut()) {
                    let node = nodes.node(rank);
                    let own = rank as u32;
                    let [left, right] = sole_ranks(&node, dict);
                    let key = match node.kmer() {
                        Some(kmer) if left != own && right != own => {
                            minimizer_rank(kmer.packed(), kmer.k()) as u32 & !RANK_FLIP
                        }
                        _ => own | RANK_FLIP,
                    };
                    *link = [left, right, key];
                }
            });

        // The sole edge on `side` of `u` joins its fragment to the next
        // vertex: returns that vertex and the side to leave it by.
        let step = |u: u32, side: usize| {
            let here = links[u as usize];
            let v = here[side];
            let there = links.get(v as usize)?;
            if v == u || here[1 - side] == v || here[2] != there[2] {
                return None;
            }
            match [there[0] == u, there[1] == u] {
                [true, false] => Some((v, 1)),
                [false, true] => Some((v, 0)),
                _ => None,
            }
        };
        let rep_of: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
        let parts = ctx.pool().run_per_worker(vec![(); workers], |w, ()| {
            let mut fragments = Vec::new();
            let mut walked = vec![0u64; n.div_ceil(64)];
            let mut members = Vec::new();
            for u in 0..n as u32 {
                let at = u as usize;
                if walked[at / 64] & (1 << (at % 64)) != 0
                    || (hash_one(&links[at][2]) % workers as u64) as usize != w
                {
                    continue;
                }
                let (mut ends, mut outs) = ([u, u], [links[at][0], links[at][1]]);
                members.clear();
                members.push(u);
                'sides: for side in 0..2 {
                    if outs[0] == AMBIGUOUS {
                        break;
                    }
                    let (mut end, mut leave) = (u, side);
                    while let Some((v, next)) = step(end, leave) {
                        if v == u {
                            outs = [u, u];
                            break 'sides;
                        }
                        members.push(v);
                        (end, leave) = (v, next);
                    }
                    ends[side] = end;
                    outs[side] = links[end as usize][leave];
                }
                let open = |out: u32| {
                    out == NO_NEIGHBOR || links.get(out as usize).is_some_and(|l| l[0] == AMBIGUOUS)
                };
                let fragment = Fragment {
                    rep: members.iter().copied().min().unwrap_or(u),
                    terminal: match outs.map(open) {
                        [true, false] => ends[0],
                        [false, true] => ends[1],
                        _ => ends[0].min(ends[1]),
                    },
                    outs,
                };
                for &member in &members {
                    let at = member as usize;
                    walked[at / 64] |= 1 << (at % 64);
                    rep_of[at].store(fragment.rep, Ordering::Relaxed);
                }
                fragments.push(fragment);
            }
            fragments
        });
        drop(links);
        let mut fragments = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            fragments.extend(part);
        }
        fragments.sort_unstable_by_key(|fragment| fragment.rep);
        // A representative's slot, then every rank's.
        let mut slot_of: Vec<u32> = rep_of.into_iter().map(AtomicU32::into_inner).collect();
        let mut slot_at = vec![0u32; n];
        for (slot, fragment) in fragments.iter().enumerate() {
            slot_at[fragment.rep as usize] = slot as u32;
        }
        for slot in slot_of.iter_mut() {
            *slot = slot_at[*slot as usize];
        }
        Blocks { slot_of, fragments }
    }

    /// Number of slots; also the slot of every rank outside the node set.
    pub(crate) fn len(&self) -> u32 {
        self.fragments.len() as u32
    }

    /// The slot that stands for `rank` in a job: its fragment's, or
    /// [`len`](Blocks::len) for a rank outside the node set.
    pub(crate) fn slot(&self, rank: u32) -> u32 {
        self.slot_of
            .get(rank as usize)
            .copied()
            .unwrap_or(self.len())
    }

    /// The representative's rank of `slot`.
    pub(crate) fn rank(&self, slot: u32) -> u32 {
        self.fragments[slot as usize].rep
    }

    /// Whether `slot` is an ambiguous vertex.
    pub(crate) fn is_ambiguous(&self, slot: u32) -> bool {
        self.fragments
            .get(slot as usize)
            .is_some_and(|fragment| fragment.outs[0] == AMBIGUOUS)
    }

    /// A fragment's sides in the contracted graph, `[side 0, side 1]`: the
    /// slot beyond each end, `None` where the end has no neighbour. `None`
    /// for an ambiguous vertex.
    pub(crate) fn sides(&self, slot: u32) -> Option<[Option<u32>; 2]> {
        let fragment = self.fragments.get(slot as usize)?;
        if fragment.outs[0] == AMBIGUOUS {
            return None;
        }
        Some(
            fragment
                .outs
                .map(|out| (out != NO_NEIGHBOR).then(|| self.slot(out))),
        )
    }

    /// The vertex a list-ranking pointer has reached once it ends, flipped,
    /// at the fragment of `slot` ([`Fragment::terminal`]).
    pub(crate) fn terminal(&self, slot: u32) -> u32 {
        self.fragments[slot as usize].terminal
    }

    /// Per rank, the outcome of its slot, on `ctx`'s pool: a job's outcome
    /// for its fragments becomes the outcome for every vertex.
    pub(crate) fn spread_on(&self, ctx: &ExecCtx, outcome: &[u32]) -> Vec<u32> {
        let (workers, n) = (ctx.workers(), self.slot_of.len());
        let mut spread = vec![0u32; n];
        ctx.pool()
            .run_per_worker(shares(&mut spread, workers), |w, share| {
                let slots = &self.slot_of[n * w / workers..];
                for (out, &slot) in share.iter_mut().zip(slots) {
                    *out = outcome[slot as usize];
                }
            });
        spread
    }
}

/// `items` cut into one contiguous share per worker, worker `w`'s starting
/// at `len · w / workers`.
fn shares<T>(items: &mut [T], workers: usize) -> Vec<&mut [T]> {
    let len = items.len();
    let mut rest = items;
    (0..workers)
        .map(|w| {
            let (share, tail) =
                std::mem::take(&mut rest).split_at_mut(len * (w + 1) / workers - len * w / workers);
            rest = tail;
            share
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::construct::{build_dbg_on, ConstructConfig};
    use ppa_seq::ReadSet;

    fn graph_of(reads: &[Vec<u8>], k: usize) -> crate::node::KmerGraph {
        let reads: ReadSet = reads
            .iter()
            .enumerate()
            .map(|(i, read)| (format!("r{i}"), read))
            .collect();
        let config = ConstructConfig {
            k,
            min_coverage: 0,
            batch_size: 8,
        };
        build_dbg_on(&ExecCtx::new(2), &reads, &config).vertices
    }

    /// `len` pseudo-random bases.
    fn genome(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 32) as usize % 4]
            })
            .collect()
    }

    /// Error-free reads of `read_len` bases every `step` bases, the last one
    /// ending at the sequence's end.
    fn tiled(seq: &[u8], read_len: usize, step: usize) -> Vec<Vec<u8>> {
        let mut reads: Vec<Vec<u8>> = (0..seq.len() - read_len)
            .step_by(step)
            .map(|at| seq[at..at + read_len].to_vec())
            .collect();
        reads.push(seq[seq.len() - read_len..].to_vec());
        reads
    }

    #[test]
    fn a_genome_contracts_to_a_sixth_of_its_unambiguous_vertices() {
        let graph = graph_of(&tiled(&genome(20_000, 0x5EED), 100, 20), 31);
        let dict = RankDict::new(graph.ids());
        let one = Blocks::build_on(&ExecCtx::new(1), &graph, &dict);
        let unambiguous =
            |blocks: &Blocks, count: u32| (0..count).filter(|&at| !blocks.is_ambiguous(at)).count();
        let vertices = (0..dict.len())
            .filter(|&rank| !one.is_ambiguous(one.slot(rank)))
            .count();
        let fragments = unambiguous(&one, one.len());
        assert!(vertices > 19_000, "{vertices} unambiguous vertices");
        assert!(
            fragments * 6 <= vertices,
            "{fragments} fragments for {vertices} unambiguous vertices"
        );
        // Every vertex is in one fragment, whose representative is its
        // smallest rank, whatever the worker count.
        for rank in 0..dict.len() {
            assert!(one.rank(one.slot(rank)) <= rank, "rank {rank}");
        }
        for workers in 2..=3 {
            let other = Blocks::build_on(&ExecCtx::new(workers), &graph, &dict);
            assert_eq!(other.slot_of, one.slot_of, "{workers} workers");
            assert_eq!(other.fragments, one.fragments, "{workers} workers");
        }
    }

    #[test]
    fn a_cycle_inside_one_block_points_at_itself() {
        // A 20-base unit read round and round: its 20 rotations are the
        // 31-mers, and each window holds every m-mer of the circle, so all
        // share one minimizer.
        let unit = genome(20, 3);
        let circle: Vec<u8> = unit.iter().cycle().take(80).copied().collect();
        let graph = graph_of(&[circle], 31);
        assert_eq!(graph.len(), 20);
        let dict = RankDict::new(graph.ids());
        let blocks = Blocks::build_on(&ExecCtx::new(2), &graph, &dict);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.sides(0), Some([Some(0), Some(0)]));
        assert!((0..20).all(|rank| blocks.slot(rank) == 0));
        assert_eq!(blocks.slot(20), 1, "outside the node set");
    }
}
