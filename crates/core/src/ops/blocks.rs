//! Minimizer blocks: the chain fragments contig labeling contracts before
//! its BSP job, after Blogel's block-centric model (Yan, Cheng, Lu and Ng,
//! *PVLDB* 2014): serial work inside a block, supersteps between blocks.
//!
//! Ranks follow k-mer value, so every labeling message along a chain lands
//! on a random rank. Consecutive k-mers of a chain share their minimizer
//! ([`ppa_seq::kmer::minimizer_rank`], the order construct's super-k-mers
//! are cut by) in runs of about (k − m + 2) / 2. A **block** is the set of
//! vertices with one key: an unambiguous k-mer's minimizer; a contig, or an
//! ambiguous vertex, is a block of its own. A **fragment** is a maximal run
//! of unambiguous vertices of one block joined by sole edges, each naming
//! the other; its **representative** is its smallest rank, and an ambiguous
//! vertex is a fragment of its own. (A self-looped k-mer joins nothing: a
//! loop takes two slots, so an unambiguous one's sole edges both lead back
//! to itself.)
//!
//! [`Blocks::build_on`] gathers before it chases. One pool pass over rank
//! shares computes every vertex's key (eight minimizers at a time) and
//! ambiguity, looking nothing up, and deals the `(key, rank)` pairs to the
//! owners of their keys, picked by the high bits of a multiply-shift so
//! that the shares are even. An owner takes its keys a part at a time: it
//! reads the members in ascending rank, sorts them by key, and contracts
//! each key group on that copy, matching neighbour IDs among the group's
//! IDs. The rank dictionary serves only the fragments' ends, in one batch
//! per worker.
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

use crate::ids::NULL_ID;
use crate::node::{GraphNode, NodeSource};
use crate::ranks::{RankDict, AMBIGUOUS, RANK_FLIP};
use crate::stats::{Phase, PhaseClock};
use ppa_pregel::radix::sort_by_high_half;
use ppa_pregel::ExecCtx;
use ppa_seq::kmer::minimizer_ranks;
use ppa_seq::Kmer;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A side without a neighbour. Ranks, the absent one included, stay below
/// it (`ranks::fits_rank_space`).
const NO_NEIGHBOR: u32 = u32::MAX - 1;

/// How many parts a worker contracts its keys in, one after the other, so
/// that its scratch holds a part, not its share.
const PARTS_PER_WORKER: usize = 64;

/// Which of `parts` even shares of the key space holds `key`: the high bits
/// of a multiply-shift of the key's hash, an odd multiple, which depend on
/// every bit of the key. With `parts` the worker count, the key's owner.
fn part_of(key: u32, parts: usize) -> usize {
    ((u64::from(key.wrapping_mul(0x9E37_79B1)) * parts as u64) >> 32) as usize
}

/// A vertex of the contracted graph: a contracted run of one chain, or an
/// ambiguous vertex on its own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// A member of a key group as contraction reads it.
#[derive(Clone, Copy)]
struct Member {
    id: u64,
    /// Its sole neighbours' IDs, `[left, right]`, [`NULL_ID`] on a side
    /// without one and on both sides of an ambiguous vertex, so that no
    /// member joins it.
    sides: [u64; 2],
    rank: u32,
    ambiguous: bool,
}

impl Member {
    fn of(rank: u32, node: &impl GraphNode) -> Member {
        let sides = node.sole_neighbors();
        let (id, ambiguous) = (node.id(), sides.is_none());
        let sides = sides.unwrap_or_default().map(|n| n.unwrap_or(NULL_ID));
        Member {
            id,
            sides,
            rank,
            ambiguous,
        }
    }
}

/// The sole edge on `side` of member `u` joins its fragment to the member
/// of `group` that edge names, if that member names `u` on exactly one
/// side: returns it and its other side, to leave it by. (A self-looped
/// member, or two naming each other on both sides, names back on both.)
fn step(group: &[Member], u: usize, side: usize) -> Option<(usize, usize)> {
    let here = &group[u];
    let v = group
        .binary_search_by_key(&here.sides[side], |m| m.id)
        .ok()?;
    match group[v].sides.map(|n| n == here.id) {
        [true, false] => Some((v, 1)),
        [false, true] => Some((v, 0)),
        _ => None,
    }
}

/// One worker's contraction: its scratch and the fragments it has found.
#[derive(Default)]
struct Contraction {
    /// The members of the part being contracted, in ascending rank, and
    /// their fragments' representatives, at the same positions.
    members: Vec<Member>,
    rep_at: Vec<u32>,
    /// The key group being contracted, copied out of `members`.
    group: Vec<Member>,
    walked: Vec<bool>,
    fragment: Vec<usize>,
    fragments: Vec<Fragment>,
    /// Per fragment, the ranks of its two ends.
    ends: Vec<[u32; 2]>,
    /// `(2 × fragment + side, ID)` of every fragment end that has a
    /// neighbour, to look up in the dictionary in one batch.
    lookups: Vec<(u32, u64)>,
}

impl Contraction {
    /// Contracts a key group, given as its `key << 32 | position` pairs
    /// in ascending position and so ascending rank, into its fragments,
    /// each walked from its smallest member. The ranks beyond a fragment's
    /// ends are left to [`finish`](Contraction::finish).
    fn contract(&mut self, pairs: &[u64]) {
        self.group.clear();
        let members = pairs.iter().map(|&pair| self.members[pair as u32 as usize]);
        self.group.extend(members);
        let group = &self.group;
        self.walked.clear();
        self.walked.resize(group.len(), false);
        for u in 0..group.len() {
            if self.walked[u] {
                continue;
            }
            self.fragment.clear();
            self.fragment.push(u);
            let (mut ends, mut leaves, mut cycle) = ([u; 2], [0, 1], false);
            if !group[u].ambiguous {
                'sides: for side in 0..2 {
                    let (mut end, mut leave) = (u, side);
                    while let Some((v, next)) = step(group, end, leave) {
                        if v == u {
                            cycle = true;
                            break 'sides;
                        }
                        self.fragment.push(v);
                        (end, leave) = (v, next);
                    }
                    (ends[side], leaves[side]) = (end, leave);
                }
            }
            let rank = |at: usize| group[at].rank;
            let outs = match (group[u].ambiguous, cycle) {
                (true, _) => [AMBIGUOUS; 2],
                (false, true) => [rank(u); 2],
                (false, false) => [0, 1].map(|side| {
                    let id = group[ends[side]].sides[leaves[side]];
                    if id != NULL_ID {
                        let at = 2 * self.fragments.len() + side;
                        self.lookups.push((at as u32, id));
                    }
                    NO_NEIGHBOR
                }),
            };
            let rep = rank(u);
            for &at in &self.fragment {
                self.walked[at] = true;
                self.rep_at[pairs[at] as u32 as usize] = rep;
            }
            self.ends.push(ends.map(rank));
            self.fragments.push(Fragment {
                rep,
                terminal: rep,
                outs,
            });
        }
    }

    /// Looks up the ranks beyond the fragment ends, one independent lookup
    /// after another, then sets every fragment's terminal, which depends on
    /// them and on which vertices are `ambiguous` (one bit per rank).
    /// Returns the fragments.
    fn finish(mut self, dict: &RankDict<'_>, ambiguous: &[u64]) -> Vec<Fragment> {
        for &(at, id) in &self.lookups {
            self.fragments[at as usize / 2].outs[at as usize % 2] = dict.rank(id);
        }
        let open = |out: u32| {
            out == NO_NEIGHBOR
                || (ambiguous.get(out as usize / 64))
                    .is_some_and(|word| word >> (out % 64) & 1 == 1)
        };
        for (fragment, ends) in self.fragments.iter_mut().zip(&self.ends) {
            fragment.terminal = match fragment.outs.map(open) {
                [true, false] => ends[0],
                [false, true] => ends[1],
                _ => ends[0].min(ends[1]),
            };
        }
        self.fragments
    }
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
    /// own ID column), on `ctx`'s pool (see the module docs): a pass over
    /// contiguous shares of the nodes computes the keys, lapped on `clock`
    /// as [`Phase::Keys`]; the owners sort and contract their key groups
    /// and the slots are numbered, lapped as [`Phase::Contract`].
    pub(crate) fn build_on<S: NodeSource + ?Sized>(
        ctx: &ExecCtx,
        nodes: &S,
        dict: &RankDict<'_>,
        clock: &mut PhaseClock,
    ) -> Blocks {
        let (workers, n) = (ctx.workers(), nodes.len());
        let (words, parts) = (n.div_ceil(64), workers * PARTS_PER_WORKER);
        let ambiguous: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
        // Per rank, its key. An unambiguous k-mer's is the low 31 bits of
        // its minimizer's rank, which tell the at most 22-bit m-mers apart;
        // any other vertex's is its own rank with bit 31 set. Each worker
        // then deals the `key << 32 | rank` pairs of its share into the
        // parts their keys fall in, in rank order.
        let mut keys = vec![0u32; n];
        let dealt = ctx
            .pool()
            .run_per_worker(shares(&mut keys, workers), |w, share| {
                let base = n * w / workers;
                for (first, chunk) in (base..).step_by(8).zip(share.chunks_mut(8)) {
                    let mut kmers = [None; 8];
                    for (lane, rank) in (first..first + chunk.len()).enumerate() {
                        let node = nodes.node(rank);
                        if node.is_ambiguous() {
                            ambiguous[rank / 64].fetch_or(1 << (rank % 64), Ordering::Relaxed);
                        } else {
                            kmers[lane] = node.kmer();
                        }
                    }
                    let k = kmers.iter().flatten().next().map_or(1, Kmer::k);
                    let minimizers = minimizer_ranks(kmers.map(|m| m.map_or(0, |m| m.packed())), k);
                    for (lane, (rank, key)) in (first..).zip(chunk).enumerate() {
                        *key = match kmers[lane] {
                            Some(_) => minimizers[lane] as u32 & !RANK_FLIP,
                            None => rank as u32 | RANK_FLIP,
                        };
                    }
                }
                let mut counts = vec![0usize; parts];
                for &key in share.iter() {
                    counts[part_of(key, parts)] += 1;
                }
                let mut dealt: Vec<Vec<u64>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                for (rank, &key) in (base..).zip(share.iter()) {
                    dealt[part_of(key, parts)].push(u64::from(key) << 32 | rank as u64);
                }
                dealt
            });
        drop(keys);
        let ambiguous: Vec<u64> = ambiguous.into_iter().map(AtomicU64::into_inner).collect();
        clock.lap(Phase::Keys);

        // Worker `w` owns parts `w · PARTS_PER_WORKER..`, each dealt by
        // every worker; it frees a part's pairs once it has read them.
        let mut owned = vec![vec![Vec::new(); PARTS_PER_WORKER]; workers];
        for (part, pairs) in dealt
            .into_iter()
            .flat_map(|dealer| dealer.into_iter().enumerate())
        {
            owned[part / PARTS_PER_WORKER][part % PARTS_PER_WORKER].push(pairs);
        }
        let rep_of: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let found = ctx.pool().run_per_worker(owned, |_, parts| {
            let mut contraction = Contraction::default();
            let (mut pairs, mut scratch, mut views) = (Vec::new(), Vec::new(), Vec::new());
            for dealt in parts {
                pairs.clear();
                for dealer in dealt {
                    pairs.extend_from_slice(&dealer);
                }
                // The members in ascending rank, as dealt: their views in one
                // loop of loads, then their sole neighbours decoded.
                views.clear();
                views.extend(pairs.iter().map(|&pair| nodes.node(pair as u32 as usize)));
                contraction.members.clear();
                let ranks = pairs.iter().map(|&pair| pair as u32);
                let members = ranks.zip(&views).map(|(rank, node)| Member::of(rank, node));
                contraction.members.extend(members);
                contraction.rep_at.resize(pairs.len(), 0);
                // Then the key groups, each pair naming its member's position.
                for (at, pair) in pairs.iter_mut().enumerate() {
                    *pair = *pair >> 32 << 32 | at as u64;
                }
                sort_by_high_half(&mut pairs, &mut scratch);
                for group in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
                    contraction.contract(group);
                }
                for (member, &rep) in contraction.members.iter().zip(&contraction.rep_at) {
                    rep_of[member.rank as usize].store(rep, Ordering::Relaxed);
                }
            }
            contraction.finish(dict, &ambiguous)
        });

        // A representative's slot is the number of representatives below it.
        let mut reps = vec![0u64; words];
        for fragment in found.iter().flatten() {
            reps[fragment.rep as usize / 64] |= 1 << (fragment.rep % 64);
        }
        let below: Vec<u32> = (reps.iter())
            .scan(0, |total, word| {
                Some(std::mem::replace(total, *total + word.count_ones()))
            })
            .collect();
        let slot = |rep: u32| {
            let (word, bit) = (rep as usize / 64, rep % 64);
            below[word] + (reps[word] & ((1 << bit) - 1)).count_ones()
        };
        let mut fragments = vec![Fragment::default(); found.iter().map(Vec::len).sum()];
        for fragment in found.into_iter().flatten() {
            fragments[slot(fragment.rep) as usize] = fragment;
        }
        let mut slot_of: Vec<u32> = rep_of.into_iter().map(AtomicU32::into_inner).collect();
        ctx.pool()
            .run_per_worker(shares(&mut slot_of, workers), |_, share| {
                for at in share {
                    *at = slot(*at);
                }
            });
        clock.lap(Phase::Contract);
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
pub(crate) mod tests {
    use super::*;
    use crate::node::{AsmNode, KmerGraph, MixedNodes};
    use crate::ops::bubble::BubbleConfig;
    use crate::ops::construct::{build_dbg_on, ConstructConfig};
    use crate::ops::merge::MergeConfig;
    use crate::ops::tip::TipConfig;
    use crate::pipeline::{
        Construct, FilterBubbles, GraphState, Label, Merge, Pipeline, RemoveTips,
    };
    use crate::polarity::Side;
    use crate::workflow::LabelingAlgorithm;
    use ppa_seq::kmer::minimizer_rank;
    use ppa_seq::ReadSet;

    pub(crate) fn graph_of(reads: &[Vec<u8>], k: usize) -> KmerGraph {
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
    pub(crate) fn genome(len: usize, seed: u64) -> Vec<u8> {
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

    /// A 20-base unit read round and round: its 20 rotations are the
    /// 31-mers, and each window holds every m-mer of the circle, so all
    /// share one minimizer.
    fn circle_in_one_block() -> KmerGraph {
        let unit = genome(20, 3);
        let circle: Vec<u8> = unit.iter().cycle().take(80).copied().collect();
        graph_of(&[circle], 31)
    }

    /// The k = 31 graphs contraction is pinned on, by name: a 20 kb genome,
    /// cycles inside one block and across blocks, self-looped k-mers, and a
    /// stretch between two forks.
    pub(crate) fn kmer_cases() -> Vec<(&'static str, KmerGraph)> {
        let unit = genome(400, 7);
        let circle: Vec<u8> = unit.iter().cycle().take(460).copied().collect();
        // Poly-A inside a sequence is an ambiguous k-mer whose loop sits
        // beside its neighbours; a read of C alone is a k-mer whose sole
        // edges both lead back to itself; a read of AC repeats is two
        // k-mers each naming the other on both sides.
        let looped = [genome(60, 11), vec![b'A'; 45], genome(60, 12)].concat();
        // Two stretches shared by two sequences each, one long and one
        // short enough to be a single fragment between its two forks.
        let forks: Vec<Vec<u8>> = [(200, 13), (36, 18)]
            .into_iter()
            .flat_map(|(len, seed)| {
                let middle = genome(len, seed);
                [1, 2].map(|flank| {
                    let flanks = [genome(50, seed * 10 + flank), genome(50, seed * 20 + flank)];
                    [&flanks[0][..], &middle, &flanks[1]].concat()
                })
            })
            .collect();
        vec![
            (
                "a 20 kb genome",
                graph_of(&tiled(&genome(20_000, 0x5EED), 100, 20), 31),
            ),
            ("a cycle inside one block", circle_in_one_block()),
            (
                "a cycle across blocks",
                graph_of(&tiled(&circle, 100, 10), 31),
            ),
            (
                "self-looped k-mers",
                graph_of(&[looped, vec![b'C'; 40], b"AC".repeat(40)], 31),
            ),
            ("a fragment between forks", graph_of(&forks, 31)),
        ]
    }

    /// Round two's node set as it lies — the ambiguous k-mers, then the
    /// contigs — after one correction round over 1 %-error reads of a 10 kb
    /// genome.
    pub(crate) fn round_two() -> (Vec<AsmNode>, Vec<AsmNode>) {
        let genome = ppa_readsim::GenomeConfig {
            length: 10_000,
            seed: 8,
            ..Default::default()
        }
        .generate();
        let reads = ppa_readsim::ReadSimConfig {
            read_length: 100,
            coverage: 20.0,
            substitution_rate: 0.01,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: 9,
        }
        .simulate(&genome);
        let mut state = GraphState::new(&reads);
        let merge = MergeConfig::default();
        Pipeline::new()
            .then(Construct::new(ConstructConfig {
                k: 31,
                min_coverage: 1,
                batch_size: 64,
            }))
            .then(Label::new(LabelingAlgorithm::ListRanking))
            .then(Merge::new(merge.clone()))
            .then(FilterBubbles::new(BubbleConfig {
                max_edit_distance: 5,
            }))
            .then(RemoveTips::new(TipConfig {
                k: 31,
                tip_length_threshold: merge.tip_length_threshold,
            }))
            .try_run(&mut state, &ExecCtx::new(2))
            .unwrap();
        (state.ambiguous_kmers, state.contigs)
    }

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

    /// The reference contraction, the straightforward walk: one column of
    /// every vertex's sole neighbours' ranks and key (a self-looped k-mer's
    /// is its own rank with bit 31 set), then a walk from every unwalked
    /// rank in ascending order along that column, each step a lookup.
    /// Returns `slot_of` and the fragments in slot order.
    fn reference<S: NodeSource + ?Sized>(
        nodes: &S,
        dict: &RankDict<'_>,
    ) -> (Vec<u32>, Vec<Fragment>) {
        let n = nodes.len();
        let links: Vec<[u32; 3]> = (0..n)
            .map(|rank| {
                let node = nodes.node(rank);
                let own = rank as u32;
                let [left, right] = sole_ranks(&node, dict);
                let key = match node.kmer() {
                    Some(kmer) if left != own && right != own => {
                        minimizer_rank(kmer.packed(), kmer.k()) as u32 & !RANK_FLIP
                    }
                    _ => own | RANK_FLIP,
                };
                [left, right, key]
            })
            .collect();
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
        let mut rep_of: Vec<u32> = (0..n as u32).collect();
        let mut walked = vec![false; n];
        let (mut fragments, mut members) = (Vec::new(), Vec::new());
        for u in 0..n as u32 {
            if walked[u as usize] {
                continue;
            }
            let (mut ends, mut outs) = ([u, u], [links[u as usize][0], links[u as usize][1]]);
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
                walked[member as usize] = true;
                rep_of[member as usize] = fragment.rep;
            }
            fragments.push(fragment);
        }
        fragments.sort_unstable_by_key(|fragment| fragment.rep);
        let mut slot_at = vec![0u32; n];
        for (slot, fragment) in fragments.iter().enumerate() {
            slot_at[fragment.rep as usize] = slot as u32;
        }
        let slot_of = rep_of.iter().map(|&rep| slot_at[rep as usize]).collect();
        (slot_of, fragments)
    }

    /// Contracts `nodes` at 1–4 workers, checks every result against the
    /// reference and returns the last.
    fn pinned<S: NodeSource + ?Sized>(nodes: &S, what: &str) -> Blocks {
        let dict = RankDict::new(nodes.ids());
        let (slot_of, fragments) = reference(nodes, &dict);
        let mut last = None;
        for workers in 1..=4 {
            let ctx = ExecCtx::new(workers);
            let blocks = Blocks::build_on(&ctx, nodes, &dict, &mut PhaseClock::start());
            assert_eq!(blocks.slot_of, slot_of, "{what}: {workers} workers");
            assert_eq!(blocks.fragments, fragments, "{what}: {workers} workers");
            last = Some(blocks);
        }
        last.expect("four contractions")
    }

    #[test]
    fn contraction_equals_the_reference_walk_at_every_worker_count() {
        for (what, graph) in kmer_cases() {
            let blocks = pinned(&graph, what);
            let fragments = blocks.fragments.len();
            match what {
                "a cycle across blocks" => {
                    assert!(fragments > 10, "{what}: {fragments} fragments");
                    assert!((0..blocks.len()).all(|slot| !blocks.is_ambiguous(slot)));
                }
                "self-looped k-mers" => {
                    // The read of C alone: one vertex, pointing at itself.
                    let dict = RankDict::new(graph.ids());
                    let c = dict.rank(
                        ppa_seq::Kmer::from_str_exact(&"C".repeat(31))
                            .unwrap()
                            .packed(),
                    );
                    let slot = blocks.slot(c);
                    assert_eq!(blocks.rank(slot), c);
                    assert_eq!(blocks.sides(slot), Some([Some(slot), Some(slot)]));
                    assert!((0..dict.len()).any(|rank| blocks.is_ambiguous(blocks.slot(rank))));
                }
                "a fragment between forks" => {
                    // The short middle is one fragment between two forks.
                    let between = (0..blocks.len())
                        .filter_map(|slot| blocks.sides(slot))
                        .filter(|sides| {
                            sides
                                .iter()
                                .all(|side| side.is_some_and(|s| blocks.is_ambiguous(s)))
                        })
                        .count();
                    assert!(between >= 1, "{what}");
                }
                _ => {}
            }
        }
        let (kmers, contigs) = round_two();
        assert!(!kmers.is_empty() && !contigs.is_empty());
        let mixed = MixedNodes {
            kmers: &kmers,
            contigs: &contigs,
        };
        pinned(&mixed, "round two");
        // Without its first k-mer, whose neighbours then name an absent ID.
        let absent = MixedNodes {
            kmers: &kmers[1..],
            contigs: &contigs,
        };
        pinned(&absent, "round two with an absent neighbour");
    }

    #[test]
    fn every_worker_owns_an_even_share_of_the_vertices() {
        let graph = &kmer_cases()[0].1;
        // The keys as the first pass makes them.
        let keys: Vec<u32> = (0..graph.len())
            .map(|rank| {
                let node = graph.node(rank);
                match node.kmer() {
                    Some(kmer) if !node.is_ambiguous() => {
                        minimizer_rank(kmer.packed(), kmer.k()) as u32 & !RANK_FLIP
                    }
                    _ => rank as u32 | RANK_FLIP,
                }
            })
            .collect();
        for workers in 2..=4 {
            let mut shares = vec![0usize; workers];
            for &key in &keys {
                shares[part_of(key, workers)] += 1;
            }
            let mean = keys.len() as f64 / workers as f64;
            for (w, &share) in shares.iter().enumerate() {
                let off = (share as f64 - mean).abs() / mean;
                assert!(
                    off <= 0.10,
                    "{workers} workers: worker {w} owns {share}, mean {mean}"
                );
            }
        }
    }

    #[test]
    fn a_genome_contracts_to_a_sixth_of_its_unambiguous_vertices() {
        let graph = &kmer_cases()[0].1;
        let dict = RankDict::new(graph.ids());
        let one = Blocks::build_on(&ExecCtx::new(1), graph, &dict, &mut PhaseClock::start());
        let vertices = (0..dict.len())
            .filter(|&rank| !one.is_ambiguous(one.slot(rank)))
            .count();
        let fragments = (0..one.len()).filter(|&at| !one.is_ambiguous(at)).count();
        assert!(vertices > 19_000, "{vertices} unambiguous vertices");
        assert!(
            fragments * 6 <= vertices,
            "{fragments} fragments for {vertices} unambiguous vertices"
        );
        // Every vertex is in one fragment, whose representative is its
        // smallest rank.
        for rank in 0..dict.len() {
            assert!(one.rank(one.slot(rank)) <= rank, "rank {rank}");
        }
    }

    #[test]
    fn a_cycle_inside_one_block_points_at_itself() {
        let graph = circle_in_one_block();
        assert_eq!(graph.len(), 20);
        let dict = RankDict::new(graph.ids());
        let blocks = Blocks::build_on(&ExecCtx::new(2), &graph, &dict, &mut PhaseClock::start());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.sides(0), Some([Some(0), Some(0)]));
        assert!((0..20).all(|rank| blocks.slot(rank) == 0));
        assert_eq!(blocks.slot(20), 1, "outside the node set");
    }
}
