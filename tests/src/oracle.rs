//! A deliberately naive reference of operations ①②③ (Section IV-B), to
//! check the engine-built operations against something that shares none of
//! their code.
//!
//! Single-threaded, `std` only, strings and plain maps: no Pregel job, no
//! rank space, no packed adjacency, no scanner. Of the assembler it reads an
//! [`AsmNode`]'s public fields and calls [`Edge::side`] (on the edge as
//! stored, and turned round to find the neighbour's side), nothing else.
//!
//! - **① [`construct`].** Every window of k+1 bases that is `ACGT` only (after
//!   upper-casing) is counted under the smaller of itself and its reverse
//!   complement; those seen more than θ times are kept. A kept (k+1)-mer
//!   joins its first k bases to its last k: the edge leaves the first k-mer
//!   on its right as read and enters the last on its left as read, and a
//!   k-mer stored as its reverse complement sees that side mirrored.
//! - **② [`label`].** A node with more than one edge on a side is
//!   ambiguous. The others fall into maximal unambiguous chains. A chain
//!   whose two ends are a missing edge or an ambiguous neighbour is a path,
//!   labelled by list ranking with its smaller end ID; a cycle, or a chain
//!   that runs into an ID outside the node set, falls back to its smallest
//!   ID. S-V labels every chain with its smallest ID.
//! - **③ [`merge`].** Each label group is read from one end (a cycle from
//!   its smallest ID, forwards), each next member in the orientation its
//!   entry side gives, and stitched with a k−1 overlap. Its coverage is the
//!   smallest coverage of the edges it stitches and of its contig members; a
//!   lone k-mer keeps its own (its largest edge coverage). A group that is
//!   not a cycle, has an end without a neighbour and is no longer than the
//!   tip-length threshold is dropped.

use crate::reverse_complement;
use ppa_assembler::{AsmNode, Edge, NodeSeq, Side, NULL_ID};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The vertex ID of a canonical k-mer (Figure 7a): two bits a base, `A` = 0,
/// `C` = 1, `G` = 2, `T` = 3, the first base highest.
pub fn kmer_id(kmer: &[u8]) -> u64 {
    kmer.iter().fold(0, |id, &base| {
        let code = match base {
            b'A' => 0,
            b'C' => 1,
            b'G' => 2,
            _ => 3,
        };
        id << 2 | code
    })
}

/// The smaller of `seq` and its reverse complement, and whether that is the
/// reverse complement.
pub fn canonical(seq: &[u8]) -> (Vec<u8>, bool) {
    let rc = reverse_complement(seq);
    if seq <= &rc[..] {
        (seq.to_vec(), false)
    } else {
        (rc, true)
    }
}

/// One edge as the node that stores it sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The neighbour's ID.
    pub neighbor: u64,
    /// The side of this node the edge attaches to.
    pub side: Side,
    /// The side of the neighbour the edge attaches to.
    pub neighbor_side: Side,
    /// The number of reads that contributed the edge's (k+1)-mer.
    pub coverage: u32,
}

/// A node of the oracle's graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The vertex ID.
    pub id: u64,
    /// The sequence the ID stands for: the canonical k-mer, or the contig's
    /// forward strand.
    pub seq: Vec<u8>,
    /// A k-mer's largest edge coverage, or a contig's own coverage.
    pub coverage: u32,
    /// Whether the node is a contig.
    pub is_contig: bool,
    /// The edges to real neighbours (a dead-end marker is no edge).
    pub links: Vec<Link>,
}

impl Node {
    /// The oracle's reading of an assembler node.
    pub fn from_asm(node: &AsmNode) -> Node {
        let (seq, is_contig) = match &node.seq {
            NodeSeq::Kmer(kmer) => (kmer.to_string(), false),
            NodeSeq::Contig(seq) => (seq.to_ascii(), true),
        };
        let links = node
            .edges
            .iter()
            .filter(|e| e.neighbor != NULL_ID)
            .map(|e| Link {
                neighbor: e.neighbor,
                side: e.side(),
                // The neighbour stores the same edge in the other direction.
                neighbor_side: Edge {
                    direction: e.direction.reversed(),
                    ..*e
                }
                .side(),
                coverage: e.coverage,
            })
            .collect();
        Node {
            id: node.id,
            seq: seq.into_bytes(),
            coverage: node.coverage,
            is_contig,
            links,
        }
    }

    /// The node's edges on one side.
    fn links_on(&self, side: Side) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(move |l| l.side == side)
    }

    /// The one edge on a side of an unambiguous node, if it has one.
    fn link_on(&self, side: Side) -> Option<&Link> {
        self.links_on(side).next()
    }

    fn is_ambiguous(&self) -> bool {
        [Side::Left, Side::Right]
            .into_iter()
            .any(|side| self.links_on(side).count() > 1)
    }

    /// The sequence read forwards, or as its reverse complement.
    fn read(&self, forwards: bool) -> Vec<u8> {
        if forwards {
            self.seq.clone()
        } else {
            reverse_complement(&self.seq)
        }
    }

    /// The edges as a sortable multiset of (neighbour, own side, neighbour
    /// side, coverage), sides as `true` for right.
    pub fn link_multiset(&self) -> Vec<(u64, bool, bool, u32)> {
        let mut links: Vec<_> = self
            .links
            .iter()
            .map(|l| {
                let right = |side| side == Side::Right;
                (
                    l.neighbor,
                    right(l.side),
                    right(l.neighbor_side),
                    l.coverage,
                )
            })
            .collect();
        links.sort_unstable();
        links
    }
}

// ---------------------------------------------------------------------------
// ① Construct
// ---------------------------------------------------------------------------

/// What ① leaves.
pub struct Construct {
    /// Every canonical (k+1)-mer seen, with its count, before θ.
    pub counts: HashMap<Vec<u8>, u64>,
    /// The k-mer vertices, by ID.
    pub nodes: Vec<Node>,
}

impl Construct {
    /// The (k+1)-mers seen more than θ times, by ID, with their counts.
    pub fn kept(&self, theta: u32) -> Vec<(u64, u32)> {
        let mut kept: Vec<(u64, u32)> = self
            .counts
            .iter()
            .filter(|&(_, &count)| count > u64::from(theta))
            .map(|(kmer, &count)| (kmer_id(kmer), count as u32))
            .collect();
        kept.sort_unstable();
        kept
    }
}

/// Operation ①: the de Bruijn graph of `reads` for k-mers of `k` bases,
/// keeping the (k+1)-mers seen more than `theta` times.
pub fn construct<'r>(reads: impl IntoIterator<Item = &'r [u8]>, k: usize, theta: u32) -> Construct {
    let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
    for read in reads {
        let read = read.to_ascii_uppercase();
        for window in read.windows(k + 1) {
            if window.iter().all(|base| b"ACGT".contains(base)) {
                *counts.entry(canonical(window).0).or_insert(0) += 1;
            }
        }
    }

    let mut nodes: BTreeMap<u64, Node> = BTreeMap::new();
    for (kplus1, &count) in &counts {
        if count <= u64::from(theta) {
            continue;
        }
        let (first, first_reversed) = canonical(&kplus1[..k]);
        let (last, last_reversed) = canonical(&kplus1[1..]);
        let first_side = if first_reversed {
            Side::Left
        } else {
            Side::Right
        };
        let last_side = if last_reversed {
            Side::Right
        } else {
            Side::Left
        };
        let coverage = count as u32;
        for (kmer, side, other, other_side) in [
            (&first, first_side, &last, last_side),
            (&last, last_side, &first, first_side),
        ] {
            let node = nodes.entry(kmer_id(kmer)).or_insert_with(|| Node {
                id: kmer_id(kmer),
                seq: kmer.clone(),
                coverage: 0,
                is_contig: false,
                links: Vec::new(),
            });
            node.links.push(Link {
                neighbor: kmer_id(other),
                side,
                neighbor_side: other_side,
                coverage,
            });
        }
    }
    let nodes = nodes
        .into_values()
        .map(|mut node| {
            node.coverage = node.links.iter().map(|l| l.coverage).max().unwrap_or(0);
            node
        })
        .collect();
    Construct { counts, nodes }
}

// ---------------------------------------------------------------------------
// ② Labels
// ---------------------------------------------------------------------------

/// How a maximal unambiguous chain ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// Two ends, each a missing edge or an ambiguous neighbour.
    Path,
    /// No end at all.
    Cycle,
    /// An edge to an ID outside the node set.
    Open,
}

/// One maximal unambiguous chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The member IDs, ascending.
    pub members: Vec<u64>,
    /// How it ends.
    pub kind: ChainKind,
    /// The members with a side that ends the chain, ascending.
    pub ends: Vec<u64>,
}

/// What ② leaves, for both labelings.
pub struct Labels {
    /// List ranking's label of every unambiguous vertex.
    pub lr: BTreeMap<u64, u64>,
    /// S-V's label of every unambiguous vertex.
    pub sv: BTreeMap<u64, u64>,
    /// The ambiguous vertices.
    pub ambiguous: BTreeSet<u64>,
    /// The chains.
    pub chains: Vec<Chain>,
}

impl Labels {
    /// Whether list ranking needs its cycle fallback: some chain is not a
    /// path.
    pub fn used_cycle_fallback(&self) -> bool {
        self.chains.iter().any(|c| c.kind != ChainKind::Path)
    }

    /// The vertex count of the longest path (0 without one).
    pub fn longest_path(&self) -> usize {
        self.chains
            .iter()
            .filter(|c| c.kind == ChainKind::Path)
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0)
    }
}

/// Operation ②: classifies the nodes and labels their maximal unambiguous
/// chains.
pub fn label(nodes: &[Node]) -> Labels {
    let by_id: HashMap<u64, &Node> = nodes.iter().map(|n| (n.id, n)).collect();
    let ambiguous: BTreeSet<u64> = nodes
        .iter()
        .filter(|n| n.is_ambiguous())
        .map(|n| n.id)
        .collect();

    let mut chains = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for start in nodes.iter().map(|n| n.id) {
        if ambiguous.contains(&start) || !seen.insert(start) {
            continue;
        }
        // Walk the chain outwards from `start`, one member at a time.
        let (mut members, mut ends, mut open) = (vec![], vec![], false);
        let mut todo = vec![start];
        while let Some(id) = todo.pop() {
            members.push(id);
            for side in [Side::Left, Side::Right] {
                match by_id[&id].link_on(side).map(|l| l.neighbor) {
                    None => ends.push(id),
                    Some(next) if ambiguous.contains(&next) => ends.push(id),
                    Some(next) if !by_id.contains_key(&next) => open = true,
                    Some(next) => {
                        if seen.insert(next) {
                            todo.push(next);
                        }
                    }
                }
            }
        }
        members.sort_unstable();
        ends.sort_unstable();
        ends.dedup();
        let kind = if open {
            ChainKind::Open
        } else if ends.is_empty() {
            ChainKind::Cycle
        } else {
            ChainKind::Path
        };
        chains.push(Chain {
            members,
            kind,
            ends,
        });
    }

    let (mut lr, mut sv) = (BTreeMap::new(), BTreeMap::new());
    for chain in &chains {
        let smallest = chain.members[0];
        let lr_label = match chain.kind {
            ChainKind::Path => chain.ends[0],
            ChainKind::Cycle | ChainKind::Open => smallest,
        };
        for &id in &chain.members {
            lr.insert(id, lr_label);
            sv.insert(id, smallest);
        }
    }
    Labels {
        lr,
        sv,
        ambiguous,
        chains,
    }
}

// ---------------------------------------------------------------------------
// ③ Merge
// ---------------------------------------------------------------------------

/// What ③ leaves.
#[derive(Debug)]
pub struct Merged {
    /// Every contig's sequence and coverage.
    pub contigs: Vec<(Vec<u8>, u32)>,
    /// The groups dropped as short dangling tips.
    pub dropped_tips: usize,
    /// The label groups.
    pub groups: usize,
}

/// Operation ③: stitches every label group of `labels` into a contig,
/// dropping dangling groups of at most `tip_length_threshold` bases.
pub fn merge(
    nodes: &[Node],
    labels: &BTreeMap<u64, u64>,
    k: usize,
    tip_length_threshold: usize,
) -> Merged {
    let by_id: HashMap<u64, &Node> = nodes.iter().map(|n| (n.id, n)).collect();
    let mut groups: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (&id, &label) in labels {
        groups.entry(label).or_default().insert(id);
    }

    let mut merged = Merged {
        contigs: Vec::new(),
        dropped_tips: 0,
        groups: groups.len(),
    };
    for members in groups.values() {
        let leaves_group = |node: &Node, side| {
            node.link_on(side)
                .is_none_or(|l| !members.contains(&l.neighbor))
        };
        // Start at an end, entering on its outer side; a cycle has none.
        let end = members.iter().find_map(|id| {
            let node = by_id[id];
            [Side::Left, Side::Right]
                .into_iter()
                .find(|&side| leaves_group(node, side))
                .map(|side| (node, side))
        });
        let smallest = members.first().expect("a group has members");
        let (start, entry) = end.unwrap_or((by_id[smallest], Side::Left));

        let mut forwards = entry == Side::Left;
        let mut seq = start.read(forwards);
        let mut coverage = start.is_contig.then_some(start.coverage);
        let mut dangling = start.link_on(entry).is_none();
        let mut visited = HashSet::from([start.id]);
        let mut current = start;
        let mut cycle = false;
        loop {
            let exit = if forwards { Side::Right } else { Side::Left };
            let Some(link) = current.link_on(exit) else {
                dangling = true;
                break;
            };
            if !members.contains(&link.neighbor) {
                break;
            }
            if !visited.insert(link.neighbor) {
                cycle = true;
                break;
            }
            let next = by_id[&link.neighbor];
            forwards = link.neighbor_side == Side::Left;
            coverage = Some(coverage.map_or(link.coverage, |c| c.min(link.coverage)));
            if next.is_contig {
                coverage = coverage.map(|c| c.min(next.coverage));
            }
            seq.extend_from_slice(&next.read(forwards)[k - 1..]);
            current = next;
        }
        assert_eq!(visited.len(), members.len(), "a group is one chain");

        if !cycle && dangling && seq.len() <= tip_length_threshold {
            merged.dropped_tips += 1;
        } else {
            merged
                .contigs
                .push((seq, coverage.unwrap_or(start.coverage)));
        }
    }
    merged
}

/// A contig's sequence up to strand, and, when it closes on itself (its
/// last k−1 bases repeat its first, as a cycle's do), up to rotation: the
/// smallest rotation of its k−1-trimmed body on either strand.
pub fn contig_key(seq: &[u8], k: usize) -> Vec<u8> {
    let overlap = k - 1;
    if seq.len() > overlap && seq[..overlap] == seq[seq.len() - overlap..] {
        let body = &seq[..seq.len() - overlap];
        let rc = reverse_complement(body);
        let rotations = |s: &[u8]| -> Vec<Vec<u8>> {
            (0..s.len()).map(|i| [&s[i..], &s[..i]].concat()).collect()
        };
        let mut all = rotations(body);
        all.extend(rotations(&rc));
        return all.into_iter().min().expect("a non-empty body");
    }
    canonical(seq).0
}

/// Contigs as a sorted multiset of ([`contig_key`], coverage).
pub fn contig_multiset(
    contigs: impl IntoIterator<Item = (Vec<u8>, u32)>,
    k: usize,
) -> Vec<(Vec<u8>, u32)> {
    let mut keys: Vec<_> = contigs
        .into_iter()
        .map(|(seq, coverage)| (contig_key(&seq, k), coverage))
        .collect();
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(seqs: &[&'static str]) -> Vec<&'static [u8]> {
        seqs.iter().map(|s| s.as_bytes()).collect()
    }

    #[test]
    fn the_figure_9_strand_is_one_seven_vertex_path() {
        // "CTGCCGTACA" in two overlapping reads, k = 4 (Figure 9).
        let dbg = construct(reads(&["CTGCCGT", "CCGTACA"]), 4, 0);
        let names: BTreeSet<&[u8]> = dbg.nodes.iter().map(|n| &n.seq[..]).collect();
        let expected: [&[u8]; 7] = [
            b"ACGG", b"CGGC", b"CGTA", b"CTGC", b"GGCA", b"GTAC", b"TACA",
        ];
        assert_eq!(names, expected.into_iter().collect());

        let labels = label(&dbg.nodes);
        assert!(labels.ambiguous.is_empty());
        assert_eq!(labels.chains.len(), 1);
        assert_eq!(labels.chains[0].kind, ChainKind::Path);
        assert_eq!(labels.longest_path(), 7);
        let ends = [kmer_id(b"CTGC"), kmer_id(b"TACA")];
        assert_eq!(labels.chains[0].ends, ends.to_vec());
        assert!(labels.lr.values().all(|&l| l == ends[0]));

        let merged = merge(&dbg.nodes, &labels.lr, 4, 0);
        assert_eq!(merged.contigs.len(), 1);
        let (seq, coverage) = &merged.contigs[0];
        assert_eq!(canonical(seq).0, canonical(b"CTGCCGTACA").0);
        // Every 5-mer is seen once.
        assert_eq!(*coverage, 1);
        // Dangling at both ends and 10 bases long: a tip at threshold 10.
        assert_eq!(merge(&dbg.nodes, &labels.lr, 4, 10).dropped_tips, 1);
    }

    #[test]
    fn theta_discards_the_rare_kplus1_mers() {
        let dbg = construct(reads(&["ACGTTGCA", "ACGTTG", "acgNtt"]), 3, 1);
        // ACGT, CGTT, GTTG are seen twice (the lower-case read breaks at N).
        assert_eq!(dbg.kept(1).len(), 3);
        assert_eq!(dbg.kept(0).len(), 5);
    }

    #[test]
    fn a_repeat_makes_a_fork_and_a_tandem_repeat_a_cycle() {
        let dbg = construct(reads(&["TTACTTGATCCG", "TTACTTGAACGG"]), 5, 0);
        let labels = label(&dbg.nodes);
        assert_eq!(labels.ambiguous.len(), 1);
        assert!(!labels.used_cycle_fallback());

        let dbg = construct(reads(&["ATCGGAATCGGAATCG"]), 4, 0);
        let labels = label(&dbg.nodes);
        assert!(labels.ambiguous.is_empty());
        assert_eq!(labels.chains.len(), 1);
        assert_eq!(labels.chains[0].kind, ChainKind::Cycle);
        assert!(labels.used_cycle_fallback());
        let merged = merge(&dbg.nodes, &labels.lr, 4, 1000);
        assert_eq!(merged.dropped_tips, 0, "a cycle is never a tip");
        let (seq, _) = &merged.contigs[0];
        assert_eq!(contig_key(seq, 4), contig_key(b"CGGAATCGG", 4));
    }

    #[test]
    fn a_contig_key_ignores_strand_and_a_cycles_rotation() {
        assert_eq!(contig_key(b"AACG", 3), contig_key(b"CGTT", 3));
        // A 6-cycle of 4-mers, read from two members, on either strand.
        let one = b"ATCGGAATC";
        let other = b"GGAATCGGA";
        assert_eq!(contig_key(one, 4), contig_key(other, 4));
        assert_eq!(
            contig_key(one, 4),
            contig_key(&reverse_complement(other), 4)
        );
        assert_ne!(contig_key(one, 4), contig_key(b"ATCGGTATC", 4));
    }
}
