//! The unified assembly-graph node: k-mer vertices and contig vertices.
//!
//! The paper uses two vertex kinds (Section IV-A): **k-mer vertices**, whose
//! sequence is implicit in their ID and whose adjacency starts out in the
//! packed bitmap format of [`crate::adj`], and **contig vertices**, which own a
//! variable-length packed sequence, a coverage value and (at most) two
//! neighbours (Figure 9). After the first contig-merging round the graph is a
//! mixture of both kinds, and the later operations — bubble filtering, tip
//! removing, the second labeling/merging round — treat them uniformly.
//! [`AsmNode`] is that uniform representation.
//!
//! Construction's k-mer vertices are not `AsmNode`s: [`KmerGraph`] keeps
//! Figure 8's vertex — canonical k-mer, 32-bit adjacency bitmap, one
//! coverage counter per set bit — as columns, a k-mer column, a bitmap
//! column and one flat coverage column cut up by an offset column, sorted
//! by k-mer. No vertex owns an allocation, and the k-mer column doubles as
//! the sorted ID column labeling ranks vertices by.
//!
//! Operations ② and ③ read a node set through [`NodeSource`] (indexed
//! nodes and their ID column) and a node through [`GraphNode`]. A node set
//! lists its nodes in strictly ascending ID order, so a node's position is
//! its rank and the ID column is labeling's rank dictionary as it is
//! (`ranks.rs`, which refuses any other order). [`KmerGraph`] (whose nodes
//! are [`KmerRef`] views) is round 1's source and lends its k-mer column;
//! `[AsmNode]` and the two-slice view `MixedNodes` — round 2's ambiguous
//! k-mers followed by the contigs, read where they lie — are the expanded
//! sources. Construct's vertices reach ③ as columns, and only the ⟨m-n⟩
//! k-mers that ③ parks for tip removing are expanded into [`AsmNode`]s.
//! Bit 63, the contig mark of [`crate::ids`], puts every contig ID
//! after every k-mer ID, so ascending k-mers followed by ascending contigs
//! are ascending as a whole.

use crate::adj::{neighbor_at, EdgeSlot, RIGHT_SLOTS};
use crate::ids;
use crate::polarity::{side_of, Direction, Polarity, Side};
use ppa_seq::{DnaString, Kmer, Orientation};
use std::borrow::Cow;

/// The sequence payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSeq {
    /// A k-mer vertex: the sequence is the canonical k-mer.
    Kmer(Kmer),
    /// A contig vertex: an arbitrary-length packed sequence (Figure 9).
    Contig(DnaString),
}

impl NodeSeq {
    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        match self {
            NodeSeq::Kmer(k) => k.k(),
            NodeSeq::Contig(s) => s.len(),
        }
    }

    /// Whether the sequence is empty (only possible for a degenerate contig).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises the sequence as a [`DnaString`].
    pub fn to_dna(&self) -> DnaString {
        match self {
            NodeSeq::Kmer(k) => k.to_dna_string(),
            NodeSeq::Contig(s) => s.clone(),
        }
    }

    /// The sequence in the requested orientation.
    pub fn oriented(&self, orientation: Orientation) -> DnaString {
        let s = self.to_dna();
        match orientation {
            Orientation::Forward => s,
            Orientation::ReverseComplement => s.reverse_complement(),
        }
    }
}

/// One incident edge of a node, stored from the owning node's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// ID of the neighbour node ([`NULL_ID`](crate::ids::NULL_ID) marks a dead
    /// end, used by contig vertices).
    pub neighbor: u64,
    /// Whether the owning node is the source (`Out`) or target (`In`) of the
    /// stored edge direction.
    pub direction: Direction,
    /// Edge polarity ⟨source:target⟩ in the stored direction.
    pub polarity: Polarity,
    /// Edge coverage: the number of reads contributing the underlying
    /// (k+1)-mer.
    pub coverage: u32,
}

impl Edge {
    /// Which side of the owning node's canonical sequence the edge attaches to.
    #[inline]
    pub fn side(&self) -> Side {
        side_of(self.direction, self.polarity)
    }

    /// The owning node's polarity label on this edge.
    #[inline]
    pub fn own_label(&self) -> Orientation {
        crate::polarity::own_label(self.direction, self.polarity)
    }

    /// The neighbour's polarity label on this edge.
    #[inline]
    pub fn neighbor_label(&self) -> Orientation {
        crate::polarity::neighbor_label(self.direction, self.polarity)
    }

    /// Whether the edge leads to the NULL dead-end marker.
    #[inline]
    pub fn is_null(&self) -> bool {
        ids::is_null(self.neighbor)
    }
}

/// Vertex classification (Section IV-A "Vertex Types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexType {
    /// No (real) neighbour at all. Only reachable through deletions or for an
    /// isolated contig whose both ends are dead.
    Isolated,
    /// Type ⟨1⟩: exactly one neighbour — a dead end, hence a tip candidate.
    One,
    /// Type ⟨1-1⟩: two neighbours, one on each side — an unambiguous vertex
    /// that lies on a simple path.
    OneOne,
    /// Type ⟨m-n⟩: any other configuration — an ambiguous (branching) vertex.
    Branch,
}

/// A node of the assembly graph: either a k-mer vertex or a contig vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmNode {
    /// Vertex ID (k-mer encoding or contig ordinal, Figure 7).
    pub id: u64,
    /// The node's sequence.
    pub seq: NodeSeq,
    /// Node coverage: for contigs, the minimum edge coverage merged into the
    /// contig (Figure 9); for k-mer vertices, the maximum incident edge
    /// coverage (a cheap proxy for read support).
    pub coverage: u32,
    /// Incident edges.
    pub edges: Vec<Edge>,
}

impl AsmNode {
    /// Creates a k-mer node with no edges yet.
    pub fn new_kmer(kmer: Kmer) -> AsmNode {
        AsmNode {
            id: ids::kmer_id(&kmer),
            seq: NodeSeq::Kmer(kmer),
            coverage: 0,
            edges: Vec::new(),
        }
    }

    /// Creates a contig node.
    pub fn new_contig(id: u64, seq: DnaString, coverage: u32) -> AsmNode {
        debug_assert!(ids::is_contig_id(id));
        AsmNode {
            id,
            seq: NodeSeq::Contig(seq),
            coverage,
            edges: Vec::new(),
        }
    }

    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the node carries an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Edges that lead to a real neighbour (excluding NULL dead-end markers).
    pub fn real_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(|e| !e.is_null())
    }

    /// Real edges attached on the given side.
    pub fn edges_on(&self, side: Side) -> impl Iterator<Item = &Edge> {
        self.real_edges().filter(move |e| e.side() == side)
    }

    /// Vertex type per Section IV-A: ⟨1⟩, ⟨1-1⟩ or ⟨m-n⟩ (plus `Isolated`).
    pub fn vertex_type(&self) -> VertexType {
        let mut left = 0usize;
        let mut right = 0usize;
        for e in self.real_edges() {
            match e.side() {
                Side::Left => left += 1,
                Side::Right => right += 1,
            }
        }
        match (left, right) {
            (0, 0) => VertexType::Isolated,
            (1, 0) | (0, 1) => VertexType::One,
            (1, 1) => VertexType::OneOne,
            _ => VertexType::Branch,
        }
    }

    /// Adds an edge.
    pub fn push_edge(&mut self, edge: Edge) {
        self.edges.push(edge);
    }
}

/// Read access to an assembly-graph node, whichever form it is stored in:
/// what contig labeling and merging need to know about a node, with the
/// adjacency format hidden.
pub trait GraphNode {
    /// The vertex ID (Figure 7).
    fn id(&self) -> u64;

    /// The edges that lead to a real neighbour, decoded, in storage order.
    fn real_edges(&self) -> impl Iterator<Item = Edge> + '_;

    /// The sole real edge on each side, `[left, right]` (`None` on a side
    /// without one), decoded in one pass; `None` for an ambiguous node, one
    /// with several edges on a side.
    fn sole_edges(&self) -> Option<[Option<Edge>; 2]> {
        let mut sole = [None; 2];
        for edge in self.real_edges() {
            let side = &mut sole[usize::from(edge.side() == Side::Right)];
            if side.is_some() {
                return None;
            }
            *side = Some(edge);
        }
        Some(sole)
    }

    /// The IDs of [`sole_edges`](GraphNode::sole_edges)' neighbours.
    fn sole_neighbors(&self) -> Option<[Option<u64>; 2]> {
        let sole = self.sole_edges()?;
        Some(sole.map(|edge| edge.map(|e| e.neighbor)))
    }

    /// Whether a side of the node has several real edges: an ⟨m-n⟩ vertex.
    fn is_ambiguous(&self) -> bool {
        self.sole_edges().is_none()
    }

    /// Node coverage, as [`AsmNode::coverage`] defines it.
    fn coverage(&self) -> u32;

    /// The k-mer of a k-mer vertex (canonical, as its ID packs it); `None`
    /// for a contig.
    fn kmer(&self) -> Option<Kmer>;

    /// Whether the node is a contig vertex.
    fn is_contig(&self) -> bool {
        self.kmer().is_none()
    }

    /// Appends the node's sequence in `orientation` ([`NodeSeq::oriented`])
    /// from base `skip` on to `out` (nothing if `skip` reaches the end),
    /// without building the oriented sequence: how contig merging adds a
    /// member past its k−1 overlap.
    fn append_oriented(&self, orientation: Orientation, skip: usize, out: &mut DnaString);
}

/// [`GraphNode::append_oriented`] for a k-mer: the tail of the oriented
/// k-mer is the low end of its packed word.
fn append_kmer_tail(kmer: Kmer, orientation: Orientation, skip: usize, out: &mut DnaString) {
    let oriented = match orientation {
        Orientation::Forward => kmer,
        Orientation::ReverseComplement => kmer.reverse_complement(),
    };
    out.extend_from_packed(oriented.packed(), oriented.k().saturating_sub(skip));
}

impl GraphNode for AsmNode {
    #[inline]
    fn id(&self) -> u64 {
        self.id
    }

    fn real_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        AsmNode::real_edges(self).copied()
    }

    #[inline]
    fn coverage(&self) -> u32 {
        self.coverage
    }

    fn kmer(&self) -> Option<Kmer> {
        match self.seq {
            NodeSeq::Kmer(kmer) => Some(kmer),
            NodeSeq::Contig(_) => None,
        }
    }

    fn append_oriented(&self, orientation: Orientation, skip: usize, out: &mut DnaString) {
        match &self.seq {
            NodeSeq::Kmer(kmer) => append_kmer_tail(*kmer, orientation, skip, out),
            NodeSeq::Contig(seq) => {
                let len = seq.len();
                for i in skip..len {
                    out.push(match orientation {
                        Orientation::Forward => seq.get(i),
                        Orientation::ReverseComplement => seq.get(len - 1 - i).complement(),
                    });
                }
            }
        }
    }
}

/// Read access to a node set by position: what operations ② and ③ need of
/// it, whichever form it is stored in.
pub trait NodeSource: Sync {
    /// The read view of one node.
    type Node<'a>: GraphNode + Copy
    where
        Self: 'a;

    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the set holds no node.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node at position `i`.
    fn node(&self, i: usize) -> Self::Node<'_>;

    /// The node IDs in position order, which must be strictly ascending: a
    /// node's position is its rank, and the column is labeling's rank
    /// dictionary as it is (`ranks.rs`). Borrowed when the set keeps an ID
    /// column, collected otherwise.
    fn ids(&self) -> Cow<'_, [u64]> {
        Cow::Owned((0..self.len()).map(|i| self.node(i).id()).collect())
    }
}

impl NodeSource for [AsmNode] {
    type Node<'a> = &'a AsmNode;

    fn len(&self) -> usize {
        <[AsmNode]>::len(self)
    }

    #[inline]
    fn node(&self, i: usize) -> &AsmNode {
        &self[i]
    }
}

/// So that a `&Vec<AsmNode>` is a node source as it is.
impl NodeSource for Vec<AsmNode> {
    type Node<'a> = &'a AsmNode;

    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn node(&self, i: usize) -> &AsmNode {
        &self[i]
    }
}

/// Two expanded node sets read as one, the first's nodes before the
/// second's: the corrected graph of a correction round — the ambiguous
/// k-mers, then the contigs — labelled and merged where it lies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MixedNodes<'a> {
    pub(crate) kmers: &'a [AsmNode],
    pub(crate) contigs: &'a [AsmNode],
}

impl NodeSource for MixedNodes<'_> {
    type Node<'b>
        = &'b AsmNode
    where
        Self: 'b;

    fn len(&self) -> usize {
        self.kmers.len() + self.contigs.len()
    }

    #[inline]
    fn node(&self, i: usize) -> &AsmNode {
        match self.kmers.get(i) {
            Some(node) => node,
            None => &self.contigs[i - self.kmers.len()],
        }
    }
}

impl<N: GraphNode + ?Sized> GraphNode for &N {
    #[inline]
    fn id(&self) -> u64 {
        (**self).id()
    }

    fn real_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (**self).real_edges()
    }

    fn sole_edges(&self) -> Option<[Option<Edge>; 2]> {
        (**self).sole_edges()
    }

    fn sole_neighbors(&self) -> Option<[Option<u64>; 2]> {
        (**self).sole_neighbors()
    }

    fn is_ambiguous(&self) -> bool {
        (**self).is_ambiguous()
    }

    #[inline]
    fn coverage(&self) -> u32 {
        (**self).coverage()
    }

    #[inline]
    fn kmer(&self) -> Option<Kmer> {
        (**self).kmer()
    }

    fn append_oriented(&self, orientation: Orientation, skip: usize, out: &mut DnaString) {
        (**self).append_oriented(orientation, skip, out)
    }
}

/// Construct's k-mer vertices as columns (Figure 8): per vertex its
/// canonical k-mer, which is its ID, and its 32-bit adjacency bitmap; per
/// occupied slot one coverage counter, every vertex's in bit order, in one
/// flat column that `offsets` (one entry per vertex plus one) cuts up.
///
/// The k-mers are strictly ascending, so the k-mer column is the sorted ID
/// column labeling ranks vertices by, and a vertex's position is its rank.
/// No vertex owns an allocation: the graph is four vectors, about 24 bytes
/// per vertex on simulated reads (two slots each).
#[derive(Debug, Clone)]
pub struct KmerGraph {
    k: usize,
    kmers: Vec<u64>,
    bitmaps: Vec<u32>,
    /// `coverages[offsets[i]..offsets[i + 1]]` are vertex `i`'s.
    offsets: Vec<u32>,
    coverages: Vec<u32>,
}

/// Two graphs are equal if they hold the same vertices; an empty graph has
/// no k-mer to give its k a meaning.
impl PartialEq for KmerGraph {
    fn eq(&self, other: &KmerGraph) -> bool {
        (self.is_empty() || self.k == other.k)
            && self.kmers == other.kmers
            && self.bitmaps == other.bitmaps
            && self.offsets == other.offsets
            && self.coverages == other.coverages
    }
}

/// The empty graph, whose k means nothing: what
/// [`GraphState::nodes`](crate::pipeline::GraphState::nodes) holds before
/// construction and after merging drains it.
impl Default for KmerGraph {
    fn default() -> KmerGraph {
        KmerGraph::with_capacity(0, 0, 0)
    }
}

impl KmerGraph {
    /// An empty graph of k-mers of length `k`, with room for `vertices`
    /// vertices and `slots` occupied slots.
    pub(crate) fn with_capacity(k: usize, vertices: usize, slots: usize) -> KmerGraph {
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0);
        KmerGraph {
            k,
            kmers: Vec::with_capacity(vertices),
            bitmaps: Vec::with_capacity(vertices),
            offsets,
            coverages: Vec::with_capacity(slots),
        }
    }

    /// The graph the columns of a decoded checkpoint describe, or why they
    /// describe none ([`validate`](KmerGraph::validate)): the offsets are
    /// derived from the bitmaps, and the slot total must fit them.
    pub(crate) fn from_columns(
        k: usize,
        kmers: Vec<u64>,
        bitmaps: Vec<u32>,
        coverages: Vec<u32>,
    ) -> Result<KmerGraph, String> {
        let mut offsets = Vec::with_capacity(bitmaps.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for bitmap in &bitmaps {
            end = end
                .checked_add(bitmap.count_ones())
                .ok_or("the slot total overflows the u32 offsets")?;
            offsets.push(end);
        }
        let graph = KmerGraph {
            k,
            kmers,
            bitmaps,
            offsets,
            coverages,
        };
        graph.validate()?;
        Ok(graph)
    }

    /// The k of every vertex's k-mer.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.kmers.len()
    }

    /// Whether the graph has no vertex.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty()
    }

    /// The vertices in ascending ID order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = KmerRef<'_>> + '_ {
        (0..self.len()).map(|i| self.node(i))
    }

    /// Total occupied slots: the edge records, two per physical edge.
    pub(crate) fn adjacency_slots(&self) -> usize {
        self.coverages.len()
    }

    /// Heap bytes the columns hold, capacity included.
    // ppa_lint: allow(test-only-pub) the exact size the allocation pins hold the counting allocator to
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.kmers.capacity() * size_of::<u64>()
            + (self.bitmaps.capacity() + self.offsets.capacity() + self.coverages.capacity())
                * size_of::<u32>()
    }

    /// Expands every vertex into an [`AsmNode`], in ID order.
    pub fn to_nodes(&self) -> Vec<AsmNode> {
        self.iter().map(|v| v.to_asm_node()).collect()
    }

    /// Appends a vertex with no occupied slot. Its k-mer must exceed the
    /// last one's.
    pub(crate) fn push_vertex(&mut self, kmer: u64) {
        self.kmers.push(kmer);
        self.bitmaps.push(0);
        self.offsets.push(self.coverages.len() as u32);
    }

    /// Adds `coverage` to `slot` of the last vertex, occupying the slot if
    /// it is free; counters saturate at `u32::MAX`.
    pub(crate) fn add_slot(&mut self, slot: EdgeSlot, coverage: u32) {
        let bit = slot.bit();
        let bitmap = self.bitmaps.last_mut().expect("a vertex to add to");
        let first =
            *self.offsets.last().expect("n + 1 offsets") as usize - bitmap.count_ones() as usize;
        let at = first + (*bitmap & ((1u32 << bit) - 1)).count_ones() as usize;
        if *bitmap & (1 << bit) != 0 {
            self.coverages[at] = self.coverages[at].saturating_add(coverage);
        } else {
            *bitmap |= 1 << bit;
            self.coverages.insert(at, coverage);
            let end = self.offsets.last_mut().expect("n + 1 offsets");
            *end =
                u32::try_from(self.coverages.len()).expect("the slot total fits the u32 offsets");
        }
    }

    /// The graphs one after the other — each one's k-mers all greater than
    /// the one's before — in columns of exactly their total length. The first
    /// graph's columns are grown to take the rest, so the allocator can
    /// extend them in place instead of holding a second full copy while the
    /// parts are copied.
    ///
    /// # Panics
    ///
    /// Panics if the occupied slots do not fit the `u32` offsets.
    pub(crate) fn concat(k: usize, parts: Vec<KmerGraph>) -> KmerGraph {
        let vertices: usize = parts.iter().map(KmerGraph::len).sum();
        let slots: usize = parts.iter().map(KmerGraph::adjacency_slots).sum();
        assert!(
            u32::try_from(slots).is_ok(),
            "{slots} occupied slots do not fit the u32 offsets"
        );
        let mut parts = parts.into_iter();
        let mut all = parts
            .next()
            .unwrap_or_else(|| KmerGraph::with_capacity(k, 0, 0));
        let more = vertices - all.len();
        all.kmers.reserve_exact(more);
        all.bitmaps.reserve_exact(more);
        all.offsets.reserve_exact(more);
        all.coverages.reserve_exact(slots - all.coverages.len());
        for part in parts {
            let base = all.coverages.len() as u32;
            all.kmers.extend_from_slice(&part.kmers);
            all.bitmaps.extend_from_slice(&part.bitmaps);
            all.offsets
                .extend(part.offsets[1..].iter().map(|end| end + base));
            all.coverages.extend_from_slice(&part.coverages);
        }
        all.kmers.shrink_to_fit();
        all.bitmaps.shrink_to_fit();
        all.offsets.shrink_to_fit();
        all.coverages.shrink_to_fit();
        all
    }

    /// Why the columns are not a k-mer graph, if they are not: the k-mers
    /// must be canonical k-mers of the graph's k and strictly ascending, the
    /// offsets must start at 0 and be monotone, and each vertex must own one
    /// counter per set bit of its bitmap, the last vertex's ending the
    /// coverage column.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.kmers.len();
        if self.bitmaps.len() != n || self.offsets.len() != n + 1 {
            return Err(format!(
                "{n} k-mers, {} bitmaps and {} offsets",
                self.bitmaps.len(),
                self.offsets.len()
            ));
        }
        if self.offsets.first() != Some(&0)
            || self.offsets.last().map(|&end| end as usize) != Some(self.coverages.len())
        {
            return Err("the offsets do not span the coverage column".into());
        }
        for i in 0..n {
            let kmer =
                Kmer::from_packed(self.kmers[i], self.k).map_err(|e| format!("vertex {i}: {e}"))?;
            if !kmer.is_canonical() {
                return Err(format!("vertex {i}: {kmer} is not canonical"));
            }
            if i > 0 && self.kmers[i - 1] >= self.kmers[i] {
                return Err(format!("vertex {i}: k-mers not strictly ascending"));
            }
            let (start, end) = (self.offsets[i], self.offsets[i + 1]);
            if end < start || end - start != self.bitmaps[i].count_ones() {
                return Err(format!(
                    "vertex {i}: slots {start}..{end} for bitmap {:#010x}",
                    self.bitmaps[i]
                ));
            }
        }
        Ok(())
    }

    /// [`validate`](KmerGraph::validate), in debug builds, panicking on a
    /// violation.
    pub(crate) fn debug_validate(&self) {
        if cfg!(debug_assertions) {
            if let Err(why) = self.validate() {
                panic!("not a k-mer graph: {why}");
            }
        }
    }
}

impl NodeSource for KmerGraph {
    type Node<'a> = KmerRef<'a>;

    fn len(&self) -> usize {
        KmerGraph::len(self)
    }

    #[inline]
    fn node(&self, i: usize) -> KmerRef<'_> {
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        KmerRef {
            kmer: Kmer::from_packed(self.kmers[i], self.k).expect("a k-mer of the graph's k"),
            bitmap: self.bitmaps[i],
            coverages: &self.coverages[start..end],
        }
    }

    fn ids(&self) -> Cow<'_, [u64]> {
        Cow::Borrowed(&self.kmers)
    }
}

/// One vertex of a [`KmerGraph`]: its canonical k-mer, its adjacency bitmap
/// and its coverage counters, borrowed from the columns.
#[derive(Debug, Clone, Copy)]
// ppa_lint: allow(test-only-pub) the vertex view `KmerGraph::node` and `iter` return
pub struct KmerRef<'a> {
    kmer: Kmer,
    bitmap: u32,
    coverages: &'a [u32],
}

impl<'a> KmerRef<'a> {
    /// The vertex ID (the packed canonical k-mer, Figure 7a).
    #[inline]
    pub fn id(&self) -> u64 {
        ids::kmer_id(&self.kmer)
    }

    /// The adjacency bitmap: bit [`EdgeSlot::bit`] is set for every
    /// occupied slot.
    pub fn bitmap(&self) -> u32 {
        self.bitmap
    }

    /// One coverage counter per occupied slot, in bit order.
    pub fn coverages(&self) -> &'a [u32] {
        self.coverages
    }

    /// The occupied slots and their coverages, in bit order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (EdgeSlot, u32)> + 'a {
        let mut remaining = self.bitmap;
        self.coverages.iter().map(move |&coverage| {
            let bit = remaining.trailing_zeros();
            remaining &= remaining - 1;
            (EdgeSlot::from_bit(bit), coverage)
        })
    }

    /// Expands the vertex into the unified [`AsmNode`] form, with exactly
    /// one edge allocated per occupied slot — the paper's `convert(.)` step,
    /// which the pipeline takes only for the k-mers that outlive merging.
    pub fn to_asm_node(&self) -> AsmNode {
        let mut edges = Vec::with_capacity(self.coverages.len());
        edges.extend(GraphNode::real_edges(self));
        AsmNode {
            id: self.id(),
            seq: NodeSeq::Kmer(self.kmer),
            coverage: GraphNode::coverage(self),
            edges,
        }
    }
}

impl GraphNode for KmerRef<'_> {
    #[inline]
    fn id(&self) -> u64 {
        KmerRef::id(self)
    }

    /// Decodes every occupied slot of the bitmap into an edge
    /// ([`EdgeSlot::neighbor_of`]), in bit order.
    fn real_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let (own, rc) = (self.kmer, self.kmer.reverse_complement());
        self.slots().map(move |(slot, coverage)| Edge {
            neighbor: ids::kmer_id(&neighbor_at(slot.bit(), own, rc)),
            direction: slot.direction,
            polarity: slot.polarity,
            coverage,
        })
    }

    /// Sides read off the bitmap, so an ambiguous vertex decodes nothing.
    fn sole_edges(&self) -> Option<[Option<Edge>; 2]> {
        if self.is_ambiguous() {
            return None;
        }
        let (own, rc) = (self.kmer, self.kmer.reverse_complement());
        let mut sole = [None; 2];
        let mut bits = self.bitmap;
        for &coverage in self.coverages {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let slot = EdgeSlot::from_bit(bit);
            sole[usize::from(RIGHT_SLOTS >> bit & 1 == 1)] = Some(Edge {
                neighbor: ids::kmer_id(&neighbor_at(bit, own, rc)),
                direction: slot.direction,
                polarity: slot.polarity,
                coverage,
            });
        }
        Some(sole)
    }

    /// [`sole_edges`](GraphNode::sole_edges) without reading a coverage.
    fn sole_neighbors(&self) -> Option<[Option<u64>; 2]> {
        if self.is_ambiguous() {
            return None;
        }
        let (own, rc) = (self.kmer, self.kmer.reverse_complement());
        let mut sole = [None; 2];
        let mut bits = self.bitmap;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let neighbor = ids::kmer_id(&neighbor_at(bit, own, rc));
            sole[usize::from(RIGHT_SLOTS >> bit & 1 == 1)] = Some(neighbor);
        }
        Some(sole)
    }

    /// From the bitmap alone: no neighbour is decoded.
    fn is_ambiguous(&self) -> bool {
        (self.bitmap & RIGHT_SLOTS).count_ones() > 1
            || (self.bitmap & !RIGHT_SLOTS).count_ones() > 1
    }

    /// The maximum incident edge coverage (`0` without edges).
    fn coverage(&self) -> u32 {
        self.coverages().iter().copied().max().unwrap_or(0)
    }

    #[inline]
    fn kmer(&self) -> Option<Kmer> {
        Some(self.kmer)
    }

    fn append_oriented(&self, orientation: Orientation, skip: usize, out: &mut DnaString) {
        append_kmer_tail(self.kmer, orientation, skip, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NULL_ID;
    use ppa_seq::Base;

    fn km(s: &str) -> Kmer {
        Kmer::from_str_exact(s).unwrap()
    }

    fn edge(neighbor: u64, direction: Direction, polarity: Polarity, coverage: u32) -> Edge {
        Edge {
            neighbor,
            direction,
            polarity,
            coverage,
        }
    }

    #[test]
    fn node_seq_accessors() {
        let k = NodeSeq::Kmer(km("ACGT"));
        assert_eq!(k.len(), 4);
        assert_eq!(k.to_dna().to_ascii(), "ACGT");
        assert_eq!(
            k.oriented(Orientation::ReverseComplement).to_ascii(),
            "ACGT"
        ); // palindrome
        let c = NodeSeq::Contig(DnaString::from_ascii("TGCCGTAC").unwrap());
        assert_eq!(c.len(), 8);
        assert!(!c.is_empty());
        assert_eq!(c.oriented(Orientation::Forward).to_ascii(), "TGCCGTAC");
        assert_eq!(
            c.oriented(Orientation::ReverseComplement).to_ascii(),
            "GTACGGCA"
        );
    }

    #[test]
    fn edge_side_and_labels() {
        let e = edge(3, Direction::Out, Polarity::LH, 5);
        assert_eq!(e.side(), Side::Right);
        assert_eq!(e.own_label(), Orientation::Forward);
        assert_eq!(e.neighbor_label(), Orientation::ReverseComplement);
        assert!(!e.is_null());
        assert!(edge(NULL_ID, Direction::Out, Polarity::LL, 0).is_null());
    }

    #[test]
    fn vertex_types_cover_all_cases() {
        let mut node = AsmNode::new_kmer(km("ACGTA"));
        assert_eq!(node.vertex_type(), VertexType::Isolated);

        // One edge on the right → ⟨1⟩.
        node.push_edge(edge(10, Direction::Out, Polarity::LL, 3));
        assert_eq!(node.vertex_type(), VertexType::One);

        // Add one on the left → ⟨1-1⟩.
        node.push_edge(edge(11, Direction::In, Polarity::LL, 2));
        assert_eq!(node.vertex_type(), VertexType::OneOne);

        // A second edge on the right → ⟨m-n⟩.
        node.push_edge(edge(12, Direction::Out, Polarity::LH, 1));
        assert_eq!(node.vertex_type(), VertexType::Branch);
    }

    #[test]
    fn two_edges_on_same_side_is_branch() {
        let mut node = AsmNode::new_kmer(km("ACGTA"));
        node.push_edge(edge(10, Direction::Out, Polarity::LL, 3));
        node.push_edge(edge(12, Direction::Out, Polarity::LH, 1));
        assert_eq!(node.vertex_type(), VertexType::Branch);
    }

    #[test]
    fn null_edges_do_not_count_as_neighbors() {
        let mut contig = AsmNode::new_contig(
            ids::contig_id(1),
            DnaString::from_ascii("TGCCGTAC").unwrap(),
            98,
        );
        contig.push_edge(edge(NULL_ID, Direction::In, Polarity::LL, 0));
        contig.push_edge(edge(77, Direction::Out, Polarity::LL, 103));
        // One real neighbour → type ⟨1⟩ (a dangling contig = tip candidate).
        assert_eq!(contig.vertex_type(), VertexType::One);
        let real: Vec<u64> = contig.real_edges().map(|e| e.neighbor).collect();
        assert_eq!(real, vec![77]);
        assert!(matches!(contig.seq, NodeSeq::Contig(_)));
    }

    #[test]
    fn edges_on_side_and_sole_edge() {
        let mut node = AsmNode::new_kmer(km("ACGTA"));
        node.push_edge(edge(10, Direction::Out, Polarity::LL, 3)); // Right
        node.push_edge(edge(11, Direction::In, Polarity::LL, 2)); // Left
        node.push_edge(edge(12, Direction::In, Polarity::LH, 2)); // Right
        assert_eq!(node.edges_on(Side::Right).count(), 2);
        assert_eq!(node.edges_on(Side::Left).count(), 1);
        // Two edges on the right: ambiguous, so no side has a sole edge.
        assert_eq!(node.sole_edges(), None);
        assert_eq!(node.sole_neighbors(), None);
        assert!(node.is_ambiguous());
        node.edges.pop();
        let sole = node.sole_edges().unwrap();
        assert_eq!(sole.map(|e| e.unwrap().neighbor), [11, 10]);
        assert_eq!(node.sole_neighbors(), Some([Some(11), Some(10)]));
        assert!(!node.is_ambiguous());
    }

    #[test]
    fn a_vertex_reads_its_sides_off_its_bitmap_as_its_expanded_node_does() {
        // The expanded node decodes every edge and sorts them by side (the
        // trait's defaults); the vertex reads the sides off its bitmap.
        let mut ambiguous = 0;
        for (what, graph) in crate::ops::blocks::tests::kmer_cases() {
            for (vertex, node) in graph.iter().zip(graph.to_nodes()) {
                assert_eq!(vertex.sole_edges(), node.sole_edges(), "{what}: {node:?}");
                assert_eq!(vertex.sole_neighbors(), node.sole_neighbors(), "{what}");
                assert_eq!(vertex.is_ambiguous(), node.is_ambiguous(), "{what}");
                ambiguous += usize::from(node.is_ambiguous());
            }
        }
        assert!(ambiguous >= 4, "{ambiguous} ambiguous vertices");
    }

    /// `out` after `node.append_oriented(o, skip, ..)` must equal `prefix`
    /// followed by `seq.oriented(o)` from base `skip` on.
    fn check_append<N: GraphNode>(node: &N, seq: &NodeSeq, prefix: &DnaString, what: &str) {
        for o in [Orientation::Forward, Orientation::ReverseComplement] {
            let full = seq.oriented(o);
            for skip in 0..=full.len() {
                let mut out = prefix.clone();
                node.append_oriented(o, skip, &mut out);
                let mut expected = prefix.clone();
                for i in skip..full.len() {
                    expected.push(full.get(i));
                }
                assert_eq!(out, expected, "{what}, {o:?}, skip {skip}");
            }
        }
    }

    #[test]
    fn append_oriented_is_the_tail_of_oriented() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in 1..=31usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let kmer = Kmer::from_packed(state >> (64 - 2 * k), k).unwrap();
            let mut graph = KmerGraph::with_capacity(k, 1, 0);
            graph.push_vertex(kmer.canonical().kmer.packed());
            let vertex = graph.node(0);
            // Vary where the appended bases land in the output's last word.
            let prefix = DnaString::from_bases(
                &(0..(k * 7) % 40)
                    .map(|i| Base::from_code((i % 4) as u8))
                    .collect::<Vec<_>>(),
            );
            let seq = NodeSeq::Kmer(vertex.kmer);
            check_append(&vertex, &seq, &prefix, &format!("KmerRef k={k}"));
        }
        // A contig member of round two, longer than a word.
        let contig = AsmNode::new_contig(
            ids::contig_id(7),
            DnaString::from_ascii(&"GATTACACCGT".repeat(7)).unwrap(),
            3,
        );
        let prefix = DnaString::from_ascii("TTG").unwrap();
        check_append(&contig, &contig.seq, &prefix, "contig");
    }

    /// A graph of the Figure 8(b) vertex "ACGG" with its two items.
    fn figure_8b_graph() -> KmerGraph {
        let mut graph = KmerGraph::with_capacity(4, 1, 2);
        graph.push_vertex(km("ACGG").packed());
        for (polarity, direction, base, coverage) in [
            (Polarity::HH, Direction::In, Base::G, 7),
            (Polarity::HL, Direction::Out, Base::A, 9),
        ] {
            let slot = EdgeSlot {
                polarity,
                direction,
                base,
            };
            graph.add_slot(slot, coverage);
        }
        graph
    }

    #[test]
    fn the_mixed_view_reads_the_kmers_then_the_contigs() {
        let kmers = [AsmNode::new_kmer(km("ACGG")), AsmNode::new_kmer(km("CGGC"))];
        let contig = |ordinal| {
            let seq = DnaString::from_ascii("ACGGCA").unwrap();
            AsmNode::new_contig(ids::contig_id(ordinal), seq, 3)
        };
        let contigs = [contig(1), contig(2)];
        let mixed = MixedNodes {
            kmers: &kmers,
            contigs: &contigs,
        };
        assert_eq!(mixed.len(), 4);
        let all: Vec<&AsmNode> = kmers.iter().chain(&contigs).collect();
        for (i, node) in all.iter().enumerate() {
            assert_eq!(mixed.node(i), *node, "node {i}");
        }
        // Every contig ID is above every k-mer ID: one ascending column.
        let ids = mixed.ids();
        assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{ids:x?}");
    }

    #[test]
    fn kmer_ref_expands_to_asm_node() {
        let graph = figure_8b_graph();
        let v = graph.node(0);
        let node = v.to_asm_node();
        assert_eq!(node.id, v.id());
        assert_eq!(node.edges.len(), 2);
        assert_eq!(node.edges.capacity(), 2, "one edge allocated per slot");
        assert_eq!(node.coverage, 9);
        let neighbors: Vec<String> = node
            .edges
            .iter()
            .map(|e| Kmer::from_packed(e.neighbor, 4).unwrap().to_string())
            .collect();
        assert!(neighbors.contains(&"CGGC".to_string()));
        assert!(neighbors.contains(&"CGTA".to_string()));
        // One neighbour on each side → unambiguous.
        assert_eq!(node.vertex_type(), VertexType::OneOne);
        // Bit order: the out-slot ⟨H:L⟩ A is bit 20, the in-slot ⟨H:H⟩ G bit 26.
        assert_eq!(v.bitmap(), 1 << 20 | 1 << 26);
        assert_eq!(v.coverages(), &[9, 7]);
        assert_eq!(graph.to_nodes(), vec![node]);
    }

    /// The canonical k-mer a seed stands for.
    fn canonical_of(seed: u64, k: usize) -> u64 {
        let kmer = Kmer::from_packed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 2 * k), k);
        kmer.unwrap().canonical().kmer.packed()
    }

    #[test]
    fn concatenated_graphs_keep_their_slots_and_validate() {
        let k = 9;
        let mut kmers: Vec<u64> = (1..=40).map(|seed| canonical_of(seed, k)).collect();
        kmers.sort_unstable();
        kmers.dedup();
        let (low, high) = kmers.split_at(kmers.len() / 2);
        let build = |kmers: &[u64]| {
            let mut graph = KmerGraph::with_capacity(k, kmers.len(), 0);
            for &kmer in kmers {
                graph.push_vertex(kmer);
                for bit in (0..32).filter(|bit| (kmer >> (bit % 17)) & 1 == 1) {
                    graph.add_slot(EdgeSlot::from_bit(bit), bit + 1);
                }
            }
            graph.debug_validate();
            graph
        };
        let joined = KmerGraph::concat(k, vec![build(low), build(&[]), build(high)]);
        assert_eq!(joined, build(&kmers));
        assert_eq!(KmerGraph::concat(k, Vec::new()), build(&[]));
        assert_eq!(
            joined.heap_bytes(),
            8 * kmers.len() + 4 * (2 * kmers.len() + 1) + 4 * joined.adjacency_slots()
        );
        assert_eq!(joined.ids(), Cow::Borrowed(&kmers[..]));
        for (i, v) in joined.iter().enumerate() {
            assert_eq!(v.id(), kmers[i]);
            let bits: Vec<u32> = v.slots().map(|(slot, _)| slot.bit()).collect();
            let coverages: Vec<u32> = bits.iter().map(|bit| bit + 1).collect();
            assert_eq!(v.coverages(), coverages, "vertex {i}");
            assert_eq!(v.bitmap().count_ones() as usize, bits.len());
        }
    }

    #[test]
    fn from_columns_names_what_is_wrong() {
        let k = 9;
        let columns = |kmers: Vec<u64>| {
            let bitmaps = vec![0b101; kmers.len()];
            let coverages = vec![3; 2 * kmers.len()];
            KmerGraph::from_columns(k, kmers, bitmaps, coverages)
        };
        let (a, b) = (canonical_of(1, k), canonical_of(2, k));
        let (a, b) = (a.min(b), a.max(b));
        assert_eq!(columns(vec![a, b]).unwrap().validate(), Ok(()));
        let descending = columns(vec![b, a]).unwrap_err();
        assert!(descending.contains("strictly ascending"), "{descending}");
        let repeated = columns(vec![a, a]).unwrap_err();
        assert!(repeated.contains("strictly ascending"), "{repeated}");
        let rc = Kmer::from_packed(a, k)
            .unwrap()
            .reverse_complement()
            .packed();
        if rc != a {
            let flipped = columns(vec![rc]).unwrap_err();
            assert!(flipped.contains("not canonical"), "{flipped}");
        }
        let wide = columns(vec![1 << (2 * k)]).unwrap_err();
        assert!(wide.contains("vertex 0"), "{wide}");
        let short = KmerGraph::from_columns(k, vec![a], vec![0b11], vec![1]).unwrap_err();
        assert!(short.contains("do not span"), "{short}");
        let unpaired = KmerGraph::from_columns(k, vec![a], vec![], vec![]).unwrap_err();
        assert!(unpaired.contains("1 k-mers, 0 bitmaps"), "{unpaired}");
        let mut graph = columns(vec![a, b]).unwrap();
        graph.offsets[1] = 1;
        assert!(graph.validate().unwrap_err().contains("slots 0..1"));
    }

    #[test]
    #[should_panic(expected = "not a k-mer graph")]
    #[cfg(debug_assertions)]
    fn debug_validate_panics_on_a_descending_column() {
        let (a, b) = (canonical_of(1, 9), canonical_of(2, 9));
        let mut graph = KmerGraph::with_capacity(9, 2, 0);
        graph.push_vertex(a.max(b));
        graph.push_vertex(a.min(b));
        graph.debug_validate();
    }

    proptest::proptest! {
        #[test]
        fn prop_kmer_graph_slots_track_reference_map(
            ops in proptest::collection::vec((0usize..3, 0u32..32, 1u32..100), 0..60)
        ) {
            use std::collections::BTreeMap;
            // Three vertices; each op adds to one of them, in vertex order,
            // as phase (ii) folds a sorted run of edge records.
            let mut ops = ops;
            ops.sort_by_key(|op| op.0);
            let mut reference: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); 3];
            let mut graph = KmerGraph::with_capacity(5, 3, 0);
            for (vertex, kmer) in ["AAAAA", "AAAAC", "AAAAG"].into_iter().enumerate() {
                graph.push_vertex(km(kmer).packed());
                for &(_, bit, cov) in ops.iter().filter(|op| op.0 == vertex) {
                    graph.add_slot(EdgeSlot::from_bit(bit), cov);
                    *reference[vertex].entry(bit).or_insert(0) += cov;
                }
            }
            for (vertex, want) in reference.iter().enumerate() {
                let got: BTreeMap<u32, u32> =
                    graph.node(vertex).slots().map(|(s, c)| (s.bit(), c)).collect();
                proptest::prop_assert_eq!(&got, want);
            }
            proptest::prop_assert_eq!(
                graph.adjacency_slots(),
                reference.iter().map(BTreeMap::len).sum::<usize>()
            );
        }
    }

    #[test]
    fn slot_counters_saturate() {
        let mut graph = KmerGraph::with_capacity(4, 1, 1);
        graph.push_vertex(km("ACGG").packed());
        graph.add_slot(EdgeSlot::from_bit(3), u32::MAX - 1);
        graph.add_slot(EdgeSlot::from_bit(3), 5);
        assert_eq!(graph.node(0).coverages(), &[u32::MAX]);
    }
}
