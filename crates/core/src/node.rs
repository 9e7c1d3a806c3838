//! The unified assembly-graph node: k-mer vertices and contig vertices.
//!
//! The paper uses two vertex kinds (Section IV-A): **k-mer vertices**, whose
//! sequence is implicit in their ID and whose adjacency starts out in the
//! packed bitmap format of [`crate::adj`], and **contig vertices**, which own a
//! variable-length packed sequence, a coverage value and (at most) two
//! neighbours (Figure 9). After the first contig-merging round the graph is a
//! mixture of both kinds, and the later operations — bubble filtering, tip
//! removing, the second labeling/merging round — treat them uniformly.
//! [`AsmNode`] is that uniform representation; [`KmerVertex`] is the compact
//! construction-time form, which labeling and merging read as it is.
//!
//! Both forms implement [`GraphNode`], the read interface that operations ②
//! and ③ are written against, so that the k-mer vertices built by ① reach ③
//! in their packed form and only the ⟨m-n⟩ k-mers that ③ parks for tip
//! removing are expanded into [`AsmNode`]s.

use crate::adj::{EdgeSlot, PackedAdj};
use crate::ids;
use crate::polarity::{side_of, Direction, Polarity, Side};
use ppa_seq::{DnaString, Kmer, Orientation};
use serde::{Deserialize, Serialize};

/// The sequence payload of a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

impl VertexType {}

/// A node of the assembly graph: either a k-mer vertex or a contig vertex.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsmNode {
    /// Vertex ID (k-mer encoding or contig `worker ‖ ordinal`, Figure 7).
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

    /// IDs of all real neighbours (possibly with duplicates for parallel edges).
    pub fn neighbor_ids(&self) -> Vec<u64> {
        self.real_edges().map(|e| e.neighbor).collect()
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

    /// The single real edge on a side, if there is exactly one.
    fn sole_edge_on(&self, side: Side) -> Option<Edge> {
        let mut on_side = self.real_edges().filter(|e| e.side() == side);
        let first = on_side.next()?;
        on_side.next().is_none().then_some(first)
    }

    /// Node coverage, as [`AsmNode::coverage`] defines it.
    fn coverage(&self) -> u32;

    /// Whether the node is a contig vertex.
    fn is_contig(&self) -> bool;

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

    #[inline]
    fn is_contig(&self) -> bool {
        matches!(self.seq, NodeSeq::Contig(_))
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

/// The compact construction-time representation of a k-mer vertex: canonical
/// k-mer plus the packed 32-bit adjacency of Figure 8(a).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KmerVertex {
    /// The canonical k-mer.
    pub kmer: Kmer,
    /// Packed adjacency bitmap and per-edge coverages.
    pub adj: PackedAdj,
}

impl KmerVertex {
    /// Creates a vertex with an empty adjacency.
    pub fn new(kmer: Kmer) -> KmerVertex {
        KmerVertex {
            kmer,
            adj: PackedAdj::new(),
        }
    }

    /// The vertex ID (the packed canonical k-mer, Figure 7a).
    pub fn id(&self) -> u64 {
        ids::kmer_id(&self.kmer)
    }

    /// Expands the packed adjacency into the unified [`AsmNode`] form, with
    /// exactly one edge allocated per occupied slot — the paper's
    /// `convert(.)` step, which the pipeline takes only for the k-mers that
    /// outlive merging.
    pub fn to_asm_node(&self) -> AsmNode {
        let mut edges = Vec::with_capacity(self.adj.degree());
        edges.extend(GraphNode::real_edges(self));
        AsmNode {
            id: self.id(),
            seq: NodeSeq::Kmer(self.kmer),
            coverage: GraphNode::coverage(self),
            edges,
        }
    }

    /// The edge an occupied slot stands for.
    fn decode(&self, slot: EdgeSlot, coverage: u32) -> Edge {
        Edge {
            neighbor: ids::kmer_id(&slot.neighbor_of(&self.kmer)),
            direction: slot.direction,
            polarity: slot.polarity,
            coverage,
        }
    }

    /// Approximate memory footprint in bytes (ID + bitmap + counters), used to
    /// quantify the benefit of the packed format over the expanded one.
    pub fn footprint_bytes(&self) -> usize {
        8 + self.adj.footprint_bytes()
    }
}

impl GraphNode for KmerVertex {
    #[inline]
    fn id(&self) -> u64 {
        KmerVertex::id(self)
    }

    /// Decodes every occupied slot of the bitmap into an edge
    /// ([`EdgeSlot::neighbor_of`]), in bit order.
    fn real_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj
            .iter()
            .map(|(slot, coverage)| self.decode(slot, coverage))
    }

    /// The maximum incident edge coverage (`0` without edges).
    fn coverage(&self) -> u32 {
        self.adj.iter().map(|(_, c)| c).max().unwrap_or(0)
    }

    #[inline]
    fn is_contig(&self) -> bool {
        false
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
            ids::contig_id(0, 1),
            DnaString::from_ascii("TGCCGTAC").unwrap(),
            98,
        );
        contig.push_edge(edge(NULL_ID, Direction::In, Polarity::LL, 0));
        contig.push_edge(edge(77, Direction::Out, Polarity::LL, 103));
        // One real neighbour → type ⟨1⟩ (a dangling contig = tip candidate).
        assert_eq!(contig.vertex_type(), VertexType::One);
        assert_eq!(contig.neighbor_ids(), vec![77]);
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
        assert_eq!(node.sole_edge_on(Side::Left).unwrap().neighbor, 11);
        assert!(node.sole_edge_on(Side::Right).is_none());
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
            let vertex = KmerVertex::new(kmer.canonical().kmer);
            // Vary where the appended bases land in the output's last word.
            let prefix = DnaString::from_bases(
                &(0..(k * 7) % 40)
                    .map(|i| Base::from_code((i % 4) as u8))
                    .collect::<Vec<_>>(),
            );
            let seq = NodeSeq::Kmer(vertex.kmer);
            check_append(&vertex, &seq, &prefix, &format!("KmerVertex k={k}"));
        }
        // A contig member of round two, longer than a word.
        let contig = AsmNode::new_contig(
            ids::contig_id(1, 7),
            DnaString::from_ascii(&"GATTACACCGT".repeat(7)).unwrap(),
            3,
        );
        let prefix = DnaString::from_ascii("TTG").unwrap();
        check_append(&contig, &contig.seq, &prefix, "contig");
    }

    #[test]
    fn kmer_vertex_expands_to_asm_node() {
        // Vertex "AC" with two incident edges taken from the chain
        // AT→TT→TG→... of Figure 4 is fiddly to set up by hand; instead use
        // the Figure 8(b) vertex "ACGG" with its two items.
        let mut v = KmerVertex::new(km("ACGG"));
        v.adj.add(
            EdgeSlot {
                polarity: Polarity::HH,
                direction: Direction::In,
                base: Base::G,
            },
            7,
        );
        v.adj.add(
            EdgeSlot {
                polarity: Polarity::HL,
                direction: Direction::Out,
                base: Base::A,
            },
            9,
        );
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
        assert!(v.footprint_bytes() < 8 + 4 + 4 * 32);
    }
}
