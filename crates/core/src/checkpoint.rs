//! Stage-boundary checkpointing of a [`GraphState`].
//!
//! Pregel's signature production property is recovery: a failed run restarts
//! from a consistent snapshot instead of losing the whole job. This module
//! provides that snapshot for the assembly pipeline — the
//! [`Pipeline`](crate::pipeline::Pipeline) saves the [`GraphState`] after
//! each completed stage (under a
//! [`CheckpointPolicy`](crate::pipeline::CheckpointPolicy)), and
//! [`Pipeline::resume`](crate::pipeline::Pipeline::resume) reloads the latest
//! snapshot and replays only the remaining stages.
//!
//! # On-disk format
//!
//! A checkpoint directory holds one subdirectory per retained snapshot,
//! named `stage-NNNN` after the number of *flattened* pipeline stages
//! completed (repeat blocks unrolled — the paper workflow ①②③(④⑤②③)×2 has 12
//! flattened stages). Inside a snapshot:
//!
//! | file            | contents                                             |
//! |-----------------|------------------------------------------------------|
//! | `nodes.col`     | [`GraphState::nodes`] as packed k-mer columns         |
//! | `labels.col`    | [`GraphState::labels`]: the `u32` label column, the fallback flag, Pregel metrics |
//! | `contigs.col`   | [`GraphState::contigs`] as node columns, IDs strictly ascending |
//! | `ambiguous.col` | [`GraphState::ambiguous_kmers`] as node columns, IDs strictly ascending |
//! | `output.col`    | [`GraphState::output`] contigs as flat columns       |
//! | `MANIFEST`      | magic + version, pipeline position, repeat-loop round counters, config/reads fingerprints, worker count, per-file `(length, striped checksum)` |
//!
//! Sections are **column dumps**. Node columns are an ID column, a coverage
//! column, a sequence-tag column, the packed k-mer and 2-bit contig-word
//! columns, an edge-count column, and flattened edge columns (neighbor /
//! packed direction+polarity / coverage). Packed k-mer columns keep Figure
//! 8's form: a packed canonical k-mer column, a k column, a 32-bit adjacency
//! bitmap column and the flattened per-slot coverages. All integers are
//! little-endian. The module owns its codec: a `Writer` appends values to a
//! `Vec`, so encoding cannot fail, and a `Reader` is a cursor over one
//! section that knows its file name, so a short or malformed value is a typed
//! error at its offset.
//!
//! # Crash safety and validation
//!
//! The `MANIFEST` is written **last**: a crash mid-save leaves a snapshot
//! without a manifest, which [`latest`] ignores, so a resumed run never sees
//! a half-written checkpoint. On load, every section file is validated
//! against the manifest's recorded length and striped `checksum64`, and the
//! decoders themselves never panic on malformed bytes — truncation and
//! corruption surface as typed [`CheckpointError`]s. A manifest also records
//! a fingerprint of the pipeline configuration and of the input reads, so
//! resuming with a different config or a different read set is rejected with
//! [`CheckpointError::Mismatch`] instead of silently producing garbage. The
//! reads fingerprint digests the read slab's columns ([`reads_fingerprint`]):
//! the packed bases and their breaks since v6, the bytes as read before it.
//! A snapshot from an older format is refused by its version.
//!
//! After a successful save the pipeline keeps only the newest snapshot:
//! [`save_with_reads_fingerprint`] prunes every other `stage-*` subdirectory.

use crate::node::{AsmNode, Edge, KmerGraph, NodeSeq};
use crate::ops::label::LabelOutcome;
use crate::pipeline::GraphState;
use crate::polarity::{Direction, Polarity};
use crate::stats::PhaseTimes;
use crate::workflow::Contig;
use ppa_pregel::{Metrics, SuperstepMetrics};
use ppa_seq::{DnaString, Kmer, ReadSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First 8 bytes of every `MANIFEST`.
const MAGIC: [u8; 8] = *b"PPACKPT1";
/// Format version stamped into and checked against every manifest.
/// v3 added the cancellation-check counters to the metrics codec; v4 added
/// the out-of-core spill counters; v5 added the node-set form, which selects
/// the codec of `nodes.col`; v6 fingerprints the reads by their packed 2-bit
/// bases and break positions (the sections keep v5's bytes); v7 drops the
/// node-set form: `nodes.col` is always the k-mer section, and the node
/// sections list their IDs strictly ascending; v8 stores the labels as one
/// `u32` per node (the label's rank or the ambiguous mark) instead of
/// `(id, label)` pairs and a list of ambiguous IDs.
const VERSION: u32 = 8;
/// The manifest file name inside a snapshot directory.
const MANIFEST_FILE: &str = "MANIFEST";

/// The section files of a snapshot, in write order.
const SECTIONS: [&str; 5] = [
    "nodes.col",
    "labels.col",
    "contigs.col",
    "ambiguous.col",
    "output.col",
];

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed checkpoint failure. Loading never panics: malformed bytes on disk
/// become [`Truncated`](CheckpointError::Truncated) or
/// [`Corrupt`](CheckpointError::Corrupt), and a snapshot that does not match
/// the resuming run becomes [`Mismatch`](CheckpointError::Mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An I/O operation failed (also produced by injected checkpoint-write
    /// faults).
    Io(String),
    /// A file ended before the data it promised (or is shorter than the
    /// manifest recorded).
    Truncated {
        /// The offending file.
        file: String,
        /// What was being read.
        detail: String,
    },
    /// A file's contents are structurally invalid (bad magic, bad tag,
    /// checksum mismatch, …).
    Corrupt {
        /// The offending file.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// The snapshot is internally valid but belongs to a different run
    /// (different pipeline config, read set, or worker count).
    Mismatch {
        /// Which recorded property disagreed.
        what: String,
        /// Value recorded in the manifest.
        expected: String,
        /// Value of the resuming run.
        actual: String,
    },
    /// No complete snapshot exists under the checkpoint directory.
    NotFound(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Truncated { file, detail } => {
                write!(f, "truncated checkpoint file {file}: {detail}")
            }
            CheckpointError::Corrupt { file, detail } => {
                write!(f, "corrupt checkpoint file {file}: {detail}")
            }
            CheckpointError::Mismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "checkpoint {what} mismatch: snapshot has {expected}, this run has {actual}"
            ),
            CheckpointError::NotFound(dir) => {
                write!(f, "no complete checkpoint found under {dir}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// The codec: little-endian values appended to a `Vec`, read back off a slice
// ---------------------------------------------------------------------------

/// Appends little-endian values to a section's bytes. Writing into a `Vec`
/// cannot fail, so neither can an encoder.
#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// One byte, 0 or 1.
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// The IEEE-754 bit pattern, so the value round-trips exactly.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u64` byte length, then the UTF-8 bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.raw(s.as_bytes());
    }
}

/// Reads a section back: a cursor over its bytes that knows the section's
/// file name, so a short or malformed value is a typed [`CheckpointError`]
/// at its offset, never a panic.
struct Reader<'a> {
    file: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(file: &'a str, bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            file,
            bytes,
            pos: 0,
        }
    }

    /// The bytes not read yet.
    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn corrupt(&self, detail: impl fmt::Display) -> CheckpointError {
        CheckpointError::Corrupt {
            file: self.file.into(),
            detail: detail.to_string(),
        }
    }

    fn truncated(&self, needed: usize) -> CheckpointError {
        CheckpointError::Truncated {
            file: self.file.into(),
            detail: format!(
                "offset {}: needed {needed} bytes, {} remain",
                self.pos,
                self.rest().len()
            ),
        }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let bytes = self.rest().get(..n).ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let &head = self.rest().first_chunk().ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        self.u64().map(f64::from_bits)
    }

    /// A `u64` read as a length or count (saturated where `usize` is
    /// narrower, so it fails as truncation).
    fn count(&mut self) -> Result<usize, CheckpointError> {
        self.u64().map(|n| usize::try_from(n).unwrap_or(usize::MAX))
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format_args!(
                "offset {at}: bool byte must be 0 or 1, got {b}"
            ))),
        }
    }

    fn str(&mut self) -> Result<&'a str, CheckpointError> {
        let at = self.pos;
        let len = self.count()?;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| self.corrupt(format_args!("offset {at}: string is not valid UTF-8")))
    }

    /// A column of `n` values of `N` bytes each. Its bytes are taken before
    /// anything is allocated, so a corrupt count fails as truncation instead
    /// of reserving memory.
    fn column<const N: usize, T>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CheckpointError> {
        let bytes = self.take(n.saturating_mul(N))?;
        Ok(bytes.as_chunks().0.iter().map(|&v| decode(v)).collect())
    }

    /// A `u64` count, then a [`column`](Reader::column) of that many values.
    fn counted<const N: usize, T>(
        &mut self,
        decode: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.count()?;
        self.column(n, decode)
    }

    /// A sequence of `len` bases: its 2-bit words, 32 bases to a word.
    fn dna(&mut self, len: u64) -> Result<DnaString, CheckpointError> {
        let at = self.pos;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let words = self.column(len.div_ceil(32), u64::from_le_bytes)?;
        DnaString::from_raw_parts(words, len)
            .map_err(|err| self.corrupt(format_args!("offset {at}: {err}")))
    }

    /// Refuses bytes after the last value.
    fn finish(&self) -> Result<(), CheckpointError> {
        match self.rest().len() {
            0 => Ok(()),
            n => Err(self.corrupt(format_args!("offset {}: {n} trailing bytes", self.pos))),
        }
    }
}

// ---------------------------------------------------------------------------
// FNV-1a hashing (checksums and fingerprints)
// ---------------------------------------------------------------------------

/// A streaming 64-bit FNV-1a hasher, used for section checksums and for the
/// pipeline/reads fingerprints recorded in the manifest.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string into the hash (unambiguous under
    /// concatenation).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The hash value so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Fast checksum for bulk data (section files, read sequences): four
/// independent FNV-style lanes, each consuming one little-endian `u64` word
/// per multiply, folded into a single value together with the input length.
///
/// Byte-wise FNV-1a is a serial one-multiply-per-*byte* dependency chain,
/// which makes checksumming the dominant cost of saving and validating
/// multi-megabyte snapshots. Striping across four lanes processes 32 bytes
/// per round with independent multiplies, roughly an order of magnitude
/// faster, while a single flipped bit still changes the folded value.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_LANES;
    // Panic-free word load: `chunks_exact(8)` guarantees 8 bytes, but the
    // codec rules ban `expect`, so assemble the word with a bounded copy.
    fn lane_word(word: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        for (dst, &src) in w.iter_mut().zip(word) {
            *dst = src;
        }
        u64::from_le_bytes(w)
    }
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *lane = (*lane ^ lane_word(word)).wrapping_mul(CHECKSUM_PRIME);
        }
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        for (dst, &src) in padded.iter_mut().zip(tail) {
            *dst = src;
        }
        for (lane, word) in lanes.iter_mut().zip(padded.chunks_exact(8)) {
            *lane = (*lane ^ lane_word(word)).wrapping_mul(CHECKSUM_PRIME);
        }
    }
    fold_lanes(lanes, bytes.len())
}

/// [`checksum64`] of the words' little-endian bytes, without materialising
/// them (the read set's offset columns).
fn checksum64_words(words: &[u64]) -> u64 {
    let mut lanes = CHECKSUM_LANES;
    let mut quads = words.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &word) in lanes.iter_mut().zip(quad) {
            *lane = (*lane ^ word).wrapping_mul(CHECKSUM_PRIME);
        }
    }
    let tail = quads.remainder();
    if !tail.is_empty() {
        let mut padded = [0u64; 4];
        for (dst, &src) in padded.iter_mut().zip(tail) {
            *dst = src;
        }
        for (lane, word) in lanes.iter_mut().zip(padded) {
            *lane = (*lane ^ word).wrapping_mul(CHECKSUM_PRIME);
        }
    }
    fold_lanes(lanes, words.len() * 8)
}

const CHECKSUM_PRIME: u64 = 0x0000_0100_0000_01b3;
const CHECKSUM_LANES: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x9ae1_6a3b_2f90_404f,
    0x6c62_272e_07bb_0142,
    0xaf63_bd4c_8601_b7df,
];

/// Word-granular FNV-style fold: one multiply per lane (cheap enough to
/// keep [`checksum64`] fast on small buffers too), then the byte length.
fn fold_lanes(lanes: [u64; 4], len: usize) -> u64 {
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for lane in lanes {
        fold = (fold ^ lane).wrapping_mul(CHECKSUM_PRIME);
    }
    (fold ^ len as u64).wrapping_mul(CHECKSUM_PRIME)
}

/// Fingerprint of an input read set: the read count plus one striped
/// checksum per column of its slab — the packed bases, the break positions,
/// the names and both end-offset columns, so a moved read boundary changes
/// it even when the bases and names do not. A resumed run must present the
/// same reads the checkpoint was taken from; this runs on every save *and*
/// every load, so it hashes whole words, never a base at a time.
pub fn reads_fingerprint(reads: &ReadSet) -> u64 {
    let slab = &reads.records;
    let mut h = Fnv64::new();
    h.write_u64(slab.len() as u64);
    h.write_u64(checksum64_words(slab.words()));
    h.write_u64(checksum64_words(slab.breaks()));
    h.write_u64(checksum64_words(slab.base_ends()));
    h.write_u64(checksum64(slab.names()));
    h.write_u64(checksum64_words(slab.name_ends()));
    h.finish()
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Length + checksum of one section file, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileEntry {
    name: String,
    len: u64,
    checksum: u64,
}

/// The decoded `MANIFEST` of a snapshot: where in the pipeline the snapshot
/// was taken and what it must match to be resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Number of flattened pipeline stages completed when the snapshot was
    /// taken (the resume point: replay starts at this flattened index).
    pub completed_stages: usize,
    /// Per-stage-name 1-based round counters at the snapshot (the repeat-loop
    /// position), so replayed stages continue the numbering — e.g. after
    /// round 1 of the correction loop, `("label", 2)` records that the next
    /// `Label` is round 3.
    pub rounds: Vec<(String, usize)>,
    /// Fingerprint of the pipeline structure and stage configurations.
    pub pipeline_fingerprint: u64,
    /// Fingerprint of the input read set ([`reads_fingerprint`]).
    pub reads_fingerprint: u64,
    /// Worker count of the run that wrote the snapshot.
    pub workers: usize,
    /// [`GraphState::rewired`] at the snapshot.
    pub rewired: bool,
    /// Section files with their recorded lengths and checksums.
    files: Vec<FileEntry>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.raw(&MAGIC);
        w.u32(VERSION);
        w.u64(self.completed_stages as u64);
        w.u64(self.rounds.len() as u64);
        for (name, round) in &self.rounds {
            w.str(name);
            w.u64(*round as u64);
        }
        w.u64(self.pipeline_fingerprint);
        w.u64(self.reads_fingerprint);
        w.u64(self.workers as u64);
        w.bool(self.rewired);
        w.u64(self.files.len() as u64);
        for f in &self.files {
            w.str(&f.name);
            w.u64(f.len);
            w.u64(f.checksum);
        }
        w.0
    }

    fn decode(bytes: &[u8]) -> Result<Manifest, CheckpointError> {
        let mut r = Reader::new(MANIFEST_FILE, bytes);
        let magic: [u8; 8] = r.array()?;
        if magic != MAGIC {
            return Err(r.corrupt(format_args!("bad magic {magic:02x?}")));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::Mismatch {
                what: "format version".into(),
                expected: version.to_string(),
                actual: VERSION.to_string(),
            });
        }
        let completed_stages = r.count()?;
        // Rows are pushed as they are read: a corrupt count runs out of bytes.
        let mut rounds = Vec::new();
        for _ in 0..r.u64()? {
            rounds.push((r.str()?.to_string(), r.count()?));
        }
        let pipeline_fingerprint = r.u64()?;
        let reads_fingerprint = r.u64()?;
        let workers = r.count()?;
        let rewired = r.bool()?;
        let mut files = Vec::new();
        for _ in 0..r.u64()? {
            files.push(FileEntry {
                name: r.str()?.to_string(),
                len: r.u64()?,
                checksum: r.u64()?,
            });
        }
        r.finish()?;
        Ok(Manifest {
            completed_stages,
            rounds,
            pipeline_fingerprint,
            reads_fingerprint,
            workers,
            rewired,
            files,
        })
    }
}

// ---------------------------------------------------------------------------
// Section encoding: columnar node / label / contig dumps
// ---------------------------------------------------------------------------

/// Sequence tag column values.
const TAG_KMER: u8 = 0;
const TAG_CONTIG: u8 = 1;

fn pack_edge_meta(e: &Edge) -> u8 {
    let dir = match e.direction {
        Direction::Out => 0u8,
        Direction::In => 1u8,
    };
    (dir << 2) | e.polarity.index() as u8
}

/// The direction and polarity packed in an edge meta byte, if it is one.
fn unpack_edge_meta(byte: u8) -> Option<(Direction, Polarity)> {
    let direction = match byte >> 2 {
        0 => Direction::Out,
        1 => Direction::In,
        _ => return None,
    };
    Some((direction, Polarity::from_index(byte as usize & 0b11)))
}

/// Encodes a node slice as flat columns: ids, coverages, sequence tags,
/// packed k-mers (+k), contig lengths + 2-bit words, edge counts, and
/// flattened edge columns.
fn encode_nodes(nodes: &[AsmNode]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(nodes.len() as u64);
    nodes.iter().for_each(|n| w.u64(n.id));
    nodes.iter().for_each(|n| w.u32(n.coverage));
    for n in nodes {
        w.u8(match &n.seq {
            NodeSeq::Kmer(_) => TAG_KMER,
            NodeSeq::Contig(_) => TAG_CONTIG,
        });
    }
    // K-mer columns (packed bits, then k values), in node order.
    let kmers = || {
        nodes.iter().filter_map(|n| match &n.seq {
            NodeSeq::Kmer(k) => Some(k),
            NodeSeq::Contig(_) => None,
        })
    };
    kmers().for_each(|k| w.u64(k.packed()));
    kmers().for_each(|k| w.u8(k.k() as u8));
    // Contig columns: base lengths, then all 2-bit words concatenated.
    let contigs = || {
        nodes.iter().filter_map(|n| match &n.seq {
            NodeSeq::Kmer(_) => None,
            NodeSeq::Contig(s) => Some(s),
        })
    };
    contigs().for_each(|s| w.u64(s.len() as u64));
    contigs()
        .flat_map(DnaString::words)
        .for_each(|&word| w.u64(word));
    // Edge columns.
    nodes.iter().for_each(|n| w.u32(n.edges.len() as u32));
    let edges = || nodes.iter().flat_map(|n| &n.edges);
    edges().for_each(|e| w.u64(e.neighbor));
    edges().for_each(|e| w.u8(pack_edge_meta(e)));
    edges().for_each(|e| w.u32(e.coverage));
    w.0
}

fn decode_nodes(file: &str, bytes: &[u8]) -> Result<Vec<AsmNode>, CheckpointError> {
    let mut r = Reader::new(file, bytes);
    let ids = r.counted(u64::from_le_bytes)?;
    let n = ids.len();
    // A node set lists its nodes in strictly ascending ID order
    // (`NodeSource`), and labeling refuses any other.
    if let Some(at) = ids.iter().zip(ids.iter().skip(1)).position(|(a, b)| a >= b) {
        return Err(r.corrupt(format_args!("node {}: IDs not strictly ascending", at + 1)));
    }
    let coverages = r.column(n, u32::from_le_bytes)?;
    let tags_at = r.pos;
    let tags = r.take(n)?;
    if let Some((i, tag)) = tags
        .iter()
        .enumerate()
        .find(|(_, &t)| !matches!(t, TAG_KMER | TAG_CONTIG))
    {
        let at = tags_at + i;
        return Err(r.corrupt(format_args!("offset {at}: unknown sequence tag {tag}")));
    }
    let kmer_count = tags.iter().filter(|&&t| t == TAG_KMER).count();
    let kmer_packed = r.column(kmer_count, u64::from_le_bytes)?;
    let kmer_k = r.take(kmer_count)?;
    let contig_lens = r.column(n - kmer_count, u64::from_le_bytes)?;
    let contig_seqs = contig_lens.into_iter().map(|len| r.dna(len));
    let contig_seqs = contig_seqs.collect::<Result<Vec<_>, _>>()?;
    let edge_counts = r.column(n, u32::from_le_bytes)?;
    let total_edges = edge_counts.iter().map(|&c| c as usize).sum();
    let edge_neighbors = r.column(total_edges, u64::from_le_bytes)?;
    let meta_at = r.pos;
    let mut edge_meta = Vec::with_capacity(total_edges);
    for (i, &byte) in r.take(total_edges)?.iter().enumerate() {
        let at = meta_at + i;
        edge_meta.push(unpack_edge_meta(byte).ok_or_else(|| {
            r.corrupt(format_args!(
                "offset {at}: edge meta byte {byte:#04x} out of range"
            ))
        })?);
    }
    let edge_coverages = r.column(total_edges, u32::from_le_bytes)?;
    r.finish()?;

    // Reassemble rows from the columns. Every column was read with its
    // exact counted length above, so consuming iterators (instead of
    // indexing, which the codec rules ban) can only underrun if the counts
    // themselves are inconsistent — which is reported as corruption.
    let underrun = |what: &str| {
        r.corrupt(format_args!(
            "{what} column shorter than its counted entries"
        ))
    };
    let mut nodes = Vec::with_capacity(n);
    let mut kmers = kmer_packed.into_iter().zip(kmer_k);
    let mut contigs = contig_seqs.into_iter();
    let mut edge_cols = edge_neighbors
        .into_iter()
        .zip(edge_meta)
        .zip(edge_coverages);
    let rows = ids.into_iter().zip(coverages).zip(tags).zip(edge_counts);
    for (i, (((id, coverage), &tag), edge_count)) in rows.enumerate() {
        let seq = if tag == TAG_KMER {
            let (packed, &k) = kmers.next().ok_or_else(|| underrun("k-mer"))?;
            Kmer::from_packed(packed, k.into())
                .map(NodeSeq::Kmer)
                .map_err(|err| r.corrupt(format_args!("k-mer column entry for node {i}: {err}")))?
        } else {
            NodeSeq::Contig(contigs.next().ok_or_else(|| underrun("contig"))?)
        };
        let edges = edge_cols
            .by_ref()
            .take(edge_count as usize)
            .map(|((neighbor, (direction, polarity)), coverage)| Edge {
                neighbor,
                direction,
                polarity,
                coverage,
            })
            .collect::<Vec<_>>();
        if edges.len() != edge_count as usize {
            return Err(underrun("edge"));
        }
        nodes.push(AsmNode {
            id,
            seq,
            coverage,
            edges,
        });
    }
    Ok(nodes)
}

/// Encodes the k-mer graph as flat columns: packed canonical k-mers, the
/// graph's k repeated per vertex, adjacency bitmaps, then every vertex's
/// coverages in bit order — the coverage column as it is.
fn encode_kmers(graph: &KmerGraph) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(graph.len() as u64);
    graph.iter().for_each(|v| w.u64(v.id()));
    (0..graph.len()).for_each(|_| w.u8(graph.k() as u8));
    graph.iter().for_each(|v| w.u32(v.bitmap()));
    for v in graph.iter() {
        v.coverages().iter().for_each(|&coverage| w.u32(coverage));
    }
    w.0
}

fn decode_kmers(file: &str, bytes: &[u8]) -> Result<KmerGraph, CheckpointError> {
    let mut r = Reader::new(file, bytes);
    let packed = r.counted(u64::from_le_bytes)?;
    // One k for the whole graph, repeated per vertex.
    let ks = r.take(packed.len())?;
    let k = ks.first().copied().unwrap_or_default();
    if let Some((i, ki)) = ks.iter().enumerate().find(|(_, &ki)| ki != k) {
        return Err(r.corrupt(format_args!(
            "k column not constant: vertex {i} has k = {ki}"
        )));
    }
    let bitmaps = r.column(packed.len(), u32::from_le_bytes)?;
    let slots = bitmaps.iter().map(|b| b.count_ones() as usize).sum();
    let coverages = r.column(slots, u32::from_le_bytes)?;
    r.finish()?;
    // Checks, in every build, what `KmerGraph::debug_validate` checks after
    // construction: canonical, strictly ascending k-mers (round 1 ranks by
    // position) and one counter per set bit.
    KmerGraph::from_columns(k.into(), packed, bitmaps, coverages).map_err(|e| r.corrupt(e))
}

fn encode_metrics(w: &mut Writer, m: &Metrics) {
    w.u64(m.supersteps as u64);
    w.u64(m.total_messages);
    w.u64(m.total_dropped);
    w.u64(m.total_compute_calls);
    w.u64(m.elapsed.as_nanos() as u64);
    w.bool(m.converged);
    w.f64(m.avg_frontier_density);
    w.u64(m.peak_store_resident_bytes);
    w.u64(m.total_cancellation_checks);
    w.u64(m.spilled_bytes);
    w.u64(m.spill_read_bytes);
    w.u64(m.spilled_runs);
    w.u64(m.per_superstep.len() as u64);
    for s in &m.per_superstep {
        w.u64(s.superstep as u64);
        w.u64(s.active_vertices as u64);
        w.u64(s.messages_sent);
        w.u64(s.messages_dropped);
        w.u64(s.elapsed.as_nanos() as u64);
        w.u64(s.compute_elapsed.as_nanos() as u64);
        w.u64(s.shuffle_elapsed.as_nanos() as u64);
        w.f64(s.pool_utilization);
        w.f64(s.frontier_density);
        w.u64(s.store_resident_bytes);
        w.f64(s.id_column_compression);
        w.u64(s.cancellation_checks);
        w.u64(s.spilled_bytes);
        w.u64(s.spill_read_bytes);
        w.u64(s.spilled_runs);
    }
}

fn decode_metrics(r: &mut Reader<'_>) -> Result<Metrics, CheckpointError> {
    let nanos = |r: &mut Reader<'_>| r.u64().map(Duration::from_nanos);
    let supersteps = r.count()?;
    let total_messages = r.u64()?;
    let total_dropped = r.u64()?;
    let total_compute_calls = r.u64()?;
    let elapsed = nanos(r)?;
    let converged = r.bool()?;
    let avg_frontier_density = r.f64()?;
    let peak_store_resident_bytes = r.u64()?;
    let total_cancellation_checks = r.u64()?;
    let spilled_bytes = r.u64()?;
    let spill_read_bytes = r.u64()?;
    let spilled_runs = r.u64()?;
    // Rows are pushed as they are read: a corrupt count runs out of bytes.
    let mut per_superstep = Vec::new();
    for _ in 0..r.u64()? {
        per_superstep.push(SuperstepMetrics {
            superstep: r.count()?,
            active_vertices: r.count()?,
            messages_sent: r.u64()?,
            messages_dropped: r.u64()?,
            elapsed: nanos(r)?,
            compute_elapsed: nanos(r)?,
            shuffle_elapsed: nanos(r)?,
            pool_utilization: r.f64()?,
            frontier_density: r.f64()?,
            store_resident_bytes: r.u64()?,
            id_column_compression: r.f64()?,
            cancellation_checks: r.u64()?,
            spilled_bytes: r.u64()?,
            spill_read_bytes: r.u64()?,
            spilled_runs: r.u64()?,
        });
    }
    Ok(Metrics {
        supersteps,
        total_messages,
        total_dropped,
        total_compute_calls,
        elapsed,
        converged,
        avg_frontier_density,
        peak_store_resident_bytes,
        total_cancellation_checks,
        spilled_bytes,
        spill_read_bytes,
        spilled_runs,
        per_superstep,
    })
}

fn encode_labels(labels: Option<&LabelOutcome>) -> Vec<u8> {
    let mut w = Writer::default();
    w.bool(labels.is_some());
    if let Some(outcome) = labels {
        w.u64(outcome.labels.len() as u64);
        outcome.labels.iter().for_each(|&label| w.u32(label));
        w.bool(outcome.used_cycle_fallback);
        encode_metrics(&mut w, &outcome.metrics);
    }
    w.0
}

fn decode_labels(file: &str, bytes: &[u8]) -> Result<Option<LabelOutcome>, CheckpointError> {
    let mut r = Reader::new(file, bytes);
    let outcome = if r.bool()? {
        // Struct fields are read in the order they are written here.
        Some(LabelOutcome {
            labels: r.counted(u32::from_le_bytes)?,
            used_cycle_fallback: r.bool()?,
            metrics: decode_metrics(&mut r)?,
            phases: PhaseTimes::default(),
        })
    } else {
        None
    };
    r.finish()?;
    Ok(outcome)
}

fn encode_output(output: &[Contig]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(output.len() as u64);
    output.iter().for_each(|c| w.u64(c.id));
    output.iter().for_each(|c| w.u32(c.coverage));
    output.iter().for_each(|c| w.u64(c.sequence.len() as u64));
    for c in output {
        c.sequence.words().iter().for_each(|&word| w.u64(word));
    }
    w.0
}

fn decode_output(file: &str, bytes: &[u8]) -> Result<Vec<Contig>, CheckpointError> {
    let mut r = Reader::new(file, bytes);
    let ids = r.counted(u64::from_le_bytes)?;
    let coverages = r.column(ids.len(), u32::from_le_bytes)?;
    let lens = r.column(ids.len(), u64::from_le_bytes)?;
    // Row reassembly without indexing: all three columns hold exactly as
    // many entries as the ID column, so the zip below visits every row.
    let mut contigs = Vec::with_capacity(ids.len());
    for ((id, coverage), len) in ids.into_iter().zip(coverages).zip(lens) {
        contigs.push(Contig {
            id,
            sequence: r.dna(len)?,
            coverage,
        });
    }
    r.finish()?;
    Ok(contigs)
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

/// Pipeline-side inputs to [`save_with_reads_fingerprint`]: the resume point
/// and the identity of the run taking the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Number of flattened stages completed (names the snapshot directory).
    pub completed_stages: usize,
    /// Per-stage-name round counters at the snapshot.
    pub rounds: Vec<(String, usize)>,
    /// Fingerprint of the pipeline structure + stage configurations.
    pub pipeline_fingerprint: u64,
    /// Worker count of the writing run.
    pub workers: usize,
}

/// Saves `state` as snapshot `stage-<completed_stages>` under `dir`, creating
/// the directory as needed. Section files are written first and the
/// `MANIFEST` last, so a crash mid-save never leaves a loadable half-written
/// snapshot; on success every older (or staler) `stage-*` sibling is pruned.
/// Returns the snapshot directory.
///
/// `reads_fingerprint` is the precomputed [`reads_fingerprint`] of
/// `state.reads`. The reads are immutable for the lifetime of a pipeline
/// execution, so a caller saving many snapshots of the same run (e.g.
/// `CheckpointPolicy::EveryStage`) fingerprints them once instead of
/// re-hashing megabytes per stage.
pub fn save_with_reads_fingerprint(
    dir: &Path,
    state: &GraphState<'_>,
    meta: &CheckpointMeta,
    reads_fingerprint: u64,
) -> Result<PathBuf, CheckpointError> {
    let name = format!("stage-{:04}", meta.completed_stages);
    let ckpt = dir.join(&name);
    fs::create_dir_all(&ckpt)?;
    let [s_nodes, s_labels, s_contigs, s_ambiguous, s_output] = SECTIONS;
    let sections: [(&str, Vec<u8>); 5] = [
        (s_nodes, encode_kmers(&state.nodes)),
        (s_labels, encode_labels(state.labels.as_ref())),
        (s_contigs, encode_nodes(&state.contigs)),
        (s_ambiguous, encode_nodes(&state.ambiguous_kmers)),
        (s_output, encode_output(&state.output)),
    ];
    let mut files = Vec::with_capacity(sections.len());
    for (file, bytes) in &sections {
        fs::write(ckpt.join(file), bytes)?;
        files.push(FileEntry {
            name: (*file).to_string(),
            len: bytes.len() as u64,
            checksum: checksum64(bytes),
        });
    }
    let manifest = Manifest {
        completed_stages: meta.completed_stages,
        rounds: meta.rounds.clone(),
        pipeline_fingerprint: meta.pipeline_fingerprint,
        reads_fingerprint,
        workers: meta.workers,
        rewired: state.rewired,
        files,
    };
    fs::write(ckpt.join(MANIFEST_FILE), manifest.encode())?;
    // Keep only this snapshot: prune every other stage-* sibling.
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let entry_name = entry.file_name();
        let entry_name = entry_name.to_string_lossy();
        if entry_name.starts_with("stage-") && entry_name != name.as_str() {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
    Ok(ckpt)
}

/// The most advanced complete snapshot under `dir`: the highest-numbered
/// `stage-*` subdirectory that contains a `MANIFEST`. Returns `Ok(None)` if
/// the directory does not exist or holds no complete snapshot.
// ppa_lint: allow(test-only-pub) the seam `tests/{cancellation,fault_tolerance}.rs` read which snapshot a failed run left with
pub fn latest(dir: &Path) -> Result<Option<PathBuf>, CheckpointError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(number) = name.strip_prefix("stage-") else {
            continue;
        };
        let Ok(number) = number.parse::<u64>() else {
            continue;
        };
        if !entry.path().join(MANIFEST_FILE).is_file() {
            continue; // half-written snapshot (crash mid-save): ignore
        }
        if best.as_ref().is_none_or(|(b, _)| number > *b) {
            best = Some((number, entry.path()));
        }
    }
    Ok(best.map(|(_, path)| path))
}

/// Loads the snapshot in `ckpt` (a `stage-*` directory), validating every
/// section against the manifest and the snapshot against `reads`. Returns
/// the restored state plus the manifest describing the resume point.
pub fn load<'r>(
    ckpt: &Path,
    reads: &'r ReadSet,
) -> Result<(GraphState<'r>, Manifest), CheckpointError> {
    let manifest_bytes = fs::read(ckpt.join(MANIFEST_FILE)).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::NotFound(ckpt.display().to_string())
        } else {
            e.into()
        }
    })?;
    let manifest = Manifest::decode(&manifest_bytes)?;
    let actual_reads_fp = reads_fingerprint(reads);
    if manifest.reads_fingerprint != actual_reads_fp {
        return Err(CheckpointError::Mismatch {
            what: "input reads".into(),
            expected: format!("{:#018x}", manifest.reads_fingerprint),
            actual: format!("{actual_reads_fp:#018x}"),
        });
    }
    let mut sections: Vec<Vec<u8>> = Vec::with_capacity(manifest.files.len());
    for entry in &manifest.files {
        let path = ckpt.join(&entry.name);
        let bytes = fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CheckpointError::Corrupt {
                    file: entry.name.clone(),
                    detail: "section file missing".into(),
                }
            } else {
                e.into()
            }
        })?;
        if bytes.len() as u64 != entry.len {
            return Err(CheckpointError::Truncated {
                file: entry.name.clone(),
                detail: format!(
                    "manifest records {} bytes, file has {}",
                    entry.len,
                    bytes.len()
                ),
            });
        }
        let checksum = checksum64(&bytes);
        if checksum != entry.checksum {
            return Err(CheckpointError::Corrupt {
                file: entry.name.clone(),
                detail: format!(
                    "checksum {:#018x} != recorded {:#018x}",
                    checksum, entry.checksum
                ),
            });
        }
        sections.push(bytes);
    }
    let expected: Vec<&str> = manifest.files.iter().map(|f| f.name.as_str()).collect();
    if expected != SECTIONS {
        return Err(CheckpointError::Corrupt {
            file: MANIFEST_FILE.into(),
            detail: format!("unexpected section list {expected:?}"),
        });
    }
    // The section list was just validated against SECTIONS, so the array
    // destructure (index-free, per the codec rules) cannot fail.
    let Ok([b_nodes, b_labels, b_contigs, b_ambiguous, b_output]) =
        <[Vec<u8>; 5]>::try_from(sections)
    else {
        return Err(CheckpointError::Corrupt {
            file: MANIFEST_FILE.into(),
            detail: "section count mismatch".into(),
        });
    };
    let [s_nodes, s_labels, s_contigs, s_ambiguous, s_output] = SECTIONS;
    let nodes = decode_kmers(s_nodes, &b_nodes)?;
    let labels = decode_labels(s_labels, &b_labels)?;
    let contigs = decode_nodes(s_contigs, &b_contigs)?;
    let ambiguous_kmers = decode_nodes(s_ambiguous, &b_ambiguous)?;
    let output = decode_output(s_output, &b_output)?;
    let state = GraphState {
        reads,
        nodes,
        labels,
        contigs,
        ambiguous_kmers,
        rewired: manifest.rewired,
        output,
    };
    Ok((state, manifest))
}

/// Loads the most advanced complete snapshot under `dir`
/// ([`latest`] + [`load`]); [`CheckpointError::NotFound`] if there is none.
pub fn load_latest<'r>(
    dir: &Path,
    reads: &'r ReadSet,
) -> Result<(GraphState<'r>, Manifest), CheckpointError> {
    let ckpt = latest(dir)?.ok_or_else(|| CheckpointError::NotFound(dir.display().to_string()))?;
    load(&ckpt, reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Saves `state` with its reads fingerprinted on the spot.
    fn save(
        dir: &Path,
        state: &GraphState<'_>,
        meta: &CheckpointMeta,
    ) -> Result<PathBuf, CheckpointError> {
        save_with_reads_fingerprint(dir, state, meta, reads_fingerprint(state.reads))
    }

    /// A deterministic SplitMix64 for building arbitrary states from a seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn arb_dna(mix: &mut Mix, max_len: u64) -> DnaString {
        let len = mix.below(max_len + 1) as usize;
        (0..len)
            .map(|_| ppa_seq::Base::from_code((mix.below(4)) as u8))
            .collect::<DnaString>()
    }

    fn arb_node(mix: &mut Mix) -> AsmNode {
        let seq = if mix.below(2) == 0 {
            let k = 1 + mix.below(31) as usize;
            let bases: Vec<ppa_seq::Base> = (0..k)
                .map(|_| ppa_seq::Base::from_code(mix.below(4) as u8))
                .collect();
            NodeSeq::Kmer(Kmer::from_bases(&bases).unwrap())
        } else {
            NodeSeq::Contig(arb_dna(mix, 100))
        };
        let edges = (0..mix.below(5))
            .map(|_| Edge {
                neighbor: mix.next(),
                direction: if mix.below(2) == 0 {
                    Direction::Out
                } else {
                    Direction::In
                },
                polarity: Polarity::from_index(mix.below(4) as usize),
                coverage: mix.below(1000) as u32,
            })
            .collect();
        AsmNode {
            id: mix.next(),
            seq,
            coverage: mix.below(1000) as u32,
            edges,
        }
    }

    /// A k-mer graph of at most `n` vertices: distinct canonical k-mers of
    /// one random k, ascending, each with a random bitmap and one coverage
    /// per set bit (the bitmaps need not describe a real graph).
    fn arb_kmer_graph(mix: &mut Mix, n: u64) -> KmerGraph {
        let k = 1 + mix.below(31) as usize;
        let mut kmers: Vec<u64> = (0..n)
            .map(|_| {
                let bases: Vec<ppa_seq::Base> = (0..k)
                    .map(|_| ppa_seq::Base::from_code(mix.below(4) as u8))
                    .collect();
                Kmer::from_bases(&bases).unwrap().canonical().kmer.packed()
            })
            .collect();
        kmers.sort_unstable();
        kmers.dedup();
        let bitmaps: Vec<u32> = kmers
            .iter()
            .map(|_| (mix.next() as u32) & (mix.next() as u32) & (mix.next() as u32))
            .collect();
        let slots: u32 = bitmaps.iter().map(|b| b.count_ones()).sum();
        let coverages = (0..slots).map(|_| mix.below(1000) as u32).collect();
        KmerGraph::from_columns(k, kmers, bitmaps, coverages).unwrap()
    }

    /// Fewer than `max` arbitrary nodes, in strictly ascending ID order.
    fn arb_nodes(mix: &mut Mix, max: u64) -> Vec<AsmNode> {
        let mut nodes: Vec<AsmNode> = (0..mix.below(max)).map(|_| arb_node(mix)).collect();
        nodes.sort_unstable_by_key(|node| node.id);
        nodes.dedup_by_key(|node| node.id);
        nodes
    }

    fn arb_metrics(mix: &mut Mix) -> Metrics {
        Metrics {
            supersteps: mix.below(50) as usize,
            total_messages: mix.next(),
            total_dropped: mix.below(100),
            total_compute_calls: mix.next(),
            elapsed: Duration::from_nanos(mix.below(1 << 40)),
            converged: mix.below(2) == 0,
            avg_frontier_density: (mix.below(1000) as f64) / 1000.0,
            peak_store_resident_bytes: mix.next(),
            total_cancellation_checks: mix.below(100),
            spilled_bytes: mix.next(),
            spill_read_bytes: mix.next(),
            spilled_runs: mix.below(64),
            per_superstep: (0..mix.below(4))
                .map(|s| SuperstepMetrics {
                    superstep: s as usize,
                    active_vertices: mix.below(10_000) as usize,
                    messages_sent: mix.next(),
                    messages_dropped: mix.below(10),
                    elapsed: Duration::from_nanos(mix.below(1 << 40)),
                    compute_elapsed: Duration::from_nanos(mix.below(1 << 40)),
                    shuffle_elapsed: Duration::from_nanos(mix.below(1 << 40)),
                    pool_utilization: (mix.below(1000) as f64) / 1000.0,
                    frontier_density: (mix.below(1000) as f64) / 1000.0,
                    store_resident_bytes: mix.next(),
                    id_column_compression: (mix.below(1000) as f64) / 1000.0,
                    cancellation_checks: mix.below(2),
                    spilled_bytes: mix.next(),
                    spill_read_bytes: mix.next(),
                    spilled_runs: mix.below(8),
                })
                .collect(),
        }
    }

    fn arb_state(mix: &mut Mix, reads: &'static ReadSet) -> GraphState<'static> {
        let vertices = mix.below(20);
        GraphState {
            reads,
            nodes: arb_kmer_graph(mix, vertices),
            labels: if mix.below(2) == 0 {
                Some(LabelOutcome {
                    labels: (0..mix.below(20)).map(|_| mix.next() as u32).collect(),
                    metrics: arb_metrics(mix),
                    used_cycle_fallback: mix.below(2) == 0,
                    phases: PhaseTimes::default(),
                })
            } else {
                None
            },
            contigs: arb_nodes(mix, 10),
            ambiguous_kmers: arb_nodes(mix, 10),
            rewired: mix.below(2) == 0,
            output: (0..mix.below(10))
                .map(|_| Contig {
                    id: mix.next(),
                    sequence: arb_dna(mix, 200),
                    coverage: mix.below(1000) as u32,
                })
                .collect(),
        }
    }

    fn test_reads() -> &'static ReadSet {
        use std::sync::OnceLock;
        static READS: OnceLock<ReadSet> = OnceLock::new();
        READS.get_or_init(|| {
            [("r1", "ACGTACGT"), ("r2", "TTGCATGC")]
                .into_iter()
                .collect()
        })
    }

    fn meta(completed: usize) -> CheckpointMeta {
        CheckpointMeta {
            completed_stages: completed,
            rounds: vec![("construct".into(), 1), ("label".into(), 2)],
            pipeline_fingerprint: 0xfeed_beef,
            workers: 2,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppa-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips_an_arbitrary_state() {
        let reads = test_reads();
        let mut mix = Mix(42);
        let state = arb_state(&mut mix, reads);
        let dir = tmp_dir("roundtrip");
        let ckpt = save(&dir, &state, &meta(3)).unwrap();
        assert!(ckpt.ends_with("stage-0003"));
        let (restored, manifest) = load_latest(&dir, reads).unwrap();
        assert_eq!(restored, state);
        assert_eq!(manifest.completed_stages, 3);
        assert_eq!(manifest.rounds, meta(3).rounds);
        assert_eq!(manifest.pipeline_fingerprint, 0xfeed_beef);
        assert_eq!(manifest.workers, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_save_prunes_older_snapshots() {
        let reads = test_reads();
        let mut mix = Mix(7);
        let state = arb_state(&mut mix, reads);
        let dir = tmp_dir("prune");
        save(&dir, &state, &meta(1)).unwrap();
        save(&dir, &state, &meta(2)).unwrap();
        let kept: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(kept, vec!["stage-0002".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_without_manifest_is_invisible() {
        let reads = test_reads();
        let mut mix = Mix(8);
        let state = arb_state(&mut mix, reads);
        let dir = tmp_dir("no-manifest");
        let ckpt = save(&dir, &state, &meta(1)).unwrap();
        // Simulate a crash between the section writes and the manifest write.
        fs::remove_file(ckpt.join(MANIFEST_FILE)).unwrap();
        assert_eq!(latest(&dir).unwrap(), None);
        assert!(matches!(
            load_latest(&dir, reads),
            Err(CheckpointError::NotFound(_))
        ));
        // A directory that never existed behaves the same.
        assert_eq!(latest(&dir.join("nope")).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A state with a non-empty k-mer graph and at least one contig.
    fn state_with_nodes(mix: &mut Mix) -> GraphState<'static> {
        let mut state = arb_state(mix, test_reads());
        state.nodes = arb_kmer_graph(mix, 2);
        state.contigs.push(arb_node(mix));
        state.contigs.sort_unstable_by_key(|node| node.id);
        state
    }

    #[test]
    fn truncated_section_is_a_typed_error() {
        let reads = test_reads();
        for (seed, file) in [(9, "contigs.col"), (19, "nodes.col")] {
            let state = state_with_nodes(&mut Mix(seed));
            let dir = tmp_dir(&format!("truncate-{file}"));
            let ckpt = save(&dir, &state, &meta(1)).unwrap();
            let path = ckpt.join(file);
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            let err = load_latest(&dir, reads).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { file: ref f, .. } if f == file),
                "{err}"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupted_section_is_a_typed_error() {
        let reads = test_reads();
        for (seed, file) in [(10, "contigs.col"), (20, "nodes.col")] {
            let state = state_with_nodes(&mut Mix(seed));
            let dir = tmp_dir(&format!("corrupt-{file}"));
            let ckpt = save(&dir, &state, &meta(1)).unwrap();
            let path = ckpt.join(file);
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF; // flip bits, keep the length
            fs::write(&path, &bytes).unwrap();
            let err = load_latest(&dir, reads).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { file: ref f, .. } if f == file),
                "{err}"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Saves a snapshot, stamps its manifest with format `version` and
    /// loads it back.
    fn load_as_version(version: u32, tag: &str) -> Result<(), CheckpointError> {
        let reads = test_reads();
        let state = arb_state(&mut Mix(13), reads);
        let dir = tmp_dir(tag);
        let ckpt = save(&dir, &state, &meta(1)).unwrap();
        // The version follows the 8-byte magic.
        let path = ckpt.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let outcome = load_latest(&dir, reads).map(|_| ());
        fs::remove_dir_all(&dir).unwrap();
        outcome
    }

    #[test]
    fn a_version_4_snapshot_is_refused() {
        assert_eq!(
            load_as_version(4, "v4"),
            Err(CheckpointError::Mismatch {
                what: "format version".into(),
                expected: "4".into(),
                actual: "8".into(),
            })
        );
    }

    #[test]
    fn a_version_5_snapshot_is_refused() {
        // v5 fingerprinted the reads by the bytes as read, not the packed
        // bases: its reads fingerprint means nothing to a later reader.
        assert_eq!(
            load_as_version(5, "v5"),
            Err(CheckpointError::Mismatch {
                what: "format version".into(),
                expected: "5".into(),
                actual: "8".into(),
            })
        );
    }

    #[test]
    fn a_version_6_snapshot_is_refused() {
        // v6 recorded the form of `nodes.col` in the manifest and let a node
        // section list its nodes in any order.
        assert_eq!(
            load_as_version(6, "v6"),
            Err(CheckpointError::Mismatch {
                what: "format version".into(),
                expected: "6".into(),
                actual: "8".into(),
            })
        );
    }

    #[test]
    fn a_version_7_snapshot_is_refused() {
        // v7 stored `(id, label)` pairs and the ambiguous IDs, in an order
        // that depended on the worker count, where v8 has the label column.
        assert_eq!(
            load_as_version(7, "v7"),
            Err(CheckpointError::Mismatch {
                what: "format version".into(),
                expected: "7".into(),
                actual: "8".into(),
            })
        );
    }

    #[test]
    fn mismatched_reads_are_rejected() {
        let reads = test_reads();
        let mut mix = Mix(11);
        let state = arb_state(&mut mix, reads);
        let dir = tmp_dir("reads-mismatch");
        save(&dir, &state, &meta(1)).unwrap();
        // Other reads; one name byte changed; the same bases and names with
        // one read boundary moved (a bases-and-names digest misses that);
        // the same names with their boundary moved.
        let foreign: [&[(&str, &str)]; 4] = [
            &[("other", "GGGG")],
            &[("r1", "ACGTACGT"), ("r3", "TTGCATGC")],
            &[("r1", "ACGTACGTT"), ("r2", "TGCATGC")],
            &[("r", "ACGTACGT"), ("1r2", "TTGCATGC")],
        ];
        for records in foreign {
            let other: ReadSet = records.iter().copied().collect();
            let err = load_latest(&dir, &other).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Mismatch { ref what, .. } if what == "input reads"),
                "{records:?}: {err}"
            );
        }
        assert!(load_latest(&dir, reads).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_manifest_is_a_typed_error() {
        let reads = test_reads();
        let mut mix = Mix(12);
        let state = arb_state(&mut mix, reads);
        let dir = tmp_dir("bad-manifest");
        let ckpt = save(&dir, &state, &meta(1)).unwrap();
        let path = ckpt.join(MANIFEST_FILE);
        // Bad magic.
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_latest(&dir, reads),
            Err(CheckpointError::Corrupt { .. })
        ));
        // Truncated manifest.
        bytes[0] ^= 0xFF; // restore magic
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            load_latest(&dir, reads),
            Err(CheckpointError::Truncated { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_display_their_context() {
        let errs = [
            CheckpointError::Io("disk full".into()).to_string(),
            CheckpointError::Truncated {
                file: "nodes.col".into(),
                detail: "short".into(),
            }
            .to_string(),
            CheckpointError::Corrupt {
                file: "labels.col".into(),
                detail: "bad tag".into(),
            }
            .to_string(),
            CheckpointError::Mismatch {
                what: "pipeline config".into(),
                expected: "a".into(),
                actual: "b".into(),
            }
            .to_string(),
            CheckpointError::NotFound("/tmp/x".into()).to_string(),
        ];
        assert!(errs[0].contains("disk full"));
        assert!(errs[1].contains("nodes.col"));
        assert!(errs[2].contains("labels.col") && errs[2].contains("bad tag"));
        assert!(errs[3].contains("pipeline config"));
        assert!(errs[4].contains("/tmp/x"));
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let mut h = Fnv64::new();
        h.write_str("a");
        let ha = h.finish();
        let mut h = Fnv64::new();
        h.write_str("b");
        assert_ne!(ha, h.finish());
    }

    #[test]
    fn striped_checksum_detects_flips_padding_and_length() {
        // Deterministic, length-sensitive, and sensitive to a single bit flip
        // in every position — including the zero-padded tail, where padding
        // must not collide with genuine trailing zero bytes.
        let mut mix = Mix(7);
        for len in [0usize, 1, 7, 8, 31, 32, 33, 64, 100] {
            let data: Vec<u8> = (0..len).map(|_| mix.next() as u8).collect();
            assert_eq!(checksum64(&data), checksum64(&data.clone()));
            for i in 0..len {
                let mut flipped = data.clone();
                flipped[i] ^= 1;
                assert_ne!(checksum64(&data), checksum64(&flipped), "flip at {i}/{len}");
            }
            let mut extended = data.clone();
            extended.push(0);
            assert_ne!(checksum64(&data), checksum64(&extended), "len {len}+1 zero");
        }
    }

    #[test]
    fn word_checksum_equals_the_checksum_of_little_endian_bytes() {
        let mut mix = Mix(8);
        for len in [0usize, 1, 3, 4, 5, 8, 13] {
            let words: Vec<u64> = (0..len).map(|_| mix.next()).collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(checksum64_words(&words), checksum64(&bytes), "{len} words");
        }
    }

    /// Body of the round-trip property (kept out of the `proptest!` macro to
    /// bound its token-munching expansion depth): arbitrary `GraphState` →
    /// bytes → `GraphState` is the identity, and truncating the node section
    /// at any prefix yields a typed error, never a panic.
    fn check_roundtrip_for_seed(seed: u64) -> Result<(), String> {
        let reads = test_reads();
        let mut mix = Mix(seed);
        let state = arb_state(&mut mix, reads);

        // In-memory round-trip of every section codec.
        for nodes in [&state.contigs, &state.ambiguous_kmers] {
            let decoded =
                decode_nodes("contigs.col", &encode_nodes(nodes)).map_err(|e| e.to_string())?;
            if decoded != *nodes {
                return Err(format!("node round-trip diverged for seed {seed}"));
            }
        }
        let kmers = &state.nodes;
        let decoded = decode_kmers("nodes.col", &encode_kmers(kmers)).map_err(|e| e.to_string())?;
        if decoded != *kmers {
            return Err(format!("packed k-mer round-trip diverged for seed {seed}"));
        }
        let label_bytes = encode_labels(state.labels.as_ref());
        let labels = decode_labels("labels.col", &label_bytes).map_err(|e| e.to_string())?;
        if labels != state.labels {
            return Err(format!("label round-trip diverged for seed {seed}"));
        }
        let cut = (seed as usize) % label_bytes.len();
        if decode_labels("labels.col", &label_bytes[..cut]).is_ok() {
            return Err(format!(
                "label truncation at {cut} not rejected for seed {seed}"
            ));
        }
        let output = decode_output("output.col", &encode_output(&state.output))
            .map_err(|e| e.to_string())?;
        if output != state.output {
            return Err(format!("output round-trip diverged for seed {seed}"));
        }

        // Any truncation of either node codec is rejected with a typed
        // error, and a flipped bit never panics: it decodes to a typed error
        // or to some other well-formed set (decoders must never panic on
        // malformed input; the manifest's checksum catches the flip).
        let bytes = encode_nodes(&state.contigs);
        let cut = (seed as usize) % bytes.len().max(1);
        if cut < bytes.len() && decode_nodes("contigs.col", &bytes[..cut]).is_ok() {
            return Err(format!("truncation at {cut} not rejected for seed {seed}"));
        }
        let mut bytes = encode_kmers(kmers);
        let cut = (seed as usize) % bytes.len().max(1);
        if cut < bytes.len() && decode_kmers("nodes.col", &bytes[..cut]).is_ok() {
            return Err(format!(
                "packed truncation at {cut} not rejected for seed {seed}"
            ));
        }
        let bit = (seed as usize / 7) % (8 * bytes.len());
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(flipped) = decode_kmers("nodes.col", &bytes) {
            if flipped == *kmers {
                return Err(format!("bit flip {bit} went unseen for seed {seed}"));
            }
        }
        // Two vertices swapped, one repeated, or one k changed: the decoder
        // itself names the broken column (on disk the checksum would refuse
        // it first).
        for (mutation, want) in [
            (swap_first_ids as fn(&mut [u8]), "not strictly ascending"),
            (repeat_first_id, "not strictly ascending"),
            (change_second_k, "k column not constant"),
        ] {
            if kmers.len() < 2 {
                break;
            }
            let mut bytes = encode_kmers(kmers);
            mutation(&mut bytes);
            match decode_kmers("nodes.col", &bytes) {
                Err(CheckpointError::Corrupt { detail, .. }) if detail.contains(want) => {}
                other => return Err(format!("{want}: {other:?} for seed {seed}")),
            }
        }
        // The same for two nodes of a node section.
        for (file, nodes) in [
            ("contigs.col", &state.contigs),
            ("ambiguous.col", &state.ambiguous_kmers),
        ] {
            for mutation in [swap_first_ids as fn(&mut [u8]), repeat_first_id] {
                if nodes.len() < 2 {
                    break;
                }
                let mut bytes = encode_nodes(nodes);
                mutation(&mut bytes);
                match decode_nodes(file, &bytes) {
                    Err(CheckpointError::Corrupt { detail, .. })
                        if detail.contains("not strictly ascending") => {}
                    other => return Err(format!("{file}: {other:?} for seed {seed}")),
                }
            }
        }
        Ok(())
    }

    /// Swaps the first two entries of an encoded k-mer or node ID column.
    fn swap_first_ids(bytes: &mut [u8]) {
        let (first, second) = bytes[8..24].split_at_mut(8);
        first.swap_with_slice(second);
    }

    /// Repeats the first entry of an encoded k-mer or node ID column.
    fn repeat_first_id(bytes: &mut [u8]) {
        bytes.copy_within(8..16, 16);
    }

    /// Gives the second vertex of an encoded k-mer graph another k.
    fn change_second_k(bytes: &mut [u8]) {
        let n = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        let at = 8 + 8 * n + 1;
        bytes[at] = bytes[at] % 31 + 1;
    }

    #[test]
    fn a_descending_or_mixed_k_column_is_corrupt() {
        let graph = arb_kmer_graph(&mut Mix(21), 40);
        assert!(graph.len() > 2);
        let bytes = encode_kmers(&graph);
        assert_eq!(decode_kmers("nodes.col", &bytes), Ok(graph));
        for (mutation, want) in [
            (swap_first_ids as fn(&mut [u8]), "not strictly ascending"),
            // A repeated k-mer is no more ascending than a swapped pair.
            (repeat_first_id, "not strictly ascending"),
            (change_second_k, "k column not constant"),
        ] {
            let mut bytes = bytes.clone();
            mutation(&mut bytes);
            let err = decode_kmers("nodes.col", &bytes).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { ref file, ref detail }
                    if file == "nodes.col" && detail.contains(want)),
                "{err}"
            );
        }
    }

    #[test]
    fn a_node_section_out_of_id_order_is_corrupt() {
        let mut mix = Mix(22);
        let mut nodes: Vec<AsmNode> = (0..4).map(|_| arb_node(&mut mix)).collect();
        for (id, node) in nodes.iter_mut().enumerate() {
            node.id = id as u64 + 1;
        }
        let bytes = encode_nodes(&nodes);
        assert_eq!(decode_nodes("ambiguous.col", &bytes), Ok(nodes));
        for mutation in [swap_first_ids as fn(&mut [u8]), repeat_first_id] {
            let mut bytes = bytes.clone();
            mutation(&mut bytes);
            assert_eq!(
                decode_nodes("ambiguous.col", &bytes),
                Err(CheckpointError::Corrupt {
                    file: "ambiguous.col".into(),
                    detail: "node 1: IDs not strictly ascending".into(),
                })
            );
        }
    }

    /// Round 1 over Figure 9's path, a fork off it and a cycle of 4-mers:
    /// construct's k-mer graph, ②'s label column (under fixed metrics, since
    /// a run's own hold its clocks), ③'s contigs and ambiguous k-mers, and
    /// those contigs as the output.
    fn round_one_state(reads: &ReadSet) -> GraphState<'_> {
        use crate::ops::construct::ConstructConfig;
        use crate::ops::merge::MergeConfig;
        use crate::pipeline::{Construct, FilterLength, Label, Merge, Stage};
        let ctx = ppa_pregel::ExecCtx::new(2);
        let mut state = GraphState::new(reads);
        let construct = Construct::new(ConstructConfig {
            k: 4,
            min_coverage: 0,
            batch_size: 1,
        });
        construct.run(&mut state, &ctx);
        Label::list_ranking().run(&mut state, &ctx);
        let nodes = state.nodes.clone();
        let mut labels = state.labels.clone().unwrap();
        labels.metrics = Metrics {
            supersteps: 7,
            total_messages: 123,
            total_dropped: 4,
            total_compute_calls: 56,
            elapsed: Duration::from_nanos(1_234_567),
            converged: true,
            avg_frontier_density: 0.375,
            peak_store_resident_bytes: 4096,
            total_cancellation_checks: 3,
            spilled_bytes: 0,
            spill_read_bytes: 0,
            spilled_runs: 0,
            per_superstep: vec![SuperstepMetrics {
                superstep: 0,
                active_vertices: 13,
                messages_sent: 20,
                messages_dropped: 1,
                elapsed: Duration::from_nanos(1000),
                compute_elapsed: Duration::from_nanos(600),
                shuffle_elapsed: Duration::from_nanos(300),
                pool_utilization: 0.5,
                frontier_density: 1.0,
                store_resident_bytes: 2048,
                id_column_compression: 0.25,
                cancellation_checks: 1,
                spilled_bytes: 0,
                spill_read_bytes: 0,
                spilled_runs: 0,
            }],
        };
        let merge = Merge::new(MergeConfig {
            k: 4,
            tip_length_threshold: 0,
        });
        merge.run(&mut state, &ctx);
        let mut filtered = state.clone();
        FilterLength::new(0).run(&mut filtered, &ctx);
        GraphState {
            reads,
            nodes,
            labels: Some(labels),
            contigs: state.contigs,
            ambiguous_kmers: state.ambiguous_kmers,
            rewired: false,
            output: filtered.output,
        }
    }

    fn figure_9_reads() -> ReadSet {
        [
            ("path", "CTGCCGTACA"),
            ("fork", "CCGTACGGA"),
            ("cycle", "ATCGGAATCGGAATCG"),
        ]
        .into_iter()
        .collect()
    }

    /// Every file of `state`'s snapshot as `save_with_reads_fingerprint`
    /// writes it, the sections in order and then the `MANIFEST`.
    fn snapshot_files(state: &GraphState<'_>) -> Vec<(&'static str, Vec<u8>)> {
        let [s_nodes, s_labels, s_contigs, s_ambiguous, s_output] = SECTIONS;
        let mut files = vec![
            (s_nodes, encode_kmers(&state.nodes)),
            (s_labels, encode_labels(state.labels.as_ref())),
            (s_contigs, encode_nodes(&state.contigs)),
            (s_ambiguous, encode_nodes(&state.ambiguous_kmers)),
            (s_output, encode_output(&state.output)),
        ];
        let manifest = Manifest {
            completed_stages: 3,
            rounds: vec![
                ("construct".into(), 1),
                ("label".into(), 1),
                ("merge".into(), 1),
            ],
            pipeline_fingerprint: 0xfeed_beef,
            reads_fingerprint: reads_fingerprint(state.reads),
            workers: 2,
            rewired: state.rewired,
            files: files
                .iter()
                .map(|(name, bytes)| FileEntry {
                    name: (*name).into(),
                    len: bytes.len() as u64,
                    checksum: checksum64(bytes),
                })
                .collect(),
        };
        files.push((MANIFEST_FILE, manifest.encode()));
        files
    }

    /// Decodes `bytes` with the decoder of `file`, past any checksum.
    fn decode_file(file: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
        match file {
            "nodes.col" => decode_kmers(file, bytes).map(drop),
            "labels.col" => decode_labels(file, bytes).map(drop),
            "contigs.col" | "ambiguous.col" => decode_nodes(file, bytes).map(drop),
            "output.col" => decode_output(file, bytes).map(drop),
            _ => Manifest::decode(bytes).map(drop),
        }
    }

    #[test]
    fn the_packed_node_section_keeps_its_version_5_bytes() {
        // `nodes.col`'s digest was taken from the per-vertex encoding this
        // format was defined by; version 6 changed only the reads
        // fingerprint in the manifest, so it is still version 5's bytes. The
        // other files' lengths and digests were recorded from version 8's
        // encoders before this module took over its codec.
        let reads = figure_9_reads();
        let state = round_one_state(&reads);
        assert_eq!(state.nodes.len(), 13);
        assert_eq!((state.contigs.len(), state.ambiguous_kmers.len()), (3, 2));
        assert_eq!(state.output.len(), 3);
        let files = snapshot_files(&state);
        let digests: Vec<(&str, usize, u64)> = files
            .iter()
            .map(|(file, bytes)| (*file, bytes.len(), fnv1a(bytes)))
            .collect();
        assert_eq!(
            digests,
            [
                ("nodes.col", 281, 0xf5c2_f8c1_baa0_3828),
                ("labels.col", 279, 0x06b4_3ef7_7928_c931),
                ("contigs.col", 185, 0xd513_f790_bd72_abec),
                ("ambiguous.col", 138, 0xc839_2b27_7daa_6f27),
                ("output.col", 92, 0x655f_3b63_7b42_bc82),
                ("MANIFEST", 301, 0x536c_8bba_abb8_dac3),
            ]
        );
        let bytes = |i: usize| files[i].1.as_slice();
        assert_eq!(decode_kmers("nodes.col", bytes(0)), Ok(state.nodes.clone()));
        assert_eq!(
            decode_labels("labels.col", bytes(1)),
            Ok(state.labels.clone())
        );
        assert_eq!(
            decode_nodes("contigs.col", bytes(2)),
            Ok(state.contigs.clone())
        );
        assert_eq!(
            decode_nodes("ambiguous.col", bytes(3)),
            Ok(state.ambiguous_kmers.clone())
        );
        assert_eq!(decode_output("output.col", bytes(4)), Ok(state.output));
        assert!(Manifest::decode(bytes(5)).is_ok());
    }

    /// The largest single allocation made by the current thread inside a
    /// [`peak::largest_allocation`] call: the fuzz test's check that a
    /// corrupt count reserves nothing it has not seen bytes for.
    mod peak {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ARMED: Cell<bool> = const { Cell::new(false) };
            static PEAK: Cell<usize> = const { Cell::new(0) };
        }

        fn note(size: usize) {
            if ARMED.with(Cell::get) {
                PEAK.with(|peak| peak.set(peak.get().max(size)));
            }
        }

        /// The system allocator, noting each request's size.
        pub(super) struct PeakAlloc;

        // SAFETY: every call is forwarded to `System` with the caller's
        // arguments, so `System`'s guarantees are this allocator's.
        unsafe impl GlobalAlloc for PeakAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                // SAFETY: forwarded under the caller's contract.
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                // SAFETY: forwarded under the caller's contract.
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                // SAFETY: forwarded under the caller's contract.
                unsafe { System.realloc(ptr, layout, new_size) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: forwarded under the caller's contract.
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        /// Runs `f` and returns its value with the largest allocation it
        /// made on this thread.
        pub(super) fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
            PEAK.with(|peak| peak.set(0));
            ARMED.with(|armed| armed.set(true));
            let out = f();
            ARMED.with(|armed| armed.set(false));
            (out, PEAK.with(Cell::get))
        }
    }

    #[global_allocator]
    static ALLOC: peak::PeakAlloc = peak::PeakAlloc;

    #[test]
    fn mutated_files_decode_to_values_or_typed_errors() {
        // Every file of round 1's snapshot, cut at every offset and with
        // every bit of its first 64 bytes flipped, straight into its decoder:
        // a value or a typed error, never a panic, and no allocation larger
        // than one `AsmNode` (the largest row a decoder collects) per byte of
        // the file. The error text itself takes a few dozen bytes, so the
        // bound starts at 64 bytes of file.
        let reads = figure_9_reads();
        let files = snapshot_files(&round_one_state(&reads));
        let check = |file: &str, bytes: &[u8], cut: bool| {
            let (outcome, largest) =
                peak::largest_allocation(|| std::panic::catch_unwind(|| decode_file(file, bytes)));
            let what = format!("{file}, {} bytes", bytes.len());
            let outcome = outcome.unwrap_or_else(|_| panic!("{what}: the decoder panicked"));
            match outcome {
                Ok(()) => assert!(!cut, "{what}: a cut file decoded"),
                Err(CheckpointError::Truncated { .. })
                | Err(CheckpointError::Corrupt { .. })
                | Err(CheckpointError::Mismatch { .. }) => {}
                Err(other) => panic!("{what}: untyped outcome {other:?}"),
            }
            let bound = bytes.len().max(64) * std::mem::size_of::<AsmNode>();
            assert!(largest <= bound, "{what}: allocated {largest} bytes");
        };
        for (file, bytes) in &files {
            for cut in 0..bytes.len() {
                check(file, &bytes[..cut], true);
            }
            for bit in 0..8 * bytes.len().min(64) {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(file, &flipped, false);
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::default();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.125);
        w.str("héllo");
        w.u64(2);
        w.u32(5);
        w.u32(6);
        let mut r = Reader::new("t.col", &w.0);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64(), Ok(-0.125));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.counted(u32::from_le_bytes), Ok(vec![5, 6]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let bytes = 42u64.to_le_bytes();
        for cut in 0..bytes.len() {
            let err = Reader::new("t.col", &bytes[..cut]).u64().unwrap_err();
            assert_eq!(
                err,
                CheckpointError::Truncated {
                    file: "t.col".into(),
                    detail: format!("offset 0: needed 8 bytes, {cut} remain"),
                }
            );
        }
        let err = Reader::new("t.col", &[1, 0, 9]).finish().unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_allocation() {
        // A bogus length or count: refused before anything is reserved.
        let bytes = u64::MAX.to_le_bytes();
        let (err, largest) = peak::largest_allocation(|| {
            let string = Reader::new("t.col", &bytes).str().unwrap_err();
            let column = Reader::new("t.col", &bytes).counted(u64::from_le_bytes);
            (string, column.unwrap_err())
        });
        assert!(matches!(err.0, CheckpointError::Truncated { .. }));
        assert!(matches!(err.1, CheckpointError::Truncated { .. }));
        assert!(largest < 1024, "allocated {largest} bytes");
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let err = Reader::new("t.col", &[9]).bool().unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Corrupt {
                file: "t.col".into(),
                detail: "offset 0: bool byte must be 0 or 1, got 9".into(),
            }
        );
        let mut w = Writer::default();
        w.u64(2);
        w.raw(&[0xFF, 0xFE]);
        let err = Reader::new("t.col", &w.0).str().unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn errors_display_offsets() {
        let mut r = Reader::new("labels.col", &[0, 0, 0]);
        assert_eq!(r.take(2).map(<[u8]>::len), Ok(2));
        let err = r.u32().unwrap_err().to_string();
        assert!(
            err.contains("labels.col") && err.contains("offset 2"),
            "{err}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_state_roundtrip_and_truncation_safety(seed in 0u64..1_000_000) {
            let outcome = check_roundtrip_for_seed(seed);
            prop_assert_eq!(outcome, Ok(()));
        }
    }
}
