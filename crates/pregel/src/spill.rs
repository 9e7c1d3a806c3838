//! Out-of-core spill layer: bounded-memory execution for the data plane.
//!
//! Three independent mechanisms share this module's framing, codecs, and
//! typed errors:
//!
//! * **Shuffle-run spilling** — when a superstep's (or the mini-MapReduce
//!   map phase's) per-destination outbox grows past its share of the
//!   [`SpillPolicy`] byte cap, each destination buffer is radix-presorted
//!   (and pre-combined when the program declares a combiner) and written out
//!   as one sorted on-disk run (`write_run`). Delivery then merges disk
//!   runs and the in-RAM remainder with the same key-then-source order as
//!   the in-memory `kmerge` (`merge_run_sources`), so spilled and
//!   unspilled executions are byte-identical.
//! * **Partition column sealing** — when a job starts with
//!   `store_resident_bytes` above the cap, every `VertexSet` partition
//!   drains its ID/value/halted/stamp columns into fixed-size *extents*
//!   (`PartSeal`) appended to per-partition generation files. The runner
//!   then computes one extent window at a time (bounding residency to
//!   roughly `workers × extent bytes`), writing each window back after use;
//!   compaction rewrites the generation file once superseded extent images
//!   outweigh the live ones.
//! * **Key-segment spilling** — when a scatter worker of the bucketed key
//!   counter ([`crate::keycount`]) outgrows its share of the cap, it appends
//!   every non-empty prefix bucket, unsorted, as one bucket-addressed
//!   segment to its `KeySegmentWriter` file; the count phase reads each
//!   bucket's segments back, once, by offset (`KeySegmentReader`).
//!
//! All file formats share one framing: an 8-byte magic (`PPASPIL1`), a
//! `u32` format version, a `u64` record/slot count, then `u32`
//! length-prefixed records read back through the streaming
//! `serde::bin::FrameReader`. Per the PR 8 codec contract the entire module
//! is panic-free outside tests: truncated or corrupt spill files surface as
//! [`SpillError`] values, never as panics, and the `ppa_lint`
//! `panic-free-codecs` rule enforces this at CI time.
//!
//! Temporary files live in a per-job `SpillDir` under the system temp
//! directory; the directory and every run/generation file are removed by
//! RAII `Drop` impls, including on the cancellation unwind path.

use crate::vertex::VertexProgram;
use crate::vertex_set::RunColumns;
use serde::bin::{FrameError, FrameReader};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic shared by run files, key-segment files, partition generation
/// files, and spill round-trip files: `PPASPIL1` as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"PPASPIL1");

/// Format version written after the magic.
const VERSION: u32 = 1;

/// Upper bound on a single frame; a corrupt length prefix fails fast as
/// [`SpillError::Corrupt`] instead of triggering a gigantic allocation.
const MAX_FRAME: u32 = 1 << 30;

/// Slots per sealed partition extent. Small enough that one faulted-in
/// window per worker stays far below any useful memory cap, large enough to
/// amortise the per-extent seek + header cost.
pub(crate) const EXTENT_SLOTS: usize = 1024;

/// When a job may spill to disk, and at what threshold.
///
/// Installed on the [`ExecCtx`](crate::ExecCtx) (usually via
/// `AssemblyConfig.spill`); [`SpillPolicy::Off`] keeps every code path
/// byte-for-byte identical to the pre-spill engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SpillPolicy {
    /// Never spill; everything stays in RAM (the default).
    #[default]
    Off,
    /// Spill once the job's resident bytes exceed this cap: partitions seal
    /// their columns when the store starts above the cap, and each worker's
    /// outbox spills sorted runs once it exceeds `cap / (4 × workers)`.
    At(u64),
}

impl SpillPolicy {
    /// The byte cap, or `None` when spilling is off.
    pub fn cap(&self) -> Option<u64> {
        match *self {
            SpillPolicy::Off => None,
            SpillPolicy::At(bytes) => Some(bytes),
        }
    }
}

/// Typed failure of a spill I/O or decode operation.
///
/// Spill files are transient scratch state, so errors carry the offending
/// path plus a rendered detail string (keeping the type `Clone + Eq`, which
/// `std::io::Error` is not). They surface from `try_run`/`try_assemble` via
/// `EngineError::Spill` instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// An operating-system I/O operation failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// What was being attempted (e.g. `"create spill dir"`).
        op: &'static str,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// A spill file ended before the expected data.
    Truncated {
        /// The file involved.
        path: String,
        /// Where and what was missing.
        detail: String,
    },
    /// A spill file's contents were structurally invalid.
    Corrupt {
        /// The file involved.
        path: String,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { path, op, message } => {
                write!(f, "spill I/O error ({op}) on {path}: {message}")
            }
            SpillError::Truncated { path, detail } => {
                write!(f, "truncated spill file {path}: {detail}")
            }
            SpillError::Corrupt { path, detail } => {
                write!(f, "corrupt spill file {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> SpillError {
    SpillError::Io {
        path: path.display().to_string(),
        op,
        message: e.to_string(),
    }
}

fn frame_err(path: &Path, e: FrameError) -> SpillError {
    let path = path.display().to_string();
    match e {
        FrameError::Io { op, message } => SpillError::Io { path, op, message },
        FrameError::Truncated {
            offset,
            needed,
            got,
        } => SpillError::Truncated {
            path,
            detail: format!("at offset {offset}: needed {needed} bytes, got {got}"),
        },
        FrameError::Invalid { offset, what } => SpillError::Corrupt {
            path,
            detail: format!("at offset {offset}: {what}"),
        },
    }
}

/// A minimal binary codec for spill files (moved here from `chain`, which
/// re-exports it for compatibility).
///
/// Implementations must be able to reconstruct the value from the bytes they
/// wrote; framing (length prefixes, headers) is handled by this module.
/// `decode` returns `None` on truncated or invalid input — it must never
/// panic, per the workspace's panic-free codec contract.
pub trait SpillCodec: Sized {
    /// Appends the binary encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

impl SpillCodec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.len() < 8 {
            return None;
        }
        let (head, rest) = buf.split_at(8);
        *buf = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }
}

impl SpillCodec for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.len() < 4 {
            return None;
        }
        let (head, rest) = buf.split_at(4);
        *buf = rest;
        Some(u32::from_le_bytes(head.try_into().ok()?))
    }
}

impl SpillCodec for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&head, rest) = buf.split_first()?;
        *buf = rest;
        Some(head)
    }
}

impl SpillCodec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl SpillCodec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = u64::decode(buf)? as usize;
        if buf.len() < len {
            return None;
        }
        let (head, rest) = buf.split_at(len);
        *buf = rest;
        Some(head.to_vec())
    }
}

impl<A: SpillCodec, B: SpillCodec> SpillCodec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: SpillCodec, B: SpillCodec, C: SpillCodec> SpillCodec for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// An erased [`SpillCodec`] vtable for one concrete type.
///
/// A pair of plain function pointers, so it is `Copy` regardless of `T` and
/// can be threaded through worker closures without trait-object allocation.
pub struct Codec<T> {
    /// Appends the encoding of the value to the buffer.
    pub encode: fn(&T, &mut Vec<u8>),
    /// Decodes one value from the front of the slice, advancing it.
    pub decode: fn(&mut &[u8]) -> Option<T>,
}

impl<T> Clone for Codec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Codec<T> {}

/// The [`Codec`] vtable of a [`SpillCodec`] type.
pub fn codec_of<T: SpillCodec>() -> Codec<T> {
    Codec {
        encode: <T as SpillCodec>::encode,
        decode: <T as SpillCodec>::decode,
    }
}

/// The codecs a [`VertexProgram`] supplies to opt into out-of-core
/// execution: one per associated type the engine must persist.
///
/// Programs that return `None` from [`VertexProgram::spill_codecs`] (the
/// default) run fully in RAM even when a [`SpillPolicy`] cap is installed.
pub struct SpillCodecs<P: VertexProgram + ?Sized> {
    /// Codec for `P::Id` (vertex identifiers in run files and extents).
    pub id: Codec<P::Id>,
    /// Codec for `P::Value` (vertex values in sealed extents).
    pub value: Codec<P::Value>,
    /// Codec for `P::Message` (payloads in spilled shuffle runs).
    pub message: Codec<P::Message>,
}

impl<P: VertexProgram + ?Sized> Clone for SpillCodecs<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: VertexProgram + ?Sized> Copy for SpillCodecs<P> {}

impl<P: VertexProgram + ?Sized> SpillCodecs<P>
where
    P::Id: SpillCodec,
    P::Value: SpillCodec,
    P::Message: SpillCodec,
{
    /// Builds the vtables from the associated types' [`SpillCodec`] impls.
    pub fn new() -> Self {
        SpillCodecs {
            id: codec_of::<P::Id>(),
            value: codec_of::<P::Value>(),
            message: codec_of::<P::Message>(),
        }
    }
}

impl<P: VertexProgram + ?Sized> Default for SpillCodecs<P>
where
    P::Id: SpillCodec,
    P::Value: SpillCodec,
    P::Message: SpillCodec,
{
    fn default() -> Self {
        Self::new()
    }
}

/// RAII per-job temp directory holding every spill artefact of one job.
///
/// Shared via `Arc` by run files and partition seals; removing it (with all
/// remaining contents) happens when the last reference drops — including on
/// the cancellation unwind path, which is what guarantees "temp files
/// cleaned on cancel".
pub(crate) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a fresh uniquely-named directory under the system temp dir.
    pub(crate) fn create(label: &str) -> Result<Arc<SpillDir>, SpillError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ppa-spill-{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| io_err(&path, "create spill dir", e))?;
        Ok(Arc::new(SpillDir { path }))
    }

    /// A path for `name` inside the directory.
    pub(crate) fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes the shared header (magic, version, record count) into `buf`.
fn encode_header(buf: &mut Vec<u8>, count: u64) {
    MAGIC.encode(buf);
    VERSION.encode(buf);
    count.encode(buf);
}

/// Reads and validates the shared header, returning the record count.
fn read_header<R: Read>(frames: &mut FrameReader<R>, path: &Path) -> Result<u64, SpillError> {
    let magic = frames.u64().map_err(|e| frame_err(path, e))?;
    if magic != MAGIC {
        return Err(SpillError::Corrupt {
            path: path.display().to_string(),
            detail: format!("bad magic {magic:#018x}"),
        });
    }
    let version = frames.u32().map_err(|e| frame_err(path, e))?;
    if version != VERSION {
        return Err(SpillError::Corrupt {
            path: path.display().to_string(),
            detail: format!("unsupported spill format version {version}"),
        });
    }
    frames.u64().map_err(|e| frame_err(path, e))
}

/// Encodes `items` into the shared spill framing (header + one
/// length-prefixed frame per item) entirely in memory.
pub fn encode_spill_bytes<T: SpillCodec>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_header(&mut buf, items.len() as u64);
    let mut scratch = Vec::new();
    for item in items {
        scratch.clear();
        item.encode(&mut scratch);
        (scratch.len() as u32).encode(&mut buf);
        buf.extend_from_slice(&scratch);
    }
    buf
}

/// Decodes a spill stream (as produced by [`encode_spill_bytes`] or
/// [`write_spill_file`]) from any reader. `origin` names the source in
/// errors (a path, or `"<memory>"`).
pub fn decode_spill_stream<T: SpillCodec, R: Read>(
    src: R,
    origin: &str,
) -> Result<Vec<T>, SpillError> {
    let path = Path::new(origin);
    let mut frames = FrameReader::new(src, MAX_FRAME);
    let count = read_header(&mut frames, path)?;
    let mut out = Vec::new();
    out.try_reserve(usize::try_from(count).unwrap_or(usize::MAX).min(1 << 20))
        .map_err(|_| SpillError::Corrupt {
            path: origin.to_string(),
            detail: format!("record count {count} exceeds available memory"),
        })?;
    for i in 0..count {
        let mut frame = frames.frame().map_err(|e| frame_err(path, e))?;
        let item = T::decode(&mut frame).ok_or_else(|| SpillError::Corrupt {
            path: origin.to_string(),
            detail: format!("record {i} failed to decode"),
        })?;
        if !frame.is_empty() {
            return Err(SpillError::Corrupt {
                path: origin.to_string(),
                detail: format!(
                    "record {i} left {} trailing bytes in its frame",
                    frame.len()
                ),
            });
        }
        out.push(item);
    }
    Ok(out)
}

/// Writes `items` to `path` in the shared spill framing, returning the bytes
/// written. Used by `chain::spill_roundtrip`'s on-disk mode.
pub fn write_spill_file<T: SpillCodec>(path: &Path, items: &[T]) -> Result<u64, SpillError> {
    let bytes = encode_spill_bytes(items);
    let file = std::fs::File::create(path).map_err(|e| io_err(path, "create spill file", e))?;
    let mut w = BufWriter::new(file);
    w.write_all(&bytes)
        .map_err(|e| io_err(path, "write spill file", e))?;
    w.flush().map_err(|e| io_err(path, "flush spill file", e))?;
    Ok(bytes.len() as u64)
}

/// Reads back a file written by [`write_spill_file`], streaming record by
/// record (the whole file is never buffered).
pub fn read_spill_file<T: SpillCodec>(path: &Path) -> Result<Vec<T>, SpillError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(path, "open spill file", e))?;
    decode_spill_stream(std::io::BufReader::new(file), &path.display().to_string())
}

/// One sorted on-disk shuffle run: `(key, value)` records in ascending key
/// order, in the shared spill framing. The file is deleted when the handle
/// drops (delivery consumes runs exactly once).
pub(crate) struct DiskRun {
    path: PathBuf,
    /// Bytes written, including the header.
    pub(crate) bytes: u64,
    /// Keeps the owning directory alive until the run is consumed.
    _dir: Arc<SpillDir>,
}

impl DiskRun {
    /// The on-disk location (error reporting, reader construction).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DiskRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes one sorted run of `(key, value)` records into `dir` and returns
/// its handle. `records` must already be key-sorted; this is not checked.
pub(crate) fn write_run<K, V>(
    dir: &Arc<SpillDir>,
    name: &str,
    records: &[(K, V)],
    kc: &Codec<K>,
    vc: &Codec<V>,
) -> Result<DiskRun, SpillError> {
    let path = dir.file(name);
    let file = std::fs::File::create(&path).map_err(|e| io_err(&path, "create run file", e))?;
    let mut w = BufWriter::new(file);
    let mut head = Vec::new();
    encode_header(&mut head, records.len() as u64);
    w.write_all(&head)
        .map_err(|e| io_err(&path, "write run header", e))?;
    let mut bytes = head.len() as u64;
    let mut scratch = Vec::new();
    let mut prefix = Vec::new();
    for (k, v) in records {
        scratch.clear();
        (kc.encode)(k, &mut scratch);
        (vc.encode)(v, &mut scratch);
        prefix.clear();
        (scratch.len() as u32).encode(&mut prefix);
        w.write_all(&prefix)
            .map_err(|e| io_err(&path, "write run record", e))?;
        w.write_all(&scratch)
            .map_err(|e| io_err(&path, "write run record", e))?;
        bytes += (prefix.len() + scratch.len()) as u64;
    }
    w.flush().map_err(|e| io_err(&path, "flush run file", e))?;
    Ok(DiskRun {
        path,
        bytes,
        _dir: Arc::clone(dir),
    })
}

/// Streaming reader over one [`DiskRun`]: yields `(key, value)` records in
/// file order without buffering the run in memory.
pub(crate) struct RunReader<K, V> {
    frames: FrameReader<std::io::BufReader<std::fs::File>>,
    remaining: u64,
    kc: Codec<K>,
    vc: Codec<V>,
    path: PathBuf,
}

impl<K, V> RunReader<K, V> {
    /// Opens a run file and validates its header.
    pub(crate) fn open(path: &Path, kc: Codec<K>, vc: Codec<V>) -> Result<Self, SpillError> {
        let file = std::fs::File::open(path).map_err(|e| io_err(path, "open run file", e))?;
        let mut frames = FrameReader::new(std::io::BufReader::new(file), MAX_FRAME);
        let remaining = read_header(&mut frames, path)?;
        Ok(RunReader {
            frames,
            remaining,
            kc,
            vc,
            path: path.to_path_buf(),
        })
    }

    /// The next record, `None` once the declared count is exhausted.
    pub(crate) fn next(&mut self) -> Result<Option<(K, V)>, SpillError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let (kc, vc) = (self.kc, self.vc);
        let mut frame = match self.frames.frame() {
            Ok(f) => f,
            Err(e) => return Err(frame_err(&self.path, e)),
        };
        let corrupt = |detail: String| SpillError::Corrupt {
            path: self.path.display().to_string(),
            detail,
        };
        let k = (kc.decode)(&mut frame)
            .ok_or_else(|| corrupt("record key failed to decode".to_string()))?;
        let v = (vc.decode)(&mut frame)
            .ok_or_else(|| corrupt("record value failed to decode".to_string()))?;
        if !frame.is_empty() {
            return Err(corrupt(format!(
                "record left {} trailing bytes in its frame",
                frame.len()
            )));
        }
        Ok(Some((k, v)))
    }

    /// Bytes consumed from the file so far.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.frames.offset()
    }
}

/// One input to [`merge_run_sources`]: either a drained in-RAM sorted buffer
/// or a streaming disk run.
pub(crate) enum MergeSource<K, V> {
    /// Sorted in-memory records (the unspilled remainder of an outbox).
    Ram(std::vec::IntoIter<(K, V)>),
    /// A sorted on-disk run.
    Disk(RunReader<K, V>),
}

impl<K, V> MergeSource<K, V> {
    fn next(&mut self) -> Result<Option<(K, V)>, SpillError> {
        match self {
            MergeSource::Ram(it) => Ok(it.next()),
            MergeSource::Disk(r) => r.next(),
        }
    }
}

/// Heap entry ordered by `(key, source index)` — the same tie-break as the
/// in-memory `kmerge` (equal keys drain lower-indexed sources first), which
/// is what makes spilled delivery byte-identical to unspilled delivery.
struct HeapEntry<K, V> {
    key: K,
    src: usize,
    val: V,
}

impl<K: Ord, V> PartialEq for HeapEntry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.src == other.src
    }
}
impl<K: Ord, V> Eq for HeapEntry<K, V> {}
impl<K: Ord, V> PartialOrd for HeapEntry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for HeapEntry<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.src.cmp(&other.src))
    }
}

/// Merges pre-sorted sources into a single `(key, source)`-ordered stream,
/// invoking `emit` once per record. Returns the total bytes read from disk
/// sources. Source order matters: for equal keys, records surface in
/// ascending source index, so callers must list each sender's runs in spill
/// order followed by its RAM remainder, senders in worker order.
pub(crate) fn merge_run_sources<K: Ord, V>(
    mut sources: Vec<MergeSource<K, V>>,
    mut emit: impl FnMut(K, V),
) -> Result<u64, SpillError> {
    let mut heap = BinaryHeap::with_capacity(sources.len());
    for (src, s) in sources.iter_mut().enumerate() {
        if let Some((key, val)) = s.next()? {
            heap.push(std::cmp::Reverse(HeapEntry { key, src, val }));
        }
    }
    while let Some(std::cmp::Reverse(HeapEntry { key, src, val })) = heap.pop() {
        emit(key, val);
        if let Some(s) = sources.get_mut(src) {
            if let Some((key, val)) = s.next()? {
                heap.push(std::cmp::Reverse(HeapEntry { key, src, val }));
            }
        }
    }
    let mut disk_bytes = 0;
    for s in &sources {
        if let MergeSource::Disk(r) = s {
            disk_bytes += r.bytes_read();
        }
    }
    Ok(disk_bytes)
}

/// Where one bucket-addressed key segment sits in a [`KeySegmentFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeySegment {
    /// The bucket every key of the segment belongs to.
    pub(crate) bucket: u32,
    /// Keys in the segment.
    pub(crate) keys: u32,
    /// Byte offset of the segment's frame (its length prefix).
    offset: u64,
}

/// Byte offset of the header's record count (patched when the writer
/// finishes, since segments are appended flush by flush).
const HEADER_COUNT_OFFSET: u64 = 12;

/// Appends **unsorted** bucket-addressed key segments to one file in the
/// shared spill framing: one frame per segment, its payload the bucket index
/// (`u32`) followed by the segment's keys (`u64` each). The bucketed key
/// counter ([`crate::keycount`]) flushes its scatter buffers through this
/// when they outgrow the spill budget; the segment index stays in RAM.
pub(crate) struct KeySegmentWriter {
    w: BufWriter<std::fs::File>,
    path: PathBuf,
    dir: Arc<SpillDir>,
    bytes: u64,
    segments: Vec<KeySegment>,
}

impl KeySegmentWriter {
    /// Creates `name` inside `dir` and writes the header.
    pub(crate) fn create(dir: &Arc<SpillDir>, name: &str) -> Result<Self, SpillError> {
        let path = dir.file(name);
        let file =
            std::fs::File::create(&path).map_err(|e| io_err(&path, "create segment file", e))?;
        let mut w = BufWriter::new(file);
        let mut head = Vec::new();
        encode_header(&mut head, 0);
        w.write_all(&head)
            .map_err(|e| io_err(&path, "write segment header", e))?;
        Ok(KeySegmentWriter {
            w,
            path,
            dir: Arc::clone(dir),
            bytes: head.len() as u64,
            segments: Vec::new(),
        })
    }

    /// Appends one segment: `keys` keys of `bucket`, handed over as the
    /// fragments they were buffered in.
    pub(crate) fn append<'a>(
        &mut self,
        bucket: u32,
        keys: usize,
        fragments: impl Iterator<Item = &'a [u64]>,
    ) -> Result<(), SpillError> {
        let len = u32::try_from(keys)
            .ok()
            .and_then(|n| n.checked_mul(8)?.checked_add(4))
            .filter(|len| *len <= MAX_FRAME)
            .ok_or_else(|| SpillError::Corrupt {
                path: self.path.display().to_string(),
                detail: format!("a segment of {keys} keys exceeds the {MAX_FRAME}-byte frame cap"),
            })?;
        let path = &self.path;
        let mut put = |bytes: &[u8]| {
            self.w
                .write_all(bytes)
                .map_err(|e| io_err(path, "write key segment", e))
        };
        put(&len.to_le_bytes())?;
        put(&bucket.to_le_bytes())?;
        for fragment in fragments {
            for key in fragment {
                put(&key.to_le_bytes())?;
            }
        }
        self.segments.push(KeySegment {
            bucket,
            keys: keys as u32,
            offset: self.bytes,
        });
        self.bytes += 4 + u64::from(len);
        Ok(())
    }

    /// Flushes, patches the header's segment count and hands back the
    /// readable file.
    pub(crate) fn finish(self) -> Result<KeySegmentFile, SpillError> {
        let KeySegmentWriter {
            w,
            path,
            dir,
            bytes,
            mut segments,
        } = self;
        let mut file = w
            .into_inner()
            .map_err(|e| io_err(&path, "flush segment file", e.into_error()))?;
        file.seek(SeekFrom::Start(HEADER_COUNT_OFFSET))
            .and_then(|_| file.write_all(&(segments.len() as u64).to_le_bytes()))
            .map_err(|e| io_err(&path, "patch segment count", e))?;
        // Stable: a bucket's segments stay in the order they were flushed.
        segments.sort_by_key(|s| s.bucket);
        Ok(KeySegmentFile {
            path,
            bytes,
            segments,
            _dir: dir,
        })
    }
}

/// A finished key-segment file plus its in-RAM segment index. The file is
/// deleted when the handle drops (every segment is read back at most once).
pub(crate) struct KeySegmentFile {
    path: PathBuf,
    /// Bytes written, including the header.
    pub(crate) bytes: u64,
    /// Every segment, ordered by bucket and, within a bucket, by flush.
    segments: Vec<KeySegment>,
    /// Keeps the owning directory alive until the file is consumed.
    _dir: Arc<SpillDir>,
}

impl KeySegmentFile {
    /// The on-disk location (tests damage the file through it).
    #[cfg(test)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// All segments, ordered by bucket and, within a bucket, by flush.
    pub(crate) fn segments(&self) -> &[KeySegment] {
        &self.segments
    }

    /// The segments of `bucket`, in the order they were flushed.
    pub(crate) fn segments_of(&self, bucket: u32) -> &[KeySegment] {
        let start = self.segments.partition_point(|s| s.bucket < bucket);
        let end = self.segments.partition_point(|s| s.bucket <= bucket);
        self.segments.get(start..end).unwrap_or(&[])
    }

    /// Opens the file for segment reads (one handle, one cursor, per reader).
    pub(crate) fn open(&self) -> Result<KeySegmentReader<'_>, SpillError> {
        let file = std::fs::File::open(&self.path)
            .map_err(|e| io_err(&self.path, "open segment file", e))?;
        Ok(KeySegmentReader {
            file,
            of: self,
            bytes_read: 0,
        })
    }
}

impl Drop for KeySegmentFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Random-access reader over one [`KeySegmentFile`].
pub(crate) struct KeySegmentReader<'a> {
    file: std::fs::File,
    of: &'a KeySegmentFile,
    bytes_read: u64,
}

impl KeySegmentReader<'_> {
    fn seek(&mut self, offset: u64) -> Result<(), SpillError> {
        self.file
            .seek(SeekFrom::Start(offset))
            .map(|_| ())
            .map_err(|e| io_err(&self.of.path, "seek in segment file", e))
    }

    /// Checks the header against the in-RAM index.
    pub(crate) fn validate_header(&mut self) -> Result<(), SpillError> {
        self.seek(0)?;
        let mut frames = FrameReader::new(&self.file, MAX_FRAME);
        let count = read_header(&mut frames, &self.of.path)?;
        self.bytes_read += frames.offset();
        if count != self.of.segments.len() as u64 {
            return Err(SpillError::Corrupt {
                path: self.of.path.display().to_string(),
                detail: format!(
                    "header counts {count} segments, the index holds {}",
                    self.of.segments.len()
                ),
            });
        }
        Ok(())
    }

    /// Appends the keys of `segment` to `out`.
    pub(crate) fn read_into(
        &mut self,
        segment: &KeySegment,
        out: &mut Vec<u64>,
    ) -> Result<(), SpillError> {
        self.seek(segment.offset)?;
        let path = &self.of.path;
        let corrupt = |detail: String| SpillError::Corrupt {
            path: path.display().to_string(),
            detail: format!("segment at offset {}: {detail}", segment.offset),
        };
        let mut frames = FrameReader::new(&self.file, MAX_FRAME);
        let mut frame = frames.frame().map_err(|e| frame_err(path, e))?;
        self.bytes_read += 4 + frame.len() as u64;
        let bucket =
            u32::decode(&mut frame).ok_or_else(|| corrupt("bucket index missing".into()))?;
        if bucket != segment.bucket {
            return Err(corrupt(format!(
                "holds bucket {bucket}, the index says {}",
                segment.bucket
            )));
        }
        if frame.len() != segment.keys as usize * 8 {
            return Err(corrupt(format!(
                "holds {} key bytes, the index says {} keys",
                frame.len(),
                segment.keys
            )));
        }
        out.extend(frame.chunks_exact(8).filter_map(|b| u64::decode(&mut &*b)));
        Ok(())
    }

    /// Bytes read through this handle so far.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// One append-only partition generation file.
struct GenFile {
    path: PathBuf,
    /// Bytes written so far (the append offset).
    len: u64,
}

/// Location and summary of one sealed extent image.
pub(crate) struct ExtentMeta<I> {
    /// Index into the seal's generation files.
    file: usize,
    /// Byte offset of the image within that file.
    offset: u64,
    /// Byte length of the image.
    len: u64,
    /// Vertex slots in the extent.
    pub(crate) slots: usize,
    /// Smallest vertex ID in the extent (ascending, immutable for the job).
    pub(crate) first: I,
    /// Largest vertex ID in the extent.
    pub(crate) last: I,
    /// Halted slots at the last writeback (drives quiescence detection and
    /// lets fully-halted extents skip the pass-2 fault-in entirely).
    pub(crate) halted: u64,
}

/// A `VertexSet` partition whose columns have been sealed to disk.
///
/// The partition's ID/value/halted/stamp columns are drained into
/// [`EXTENT_SLOTS`]-sized extents appended to per-partition generation
/// files. The runner then faults one extent *window* at a time back into
/// the reusable buffers held here, computes against it through the ordinary
/// `RunColumns` view, and writes the image back. Because vertex IDs never
/// change during a job, extent key ranges are fixed at seal time; only
/// values, stamps, and halt bits are rewritten. Writebacks append (old
/// images become garbage), and [`PartSeal::maybe_compact`] rewrites the
/// live extents into a fresh generation file once garbage outweighs them.
///
/// Dropping the seal — including on a cancellation unwind — deletes its
/// generation files; the owning [`SpillDir`] removes anything left.
pub(crate) struct PartSeal<I, V> {
    dir: Arc<SpillDir>,
    files: Vec<GenFile>,
    /// Extent directory, in ascending key order.
    pub(crate) extents: Vec<ExtentMeta<I>>,
    id_codec: Codec<I>,
    value_codec: Codec<V>,
    part_index: usize,
    next_gen: u64,
    /// Bytes in the generation files owned by superseded extent images.
    garbage_bytes: u64,
    /// Extent index currently materialised in the window buffers.
    loaded: Option<usize>,
    // Reusable single-extent window buffers.
    win_ids: Vec<I>,
    win_values: Vec<Option<V>>,
    win_halted: Vec<u64>,
    win_stamps: Vec<u32>,
    scratch: Vec<u8>,
    // I/O counters since the last `take_counters`.
    spilled_bytes: u64,
    spill_read_bytes: u64,
    spilled_extents: u64,
}

/// Whether `slot`'s bit is set in the packed halt words.
fn bit(words: &[u64], slot: usize) -> bool {
    words
        .get(slot >> 6)
        .is_some_and(|w| (w >> (slot & 63)) & 1 == 1)
}

impl<I: Copy + Ord, V> PartSeal<I, V> {
    /// An empty seal for partition `part_index`, spilling into `dir`.
    pub(crate) fn new(
        dir: Arc<SpillDir>,
        part_index: usize,
        id_codec: Codec<I>,
        value_codec: Codec<V>,
    ) -> Self {
        PartSeal {
            dir,
            files: Vec::new(),
            extents: Vec::new(),
            id_codec,
            value_codec,
            part_index,
            next_gen: 0,
            garbage_bytes: 0,
            loaded: None,
            win_ids: Vec::new(),
            win_values: Vec::new(),
            win_halted: Vec::new(),
            win_stamps: Vec::new(),
            scratch: Vec::new(),
            spilled_bytes: 0,
            spill_read_bytes: 0,
            spilled_extents: 0,
        }
    }

    fn internal(&self, detail: &str) -> SpillError {
        SpillError::Corrupt {
            path: self.dir.file("").display().to_string(),
            detail: format!("internal seal invariant violated: {detail}"),
        }
    }

    fn clear_window(&mut self) {
        self.win_ids.clear();
        self.win_values.clear();
        self.win_halted.clear();
        self.win_stamps.clear();
    }

    /// Seals a partition's slots (ascending ID order) into extents.
    pub(crate) fn seal_slots(
        &mut self,
        slots: impl IntoIterator<Item = (I, Option<V>, bool, u32)>,
    ) -> Result<(), SpillError> {
        self.clear_window();
        for (id, value, halted, stamp) in slots {
            if self.win_values.len() == EXTENT_SLOTS {
                self.flush_window_as_extent()?;
                self.clear_window();
            }
            let slot = self.win_values.len();
            self.win_ids.push(id);
            self.win_values.push(value);
            self.win_stamps.push(stamp);
            if slot & 63 == 0 {
                self.win_halted.push(0);
            }
            if halted {
                if let Some(w) = self.win_halted.last_mut() {
                    *w |= 1 << (slot & 63);
                }
            }
        }
        if !self.win_values.is_empty() {
            self.flush_window_as_extent()?;
        }
        self.clear_window();
        self.loaded = None;
        Ok(())
    }

    /// Encodes the window into `scratch`: slot count, halt words, then one
    /// `(id, stamp, presence, value)` record per slot.
    fn encode_window(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        (self.win_values.len() as u32).encode(&mut scratch);
        for w in &self.win_halted {
            w.encode(&mut scratch);
        }
        let ids = &self.win_ids;
        for ((id, value), stamp) in ids.iter().zip(&self.win_values).zip(&self.win_stamps) {
            (self.id_codec.encode)(id, &mut scratch);
            stamp.encode(&mut scratch);
            match value {
                Some(v) => {
                    1u8.encode(&mut scratch);
                    (self.value_codec.encode)(v, &mut scratch);
                }
                None => 0u8.encode(&mut scratch),
            }
        }
        self.scratch = scratch;
    }

    /// Decodes an extent image from `scratch` into the window buffers.
    fn decode_window(&mut self, expect_slots: usize, origin: &Path) -> Result<(), SpillError> {
        let corrupt = |detail: String| SpillError::Corrupt {
            path: origin.display().to_string(),
            detail,
        };
        self.clear_window();
        let scratch = std::mem::take(&mut self.scratch);
        let result = (|| {
            let mut buf = scratch.as_slice();
            let slots = u32::decode(&mut buf)
                .ok_or_else(|| corrupt("extent slot count missing".into()))?
                as usize;
            if slots != expect_slots {
                return Err(corrupt(format!(
                    "extent holds {slots} slots, directory says {expect_slots}"
                )));
            }
            for _ in 0..slots.div_ceil(64) {
                let w = u64::decode(&mut buf)
                    .ok_or_else(|| corrupt("extent halt words truncated".into()))?;
                self.win_halted.push(w);
            }
            for i in 0..slots {
                let id = (self.id_codec.decode)(&mut buf)
                    .ok_or_else(|| corrupt(format!("extent slot {i}: id failed to decode")))?;
                let stamp = u32::decode(&mut buf)
                    .ok_or_else(|| corrupt(format!("extent slot {i}: stamp truncated")))?;
                let value = match u8::decode(&mut buf) {
                    Some(0) => None,
                    Some(1) => Some((self.value_codec.decode)(&mut buf).ok_or_else(|| {
                        corrupt(format!("extent slot {i}: value failed to decode"))
                    })?),
                    _ => return Err(corrupt(format!("extent slot {i}: bad value presence flag"))),
                };
                self.win_ids.push(id);
                self.win_values.push(value);
                self.win_stamps.push(stamp);
            }
            if !buf.is_empty() {
                return Err(corrupt(format!("extent left {} trailing bytes", buf.len())));
            }
            Ok(())
        })();
        self.scratch = scratch;
        result
    }

    /// Appends `scratch` to the active generation file, returning the image
    /// location.
    fn append_image(&mut self) -> Result<(usize, u64, u64), SpillError> {
        if self.files.is_empty() {
            self.push_gen_file();
        }
        let idx = self.files.len() - 1;
        let gf = self.files.get_mut(idx).ok_or_else(|| SpillError::Corrupt {
            path: String::new(),
            detail: "internal: active generation file missing".into(),
        })?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&gf.path)
            .map_err(|e| io_err(&gf.path, "open generation file", e))?;
        f.write_all(&self.scratch)
            .map_err(|e| io_err(&gf.path, "append extent image", e))?;
        let offset = gf.len;
        let len = self.scratch.len() as u64;
        gf.len += len;
        self.spilled_bytes += len;
        self.spilled_extents += 1;
        Ok((idx, offset, len))
    }

    fn push_gen_file(&mut self) {
        let name = format!("p{}-g{}.col", self.part_index, self.next_gen);
        self.next_gen += 1;
        self.files.push(GenFile {
            path: self.dir.file(&name),
            len: 0,
        });
    }

    /// Writes the current window out as a brand-new extent (seal time only).
    fn flush_window_as_extent(&mut self) -> Result<(), SpillError> {
        let slots = self.win_values.len();
        let (first, last) = match (self.win_ids.first().copied(), self.win_ids.last().copied()) {
            (Some(f), Some(l)) => (f, l),
            _ => return Err(self.internal("empty extent window")),
        };
        let halted = self.win_halted.iter().map(|w| w.count_ones() as u64).sum();
        self.encode_window();
        let (file, offset, len) = self.append_image()?;
        self.extents.push(ExtentMeta {
            file,
            offset,
            len,
            slots,
            first,
            last,
            halted,
        });
        Ok(())
    }

    /// Faults extent `e` into the window buffers (no-op if already loaded).
    pub(crate) fn load_extent(&mut self, e: usize) -> Result<(), SpillError> {
        if self.loaded == Some(e) {
            return Ok(());
        }
        let meta = self
            .extents
            .get(e)
            .ok_or_else(|| self.internal("extent index out of range"))?;
        let (file, offset, len, slots) = (meta.file, meta.offset, meta.len, meta.slots);
        let gf = self
            .files
            .get(file)
            .ok_or_else(|| self.internal("extent references a missing generation file"))?;
        let path = gf.path.clone();
        let mut f =
            std::fs::File::open(&path).map_err(|e| io_err(&path, "open generation file", e))?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err(&path, "seek to extent", e))?;
        self.scratch.clear();
        let got = f
            .take(len)
            .read_to_end(&mut self.scratch)
            .map_err(|e| io_err(&path, "read extent image", e))?;
        if (got as u64) < len {
            return Err(SpillError::Truncated {
                path: path.display().to_string(),
                detail: format!("extent at offset {offset}: needed {len} bytes, got {got}"),
            });
        }
        self.decode_window(slots, &path)?;
        self.spill_read_bytes += len;
        self.loaded = Some(e);
        Ok(())
    }

    /// Writes the (possibly modified) window back as the new image of extent
    /// `e`, superseding the previous one.
    pub(crate) fn store_extent(&mut self, e: usize) -> Result<(), SpillError> {
        if self.loaded != Some(e) {
            return Err(self.internal("storing an extent that is not loaded"));
        }
        let halted = self.win_halted.iter().map(|w| w.count_ones() as u64).sum();
        self.encode_window();
        let (file, offset, len) = self.append_image()?;
        let meta = self.extents.get_mut(e).ok_or_else(|| SpillError::Corrupt {
            path: String::new(),
            detail: "internal: extent index out of range".into(),
        })?;
        self.garbage_bytes += meta.len;
        meta.file = file;
        meta.offset = offset;
        meta.len = len;
        meta.halted = halted;
        Ok(())
    }

    /// The window's columns, viewed exactly like a resident partition's.
    pub(crate) fn window_columns(&mut self) -> RunColumns<'_, I, V> {
        RunColumns {
            ids: &self.win_ids,
            values: &mut self.win_values,
            halted: &mut self.win_halted,
            stamps: &mut self.win_stamps,
        }
    }

    /// Rewrites live extents into a fresh generation file once superseded
    /// images outweigh them, deleting the old files.
    pub(crate) fn maybe_compact(&mut self) -> Result<(), SpillError> {
        let live: u64 = self.extents.iter().map(|m| m.len).sum();
        if self.garbage_bytes <= live.max(1) {
            return Ok(());
        }
        self.push_gen_file();
        let new_idx = self.files.len() - 1;
        let (new_path, mut new_len) = match self.files.get(new_idx) {
            Some(gf) => (gf.path.clone(), gf.len),
            None => return Err(self.internal("fresh generation file missing")),
        };
        let mut out = BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&new_path)
                .map_err(|e| io_err(&new_path, "open generation file", e))?,
        );
        for e in 0..self.extents.len() {
            let (file, offset, len) = match self.extents.get(e) {
                Some(m) => (m.file, m.offset, m.len),
                None => return Err(self.internal("extent index out of range")),
            };
            let path = match self.files.get(file) {
                Some(gf) => gf.path.clone(),
                None => return Err(self.internal("extent references a missing file")),
            };
            let mut f =
                std::fs::File::open(&path).map_err(|e| io_err(&path, "open generation file", e))?;
            f.seek(SeekFrom::Start(offset))
                .map_err(|e| io_err(&path, "seek to extent", e))?;
            self.scratch.clear();
            let got = f
                .take(len)
                .read_to_end(&mut self.scratch)
                .map_err(|e| io_err(&path, "read extent image", e))?;
            if (got as u64) < len {
                return Err(SpillError::Truncated {
                    path: path.display().to_string(),
                    detail: format!("extent at offset {offset}: needed {len} bytes, got {got}"),
                });
            }
            out.write_all(&self.scratch)
                .map_err(|e| io_err(&new_path, "append extent image", e))?;
            self.spill_read_bytes += len;
            self.spilled_bytes += len;
            if let Some(m) = self.extents.get_mut(e) {
                m.file = new_idx;
                m.offset = new_len;
            }
            new_len += len;
        }
        out.flush()
            .map_err(|e| io_err(&new_path, "flush generation file", e))?;
        drop(out);
        // Retire every pre-compaction file and renumber the survivor to 0.
        let old: Vec<GenFile> = self.files.drain(..new_idx).collect();
        for gf in &old {
            let _ = std::fs::remove_file(&gf.path);
        }
        if let Some(gf) = self.files.first_mut() {
            gf.len = new_len;
        }
        for m in &mut self.extents {
            m.file = 0;
        }
        self.garbage_bytes = 0;
        Ok(())
    }

    /// Loads every extent in order and hands each slot to `f` (unseal).
    pub(crate) fn drain_slots(
        &mut self,
        mut f: impl FnMut(I, Option<V>, bool, u32),
    ) -> Result<(), SpillError> {
        for e in 0..self.extents.len() {
            self.load_extent(e)?;
            let ids = std::mem::take(&mut self.win_ids);
            let values = std::mem::take(&mut self.win_values);
            let stamps = std::mem::take(&mut self.win_stamps);
            let words = std::mem::take(&mut self.win_halted);
            self.loaded = None;
            for (slot, ((id, value), stamp)) in
                ids.iter().copied().zip(values).zip(stamps).enumerate()
            {
                f(id, value, bit(&words, slot), stamp);
            }
            // Give the capacity back to the window for the next extent.
            self.win_ids = ids;
            self.win_ids.clear();
        }
        Ok(())
    }

    /// Total vertex slots across all extents.
    pub(crate) fn total_slots(&self) -> usize {
        self.extents.iter().map(|m| m.slots).sum()
    }

    /// Halted slots across all extents (as of each extent's last writeback).
    pub(crate) fn total_halted(&self) -> u64 {
        self.extents.iter().map(|m| m.halted).sum()
    }

    /// Heap bytes of the window buffers, scratch, and extent directory —
    /// the seal's actual RAM footprint, reported in `store_resident_bytes`
    /// while the partition is sealed.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.win_ids.capacity() * std::mem::size_of::<I>()
            + self.win_values.capacity() * std::mem::size_of::<Option<V>>()
            + self.win_halted.capacity() * 8
            + self.win_stamps.capacity() * 4
            + self.scratch.capacity()
            + self.extents.capacity() * std::mem::size_of::<ExtentMeta<I>>()
    }

    /// Drains the I/O counters: `(bytes written, bytes read, extent images
    /// written)` since the previous call.
    pub(crate) fn take_counters(&mut self) -> (u64, u64, u64) {
        let out = (
            self.spilled_bytes,
            self.spill_read_bytes,
            self.spilled_extents,
        );
        self.spilled_bytes = 0;
        self.spill_read_bytes = 0;
        self.spilled_extents = 0;
        out
    }
}

impl<I, V> Drop for PartSeal<I, V> {
    fn drop(&mut self) {
        for gf in &self.files {
            let _ = std::fs::remove_file(&gf.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let path = dir
            .file("probe.bin")
            .parent()
            .map(std::path::Path::to_path_buf);
        let path = path.expect("spill dir has a path");
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists(), "spill dir must vanish with its last handle");
    }

    #[test]
    fn run_roundtrip_streams_in_order() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let records: Vec<(u64, u64)> = (0..3000).map(|i| (i, i * 31)).collect();
        let kc = codec_of::<u64>();
        let vc = codec_of::<u64>();
        let run = write_run(&dir, "a.run", &records, &kc, &vc).expect("write run");
        assert!(run.bytes > 0);
        let mut rd = RunReader::open(run.path(), kc, vc).expect("open run");
        let mut back = Vec::new();
        while let Some(rec) = rd.next().expect("read record") {
            back.push(rec);
        }
        assert_eq!(back, records);
        assert_eq!(rd.bytes_read(), run.bytes);
        let path = run.path().to_path_buf();
        drop(rd);
        drop(run);
        assert!(!path.exists(), "run file must vanish when its handle drops");
    }

    #[test]
    fn truncated_run_is_a_typed_error() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let records: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let kc = codec_of::<u64>();
        let vc = codec_of::<u64>();
        let run = write_run(&dir, "t.run", &records, &kc, &vc).expect("write run");
        let bytes = std::fs::read(run.path()).expect("read back");
        std::fs::write(run.path(), &bytes[..bytes.len() / 2]).expect("truncate");
        let mut rd = RunReader::open(run.path(), kc, vc).expect("header still intact");
        let err = loop {
            match rd.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated run must not read to completion"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");
    }

    #[test]
    fn corrupt_magic_is_a_typed_error() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let path = dir.file("bad.run");
        std::fs::write(&path, b"NOTSPILLxxxxxxxxxxxxxxxx").expect("write garbage");
        let err = RunReader::<u64, u64>::open(&path, codec_of(), codec_of())
            .err()
            .expect("garbage header must not open");
        assert!(
            matches!(
                err,
                SpillError::Corrupt { .. } | SpillError::Truncated { .. }
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Bytes of the shared header: magic, version, record count.
    const HEADER_BYTES: usize = 20;

    /// Three flushes over buckets {0, 2, 5}: bucket 2 is written twice.
    fn sample_segment_file(dir: &Arc<SpillDir>) -> KeySegmentFile {
        let mut w = KeySegmentWriter::create(dir, "s.seg").expect("create segment file");
        let frag = |keys: &'static [u64]| std::iter::once(keys);
        w.append(2, 3, frag(&[20, 21, 22])).expect("append");
        w.append(5, 1, frag(&[u64::MAX])).expect("append");
        w.append(0, 2, [&[1u64][..], &[0u64][..]].into_iter())
            .expect("append fragmented");
        w.append(2, 2, frag(&[23, 24])).expect("append");
        w.finish().expect("finish")
    }

    #[test]
    fn key_segments_roundtrip_by_bucket_in_flush_order() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let file = sample_segment_file(&dir);
        assert_eq!(file.segments().len(), 4);
        assert_eq!(file.segments_of(1), &[]);
        assert_eq!(file.segments_of(9), &[]);
        let mut reader = file.open().expect("open");
        reader.validate_header().expect("header matches the index");
        let mut read = |bucket: u32| {
            let mut keys = Vec::new();
            for segment in file.segments_of(bucket) {
                reader.read_into(segment, &mut keys).expect("read segment");
            }
            keys
        };
        // Read out of file order on purpose: segments are addressed.
        assert_eq!(read(5), vec![u64::MAX]);
        assert_eq!(read(2), vec![20, 21, 22, 23, 24]);
        assert_eq!(read(0), vec![1, 0]);
        // Header + every frame once = every byte written.
        assert_eq!(reader.bytes_read(), file.bytes);
        assert_eq!(
            std::fs::metadata(file.path()).expect("stat").len(),
            file.bytes
        );
        let path = file.path().to_path_buf();
        drop(reader);
        drop(file);
        assert!(!path.exists(), "segment file must vanish with its handle");
    }

    #[test]
    fn damaged_key_segment_files_are_typed_errors() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let file = sample_segment_file(&dir);
        let intact = std::fs::read(file.path()).expect("read back");
        let read_all = |file: &KeySegmentFile| -> Result<(), SpillError> {
            let mut reader = file.open()?;
            reader.validate_header()?;
            let mut keys = Vec::new();
            for segment in file.segments() {
                reader.read_into(segment, &mut keys)?;
            }
            Ok(())
        };
        read_all(&file).expect("intact file reads");

        // Cut inside the last frame.
        std::fs::write(file.path(), &intact[..intact.len() - 5]).expect("truncate");
        let err = read_all(&file).expect_err("truncated frame");
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");

        // Cut inside the header.
        std::fs::write(file.path(), &intact[..10]).expect("truncate");
        let err = read_all(&file).expect_err("truncated header");
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");

        // A frame that claims another bucket (first frame's bucket field).
        let mut wrong_bucket = intact.clone();
        wrong_bucket[HEADER_BYTES + 4] ^= 1;
        std::fs::write(file.path(), &wrong_bucket).expect("corrupt");
        let err = read_all(&file).expect_err("bucket mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");

        // A frame whose length prefix disagrees with the index.
        let mut wrong_len = intact.clone();
        wrong_len[HEADER_BYTES] -= 8;
        std::fs::write(file.path(), &wrong_len).expect("corrupt");
        let err = read_all(&file).expect_err("length mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");

        // A header that counts other segments than the index, a foreign magic.
        let mut wrong_count = intact.clone();
        wrong_count[HEADER_COUNT_OFFSET as usize] += 1;
        std::fs::write(file.path(), &wrong_count).expect("corrupt");
        let err = read_all(&file).expect_err("count mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        let mut wrong_magic = intact;
        wrong_magic[0] ^= 0xFF;
        std::fs::write(file.path(), &wrong_magic).expect("corrupt");
        let err = read_all(&file).expect_err("bad magic");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn merge_breaks_key_ties_by_source_index() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let kc = codec_of::<u64>();
        let vc = codec_of::<u64>();
        // Key 5 appears in every source; values encode the source so the
        // emission order is observable.
        let run_a = write_run(&dir, "a.run", &[(1u64, 10u64), (5, 50)], &kc, &vc).expect("run a");
        let run_b = write_run(&dir, "b.run", &[(5u64, 51u64), (7, 70)], &kc, &vc).expect("run b");
        let sources = vec![
            MergeSource::Disk(RunReader::open(run_a.path(), kc, vc).expect("open a")),
            MergeSource::Disk(RunReader::open(run_b.path(), kc, vc).expect("open b")),
            MergeSource::Ram(vec![(5u64, 52u64), (6, 60)].into_iter()),
        ];
        let mut merged = Vec::new();
        let read = merge_run_sources(sources, |k, v| merged.push((k, v))).expect("merge");
        assert_eq!(
            merged,
            vec![(1, 10), (5, 50), (5, 51), (5, 52), (6, 60), (7, 70)]
        );
        assert_eq!(read, run_a.bytes + run_b.bytes);
    }

    #[test]
    fn part_seal_roundtrips_slots_across_extents() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let n = EXTENT_SLOTS * 2 + 123;
        let mut seal: PartSeal<u64, u64> =
            PartSeal::new(Arc::clone(&dir), 0, codec_of(), codec_of());
        seal.seal_slots((0..n).map(|i| {
            let id = (i as u64) * 3;
            (id, Some(id * 7), i % 5 == 0, i as u32)
        }))
        .expect("seal slots");
        assert_eq!(seal.total_slots(), n);
        assert_eq!(seal.extents.len(), 3);
        assert_eq!(
            seal.total_halted(),
            (0..n).filter(|i| i % 5 == 0).count() as u64
        );
        let (written, _, images) = seal.take_counters();
        assert!(written > 0 && images == 3);
        let mut back = Vec::new();
        seal.drain_slots(|id, value, halted, stamp| back.push((id, value, halted, stamp)))
            .expect("drain slots");
        let expected: Vec<_> = (0..n)
            .map(|i| {
                let id = (i as u64) * 3;
                (id, Some(id * 7), i % 5 == 0, i as u32)
            })
            .collect();
        assert_eq!(back, expected);
    }
}
