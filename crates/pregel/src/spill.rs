//! Out-of-core spill layer: bounded-memory execution of the keyed pass.
//!
//! **Key-segment spilling** — when a scatter worker of the keyed pass
//! ([`crate::keycount`]) outgrows its share of the [`SpillPolicy`] byte cap,
//! it appends the records of every non-empty bucket, unsorted, as one
//! bucket-addressed segment to its `KeySegmentWriter` file; the fold phase
//! reads each bucket's segments back, once, by offset (`KeySegmentReader`),
//! and checks every record's key count on the way. DBG construction runs
//! both of its phases on the keyed pass, so a capped assembly spills there
//! and nowhere else: the Pregel runners are resident, as Pregel+ is.
//!
//! The module also keeps the [`SpillCodec`] trait and the plain spill-file
//! format ([`write_spill_file`], [`read_spill_file`] and their in-memory
//! twins), which the `ablation_chaining` bench prices the storage round-trip
//! of job chaining with.
//!
//! All file formats share one framing: an 8-byte magic (`PPASPIL1`), a
//! `u32` format version, a `u64` record/segment count, then `u32`
//! length-prefixed frames read back through the streaming
//! `serde::bin::FrameReader`. Per the PR 8 codec contract the entire module
//! is panic-free outside tests: truncated or corrupt spill files surface as
//! [`SpillError`] values, never as panics, and the `ppa_lint`
//! `panic-free-codecs` rule enforces this at CI time.
//!
//! Temporary files live in a per-pass `SpillDir` under the system temp
//! directory; the directory and every segment file are removed by RAII
//! `Drop` impls, including on the cancellation unwind path.

use crate::keycount::{keys_of, Record, RECORD_BYTES};
use serde::bin::{FrameError, FrameReader};
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic shared by key-segment files and spill round-trip files:
/// `PPASPIL1` as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"PPASPIL1");

/// Format version written after the magic.
const VERSION: u32 = 1;

/// Upper bound on a single frame; a corrupt length prefix fails fast as
/// [`SpillError::Corrupt`] instead of triggering a gigantic allocation.
const MAX_FRAME: u32 = 1 << 30;

/// Whether the keyed pass may spill to disk, and at what threshold.
///
/// Installed on the [`ExecCtx`](crate::ExecCtx) (usually via
/// `AssemblyConfig.spill`). The one reader is the keyed pass
/// ([`crate::keycount`]), on which DBG construction runs; Pregel jobs on
/// either plane — contig labeling and tip removal among them — run resident
/// whatever the policy. [`SpillPolicy::Off`] keeps every code path
/// byte-for-byte identical to the pre-spill engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SpillPolicy {
    /// Never spill; everything stays in RAM (the default).
    #[default]
    Off,
    /// Spill past this cap: each scatter worker of the keyed pass writes its
    /// buffered records out as key segments once they exceed
    /// `cap / (4 × workers)` bytes.
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

/// A minimal binary codec for the plain spill-file format
/// ([`write_spill_file`], [`encode_spill_bytes`]).
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

/// RAII temp directory holding every spill artefact of one keyed pass.
///
/// Shared via `Arc` by the pass's key-segment files; removing it (with all
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
/// written.
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

/// Where one bucket-addressed key segment sits in a [`KeySegmentFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeySegment {
    /// The bucket every record of the segment belongs to.
    pub(crate) bucket: u32,
    /// Records in the segment.
    records: u32,
    /// Keys its records stand for.
    pub(crate) keys: u64,
    /// Byte offset of the segment's frame (its length prefix).
    offset: u64,
}

/// Byte offset of the header's record count (patched when the writer
/// finishes, since segments are appended flush by flush).
const HEADER_COUNT_OFFSET: u64 = 12;

/// Appends **unsorted** bucket-addressed record segments to one file in the
/// shared spill framing: one frame per segment, its payload the bucket index
/// (`u32`) followed by the segment's [`Record`]s (two `u64`s each). The
/// bucketed key counter ([`crate::keycount`]) flushes its scatter buffers
/// through this when they outgrow the spill budget; the segment index —
/// with each segment's record and key counts — stays in RAM.
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

    /// Appends one segment: `records` records of `bucket`, standing for
    /// `keys` keys, handed over as the fragments they were buffered in.
    pub(crate) fn append<'a>(
        &mut self,
        bucket: u32,
        records: usize,
        keys: u64,
        fragments: impl Iterator<Item = &'a [Record]>,
    ) -> Result<(), SpillError> {
        let too_long = || SpillError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!(
                "a segment of {records} records exceeds the {MAX_FRAME}-byte frame cap"
            ),
        };
        let count = u32::try_from(records).map_err(|_| too_long())?;
        let len = count
            .checked_mul(RECORD_BYTES as u32)
            .and_then(|n| n.checked_add(4))
            .filter(|len| *len <= MAX_FRAME)
            .ok_or_else(too_long)?;
        let path = &self.path;
        let mut put = |bytes: &[u8]| {
            self.w
                .write_all(bytes)
                .map_err(|e| io_err(path, "write key segment", e))
        };
        put(&len.to_le_bytes())?;
        put(&bucket.to_le_bytes())?;
        for fragment in fragments {
            for &[head, tail] in fragment {
                put(&head.to_le_bytes())?;
                put(&tail.to_le_bytes())?;
            }
        }
        self.segments.push(KeySegment {
            bucket,
            records: count,
            keys,
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

    /// Appends the records of `segment` to `out`, each checked to stand for
    /// `1..=max_keys` keys and all of them together for the segment's keys —
    /// the count phase sizes a bucket's table from those, and expands a
    /// record into as many keys as it counts. On an error `out` is left as
    /// it was.
    pub(crate) fn read_into(
        &mut self,
        segment: &KeySegment,
        max_keys: u32,
        out: &mut Vec<Record>,
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
        if frame.len() != segment.records as usize * RECORD_BYTES {
            return Err(corrupt(format!(
                "holds {} record bytes, the index says {} records",
                frame.len(),
                segment.records
            )));
        }
        let start = out.len();
        let mut keys = 0u64;
        let mut rest = frame;
        while let Some((head, tail)) = <(u64, u64)>::decode(&mut rest) {
            let record = [head, tail];
            let n = keys_of(&record);
            if !(1..=max_keys).contains(&n) {
                let at = out.len() - start;
                out.truncate(start);
                return Err(corrupt(format!(
                    "record {at} stands for {n} keys, not 1..={max_keys}"
                )));
            }
            keys += u64::from(n);
            out.push(record);
        }
        if keys != segment.keys {
            let records = out.len() - start;
            out.truncate(start);
            return Err(corrupt(format!(
                "its {records} records stand for {keys} keys, the index says {}",
                segment.keys
            )));
        }
        Ok(())
    }

    /// Bytes read through this handle so far.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_codecs_roundtrip() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        7u32.encode(&mut buf);
        vec![1u8, 2, 3].encode(&mut buf);
        (5u64, 6u64).encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(u64::decode(&mut s), Some(42));
        assert_eq!(u32::decode(&mut s), Some(7));
        assert_eq!(Vec::<u8>::decode(&mut s), Some(vec![1, 2, 3]));
        assert_eq!(<(u64, u64)>::decode(&mut s), Some((5, 6)));
        assert!(u64::decode(&mut s).is_none());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        1234u64.encode(&mut buf);
        let mut s = &buf[..4];
        assert!(u64::decode(&mut s).is_none());
        let mut buf2 = Vec::new();
        vec![9u8; 100].encode(&mut buf2);
        let mut s2 = &buf2[..20];
        assert!(Vec::<u8>::decode(&mut s2).is_none());
    }

    #[test]
    fn spill_roundtrip_in_memory() {
        let items: Vec<(u64, u64)> = (0..1000).map(|i| (i, i * i)).collect();
        let bytes = encode_spill_bytes(&items);
        assert!(bytes.len() >= 16_000);
        let back: Vec<(u64, u64)> =
            decode_spill_stream(bytes.as_slice(), "<memory>").expect("in-memory roundtrip");
        assert_eq!(back, items);
    }

    #[test]
    fn spill_roundtrip_on_disk() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let path = dir.file("items.bin");
        let items: Vec<u64> = (0..100).collect();
        let bytes = write_spill_file(&path, &items).expect("write spill file");
        assert_eq!(bytes, std::fs::metadata(&path).expect("spill file").len());
        let back: Vec<u64> = read_spill_file(&path).expect("on-disk roundtrip");
        assert_eq!(back, items);
    }

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
    fn truncated_run_is_a_typed_error() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let path = dir.file("t.bin");
        let records: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        write_spill_file(&path, &records).expect("write spill file");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = read_spill_file::<(u64, u64)>(&path).expect_err("a cut file must not read");
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");
    }

    #[test]
    fn corrupt_magic_is_a_typed_error() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let path = dir.file("bad.bin");
        std::fs::write(&path, b"NOTSPILLxxxxxxxxxxxxxxxx").expect("write garbage");
        let err = read_spill_file::<u64>(&path).expect_err("garbage header must not open");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    /// Bytes of the shared header: magic, version, record count.
    const HEADER_BYTES: usize = 20;

    /// A test record: `key` standing for `n` keys.
    fn rec(key: u64, n: u64) -> Record {
        [key, n << crate::keycount::KEYS_SHIFT]
    }

    /// Three flushes over buckets {0, 2, 5}: bucket 2 is written twice.
    fn sample_segment_file(dir: &Arc<SpillDir>) -> KeySegmentFile {
        let mut w = KeySegmentWriter::create(dir, "s.seg").expect("create segment file");
        let a = [rec(20, 1), rec(21, 2), rec(22, 3)];
        let b = [rec(u64::MAX, 4)];
        let (c0, c1) = ([rec(1, 1)], [rec(0, 1)]);
        let d = [rec(23, 1), rec(24, 1)];
        w.append(2, 3, 6, std::iter::once(&a[..])).expect("append");
        w.append(5, 1, 4, std::iter::once(&b[..])).expect("append");
        w.append(0, 2, 2, [&c0[..], &c1[..]].into_iter())
            .expect("append fragmented");
        w.append(2, 2, 2, std::iter::once(&d[..])).expect("append");
        w.finish().expect("finish")
    }

    #[test]
    fn key_segments_roundtrip_by_bucket_in_flush_order() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let file = sample_segment_file(&dir);
        assert_eq!(file.segments().len(), 4);
        assert_eq!(file.segments_of(1), &[]);
        assert_eq!(file.segments_of(9), &[]);
        assert_eq!(
            file.segments_of(2)
                .iter()
                .map(|s| s.keys)
                .collect::<Vec<_>>(),
            [6, 2]
        );
        let mut reader = file.open().expect("open");
        reader.validate_header().expect("header matches the index");
        let mut read = |bucket: u32| {
            let mut records = Vec::new();
            for segment in file.segments_of(bucket) {
                reader
                    .read_into(segment, 4, &mut records)
                    .expect("read segment");
            }
            records
        };
        // Read out of file order on purpose: segments are addressed.
        assert_eq!(read(5), vec![rec(u64::MAX, 4)]);
        assert_eq!(
            read(2),
            vec![rec(20, 1), rec(21, 2), rec(22, 3), rec(23, 1), rec(24, 1)]
        );
        assert_eq!(read(0), vec![rec(1, 1), rec(0, 1)]);
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
        let read_all = |file: &KeySegmentFile, max_keys: u32| -> Result<(), SpillError> {
            let mut reader = file.open()?;
            reader.validate_header()?;
            let mut records = Vec::new();
            for segment in file.segments() {
                let before = records.len();
                reader
                    .read_into(segment, max_keys, &mut records)
                    .inspect_err(|_| {
                        assert_eq!(records.len(), before, "a failed read appends nothing")
                    })?;
            }
            Ok(())
        };
        read_all(&file, 4).expect("intact file reads");

        // A record standing for more keys than the reader allows.
        let err = read_all(&file, 3).expect_err("record over the key cap");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");

        // Cut inside the last frame.
        std::fs::write(file.path(), &intact[..intact.len() - 5]).expect("truncate");
        let err = read_all(&file, 4).expect_err("truncated frame");
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");

        // Cut inside the header.
        std::fs::write(file.path(), &intact[..10]).expect("truncate");
        let err = read_all(&file, 4).expect_err("truncated header");
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");

        // A frame that claims another bucket (first frame's bucket field).
        let mut wrong_bucket = intact.clone();
        wrong_bucket[HEADER_BYTES + 4] ^= 1;
        std::fs::write(file.path(), &wrong_bucket).expect("corrupt");
        let err = read_all(&file, 4).expect_err("bucket mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");

        // A frame whose length prefix disagrees with the index.
        let mut wrong_len = intact.clone();
        wrong_len[HEADER_BYTES] -= 16;
        std::fs::write(file.path(), &wrong_len).expect("corrupt");
        let err = read_all(&file, 4).expect_err("length mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");

        // Key counts of the first record (the top byte of its second word):
        // out of range, or in range but no longer summing to the index's.
        let count_at = HEADER_BYTES + 8 + 15;
        for count in [0u8, 5, 0xFF, 2] {
            let mut wrong_count = intact.clone();
            wrong_count[count_at] = count;
            std::fs::write(file.path(), &wrong_count).expect("corrupt");
            let err = read_all(&file, 4).expect_err("bad key count");
            assert!(
                matches!(err, SpillError::Corrupt { .. }),
                "count {count}: got {err:?}"
            );
        }

        // A header that counts other segments than the index, a foreign magic.
        let mut wrong_count = intact.clone();
        wrong_count[HEADER_COUNT_OFFSET as usize] += 1;
        std::fs::write(file.path(), &wrong_count).expect("corrupt");
        let err = read_all(&file, 4).expect_err("count mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        let mut wrong_magic = intact;
        wrong_magic[0] ^= 0xFF;
        std::fs::write(file.path(), &wrong_magic).expect("corrupt");
        let err = read_all(&file, 4).expect_err("bad magic");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }
}
