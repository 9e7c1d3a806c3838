//! Out-of-core spill layer: bounded-memory execution of the keyed pass.
//!
//! **Key-segment spilling** — when a scatter worker of the keyed pass
//! ([`crate::keycount`]) outgrows its share of the [`SpillPolicy`] byte cap,
//! it appends the records of every non-empty bucket, unsorted, as one
//! bucket-addressed segment to its `KeySegmentWriter` file; the fold phase
//! reads each bucket's segments back, once, by offset (`KeySegmentReader`),
//! and checks every record's key count on the way — and, for records that
//! reference the read slab, that their bases lie inside it. DBG construction runs
//! both of its phases on the keyed pass, so a capped assembly spills there
//! and nowhere else: the Pregel runners are resident, as Pregel+ is.
//!
//! A key-segment file is an 8-byte magic (`PPASPIL1`), a `u32` format
//! version, the `u32` width of its records in words, a `u64` segment count,
//! then `u32` length-prefixed frames, every integer little-endian. A frame
//! holds one segment: its bucket index (`u32`) and its records, each as its
//! `u64` words in order. Records are one word wide in DBG construction's
//! count (a read slab position and a window count, valid only in the
//! process that wrote them: spill files are transient) and two wide in its
//! vertex fold. The reader knows every segment's offset and length
//! from the in-RAM index, so it reads the header and each frame whole with
//! `read_exact` into one reused buffer and parses them off the slice. The
//! entire module is panic-free outside tests: truncated or corrupt spill
//! files surface as [`SpillError`] values, never as panics, and the
//! `ppa_lint` `panic-free-codecs` rule enforces this at CI time.
//!
//! Temporary files live in a per-pass `SpillDir` under the system temp
//! directory; the directory and every segment file are removed by RAII
//! `Drop` impls, including on the cancellation unwind path.

use crate::keycount::{keys_of, Record, RecordCheck, KEYS_SHIFT};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic of key-segment files: `PPASPIL1` as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"PPASPIL1");

/// Format version written after the magic: 2 since records have a width.
const VERSION: u32 = 2;

/// Upper bound on a single frame, checked when a segment is written.
const MAX_FRAME: u32 = 1 << 30;

/// Whether the keyed pass may spill to disk, and at what threshold.
///
/// Installed on the [`ExecCtx`](crate::ExecCtx) (usually via
/// `AssemblyConfig.spill`). The one reader is the keyed pass
/// ([`crate::keycount`]), on which DBG construction runs; Pregel jobs on
/// either plane — contig labeling and tip removal among them — run resident
/// whatever the policy. [`SpillPolicy::Off`] keeps every code path
/// byte-for-byte identical to the pre-spill engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Writes the header (magic, version, record width, segment count) into
/// `buf`.
fn encode_header(buf: &mut Vec<u8>, width: u32, count: u64) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&width.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
}

/// Splits a little-endian `u32` off the front of `bytes`.
fn take_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// Splits a little-endian `u64` off the front of `bytes`.
fn take_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = bytes.split_first_chunk()?;
    Some((u64::from_le_bytes(*head), rest))
}

/// Splits a [`Record`], `W` little-endian `u64`s, off the front of `bytes`.
fn take_record<const W: usize>(bytes: &[u8]) -> Option<(Record<W>, &[u8])> {
    let mut record = [0; W];
    let mut rest = bytes;
    for word in &mut record {
        (*word, rest) = take_u64(rest)?;
    }
    Some((record, rest))
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

/// Byte offset of the header's segment count (patched when the writer
/// finishes, since segments are appended flush by flush).
const HEADER_COUNT_OFFSET: u64 = 16;

/// Bytes of the header: magic, version, record width, segment count.
const HEADER_BYTES: usize = 24;

/// Appends **unsorted** bucket-addressed record segments to one key-segment
/// file: one frame per segment, its payload the bucket index
/// (`u32`) followed by the segment's [`Record`]s (`W` `u64`s each). The
/// bucketed key counter ([`crate::keycount`]) flushes its scatter buffers
/// through this when they outgrow the spill budget; the segment index —
/// with each segment's record and key counts — stays in RAM.
pub(crate) struct KeySegmentWriter<const W: usize> {
    w: BufWriter<std::fs::File>,
    path: PathBuf,
    dir: Arc<SpillDir>,
    bytes: u64,
    segments: Vec<KeySegment>,
}

impl<const W: usize> KeySegmentWriter<W> {
    /// Creates `name` inside `dir` and writes the header.
    pub(crate) fn create(dir: &Arc<SpillDir>, name: &str) -> Result<Self, SpillError> {
        let path = dir.file(name);
        let file =
            std::fs::File::create(&path).map_err(|e| io_err(&path, "create segment file", e))?;
        let mut w = BufWriter::new(file);
        let mut head = Vec::new();
        encode_header(&mut head, W as u32, 0);
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
        fragments: impl Iterator<Item = &'a [Record<W>]>,
    ) -> Result<(), SpillError> {
        let too_long = || SpillError::Corrupt {
            path: self.path.display().to_string(),
            detail: format!(
                "a segment of {records} records exceeds the {MAX_FRAME}-byte frame cap"
            ),
        };
        let count = u32::try_from(records).map_err(|_| too_long())?;
        let len = count
            .checked_mul(8 * W as u32)
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
        for word in fragments.flat_map(|fragment| fragment.iter().flatten()) {
            put(&word.to_le_bytes())?;
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

    /// Opens the file for segment reads of `W`-word records (one handle,
    /// one cursor, per reader).
    pub(crate) fn open<const W: usize>(&self) -> Result<KeySegmentReader<'_, W>, SpillError> {
        let file = std::fs::File::open(&self.path)
            .map_err(|e| io_err(&self.path, "open segment file", e))?;
        Ok(KeySegmentReader {
            file,
            of: self,
            buf: Vec::new(),
            bytes_read: 0,
        })
    }
}

impl Drop for KeySegmentFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Random-access reader of `W`-word records over one [`KeySegmentFile`].
pub(crate) struct KeySegmentReader<'a, const W: usize> {
    file: std::fs::File,
    of: &'a KeySegmentFile,
    /// The bytes last read: the header, or one segment's frame.
    buf: Vec<u8>,
    bytes_read: u64,
}

impl<const W: usize> KeySegmentReader<'_, W> {
    /// Reads the `len` bytes at `offset` into the buffer; a file that ends
    /// first is [`SpillError::Truncated`].
    fn read_at(&mut self, offset: u64, len: usize) -> Result<&[u8], SpillError> {
        let path = &self.of.path;
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err(path, "seek in segment file", e))?;
        self.buf.resize(len, 0);
        self.file.read_exact(&mut self.buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                SpillError::Truncated {
                    path: path.display().to_string(),
                    detail: format!("at offset {offset}: needed {len} bytes"),
                }
            } else {
                io_err(path, "read segment file", e)
            }
        })?;
        self.bytes_read += len as u64;
        Ok(&self.buf)
    }

    /// Checks the header against the in-RAM index.
    pub(crate) fn validate_header(&mut self) -> Result<(), SpillError> {
        let of = self.of;
        let segments = of.segments.len() as u64;
        let header = self.read_at(0, HEADER_BYTES)?;
        let corrupt = |detail: String| SpillError::Corrupt {
            path: of.path.display().to_string(),
            detail,
        };
        // `read_at` returned the whole header, so every split succeeds.
        let (magic, rest) = take_u64(header).unwrap_or_default();
        let (version, rest) = take_u32(rest).unwrap_or_default();
        let (width, rest) = take_u32(rest).unwrap_or_default();
        let (count, _) = take_u64(rest).unwrap_or_default();
        if magic != MAGIC {
            Err(corrupt(format!("bad magic {magic:#018x}")))
        } else if version != VERSION {
            Err(corrupt(format!(
                "unsupported spill format version {version}"
            )))
        } else if width as usize != W {
            Err(corrupt(format!(
                "holds {width}-word records, the reader reads {W}-word ones"
            )))
        } else if count != segments {
            Err(corrupt(format!(
                "header counts {count} segments, the index holds {segments}"
            )))
        } else {
            Ok(())
        }
    }

    /// Appends the records of `segment` to `out`, each checked to stand for
    /// `1..=max_keys` keys and all of them together for the segment's keys —
    /// the count phase sizes a bucket's table from those, and expands a
    /// record into as many keys as it counts — and, for records that point
    /// into a slab of bases, to cover only bases inside it, which the
    /// expansion reads. On an error `out` is left as it was.
    pub(crate) fn read_into(
        &mut self,
        segment: &KeySegment,
        check: &RecordCheck,
        out: &mut Vec<Record<W>>,
    ) -> Result<(), SpillError> {
        let max_keys = check.max_keys;
        // The length prefix, the bucket index, then the records.
        let len = 4 + segment.records as usize * 8 * W;
        let of = self.of;
        let corrupt = |detail: String| SpillError::Corrupt {
            path: of.path.display().to_string(),
            detail: format!("segment at offset {}: {detail}", segment.offset),
        };
        let frame = self.read_at(segment.offset, 4 + len)?;
        // `read_at` returned the whole frame, so both splits succeed.
        let (prefix, frame) = take_u32(frame).unwrap_or_default();
        let (bucket, frame) = take_u32(frame).unwrap_or_default();
        if prefix as usize != len {
            return Err(corrupt(format!(
                "holds {prefix} bytes, the index says {} records",
                segment.records
            )));
        }
        if bucket != segment.bucket {
            return Err(corrupt(format!(
                "holds bucket {bucket}, the index says {}",
                segment.bucket
            )));
        }
        let start = out.len();
        let mut keys = 0u64;
        let mut rest = frame;
        while let Some((record, next)) = take_record::<W>(rest) {
            rest = next;
            let n = keys_of(&record);
            let at = out.len() - start;
            let wrong = if !(1..=max_keys).contains(&n) {
                Some(format!(
                    "record {at} stands for {n} keys, not 1..={max_keys}"
                ))
            } else {
                check.slab.and_then(|slab| {
                    // The bits below the key count: the first base's slab
                    // position.
                    let first = record.first().map_or(0, |w| w & ((1 << KEYS_SHIFT) - 1));
                    let end = first + u64::from(slab.window) + u64::from(n) - 1;
                    (end > slab.bases).then(|| {
                        format!(
                            "record {at} references bases {first}..{end}, past the slab's {}",
                            slab.bases
                        )
                    })
                })
            };
            if let Some(detail) = wrong {
                out.truncate(start);
                return Err(corrupt(detail));
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

    /// A test record: `key` standing for `n` keys.
    fn rec(key: u64, n: u64) -> Record {
        [key, n << KEYS_SHIFT]
    }

    /// A reference to the bases from slab position `first` on, standing for
    /// `n` windows.
    fn reference(first: u64, n: u64) -> Record<1> {
        [first | n << KEYS_SHIFT]
    }

    /// Records of at most `max_keys` keys each, which carry their keys.
    fn carried(max_keys: u32) -> RecordCheck {
        RecordCheck {
            max_keys,
            slab: None,
        }
    }

    /// References of at most 4 windows of 32 bases into a slab of 100 bases.
    const SLAB: RecordCheck = RecordCheck {
        max_keys: 4,
        slab: Some(crate::keycount::SlabExtent {
            bases: 100,
            window: 32,
        }),
    };

    /// Reads every segment of `file` back in `W`-word records, bucket by
    /// bucket, each checked by `check`; a failed read must append nothing.
    fn read_all<const W: usize>(
        file: &KeySegmentFile,
        check: &RecordCheck,
    ) -> Result<Vec<Record<W>>, SpillError> {
        let mut reader = file.open::<W>()?;
        reader.validate_header()?;
        let mut records = Vec::new();
        for segment in file.segments() {
            let before = records.len();
            reader
                .read_into(segment, check, &mut records)
                .inspect_err(|_| {
                    assert_eq!(records.len(), before, "a failed read appends nothing")
                })?;
        }
        Ok(records)
    }

    /// Three flushes over buckets {0, 2, 5}: bucket 2 is written twice.
    fn sample_segment_file(dir: &Arc<SpillDir>) -> KeySegmentFile {
        let mut w = KeySegmentWriter::<2>::create(dir, "s.seg").expect("create segment file");
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
        let mut reader = file.open::<2>().expect("open");
        reader.validate_header().expect("header matches the index");
        let mut read = |bucket: u32| {
            let mut records = Vec::new();
            for segment in file.segments_of(bucket) {
                reader
                    .read_into(segment, &carried(4), &mut records)
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
        let read_all = |file: &KeySegmentFile, max_keys: u32| {
            read_all::<2>(file, &carried(max_keys)).map(|_| ())
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

    #[test]
    fn one_word_key_segments_roundtrip_by_bucket_in_flush_order() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let mut w = KeySegmentWriter::<1>::create(&dir, "r.seg").expect("create segment file");
        // The first and the last bases of a 100-base slab, and in between.
        let a = [reference(0, 1), reference(64, 4)];
        let b = [reference(68, 1)];
        let c = [reference(7, 2), reference(7, 3)];
        w.append(3, 2, 5, std::iter::once(&a[..])).expect("append");
        w.append(1, 1, 1, std::iter::once(&b[..])).expect("append");
        w.append(3, 2, 5, std::iter::once(&c[..])).expect("append");
        let file = w.finish().expect("finish");
        // Eight bytes a record: the header, then per frame a length prefix,
        // a bucket index and the records.
        assert_eq!(file.bytes, (HEADER_BYTES + 3 * 8 + 5 * 8) as u64);
        assert_eq!(read_all::<1>(&file, &SLAB), Ok([&b[..], &a, &c].concat()));
        let mut reader = file.open::<1>().expect("open");
        reader.validate_header().expect("header matches the index");
        let mut bucket3 = Vec::new();
        for segment in file.segments_of(3) {
            reader
                .read_into(segment, &SLAB, &mut bucket3)
                .expect("read segment");
        }
        assert_eq!(bucket3, [a, c].concat());
    }

    #[test]
    fn a_key_segment_file_of_another_record_width_is_corrupt() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let two_words = sample_segment_file(&dir);
        let err = read_all::<1>(&two_words, &carried(4)).expect_err("width mismatch");
        assert!(
            matches!(&err, SpillError::Corrupt { detail, .. } if detail.contains("2-word")),
            "got {err:?}"
        );
        let mut w = KeySegmentWriter::<1>::create(&dir, "r.seg").expect("create segment file");
        w.append(0, 1, 1, std::iter::once(&[reference(0, 1)][..]))
            .expect("append");
        let one_word = w.finish().expect("finish");
        let err = read_all::<2>(&one_word, &carried(4)).expect_err("width mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        // The header's width field, rewritten to claim 2-word records.
        let mut bytes = std::fs::read(one_word.path()).expect("read back");
        bytes[12] = 2;
        std::fs::write(one_word.path(), &bytes).expect("corrupt");
        let err = read_all::<1>(&one_word, &SLAB).expect_err("width mismatch");
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn a_key_segment_reference_past_the_slab_end_is_corrupt() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        // 35 bases from 65 end at the slab's last base, 99; one further is
        // past it, and so is any position with a spare bit set above 48.
        for (record, inside) in [
            (reference(65, 4), true),
            (reference(66, 4), false),
            (reference(68, 1), true),
            (reference(69, 1), false),
            (reference(100, 1), false),
            (reference(1 << 50, 1), false),
        ] {
            let mut w = KeySegmentWriter::<1>::create(&dir, "r.seg").expect("create segment file");
            let n = u64::from(keys_of(&record));
            w.append(
                0,
                2,
                1 + n,
                [&[reference(0, 1)][..], &[record][..]].into_iter(),
            )
            .expect("append");
            let file = w.finish().expect("finish");
            let outcome = read_all::<1>(&file, &SLAB);
            if inside {
                assert_eq!(outcome, Ok(vec![reference(0, 1), record]));
            } else {
                let err = outcome.expect_err("a reference past the slab");
                assert!(
                    matches!(&err, SpillError::Corrupt { detail, .. } if detail.contains("record 1 references")),
                    "{record:?}: got {err:?}"
                );
            }
            // Records that carry their keys are not checked against a slab.
            assert!(read_all::<1>(&file, &carried(4)).is_ok());
        }
    }
}
