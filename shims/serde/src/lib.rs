//! Offline serde shim: a small hand-rolled binary reader/writer ([`bin`])
//! used by the checkpoint subsystem and the keyed pass's spill files. See
//! `shims/README.md`.

pub mod bin {
    //! Minimal little-endian binary encoding.
    //!
    //! The checkpoint on-disk format (see `ppa_assembler::checkpoint`) needs a
    //! deterministic, dependency-free byte encoding. [`Writer`] appends
    //! fixed-width little-endian integers and length-prefixed byte strings to
    //! any [`std::io::Write`]; [`Reader`] decodes them from a byte slice and
    //! reports truncation or corruption as a typed [`BinError`] — it never
    //! panics on malformed input.

    use std::fmt;
    use std::io::{self, Read, Write};

    /// Decoding error: the input bytes do not contain what was asked for.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BinError {
        /// Fewer bytes remained than the requested value needs.
        Truncated {
            /// Byte offset at which the read was attempted.
            offset: usize,
            /// Bytes the value needed.
            needed: usize,
            /// Bytes that remained.
            remaining: usize,
        },
        /// A decoded value was structurally invalid (bad tag, non-UTF-8
        /// string, implausible length prefix, …).
        Invalid {
            /// Byte offset at which the bad value started.
            offset: usize,
            /// What was wrong.
            what: String,
        },
    }

    impl fmt::Display for BinError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                BinError::Truncated {
                    offset,
                    needed,
                    remaining,
                } => write!(
                    f,
                    "truncated input at offset {offset}: needed {needed} bytes, {remaining} remain"
                ),
                BinError::Invalid { offset, what } => {
                    write!(f, "invalid value at offset {offset}: {what}")
                }
            }
        }
    }

    impl std::error::Error for BinError {}

    /// Appends little-endian primitives to an [`io::Write`].
    pub struct Writer<W: Write> {
        out: W,
        written: usize,
    }

    impl<W: Write> Writer<W> {
        /// Wraps a sink.
        pub fn new(out: W) -> Writer<W> {
            Writer { out, written: 0 }
        }

        /// Total bytes written so far.
        pub fn bytes_written(&self) -> usize {
            self.written
        }

        /// Unwraps the sink.
        pub fn into_inner(self) -> W {
            self.out
        }

        /// Writes raw bytes without a length prefix.
        pub fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.out.write_all(bytes)?;
            self.written += bytes.len();
            Ok(())
        }

        /// Writes one byte.
        pub fn u8(&mut self, v: u8) -> io::Result<()> {
            self.raw(&[v])
        }

        /// Writes a `bool` as one byte (0 or 1).
        pub fn bool(&mut self, v: bool) -> io::Result<()> {
            self.u8(v as u8)
        }

        /// Writes a little-endian `u32`.
        pub fn u32(&mut self, v: u32) -> io::Result<()> {
            self.raw(&v.to_le_bytes())
        }

        /// Writes a little-endian `u64`.
        pub fn u64(&mut self, v: u64) -> io::Result<()> {
            self.raw(&v.to_le_bytes())
        }

        /// Writes an `f64` via its IEEE-754 bit pattern (exact round-trip).
        pub fn f64(&mut self, v: f64) -> io::Result<()> {
            self.u64(v.to_bits())
        }

        /// Writes a `u64` length prefix followed by the bytes.
        pub fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.u64(bytes.len() as u64)?;
            self.raw(bytes)
        }

        /// Writes a UTF-8 string as a length-prefixed byte string.
        pub fn str(&mut self, s: &str) -> io::Result<()> {
            self.bytes(s.as_bytes())
        }
    }

    /// Error raised by the streaming [`FrameReader`]: either the underlying
    /// source failed, or the stream ended/was malformed mid-value.
    #[derive(Debug)]
    pub enum FrameError {
        /// The underlying [`io::Read`] source returned an error.
        Io {
            /// What was being read when the source failed.
            op: &'static str,
            /// The I/O error, rendered (keeps the enum `Clone`-free of
            /// `io::Error`, which is not `Clone`).
            message: String,
        },
        /// The stream ended before the requested value was complete.
        Truncated {
            /// Stream offset at which the read started.
            offset: u64,
            /// Bytes the value needed.
            needed: usize,
            /// Bytes actually available.
            got: usize,
        },
        /// A decoded value was structurally invalid (e.g. an implausible
        /// frame length).
        Invalid {
            /// Stream offset at which the bad value started.
            offset: u64,
            /// What was wrong.
            what: String,
        },
    }

    impl fmt::Display for FrameError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                FrameError::Io { op, message } => write!(f, "I/O error while {op}: {message}"),
                FrameError::Truncated {
                    offset,
                    needed,
                    got,
                } => write!(
                    f,
                    "truncated stream at offset {offset}: needed {needed} bytes, got {got}"
                ),
                FrameError::Invalid { offset, what } => {
                    write!(f, "invalid value at offset {offset}: {what}")
                }
            }
        }
    }

    impl std::error::Error for FrameError {}

    /// Streaming counterpart of [`Reader`]: decodes little-endian primitives
    /// and `u32`-length-prefixed frames from any [`io::Read`] source without
    /// loading the whole stream into memory. Used by the spill layer to merge
    /// sorted on-disk runs record by record. Like [`Reader`], it reports
    /// truncation and corruption as typed errors and never panics on
    /// malformed input.
    pub struct FrameReader<R: io::Read> {
        src: R,
        /// Scratch holding the most recently filled bytes (one frame at most).
        buf: Vec<u8>,
        /// Bytes consumed from the source so far (error-reporting offset).
        offset: u64,
        /// Frames longer than this are rejected as [`FrameError::Invalid`]
        /// before any allocation, so a corrupt length prefix cannot trigger
        /// a huge read.
        max_frame: u32,
    }

    impl<R: io::Read> FrameReader<R> {
        /// Wraps a source; frames longer than `max_frame` bytes are rejected.
        pub fn new(src: R, max_frame: u32) -> FrameReader<R> {
            FrameReader {
                src,
                buf: Vec::new(),
                offset: 0,
                max_frame,
            }
        }

        /// Bytes consumed from the source so far.
        pub fn offset(&self) -> u64 {
            self.offset
        }

        /// Reads exactly `n` bytes into the scratch buffer and returns them.
        /// `take` + `read_to_end` keeps this panic-free (no slice indexing)
        /// and loops internally over short reads.
        fn fill(&mut self, n: usize, op: &'static str) -> Result<&[u8], FrameError> {
            self.buf.clear();
            let got = (&mut self.src)
                .take(n as u64)
                .read_to_end(&mut self.buf)
                .map_err(|e| FrameError::Io {
                    op,
                    message: e.to_string(),
                })?;
            if got < n {
                return Err(FrameError::Truncated {
                    offset: self.offset,
                    needed: n,
                    got,
                });
            }
            self.offset += n as u64;
            Ok(&self.buf)
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, FrameError> {
            let at = self.offset;
            let arr: [u8; 4] =
                self.fill(4, "reading a u32")?
                    .try_into()
                    .map_err(|_| FrameError::Invalid {
                        offset: at,
                        // Unreachable: fill(4) always returns exactly four bytes.
                        what: "internal: fill(4) length".into(),
                    })?;
            Ok(u32::from_le_bytes(arr))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, FrameError> {
            let at = self.offset;
            let arr: [u8; 8] =
                self.fill(8, "reading a u64")?
                    .try_into()
                    .map_err(|_| FrameError::Invalid {
                        offset: at,
                        // Unreachable: fill(8) always returns exactly eight bytes.
                        what: "internal: fill(8) length".into(),
                    })?;
            Ok(u64::from_le_bytes(arr))
        }

        /// Reads one `u32`-length-prefixed frame and returns its payload.
        /// The length is validated against the `max_frame` bound before any
        /// read, so corrupt prefixes fail fast instead of allocating.
        pub fn frame(&mut self) -> Result<&[u8], FrameError> {
            let at = self.offset;
            let len = self.u32()?;
            if len > self.max_frame {
                return Err(FrameError::Invalid {
                    offset: at,
                    what: format!("frame length {len} exceeds the {} cap", self.max_frame),
                });
            }
            self.fill(len as usize, "reading a frame payload")
        }
    }

    /// Decodes little-endian primitives from a byte slice.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Wraps a byte slice.
        pub fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        /// Current byte offset.
        pub fn position(&self) -> usize {
            self.pos
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Whether the whole buffer has been consumed.
        pub fn is_empty(&self) -> bool {
            self.remaining() == 0
        }

        /// Reports an [`BinError::Invalid`] at the current offset.
        pub fn invalid(&self, what: impl Into<String>) -> BinError {
            BinError::Invalid {
                offset: self.pos,
                what: what.into(),
            }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
            // `get` (not slicing) keeps this panic-free even if the
            // `pos <= len` invariant were ever broken.
            let slice =
                self.buf
                    .get(self.pos..self.pos.saturating_add(n))
                    .ok_or(BinError::Truncated {
                        offset: self.pos,
                        needed: n,
                        remaining: self.buf.len().saturating_sub(self.pos),
                    })?;
            self.pos += n;
            Ok(slice)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, BinError> {
            let at = self.pos;
            match *self.take(1)? {
                [b] => Ok(b),
                // Unreachable: take(1) always returns exactly one byte.
                _ => Err(BinError::Invalid {
                    offset: at,
                    what: "internal: take(1) length".into(),
                }),
            }
        }

        /// Reads a `bool` byte; anything other than 0/1 is invalid.
        pub fn bool(&mut self) -> Result<bool, BinError> {
            let at = self.pos;
            match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(BinError::Invalid {
                    offset: at,
                    what: format!("bool byte must be 0 or 1, got {other}"),
                }),
            }
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, BinError> {
            let at = self.pos;
            let arr: [u8; 4] = self.take(4)?.try_into().map_err(|_| BinError::Invalid {
                offset: at,
                // Unreachable: take(4) always returns exactly four bytes.
                what: "internal: take(4) length".into(),
            })?;
            Ok(u32::from_le_bytes(arr))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, BinError> {
            let at = self.pos;
            let arr: [u8; 8] = self.take(8)?.try_into().map_err(|_| BinError::Invalid {
                offset: at,
                // Unreachable: take(8) always returns exactly eight bytes.
                what: "internal: take(8) length".into(),
            })?;
            Ok(u64::from_le_bytes(arr))
        }

        /// Reads an `f64` from its bit pattern.
        pub fn f64(&mut self) -> Result<f64, BinError> {
            Ok(f64::from_bits(self.u64()?))
        }

        /// Reads a `u64`-length-prefixed byte string. The length prefix is
        /// validated against the remaining input before any allocation.
        pub fn bytes(&mut self) -> Result<&'a [u8], BinError> {
            let at = self.pos;
            let len = self.u64()?;
            if len > self.remaining() as u64 {
                return Err(BinError::Truncated {
                    offset: at,
                    needed: len as usize,
                    remaining: self.remaining(),
                });
            }
            self.take(len as usize)
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<&'a str, BinError> {
            let at = self.pos;
            let bytes = self.bytes()?;
            std::str::from_utf8(bytes).map_err(|_| BinError::Invalid {
                offset: at,
                what: "length-prefixed string is not valid UTF-8".into(),
            })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn primitives_round_trip() {
            let mut w = Writer::new(Vec::new());
            w.u8(7).unwrap();
            w.bool(true).unwrap();
            w.u32(0xDEAD_BEEF).unwrap();
            w.u64(u64::MAX - 1).unwrap();
            w.f64(-0.125).unwrap();
            w.bytes(b"abc").unwrap();
            w.str("héllo").unwrap();
            let buf = w.into_inner();
            let mut r = Reader::new(&buf);
            assert_eq!(r.u8().unwrap(), 7);
            assert!(r.bool().unwrap());
            assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
            assert_eq!(r.u64().unwrap(), u64::MAX - 1);
            assert_eq!(r.f64().unwrap(), -0.125);
            assert_eq!(r.bytes().unwrap(), b"abc");
            assert_eq!(r.str().unwrap(), "héllo");
            assert!(r.is_empty());
        }

        #[test]
        fn truncated_reads_are_typed_errors() {
            let mut w = Writer::new(Vec::new());
            w.u64(42).unwrap();
            let buf = w.into_inner();
            for cut in 0..buf.len() {
                let mut r = Reader::new(&buf[..cut]);
                assert!(matches!(r.u64(), Err(BinError::Truncated { .. })));
            }
        }

        #[test]
        fn oversized_length_prefix_is_truncation_not_allocation() {
            let mut w = Writer::new(Vec::new());
            w.u64(u64::MAX).unwrap(); // bogus length prefix
            let buf = w.into_inner();
            let mut r = Reader::new(&buf);
            assert!(matches!(r.bytes(), Err(BinError::Truncated { .. })));
        }

        #[test]
        fn invalid_bool_and_utf8_rejected() {
            let mut r = Reader::new(&[9]);
            assert!(matches!(r.bool(), Err(BinError::Invalid { .. })));
            let mut w = Writer::new(Vec::new());
            w.bytes(&[0xFF, 0xFE]).unwrap();
            let buf = w.into_inner();
            let mut r = Reader::new(&buf);
            assert!(matches!(r.str(), Err(BinError::Invalid { .. })));
        }

        #[test]
        fn errors_display_offsets() {
            let e = BinError::Truncated {
                offset: 3,
                needed: 8,
                remaining: 1,
            };
            assert!(e.to_string().contains('3'));
            let e = BinError::Invalid {
                offset: 5,
                what: "bad tag".into(),
            };
            assert!(e.to_string().contains("bad tag"));
        }
    }
}
