//! The keyed pass: one scan, one scatter of fixed-width records into hash
//! buckets, one fold per bucket range. It is the workspace's one way to
//! aggregate keyed data outside a Pregel job — the paper's mini MapReduce,
//! with the scatter as its shuffle and the fold as its reduce.
//!
//! A record is two `u64`s and stands for one or more keys. That is enough
//! for what the assembler aggregates: DBG construction counts canonical
//! (k+1)-mers (operation ①, phase (i)), whose keys carry no payload and
//! mostly get thrown away, and folds each kept (k+1)-mer's two edge
//! contributions into k-mer vertices (phase (ii)), one key and one packed
//! slot-and-coverage word per record. Consecutive windows of a read share all
//! but one base, so phase (i) packs a run of them into one [`Record`] and
//! ships each base once instead of once per window: it scatters super-k-mers,
//! runs of windows that share a minimizer
//! (`ppa_seq::kmer::SuperKmerScanner`), at about 1.5 bytes per window instead
//! of 8. [`fold_buckets_on`] never builds `(key, value)` pairs, never
//! presorts and never merges. It runs two phases on the context's worker
//! pool:
//!
//! * **scatter** — every worker walks its share of the scan tasks once and
//!   appends each record to one of 2^b buckets addressed by the top b bits
//!   of a hash the caller hands over with it (a [`KeySink`]). The caller's
//!   hash must send every key of a record, and every occurrence of a key, to
//!   one bucket: a super-k-mer's windows share their minimizer, and the hash
//!   is the minimizer's. A hash that is the key's own leading bits makes the
//!   buckets key ranges, in key order. The sink counts the keys each bucket's
//!   records stand for. b follows from the number of keys and the cache a
//!   bucket's working set has to fit (see `Layout::plan`), so it is a
//!   computed value, never a setting.
//! * **fold** — workers take contiguous bucket ranges holding about the same
//!   number of keys each, and the caller's fold walks its range through
//!   [`Buckets::each`]: bucket by bucket, in ascending order, with the
//!   records every scatter worker put there. [`count_keys_on`]'s fold
//!   expands a bucket's records through the caller's [`Records::expand`] and
//!   counts the keys in a flat open-addressing table sized from the bucket's
//!   key count and small enough to stay in cache (counts saturate at
//!   `u32::MAX`). Reading the table back yields the distinct keys. Only
//!   those counted more than θ times are kept; each fold worker sorts its
//!   survivors with [`crate::radix`], and the coordinator merges the
//!   workers' runs. The keys the threshold discards — most of them — are
//!   never sorted.
//!
//! The job's [`JobControl`](crate::JobControl) is polled at the barrier
//! between the phases, on the coordinator thread. Each record is held once,
//! as sixteen bytes, in buffers sized up front from the caller's per-task key
//! bound; they live for the duration of the call. The scan closure is
//! dropped at the barrier, so
//! what it owns — phase (ii)'s survivors — is freed before the fold.
//!
//! # Under a spill cap
//!
//! With a [`SpillPolicy`](crate::SpillPolicy) cap on the context the same two
//! phases run. A scatter worker checks its buffered bytes after every scan
//! task but its last against a `cap / (4 × workers)` budget; over it, every
//! non-empty bucket's records are appended — unsorted — as one
//! bucket-addressed segment to the worker's segment file in the job's temp
//! directory (`spill::KeySegmentWriter`), and the buffers start over. b is
//! derived from the budget where that is tighter than the cache, so that a
//! bucket's working set is planned to fit the budget in the fold, which
//! reads a bucket's segments back ahead of its in-RAM records. Every record
//! is written at most once and read at most once, and the read-back checks
//! every record's key count before the fold sees it.

use crate::engine::{EngineError, ExecCtx};
use crate::metrics::MapReduceMetrics;
use crate::spill::{KeySegmentFile, KeySegmentReader, KeySegmentWriter, SpillDir, SpillError};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One scattered record: two words standing for one or more keys. The
/// caller packs them as it likes, except that the second word's top bits,
/// from [`KEYS_SHIFT`] up, count the keys the record stands for.
pub type Record = [u64; 2];

/// Where a record's key count starts in its second word.
pub const KEYS_SHIFT: u32 = 56;

/// The number of keys `record` stands for.
#[inline(always)]
pub(crate) fn keys_of(record: &Record) -> u32 {
    (record[1] >> KEYS_SHIFT) as u32
}

/// How a job's records turn back into keys.
pub struct Records<E> {
    /// The most keys one record stands for. A record read back from a spill
    /// segment that counts none or more than this is corrupt.
    pub max_keys: u32,
    /// Appends the keys of every record of the slice, in order, to the
    /// vector — for each record as many as its count says.
    pub expand: E,
}

/// Bytes a bucket's counting table should take at most: half of a typical
/// per-core L2, so the probes of a bucket's keys into its table — one random
/// access per key — never leave the cache.
const BUCKET_CACHE_BYTES: usize = 512 << 10;

/// Bytes per counting-table slot: a `u64` key and its `u32` count, plus the
/// share of the filled-slot list — one `usize` per distinct key, at most one
/// key per two slots.
const SLOT_BYTES: usize = 8 + 4 + 8 / 2;

/// The odd multiplier of the table's multiply–shift hash (2^64 / φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// At most 2^12 buckets: beyond that the scatter's open write streams
/// outnumber the TLB entries and cache lines that keep appending cheap.
const MAX_BUCKET_BITS: u32 = 12;

/// log2 of the records per buffer chunk: a cache line at least, a kibibyte
/// at most (a bucket's unfilled chunk tail is then ≤ 1 KiB).
const MIN_CHUNK_SHIFT: u32 = 2;
const MAX_CHUNK_SHIFT: u32 = 6;

/// Bytes of one record, buffered or in a spill segment.
pub(crate) const RECORD_BYTES: usize = std::mem::size_of::<Record>();

/// `NONE` in the chunk links.
const NO_CHUNK: u32 = u32::MAX;

/// How a job's records are spread over buckets and buffer chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    /// `hash >> shift` is the record's bucket (`shift` may be 64: one
    /// bucket).
    shift: u32,
    /// Buckets − 1.
    mask: u64,
    /// log2 of the records per buffer chunk.
    chunk_shift: u32,
}

impl Layout {
    /// Plans the layout for `total_keys` keys, of which a scatter worker
    /// holds at most `held_records` records — under a spill budget, when it
    /// checks the budget — with an optional per-worker budget in bytes.
    fn plan(total_keys: usize, held_records: usize, budget: Option<usize>) -> Layout {
        // A bucket's table should fit the cache — or the spill budget, where
        // that is tighter: it holds at most half as many keys as the largest
        // power of two of slots that does. The mean bucket is planned at half
        // that again, because a bucket gathers the windows of a few whole
        // minimizers and so buckets are lumpy (simulated 150× reads: the
        // 99th-percentile bucket holds 2.6× the mean, the fullest 4.1×). A
        // bucket past the share only probes a slower level of cache.
        let fit = budget.map_or(BUCKET_CACHE_BYTES, |b| b.min(BUCKET_CACHE_BYTES));
        let fitting_slots = (fit / SLOT_BYTES)
            .checked_ilog2()
            .map_or(0, |b| 1usize << b);
        let mean_keys = (fitting_slots / 4).max(1);
        let wanted = total_keys.div_ceil(mean_keys).max(1);
        let bits = wanted
            .next_power_of_two()
            .trailing_zeros()
            .min(MAX_BUCKET_BITS);
        let buckets = 1usize << bits;
        // Every bucket ends in a partly filled chunk: keep those ends to
        // about half of what the worker holds.
        let chunk_records = (held_records / (2 * buckets)).max(1);
        Layout {
            shift: 64 - bits,
            mask: buckets as u64 - 1,
            chunk_shift: chunk_records
                .ilog2()
                .clamp(MIN_CHUNK_SHIFT, MAX_CHUNK_SHIFT),
        }
    }

    fn buckets(&self) -> usize {
        self.mask as usize + 1
    }

    /// Chunks that hold `records` records however they spread over the
    /// buckets.
    fn chunks_for(&self, records: usize) -> usize {
        (records >> self.chunk_shift) + self.buckets() + 1
    }
}

/// Where a scan task puts the records it extracts:
/// [`push`](KeySink::push) appends a record to the bucket its hash's top
/// bits address.
///
/// One sink per scatter worker. All buckets share one flat slab carved into
/// fixed-size chunks, so the memory is one allocation sized from the known
/// key bound (a record stands for one key at least), and a bucket is the
/// linked list of the chunks it filled. The slab's pages are mapped on
/// first write, so what is resident is what was pushed.
pub struct KeySink {
    layout: Layout,
    /// `chunks × 2^chunk_shift` records; zero pages until written.
    slab: Vec<Record>,
    /// Chunks handed out since the last [`clear`](KeySink::clear).
    used_chunks: usize,
    /// Per bucket: slab index of its next record. On a chunk boundary — also
    /// the initial 0 — the bucket needs a fresh chunk first.
    next: Vec<usize>,
    /// Per bucket: the keys its records stand for.
    keys: Vec<u64>,
    /// Per bucket: its first and last chunk and how many it holds.
    chains: Vec<Chain>,
    /// Per chunk: the chunk that follows it in its bucket.
    link: Vec<u32>,
}

#[derive(Clone, Copy)]
struct Chain {
    first: u32,
    last: u32,
    chunks: u32,
}

const EMPTY_CHAIN: Chain = Chain {
    first: NO_CHUNK,
    last: NO_CHUNK,
    chunks: 0,
};

impl KeySink {
    fn new(layout: Layout, chunks: usize) -> KeySink {
        KeySink {
            layout,
            slab: vec![[0; 2]; chunks << layout.chunk_shift],
            used_chunks: 0,
            next: vec![0; layout.buckets()],
            keys: vec![0; layout.buckets()],
            chains: vec![EMPTY_CHAIN; layout.buckets()],
            link: Vec::with_capacity(chunks),
        }
    }

    /// Appends one record to the bucket `hash` addresses.
    #[inline(always)]
    pub fn push(&mut self, hash: u64, record: Record) {
        // `wrapping_shr` + mask: a single bucket shifts by 64, which must
        // yield 0.
        let bucket = (hash.wrapping_shr(self.layout.shift) & self.layout.mask) as usize;
        let mut at = self.next[bucket];
        if at & ((1 << self.layout.chunk_shift) - 1) == 0 {
            at = self.open_chunk(bucket);
        }
        self.slab[at] = record;
        self.next[bucket] = at + 1;
        self.keys[bucket] += u64::from(keys_of(&record));
    }

    /// Hands `bucket` the next free chunk and returns its first slab index.
    /// The slab only grows if a scan pushed more records than its task
    /// declared keys.
    #[cold]
    fn open_chunk(&mut self, bucket: usize) -> usize {
        let chunk = self.used_chunks;
        let at = chunk << self.layout.chunk_shift;
        if at == self.slab.len() {
            self.slab
                .resize((2 * at).max(1 << self.layout.chunk_shift), [0; 2]);
        }
        self.used_chunks += 1;
        self.link.push(NO_CHUNK);
        let chain = &mut self.chains[bucket];
        match chain.chunks {
            0 => chain.first = chunk as u32,
            _ => self.link[chain.last as usize] = chunk as u32,
        }
        chain.last = chunk as u32;
        chain.chunks += 1;
        at
    }

    /// Records buffered for `bucket`.
    fn len_of(&self, bucket: usize) -> usize {
        match self.chains[bucket].chunks as usize {
            0 => 0,
            chunks => {
                let chunk_records = 1usize << self.layout.chunk_shift;
                let in_last = (self.next[bucket] - 1) % chunk_records + 1;
                (chunks - 1) * chunk_records + in_last
            }
        }
    }

    /// The buffered records of `bucket`, chunk by chunk, in push order.
    fn fragments(&self, bucket: usize) -> impl Iterator<Item = &[Record]> {
        let chunk_records = 1usize << self.layout.chunk_shift;
        let mut chunk = self.chains[bucket].first;
        let mut left = self.len_of(bucket);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let take = left.min(chunk_records);
            let start = (chunk as usize) << self.layout.chunk_shift;
            left -= take;
            chunk = self.link[chunk as usize];
            Some(&self.slab[start..start + take])
        })
    }

    /// Bytes of the chunks in use — what the spill budget is held against.
    fn buffered_bytes(&self) -> usize {
        (self.used_chunks << self.layout.chunk_shift) * RECORD_BYTES
    }

    /// Forgets every buffered record; the slab is kept.
    fn clear(&mut self) {
        self.used_chunks = 0;
        self.next.fill(0);
        self.keys.fill(0);
        self.chains.fill(EMPTY_CHAIN);
        self.link.clear();
    }

    /// Appends every non-empty bucket to `writer` as one segment and starts
    /// over. Returns the keys the written records stand for.
    fn flush_to(&mut self, writer: &mut KeySegmentWriter) -> Result<u64, SpillError> {
        let mut keys = 0u64;
        for bucket in 0..self.layout.buckets() {
            let len = self.len_of(bucket);
            if len > 0 {
                writer.append(
                    bucket as u32,
                    len,
                    self.keys[bucket],
                    self.fragments(bucket),
                )?;
                keys += self.keys[bucket];
            }
        }
        self.clear();
        Ok(keys)
    }
}

/// What one scatter worker hands to the fold phase.
struct Scattered {
    /// The records still in RAM.
    sink: KeySink,
    /// The segments it spilled, if its budget tripped.
    spilled: Option<KeySegmentFile>,
    /// Keys its records stand for, spilled or not.
    keys: u64,
    /// Times the budget tripped.
    flushes: u64,
}

/// Spill plumbing resolved at pass entry: the job-scoped temp directory and
/// the per-worker buffer budget in bytes.
type SpillSetup = Option<(Arc<SpillDir>, usize)>;

/// One scatter worker: scans its tasks into a sink, spilling when over
/// budget.
fn scatter<I, SF>(
    worker: usize,
    tasks: &[I],
    layout: Layout,
    chunks: usize,
    spill: &SpillSetup,
    scan: &SF,
) -> Result<Scattered, SpillError>
where
    SF: Fn(&I, &mut KeySink),
{
    let mut sink = KeySink::new(layout, chunks);
    let mut writer: Option<KeySegmentWriter> = None;
    let (mut keys, mut flushes) = (0u64, 0u64);
    for (done, task) in tasks.iter().enumerate() {
        scan(task, &mut sink);
        // Not after the last task: the fold phase starts next and takes
        // what is buffered as it is; writing it out would only buy reading
        // it back.
        let more = done + 1 < tasks.len();
        if let Some((dir, budget)) = spill.as_ref().filter(|_| more) {
            if sink.buffered_bytes() > *budget {
                let mut open = match writer.take() {
                    Some(open) => open,
                    None => KeySegmentWriter::create(dir, &format!("keys-{worker}.seg"))?,
                };
                keys += sink.flush_to(&mut open)?;
                flushes += 1;
                writer = Some(open);
            }
        }
    }
    keys += sink.keys.iter().sum::<u64>();
    Ok(Scattered {
        sink,
        spilled: writer.map(KeySegmentWriter::finish).transpose()?,
        keys,
        flushes,
    })
}

/// A fold worker's share of the buckets: a contiguous range of them, with
/// the records every scatter worker put there, spilled or still in RAM.
/// [`each`](Buckets::each) hands them to the fold one bucket at a time; a
/// bucket's segments are read back, and checked, only then.
pub struct Buckets<'a> {
    range: Range<usize>,
    sides: &'a [Scattered],
    /// Every bucket's keys.
    totals: &'a [u64],
    /// Per scatter worker: a reader of its segment file, if it spilled.
    readers: Vec<Option<KeySegmentReader<'a>>>,
    /// The most keys one record stands for.
    max_keys: u32,
    /// The first read-back failure; [`each`](Buckets::each) stops at it.
    failed: Option<SpillError>,
}

impl<'a> Buckets<'a> {
    fn open(
        worker: usize,
        range: Range<usize>,
        sides: &'a [Scattered],
        totals: &'a [u64],
        max_keys: u32,
    ) -> Result<Buckets<'a>, SpillError> {
        let mut readers: Vec<Option<KeySegmentReader<'a>>> = sides
            .iter()
            .map(|side| side.spilled.as_ref().map(KeySegmentFile::open).transpose())
            .collect::<Result<_, _>>()?;
        // Fold worker w vouches for scatter worker w's file, so every header
        // is checked — and its bytes counted — exactly once.
        if let Some(Some(reader)) = readers.get_mut(worker) {
            reader.validate_header()?;
        }
        Ok(Buckets {
            range,
            sides,
            totals,
            readers,
            max_keys,
            failed: None,
        })
    }

    /// The keys the range's records stand for, all buckets together.
    pub fn keys(&self) -> usize {
        self.totals[self.range.clone()].iter().sum::<u64>() as usize
    }

    /// The most keys one bucket of the range holds.
    pub(crate) fn fullest(&self) -> usize {
        let most = self.totals[self.range.clone()].iter().copied().max();
        most.unwrap_or(0) as usize
    }

    /// Calls `fold` on every non-empty bucket of the range, in ascending
    /// order, with the keys the bucket's records stand for and the records
    /// themselves, a slice at a time: those read back from segments first,
    /// then every scatter worker's in RAM, in worker order, each in push
    /// order. Stops at the first segment that does not read back; the pass
    /// then raises that error, whatever the fold returns.
    pub fn each(&mut self, mut fold: impl FnMut(usize, &mut dyn Iterator<Item = &[Record]>)) {
        let sides = self.sides;
        // Allocated only once a bucket has spilled segments to read back.
        let mut spilled: Vec<Record> = Vec::new();
        for bucket in self.range.clone() {
            if self.totals[bucket] == 0 {
                continue;
            }
            spilled.clear();
            if let Err(e) = self.read_back(bucket, &mut spilled) {
                self.failed = Some(e);
                return;
            }
            let in_ram = sides.iter().flat_map(|side| side.sink.fragments(bucket));
            let mut records = std::iter::once(&spilled[..]).chain(in_ram);
            fold(self.totals[bucket] as usize, &mut records);
        }
    }

    /// Appends the records `bucket`'s segments hold to `into`, checking each
    /// record's key count against `max_keys` and their sum against the
    /// segment's.
    fn read_back(&mut self, bucket: usize, into: &mut Vec<Record>) -> Result<(), SpillError> {
        for (side, reader) in self.sides.iter().zip(&mut self.readers) {
            if let (Some(file), Some(reader)) = (&side.spilled, reader) {
                for segment in file.segments_of(bucket as u32) {
                    reader.read_into(segment, self.max_keys, into)?;
                }
            }
        }
        Ok(())
    }

    /// The bytes read back from segment files, or the first failure.
    fn finish(self) -> Result<u64, SpillError> {
        match self.failed {
            Some(e) => Err(e),
            None => Ok(self.readers.iter().flatten().map(|r| r.bytes_read()).sum()),
        }
    }
}

/// Slots of the table that counts a bucket of `keys` keys: a power of two
/// at least twice the keys, so the load stays at most ½ however many of
/// them are distinct, and the table never grows.
fn table_slots(keys: usize) -> usize {
    (2 * keys).next_power_of_two()
}

/// One fold worker's flat open-addressing table: keys and `u32` counts in
/// parallel arrays, linear probing from a multiply–shift hash. A count of 0
/// marks an empty slot, so every `u64` is a legal key. A bucket uses the
/// first [`table_slots`] slots, and [`drain`](CountTable::drain) empties
/// each slot as it reads it, so the table is never cleared between buckets.
struct CountTable {
    keys: Vec<u64>,
    counts: Vec<u32>,
    /// The slots filled since the last drain, in fill order. Most slots stay
    /// empty — the table is sized by keys, not distinct keys — so the drain
    /// visits these instead of scanning every slot.
    filled: Vec<usize>,
    /// 64 − log2 of the slots in use: the hash keeps the product's top bits.
    shift: u32,
}

impl CountTable {
    /// An empty table for buckets of at most `keys` keys.
    fn new(keys: usize) -> CountTable {
        let slots = table_slots(keys);
        CountTable {
            keys: vec![0; slots],
            counts: vec![0; slots],
            filled: Vec::with_capacity(slots / 2),
            shift: 64,
        }
    }

    /// Sizes the slots in use for a bucket of `keys` keys (at least one, at
    /// most the bound the table was built for).
    fn start(&mut self, keys: usize) {
        self.shift = 64 - table_slots(keys).trailing_zeros();
    }

    /// Counts one occurrence of every key of `keys`, saturating at
    /// `u32::MAX`.
    fn add_all(&mut self, keys: &[u64]) {
        let mask = (u64::MAX >> self.shift) as usize;
        let (table, counts) = (&mut self.keys[..=mask], &mut self.counts[..=mask]);
        for &key in keys {
            let mut slot = (key.wrapping_mul(HASH_MUL) >> self.shift) as usize;
            loop {
                match counts[slot] {
                    0 => {
                        table[slot] = key;
                        counts[slot] = 1;
                        self.filled.push(slot);
                        break;
                    }
                    n if table[slot] == key => {
                        counts[slot] = n.saturating_add(1);
                        break;
                    }
                    _ => slot = (slot + 1) & mask,
                }
            }
        }
    }

    /// Reads the filled slots back, emptying each: appends the keys counted
    /// more than `theta` times to `kept` (in fill order) and returns how
    /// many distinct keys there were.
    fn drain(&mut self, theta: u32, kept: &mut Vec<(u64, u32)>) -> u64 {
        let distinct = self.filled.len() as u64;
        for slot in self.filled.drain(..) {
            let count = std::mem::take(&mut self.counts[slot]);
            if count > theta {
                kept.push((self.keys[slot], count));
            }
        }
        distinct
    }
}

/// Phase (i)'s fold: hash-counts the keys of every bucket of the range in
/// one cache-sized table and keeps, key-sorted, those counted more than
/// `theta` times. Returns them and the distinct keys seen.
fn count_buckets<E>(buckets: &mut Buckets<'_>, expand: &E, theta: u32) -> (Vec<(u64, u32)>, u64)
where
    E: Fn(&[Record], &mut Vec<u64>),
{
    let mut table = CountTable::new(buckets.fullest());
    let mut keys: Vec<u64> = Vec::new();
    let mut kept = Vec::new();
    let mut distinct = 0u64;
    buckets.each(|bucket_keys, records| {
        table.start(bucket_keys);
        for fragment in records {
            keys.clear();
            expand(fragment, &mut keys);
            table.add_all(&keys);
        }
        distinct += table.drain(theta, &mut kept);
    });
    crate::radix::sort_pairs(&mut kept, &mut Vec::new());
    (kept, distinct)
}

/// Merges key-sorted runs that share no key into one key-sorted run,
/// pairwise: ⌈log₂ runs⌉ linear passes. (A heap-driven k-way merge took
/// twice as long on 250 k survivors.)
fn merge_disjoint_runs(mut runs: Vec<Vec<(u64, u32)>>) -> Vec<(u64, u32)> {
    while runs.len() > 1 {
        let mut pairs = runs.into_iter();
        runs = std::iter::from_fn(|| {
            let a = pairs.next()?;
            let Some(b) = pairs.next() else {
                return Some(a);
            };
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i].0 < b[j].0 {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            Some(merged)
        })
        .collect();
    }
    // One run is a fold worker's own vector: trimmed to its length, as a
    // merged run is allocated.
    let mut kept = runs.pop().unwrap_or_default();
    kept.shrink_to_fit();
    kept
}

/// Splits `0..totals.len()` into `parts` contiguous ranges whose totals are
/// as even as bucket granularity allows.
fn balanced_ranges(totals: &[u64], parts: usize) -> Vec<Range<usize>> {
    let total: u128 = totals.iter().map(|&t| u128::from(t)).sum();
    let (mut end, mut acc) = (0usize, 0u128);
    (1..=parts)
        .map(|part| {
            let start = end;
            let goal = total * part as u128 / parts as u128;
            while end < totals.len() && (acc < goal || part == parts) {
                acc += u128::from(totals[end]);
                end += 1;
            }
            start..end
        })
        .collect()
}

/// Spill failures leave the pass as a typed panic payload on the coordinator
/// thread, like every other engine error.
fn raise(e: SpillError) -> ! {
    std::panic::panic_any(EngineError::Spill(e))
}

/// The keyed pass: scatters the records the scan tasks extract into hash
/// buckets and folds each worker's range of buckets with `fold`. Returns the
/// folds' outputs in bucket order — worker by worker, each worker's range
/// following the one before — and the pass's metrics.
///
/// `tasks` are handed to the pool workers in contiguous runs; `scan` pushes
/// a task's records into the worker's [`KeySink`], each with the hash that
/// picks its bucket, and `task_keys` bounds how many keys those records
/// stand for (the buffers are sized from it; a scan that exceeds its bound
/// only costs a reallocation). No record may stand for more than `max_keys`
/// keys. A task is also the granule of the spill-budget check when the
/// context carries a [`SpillPolicy`](crate::SpillPolicy) cap — see the
/// [module docs](self). `scan` is dropped once the scatter is done, so what
/// it owns is freed before the fold starts.
///
/// The metrics count `input_records` = tasks, `pairs_shuffled` = keys the
/// scattered records stand for, the spill counters (`spilled_runs` = budget
/// trips) and `elapsed`; `groups` and `output_records` are the caller's to
/// fill.
///
/// # Panics
///
/// Raises [`EngineError::Cancelled`] if the context's job control trips at
/// the scatter→fold barrier and [`EngineError::Spill`] if segment I/O fails
/// or a segment reads back corrupt, both by panic on the calling thread
/// (caught by `try_run`-style wrappers).
pub fn fold_buckets_on<I, HF, SF, T, FF>(
    ctx: &ExecCtx,
    tasks: &[I],
    task_keys: HF,
    scan: SF,
    max_keys: u32,
    fold: FF,
) -> (Vec<T>, MapReduceMetrics)
where
    I: Sync,
    HF: Fn(&I) -> usize,
    SF: Fn(&I, &mut KeySink) + Sync,
    T: Send,
    FF: Fn(&mut Buckets<'_>) -> T + Sync,
{
    fold_buckets_with_barrier(ctx, tasks, task_keys, scan, max_keys, fold, |_| {
        ctx.poll_barrier()
    })
}

/// [`fold_buckets_on`] with the coordinator's action at the scatter→fold
/// barrier made explicit (production polls the job control there; tests
/// damage segment files).
fn fold_buckets_with_barrier<I, HF, SF, T, FF>(
    ctx: &ExecCtx,
    tasks: &[I],
    task_keys: HF,
    scan: SF,
    max_keys: u32,
    fold: FF,
    barrier: impl FnOnce(&[Scattered]),
) -> (Vec<T>, MapReduceMetrics)
where
    I: Sync,
    HF: Fn(&I) -> usize,
    SF: Fn(&I, &mut KeySink) + Sync,
    T: Send,
    FF: Fn(&mut Buckets<'_>) -> T + Sync,
{
    let start = Instant::now();
    let workers = ctx.workers();
    let spill: SpillSetup = ctx.spill().and_then(|p| p.cap()).map(|cap| {
        let dir = SpillDir::create("kc").unwrap_or_else(|e| raise(e));
        (dir, ((cap as usize) / (4 * workers)).max(1))
    });
    let budget = spill.as_ref().map(|(_, budget)| *budget);

    // ---- plan: size everything from the declared key bounds ----------------
    let per_worker = tasks.len().div_ceil(workers).max(1);
    let bounds: Vec<usize> = tasks.iter().map(&task_keys).collect();
    let total_keys: usize = bounds.iter().sum();
    let largest_task = bounds.iter().copied().max().unwrap_or(0);
    // A record stands for a key at least, so a worker holds at most as many
    // records as its keys. Capped, it holds the budget's worth when it
    // checks — what the chunk ends are planned against — plus, at most, the
    // one task that overshoots it before the check.
    let share_keys: Vec<usize> = bounds
        .chunks(per_worker)
        .map(|share| share.iter().sum())
        .collect();
    let held = |keys: usize, overshoot: usize| {
        budget.map_or(keys, |budget| keys.min(budget / RECORD_BYTES + overshoot))
    };
    let layout = Layout::plan(
        total_keys,
        share_keys
            .iter()
            .map(|&keys| held(keys, 0))
            .max()
            .unwrap_or(0),
        budget,
    );

    // ---- scatter: scan and append every record to its hash bucket ----------
    let inputs: Vec<(&[I], usize)> = tasks
        .chunks(per_worker)
        .zip(share_keys.iter().map(|&keys| held(keys, largest_task)))
        .collect();
    let sides: Vec<Scattered> = ctx
        .pool()
        .run_per_worker(inputs, |w, (tasks, records)| {
            scatter(w, tasks, layout, layout.chunks_for(records), &spill, &scan)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| raise(e));
    drop(scan);

    // ---- barrier: balance the buckets over the fold workers ----------------
    let mut totals = vec![0u64; layout.buckets()];
    for side in &sides {
        for (total, keys) in totals.iter_mut().zip(&side.sink.keys) {
            *total += keys;
        }
        for segment in side.spilled.iter().flat_map(|f| f.segments()) {
            totals[segment.bucket as usize] += segment.keys;
        }
    }
    let ranges = balanced_ranges(&totals, workers);
    // An unwind from here drops `sides`, deleting the segment files.
    barrier(&sides);

    // ---- fold: each worker its range of buckets ----------------------------
    let folded: Vec<(T, u64)> = ctx
        .pool()
        .run_per_worker(ranges, |w, range| {
            let mut buckets = Buckets::open(w, range, &sides, &totals, max_keys)?;
            let out = fold(&mut buckets);
            Ok((out, buckets.finish()?))
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| raise(e));

    let mut metrics = MapReduceMetrics {
        input_records: tasks.len() as u64,
        ..Default::default()
    };
    for side in &sides {
        metrics.pairs_shuffled += side.keys;
        metrics.spilled_runs += side.flushes;
        metrics.spilled_bytes += side.spilled.as_ref().map_or(0, |f| f.bytes);
    }
    // Unmapping the buffers is several per cent of a short pass, so the pool
    // does it, one scatter side per worker. This also deletes segment files.
    ctx.pool().run_per_worker(sides, |_, side| drop(side));
    let mut outs = Vec::with_capacity(folded.len());
    for (out, read_bytes) in folded {
        metrics.spill_read_bytes += read_bytes;
        outs.push(out);
    }
    metrics.elapsed = start.elapsed();
    (outs, metrics)
}

/// Counts the `u64` keys the scan tasks' records stand for and returns, in
/// ascending key order, every key seen **more than** `theta` times with its
/// count (saturating at `u32::MAX`).
///
/// A [`fold_buckets_on`] pass (see there for `tasks`, `task_keys` and
/// `scan`) whose fold is the count: `records` turns a bucket's records back
/// into keys, each bucket's keys are counted in one cache-sized hash table,
/// and each fold worker sorts its survivors; the sorted runs are merged.
///
/// The returned [`MapReduceMetrics`] are the pass's, with `groups` =
/// distinct keys and `output_records` = keys kept.
///
/// # Panics
///
/// As [`fold_buckets_on`].
pub fn count_keys_on<I, HF, SF, E>(
    ctx: &ExecCtx,
    tasks: &[I],
    task_keys: HF,
    scan: SF,
    records: Records<E>,
    theta: u32,
) -> (Vec<(u64, u32)>, MapReduceMetrics)
where
    I: Sync,
    HF: Fn(&I) -> usize,
    SF: Fn(&I, &mut KeySink) + Sync,
    E: Fn(&[Record], &mut Vec<u64>) + Sync,
{
    count_keys_with_barrier(ctx, tasks, task_keys, scan, records, theta, |_| {
        ctx.poll_barrier()
    })
}

/// [`count_keys_on`] with an explicit barrier action, as
/// [`fold_buckets_with_barrier`].
fn count_keys_with_barrier<I, HF, SF, E>(
    ctx: &ExecCtx,
    tasks: &[I],
    task_keys: HF,
    scan: SF,
    records: Records<E>,
    theta: u32,
    barrier: impl FnOnce(&[Scattered]),
) -> (Vec<(u64, u32)>, MapReduceMetrics)
where
    I: Sync,
    HF: Fn(&I) -> usize,
    SF: Fn(&I, &mut KeySink) + Sync,
    E: Fn(&[Record], &mut Vec<u64>) + Sync,
{
    let start = Instant::now();
    let Records { max_keys, expand } = records;
    let (parts, mut metrics) = fold_buckets_with_barrier(
        ctx,
        tasks,
        task_keys,
        scan,
        max_keys,
        |buckets| count_buckets(buckets, &expand, theta),
        barrier,
    );
    let mut runs = Vec::with_capacity(parts.len());
    for (kept, distinct) in parts {
        metrics.groups += distinct;
        runs.push(kept);
    }
    // The survivors — a few per cent of the distinct keys, the only keys
    // ever sorted — left each fold worker sorted. A key lives in one bucket
    // and so in one worker's share: merging the shares orders them all.
    let kept = merge_disjoint_runs(runs);
    metrics.output_records = kept.len() as u64;
    metrics.elapsed = start.elapsed();
    (kept, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{CancelReason, JobControl};
    use crate::fxhash::FxHashMap;
    use crate::spill::SpillPolicy;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The plain formulation: count everything in a hash map, filter, sort.
    fn oracle(tasks: &[Vec<u64>], theta: u32) -> (Vec<(u64, u32)>, u64) {
        let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
        for key in tasks.iter().flatten() {
            *counts.entry(*key).or_insert(0) += 1;
        }
        let distinct = counts.len() as u64;
        let mut kept: Vec<(u64, u32)> = counts
            .into_iter()
            .filter(|&(_, n)| n > u64::from(theta))
            .map(|(key, n)| (key, n as u32))
            .collect();
        kept.sort_unstable();
        (kept, distinct)
    }

    /// The most keys a test record stands for.
    const RUN: u32 = 5;

    /// The tests' record format: `[key, n << KEYS_SHIFT]` stands for `n`
    /// copies of `key`.
    fn expand_runs(records: &[Record], keys: &mut Vec<u64>) {
        for record in records {
            keys.extend(std::iter::repeat_n(record[0], keys_of(record) as usize));
        }
    }

    type Expand = fn(&[Record], &mut Vec<u64>);

    fn runs() -> Records<Expand> {
        Records {
            max_keys: RUN,
            expand: expand_runs,
        }
    }

    /// Pushes a task's keys, up to [`RUN`] equal neighbours per record, each
    /// record to the bucket `route(key)` addresses.
    fn push_runs(task: &[u64], sink: &mut KeySink, route: fn(u64) -> u64) {
        for run in task.chunk_by(|a, b| a == b) {
            for piece in run.chunks(RUN as usize) {
                sink.push(
                    route(piece[0]),
                    [piece[0], (piece.len() as u64) << KEYS_SHIFT],
                );
            }
        }
    }

    /// Spreads any keys evenly over the buckets (splitmix64's finalizer).
    fn mixed(key: u64) -> u64 {
        let mut h = key ^ (key >> 30);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// Routes by the key's own top bits: clustered keys crowd a few buckets.
    fn prefix(key: u64) -> u64 {
        key
    }

    fn count_routed(
        ctx: &ExecCtx,
        tasks: &[Vec<u64>],
        route: fn(u64) -> u64,
        theta: u32,
    ) -> (Vec<(u64, u32)>, MapReduceMetrics) {
        count_keys_on(
            ctx,
            tasks,
            Vec::len,
            |task, sink| push_runs(task, sink, route),
            runs(),
            theta,
        )
    }

    fn count(ctx: &ExecCtx, tasks: &[Vec<u64>], theta: u32) -> (Vec<(u64, u32)>, MapReduceMetrics) {
        count_routed(ctx, tasks, mixed, theta)
    }

    /// `tasks` tasks of `per_task` keys drawn from `distinct` values spread
    /// over all `width` bits (xorshift; deterministic).
    fn keyed_tasks(tasks: usize, per_task: usize, distinct: u64, width: u32) -> Vec<Vec<u64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..tasks)
            .map(|_| {
                (0..per_task)
                    .map(|_| {
                        // Spread the value over the key width, then square the
                        // draw so that some keys are much more frequent.
                        let v = (next() % distinct) * (next() % distinct) % distinct;
                        v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - width)
                    })
                    .collect()
            })
            .collect()
    }

    /// Inputs that put the counting table at its edges. Each is few enough
    /// keys for a single bucket.
    fn table_edge_inputs() -> Vec<Vec<Vec<u64>>> {
        // 1024 distinct keys: a table of 2048 slots at its maximum load, ½.
        let distinct: Vec<u64> = (0..1024u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        // One key in every task, so in every scatter worker's sink, in runs
        // that fill records to the brim.
        let repeated = vec![vec![0xDEAD_BEEF; 100]; 8];
        // Keys whose hashes all start with 20 one bits: each one's probe
        // starts at the last slot of any table up to 2^20 slots, so the
        // chains wrap past the table's end.
        let mut inverse = HASH_MUL;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(HASH_MUL.wrapping_mul(inverse)));
        }
        assert_eq!(HASH_MUL.wrapping_mul(inverse), 1);
        let wrapping: Vec<Vec<u64>> = (1..=6u64)
            .map(|t| {
                (0..300u64)
                    .map(|i| ((0xF_FFFF << 44) | (i % (50 * t))).wrapping_mul(inverse))
                    .collect()
            })
            .collect();
        // The ends of the key range, side by side.
        let extremes = vec![
            vec![0, u64::MAX, 0],
            vec![u64::MAX, 0],
            vec![0, u64::MAX, u64::MAX, 7],
        ];
        vec![
            distinct.chunks(100).map(<[u64]>::to_vec).collect(),
            repeated,
            wrapping,
            extremes,
        ]
    }

    #[test]
    fn counts_match_the_hash_map_across_workers_and_thresholds() {
        let mut inputs = vec![keyed_tasks(23, 3_000, 5_000, 64)];
        inputs.extend(table_edge_inputs());
        for tasks in &inputs {
            let keys: usize = tasks.iter().map(Vec::len).sum();
            for workers in [1, 2, 3, 4] {
                let ctx = ExecCtx::new(workers);
                for (theta, route) in [
                    (0, mixed as fn(u64) -> u64),
                    (1, prefix),
                    (2, mixed),
                    (40, prefix),
                ] {
                    let (kept, metrics) = count_routed(&ctx, tasks, route, theta);
                    let (expected, distinct) = oracle(tasks, theta);
                    assert_eq!(
                        kept, expected,
                        "keys={keys} workers={workers} theta={theta}"
                    );
                    assert_eq!(metrics.input_records, tasks.len() as u64);
                    assert_eq!(
                        metrics.pairs_shuffled, keys as u64,
                        "every key, not every record"
                    );
                    assert_eq!(metrics.groups, distinct);
                    assert_eq!(metrics.output_records, expected.len() as u64);
                    assert_eq!(
                        (
                            metrics.spilled_bytes,
                            metrics.spill_read_bytes,
                            metrics.spilled_runs
                        ),
                        (0, 0, 0),
                        "no cap, no disk"
                    );
                }
            }
        }
    }

    #[test]
    fn a_drain_leaves_the_table_empty_for_the_next_bucket() {
        let mut table = CountTable::new(100);
        let mut kept = Vec::new();
        table.start(100);
        table.add_all(&[5, 0, 5, u64::MAX, 5]);
        assert_eq!(table.drain(1, &mut kept), 3);
        assert_eq!(kept, vec![(5, 3)]);
        assert!(table.counts.iter().all(|&c| c == 0), "a slot stayed filled");
        // A smaller bucket next: fewer slots in use, counted from zero.
        table.start(2);
        table.add_all(&[9, 5]);
        kept.clear();
        assert_eq!(table.drain(0, &mut kept), 2);
        assert_eq!(kept, vec![(9, 1), (5, 1)], "fill order");
    }

    #[test]
    fn a_single_hash_puts_every_record_in_one_bucket() {
        // 400k keys want 2^6 buckets, and all of them land in the last.
        let tasks = keyed_tasks(8, 50_000, 3_000, 64);
        let (kept, metrics) = count_routed(&ExecCtx::new(3), &tasks, |_| u64::MAX, 1);
        let (expected, distinct) = oracle(&tasks, 1);
        assert_eq!(kept, expected);
        assert_eq!(metrics.groups, distinct);
    }

    #[test]
    fn full_width_keys_and_a_single_bucket_shift_by_64() {
        // Few keys: one bucket, `shift == 64`.
        let tasks = vec![vec![u64::MAX, 0, u64::MAX, 1 << 63, 7, 0, u64::MAX]];
        assert_eq!(Layout::plan(7, 7, None).shift, 64);
        for route in [mixed, prefix] {
            let (kept, _) = count_routed(&ExecCtx::new(3), &tasks, route, 1);
            assert_eq!(kept, vec![(0, 2), (u64::MAX, 3)]);
        }
    }

    #[test]
    fn empty_input_and_empty_tasks() {
        let ctx = ExecCtx::new(2);
        let (kept, metrics) = count(&ctx, &[], 0);
        assert!(kept.is_empty());
        assert_eq!(metrics.groups, 0);
        let (kept, metrics) = count(&ctx, &[vec![], vec![5], vec![]], 0);
        assert_eq!(kept, vec![(5, 1)]);
        assert_eq!(metrics.input_records, 3);
    }

    #[test]
    fn the_layout_follows_key_count_cache_and_budget() {
        // 512 KiB fit 32 Ki slots of 16 bytes, a table for 16 Ki keys: the
        // mean bucket is planned at 8 Ki keys, the fullest may be twice that.
        assert_eq!(Layout::plan(8 << 10, 1 << 20, None).buckets(), 1);
        assert_eq!(Layout::plan((8 << 10) + 1, 1 << 20, None).buckets(), 2);
        assert_eq!(Layout::plan(10 << 20, 1 << 20, None).buckets(), 2048);
        // Never more than 2^12 buckets, however many keys.
        assert_eq!(Layout::plan(usize::MAX / 2, 1 << 20, None).buckets(), 4096);
        // A 64 KiB budget shrinks the buckets eightfold, a huge one changes
        // nothing.
        assert_eq!(
            Layout::plan(1 << 20, 1 << 20, Some(64 << 10)).buckets(),
            1024
        );
        assert_eq!(
            Layout::plan(1 << 20, 1 << 20, Some(1 << 40)),
            Layout::plan(1 << 20, 1 << 20, None)
        );
        // A mean bucket's table takes half of what the cache share, and
        // under a cap the per-worker budget, allows, wherever the bucket bits
        // are not at their cap.
        for budget in [None, Some(1 << 40), Some(64 << 10), Some(5_000)] {
            let fit = budget.map_or(BUCKET_CACHE_BYTES, |b: usize| b.min(BUCKET_CACHE_BYTES));
            for total in [1, 1_000, 8 << 10, (8 << 10) + 1, 100_000] {
                let layout = Layout::plan(total, 1 << 20, budget);
                let mean = total.div_ceil(layout.buckets());
                assert!(layout.buckets() < 1 << MAX_BUCKET_BITS);
                assert!(
                    table_slots(2 * mean) * SLOT_BYTES <= fit,
                    "{total} keys in {} buckets under {budget:?}",
                    layout.buckets()
                );
            }
        }
        // Chunks: a kibibyte when there is room, a cache line when there is
        // not.
        assert_eq!(
            Layout::plan(1 << 20, 1 << 20, None).chunk_shift,
            MAX_CHUNK_SHIFT
        );
        assert_eq!(Layout::plan(1 << 20, 0, None).chunk_shift, MIN_CHUNK_SHIFT);
        assert_eq!((1 << MAX_CHUNK_SHIFT) * RECORD_BYTES, 1 << 10);
        assert_eq!((1 << MIN_CHUNK_SHIFT) * RECORD_BYTES, 64);
    }

    #[test]
    fn a_sink_keeps_push_order_per_bucket_and_outgrows_a_low_bound() {
        let layout = Layout {
            shift: 62,
            mask: 3,
            chunk_shift: MIN_CHUNK_SHIFT,
        };
        // Room for one chunk per bucket only; 100 records per bucket follow,
        // the i-th standing for i % 3 + 1 keys.
        let mut sink = KeySink::new(layout, 4);
        let record = |i: u64| [i, (i % 3 + 1) << KEYS_SHIFT];
        for i in 0..400u64 {
            sink.push((i % 4) << 62, record(i));
        }
        for bucket in 0..4 {
            assert_eq!(sink.len_of(bucket), 100);
            let records: Vec<Record> = sink.fragments(bucket).flatten().copied().collect();
            let expected: Vec<Record> = (0..100).map(|i| record(4 * i + bucket as u64)).collect();
            assert_eq!(records, expected);
            let keys: u64 = expected.iter().map(|r| u64::from(keys_of(r))).sum();
            assert_eq!(sink.keys[bucket], keys);
        }
        assert_eq!(sink.buffered_bytes(), 4 * 25 * 4 * RECORD_BYTES);
        sink.clear();
        assert_eq!(sink.buffered_bytes(), 0);
        assert_eq!(sink.len_of(2), 0);
        assert_eq!(sink.keys[2], 0);
        assert_eq!(sink.fragments(2).count(), 0);
        sink.push(2 << 62, record(7));
        assert_eq!(
            sink.fragments(2).collect::<Vec<_>>(),
            vec![&[record(7)][..]]
        );
    }

    #[test]
    fn ranges_are_contiguous_cover_everything_and_balance_a_skewed_load() {
        // Load falling linearly with the bucket.
        let totals: Vec<u64> = (0..64u64).map(|b| 2 * (64 - b)).collect();
        let ranges = balanced_ranges(&totals, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[3].end, 64);
        let share = totals.iter().sum::<u64>() / 4;
        for (i, range) in ranges.iter().enumerate() {
            if i > 0 {
                assert_eq!(range.start, ranges[i - 1].end);
            }
            let load: u64 = totals[range.clone()].iter().sum();
            assert!(
                load.abs_diff(share) <= 128,
                "range {range:?} carries {load}, an even share is {share}"
            );
        }
        assert!(ranges[0].len() < ranges[3].len(), "low buckets are fuller");
        // Degenerate shapes still cover every bucket exactly once.
        assert_eq!(balanced_ranges(&[0, 0, 0], 2), vec![0..0, 0..3]);
        assert_eq!(balanced_ranges(&[9], 3), vec![0..1, 1..1, 1..1]);
        assert_eq!(balanced_ranges(&[], 2), vec![0..0, 0..0]);
    }

    /// Runs the count under `cap` and checks it against the resident run.
    fn capped_matches_resident(cap: u64, workers: usize) -> MapReduceMetrics {
        let tasks = keyed_tasks(40, 2_000, 6_000, 40);
        let ctx = ExecCtx::new(workers);
        let (resident, resident_metrics) = count(&ctx, &tasks, 1);
        ctx.set_spill(SpillPolicy::At(cap));
        let (capped, metrics) = count(&ctx, &tasks, 1);
        ctx.clear_spill();
        assert_eq!(capped, resident, "cap={cap} workers={workers}");
        assert_eq!(metrics.pairs_shuffled, resident_metrics.pairs_shuffled);
        assert_eq!(metrics.groups, resident_metrics.groups);
        assert_eq!(metrics.output_records, resident_metrics.output_records);
        metrics
    }

    #[test]
    fn a_capped_count_equals_the_resident_one_and_reads_back_what_it_wrote() {
        for workers in [1, 3] {
            // 80k keys, nearly a record each: 1.3 MB. An 8 MiB cap never
            // trips its budget …
            let roomy = capped_matches_resident(8 << 20, workers);
            assert_eq!(
                (roomy.spilled_bytes, roomy.spilled_runs),
                (0, 0),
                "a budget above the working set must not touch disk"
            );
            // … a 256 KiB cap trips it a few times per worker …
            let tight = capped_matches_resident(256 << 10, workers);
            assert!(tight.spilled_runs >= 3, "got {tight:?}");
            assert_eq!(tight.spill_read_bytes, tight.spilled_bytes);
            // … and under a 1 KiB cap every task is flushed as it ends,
            // except each worker's last.
            let tiny = capped_matches_resident(1 << 10, workers);
            assert_eq!(tiny.spilled_runs, 40 - workers as u64);
            assert_eq!(tiny.spill_read_bytes, tiny.spilled_bytes);
            assert!(tight.spilled_bytes < tiny.spilled_bytes);
        }
    }

    #[test]
    fn a_cancel_at_the_barrier_unwinds_typed_and_the_pool_survives() {
        let tasks = keyed_tasks(6, 500, 100, 20);
        let ctx = ExecCtx::new(2);
        let control = JobControl::new();
        control.cancel();
        ctx.set_control(control.clone());
        let scanned = std::sync::atomic::AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            count_keys_on(
                &ctx,
                &tasks,
                Vec::len,
                |task, sink| {
                    scanned.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    push_runs(task, sink, mixed);
                },
                runs(),
                0,
            )
        }))
        .expect_err("a latched cancel must stop the count");
        ctx.clear_control();
        assert_eq!(
            payload.downcast_ref::<EngineError>(),
            Some(&EngineError::Cancelled {
                reason: CancelReason::Requested,
                superstep: 0,
            })
        );
        // The poll sits between the phases: the scatter ran, once per task.
        assert_eq!(scanned.into_inner(), 6);
        assert_eq!(control.checks(), 1);
        // Raised on the coordinator, so the pool is clean.
        assert_eq!(count(&ctx, &tasks, 0).0, oracle(&tasks, 0).0);
    }

    /// Runs a spilling count of `tasks` whose barrier action rewrites worker
    /// 0's segment file with `damage`, and returns the outcome: the kept
    /// keys, or the typed error the count raised.
    fn count_with_damaged_segments(
        ctx: &ExecCtx,
        tasks: &[Vec<u64>],
        damage: impl FnOnce(Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<(u64, u32)>, EngineError> {
        ctx.set_spill(SpillPolicy::At(1 << 10));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            count_keys_with_barrier(
                ctx,
                tasks,
                Vec::len,
                |task: &Vec<u64>, sink: &mut KeySink| push_runs(task, sink, mixed),
                runs(),
                0,
                |sides| {
                    let file = sides[0].spilled.as_ref().expect("the 1 KiB cap spills");
                    let bytes = std::fs::read(file.path()).expect("read segment file");
                    std::fs::write(file.path(), damage(bytes)).expect("damage segment file");
                },
            )
            .0
        }));
        ctx.clear_spill();
        outcome.map_err(|payload| {
            payload
                .downcast_ref::<EngineError>()
                .expect("a typed engine error, not a codec panic")
                .clone()
        })
    }

    /// Bytes before worker 0's first record: the file header (20), the
    /// first frame's length prefix (4) and its bucket index (4).
    const FIRST_RECORD: usize = 28;

    #[test]
    fn damaged_segment_files_surface_as_engine_spill_errors() {
        let tasks = keyed_tasks(12, 1_000, 300, 30);
        let ctx = ExecCtx::new(2);
        let spill_error = |damage: fn(Vec<u8>) -> Vec<u8>| {
            let err = count_with_damaged_segments(&ctx, &tasks, damage)
                .expect_err("a damaged segment file must stop the count");
            // The failure crossed the pool as a value and was raised on the
            // coordinator: the same context counts again, resident.
            assert_eq!(count(&ctx, &tasks, 0).0, oracle(&tasks, 0).0);
            match err {
                EngineError::Spill(e) => e,
                other => panic!("expected a spill error, got {other:?}"),
            }
        };
        let err = spill_error(|mut bytes| {
            bytes.truncate(bytes.len() - 3);
            bytes
        });
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");
        // The bucket index of the first frame.
        let err = spill_error(|mut bytes| {
            bytes[24] ^= 0x40;
            bytes
        });
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
        // A record that stands for no key, or for more than any record may:
        // caught before a key is expanded from it.
        for keys in [0, RUN as u8 + 1, 0xFF] {
            let err = count_with_damaged_segments(&ctx, &tasks, |mut bytes| {
                bytes[FIRST_RECORD + 15] = keys;
                bytes
            })
            .expect_err("an out-of-range key count must stop the count");
            assert!(
                matches!(&err, EngineError::Spill(SpillError::Corrupt { detail, .. }) if detail.contains("stands for")),
                "keys={keys}: got {err:?}"
            );
        }
        // A count inside the range that no longer sums to the segment's
        // keys: the table was sized from the sum.
        let err = spill_error(|mut bytes| {
            let count = &mut bytes[FIRST_RECORD + 15];
            *count = if *count == 1 { 2 } else { 1 };
            bytes
        });
        assert!(matches!(err, SpillError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn a_mutated_segment_file_reads_back_typed_or_counts_never_panics() {
        // Two tasks per worker, one flush each: worker 0's file holds its
        // first task's records.
        let tasks = keyed_tasks(4, 40, 30, 30);
        let ctx = ExecCtx::new(2);
        let intact = std::cell::RefCell::new(Vec::new());
        count_with_damaged_segments(&ctx, &tasks, |bytes| {
            intact.replace(bytes.clone());
            bytes
        })
        .expect("an undamaged file counts");
        let intact = intact.into_inner();
        assert!(intact.len() > 200, "{} bytes", intact.len());
        let mut outcomes = [0usize; 2];
        let mut tally = |outcome: Result<Vec<(u64, u32)>, EngineError>| match outcome {
            Ok(_) => outcomes[0] += 1,
            Err(EngineError::Spill(_)) => outcomes[1] += 1,
            Err(other) => panic!("expected a spill error, got {other:?}"),
        };
        for cut in 0..intact.len() {
            tally(count_with_damaged_segments(&ctx, &tasks, |mut bytes| {
                bytes.truncate(cut);
                bytes
            }));
        }
        // Every bit of the header and of the first frames.
        for bit in 0..8 * 160 {
            tally(count_with_damaged_segments(&ctx, &tasks, |mut bytes| {
                bytes[bit / 8] ^= 1 << (bit % 8);
                bytes
            }));
        }
        assert!(
            outcomes[0] > 0 && outcomes[1] > intact.len(),
            "{outcomes:?}"
        );
        assert_eq!(count(&ctx, &tasks, 0).0, oracle(&tasks, 0).0);
    }

    /// Sets its flag when dropped.
    struct DropFlag<'a>(&'a std::sync::atomic::AtomicBool);

    impl Drop for DropFlag<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn a_fold_over_key_range_buckets_sees_every_record_once_in_key_order() {
        // One-key records `[key, value]` addressed by the key's own top
        // bits: the buckets are key ranges, so a fold that sorts each bucket
        // leaves its output sorted across the workers' ranges.
        let tasks = keyed_tasks(30, 1_000, 40_000, 64);
        let mut sums: std::collections::BTreeMap<u64, u64> = Default::default();
        for &key in tasks.iter().flatten() {
            *sums.entry(key).or_insert(0) += key & 0xFFFF;
        }
        let expected: Vec<(u64, u64)> = sums.into_iter().collect();
        for workers in 1..=4 {
            for cap in [None, Some(1 << 30), Some(1 << 10)] {
                let ctx = ExecCtx::new(workers);
                if let Some(cap) = cap {
                    ctx.set_spill(SpillPolicy::At(cap));
                }
                let scanned = std::sync::atomic::AtomicBool::new(false);
                let guard = DropFlag(&scanned);
                let (parts, metrics) = fold_buckets_on(
                    &ctx,
                    &tasks,
                    Vec::len,
                    move |task: &Vec<u64>, sink: &mut KeySink| {
                        let _owned = &guard;
                        for &key in task {
                            sink.push(key, [key, (1 << KEYS_SHIFT) | (key & 0xFFFF)]);
                        }
                    },
                    1,
                    |buckets: &mut Buckets<'_>| {
                        assert!(
                            scanned.load(std::sync::atomic::Ordering::SeqCst),
                            "the scan is dropped before the fold"
                        );
                        let (mut out, mut records) = (Vec::new(), Vec::new());
                        buckets.each(|keys, fragments| {
                            records.clear();
                            for fragment in fragments {
                                records.extend_from_slice(fragment);
                            }
                            assert_eq!(records.len(), keys, "one key per record");
                            records.sort_unstable();
                            for run in records.chunk_by(|a, b| a[0] == b[0]) {
                                let sum = run.iter().map(|r| r[1] & 0xFFFF).sum::<u64>();
                                out.push((run[0][0], sum));
                            }
                        });
                        out
                    },
                );
                ctx.clear_spill();
                let at = format!("workers={workers} cap={cap:?}");
                assert_eq!(parts.len(), workers, "{at}");
                assert_eq!(parts.concat(), expected, "{at}");
                assert_eq!(metrics.input_records, 30, "{at}");
                assert_eq!(metrics.pairs_shuffled, 30_000, "{at}");
                assert_eq!((metrics.groups, metrics.output_records), (0, 0), "{at}");
                assert_eq!(metrics.spill_read_bytes, metrics.spilled_bytes, "{at}");
                assert_eq!(metrics.spilled_bytes > 0, cap == Some(1 << 10), "{at}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_counts_match_the_hash_map(
            tasks in proptest::collection::vec(
                proptest::collection::vec(0u64..1 << 12, 0..200), 0..12),
            shift in 0u32..52,
            workers in 1usize..5,
            settings in (0u32..3, 0u64..64 << 10),
        ) {
            let (theta, cap) = settings;
            // Small values shifted up: clustered keys, every key width; runs
            // of equal keys every other task.
            let tasks: Vec<Vec<u64>> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, mut t)| {
                    if i % 2 == 1 {
                        t.sort_unstable();
                    }
                    t.into_iter().map(|key| key << shift).collect()
                })
                .collect();
            let ctx = ExecCtx::new(workers);
            // Two runs in three under a cap, from a byte to 64 KiB.
            if cap % 3 != 0 {
                ctx.set_spill(SpillPolicy::At(cap));
            }
            // Routed by the keys' own prefix half the time: lopsided buckets.
            let route = if cap % 2 == 0 { prefix } else { mixed };
            let (kept, metrics) = count_routed(&ctx, &tasks, route, theta);
            let (expected, distinct) = oracle(&tasks, theta);
            prop_assert_eq!(kept, expected);
            prop_assert_eq!(metrics.groups, distinct);
            prop_assert_eq!(metrics.spill_read_bytes, metrics.spilled_bytes);
        }
    }
}
