//! The *mini MapReduce* procedure of the paper's second API extension.
//!
//! Some assembly steps are not naturally vertex-centric: DBG construction
//! turns counted (k+1)-mers into k-mer vertices, contig merging groups
//! labeled vertices by contig label, and bubble filtering groups contigs by
//! their pair of ambiguous end vertices. The paper extends Pregel+ with a
//! mini MapReduce pass: a `map(.)` UDF emits key–value pairs, the pairs are
//! shuffled by key to workers, sorted/grouped, and a `reduce(.)` UDF
//! processes each group. Here DBG construction and bubble filtering use it.
//! Contig merging does not: its labels name vertices, so `ppa_assembler`'s
//! merge ranks them in a sorted ID index, groups them with one counting pass
//! and mints the paper's `worker ‖ ordinal` IDs itself. (Counting the
//! (k+1)-mers themselves — payload-free keys, nearly all discarded — is not
//! a shuffle; it runs through [`crate::keycount`].)
//!
//! [`map_reduce_on`] reproduces that pass with one thread per worker. Grouping is
//! **sort-based**: every reduce worker concatenates the pair buffers addressed
//! to it into one flat buffer, sorts it by key once, and hands each group to
//! the reduce UDF as a mutable slice of values carved out of a single flat
//! value array — there is no per-key `Vec` and no hash map on the reduce path
//! (this literally is the "sorted and grouped by key" step of the paper's
//! procedure, and it also makes group order deterministic: ascending by key).
//! The map-side presort is the stable LSD radix sort of [`crate::radix`]
//! (packed integer keys take counting passes, everything else a stable
//! comparison fallback), so equal-key values reach `reduce` in emission
//! order.
//!
//! The reduce UDF is told which worker runs it and the outputs come back per
//! worker, so a caller can number its outputs per worker, as the paper's
//! contig IDs `worker ‖ ordinal` (Figure 7c) are.
//!
//! Both phases dispatch onto the caller's [`ExecCtx`] worker pool (one pool
//! shared by a whole workflow); no per-phase thread scope is created.
//!
//! # Out-of-core execution
//!
//! [`map_reduce_spillable_on`] is the bounded-memory entry: when the context
//! carries a [`SpillPolicy`](crate::SpillPolicy) byte cap, each map worker
//! presorts and writes its buffered pairs out as sorted run files (see
//! [`crate::spill`]) whenever the buffered estimate crosses
//! `cap / (4 × workers)`, and each reduce worker streams those runs back in a
//! k-way merge with the in-RAM remainders. The merge breaks key ties by
//! ascending source (each source's runs in spill order, its RAM remainder
//! last), so grouping and per-key value order are byte-identical to the
//! all-in-RAM pass.

use crate::engine::{EngineError, ExecCtx};
use crate::fxhash::hash_one;
use crate::radix::SortKey;
use crate::spill::{
    codec_of, merge_run_sources, write_run, Codec, DiskRun, MergeSource, RunReader, SpillCodec,
    SpillDir, SpillError,
};
use serde::{Deserialize, Serialize};
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sink the map UDF writes its key–value pairs into.
///
/// [`emit`](Emitter::emit) routes each pair straight into the flat buffer of
/// its destination reduce worker — the map side allocates nothing per record
/// (earlier revisions had `map` return a `Vec<(K, V)>` per input record,
/// which put one heap allocation on the hot path of every read/vertex/contig
/// fed through a shuffle).
pub struct Emitter<'a, K, V> {
    out: &'a mut [Vec<(K, V)>],
    /// Pairs emitted through this worker's map phase so far (drives the
    /// spillable variant's O(1) buffered-bytes estimate).
    emitted: u64,
}

impl<K: Hash, V> Emitter<'_, K, V> {
    /// Emits one key–value pair into the shuffle.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        let dst = (hash_one(&key) % self.out.len() as u64) as usize;
        self.out[dst].push((key, value));
        self.emitted += 1;
    }
}

/// Metrics of one mini-MapReduce execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapReduceMetrics {
    /// Number of input records fed to `map`.
    pub input_records: u64,
    /// Number of key–value pairs emitted by `map` (the shuffle volume). For
    /// a [`count_keys_on`](crate::keycount::count_keys_on) pass: the keys
    /// the scattered records stand for — one per (k+1)-mer window in DBG
    /// construction, though a 16-byte record carries about ten of them.
    pub pairs_shuffled: u64,
    /// Number of distinct keys (groups) processed by `reduce`.
    pub groups: u64,
    /// Number of output records produced by `reduce`.
    pub output_records: u64,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
    /// Bytes written to sorted map-side run files. 0 unless the pass ran via
    /// [`map_reduce_spillable_on`] under a [`SpillPolicy`](crate::SpillPolicy)
    /// cap that tripped; for a
    /// [`count_keys_on`](crate::keycount::count_keys_on) pass, the bytes of
    /// the record segments its scatter workers flushed.
    pub spilled_bytes: u64,
    /// Bytes streamed back from run files by the reduce-side merge.
    pub spill_read_bytes: u64,
    /// Sorted run files written by the map phase; for a
    /// [`count_keys_on`](crate::keycount::count_keys_on) pass, the times a
    /// worker flushed its buckets' records as segments.
    pub spilled_runs: u64,
}

/// Runs a mini-MapReduce pass on `ctx`'s worker pool (the worker count is the
/// pool size) and returns the outputs of every reduce worker, in worker order
/// (deterministic for a fixed worker count), plus the pass's metrics.
///
/// The reduce UDF receives the index of the worker executing it and each
/// group as `(&key, &mut [value])` — the slice is a window into the worker's
/// flat, key-sorted value buffer (it may be reordered freely, e.g. sorted,
/// but only lives for the duration of the call) — and pushes its outputs into
/// the worker's shared output vector, so neither side of the shuffle
/// allocates a container per key. Callers that need neither the worker index
/// nor the per-worker split ignore the one and flatten the other.
pub fn map_reduce_on<I, K, V, O, MF, RF>(
    ctx: &ExecCtx,
    inputs: Vec<I>,
    map_fn: MF,
    reduce_fn: RF,
) -> (Vec<Vec<O>>, MapReduceMetrics)
where
    I: Send,
    K: Hash + Eq + Ord + SortKey + Send,
    V: Send,
    O: Send,
    MF: Fn(I, &mut Emitter<'_, K, V>) + Sync,
    RF: Fn(usize, &K, &mut [V], &mut Vec<O>) + Sync,
{
    map_reduce_inner(ctx, inputs, map_fn, reduce_fn, None)
}

/// The bounded-memory mini MapReduce: like [`map_reduce_on`], but
/// when the context carries a [`SpillPolicy`](crate::SpillPolicy) byte cap the
/// map phase spills presorted run files to disk once a worker's buffered
/// pairs exceed `cap / (4 × workers)` bytes, and the reduce phase streams
/// them back in a source-ordered k-way merge. Without a cap (or with
/// [`SpillPolicy::Off`](crate::SpillPolicy::Off)) it is exactly the resident
/// pass — same outputs, byte for byte, either way.
///
/// `K` and `V` must be spill-codable; UDF-borrowed lifetimes are fine for
/// resident passes but spillable keys/values must own their data.
///
/// # Panics
///
/// Raises [`EngineError::Spill`] via panic (caught by `try_run`-style
/// wrappers) if run-file I/O fails; spill files are transient scratch, so
/// there is nothing to recover mid-pass.
pub fn map_reduce_spillable_on<I, K, V, O, MF, RF>(
    ctx: &ExecCtx,
    inputs: Vec<I>,
    map_fn: MF,
    reduce_fn: RF,
) -> (Vec<Vec<O>>, MapReduceMetrics)
where
    I: Send,
    K: Hash + Eq + Ord + SortKey + SpillCodec + Send,
    V: SpillCodec + Send,
    O: Send,
    MF: Fn(I, &mut Emitter<'_, K, V>) + Sync,
    RF: Fn(usize, &K, &mut [V], &mut Vec<O>) + Sync,
{
    let spill = ctx
        .spill()
        .and_then(|p| p.cap())
        .map(|cap| (cap, codec_of::<K>(), codec_of::<V>()));
    map_reduce_inner(ctx, inputs, map_fn, reduce_fn, spill)
}

/// What one map worker hands to the shuffle: its in-RAM remainder buffers,
/// any run files it spilled (per destination, in spill order), and its spill
/// counters.
struct MapSide<K, V> {
    out: Vec<Vec<(K, V)>>,
    runs: Vec<Vec<DiskRun>>,
    spilled_pairs: u64,
    spilled_bytes: u64,
    spilled_runs: u64,
}

/// Spill plumbing resolved at pass entry: the job-scoped temp dir, the
/// per-worker buffer budget and the pair codecs.
type SpillSetup<K, V> = Option<(Arc<SpillDir>, usize, Codec<K>, Codec<V>)>;

/// One destination's view of one source worker: that source's sorted on-disk
/// runs (in spill order) plus its sorted in-RAM remainder.
type ShuffleSources<K, V> = Vec<(Vec<DiskRun>, Vec<(K, V)>)>;

/// One reduce worker's outcome: its outputs, group count and spill-read
/// bytes — or the first disk error it hit.
type ReduceSide<O> = Result<(Vec<O>, u64, u64), SpillError>;

/// Shared body of the resident and spillable passes. `spill` carries the
/// byte cap and codecs when the caller opted in *and* a policy cap is
/// installed; `None` runs fully in RAM.
fn map_reduce_inner<I, K, V, O, MF, RF>(
    ctx: &ExecCtx,
    inputs: Vec<I>,
    map_fn: MF,
    reduce_fn: RF,
    spill: Option<(u64, Codec<K>, Codec<V>)>,
) -> (Vec<Vec<O>>, MapReduceMetrics)
where
    I: Send,
    K: Hash + Eq + Ord + SortKey + Send,
    V: Send,
    O: Send,
    MF: Fn(I, &mut Emitter<'_, K, V>) + Sync,
    RF: Fn(usize, &K, &mut [V], &mut Vec<O>) + Sync,
{
    let workers = ctx.workers();
    let start = Instant::now();
    let input_records = inputs.len() as u64;
    let spill: SpillSetup<K, V> = spill.map(|(cap, kc, vc)| {
        let dir =
            SpillDir::create("mr").unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));
        // Each map worker may buffer a quarter of its even share of the cap
        // before writing a run.
        let budget = ((cap as usize) / (4 * workers)).max(1);
        (dir, budget, kc, vc)
    });

    // ---- map phase: split inputs into `workers` chunks and map in parallel.
    let chunk_size = inputs.len().div_ceil(workers).max(1);
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(workers);
    {
        let mut it = inputs.into_iter();
        for _ in 0..workers {
            chunks.push(it.by_ref().take(chunk_size).collect());
        }
    }
    let mapped: Vec<Result<MapSide<K, V>, SpillError>> =
        ctx.pool().run_per_worker(chunks, |w, chunk| {
            let mut out: Vec<Vec<(K, V)>> = (0..workers).map(|_| Vec::new()).collect();
            let mut runs: Vec<Vec<DiskRun>> = (0..workers).map(|_| Vec::new()).collect();
            // One radix scratch serves all of this worker's destination
            // buffers (it cannot be parked in the ExecCtx: `(K, V)` may
            // borrow non-'static data, which the TypeId-keyed scratch cache
            // cannot hold).
            let mut scratch: Vec<(K, V)> = Vec::new();
            let mut emitted = 0u64;
            let (mut spilled_pairs, mut spilled_bytes, mut spilled_runs) = (0u64, 0u64, 0u64);
            let mut seq = 0u64;
            for item in chunk {
                let mut emitter = Emitter {
                    out: &mut out,
                    emitted,
                };
                map_fn(item, &mut emitter);
                emitted = emitter.emitted;
                // Budget check after every input record: O(1) while under
                // budget; over it, every non-empty destination buffer is
                // presorted and written out as one sorted run file.
                if let Some((dir, budget, kc, vc)) = &spill {
                    let buffered = (emitted - spilled_pairs) as usize;
                    if buffered * std::mem::size_of::<(K, V)>() > *budget {
                        for (dst, buf) in out.iter_mut().enumerate() {
                            if buf.is_empty() {
                                continue;
                            }
                            crate::radix::sort_pairs(buf, &mut scratch);
                            let name = format!("m{w}-d{dst}-s{seq}.run");
                            seq += 1;
                            let run = write_run(dir, &name, buf, kc, vc)?;
                            spilled_pairs += buf.len() as u64;
                            spilled_bytes += run.bytes;
                            spilled_runs += 1;
                            runs[dst].push(run);
                            buf.clear();
                        }
                    }
                }
            }
            // Presort the remainders per destination so that the reduce side
            // only k-way-merges: the sort work runs here, parallel across
            // all map workers.
            for buf in out.iter_mut() {
                crate::radix::sort_pairs(buf, &mut scratch);
            }
            Ok(MapSide {
                out,
                runs,
                spilled_pairs,
                spilled_bytes,
                spilled_runs,
            })
        });
    let mapped: Vec<MapSide<K, V>> = mapped
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));

    // ---- shuffle: transpose the per-source buffers to per-destination,
    // keeping each destination's sources in worker order (each source's runs
    // in spill order, its RAM remainder last — the tie-break order the merge
    // relies on).
    let mut pairs_shuffled = 0u64;
    let (mut spilled_bytes, mut spilled_runs) = (0u64, 0u64);
    let mut incoming: Vec<ShuffleSources<K, V>> =
        (0..workers).map(|_| Vec::with_capacity(workers)).collect();
    let mut spill_active = false;
    for side in mapped {
        pairs_shuffled += side.spilled_pairs;
        spilled_bytes += side.spilled_bytes;
        spilled_runs += side.spilled_runs;
        for (dst, (runs, buf)) in side.runs.into_iter().zip(side.out).enumerate() {
            pairs_shuffled += buf.len() as u64;
            spill_active |= !runs.is_empty();
            incoming[dst].push((runs, buf));
        }
    }

    // Cooperative control poll at the map→reduce barrier (the pass's one BSP
    // boundary). An unwind here drops `incoming`, deleting any spilled run
    // files.
    ctx.poll_barrier();

    // ---- reduce phase: flat sort-based grouping, then reduce each key run.
    let codecs = spill.as_ref().map(|(_, _, kc, vc)| (*kc, *vc));
    let results: Vec<ReduceSide<O>> = ctx.pool().run_per_worker(incoming, |w, srcs| {
        // K-way merge of the pre-sorted sources straight into one key
        // per group plus a flat value buffer; each group is the
        // contiguous value run of its key. This replaces the hash map
        // *and* the sorted-key pass the hash-based grouping needed for
        // determinism (ties prefer the lower source, so the merge is
        // deterministic).
        let ram_total: usize = srcs.iter().map(|(_, ram)| ram.len()).sum();
        let mut group_keys: Vec<(K, usize)> = Vec::new();
        let mut vals: Vec<V> = Vec::with_capacity(ram_total);
        let mut sink = |k: K, v: V| {
            let new_group = match group_keys.last() {
                Some((last, _)) => *last != k,
                None => true,
            };
            if new_group {
                group_keys.push((k, vals.len()));
            }
            vals.push(v);
        };
        let mut read_bytes = 0u64;
        if spill_active {
            let (kc, vc) = codecs.expect("runs exist only when spilling is armed");
            let mut sources: Vec<MergeSource<K, V>> = Vec::new();
            // Keeps the consumed run files alive until the merge
            // finishes; dropping them afterwards deletes the files.
            let mut consumed: Vec<DiskRun> = Vec::new();
            for (runs, ram) in srcs {
                for run in runs {
                    sources.push(MergeSource::Disk(RunReader::open(run.path(), kc, vc)?));
                    consumed.push(run);
                }
                sources.push(MergeSource::Ram(ram.into_iter()));
            }
            read_bytes = merge_run_sources(sources, &mut sink)?;
        } else {
            let mut bufs: Vec<Vec<(K, V)>> = srcs.into_iter().map(|(_, ram)| ram).collect();
            crate::kmerge::merge_sorted_buffers(&mut bufs, sink);
        }
        let group_count = group_keys.len() as u64;
        let mut out = Vec::new();
        for g in 0..group_keys.len() {
            let start = group_keys[g].1;
            let end = group_keys.get(g + 1).map(|(_, s)| *s).unwrap_or(vals.len());
            reduce_fn(w, &group_keys[g].0, &mut vals[start..end], &mut out);
        }
        Ok((out, group_count, read_bytes))
    });
    let mut outputs: Vec<Vec<O>> = Vec::with_capacity(workers);
    let mut groups = 0u64;
    let mut spill_read_bytes = 0u64;
    for r in results {
        let (out, g, read) = r.unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));
        groups += g;
        spill_read_bytes += read;
        outputs.push(out);
    }

    let output_records = outputs.iter().map(|o| o.len() as u64).sum();
    let metrics = MapReduceMetrics {
        input_records,
        pairs_shuffled,
        groups,
        output_records,
        elapsed: start.elapsed(),
        spilled_bytes,
        spill_read_bytes,
        spilled_runs,
    };
    (outputs, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One pass on a fresh `workers`-worker context with a reduce that
    /// ignores the worker index, flattened in worker order.
    fn flat<I, K, V, O>(
        inputs: Vec<I>,
        workers: usize,
        map_fn: impl Fn(I, &mut Emitter<'_, K, V>) + Sync,
        reduce_fn: impl Fn(&K, &mut [V], &mut Vec<O>) + Sync,
    ) -> (Vec<O>, MapReduceMetrics)
    where
        I: Send,
        K: Hash + Eq + Ord + SortKey + Send,
        V: Send,
        O: Send,
    {
        let (per_worker, metrics) =
            map_reduce_on(&ExecCtx::new(workers), inputs, map_fn, |_w, k, vs, out| {
                reduce_fn(k, vs, out)
            });
        (per_worker.into_iter().flatten().collect(), metrics)
    }

    #[test]
    fn word_count() {
        let docs = ["a b a", "b c", "a", ""];
        let inputs: Vec<String> = docs.iter().map(|s| s.to_string()).collect();
        let (counts, metrics) = flat(
            inputs,
            3,
            |doc: String, out: &mut Emitter<'_, String, u64>| {
                for w in doc.split_whitespace() {
                    out.emit(w.to_string(), 1u64);
                }
            },
            |k: &String, vs: &mut [u64], out: &mut Vec<(String, u64)>| {
                out.push((k.clone(), vs.iter().sum::<u64>()))
            },
        );
        let mut counts: Vec<(String, u64)> = counts;
        counts.sort();
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
        assert_eq!(metrics.input_records, 4);
        assert_eq!(metrics.pairs_shuffled, 6);
        assert_eq!(metrics.groups, 3);
        assert_eq!(metrics.output_records, 3);
    }

    #[test]
    fn reduce_can_filter_groups() {
        // Keep only keys whose total exceeds a threshold — the same pattern as
        // the coverage filter θ in DBG construction.
        let inputs: Vec<u64> = (0..100).collect();
        let out = flat(
            inputs,
            4,
            |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x % 10, 1),
            |k: &u64, vs: &mut [u64], out: &mut Vec<u64>| {
                let total: u64 = vs.iter().sum();
                if total >= 10 && (*k).is_multiple_of(2) {
                    out.push(*k);
                }
            },
        )
        .0;
        let mut out = out;
        out.sort();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn partitioned_exposes_worker_index() {
        let inputs: Vec<u64> = (0..50).collect();
        let (per_worker, _) = map_reduce_on(
            &ExecCtx::new(4),
            inputs,
            |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x, x),
            |w: usize, _k: &u64, vs: &mut [u64], out: &mut Vec<(usize, u64)>| {
                out.extend(vs.iter().map(|&v| (w, v)));
            },
        );
        assert_eq!(per_worker.len(), 4);
        // Every output is tagged with the worker that produced it, and the
        // owning worker is consistent with the hash partitioning.
        for (w, outs) in per_worker.iter().enumerate() {
            for (tag, v) in outs {
                assert_eq!(*tag, w);
                assert_eq!((hash_one(v) % 4) as usize, w);
            }
        }
        let total: usize = per_worker.iter().map(|o| o.len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn shared_ctx_reused_across_passes() {
        // One pool drives several consecutive passes — the workflow shape.
        let ctx = ExecCtx::new(3);
        for round in 1u64..=4 {
            let inputs: Vec<u64> = (0..60).collect();
            let (per_worker, _) = map_reduce_on(
                &ctx,
                inputs,
                |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x % 5, x * round),
                |_w: usize, k: &u64, vs: &mut [u64], out: &mut Vec<(u64, u64)>| {
                    out.push((*k, vs.iter().sum::<u64>()))
                },
            );
            let mut out: Vec<(u64, u64)> = per_worker.into_iter().flatten().collect();
            out.sort_unstable();
            let expected: u64 = (0..60u64).map(|x| x * round).sum();
            assert_eq!(out.iter().map(|&(_, s)| s).sum::<u64>(), expected);
            assert_eq!(out.len(), 5);
        }
        assert!(ctx.pool().busy_nanos() > 0);
    }

    #[test]
    fn empty_input() {
        let (out, metrics) = flat(
            Vec::<u64>::new(),
            4,
            |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x, x),
            |_k: &u64, vs: &mut [u64], out: &mut Vec<u64>| out.extend_from_slice(vs),
        );
        assert!(out.is_empty());
        assert_eq!(metrics.groups, 0);
    }

    #[test]
    fn single_worker_is_sequential_but_correct() {
        let inputs: Vec<u64> = (0..20).collect();
        let out = flat(
            inputs,
            1,
            |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x % 2, x),
            |k: &u64, vs: &mut [u64], out: &mut Vec<(u64, usize)>| out.push((*k, vs.len())),
        )
        .0;
        let mut out = out;
        out.sort();
        assert_eq!(out, vec![(0, 10), (1, 10)]);
    }

    #[test]
    fn group_order_is_sorted_within_worker() {
        // With one worker, outputs must appear in ascending key order.
        let inputs: Vec<u64> = vec![5, 3, 9, 1, 7];
        let out = flat(
            inputs,
            1,
            |x: u64, out: &mut Emitter<'_, u64, ()>| out.emit(x, ()),
            |k: &u64, _vs: &mut [()], out: &mut Vec<u64>| out.push(*k),
        )
        .0;
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn reduce_may_mutate_its_slice() {
        // The reduce UDF is allowed to reorder its group in place (bubble
        // filtering sorts candidates by contig ID, for example).
        let inputs: Vec<u64> = vec![9, 3, 7, 1, 5];
        let out = flat(
            inputs,
            2,
            |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x % 2, x),
            |_k: &u64, vs: &mut [u64], out: &mut Vec<Vec<u64>>| {
                vs.sort_unstable();
                out.push(vs.to_vec());
            },
        )
        .0;
        for group in out {
            assert!(group.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn spillable_pass_matches_resident_pass() {
        // Word-count-shaped pass with enough volume to force many runs under
        // a tiny cap; per-key value order must survive spilling, so the
        // reduce folds order-sensitively (first value wins a slot).
        let run = |cap: Option<u64>| -> (Vec<(u64, u64, u64)>, MapReduceMetrics) {
            let ctx = ExecCtx::new(4);
            if let Some(cap) = cap {
                ctx.set_spill(crate::spill::SpillPolicy::At(cap));
            }
            let inputs: Vec<u64> = (0..20_000).collect();
            let (out, metrics) = map_reduce_spillable_on(
                &ctx,
                inputs,
                |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x % 257, x),
                |_w: usize, k: &u64, vs: &mut [u64], out: &mut Vec<(u64, u64, u64)>| {
                    // (key, first value, sum): `first` pins the within-key
                    // order, `sum` pins the membership.
                    out.push((*k, vs[0], vs.iter().sum()));
                },
            );
            ctx.clear_spill();
            let mut flat: Vec<(u64, u64, u64)> = out.into_iter().flatten().collect();
            flat.sort_unstable();
            (flat, metrics)
        };
        let (baseline, base_metrics) = run(None);
        assert_eq!(base_metrics.spilled_runs, 0);
        let (off, off_metrics) = run(Some(1 << 30));
        assert_eq!(off, baseline, "huge cap must not change the outputs");
        assert_eq!(off_metrics.spilled_runs, 0, "huge cap must not spill");
        let (spilled, spill_metrics) = run(Some(8192));
        assert_eq!(spilled, baseline, "spilled pass diverged from resident");
        assert!(spill_metrics.spilled_runs > 0, "tiny cap must spill runs");
        assert!(spill_metrics.spilled_bytes > 0);
        assert!(spill_metrics.spill_read_bytes > 0);
        assert_eq!(spill_metrics.pairs_shuffled, base_metrics.pairs_shuffled);
        assert_eq!(spill_metrics.groups, base_metrics.groups);
    }

    /// Hash-grouping oracle shared by the property tests below.
    fn hash_grouped_sums(pairs: &[(u64, u64)]) -> crate::fxhash::FxHashMap<u64, u64> {
        let mut grouped: crate::fxhash::FxHashMap<u64, u64> = crate::fxhash::FxHashMap::default();
        for &(k, v) in pairs {
            *grouped.entry(k).or_insert(0) += v;
        }
        grouped
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sort_grouping_matches_hash_grouping(
            pairs in proptest::collection::vec((0u64..64, 1u64..1000), 0..300),
            workers in 1usize..6,
        ) {
            // Aggregating reduce (the combiner-style shape).
            let expected = hash_grouped_sums(&pairs);
            let out = flat(
                pairs.clone(),
                workers,
                |p: (u64, u64), out: &mut Emitter<'_, u64, u64>| out.emit(p.0, p.1),
                |k: &u64, vs: &mut [u64], out: &mut Vec<(u64, u64)>| out.push((*k, vs.iter().sum::<u64>())),
            ).0;
            prop_assert_eq!(out.len(), expected.len());
            for (k, sum) in out {
                prop_assert_eq!(sum, expected[&k]);
            }

            // Identity reduce (the non-combiner shape): every value survives,
            // grouped with its key.
            let out = flat(
                pairs.clone(),
                workers,
                |p: (u64, u64), out: &mut Emitter<'_, u64, u64>| out.emit(p.0, p.1),
                |k: &u64, vs: &mut [u64], out: &mut Vec<(u64, u64)>| out.extend(vs.iter().map(|&v| (*k, v))),
            ).0;
            let mut got = out;
            let mut want = pairs.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_worker_count_does_not_change_results(
            pairs in proptest::collection::vec((0u64..32, 1u64..100), 0..200),
        ) {
            let mut reference: Option<Vec<(u64, u64)>> = None;
            for workers in [1usize, 2, 5] {
                let mut out = flat(
                    pairs.clone(),
                    workers,
                    |p: (u64, u64), out: &mut Emitter<'_, u64, u64>| out.emit(p.0, p.1),
                    |k: &u64, vs: &mut [u64], out: &mut Vec<(u64, u64)>| out.push((*k, vs.iter().sum::<u64>())),
                ).0;
                out.sort_unstable();
                match &reference {
                    Some(r) => prop_assert_eq!(r, &out),
                    None => reference = Some(out),
                }
            }
        }
    }
}
