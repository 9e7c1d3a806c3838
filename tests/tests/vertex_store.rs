//! Columnar-store equivalence pins: the sorted SoA vertex store must be
//! observationally identical to the hash-partitioned store it replaced.
//!
//! Three layers of evidence:
//!
//! * **engine level** — the same vertex program run through the production
//!   (columnar) engine and through `hash_store::run_hash_store` (the
//!   pre-columnar delivery loop on the same pool and message plane, kept
//!   below as the reference) produces the same final values and job totals,
//!   across worker counts;
//! * **operation level** — `remove_tips` over one fixed post-merge graph is
//!   byte-identical for every worker count (the store's partitioning must
//!   not leak into the REQUEST/DELETE protocol), exercising the
//!   removal-heavy path;
//! * **workflow level** — a full error-heavy assembly (bubbles + tips over
//!   two correction rounds) yields the same contig content for every worker
//!   count.
//!
//! (The store's bulk build and reads have their own hash-oracle property
//! test inside `ppa_pregel::vertex_set`, and halt-flag equivalence against a
//! sequential BSP oracle lives in `ppa_pregel::runner`.)

use hash_store::{run_hash_store, HashStoreCtx, HashStoreProgram};
use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::ops::merge::MergeConfig;
use ppa_assembler::ops::tip::{remove_tips, TipConfig};
use ppa_assembler::pipeline::{Construct, Label, Merge};
use ppa_assembler::{assemble, AssemblyConfig, GraphState, Pipeline};
use ppa_pregel::{Context, ExecCtx, NoAggregate, PregelConfig, VertexProgram};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Engine level: columnar runner vs the hash-store reference runner
// ---------------------------------------------------------------------------

/// The pre-columnar vertex store, kept as a test reference: the superstep
/// loop of the production runner — same pool, same per-destination radix
/// presort, sorted-run slice delivery, buffers reused across supersteps —
/// but each worker's vertices live in one `FxHashMap`, so pass 1 pays a hash
/// probe per delivered run and pass 2 walks the whole bucket array.
mod hash_store {
    use ppa_pregel::fxhash::{hash_one, FxHashMap};
    use ppa_pregel::ExecCtx;

    /// The vertex interface of [`run_hash_store`]: the production
    /// `VertexProgram` delivery contract (sorted slice per vertex) with IDs
    /// fixed to `u64`.
    pub trait HashStoreProgram: Sync {
        /// Per-vertex state.
        type Value: Send;
        /// Message type.
        type Message: Send;

        /// The per-vertex computation; `messages` is the contiguous sorted
        /// run addressed to this vertex. Straggler vertices (pass 2) emit in
        /// hash-map order, not ID order, so same-destination messages from
        /// two stragglers may arrive in either relative order — programs
        /// compared with the columnar engine must fold commutatively.
        fn compute(
            &self,
            ctx: &mut HashStoreCtx<'_, Self>,
            id: u64,
            value: &mut Self::Value,
            messages: &mut [Self::Message],
        );
    }

    /// Execution context handed to [`HashStoreProgram::compute`].
    pub struct HashStoreCtx<'a, P: HashStoreProgram + ?Sized> {
        superstep: usize,
        num_workers: usize,
        outbox: &'a mut [Vec<(u64, P::Message)>],
        messages_sent: &'a mut u64,
        halt: bool,
    }

    impl<P: HashStoreProgram + ?Sized> HashStoreCtx<'_, P> {
        /// The current superstep number (0-based).
        pub fn superstep(&self) -> usize {
            self.superstep
        }

        /// Sends a message to vertex `to`, delivered next superstep.
        pub fn send_message(&mut self, to: u64, message: P::Message) {
            let dst = (hash_one(&to) % self.num_workers as u64) as usize;
            self.outbox[dst].push((to, message));
            *self.messages_sent += 1;
        }

        /// Votes to halt until a message arrives.
        pub fn vote_to_halt(&mut self) {
            self.halt = true;
        }
    }

    /// Job totals of a hash-store run.
    #[derive(Debug, Default)]
    pub struct Totals {
        /// Supersteps executed.
        pub supersteps: usize,
        /// Logical messages sent.
        pub total_messages: u64,
    }

    /// Per-vertex entry: value plus inline halt/stamp flags.
    struct HashEntry<V> {
        value: V,
        halted: bool,
        stamp: usize,
    }

    /// Per-worker message-plane buffers, reused across supersteps.
    struct HashPlane<M> {
        in_ids: Vec<u64>,
        in_msgs: Vec<M>,
        merge_buf: Vec<(u64, M)>,
        scratch: Vec<(u64, M)>,
        outbox: Vec<Vec<(u64, M)>>,
    }

    /// One buffer per (source, destination) worker pair of the shuffle.
    type HashColumns<M> = Vec<Vec<Vec<(u64, M)>>>;

    /// Runs `program` to quiescence (or `max_supersteps`) on the pool of
    /// `ctx`; returns the final `(id, value)` pairs in unspecified order.
    pub fn run_hash_store<P: HashStoreProgram>(
        program: &P,
        ctx: &ExecCtx,
        pairs: impl IntoIterator<Item = (u64, P::Value)>,
        max_supersteps: usize,
    ) -> (Vec<(u64, P::Value)>, Totals) {
        let workers = ctx.workers();
        let mut parts: Vec<FxHashMap<u64, HashEntry<P::Value>>> =
            (0..workers).map(|_| FxHashMap::default()).collect();
        for (id, value) in pairs {
            let w = (hash_one(&id) % workers as u64) as usize;
            parts[w].insert(
                id,
                HashEntry {
                    value,
                    halted: false,
                    stamp: 0,
                },
            );
        }
        let mut planes: Vec<HashPlane<P::Message>> = (0..workers)
            .map(|_| HashPlane {
                in_ids: Vec::new(),
                in_msgs: Vec::new(),
                merge_buf: Vec::new(),
                scratch: Vec::new(),
                outbox: (0..workers).map(|_| Vec::new()).collect(),
            })
            .collect();
        let mut totals = Totals::default();

        for superstep in 0..max_supersteps {
            // ---- compute phase -----------------------------------------------
            let stamp = superstep + 1;
            let counts: Vec<(u64, bool)> = {
                let worker_inputs: Vec<_> = parts.iter_mut().zip(planes.iter_mut()).collect();
                ctx.pool()
                    .run_per_worker(worker_inputs, |_w, (part, plane)| {
                        let mut messages_sent = 0u64;

                        // Pass 1: walk the sorted runs; one hash probe per
                        // receiving vertex.
                        let n_in = plane.in_ids.len();
                        let mut i = 0usize;
                        while i < n_in {
                            let id = plane.in_ids[i];
                            let mut j = i + 1;
                            while j < n_in && plane.in_ids[j] == id {
                                j += 1;
                            }
                            if let Some(entry) = part.get_mut(&id) {
                                entry.stamp = stamp;
                                let mut vctx: HashStoreCtx<'_, P> = HashStoreCtx {
                                    superstep,
                                    num_workers: workers,
                                    outbox: &mut plane.outbox,
                                    messages_sent: &mut messages_sent,
                                    halt: false,
                                };
                                program.compute(
                                    &mut vctx,
                                    id,
                                    &mut entry.value,
                                    &mut plane.in_msgs[i..j],
                                );
                                entry.halted = vctx.halt;
                            }
                            i = j;
                        }

                        // Pass 2: full hash-map scan for active stragglers.
                        let mut all_halted = true;
                        for (id, entry) in part.iter_mut() {
                            if entry.stamp == stamp {
                                all_halted &= entry.halted;
                                continue;
                            }
                            if entry.halted {
                                continue;
                            }
                            let mut vctx: HashStoreCtx<'_, P> = HashStoreCtx {
                                superstep,
                                num_workers: workers,
                                outbox: &mut plane.outbox,
                                messages_sent: &mut messages_sent,
                                halt: false,
                            };
                            program.compute(&mut vctx, *id, &mut entry.value, &mut []);
                            entry.halted = vctx.halt;
                            all_halted &= entry.halted;
                        }

                        // Same sender-side radix presort as the production runner.
                        for buf in plane.outbox.iter_mut() {
                            ppa_pregel::radix::sort_pairs(buf, &mut plane.scratch);
                        }
                        (messages_sent, all_halted)
                    })
            };
            let mut messages_this_step = 0u64;
            let mut all_halted = true;
            for (sent, halted) in &counts {
                messages_this_step += sent;
                all_halted &= halted;
            }

            // ---- shuffle phase -----------------------------------------------
            // Concatenate the pre-sorted source buffers in worker order and
            // stable-radix-sort the result: the same merged order as the
            // production k-way merge for any fixed per-sender emission order.
            let mut columns: HashColumns<P::Message> =
                (0..workers).map(|_| Vec::with_capacity(workers)).collect();
            for plane in planes.iter_mut() {
                for (dst, buf) in plane.outbox.iter_mut().enumerate() {
                    columns[dst].push(std::mem::take(buf));
                }
            }
            let shuffle_inputs: Vec<_> = planes.iter_mut().zip(columns).collect();
            let returned: HashColumns<P::Message> =
                ctx.pool()
                    .run_per_worker(shuffle_inputs, |_w, (plane, mut bufs)| {
                        plane.merge_buf.clear();
                        for buf in bufs.iter_mut() {
                            plane.merge_buf.append(buf);
                        }
                        ppa_pregel::radix::sort_pairs(&mut plane.merge_buf, &mut plane.scratch);
                        plane.in_ids.clear();
                        plane.in_msgs.clear();
                        for (id, msg) in plane.merge_buf.drain(..) {
                            plane.in_ids.push(id);
                            plane.in_msgs.push(msg);
                        }
                        bufs
                    });
            for (dst, bufs) in returned.into_iter().enumerate() {
                for (src, buf) in bufs.into_iter().enumerate() {
                    planes[src].outbox[dst] = buf;
                }
            }

            totals.supersteps += 1;
            totals.total_messages += messages_this_step;
            if messages_this_step == 0 && all_halted {
                break;
            }
        }

        let out = parts
            .into_iter()
            .flat_map(|p| p.into_iter().map(|(id, e)| (id, e.value)))
            .collect();
        (out, totals)
    }
}

/// Runs `program` over vertices `0..n` (vertex `i` starts at `init(i)`) on
/// the hash-store reference and on the production engine with `workers`
/// workers, and asserts the same final values and job totals.
fn assert_engines_agree<P>(program: &P, n: u64, init: fn(u64) -> u64, workers: usize)
where
    P: VertexProgram<Id = u64, Value = u64, Message = u64>
        + HashStoreProgram<Value = u64, Message = u64>,
{
    let ctx = ExecCtx::new(workers);
    let (mut old, old_metrics) = run_hash_store(program, &ctx, (0..n).map(|i| (i, init(i))), 1_000);
    let config = PregelConfig::with_workers(workers).exec_ctx(ctx);
    let (set, new_metrics) =
        ppa_pregel::run_from_pairs(program, &config, (0..n).map(|i| (i, init(i))));
    let mut new = set.into_pairs();
    old.sort_unstable();
    new.sort_unstable();
    assert_eq!(old, new, "workers = {workers}");
    assert_eq!(old_metrics.supersteps, new_metrics.supersteps);
    assert_eq!(old_metrics.total_messages, new_metrics.total_messages);
}

/// A scatter program driven by an explicit plan, defined against both vertex
/// interfaces: superstep 0 sends the planned messages, superstep 1 folds the
/// received sums, then everything halts.
struct Planned {
    plan: Vec<Vec<(u64, u64)>>,
}

impl VertexProgram for Planned {
    type Id = u64;
    type Value = u64;
    type Message = u64;
    type Aggregate = NoAggregate;
    fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
        if ctx.superstep() == 0 {
            for &(to, payload) in &self.plan[id as usize] {
                ctx.send_message(to, payload);
            }
        } else {
            *value += msgs.iter().sum::<u64>();
        }
        ctx.vote_to_halt();
    }
}

impl HashStoreProgram for Planned {
    type Value = u64;
    type Message = u64;
    fn compute(
        &self,
        ctx: &mut HashStoreCtx<'_, Self>,
        id: u64,
        value: &mut u64,
        msgs: &mut [u64],
    ) {
        if ctx.superstep() == 0 {
            for &(to, payload) in &self.plan[id as usize] {
                ctx.send_message(to, payload);
            }
        } else {
            *value += msgs.iter().sum::<u64>();
        }
        ctx.vote_to_halt();
    }
}

/// A multi-round scatter-and-fold program, defined against both vertex
/// interfaces: for `rounds` supersteps every vertex folds what it received
/// and sends `id + 1` to a superstep-dependent target.
struct Relay {
    n: u64,
    rounds: usize,
}

impl Relay {
    fn target(&self, id: u64, superstep: usize) -> u64 {
        (id.wrapping_mul(31).wrapping_add(superstep as u64 * 7 + 1)) % self.n
    }
}

impl VertexProgram for Relay {
    type Id = u64;
    type Value = u64;
    type Message = u64;
    type Aggregate = NoAggregate;
    fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
        *value = value.wrapping_add(msgs.iter().sum::<u64>());
        if ctx.superstep() < self.rounds {
            ctx.send_message(self.target(id, ctx.superstep()), id + 1);
        }
        ctx.vote_to_halt();
    }
}

impl HashStoreProgram for Relay {
    type Value = u64;
    type Message = u64;
    fn compute(
        &self,
        ctx: &mut HashStoreCtx<'_, Self>,
        id: u64,
        value: &mut u64,
        msgs: &mut [u64],
    ) {
        *value = value.wrapping_add(msgs.iter().sum::<u64>());
        if ctx.superstep() < self.rounds {
            ctx.send_message(self.target(id, ctx.superstep()), id + 1);
        }
        ctx.vote_to_halt();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_columnar_engine_matches_hash_store_engine(
        n in 1u64..60,
        raw in proptest::collection::vec((0u64..60, 0u64..80, 1u64..100), 0..250),
        workers in 1usize..6,
    ) {
        let mut plan: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
        for &(sender, target, payload) in &raw {
            // Includes out-of-range targets: both stores must drop them.
            plan[(sender % n) as usize].push((target, payload));
        }
        assert_engines_agree(&Planned { plan }, n, |_| 0, workers);
    }
}

#[test]
fn hash_store_runner_matches_columnar_engine() {
    for workers in [1usize, 3] {
        assert_engines_agree(&Relay { n: 999, rounds: 6 }, 999, |i| i, workers);
    }
}

// ---------------------------------------------------------------------------
// Operation level: tip removal over one fixed graph, across worker counts
// ---------------------------------------------------------------------------

/// Error-heavy reads: dense coverage of a reference plus diverging reads that
/// plant tips and bubbles for the correction operations to chew on.
fn error_heavy_reads(seed: u64) -> ReadSet {
    let reference = GenomeConfig {
        length: 4_000,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 80,
        seed,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 90,
        coverage: 30.0,
        substitution_rate: 0.01, // high error rate → plenty of tips/bubbles
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: seed + 1,
    }
    .simulate(&reference)
}

#[test]
fn remove_tips_is_identical_across_worker_counts() {
    let reads = error_heavy_reads(29);
    // Build ONE post-merge graph (fixed IDs), keeping even short dangling
    // contigs (threshold 0) so plenty of tips survive into the operation.
    let mut state = GraphState::new(&reads);
    Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k: 21,
            min_coverage: 0,
            batch_size: 1024,
        }))
        .then(Label::list_ranking())
        .then(Merge::new(MergeConfig {
            k: 21,
            tip_length_threshold: 0,
        }))
        .run(&mut state, &ExecCtx::new(2));
    assert!(
        !state.ambiguous_kmers.is_empty(),
        "error-heavy reads must create branches"
    );

    let config = TipConfig {
        k: 21,
        tip_length_threshold: 80,
    };
    let fingerprint = |workers: usize| {
        let out = remove_tips(&state.ambiguous_kmers, &state.contigs, &config, workers);
        let mut kmers: Vec<u64> = out.kmers.iter().map(|n| n.id).collect();
        let mut contigs: Vec<(u64, usize)> = out.contigs.iter().map(|c| (c.id, c.len())).collect();
        kmers.sort_unstable();
        contigs.sort_unstable();
        (out.deleted_kmers, out.deleted_contigs, kmers, contigs)
    };

    let reference = fingerprint(1);
    assert!(
        reference.0 + reference.1 > 0,
        "the removal-heavy workload must actually delete something"
    );
    for workers in [2usize, 3, 4, 7] {
        assert_eq!(fingerprint(workers), reference, "workers = {workers}");
    }
}

// ---------------------------------------------------------------------------
// Workflow level: error-heavy assembly across worker counts
// ---------------------------------------------------------------------------

#[test]
fn removal_heavy_assembly_is_worker_count_independent() {
    let reads = error_heavy_reads(41);
    let assembly_for = |workers: usize| {
        assemble(
            &reads,
            &AssemblyConfig {
                k: 21,
                min_kmer_coverage: 1,
                workers,
                error_correction_rounds: 2,
                min_contig_length: 0,
                ..Default::default()
            },
        )
    };

    let reference = assembly_for(1);
    assert!(!reference.contigs.is_empty());
    // The correction rounds must have exercised the removal path.
    let deleted: usize = reference
        .stats
        .corrections
        .iter()
        .map(|c| c.tip_kmers_deleted + c.tip_contigs_deleted + c.bubbles_pruned)
        .sum();
    assert!(
        deleted > 0,
        "expected tips/bubbles in an error-heavy dataset"
    );
    // Frontier/footprint metrics must flow through the observer path. The
    // density is a per-superstep mean, so list-ranking's long sparse tail
    // (finished vertices halt and stop computing) must pull it below 1.0.
    let density = reference.stats.label_round1.avg_frontier_density;
    assert!(density > 0.0 && density < 1.0, "density = {density}");
    assert!(reference.stats.label_round1.peak_store_resident_bytes > 0);

    let canonical = |a: &ppa_assembler::Assembly| {
        let mut seqs: Vec<String> = a
            .contigs
            .iter()
            .map(|c| c.sequence.canonical().to_ascii())
            .collect();
        seqs.sort();
        seqs
    };
    let expected = canonical(&reference);
    for workers in [2usize, 4] {
        let assembly = assembly_for(workers);
        assert_eq!(canonical(&assembly), expected, "workers = {workers}");
    }
}
