//! The vertex-centric programming interface: [`VertexProgram`] and [`Context`].

use crate::aggregate::Aggregate;
use crate::dense::RankRanges;
use crate::fxhash::hash_one;
use crate::radix::SortKey;
use std::fmt::Debug;
use std::hash::Hash;

/// Requirements for a vertex identifier.
///
/// The assembler uses 64-bit integers (Figure 7 of the paper); the framework
/// only needs identifiers to be small, hashable, ordered and sendable.
pub trait VertexKey: Copy + Eq + Hash + Ord + Send + Sync + Debug + 'static {}

impl<T> VertexKey for T where T: Copy + Eq + Hash + Ord + Send + Sync + Debug + 'static {}

/// A vertex-centric program in the Pregel model.
///
/// Implementations define how a single vertex reacts to its incoming messages
/// in a superstep: it may update its own value, send messages to any vertex by
/// ID, contribute to the global aggregator and vote to halt. The engine calls
/// [`compute`](VertexProgram::compute) for every vertex that is active or has
/// pending messages.
pub trait VertexProgram: Sync {
    /// Vertex identifier type. The [`SortKey`] bound
    /// lets the message plane presort outboxes with the LSD radix sort when
    /// the ID has a monotone `u64` image (it does for the assembler's packed
    /// 64-bit IDs), falling back to comparison sorting otherwise.
    type Id: VertexKey + crate::radix::SortKey;
    /// Per-vertex state (including the adjacency list, following Pregel's
    /// "think like a vertex" model where the vertex owns its edges).
    type Value: Send;
    /// Message type exchanged between vertices.
    type Message: Send;
    /// Global aggregator value.
    type Aggregate: Aggregate;

    /// Whether messages destined to the same vertex should be merged with
    /// [`combine`](VertexProgram::combine) before delivery.
    const USE_COMBINER: bool = false;

    /// The per-vertex computation executed once per superstep for every active
    /// vertex (or any halted vertex that received messages, which reactivates
    /// it).
    ///
    /// `messages` is a mutable view into the engine's sorted delivery buffer:
    /// the contiguous run of messages addressed to this vertex. The slice is
    /// only valid for the duration of the call — programs that need to keep a
    /// message must copy it out. Handing out a slice (instead of an owned
    /// `Vec` per vertex, as earlier revisions did) is what makes steady-state
    /// supersteps allocation-free on the delivery path.
    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: Self::Id,
        value: &mut Self::Value,
        messages: &mut [Self::Message],
    );

    /// Merges `incoming` into `acc`. Only called when
    /// [`USE_COMBINER`](VertexProgram::USE_COMBINER) is `true`.
    fn combine(&self, _acc: &mut Self::Message, _incoming: Self::Message) {
        unreachable!("combine() called but USE_COMBINER is false");
    }

    /// Optional global termination check evaluated after every superstep with
    /// the aggregate produced by that superstep. Returning `true` stops the
    /// job even if vertices are still active (used e.g. by the simplified S-V
    /// algorithm to stop once no parent pointer changed in a round).
    fn should_terminate(&self, _aggregate: &Self::Aggregate, _superstep: usize) -> bool {
        false
    }
}

/// How [`Context::send_message`] finds the worker that holds a vertex.
pub(crate) enum Route<'a> {
    /// `hash_one(&id) % workers`, where a [`VertexSet`](crate::VertexSet)
    /// places it (the sorted plane).
    Hash,
    /// The owner of the ID's rank among a [`DenseSet`](crate::DenseSet)'s
    /// ranges (the dense plane). An ID no worker owns is dropped at the
    /// sender, not handed to the exchange, and counted here.
    Range(RankRanges, &'a mut u64),
}

/// Per-superstep, per-worker execution context handed to
/// [`VertexProgram::compute`].
pub struct Context<'a, P: VertexProgram + ?Sized> {
    pub(crate) superstep: usize,
    pub(crate) worker: usize,
    pub(crate) num_workers: usize,
    pub(crate) total_vertices: usize,
    pub(crate) prev_aggregate: &'a P::Aggregate,
    pub(crate) local_aggregate: &'a mut P::Aggregate,
    /// One outgoing buffer per destination worker.
    pub(crate) outbox: &'a mut [Vec<(P::Id, P::Message)>],
    pub(crate) route: Route<'a>,
    pub(crate) messages_sent: &'a mut u64,
    pub(crate) halt: bool,
}

impl<'a, P: VertexProgram + ?Sized> Context<'a, P> {
    /// The current superstep number (0-based).
    #[inline]
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// The index of the worker executing this vertex.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total number of workers in the job.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Total number of vertices in the job (as of job start).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.total_vertices
    }

    /// The aggregate combined over all vertices in the *previous* superstep.
    #[inline]
    // ppa_lint: allow(test-only-pub) the vertex-program API's read side of the aggregator
    pub fn aggregated(&self) -> &P::Aggregate {
        self.prev_aggregate
    }

    /// Contributes a value to the aggregator for this superstep.
    #[inline]
    pub fn aggregate(&mut self, value: P::Aggregate) {
        self.local_aggregate.combine(&value);
    }

    /// Sends a message to the vertex identified by `to`, to be delivered at
    /// the beginning of the next superstep.
    #[inline]
    pub fn send_message(&mut self, to: P::Id, message: P::Message) {
        *self.messages_sent += 1;
        let dst = match &mut self.route {
            Route::Hash => (hash_one(&to) % self.num_workers as u64) as usize,
            Route::Range(ranges, unrouted) => match ranges.owner(to.radix_key()) {
                Some(owner) => owner,
                None => {
                    **unrouted += 1;
                    return;
                }
            },
        };
        self.outbox[dst].push((to, message));
    }

    /// Votes to halt: the vertex becomes inactive until it receives a message.
    #[inline]
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Count;

    struct Dummy;
    impl VertexProgram for Dummy {
        type Id = u64;
        type Value = ();
        type Message = u64;
        type Aggregate = Count;
        fn compute(
            &self,
            _ctx: &mut Context<'_, Self>,
            _id: u64,
            _value: &mut (),
            _messages: &mut [u64],
        ) {
        }
    }

    #[test]
    fn context_accessors_and_sending() {
        let prev = Count(7);
        let mut local = Count(0);
        let mut outbox = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut sent = 0u64;
        let mut ctx: Context<'_, Dummy> = Context {
            superstep: 3,
            worker: 1,
            num_workers: 3,
            total_vertices: 10,
            prev_aggregate: &prev,
            local_aggregate: &mut local,
            outbox: &mut outbox,
            route: Route::Hash,
            messages_sent: &mut sent,
            halt: false,
        };
        assert_eq!(ctx.superstep(), 3);
        assert_eq!(ctx.worker(), 1);
        assert_eq!(ctx.num_workers(), 3);
        assert_eq!(ctx.num_vertices(), 10);
        assert_eq!(ctx.aggregated().0, 7);
        ctx.aggregate(Count(5));
        ctx.aggregate(Count(2));
        ctx.send_message(42, 100);
        ctx.send_message(43, 200);
        ctx.vote_to_halt();
        assert!(ctx.halt);
        assert_eq!(sent, 2);
        assert_eq!(local.0, 7);
        let total: usize = outbox.iter().map(|b| b.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn default_should_terminate_is_false() {
        assert!(!Dummy.should_terminate(&Count(5), 10));
    }

    #[test]
    #[should_panic]
    fn default_combine_panics() {
        let mut a = 1u64;
        Dummy.combine(&mut a, 2);
    }
}
