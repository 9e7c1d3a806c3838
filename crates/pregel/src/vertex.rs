//! The vertex-centric programming interface: [`VertexProgram`] and [`Context`].

use crate::aggregate::Aggregate;
use crate::dense::RankRanges;

/// A vertex-centric program in the Pregel model.
///
/// Implementations define how a single vertex reacts to its incoming messages
/// in a superstep: it may update its own value, send messages to any vertex by
/// rank, contribute to the global aggregator and vote to halt. The engine calls
/// [`compute`](VertexProgram::compute) for every vertex that is active or has
/// pending messages. Vertices are named by their `u32` rank in a
/// [`DenseSet`](crate::DenseSet).
pub trait VertexProgram: Sync {
    /// Per-vertex state (including the adjacency list, following Pregel's
    /// "think like a vertex" model where the vertex owns its edges).
    type Value: Send;
    /// Message type exchanged between vertices.
    type Message: Send;
    /// Global aggregator value.
    type Aggregate: Aggregate;

    /// The per-vertex computation executed once per superstep for every active
    /// vertex (or any halted vertex that received messages, which reactivates
    /// it).
    ///
    /// `messages` is a mutable view into the worker's inbox: every message
    /// addressed to this vertex, one contiguous run in (source worker, send
    /// order). The slice is only valid for the duration of the call —
    /// programs that need to keep a message must copy it out. Handing out a
    /// slice instead of an owned `Vec` per vertex is what makes steady-state
    /// supersteps allocation-free on the delivery path.
    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        value: &mut Self::Value,
        messages: &mut [Self::Message],
    );

    /// Optional global termination check evaluated after every superstep with
    /// the aggregate produced by that superstep. Returning `true` stops the
    /// job even if vertices are still active (used e.g. by the simplified S-V
    /// algorithm to stop once no parent pointer changed in a round).
    fn should_terminate(&self, _aggregate: &Self::Aggregate, _superstep: usize) -> bool {
        false
    }
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
    pub(crate) outbox: &'a mut [Vec<(u32, P::Message)>],
    /// Which worker owns a rank.
    pub(crate) ranges: RankRanges,
    /// Messages sent to a rank no worker owns: dropped at the sender, not
    /// handed to the exchange, and counted here.
    pub(crate) unrouted: &'a mut u64,
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

    /// Sends a message to the vertex of rank `to`, to be delivered at the
    /// beginning of the next superstep.
    #[inline]
    pub fn send_message(&mut self, to: u32, message: P::Message) {
        *self.messages_sent += 1;
        match self.ranges.owner(to as u64) {
            Some(owner) => self.outbox[owner].push((to, message)),
            None => *self.unrouted += 1,
        }
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
        type Value = ();
        type Message = u64;
        type Aggregate = Count;
        fn compute(
            &self,
            _ctx: &mut Context<'_, Self>,
            _rank: u32,
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
        let (mut sent, mut unrouted) = (0u64, 0u64);
        let mut ctx: Context<'_, Dummy> = Context {
            superstep: 3,
            worker: 1,
            num_workers: 3,
            total_vertices: 10,
            prev_aggregate: &prev,
            local_aggregate: &mut local,
            outbox: &mut outbox,
            ranges: RankRanges::new(10, 3),
            unrouted: &mut unrouted,
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
        ctx.send_message(0, 100);
        ctx.send_message(9, 200);
        ctx.send_message(10, 300); // one past the last rank: nobody owns it
        ctx.vote_to_halt();
        assert!(ctx.halt);
        assert_eq!((sent, unrouted), (3, 1));
        assert_eq!(local.0, 7);
        assert_eq!(outbox[0], [(0, 100)]);
        assert_eq!(outbox[2], [(9, 200)]);
        assert!(outbox[1].is_empty());
    }

    #[test]
    fn default_should_terminate_is_false() {
        assert!(!Dummy.should_terminate(&Count(5), 10));
    }
}
