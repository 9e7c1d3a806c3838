//! A sequential BSP loop: the reference the engine's superstep runner is
//! compared against.
//!
//! [`run`] drives a [`Step`] over the ranks `0..states.len()` one vertex at a
//! time, on one thread, with plain vectors: no workers, no outboxes, no
//! scatter, and none of the engine's types. Its rules are the Pregel model's,
//! written out once:
//!
//! * every vertex that takes part (a `Some` state) starts active;
//! * a superstep computes the vertices with messages in ascending rank, then
//!   the active vertices without messages in ascending rank;
//! * a vertex that votes to halt is skipped until a message wakes it;
//! * everything sent in superstep `s` arrives in superstep `s + 1`, each inbox
//!   in send order. A message to a rank that takes no part is dropped when it
//!   arrives, and so is one to a rank at or beyond the end;
//! * the job has converged after the first superstep that sends nothing and
//!   leaves every vertex halted, and stops unconverged at the superstep cap.

/// A per-vertex step function: what one vertex does in one superstep.
pub trait Step: Sync {
    /// The vertex state.
    type Value: Send;
    /// What vertices send each other.
    type Message: Send;

    /// Vertex `rank` computes in `superstep` on `value` and what it received,
    /// sending with `send(to, message)`. Returns whether it votes to halt.
    fn step(
        &self,
        superstep: usize,
        rank: u32,
        value: &mut Self::Value,
        inbox: &[Self::Message],
        send: &mut dyn FnMut(u32, Self::Message),
    ) -> bool;
}

/// What one superstep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Vertices computed.
    pub computed: usize,
    /// Messages sent.
    pub sent: u64,
    /// Messages dropped on arrival: sent in the superstep before to a rank
    /// that takes no part or lies beyond the end.
    pub dropped: u64,
}

/// A finished run: the final states, one [`Row`] per superstep, and whether
/// the job converged before the cap.
#[derive(Debug, Clone, PartialEq)]
pub struct Run<V> {
    /// The final state of every rank; `None` where a rank takes no part.
    pub states: Vec<Option<V>>,
    /// One row per superstep run.
    pub rows: Vec<Row>,
    /// Whether the job converged rather than hitting the cap.
    pub converged: bool,
}

/// Runs `program` over `states` for at most `max_supersteps` supersteps.
pub fn run<S: Step>(
    program: &S,
    mut states: Vec<Option<S::Value>>,
    max_supersteps: usize,
) -> Run<S::Value> {
    let n = states.len();
    let mut halted: Vec<bool> = states.iter().map(Option::is_none).collect();
    let mut inboxes: Vec<Vec<S::Message>> = (0..n).map(|_| Vec::new()).collect();
    let mut stray = 0u64; // sent last superstep beyond the last rank
    let mut rows = Vec::new();
    for superstep in 0..max_supersteps {
        let mut next: Vec<Vec<S::Message>> = (0..n).map(|_| Vec::new()).collect();
        let mut row = Row {
            computed: 0,
            sent: 0,
            dropped: std::mem::take(&mut stray),
        };
        let mut compute = |rank: usize, value: &mut S::Value, inbox: &[S::Message]| {
            let mut send = |to: u32, message: S::Message| {
                row.sent += 1;
                match next.get_mut(to as usize) {
                    Some(inbox) => inbox.push(message),
                    None => stray += 1,
                }
            };
            row.computed += 1;
            program.step(superstep, rank as u32, value, inbox, &mut send)
        };
        let received: Vec<bool> = inboxes.iter().map(|inbox| !inbox.is_empty()).collect();
        for (rank, inbox) in inboxes.iter_mut().enumerate() {
            let inbox = std::mem::take(inbox);
            match &mut states[rank] {
                Some(value) if !inbox.is_empty() => {
                    halted[rank] = compute(rank, value, &inbox);
                }
                _ => row.dropped += inbox.len() as u64,
            }
        }
        for rank in 0..n {
            if let (Some(value), false, false) = (&mut states[rank], halted[rank], received[rank]) {
                halted[rank] = compute(rank, value, &[]);
            }
        }
        rows.push(row);
        inboxes = next;
        if row.sent == 0 && halted.iter().all(|&h| h) {
            return Run {
                states,
                rows,
                converged: true,
            };
        }
    }
    Run {
        states,
        rows,
        converged: false,
    }
}
