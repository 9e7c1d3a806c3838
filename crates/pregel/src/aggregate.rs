//! Aggregators: Pregel's mechanism for global communication.
//!
//! Each vertex may contribute a value to the aggregator during
//! `compute(.)`; the engine combines all contributions and makes the combined
//! value available to every vertex in the *next* superstep (and to the
//! program's termination check). The assembler uses aggregators to detect
//! convergence of the simplified S-V algorithm, to count active vertices for
//! the list-ranking cycle fallback, and to count newly created `⟨1⟩`-typed
//! vertices between tip-removal phases.

/// A commutative, associative aggregation value with an identity element.
pub trait Aggregate: Send + Sync + Clone + 'static {
    /// The identity element (the value before any contribution).
    fn identity() -> Self;
    /// Folds `other` into `self`.
    fn combine(&mut self, other: &Self);
}

/// The trivial aggregator for programs that do not need one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoAggregate;

impl Aggregate for NoAggregate {
    fn identity() -> Self {
        NoAggregate
    }
    fn combine(&mut self, _other: &Self) {}
}

/// Sum of `u64` contributions — a counter when each vertex contributes
/// `Count(1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count(pub u64);

impl Aggregate for Count {
    fn identity() -> Self {
        Count(0)
    }
    fn combine(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

/// Logical OR of boolean contributions (e.g. "did any vertex change?").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolOr(pub bool);

impl Aggregate for BoolOr {
    fn identity() -> Self {
        BoolOr(false)
    }
    fn combine(&mut self, other: &Self) {
        self.0 |= other.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_count() {
        let mut s = Count::identity();
        s.combine(&Count(5));
        s.combine(&Count(7));
        assert_eq!(s, Count(12));
        let mut c = Count::identity();
        c.combine(&Count(1));
        c.combine(&Count(1));
        assert_eq!(c.0, 2);
    }

    #[test]
    fn bool_or() {
        let mut b = BoolOr::identity();
        assert!(!b.0);
        b.combine(&BoolOr(false));
        assert!(!b.0);
        b.combine(&BoolOr(true));
        b.combine(&BoolOr(false));
        assert!(b.0);
    }

    #[test]
    fn no_aggregate_is_noop() {
        let mut n = NoAggregate::identity();
        n.combine(&NoAggregate);
        assert_eq!(n, NoAggregate);
    }
}
