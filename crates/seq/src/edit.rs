//! Edit (Levenshtein) distance between DNA sequences.
//!
//! Bubble filtering (operation ④ of the paper) prunes a low-coverage contig if
//! its sequence is within a user-defined edit distance of a higher-coverage
//! contig that shares the same two ambiguous end vertices. The distances
//! involved are small (the paper uses a threshold of 5), so a *banded*
//! computation that gives up once the distance provably exceeds the threshold
//! is both sufficient and much cheaper than the full dynamic program.

use crate::DnaString;

/// Banded edit distance with early exit.
///
/// Returns `Some(d)` if the edit distance `d` between `a` and `b` is at most
/// `max_dist`, and `None` otherwise. Complexity is O(max_dist · max(n, m)).
pub fn banded_edit_distance(a: &DnaString, b: &DnaString, max_dist: usize) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    // A length difference alone already exceeds the band.
    if n.abs_diff(m) > max_dist {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    if m == 0 {
        return Some(n);
    }
    let a_bases = a.to_bases();
    let b_bases = b.to_bases();
    let band = max_dist;
    const INF: usize = usize::MAX / 2;
    // dp over rows of `a` (length n+1), but only within the band around the
    // diagonal.
    let mut prev = vec![INF; m + 1];
    let mut curr = vec![INF; m + 1];
    for (j, p) in prev.iter_mut().enumerate().take(band.min(m) + 1) {
        *p = j;
    }
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        curr.iter_mut().for_each(|v| *v = INF);
        if i <= band {
            curr[0] = i;
        }
        let mut row_min = curr[0];
        for j in lo..=hi {
            let cost = usize::from(a_bases[i - 1] != b_bases[j - 1]);
            let sub = prev[j - 1].saturating_add(cost);
            let del = prev[j].saturating_add(1);
            let ins = curr[j - 1].saturating_add(1);
            let v = sub.min(del).min(ins);
            curr[j] = v;
            row_min = row_min.min(v);
        }
        if row_min > max_dist {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[m];
    if d <= max_dist {
        Some(d)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Full O(n·m) Levenshtein distance: the reference the banded
    /// computation is checked against.
    fn edit_distance(a: &DnaString, b: &DnaString) -> usize {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let n = short.len();
        if n == 0 {
            return long.len();
        }
        let short_bases = short.to_bases();
        let long_bases = long.to_bases();
        let mut prev: Vec<usize> = (0..=n).collect();
        let mut curr = vec![0usize; n + 1];
        for (i, &lb) in long_bases.iter().enumerate() {
            curr[0] = i + 1;
            for (j, &sb) in short_bases.iter().enumerate() {
                let cost = usize::from(lb != sb);
                curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[n]
    }

    fn ds(s: &str) -> DnaString {
        DnaString::from_ascii(s).unwrap()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = ds("ATTGCAAGTC");
        assert_eq!(edit_distance(&a, &a), 0);
        assert_eq!(banded_edit_distance(&a, &a, 0), Some(0));
    }

    #[test]
    fn single_substitution() {
        // Figure 5's bubble: main path spells CAA segment, erroneous read has CTA.
        let a = ds("GCAAG");
        let b = ds("GCTAG");
        assert_eq!(edit_distance(&a, &b), 1);
        assert_eq!(banded_edit_distance(&a, &b, 5), Some(1));
    }

    #[test]
    fn insertion_and_deletion() {
        let a = ds("ACGTACGT");
        let b = ds("ACGACGT");
        assert_eq!(edit_distance(&a, &b), 1);
        assert_eq!(edit_distance(&b, &a), 1);
        assert_eq!(banded_edit_distance(&a, &b, 1), Some(1));
    }

    #[test]
    fn empty_sequences() {
        let e = DnaString::new();
        let a = ds("ACGT");
        assert_eq!(edit_distance(&e, &e), 0);
        assert_eq!(edit_distance(&e, &a), 4);
        assert_eq!(banded_edit_distance(&e, &a, 4), Some(4));
        assert_eq!(banded_edit_distance(&e, &a, 3), None);
        assert_eq!(banded_edit_distance(&e, &e, 0), Some(0));
    }

    #[test]
    fn band_rejects_distant_sequences() {
        let a = ds("AAAAAAAAAA");
        let b = ds("TTTTTTTTTT");
        assert_eq!(edit_distance(&a, &b), 10);
        assert_eq!(banded_edit_distance(&a, &b, 5), None);
    }

    #[test]
    fn length_difference_exceeding_band() {
        let a = ds("ACGT");
        let b = ds("ACGTACGTACGT");
        assert_eq!(banded_edit_distance(&a, &b, 3), None);
        assert_eq!(banded_edit_distance(&a, &b, 8), Some(8));
    }

    proptest! {
        #[test]
        fn prop_banded_agrees_with_full(
            a in proptest::collection::vec(0u8..4, 0..60),
            b in proptest::collection::vec(0u8..4, 0..60),
            band in 0usize..20
        ) {
            use crate::base::Base;
            let a = a.iter().map(|c| Base::from_code(*c)).collect::<DnaString>();
            let b = b.iter().map(|c| Base::from_code(*c)).collect::<DnaString>();
            let full = edit_distance(&a, &b);
            match banded_edit_distance(&a, &b, band) {
                Some(d) => prop_assert_eq!(d, full),
                None => prop_assert!(full > band),
            }
        }

        #[test]
        fn prop_metric_axioms(
            a in proptest::collection::vec(0u8..4, 0..40),
            b in proptest::collection::vec(0u8..4, 0..40)
        ) {
            use crate::base::Base;
            let a = a.iter().map(|c| Base::from_code(*c)).collect::<DnaString>();
            let b = b.iter().map(|c| Base::from_code(*c)).collect::<DnaString>();
            // Symmetry
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
            // Identity of indiscernibles
            prop_assert_eq!(edit_distance(&a, &b) == 0, a == b);
            // Bounded by max length
            prop_assert!(edit_distance(&a, &b) <= a.len().max(b.len()));
        }

        #[test]
        fn prop_substitution_upper_bound(
            v in proptest::collection::vec(0u8..4, 1..60),
            idx in 0usize..60,
            newcode in 0u8..4
        ) {
            use crate::base::Base;
            let bases: Vec<Base> = v.iter().map(|c| Base::from_code(*c)).collect();
            let a = DnaString::from_bases(&bases);
            let idx = idx % bases.len();
            let mut mutated = bases.clone();
            mutated[idx] = Base::from_code(newcode);
            let b = DnaString::from_bases(&mutated);
            let d = edit_distance(&a, &b);
            prop_assert!(d <= 1);
            prop_assert_eq!(d == 0, bases[idx] == Base::from_code(newcode));
        }
    }
}
