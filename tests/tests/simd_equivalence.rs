//! SIMD-dispatch equivalence pin: the vectorized kernel layer must be
//! observationally invisible. A full assembly run under the default
//! runtime-dispatched kernels and under forced-scalar kernels must produce
//! byte-identical contig sets and identical assembly statistics.
//!
//! (Per-kernel SIMD == scalar equivalence across widths, alignments, and
//! tails is pinned by property tests inside `ppa_pregel::kernels` and
//! `ppa_seq`; this test covers the cross-crate composition on a real
//! error-heavy workload.)

use ppa_assembler::{assemble, AssemblyConfig};
use ppa_readsim::preset_by_name;

/// Forces the portable scalar twins of `ppa_pregel::kernels` and
/// `ppa_seq::kernels` while alive and releases both on drop, also when the
/// holding test panics.
struct Forced;

impl Forced {
    fn engage() -> Forced {
        ppa_pregel::kernels::force_scalar_kernels(true);
        ppa_seq::kernels::force_scalar_kernels(true);
        Forced
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        ppa_pregel::kernels::force_scalar_kernels(false);
        ppa_seq::kernels::force_scalar_kernels(false);
    }
}

fn contig_fingerprint(workers: usize) -> (Vec<String>, usize, usize) {
    let dataset = preset_by_name("sim-hc2").unwrap().scaled(0.1).generate();
    let config = AssemblyConfig {
        k: 25,
        min_kmer_coverage: 1,
        workers,
        ..Default::default()
    };
    let assembly = assemble(&dataset.reads, &config);
    let mut contigs: Vec<String> = assembly
        .contigs
        .iter()
        .map(|c| c.sequence.to_ascii())
        .collect();
    contigs.sort();
    let largest = assembly.largest_contig();
    (contigs, assembly.contigs.len(), largest)
}

#[test]
fn forced_scalar_matches_dispatched_assembly() {
    for workers in [1, 4] {
        let dispatched = contig_fingerprint(workers);
        let scalar = {
            let _forced = Forced::engage();
            contig_fingerprint(workers)
        };
        assert_eq!(
            dispatched, scalar,
            "forced-scalar kernels diverged (workers={workers})"
        );
    }
}
