//! SIMD-dispatch equivalence pins: the vectorized kernel layer must be
//! observationally invisible. A full assembly run under the default
//! runtime-dispatched kernels, under forced-scalar kernels, and under
//! plain (uncompressed) sorted-ID columns must produce byte-identical
//! contig sets and identical assembly statistics.
//!
//! (Per-kernel SIMD == scalar equivalence across widths, alignments, and
//! tails is pinned by property tests inside `ppa_pregel::kernels` and
//! `ppa_seq`; this test covers the cross-crate composition on a real
//! error-heavy workload, including the sidecar/compaction path.)

use ppa_assembler::{assemble, AssemblyConfig};
use ppa_readsim::preset_by_name;

/// Forces the process-global kernel switches while alive and releases all of
/// them on drop, also when the holding test panics: `scalar` forces the portable
/// twins of `ppa_pregel::kernels` and `ppa_seq::kernels` together, `plain`
/// keeps newly built sorted-ID columns uncompressed.
struct Forced;

impl Forced {
    fn engage(scalar: bool, plain: bool) -> Forced {
        ppa_pregel::kernels::force_scalar_kernels(scalar);
        ppa_seq::kernels::force_scalar_kernels(scalar);
        ppa_pregel::kernels::force_plain_id_columns(plain);
        Forced
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        ppa_pregel::kernels::force_scalar_kernels(false);
        ppa_seq::kernels::force_scalar_kernels(false);
        ppa_pregel::kernels::force_plain_id_columns(false);
    }
}

/// [`contig_fingerprint`] with the given switches forced.
fn forced_fingerprint(workers: usize, scalar: bool, plain: bool) -> (Vec<String>, usize, usize) {
    let _forced = Forced::engage(scalar, plain);
    contig_fingerprint(workers)
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
fn forced_scalar_and_plain_columns_match_dispatched_assembly() {
    for workers in [1, 4] {
        let dispatched = contig_fingerprint(workers);
        let scalar = forced_fingerprint(workers, true, false);
        let plain = forced_fingerprint(workers, false, true);
        let scalar_plain = forced_fingerprint(workers, true, true);
        assert_eq!(
            dispatched, scalar,
            "forced-scalar kernels diverged (workers={workers})"
        );
        assert_eq!(
            dispatched, plain,
            "plain ID columns diverged (workers={workers})"
        );
        assert_eq!(
            dispatched, scalar_plain,
            "scalar + plain columns diverged (workers={workers})"
        );
    }
}
