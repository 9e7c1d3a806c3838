//! The benchmark's contract: every metric it reports, with unit, direction
//! and (end to end) regression bound. `BENCHMARK.json` at the repository root
//! is generated from these tables (`--manifest`) and a unit test keeps the
//! two identical.

use crate::json::Json;
use crate::workload::WORKLOADS;

/// Seconds one driver run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the assembler sees, with the share of the parent's median
/// by which each may worsen before a change counts as a regression.
///
/// Three more user-facing quantities are deliberately not here. A bound is a
/// share of the parent's median and must hold across workload seeds:
/// `failed_share` and `misassemblies` are 0 on a healthy build, and `n50_bp`
/// — exact for one seed — jumps between discrete contig lengths from one
/// read sample to the next (8 % spread on `xl-*`, 20 % on `deep-cov`). All
/// three are gated instead (failed runs in the result line's `failed`
/// count; a misassembly or an N50 under the workload's floor fails the
/// run), printed by name in the whole-set table, compared exactly by `--aa`,
/// and listed as `gate.*` / `quality.*` in [`PER_LAYER`].
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("assemble_s", "s", "lower"), 0.24),
    (m("setup_s", "s", "lower"), 0.25),
    (m("peak_rss_mb", "MB", "lower"), 0.20),
    (m("genome_fraction_pct", "%", "higher"), 0.04),
];

/// Metrics of single layers (`layer.metric`; layers are the repository's
/// modules), taken from the traced runs and the probes. No bounds: they
/// explain a movement of an end-to-end metric, they do not gate.
pub const PER_LAYER: &[Metric] = &[
    // core::{workflow,pipeline}
    m("pipeline.run_s", "s", "lower"),
    m("pipeline.self_s", "s", "lower"),
    m("pipeline.attributed_share", "share", "higher"),
    // ppa_seq
    m("seq.read_s", "s", "lower"),
    m("seq.read_mbases_per_s", "Mbases/s", "higher"),
    m("seq.write_s", "s", "lower"),
    m("seq.scan_s", "s", "lower"),
    m("seq.scan_mkmers_per_s", "Mkmers/s", "higher"),
    // ops::construct + mapreduce
    m("construct.s", "s", "lower"),
    m("construct.share", "share", "lower"),
    m("construct.count_s", "s", "lower"),
    m("construct.build_s", "s", "lower"),
    m("construct.pairs_shuffled", "count", "lower"),
    m("construct.distinct_kmers", "count", "lower"),
    m("construct.kept_share", "share", "higher"),
    m("construct.mbases_per_s", "Mbases/s", "higher"),
    // ops::{label,label_sv}
    m("label.s", "s", "lower"),
    m("label.share", "share", "lower"),
    m("label.supersteps", "count", "lower"),
    m("label.messages", "count", "lower"),
    m("label.mmsgs_per_s", "Mmsgs/s", "higher"),
    m("label.frontier_density", "share", "lower"),
    m("label.dropped_msgs", "count", "lower"),
    // pregel::runner, probed through the labeling job
    m("runner.compute_s", "s", "lower"),
    m("runner.shuffle_s", "s", "lower"),
    m("runner.other_s", "s", "lower"),
    m("runner.pool_utilization", "share", "higher"),
    m("runner.superstep_p50_ms", "ms", "lower"),
    m("runner.superstep_max_ms", "ms", "lower"),
    // pregel::engine
    m("engine.busy_s", "s", "lower"),
    m("engine.utilization", "share", "higher"),
    m("engine.construct_utilization", "share", "higher"),
    m("engine.label_utilization", "share", "higher"),
    m("engine.merge_utilization", "share", "higher"),
    // ops::merge
    m("merge.s", "s", "lower"),
    m("merge.share", "share", "lower"),
    m("merge.mapreduce_s", "s", "lower"),
    m("merge.groups", "count", "lower"),
    m("merge.contigs", "count", "lower"),
    // ops::{bubble,tip} + the round-2 relabel/remerge
    m("correct.s", "s", "lower"),
    m("correct.bubbles_pruned", "count", "higher"),
    m("correct.tips_deleted", "count", "higher"),
    // pregel::radix
    m("radix.sort_s", "s", "lower"),
    m("radix.mkeys_per_s", "Mkeys/s", "higher"),
    // pregel::vertex_set
    m("vertex_set.peak_store_mb", "MB", "lower"),
    m("vertex_set.store_bytes_per_vertex", "B/vertex", "lower"),
    m("vertex_set.id_compression", "ratio", "lower"),
    m("vertex_set.build_s", "s", "lower"),
    // pregel::spill
    m("spill.written_mb", "MB", "lower"),
    m("spill.read_mb", "MB", "lower"),
    m("spill.runs", "count", "lower"),
    m("spill.write_amp", "ratio", "lower"),
    m("spill.store_cap_share", "share", "higher"),
    m("spill.slowdown", "ratio", "lower"),
    // the harness itself
    m("trace.overhead_pct", "%", "lower"),
    // the correctness gate, by name (see END_TO_END)
    m("gate.failed_share", "share", "lower"),
    m("quality.misassemblies", "count", "lower"),
    m("quality.n50_bp", "bp", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |metric: &Metric| {
        vec![
            ("name", Json::str(metric.name)),
            ("unit", Json::str(metric.unit)),
            ("better", Json::str(metric.better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(spec, bound)| {
                        let mut pairs = metric(spec);
                        pairs.push(("bound", Json::Num(*bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|spec| Json::obj(metric(spec)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&on_disk).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(metric, _)| metric.name)
            .chain(PER_LAYER.iter().map(|metric| metric.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in names {
            assert!(name.len() <= 64 && ok(name, "_.-"), "bad name {name}");
        }
        for spec in END_TO_END.iter().map(|(metric, _)| metric).chain(PER_LAYER) {
            assert!(
                spec.unit.len() <= 16 && ok(spec.unit, "_/%.-"),
                "bad unit {}",
                spec.unit
            );
            assert!(matches!(spec.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }
}
