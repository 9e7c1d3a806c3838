//! The paper's qualitative claims that `ppa reproduce` prints and that hold
//! on the simulated presets at `--scale` 0.01, 0.02 and 0.05, asserted at
//! 0.02. Claims that do not hold at every one of those scales (Table III's
//! messages, Table IV's genome fraction, Fig. 12's timings, a round-2 N50
//! gain) are printed but not asserted.

use ppa::reproduce::{datasets, labeling, quality};

#[test]
fn lr_beats_sv_ppa_has_the_best_n50_and_round_two_never_hurts() {
    let workers = 2;
    let datasets = datasets(0.02);
    for dataset in &datasets {
        let name = &dataset.preset.name;
        let run = labeling(dataset, workers).expect("the paper workflow runs");
        // Table II: list ranking labels in fewer supersteps and messages.
        let (lr, sv) = (&run.lr.label_round1, &run.sv.label_round1);
        assert!(lr.supersteps < sv.supersteps, "{name}: {lr:?} vs {sv:?}");
        assert!(lr.messages < sv.messages, "{name}: {lr:?} vs {sv:?}");
        // The round-2 ablation (sim-hc2): merging again after error
        // correction neither lowers N50 nor adds nodes.
        if name == "sim-hc2" {
            let stats = &run.lr;
            assert!(stats.n50_final >= stats.n50_after_round1, "{stats:?}");
            let nodes = &stats.node_counts;
            assert!(
                nodes.after_final_merge <= nodes.after_first_merge,
                "{nodes:?}"
            );
        }
    }
    // Table V (sim-hc14): PPA-assembler's N50 is at least every baseline's.
    let hc14 = datasets
        .iter()
        .find(|d| d.preset.name == "sim-hc14")
        .expect("sim-hc14");
    let reports = quality(hc14, workers);
    let (ppa, baselines) = reports.split_first().expect("PPA-assembler first");
    assert_eq!(ppa.assembler, "PPA-assembler");
    for baseline in baselines {
        assert!(
            ppa.basic.n50 >= baseline.basic.n50,
            "{ppa:?} vs {baseline:?}"
        );
    }
}
