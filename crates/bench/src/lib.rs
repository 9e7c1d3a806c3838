//! Shared harness utilities for regenerating the paper's tables and figures.
//!
//! Every binary in `src/bin/` corresponds to one table, figure or ablation of
//! the paper's evaluation; this library holds the pieces they share:
//! command-line parsing, dataset generation at a chosen scale, and
//! fixed-width table printing.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use ppa_readsim::{preset_by_name, DatasetPreset, SimulatedDataset};
use std::collections::HashMap;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset preset name (`sim-hc2`, `sim-hcx`, `sim-hc14`, `sim-bi`).
    pub dataset: String,
    /// Scale factor applied to the preset's reference length (default 0.1 so
    /// every harness finishes in minutes on a laptop; use 1.0 for the full
    /// presets).
    pub scale: f64,
    /// Worker counts to sweep (defaults depend on the harness).
    pub workers: Vec<usize>,
    /// k-mer size.
    pub k: usize,
    /// Additional free-form flags.
    pub extra: HashMap<String, String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            dataset: "sim-hc2".to_string(),
            scale: 0.1,
            workers: vec![1, 2, 4, 8],
            k: 25,
            extra: HashMap::new(),
        }
    }
}

impl HarnessArgs {
    /// Parses `--key value` style arguments from `std::env::args`.
    pub fn parse() -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let key = flag.trim_start_matches('-').to_string();
            let value = iter.next().unwrap_or_default();
            match key.as_str() {
                "dataset" => args.dataset = value,
                "scale" => args.scale = value.parse().expect("--scale takes a number"),
                "k" => args.k = value.parse().expect("--k takes an integer"),
                "workers" => {
                    args.workers = value
                        .split(',')
                        .map(|w| w.trim().parse().expect("--workers takes a,b,c"))
                        .collect()
                }
                _ => {
                    args.extra.insert(key, value);
                }
            }
        }
        args
    }

    /// Resolves and generates the requested dataset at the requested scale.
    pub fn generate_dataset(&self) -> SimulatedDataset {
        self.preset().generate()
    }

    /// The scaled preset.
    pub fn preset(&self) -> DatasetPreset {
        preset_by_name(&self.dataset)
            .unwrap_or_else(|| panic!("unknown dataset {:?}", self.dataset))
            .scaled(self.scale)
    }
}

/// Prints a fixed-width table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
                + 2
        })
        .collect();
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        line.push_str(&format!("{h:>w$}", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let mut line = String::new();
        for (c, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{c:>w$}", w = w));
        }
        println!("{line}");
    }
}

/// Formats a `Duration` as seconds with millisecond precision.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_resolve_a_dataset() {
        let args = HarnessArgs::default();
        let preset = args.preset();
        assert_eq!(preset.name, "sim-hc2");
        assert_eq!(preset.genome.length, 20_000); // 200 kb × 0.1
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let args = HarnessArgs {
            dataset: "nope".into(),
            ..Default::default()
        };
        args.preset();
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
