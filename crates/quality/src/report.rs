//! The combined quality report, printable in the shape of the paper's quality
//! tables (Tables IV and V).

use crate::align::{align_contigs, AlignmentConfig, ReferenceMetrics};
use crate::basic::{basic_stats, BasicStats};
use ppa_seq::DnaString;

/// A QUAST-style quality report for one assembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuastReport {
    /// Name of the assembler that produced the assembly.
    pub assembler: String,
    /// Reference-free statistics.
    pub basic: BasicStats,
    /// Reference-based statistics, when a reference was supplied.
    pub reference: Option<ReferenceMetrics>,
}

impl QuastReport {
    /// Evaluates an assembly, optionally against a reference sequence.
    pub fn evaluate(
        assembler: impl Into<String>,
        contigs: &[DnaString],
        reference: Option<&DnaString>,
        min_contig_length: usize,
    ) -> QuastReport {
        QuastReport {
            assembler: assembler.into(),
            basic: basic_stats(contigs, min_contig_length),
            reference: reference.map(|r| align_contigs(contigs, r, &AlignmentConfig::default())),
        }
    }

    /// The metric rows of this report as `(name, value)` pairs, in the order
    /// the paper's Table IV lists them. Reference-based rows are omitted when
    /// no reference was supplied (as in Table V).
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = vec![
            (
                "# of contigs".to_string(),
                self.basic.num_contigs.to_string(),
            ),
            (
                "Total length".to_string(),
                self.basic.total_length.to_string(),
            ),
            ("N50".to_string(), self.basic.n50.to_string()),
            (
                "Largest contig".to_string(),
                self.basic.largest_contig.to_string(),
            ),
            (
                "GC (%)".to_string(),
                format!("{:.2}", self.basic.gc_percent),
            ),
        ];
        if let Some(r) = &self.reference {
            rows.extend([
                ("# Misassemblies".to_string(), r.misassemblies.to_string()),
                (
                    "Misassembled length".to_string(),
                    r.misassembled_length.to_string(),
                ),
                (
                    "Unaligned length".to_string(),
                    r.unaligned_length.to_string(),
                ),
                (
                    "Genome fraction (%)".to_string(),
                    format!("{:.3}", r.genome_fraction_percent),
                ),
                (
                    "# Mismatches per 100 kbp".to_string(),
                    format!("{:.2}", r.mismatches_per_100kbp),
                ),
                (
                    "# Indels per 100 kbp".to_string(),
                    format!("{:.2}", r.indels_per_100kbp),
                ),
                (
                    "Largest alignment".to_string(),
                    r.largest_alignment.to_string(),
                ),
            ]);
        }
        rows
    }
}

/// Formats several reports side by side (one column per assembler), matching
/// the layout of the paper's quality comparison tables.
pub fn format_comparison(reports: &[QuastReport]) -> String {
    if reports.is_empty() {
        return String::new();
    }
    let metric_names: Vec<String> = reports[0].rows().into_iter().map(|(n, _)| n).collect();
    let mut out = String::new();
    out.push_str(&format!("{:<28}", "Assembler"));
    for r in reports {
        out.push_str(&format!("{:>16}", r.assembler));
    }
    out.push('\n');
    for (i, name) in metric_names.iter().enumerate() {
        out.push_str(&format!("{name:<28}"));
        for r in reports {
            let rows = r.rows();
            let value = rows.get(i).map(|(_, v)| v.clone()).unwrap_or_default();
            out.push_str(&format!("{value:>16}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_readsim::GenomeConfig;

    #[test]
    fn report_with_and_without_reference() {
        let reference = GenomeConfig {
            length: 3_000,
            repeat_families: 0,
            ..Default::default()
        }
        .generate()
        .sequence;
        let contigs = vec![
            reference.substring(0, 1_500),
            reference.substring(1_600, 1_200),
        ];
        let with_ref = QuastReport::evaluate("PPA", &contigs, Some(&reference), 500);
        assert_eq!(with_ref.basic.num_contigs, 2);
        assert!(with_ref.reference.is_some());
        assert_eq!(with_ref.rows().len(), 12);

        let without = QuastReport::evaluate("PPA", &contigs, None, 500);
        assert!(without.reference.is_none());
        assert_eq!(
            without.rows().len(),
            5,
            "Table V only reports reference-free rows"
        );
    }

    #[test]
    fn comparison_table_lists_all_assemblers() {
        let reference = GenomeConfig {
            length: 2_000,
            repeat_families: 0,
            ..Default::default()
        }
        .generate()
        .sequence;
        let a = QuastReport::evaluate("PPA", &[reference.substring(0, 1_800)], Some(&reference), 0);
        let b = QuastReport::evaluate(
            "AbyssLike",
            &[reference.substring(0, 900)],
            Some(&reference),
            0,
        );
        let table = format_comparison(&[a, b]);
        assert!(table.contains("PPA"));
        assert!(table.contains("AbyssLike"));
        assert!(table.contains("N50"));
        assert!(table.contains("Genome fraction"));
        assert!(table.lines().count() >= 12);
        assert!(format_comparison(&[]).is_empty());
    }
}
