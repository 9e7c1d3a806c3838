//! Ablation for the in-memory job-chaining extension (Section II): how much
//! does it cost to push the DBG through a serialised round-trip between the
//! construction job and the labeling job, as vanilla Pregel systems must do
//! via HDFS?
//!
//! Usage: `cargo run -p ppa-bench --release --bin ablation_chaining -- --dataset sim-hc2 --scale 0.1`

use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::label_contigs_lr_on;
use ppa_bench::{print_table, secs, HarnessArgs};
use ppa_pregel::spill::{
    decode_spill_stream, encode_spill_bytes, read_spill_file, write_spill_file, SpillError,
};
use ppa_pregel::{ExecCtx, SpillCodec};
use std::time::Instant;

/// Spill codec for the compact k-mer vertex: ID plus bitmap plus coverages.
struct SpillVertex {
    id: u64,
    bitmap: u32,
    coverages: Vec<u32>,
}

impl SpillCodec for SpillVertex {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.bitmap.encode(buf);
        (self.coverages.len() as u32).encode(buf);
        for c in &self.coverages {
            c.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let id = u64::decode(buf)?;
        let bitmap = u32::decode(buf)?;
        let n = u32::decode(buf)? as usize;
        let mut coverages = Vec::with_capacity(n);
        for _ in 0..n {
            coverages.push(u32::decode(buf)?);
        }
        Some(SpillVertex {
            id,
            bitmap,
            coverages,
        })
    }
}

/// Serialises `items` in the engine's spill format and parses them back —
/// through a temporary file with `to_disk`, else in memory — returning the
/// items read back and the bytes written.
fn spill_roundtrip<T: SpillCodec>(
    items: Vec<T>,
    to_disk: bool,
) -> Result<(Vec<T>, u64), SpillError> {
    if to_disk {
        let path =
            std::env::temp_dir().join(format!("ppa-ablation-chaining-{}.bin", std::process::id()));
        let bytes = write_spill_file(&path, &items)?;
        drop(items);
        let back = read_spill_file(&path);
        let _ = std::fs::remove_file(&path);
        Ok((back?, bytes))
    } else {
        let buf = encode_spill_bytes(&items);
        drop(items);
        Ok((
            decode_spill_stream(buf.as_slice(), "<memory>")?,
            buf.len() as u64,
        ))
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let dataset = args.generate_dataset();
    let ctx = ExecCtx::new(args.workers.last().copied().unwrap_or(4));
    let construct = build_dbg_on(
        &ctx,
        &dataset.reads,
        &ConstructConfig {
            k: args.k,
            min_coverage: 1,
            batch_size: 1024,
        },
    );

    // In-memory hand-off (the PPA-assembler extension).
    let start = Instant::now();
    let nodes = construct.to_nodes();
    let in_memory_convert = start.elapsed();
    let label_start = Instant::now();
    let _ = label_contigs_lr_on(&ctx, &nodes);
    let label_elapsed = label_start.elapsed();

    // Emulated HDFS round-trip: serialise the vertices, parse them back, then
    // convert. The temp-file row additionally writes the bytes to disk.
    let mut rows = Vec::new();
    rows.push(vec![
        "in-memory convert (paper's extension)".into(),
        secs(in_memory_convert),
        "-".into(),
    ]);
    for (label, to_disk) in [("spill to bytes", false), ("spill to temp file", true)] {
        let spill_items: Vec<SpillVertex> = construct
            .vertices
            .iter()
            .map(|v| SpillVertex {
                id: v.id(),
                bitmap: v.bitmap(),
                coverages: v.coverages().to_vec(),
            })
            .collect();
        let records = spill_items.len();
        let start = Instant::now();
        let (back, bytes) =
            spill_roundtrip(spill_items, to_disk).expect("spill round-trip must succeed");
        let roundtrip = start.elapsed();
        assert_eq!(back.len(), construct.vertices.len());
        rows.push(vec![
            format!("{label} ({records} records, {bytes} bytes)"),
            secs(roundtrip + in_memory_convert),
            secs(roundtrip),
        ]);
    }
    print_table(
        &format!(
            "Job-chaining ablation on {} ({} k-mer vertices); labeling itself takes {}s",
            dataset.preset.name,
            construct.vertices.len(),
            secs(label_elapsed)
        ),
        &[
            "hand-off mode",
            "total hand-off time (s)",
            "round-trip overhead (s)",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: the serialised round-trip adds overhead proportional to the DBG size,\n\
         which the in-memory convert() extension avoids entirely."
    );
}
