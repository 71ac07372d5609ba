//! Regenerates the paper's **Table 2**: dataset scale through the data
//! augmentation framework — per-task entry counts and byte sizes.
//!
//! Scale note: the paper augments a GitHub-scale scrape into 3.7M
//! word-level entries; this regeneration augments the synthetic corpus
//! (configurable with `--modules N`) and reports the same rows. The
//! *proportions* between task kinds are the comparable quantity.
//!
//! Usage: `cargo run --release -p dda-bench --bin table2
//! [--modules N] [--workers N] [--resume PATH]`
//!
//! `--workers`/`--resume` route the augmentation through the supervised
//! runtime engine (parallel workers, write-ahead journal, resume); the
//! default path keeps the original sequential `augment`, byte-identical
//! to previous releases.

use dda_bench::{log_summary, RunFlags};
use dda_core::completion::CompletionOptions;
use dda_core::pipeline::{augment, PipelineOptions};
use dda_core::supervised::augment_supervised;
use dda_eval::report::{count_label, size_label, TextTable};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let flags = RunFlags::from_args();
    flags.init_obs();
    let modules = flags.modules.unwrap_or(256);
    let mut rng = SmallRng::seed_from_u64(2024);
    let corpus = dda_corpus::generate_corpus(modules, &mut rng);
    let stats = dda_corpus::stats(&corpus);
    eprintln!(
        "[table2] corpus: {} modules, {} lines, {} bytes",
        stats.modules, stats.lines, stats.bytes
    );
    let opts = PipelineOptions {
        // Uncapped completion matches the paper's 1 + j + i accounting.
        completion: CompletionOptions::default(),
        ..PipelineOptions::default()
    };
    let (ds, report) = if flags.supervised() {
        let (ds, report, summary) = augment_supervised(
            &corpus,
            &opts,
            &flags.augment("table2", &(modules, &opts), 2025),
        )
        .expect("augmentation journal I/O");
        log_summary("table2", &summary);
        (ds, report)
    } else {
        let mut rng2 = SmallRng::seed_from_u64(2025);
        augment(&corpus, &opts, &mut rng2)
    };
    assert!(report.is_conserved() && report.quarantines.is_empty());

    println!("Table 2: Dataset Scale through Data Augmentation Framework");
    println!("(source corpus: {modules} synthetic modules; paper used a GitHub-scale scrape)\n");
    let mut table = TextTable::new(["Task", "Output Data Size", "Output Data Number"]);
    for (kind, count, bytes) in ds.table2_rows() {
        table.row([
            kind.label().to_owned(),
            size_label(bytes),
            count_label(count),
        ]);
    }
    println!("{}", table.render());

    // Shape check: word-level completion dominates, EDA scripts are ~200.
    let rows = ds.table2_rows();
    let word = rows
        .iter()
        .find(|(k, _, _)| k.label().contains("Word-Level"))
        .map(|(_, c, _)| *c)
        .unwrap_or(0);
    let eda = rows
        .iter()
        .find(|(k, _, _)| k.label().contains("EDA"))
        .map(|(_, c, _)| *c)
        .unwrap_or(0);
    let max_other = rows
        .iter()
        .filter(|(k, _, _)| !k.label().contains("Word-Level"))
        .map(|(_, c, _)| *c)
        .max()
        .unwrap_or(0);
    println!("Paper shape check:");
    println!(
        "  word-level completion dominates ({word} >= {max_other}): {}",
        word >= max_other
    );
    println!("  EDA script entries = {eda} (paper: 200)");
    flags.finish_obs();
}
