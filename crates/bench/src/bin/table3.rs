//! Regenerates the paper's **Table 3**: Verilog repair on the 29 RTLLM
//! designs under pass@5, for Ours-13B, Ours-7B, GPT-3.5, and pretrained
//! Llama2-13B.
//!
//! Usage: `cargo run --release -p dda-bench --bin table3
//! [--quick] [--workers N] [--resume PATH] [--rag-k K]`
//!
//! Each per-model sweep runs on the supervised runtime engine:
//! `--workers` fans it over N threads and `--resume` journals it (see
//! `dda_bench::RunFlags`); rows are identical either way. A problem the
//! engine quarantines renders as a miss (`-` syntax, `0%` function).
//!
//! `--rag-k K` appends a RAG-vs-no-RAG ablation: each model is re-run
//! with the K nearest corpus modules (sharded retrieval over a generated
//! corpus, the daemon's `retrieve` layout) injected as few-shot context,
//! and per-model pass@5 success deltas are printed. The RAG sweeps honour
//! `--workers` and `--resume` under their own journal labels. Without the
//! flag the output is byte-identical to the retrieval-free table.

use dda_bench::{log_summary, RunFlags};
use dda_benchmarks::rtllm_suite;
use dda_eval::rag::RagIndex;
use dda_eval::report::{pct, pct_short, TextTable};
use dda_eval::{eval_repair_suite, success_rate, ModelId, RepairCell, RepairProtocol, Row};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Generated corpus modules behind the `--rag-k` retrieval index (seeded
/// like the serving daemon's resident index).
const RAG_CORPUS_MODULES: usize = 64;

/// Seed of the `--rag-k` retrieval corpus.
const RAG_CORPUS_SEED: u64 = 4242;

fn main() {
    let flags = RunFlags::from_args();
    flags.init_obs();
    let zoo = flags.zoo();
    let protocol = RepairProtocol::default();
    let suite = rtllm_suite();
    let ids: Vec<_> = suite.iter().map(|p| p.id).collect();
    // Table 3's model columns.
    let models = [
        ModelId::Ours13B,
        ModelId::Ours7B,
        ModelId::Gpt35,
        ModelId::Llama2Pt,
    ];
    let sweep = |m: ModelId, rag: Option<(&RagIndex, usize)>| {
        let label = match rag {
            None => format!("table3-{m}"),
            Some(_) => format!("table3-rag-{m}"),
        };
        let rag_key = rag.map(|(_, k)| (k, RAG_CORPUS_MODULES, RAG_CORPUS_SEED));
        let key = (&protocol, &ids, rag_key);
        let (rows, summary) = eval_repair_suite(
            zoo.model(m),
            &suite,
            &protocol,
            rag,
            &flags.sweep(&label, &key),
        )
        .expect("sweep journal I/O");
        log_summary(&label, &summary);
        rows
    };

    println!("Table 3: Evaluation for Verilog repair (RTLLM, pass@5)");
    println!("syntax = number of generated files with syntax errors (of 5); function = testbench pass rate of the best repair.\n");

    let mut header = vec!["Benchmark".to_owned()];
    for m in models {
        header.push(format!("{m} syntax"));
        header.push(format!("{m} function"));
    }
    let mut table = TextTable::new(header);

    let per_model: Vec<Vec<Row<RepairCell>>> = models
        .iter()
        .map(|&m| {
            eprintln!("[table3] evaluating {m}...");
            sweep(m, None)
        })
        .collect();

    for (pi, p) in suite.iter().enumerate() {
        let mut row = vec![p.id.to_owned()];
        for rows in &per_model {
            match &rows[pi].result {
                Ok(cell) => {
                    row.push(cell.syntax_errors.to_string());
                    row.push(pct_short(cell.best_function));
                }
                Err(_) => row.extend(["-".to_owned(), pct_short(0.0)]),
            }
        }
        table.row(row);
    }
    let rates: Vec<f64> = per_model.iter().map(|r| success_rate(r)).collect();
    let mut srow = vec!["success rate".to_owned()];
    for rate in &rates {
        srow.extend([String::new(), pct(*rate)]);
    }
    table.row(srow);
    println!("{}", table.render());

    println!("Paper shape check (Table 3 success rates 72.4% / 51.7% / 34.5% / 10.3%):");
    // `models` column order.
    for (a, b, a_name, b_name) in [
        (0, 1, "Ours-13B", "Ours-7B"),
        (0, 2, "Ours-13B", "GPT-3.5"),
        (2, 3, "GPT-3.5", "Llama2-PT"),
    ] {
        let (ra, rb) = (rates[a], rates[b]);
        println!(
            "  {a_name} ({}) > {b_name} ({}): {}",
            pct(ra),
            pct(rb),
            ra > rb
        );
    }

    if let Some(rag_k) = flags.rag_k {
        let mut rng = SmallRng::seed_from_u64(RAG_CORPUS_SEED);
        let rag = RagIndex::build(dda_corpus::generate_corpus(RAG_CORPUS_MODULES, &mut rng));
        println!(
            "\nRAG ablation: k={rag_k} nearest of {} corpus modules as few-shot context",
            rag.len()
        );
        let mut rag_table = TextTable::new([
            "Model",
            "success (no RAG)",
            "success (RAG)",
            "delta",
            "cells improved",
        ]);
        for (mi, m) in models.iter().enumerate() {
            eprintln!("[table3] evaluating {m} with RAG k={rag_k}...");
            let rag_rows = sweep(*m, Some((&rag, rag_k)));
            let plain_rate = rates[mi];
            let rag_rate = success_rate(&rag_rows);
            let improved = rag_rows
                .iter()
                .zip(&per_model[mi])
                .filter(|(r, p)| match (&r.result, &p.result) {
                    (Ok(r), Ok(p)) => {
                        r.best_function > p.best_function + 1e-12
                            || r.syntax_errors < p.syntax_errors
                    }
                    _ => false,
                })
                .count();
            rag_table.row(vec![
                m.to_string(),
                pct(plain_rate),
                pct(rag_rate),
                format!("{:+.1} pp", (rag_rate - plain_rate) * 100.0),
                format!("{improved}/{}", suite.len()),
            ]);
        }
        println!("{}", rag_table.render());
    }
    flags.finish_obs();
}
