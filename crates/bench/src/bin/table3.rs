//! Regenerates the paper's **Table 3**: Verilog repair on the 29 RTLLM
//! designs under pass@5, for Ours-13B, Ours-7B, GPT-3.5, and pretrained
//! Llama2-13B.
//!
//! Usage: `cargo run --release -p dda-bench --bin table3
//! [--quick] [--workers N] [--resume PATH]
//! [--eval-mode ast|bytecode] [--rag-k K]`
//!
//! `--workers`/`--resume` run each per-model sweep on the supervised
//! runtime engine (parallel workers plus a per-sweep write-ahead
//! journal); supervised rows are identical to the sequential ones.
//! `--eval-mode` picks the simulator engine for testbench scoring; both
//! engines produce identical verdicts (only wall-clock differs).
//!
//! `--rag-k K` appends a RAG-vs-no-RAG ablation: each model is re-run
//! with the K nearest corpus modules (sharded retrieval over a generated
//! corpus, the daemon's `retrieve` layout) injected as few-shot context,
//! and per-model pass@5 success deltas are printed. Without the flag the
//! output is byte-identical to the retrieval-free table.

use dda_bench::{log_summary, zoo_from_args, RunFlags};
use dda_benchmarks::rtllm_suite;
use dda_eval::eval_repair_suite_supervised;
use dda_eval::rag::RagIndex;
use dda_eval::repair_eval::{
    eval_repair_suite, eval_repair_suite_rag, repair_success_rate, RepairProtocol,
};
use dda_eval::report::{pct, pct_short, TextTable};
use dda_eval::ModelId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Generated corpus modules behind the `--rag-k` retrieval index (seeded
/// like the serving daemon's resident index).
const RAG_CORPUS_MODULES: usize = 64;

fn rag_k_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--rag-k")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let flags = RunFlags::from_args();
    flags.init_obs();
    let zoo = zoo_from_args();
    let protocol = RepairProtocol {
        eval_mode: flags.eval_mode,
        ..RepairProtocol::default()
    };
    let suite = rtllm_suite();
    // Table 3's model columns.
    let models = [
        ModelId::Ours13B,
        ModelId::Ours7B,
        ModelId::Gpt35,
        ModelId::Llama2Pt,
    ];

    println!("Table 3: Evaluation for Verilog repair (RTLLM, pass@5)");
    println!("syntax = number of generated files with syntax errors (of 5); function = testbench pass rate of the best repair.\n");

    let mut header = vec!["Benchmark".to_owned()];
    for m in models {
        header.push(format!("{m} syntax"));
        header.push(format!("{m} function"));
    }
    let mut table = TextTable::new(header);

    let mut per_model = Vec::new();
    for m in models {
        eprintln!("[table3] evaluating {m}...");
        if flags.supervised() {
            let label = format!("table3-{m}");
            let (rows, summary) =
                eval_repair_suite_supervised(zoo.model(m), &suite, &protocol, &flags.sweep(&label))
                    .expect("sweep journal I/O");
            log_summary(&label, &summary);
            per_model.push(rows);
        } else {
            per_model.push(eval_repair_suite(zoo.model(m), &suite, &protocol));
        }
    }

    for (pi, p) in suite.iter().enumerate() {
        let mut row = vec![p.id.to_owned()];
        for rows in &per_model {
            let (_, cell) = rows[pi];
            row.push(cell.syntax_errors.to_string());
            row.push(pct_short(cell.best_function));
        }
        table.row(row);
    }
    let mut srow = vec!["success rate".to_owned()];
    for rows in &per_model {
        srow.push(String::new());
        srow.push(pct(repair_success_rate(rows)));
    }
    table.row(srow);
    println!("{}", table.render());

    let rates: Vec<f64> = per_model.iter().map(|r| repair_success_rate(r)).collect();
    println!("Paper shape check (Table 3 success rates 72.4% / 51.7% / 34.5% / 10.3%):");
    println!(
        "  Ours-13B ({}) > Ours-7B ({}): {}",
        pct(rates[0]),
        pct(rates[1]),
        rates[0] > rates[1]
    );
    println!(
        "  Ours-13B ({}) > GPT-3.5 ({}): {}",
        pct(rates[0]),
        pct(rates[2]),
        rates[0] > rates[2]
    );
    println!(
        "  GPT-3.5 ({}) > Llama2-PT ({}): {}",
        pct(rates[2]),
        pct(rates[3]),
        rates[2] > rates[3]
    );

    if let Some(rag_k) = rag_k_from_args() {
        let mut rng = SmallRng::seed_from_u64(4242);
        let rag = RagIndex::build(dda_corpus::generate_corpus(RAG_CORPUS_MODULES, &mut rng));
        println!(
            "\nRAG ablation: k={rag_k} nearest of {} corpus modules as few-shot context",
            rag.len()
        );
        let mut rag_table = TextTable::new(vec![
            "Model".to_owned(),
            "success (no RAG)".to_owned(),
            "success (RAG)".to_owned(),
            "delta".to_owned(),
            "cells improved".to_owned(),
        ]);
        for (mi, m) in models.iter().enumerate() {
            eprintln!("[table3] evaluating {m} with RAG k={rag_k}...");
            let rag_rows = eval_repair_suite_rag(zoo.model(*m), &suite, &protocol, &rag, rag_k);
            let plain_rate = rates[mi];
            let rag_rate = repair_success_rate(&rag_rows);
            let improved = rag_rows
                .iter()
                .zip(&per_model[mi])
                .filter(|((_, r), (_, p))| {
                    r.best_function > p.best_function + 1e-12 || r.syntax_errors < p.syntax_errors
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
