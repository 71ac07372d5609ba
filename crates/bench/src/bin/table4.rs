//! Regenerates the paper's **Table 4**: SiliconCompiler script generation —
//! iterations needed to reach syntactic (`syn.`) and functional (`func.`)
//! correctness under pass@10, for the five task levels and five models.
//!
//! Usage: `cargo run --release -p dda-bench --bin table4
//! [--quick] [--workers N] [--resume PATH]`
//!
//! Each per-model sweep runs on the supervised runtime engine:
//! `--workers` fans it over N threads and `--resume` journals it (see
//! `dda_bench::RunFlags`); rows are identical either way. A task the
//! engine quarantines renders as a miss (`>10`).

use dda_bench::{log_summary, RunFlags};
use dda_benchmarks::sc_suite;
use dda_eval::report::TextTable;
use dda_eval::{eval_script_suite, ModelId, Row, ScriptCell, ScriptProtocol};

fn main() {
    let flags = RunFlags::from_args();
    flags.init_obs();
    let zoo = flags.zoo();
    let protocol = ScriptProtocol::default();
    let tasks = sc_suite();
    let ids: Vec<_> = tasks.iter().map(|t| t.level.label()).collect();
    // Table 4's model columns.
    let models = [
        ModelId::Gpt35,
        ModelId::Thakur,
        ModelId::Ours7B,
        ModelId::Llama2Pt,
        ModelId::Ours13B,
    ];

    println!("Table 4: Evaluation for SiliconCompiler script generation (pass@10)");
    println!("syn = iterations to first syntactically valid script; func = iterations to first functionally correct script.\n");

    let mut header = vec!["benchmark".to_owned()];
    for m in models {
        header.push(format!("{m} syn."));
        header.push(format!("{m} func."));
    }
    let mut table = TextTable::new(header);

    let mut per_model = Vec::new();
    for m in models {
        eprintln!("[table4] evaluating {m}...");
        let label = format!("table4-{m}");
        let sweep = flags.sweep(&label, &(&protocol, &ids));
        let (rows, summary) =
            eval_script_suite(zoo.model(m), &tasks, &protocol, &sweep).expect("sweep journal I/O");
        log_summary(&label, &summary);
        per_model.push(rows);
    }

    // A quarantined task renders as a miss on both columns.
    let miss = ScriptCell {
        syn_iter: None,
        func_iter: None,
    };
    for (ti, t) in tasks.iter().enumerate() {
        let mut row = vec![t.level.label().to_owned()];
        for rows in &per_model {
            let cell = rows[ti].result.as_ref().unwrap_or(&miss);
            row.push(ScriptCell::fmt_iter(cell.syn_iter, protocol.max_iters));
            row.push(ScriptCell::fmt_iter(cell.func_iter, protocol.max_iters));
        }
        table.row(row);
    }
    println!("{}", table.render());

    // Shape check: Ours models succeed in ~1 iteration; baselines mostly >10.
    let first_try = |rows: &[Row<ScriptCell>]| {
        rows.iter()
            .filter(|r| {
                r.result
                    .as_ref()
                    .is_ok_and(|c| c.func_iter.is_some_and(|i| i <= 2))
            })
            .count()
    };
    println!("Paper shape check (Ours solve all 5 levels in 1-2 tries; baselines mostly miss):");
    // `models` column order.
    for (mi, name) in [
        (2, "Ours-7B"),
        (4, "Ours-13B"),
        (0, "GPT-3.5"),
        (1, "Thakur"),
    ] {
        let solved = first_try(&per_model[mi]);
        println!("  {name} levels solved in <=2 tries: {solved}/5");
    }
    flags.finish_obs();
}
