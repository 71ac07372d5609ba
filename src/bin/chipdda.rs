//! `chipdda` — command-line front door to the framework.
//!
//! ```text
//! chipdda lint <file.v>                 # yosys-style check
//! chipdda sim <file.v> [--top tb]       # run a testbench, print $display output
//! chipdda describe <file.v>             # program-analysis NL (Fig. 5 rules)
//! chipdda break <file.v> [--max N]      # inject repair-training faults (§3.2.1)
//! chipdda augment <dir-or-file.v> ...   # emit JSONL datasets for Verilog inputs
//! chipdda sc-check <script.py>          # SiliconCompiler script check + flow summary
//! chipdda sc-describe <script.py>       # script → natural language (§3.3)
//! chipdda serve --socket S [...]        # resident augmentation/eval daemon
//! chipdda call <verb> --socket S [...]  # one request against a running daemon
//! chipdda chaos --seed N [--socket S]   # deterministic fault-injection runs
//! ```

use chipdda::core::align::{describe_module, render_line_tagged};
use chipdda::core::json::to_jsonl;
use chipdda::core::repair::{break_verilog, RepairOptions};
use chipdda::core::TaskKind;
use chipdda::sim::{SimOptions, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "lint" => cmd_lint(&args[1..]),
        "sim" => cmd_sim(&args[1..]),
        "describe" => cmd_describe(&args[1..]),
        "break" => cmd_break(&args[1..]),
        "augment" => cmd_augment(&args[1..]),
        "sc-check" => cmd_sc_check(&args[1..]),
        "sc-describe" => cmd_sc_describe(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "call" => cmd_call(&args[1..]),
        "chaos" => cmd_chaos(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: chipdda <lint|sim|describe|break|augment|sc-check|sc-describe> <file> [options]
  lint <file.v>                 yosys-style syntax & semantic check
  sim <file.v> [--top tb]       simulate; prints $display output
  describe <file.v>             program-analysis natural language (Fig. 5)
  break <file.v> [--max N]      inject repair-training faults (default max 4)
  augment <input.v ...> [--out DIR]  run the full pipeline, write JSONL per task
  sc-check <script.py>          check a SiliconCompiler script; run simulated flow
  sc-describe <script.py>       describe a SiliconCompiler script in English
  serve --socket S              run the resident daemon (see --help-serve)
  call <verb> --socket S        send one request to a running daemon
  chaos --seed N [--socket S]   print a fault schedule; with --socket, run a
                                supervised daemon under it (failpoints builds)

serve options:
  --socket PATH        Unix socket to listen on (required)
  --workers N          pool worker threads (default 2)
  --queue N            bounded queue capacity (default 64)
  --deadline-ms N      default per-request deadline (default 10000)
  --model-modules N    corpus size for the startup finetune; 0 = pretrained (default 8)
  --journal PATH       crash-safe request journal; accepted-but-unanswered
                       requests replay when the daemon restarts
  --durable            fsync the journal on every acceptance
  --supervised         restart a crashed service loop in-process
  --max-restarts N     supervised crash-restart budget (default 8)
  --fault-injection    honor `poison` requests (chaos testing only)

chaos options (accepts every serve option too):
  --seed N             generate the deterministic schedule for seed N
  --spec SPEC          use an exact schedule spec (as printed by a red test)
  --socket PATH        run a --supervised daemon under the armed schedule;
                       requires a `--features failpoints` build

call verbs (all take --socket PATH, optional --priority high, --deadline-ms N):
  ping | stats | health | ready | shutdown
  augment <file.v> [--seed N]
  generate --prompt TEXT [--instruct TEXT] [--temperature T] [--seed N]
  repair <file.v> [--budget N]
  score <file.v> (--problem ID | --testbench <tb.v> [--top NAME]) [--runs R]
                       --runs R (1-64) is echoed as the lane count; every
                       lane has the same verdict, computed once
  retrieve --query TEXT [-k N]  k nearest corpus modules from the resident
                       sharded index, as JSONL (best first; default k 5)
  agent --problem ID [--level L] [-k N] [--rounds N] [--early-exit]
                       [--rag-k N] [--runs R] [--seed N]
                       pass@k tool-in-the-loop repair chains against a
                       benchmark problem (defaults: level 2, k 5, rounds 3;
                       --rag-k pulls context from the resident index)
  poison";

type CmdResult = Result<ExitCode, Box<dyn std::error::Error>>;

fn file_arg<'a>(args: &'a [String], what: &str) -> Result<&'a String, String> {
    args.iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("missing {what} argument"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_lint(args: &[String]) -> CmdResult {
    let path = file_arg(args, "Verilog file")?;
    let src = fs::read_to_string(path)?;
    let name = Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.clone());
    let report = chipdda::lint::check_source(&name, &src);
    print!("{}", report.render());
    if report.is_clean() {
        println!("{name}: clean ({} warnings)", report.warning_count());
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_sim(args: &[String]) -> CmdResult {
    let path = file_arg(args, "Verilog file")?;
    let src = fs::read_to_string(path)?;
    let sf = chipdda::verilog::parse(&src)?;
    let top = flag_value(args, "--top")
        .map(str::to_owned)
        .or_else(|| sf.modules.last().map(|m| m.name.name.clone()))
        .ok_or("no module found")?;
    let mut sim = Simulator::new(&sf, &top)?;
    let result = sim.run(&SimOptions::default())?;
    print!("{}", result.output);
    println!(
        "-- {} at t={} ({} $error calls)",
        if result.finished {
            "$finish"
        } else {
            "quiescent/limit"
        },
        result.time,
        result.error_count
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_describe(args: &[String]) -> CmdResult {
    let path = file_arg(args, "Verilog file")?;
    let src = fs::read_to_string(path)?;
    let sf = chipdda::verilog::parse(&src)?;
    for m in &sf.modules {
        print!("{}", render_line_tagged(&describe_module(m)));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_break(args: &[String]) -> CmdResult {
    let path = file_arg(args, "Verilog file")?;
    let src = fs::read_to_string(path)?;
    let max = flag_value(args, "--max")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let seed = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xDDA);
    let mut rng = SmallRng::seed_from_u64(seed);
    let broken = break_verilog(&src, &RepairOptions { max_mutations: max }, &mut rng)
        .ok_or("no applicable mutation site")?;
    eprintln!("# injected faults:");
    for m in &broken.mutations {
        eprintln!("#   line {}: {}", m.line, m.description);
    }
    print!("{}", broken.source);
    Ok(ExitCode::SUCCESS)
}

fn cmd_augment(args: &[String]) -> CmdResult {
    let outdir = Path::new(flag_value(args, "--out").unwrap_or("augmented"));
    let inputs: Vec<&String> = {
        let mut v = Vec::new();
        let mut skip = false;
        for (i, a) in args.iter().enumerate() {
            if skip {
                skip = false;
                continue;
            }
            if a == "--out" {
                skip = true;
                continue;
            }
            let _ = i;
            v.push(a);
        }
        v
    };
    if inputs.is_empty() {
        return Err("no input files".into());
    }
    let mut rng = SmallRng::seed_from_u64(2024);
    // EDA-script data comes from the script pool, not from Verilog inputs,
    // so that stage stays off in the CLI.
    let opts = chipdda::core::pipeline::PipelineOptions {
        stages: chipdda::core::pipeline::StageSet {
            eda_script: false,
            ..chipdda::core::pipeline::StageSet::FULL
        },
        ..Default::default()
    };
    let corpus: Vec<chipdda::corpus::CorpusModule> = inputs
        .iter()
        .map(|path| {
            let source = fs::read_to_string(path)?;
            let name = Path::new(path.as_str())
                .file_stem()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| (*path).clone());
            Ok(chipdda::corpus::CorpusModule {
                family: chipdda::corpus::Family::ALL[0],
                name,
                source,
            })
        })
        .collect::<Result<_, std::io::Error>>()?;
    let (ds, report) = chipdda::core::pipeline::augment(&corpus, &opts, &mut rng);
    eprintln!("# {}", report.summary().replace('\n', "\n# "));
    for q in &report.quarantines {
        eprintln!(
            "# quarantined {} at {}: {}",
            q.module, q.stage, q.diagnostic
        );
    }
    fs::create_dir_all(outdir)?;
    for kind in TaskKind::ALL {
        let entries = ds.entries(kind);
        if entries.is_empty() {
            continue;
        }
        let file = outdir.join(format!(
            "{}.jsonl",
            kind.label().to_lowercase().replace([' ', '-'], "_")
        ));
        fs::write(&file, to_jsonl(entries))?;
        println!("{:>7} entries -> {}", entries.len(), file.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sc_check(args: &[String]) -> CmdResult {
    let path = file_arg(args, "script")?;
    let src = fs::read_to_string(path)?;
    let script = match chipdda::scscript::parse(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let report = chipdda::scscript::check(&script);
    print!("{}", report.render());
    if !report.is_clean() {
        return Ok(ExitCode::FAILURE);
    }
    if let Some(summary) = chipdda::scscript::simulate_flow(&script) {
        print!("{summary}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sc_describe(args: &[String]) -> CmdResult {
    let path = file_arg(args, "script")?;
    let src = fs::read_to_string(path)?;
    let script = chipdda::scscript::parse(&src)?;
    println!("{}", chipdda::scscript::describe(&script));
    Ok(ExitCode::SUCCESS)
}

/// Parses the serve option flags shared by `serve` and `chaos`.
fn serve_opts_from(args: &[String]) -> chipdda::serve::service::ServeOptions {
    use chipdda::serve::service::ServeOptions;
    let defaults = ServeOptions::default();
    ServeOptions {
        workers: flag_value(args, "--workers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.workers),
        queue_capacity: flag_value(args, "--queue")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.queue_capacity),
        default_deadline: flag_value(args, "--deadline-ms")
            .and_then(|v| v.parse().ok())
            .map(std::time::Duration::from_millis)
            .or(defaults.default_deadline),
        model_modules: flag_value(args, "--model-modules")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.model_modules),
        journal: flag_value(args, "--journal").map(std::path::PathBuf::from),
        durable_journal: args.iter().any(|a| a == "--durable"),
        fault_injection: args.iter().any(|a| a == "--fault-injection"),
        ..defaults
    }
}

/// Runs a supervised daemon lifetime and reports how it went.
fn run_supervised(socket: &str, args: &[String], label: &str) -> CmdResult {
    use chipdda::serve::service::ServerExit;
    use chipdda::serve::supervisor::{supervise, SupervisorOptions};
    let opts = serve_opts_from(args);
    let mut sup = SupervisorOptions::default();
    if let Some(n) = flag_value(args, "--max-restarts").and_then(|v| v.parse().ok()) {
        sup.max_restarts = n;
    }
    let report = supervise(Path::new(socket), &opts, &sup)?;
    eprintln!(
        "{label}: {} generation(s), {} crash restart(s), {}",
        report.generations,
        report.restarts,
        match report.exit {
            ServerExit::Drained => "drained cleanly",
            ServerExit::Crashed => "crashed with the restart budget exhausted",
        }
    );
    Ok(if report.exit == ServerExit::Drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_serve(args: &[String]) -> CmdResult {
    use chipdda::serve::service::Server;
    let socket = flag_value(args, "--socket").ok_or("missing --socket PATH")?;
    let opts = serve_opts_from(args);
    eprintln!(
        "chipdda serve: listening on {socket} ({} workers, queue {}); \
         stop with `chipdda call shutdown --socket {socket}`",
        opts.workers, opts.queue_capacity
    );
    if args.iter().any(|a| a == "--supervised") {
        return run_supervised(socket, args, "chipdda serve");
    }
    let server = Server::start(Path::new(socket), &opts)?;
    server.join(); // returns after a `shutdown` request has fully drained
    eprintln!("chipdda serve: drained and stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_chaos(args: &[String]) -> CmdResult {
    use chipdda::fail::{self, FaultSchedule};
    let schedule = match (flag_value(args, "--spec"), flag_value(args, "--seed")) {
        (Some(spec), _) => FaultSchedule::parse(spec)?,
        (None, Some(seed)) => {
            let seed: u64 = seed.parse().map_err(|_| "bad --seed (want a u64)")?;
            FaultSchedule::generate(seed, fail::SITES)
        }
        (None, None) => return Err("chaos needs --seed N or --spec SPEC".into()),
    };
    let spec = schedule.to_spec();
    let Some(socket) = flag_value(args, "--socket") else {
        // Dry run: print the schedule a red CI seed expands to, in the
        // exact spec grammar `--spec` accepts for a replay.
        println!("{spec}");
        return Ok(ExitCode::SUCCESS);
    };
    if !fail::compiled() {
        return Err("this binary has no failpoints compiled in; \
             rebuild with `cargo build --features failpoints`"
            .into());
    }
    fail::install(schedule)?;
    eprintln!("chipdda chaos: armed schedule {spec}");
    eprintln!("chipdda chaos: supervised daemon on {socket}");
    let outcome = run_supervised(socket, args, "chipdda chaos");
    // Read the counters before deactivate() clears the registry.
    let fired = fail::fired_total();
    let hits = fail::hit_counts();
    fail::deactivate();
    eprintln!("chipdda chaos: {fired} fault(s) fired; site hits:");
    for (site, count) in hits {
        eprintln!("chipdda chaos:   {site:<18} {count}");
    }
    outcome
}

fn cmd_call(args: &[String]) -> CmdResult {
    use chipdda::runtime::Priority;
    use chipdda::serve::client::Client;
    use chipdda::serve::proto::{ReqBody, Request, RespBody};
    let verb = args.first().ok_or("missing verb (see `chipdda help`)")?;
    let rest = &args[1..];
    let socket = flag_value(rest, "--socket").ok_or("missing --socket PATH")?;
    let read_file = |what: &str| -> Result<String, Box<dyn std::error::Error>> {
        Ok(fs::read_to_string(file_arg(rest, what)?)?)
    };
    let body = match verb.as_str() {
        "ping" => ReqBody::Ping,
        "stats" => ReqBody::Stats,
        "health" => ReqBody::Health,
        "ready" => ReqBody::Ready,
        "shutdown" => ReqBody::Shutdown,
        "poison" => ReqBody::Poison,
        "augment" => ReqBody::Augment {
            name: Path::new(file_arg(rest, "Verilog file")?)
                .file_stem()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "module".into()),
            source: read_file("Verilog file")?,
            seed: flag_value(rest, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(2024),
        },
        "generate" => ReqBody::Generate {
            instruct: flag_value(rest, "--instruct")
                .unwrap_or(chipdda::core::align::ALIGN_INSTRUCT)
                .to_string(),
            prompt: flag_value(rest, "--prompt")
                .ok_or("generate needs --prompt TEXT")?
                .to_string(),
            temperature: flag_value(rest, "--temperature")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.1),
            seed: flag_value(rest, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(99),
        },
        "repair" => ReqBody::Repair {
            name: Path::new(file_arg(rest, "Verilog file")?)
                .file_stem()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "broken".into()),
            source: read_file("Verilog file")?,
            budget: flag_value(rest, "--budget")
                .and_then(|v| v.parse().ok())
                .unwrap_or(200),
        },
        "score" => ReqBody::Score {
            source: read_file("Verilog file")?,
            problem: flag_value(rest, "--problem").map(str::to_owned),
            testbench: match flag_value(rest, "--testbench") {
                Some(tb_path) => Some(fs::read_to_string(tb_path)?),
                None => None,
            },
            top: flag_value(rest, "--top").unwrap_or("tb").to_string(),
            runs: flag_value(rest, "--runs")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
        },
        "retrieve" => ReqBody::Retrieve {
            query: flag_value(rest, "--query")
                .ok_or("retrieve needs --query TEXT")?
                .to_string(),
            k: flag_value(rest, "-k")
                .or_else(|| flag_value(rest, "--k"))
                .and_then(|v| v.parse().ok())
                .unwrap_or(5),
        },
        "agent" => {
            use chipdda::serve::proto::{
                DEFAULT_AGENT_K, DEFAULT_AGENT_LEVEL, DEFAULT_AGENT_ROUNDS, DEFAULT_AGENT_SEED,
            };
            ReqBody::Agent {
                problem: flag_value(rest, "--problem")
                    .ok_or("agent needs --problem ID")?
                    .to_string(),
                level: flag_value(rest, "--level")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_AGENT_LEVEL),
                k: flag_value(rest, "-k")
                    .or_else(|| flag_value(rest, "--k"))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_AGENT_K),
                rounds: flag_value(rest, "--rounds")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_AGENT_ROUNDS),
                early_exit: rest.iter().any(|a| a == "--early-exit"),
                rag_k: flag_value(rest, "--rag-k")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                runs: flag_value(rest, "--runs")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1),
                seed: flag_value(rest, "--seed")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_AGENT_SEED),
            }
        }
        other => return Err(format!("unknown call verb `{other}`").into()),
    };
    let req = Request {
        id: flag_value(rest, "--id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1),
        priority: if flag_value(rest, "--priority") == Some("high") {
            Priority::High
        } else {
            Priority::Normal
        },
        deadline_ms: flag_value(rest, "--deadline-ms").and_then(|v| v.parse().ok()),
        body,
    };
    let mut client = Client::connect(Path::new(socket))?;
    let resp = client.call(&req)?;
    match &resp.body {
        RespBody::Pong => println!("pong (id {})", resp.id),
        RespBody::ShuttingDown => println!("daemon is shutting down (id {})", resp.id),
        RespBody::Health {
            uptime_ms,
            generation,
            replayed,
            failpoints,
        } => println!(
            "up {uptime_ms} ms, generation {generation}, {replayed} replayed, failpoints {}",
            if *failpoints { "compiled" } else { "absent" }
        ),
        RespBody::Ready { ready } => {
            println!("{}", if *ready { "ready" } else { "not ready" });
            if !ready {
                return Ok(ExitCode::FAILURE);
            }
        }
        RespBody::Stats(s) => {
            println!("admitted   {}", s.admitted);
            println!("completed  {}", s.completed);
            println!("shed       {}", s.shed);
            println!("timed_out  {}", s.timed_out);
            println!("panics     {}", s.panics);
            println!("dropped    {}", s.dropped);
            println!("replayed   {}", s.replayed);
            println!("queue      {}", s.queue_depth);
            println!(
                "cache      {} hits / {} misses / {} evictions / {} resident",
                s.cache_hits, s.cache_misses, s.cache_evictions, s.cache_resident
            );
        }
        RespBody::Augmented {
            entries,
            quarantined,
            jsonl,
        } => {
            eprintln!("# {entries} entries, {quarantined} quarantined");
            print!("{jsonl}");
        }
        RespBody::Generated { output } => print!("{output}"),
        RespBody::Retrieved { count, jsonl } => {
            eprintln!("# {count} hit(s), best first");
            print!("{jsonl}");
        }
        RespBody::Repaired {
            source,
            clean,
            cost,
        } => {
            eprintln!(
                "# {} after {cost} checker calls",
                if *clean { "clean" } else { "still broken" }
            );
            print!("{source}");
        }
        RespBody::Scored {
            verdict,
            pass_rate,
            detail,
            lanes,
        } => {
            let lanes_note = if *lanes > 1 {
                format!(" [{lanes} lanes]")
            } else {
                String::new()
            };
            if detail.is_empty() {
                println!("{verdict}: pass rate {pass_rate:.3}{lanes_note}");
            } else {
                println!("{verdict}: pass rate {pass_rate:.3}{lanes_note} ({detail})");
            }
        }
        RespBody::AgentReport {
            passed,
            winner,
            chains,
            rounds_total,
            quarantined,
            jsonl,
        } => {
            let winner_note = match winner {
                Some(w) => format!(", winner chain {w}"),
                None => String::new(),
            };
            let quarantine_note = if *quarantined > 0 {
                format!(", {quarantined} quarantined")
            } else {
                String::new()
            };
            eprintln!(
                "# {} ({chains} chains, {rounds_total} rounds{winner_note}{quarantine_note})",
                if *passed { "passed" } else { "failed" }
            );
            print!("{jsonl}");
            if !passed {
                return Ok(ExitCode::FAILURE);
            }
        }
        RespBody::Error { code, message } => {
            eprintln!("error [{}]: {message}", code.as_str());
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
