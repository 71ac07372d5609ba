//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `seconds` and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines before it carry the host
//! noise (steal, load) and, for `paper_pipeline`, the output digests.

use perfbench::serve::Flavor;
use perfbench::{calibrate, pipeline, serve};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload paper_pipeline|serve_hot|serve_cold \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calibrate::HELPER_FLAG) {
        return match calibrate::helper_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "paper_pipeline" => pipeline::run(args.seed, args.seconds, args.traced),
        "serve_hot" => serve::run(Flavor::Hot, args.seed, args.seconds, args.traced),
        "serve_cold" => serve::run(Flavor::Cold, args.seed, args.seconds, args.traced),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.finish(args.traced);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
