//! `perfbench` command line:
//!
//! ```text
//! perfbench --workload <paper_grid|serve_paged> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero without a result line if the workload
//! cannot run.

use perfbench::{complete, grid, serve, Metric, Options, Outcome, Scale, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <paper_grid|serve_paged> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a number: {s}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_u64(&value()?)?,
            // Every workload does a fixed amount of work; the run length
            // follows from it, so `--seconds` is accepted and checked but
            // never turns a run into a duration-bound loop.
            "--seconds" => {
                parse_u64(&value()?)?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_metrics(ms: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(ms.len());
    for m in ms {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let opts = Options {
        seed: args.seed,
        traced: args.traced,
        scale: Scale::Full,
        results_dir: PathBuf::from("results"),
        work_dir: PathBuf::from(".perfbench"),
    };
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let mut out: Outcome = match args.workload.as_str() {
        "paper_grid" => grid::paper_grid(&opts)?,
        "serve_paged" => serve::serve_paged(&opts)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    complete(&mut out)?;
    if let Some(spans) = &out.spans_json {
        let path = opts
            .work_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans: {}", path.display());
    }
    for note in &out.notes {
        eprintln!("{note}");
    }
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        eprintln!("{:<40} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
