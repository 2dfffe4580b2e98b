//! `alexbench`: the repository benchmark's measuring program.
//!
//! ```text
//! alexbench gen --seed N --seconds S --dir DIR
//! alexbench run --workload W --seconds S --trace 0|1 --dir DIR --work DIR
//!               [--inject flip-feedback]
//! ```
//!
//! `gen` writes one seed's inputs; `run` measures one workload on them
//! and prints a diagnostics line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero
//! when any output check fails. `perfbench/run.py` drives both.

mod batch;
mod curator;
mod http;
mod inputs;
mod report;
mod script;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Op-script iterations per second of `--seconds`.
pub const OPS_PER_SECOND: usize = 250;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("{name} must be a whole number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let outcome = match args.get(1).map(String::as_str) {
        Some("gen") => gen(&args),
        Some("run") => run(&args),
        _ => Err("usage: alexbench gen|run …".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("alexbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn gen(args: &[String]) -> Result<bool, String> {
    let seed = number(args, "--seed")?;
    let ops = number(args, "--seconds")? as usize * OPS_PER_SECOND;
    let dir = PathBuf::from(required(args, "--dir")?);
    inputs::generate_into(&dir, seed, ops).map_err(|e| format!("generating inputs: {e}"))?;
    Ok(true)
}

fn run(args: &[String]) -> Result<bool, String> {
    let workload = required(args, "--workload")?;
    let ops = number(args, "--seconds")? as usize * OPS_PER_SECOND;
    let trace = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let flip = match flag(args, "--inject") {
        None => false,
        Some("flip-feedback") => true,
        Some(other) => return Err(format!("unknown --inject {other:?}")),
    };
    let mut inputs = inputs::Inputs::read(&PathBuf::from(required(args, "--dir")?))?;
    if inputs.ops.len() < ops {
        return Err(format!(
            "op script has {} iterations, {ops} needed",
            inputs.ops.len()
        ));
    }
    inputs.ops.truncate(ops);
    let work = PathBuf::from(required(args, "--work")?);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let mut report = Report::default();
    match workload {
        "batch_curate" => batch::run(&inputs, trace, flip, &mut report)?,
        "serve_explore" => serve::run(&inputs, false, trace, &work, flip, &mut report)?,
        "serve_durable" => serve::run(&inputs, true, trace, &work, flip, &mut report)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    println!("{}", report.diagnostics_line());
    println!("{}", report.result_line());
    Ok(report.correct())
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn name_pattern() {
        assert!(valid("core.space.build_s"));
        assert!(valid("p-99"));
        assert!(!valid(""));
        assert!(!valid("query ms"));
        assert!(!valid("latency{route}"));
        assert!(!valid("é"));
    }

    #[test]
    fn benchmark_json_metric_names_match_the_pattern() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        let mut seen = std::collections::HashSet::new();
        for list in ["workloads", "end_to_end", "per_layer"] {
            let items = doc.get(list).and_then(Value::as_array).expect(list);
            assert!(!items.is_empty(), "{list} is empty");
            for item in items {
                let name = item.get("name").and_then(Value::as_str).expect("name");
                assert!(valid(name), "{list}: bad name {name:?}");
                assert!(seen.insert(name.to_string()), "{name:?} is used twice");
            }
        }
    }
}
