//! `perf` command line.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! perf compare --parent <dir> --change <dir> [--workloads a,b] [--pairs 10] [--seed0 n]
//! ```

use perf::compare::{compare, CompareOptions};
use perf::{host::Stamp, run, workload, Options};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parse `--key value` pairs (and bare `--flag`s) after the subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => "1".to_string(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("missing --{key}")),
    }
}

fn main_run(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let trace: u8 = get(&f, "trace", Some(0))?;
    let opts = Options {
        workload: get(&f, "workload", None)?,
        seed: get(&f, "seed", None)?,
        seconds: get(&f, "seconds", None)?,
        trace: trace != 0,
        smoke: f.contains_key("smoke"),
        out_dir: PathBuf::from(get(&f, "out", Some(".perf_out".to_string()))?),
    };
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    println!(
        "{}",
        Stamp::collect().to_json(&opts.workload, opts.seed, opts.trace)
    );
    let outcome = run(&opts)?;
    for note in &outcome.notes {
        eprintln!("note: {note}");
    }
    println!("{}", outcome.validity_json());
    println!("{}", outcome.to_json());
    Ok(())
}

fn main_compare(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let workloads: String = get(&f, "workloads", Some(workload::NAMES.join(",")))?;
    let opts = CompareOptions {
        parent: PathBuf::from(get::<String>(&f, "parent", None)?),
        change: PathBuf::from(get::<String>(&f, "change", None)?),
        workloads: workloads.split(',').map(str::to_string).collect(),
        pairs: get(&f, "pairs", Some(10))?,
        seed0: get(&f, "seed0", Some(1000))?,
    };
    compare(&opts).map(|_| ())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => main_compare(&args[1..]),
        _ => main_run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
