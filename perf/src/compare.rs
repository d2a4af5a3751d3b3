//! `perf compare`: interleaved parent/change pairs judged by the rule of
//! choosing-metrics §8.
//!
//! Each pair runs the parent's and the change's own `BENCHMARK.json` command
//! on one seed, alternating which side goes first. A metric counts as a
//! **gain** only when the change wins at least 9 of every 10 pairs (ties count
//! for neither side) and the medians differ by more than the parent's
//! interquartile range. Where either side's spread exceeds the metric's bound
//! the metric is **unresolved** (not "unchanged"), unless every change run beats
//! every parent run. A median worse by more than the bound is a **regression**.

use crate::json::{self, Value};
use crate::stats::{median, quartiles_exclusive, relative_spread};
use crate::Res;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// An end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won ≥ 9/10 pairs and the medians differ by more than the parent's IQR.
    Gain,
    /// Worse than the parent's median by more than the bound.
    Regression,
    /// Spread wider than the bound: no claim either way.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

/// Summary of one metric's pairs.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs judged.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge paired samples (`parent[i]` and `change[i]` ran on the same seed).
pub fn judge(parent: &[f64], change: &[f64], b: &Bound) -> Judgement {
    let better = |c: f64, p: f64| if b.lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let mp = median(parent).unwrap_or(f64::NAN);
    let mc = median(change).unwrap_or(f64::NAN);
    let parent_iqr = quartiles_exclusive(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let spread = relative_spread(parent)
        .unwrap_or(0.0)
        .max(relative_spread(change).unwrap_or(0.0));
    let all_better = parent.iter().all(|&p| change.iter().all(|&c| better(c, p)));
    let worse_by = if b.lower_is_better { mc - mp } else { mp - mc };
    let verdict =
        if pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > parent_iqr {
            Verdict::Gain
        } else if spread > b.bound && !all_better {
            Verdict::Unresolved
        } else if worse_by > b.bound * mp.abs() {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        };
    Judgement {
        parent: mp,
        change: mc,
        wins,
        pairs,
        verdict,
    }
}

/// What `compare` takes from a `BENCHMARK.json`.
pub struct Contract {
    /// The benchmark command.
    pub command: Vec<String>,
    /// `run_seconds`: how long one run measures.
    pub run_seconds: u64,
    /// The end-to-end metrics' bounds.
    pub bounds: Vec<Bound>,
}

/// Read the command, run length and end-to-end bounds from a
/// `BENCHMARK.json`.
pub fn read_contract(root: &Path) -> Res<Contract> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text)?;
    let command = v
        .get("command")
        .map(|c| {
            c.arr()
                .iter()
                .filter_map(Value::str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let bounds = v
        .get("end_to_end")
        .map(|e| {
            e.arr()
                .iter()
                .filter_map(|m| {
                    Some(Bound {
                        name: m.get("name")?.str()?.to_string(),
                        lower_is_better: m.get("better")?.str()? == "lower",
                        bound: m.get("bound")?.num()?,
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    let run_seconds = v
        .get("run_seconds")
        .and_then(Value::num)
        .filter(|s| *s >= 1.0)
        .ok_or_else(|| format!("{}: no run_seconds", path.display()))? as u64;
    Ok(Contract {
        command,
        run_seconds,
        bounds,
    })
}

/// Run one side's benchmark command in `root` and parse its result line into
/// metric values. A run the benchmark marked invalid (its host was
/// disturbed) is re-run once; the second run is used either way and the
/// returned flag says whether it was valid.
fn run_side(
    root: &Path,
    command: &[String],
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Res<(BTreeMap<String, f64>, bool)> {
    let first = run_once(root, command, workload, seed, seconds)?;
    if first.1 {
        return Ok(first);
    }
    run_once(root, command, workload, seed, seconds)
}

/// One run: its metrics and whether the benchmark marked it valid.
fn run_once(
    root: &Path,
    command: &[String],
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Res<(BTreeMap<String, f64>, bool)> {
    let (program, args) = command
        .split_first()
        .ok_or_else(|| format!("{}: empty benchmark command", root.display()))?;
    let output = Command::new(program)
        .args(args)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .current_dir(root)
        .output()
        .map_err(|e| format!("{}: {e}", root.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().unwrap_or("");
    let valid = lines
        .next()
        .and_then(|l| json::parse(l).ok())
        .and_then(|v| v.get("valid").cloned());
    let v = json::parse(last).map_err(|e| {
        format!(
            "{} {workload} seed {seed}: no result line ({e}); stderr: {}",
            root.display(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} {workload} seed {seed}: run not correct: {last}",
            root.display()
        ));
    }
    let mut out = BTreeMap::new();
    if let Some(Value::Obj(m)) = v.get("metrics") {
        for (k, m) in m {
            if let Some(x) = m.get("value").and_then(Value::num) {
                out.insert(k.clone(), x);
            }
        }
    }
    Ok((out, valid != Some(Value::Bool(false))))
}

/// Options of the compare command.
pub struct CompareOptions {
    /// Parent checkout.
    pub parent: PathBuf,
    /// Change checkout.
    pub change: PathBuf,
    /// Workloads to compare.
    pub workloads: Vec<String>,
    /// Pairs per workload.
    pub pairs: usize,
    /// First seed; pair `i` uses `seed0 + i`.
    pub seed0: u64,
}

/// Run interleaved pairs and print one row per workload. Both sides run for
/// the change's `run_seconds`, judged by the change's bounds. Returns the
/// judgements per workload and metric.
pub fn compare(opts: &CompareOptions) -> Res<BTreeMap<String, Vec<(String, Judgement)>>> {
    let parent_cmd = read_contract(&opts.parent)?.command;
    let Contract {
        command: change_cmd,
        run_seconds,
        bounds,
    } = read_contract(&opts.change)?;
    let mut table = BTreeMap::new();
    for w in &opts.workloads {
        let mut parent: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut change: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut invalid = 0;
        for i in 0..opts.pairs {
            let seed = opts.seed0 + i as u64;
            let mut side = |root: &Path, cmd: &[String], out: &mut Vec<_>| -> Res<()> {
                let (metrics, valid) = run_side(root, cmd, w, seed, run_seconds)?;
                invalid += usize::from(!valid);
                out.push(metrics);
                Ok(())
            };
            // Alternate which side runs first.
            if i % 2 == 0 {
                side(&opts.parent, &parent_cmd, &mut parent)?;
                side(&opts.change, &change_cmd, &mut change)?;
            } else {
                side(&opts.change, &change_cmd, &mut change)?;
                side(&opts.parent, &parent_cmd, &mut parent)?;
            }
            eprintln!("{w}: pair {}/{} done", i + 1, opts.pairs);
        }
        if invalid > 0 {
            eprintln!("{w}: {invalid} run(s) stayed invalid after a re-run (host disturbed)");
        }
        let mut row = Vec::new();
        for b in &bounds {
            let p: Vec<f64> = parent
                .iter()
                .filter_map(|m| m.get(&b.name).copied())
                .collect();
            let c: Vec<f64> = change
                .iter()
                .filter_map(|m| m.get(&b.name).copied())
                .collect();
            row.push((b.name.clone(), judge(&p, &c, b)));
        }
        println!("{}", format_row(w, &row));
        table.insert(w.clone(), row);
    }
    Ok(table)
}

/// One workload's row: `metric: verdict (parent → change, wins/pairs)` cells.
pub fn format_row(workload: &str, row: &[(String, Judgement)]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|(name, j)| {
            format!(
                "{name}: {:?} ({:.6} -> {:.6}, {}/{} wins)",
                j.verdict, j.parent, j.change, j.wins, j.pairs
            )
        })
        .collect();
    format!("{workload} | {}", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let change = [8.0, 8.1, 7.9, 8.2, 8.0, 8.1, 8.0, 7.9, 8.3, 8.0];
        let j = judge(&parent, &change, &bound(true, 0.1));
        assert_eq!(j.verdict, Verdict::Gain);
        assert_eq!(j.wins, 10);
        // The same numbers where higher is better: a regression.
        let j = judge(&parent, &change, &bound(false, 0.1));
        assert_eq!(j.verdict, Verdict::Regression);
    }

    #[test]
    fn eight_wins_of_ten_is_not_a_gain() {
        let parent = [10.0; 10];
        let change = [9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 10.0, 11.0];
        let j = judge(&parent, &change, &bound(true, 0.2));
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn medians_inside_the_parent_spread_are_not_a_gain() {
        let parent = [10.0, 12.0, 8.0, 11.0, 9.0, 10.5, 9.5, 11.5, 8.5, 10.0];
        let change: Vec<f64> = parent.iter().map(|p| p - 0.1).collect();
        let j = judge(&parent, &change, &bound(true, 0.5));
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let parent = [10.0, 20.0, 5.0, 15.0, 10.0, 25.0, 8.0, 12.0, 30.0, 10.0];
        let change = [11.0, 19.0, 6.0, 16.0, 9.0, 24.0, 9.0, 13.0, 29.0, 11.0];
        let j = judge(&parent, &change, &bound(true, 0.1));
        assert_eq!(j.verdict, Verdict::Unresolved);
    }
}
