//! A smoke-sized run of every workload, untraced and traced: every operation
//! succeeds, every output check passes and every metric is printed.

use perf::{run, workload, Options};

const END_TO_END: [&str; 10] = [
    "setup_s",
    "peak_rss_mb",
    "fit_s",
    "corr_sum",
    "p50_ms.low",
    "p90_ms.low",
    "p50_ms.high",
    "p90_ms.high",
    "max_rate_rps",
    "ok_ratio",
];

#[test]
fn every_workload_runs_at_smoke_size() {
    let out = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    std::fs::create_dir_all(&out).unwrap();
    for name in workload::NAMES {
        for trace in [false, true] {
            let opts = Options {
                workload: name.to_string(),
                seed: 7,
                seconds: 2.0,
                trace,
                smoke: true,
                out_dir: out.clone(),
            };
            let outcome = run(&opts).unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
            assert!(outcome.attempted > 0, "{name}");
            assert_eq!(
                outcome.failed, 0,
                "{name} trace={trace}: {:?}",
                outcome.notes
            );
            if trace {
                for m in &outcome.metrics {
                    assert!(!m.value.is_nan(), "{name}: {} is NaN", m.name);
                }
                assert!(outcome.metric("tensor.cp_sweeps").unwrap() >= 1.0);
                assert!(outcome.metric("trace.spans").unwrap() > 0.0);
            } else {
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, END_TO_END, "{name}");
                for m in &outcome.metrics {
                    assert!(
                        m.value.is_finite() && m.value > 0.0,
                        "{name}: {} = {}",
                        m.name,
                        m.value
                    );
                }
                assert_eq!(outcome.metric("ok_ratio"), Some(1.0), "{name}");
            }
            let line = outcome.to_json();
            let parsed = perf::json::parse(&line).expect("result line is JSON");
            assert!(parsed.get("metrics").is_some());
        }
    }
}
