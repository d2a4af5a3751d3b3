//! End-to-end smoke test of the serving stack **through the real binary**: fit and
//! save a model with `tcca_serve demo`, start `tcca_serve serve` on a loopback port,
//! round-trip a coalesced multi-client batch of transform requests over TCP and diff
//! every reply against the in-process result. This is the test CI runs as the serve
//! smoke job.

use linalg::Matrix;
use mvcore::EstimatorRegistry;
use serve::Client;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

const BIN: &str = env!("CARGO_BIN_EXE_tcca_serve");

/// Kills the server process even when an assertion panics.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcca-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_csv(path: &PathBuf) -> Matrix {
    let text = std::fs::read_to_string(path).unwrap();
    let rows: Vec<Vec<f64>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').map(|c| c.trim().parse().unwrap()).collect())
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

#[test]
fn binary_serves_coalesced_batches_bit_identically() {
    let dir = tmp_dir("serve");

    // 1. Fit + save a small TCCA model (and its training views) via the binary.
    let status = Command::new(BIN)
        .args(["demo", "--out"])
        .arg(&dir)
        .args(["--method", "TCCA", "--instances", "48", "--rank", "2"])
        .status()
        .expect("running tcca_serve demo");
    assert!(status.success(), "demo failed");
    let model_path = dir.join("tcca.mvm");
    assert!(model_path.exists());

    // 2. In-process ground truth from the same file.
    let registry = EstimatorRegistry::with_builtin();
    let model = registry
        .load_model(&mut std::io::BufReader::new(
            std::fs::File::open(&model_path).unwrap(),
        ))
        .unwrap();
    let views: Vec<Matrix> = (0..model.num_views())
        .map(|p| read_csv(&dir.join(format!("tcca.view{p}.csv"))))
        .collect();
    let expected = model.transform(&views).unwrap();

    // 3. Start the server on an OS-assigned loopback port and parse the bound
    //    address from its stdout.
    let mut child = Command::new(BIN)
        .args(["serve", "--models"])
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--max-batch", "64"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("running tcca_serve serve");
    let stdout = child.stdout.take().expect("server stdout");
    let guard = ChildGuard(child);
    let mut addr = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("server stdout line");
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.trim().to_string());
            break;
        }
    }
    let addr = addr.expect("server never printed its address");

    // 4. The catalog lists the model with header metadata.
    let mut client = Client::connect(&addr).expect("connecting to the server");
    client.ping().unwrap();
    let catalog = client.list_models().unwrap();
    assert_eq!(catalog.len(), 1);
    assert_eq!(catalog[0].name, "tcca");
    assert_eq!(catalog[0].method, "TCCA");
    assert_eq!(catalog[0].dim, expected.cols());

    // 5. A multi-client burst: each of 8 concurrent connections requests a distinct
    //    6-instance slice. The engine coalesces same-model requests; every reply
    //    must equal the matching rows of the in-process embedding bit for bit.
    let views = Arc::new(views);
    let expected = Arc::new(expected);
    let mut handles = Vec::new();
    for c in 0..8usize {
        let addr = addr.clone();
        let views = Arc::clone(&views);
        let expected = Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let cols: Vec<usize> = (6 * c..6 * (c + 1)).collect();
            let slice: Vec<Matrix> = views.iter().map(|v| v.select_columns(&cols)).collect();
            let mut client = Client::connect(&addr).expect("client connect");
            let z = client.transform("tcca", &slice).expect("transform");
            let want = expected.select_rows(&cols);
            assert_eq!(z, want, "client {c}: served rows differ from in-process");
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    // 6. Full-batch request over the same connection, also bit-exact.
    let z = client.transform("tcca", &views).unwrap();
    assert_eq!(z, *expected);

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shot_embed_mode_matches_in_process_transform() {
    let dir = tmp_dir("embed");
    let status = Command::new(BIN)
        .args(["demo", "--out"])
        .arg(&dir)
        .args(["--method", "CCA-LS", "--instances", "30", "--rank", "2"])
        .status()
        .unwrap();
    assert!(status.success());
    let model_path = dir.join("cca-ls.mvm");

    // inspect prints the header without loading the payload.
    let out = Command::new(BIN)
        .args(["inspect", "--model"])
        .arg(&model_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("CCA-LS"), "{text}");

    // embed writes the embedding CSV; diff against the in-process transform.
    let registry = EstimatorRegistry::with_builtin();
    let model = registry
        .load_model(&mut std::io::BufReader::new(
            std::fs::File::open(&model_path).unwrap(),
        ))
        .unwrap();
    let views: Vec<Matrix> = (0..model.num_views())
        .map(|p| read_csv(&dir.join(format!("cca-ls.view{p}.csv"))))
        .collect();
    let expected = model.transform(&views).unwrap();

    let out_path = dir.join("embedding.csv");
    let mut cmd = Command::new(BIN);
    cmd.args(["embed", "--model"]).arg(&model_path);
    for p in 0..views.len() {
        cmd.arg("--view")
            .arg(dir.join(format!("cca-ls.view{p}.csv")));
    }
    cmd.arg("--out").arg(&out_path);
    let status = cmd.status().unwrap();
    assert!(status.success());
    let embedded = read_csv(&out_path);
    assert_eq!(embedded, expected, "CSV round-trip must be exact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_rejected_with_the_usage_text() {
    let output = Command::new(BIN)
        .args(["inspect", "--model", "m.mvm", "--bogus", "1"])
        .output()
        .expect("running tcca_serve inspect");
    assert!(!output.status.success(), "a misspelled flag must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
