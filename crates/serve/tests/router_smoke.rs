//! Multi-shard failover smoke **through the real binaries**: two `tcca_serve
//! serve` child processes act as shards behind a `tcca_serve route` router
//! process. We embed through the router, SIGKILL one shard mid-run, and assert the
//! next request still succeeds bit-identically via failover. This is the test CI
//! runs as the router smoke job.

use linalg::Matrix;
use mvcore::EstimatorRegistry;
use serve::Client;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_tcca_serve");

/// Kills the process even when an assertion panics first.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcca-rsmoke-{tag}-{}", std::process::id()));
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

/// Spawn a `tcca_serve` subcommand and parse the `listening on ADDR` line.
fn spawn_listening(args: &[&str], dir: &PathBuf) -> (ChildGuard, String) {
    let mut cmd = Command::new(BIN);
    cmd.arg(args[0]);
    for a in &args[1..] {
        if *a == "{dir}" {
            cmd.arg(dir);
        } else {
            cmd.arg(a);
        }
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning tcca_serve");
    let stdout = child.stdout.take().expect("child stdout");
    let guard = ChildGuard(child);
    let mut addr = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("child stdout line");
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.trim().to_string());
            break;
        }
    }
    (guard, addr.expect("child never printed its address"))
}

#[test]
fn router_fails_over_when_a_shard_is_killed() {
    let dir = tmp_dir("failover");

    // 1. Fit + save a small TCCA model (and its training views) via the binary.
    let status = Command::new(BIN)
        .args(["demo", "--out"])
        .arg(&dir)
        .args(["--method", "TCCA", "--instances", "48", "--rank", "2"])
        .status()
        .expect("running tcca_serve demo");
    assert!(status.success(), "demo failed");

    // 2. In-process ground truth from the same file.
    let registry = EstimatorRegistry::with_builtin();
    let model = registry
        .load_model(&mut std::io::BufReader::new(
            std::fs::File::open(dir.join("tcca.mvm")).unwrap(),
        ))
        .unwrap();
    let views: Vec<Matrix> = (0..model.num_views())
        .map(|p| read_csv(&dir.join(format!("tcca.view{p}.csv"))))
        .collect();
    let expected = model.transform(&views).unwrap();

    // 3. Two shard child processes, then the router in front of them.
    let (shard_a, addr_a) = spawn_listening(
        &["serve", "--models", "{dir}", "--addr", "127.0.0.1:0"],
        &dir,
    );
    let (_shard_b, addr_b) = spawn_listening(
        &["serve", "--models", "{dir}", "--addr", "127.0.0.1:0"],
        &dir,
    );
    let (_router, router_addr) = spawn_listening(
        &[
            "route",
            "--shard",
            &addr_a,
            "--shard",
            &addr_b,
            "--addr",
            "127.0.0.1:0",
        ],
        &dir,
    );

    // 4. The router serves the catalog and bit-exact embeddings.
    let mut client = Client::connect(&router_addr).expect("connecting to the router");
    client.ping().unwrap();
    let catalog = client.list_models().unwrap();
    assert_eq!(catalog.len(), 1);
    assert_eq!(catalog[0].name, "tcca");
    for _ in 0..4 {
        let z = client.transform("tcca", &views).expect("routed transform");
        assert_eq!(z, expected, "routed reply differs from in-process");
    }

    // 5. Kill shard A outright (SIGKILL, no goodbye). With replication 2, half the
    //    requests would land on the corpse — every one must fail over to shard B
    //    and still come back bit-identical. Several requests in a row exercise
    //    both the dead-connection discovery and the post-mortem routing table.
    drop(shard_a);
    for attempt in 0..6 {
        let z = client
            .transform("tcca", &views)
            .unwrap_or_else(|e| panic!("failover attempt {attempt} failed: {e}"));
        assert_eq!(z, expected, "failover changed the embedding");
    }

    // 6. New models keep flowing through the surviving topology: drop another
    //    model file in, rescan through the router, embed through it.
    let status = Command::new(BIN)
        .args(["demo", "--out"])
        .arg(&dir)
        .args(["--method", "PCA", "--instances", "48", "--rank", "2"])
        .status()
        .unwrap();
    assert!(status.success());
    let report = client.rescan().expect("rescan through the router");
    assert!(
        report.added >= 1,
        "rescan must index the new model: {report:?}"
    );
    let z = client
        .transform("pca", &views)
        .expect("new model transform");
    assert_eq!(z.rows(), views[0].cols());

    let _ = std::fs::remove_dir_all(&dir);
}
