//! Whitened models through the serving stack: a TCCA model fitted with the
//! randomized whitening stage must transform **bit-identically** in-process and
//! over the wire. Whitening changes how the model is fitted, not how it is served
//! — the fitted model is still a per-view shifted projection — so the whole
//! serving path (persistence, catalog metadata, coalesced batching, the wire
//! codec) must carry it with zero drift.

use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec, WhitenSpec};
use serve::Client;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

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
    let dir = std::env::temp_dir().join(format!("tcca-whiten-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three noisy views of 40 instances sharing a skewed latent signal, with enough
/// feature dimensions that the whitening stage has something to reduce.
fn fixture_views() -> Vec<Matrix> {
    let n = 40;
    let dims = [24usize, 16, 9];
    let mut views: Vec<Matrix> = dims.iter().map(|&d| Matrix::zeros(d, n)).collect();
    for j in 0..n {
        let t = if j % 4 == 0 { 1.5 } else { -0.4 };
        for (p, v) in views.iter_mut().enumerate() {
            for i in 0..v.rows() {
                v[(i, j)] =
                    t * (i as f64 + 1.0) + 0.3 * ((i + 13 * p) as f64 * 2.7 + j as f64 * 1.3).sin();
            }
        }
    }
    views
}

#[test]
fn whitened_model_serves_bit_identically_over_the_wire() {
    let dir = tmp_dir("wire");
    let views = fixture_views();

    // 1. Fit TCCA with randomized whitening and persist it like any other model.
    let registry = EstimatorRegistry::with_builtin();
    let spec = FitSpec::with_rank(2)
        .epsilon(1e-3)
        .seed(11)
        .per_view_dim(6)
        .whiten(WhitenSpec::randomized());
    let model = registry.fit("TCCA", &views, &spec).unwrap();
    let expected = model.transform(&views).unwrap();
    let model_path = dir.join("whitened.mvm");
    model
        .save(&mut BufWriter::new(
            std::fs::File::create(&model_path).unwrap(),
        ))
        .unwrap();

    // 2. The persisted file round-trips in-process bit for bit.
    let loaded = registry
        .load_model(&mut BufReader::new(
            std::fs::File::open(&model_path).unwrap(),
        ))
        .unwrap();
    assert_eq!(loaded.transform(&views).unwrap(), expected);

    // 3. Serve the same file through the real binary …
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

    // 4. … and diff every wire path against the in-process embedding.
    let mut client = Client::connect(&addr).expect("connecting to the server");
    let catalog = client.list_models().unwrap();
    assert_eq!(catalog.len(), 1);
    assert_eq!(catalog[0].name, "whitened");
    assert_eq!(catalog[0].method, "TCCA");
    assert_eq!(catalog[0].dim, expected.cols());

    // Full batch.
    let z = client.transform("whitened", &views).unwrap();
    assert_eq!(z, expected, "wire transform differs from in-process");

    // Per-view slices (the coalescing / zero-copy projection path).
    for (which, view) in views.iter().enumerate() {
        let zv = client.transform_view("whitened", which, view).unwrap();
        let direct = model.transform_view(which, view).unwrap();
        assert_eq!(zv, direct, "view {which}: wire transform_view differs");
    }

    // Held-out instances, sliced client-side.
    let cols: Vec<usize> = vec![1, 5, 8, 21, 34];
    let slice: Vec<Matrix> = views.iter().map(|v| v.select_columns(&cols)).collect();
    let z = client.transform("whitened", &slice).unwrap();
    assert_eq!(z, expected.select_rows(&cols));

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}
