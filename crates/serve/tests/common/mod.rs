//! A gated model for tests that must hold a `BatchEngine` slot: the engine runs
//! a request as soon as a pool worker is free, so a test parks work behind a
//! one-worker engine by serving a request the gate keeps inside the model.

use linalg::Matrix;
use mvcore::{CoreError, MemoryModel, ModelState, MultiViewModel};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

/// Bound on every wait on a gate, so a stranded request fails its test instead
/// of hanging it.
pub const WAIT: Duration = Duration::from_secs(10);

/// The test's side of a [`Gated`] model.
pub struct Gate {
    entered: mpsc::Receiver<()>,
    open: Option<mpsc::Sender<()>>,
}

impl Gate {
    /// Wait until a request is inside the gated model.
    pub fn wait_entered(&self) {
        self.entered
            .recv_timeout(WAIT)
            .expect("no request reached the gated model");
    }

    /// Let every call through, now and from then on.
    pub fn open(&mut self) {
        self.open = None;
    }
}

/// A fitted model whose projections signal that they were entered, then block
/// until the test opens the [`Gate`].
struct Gated {
    inner: Box<dyn MultiViewModel>,
    entered: mpsc::Sender<()>,
    open: Mutex<mpsc::Receiver<()>>,
}

/// Wrap `inner` in a gate the returned [`Gate`] controls.
pub fn gated(inner: Box<dyn MultiViewModel>) -> (Box<dyn MultiViewModel>, Gate) {
    let (entered_tx, entered) = mpsc::channel();
    let (open, open_rx) = mpsc::channel();
    let model = Gated {
        inner,
        entered: entered_tx,
        open: Mutex::new(open_rx),
    };
    (
        Box::new(model),
        Gate {
            entered,
            open: Some(open),
        },
    )
}

impl Gated {
    fn pass(&self) {
        let _ = self.entered.send(());
        // Returns once the gate's sender is dropped (or after WAIT).
        let _ = self.open.lock().unwrap().recv_timeout(WAIT);
    }
}

impl MultiViewModel for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_views(&self) -> usize {
        self.inner.num_views()
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix, CoreError> {
        self.pass();
        self.inner.transform(views)
    }

    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix, CoreError> {
        self.pass();
        self.inner.transform_view(which, view)
    }

    fn memory(&self) -> &MemoryModel {
        self.inner.memory()
    }

    fn save_state(&self) -> Result<ModelState, CoreError> {
        self.inner.save_state()
    }
}
