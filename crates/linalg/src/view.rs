//! Borrowed matrix views: [`MatrixView`] over one matrix, [`ColsView`] over the
//! horizontal concatenation of several — the zero-copy input types of the serving
//! path.
//!
//! A coalesced `transform_view` batch is logically one wide `d × Σnⱼ` matrix whose
//! column blocks live in the individual request payloads. [`ColsView`] represents
//! that concatenation without materializing it: the blocked GEMM engine
//! ([`crate::gemm`]) packs its panels directly from the borrowed parts (applying an
//! optional per-feature shift — i.e. mean-centering — during the pack), so the only
//! copies ever made are the cache-resident packing buffers the kernel would fill for
//! a materialized matrix anyway.
//!
//! ## Zero-copy contract
//!
//! [`ColsView::shifted_t_matmul`] is the one compute path a served
//! `TransformView` batch runs, and it is **bit-identical** to centering a stitched
//! copy and calling [`Matrix::t_matmul`]: both run the same blocked schedule over
//! the same shapes, and `part[p][j] - shift[p]` computed during packing is the same
//! f64 the stitched path would pack. Tests pin this down.
//!
//! ## Copy accounting
//!
//! Two process-wide counters make "zero-copy" assertable in tests rather than
//! aspirational: [`matrix_clones`] counts deep [`Matrix`] buffer clones (the
//! `Clone` impl increments it), and [`input_stitches`] counts every materialization
//! of request data into a stitched matrix ([`ColsView::to_matrix`] and the serving
//! fallback paths call [`note_input_stitch`]). Both are monotone; tests assert
//! deltas across the path under test.

use crate::{gemm, LinalgError, Matrix, Result};
use std::sync::atomic::{AtomicUsize, Ordering};

static MATRIX_CLONES: AtomicUsize = AtomicUsize::new(0);
static INPUT_STITCHES: AtomicUsize = AtomicUsize::new(0);

/// Total deep [`Matrix`] clones performed by this process so far.
pub fn matrix_clones() -> usize {
    MATRIX_CLONES.load(Ordering::Relaxed)
}

pub(crate) fn note_matrix_clone() {
    MATRIX_CLONES.fetch_add(1, Ordering::Relaxed);
}

/// Total input-stitch materializations performed by this process so far.
pub fn input_stitches() -> usize {
    INPUT_STITCHES.load(Ordering::Relaxed)
}

/// Record that borrowed input data was materialized into a stitched matrix.
/// Called by [`ColsView::to_matrix`] and by serving-layer fallback paths.
pub fn note_input_stitch() {
    INPUT_STITCHES.fetch_add(1, Ordering::Relaxed);
}

/// A borrowed, row-major, dense view of a matrix: shape plus a data slice. The
/// cheap (`Copy`) currency for passing sub-problems around without owning them.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// View over raw row-major storage. `data.len()` must equal `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "view data length {} does not match shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    fn from(m: &'a Matrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice(),
        }
    }
}

impl Matrix {
    /// Borrow the whole matrix as a [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::from(self)
    }
}

/// The horizontal concatenation `[X₀ | X₁ | … ]` of borrowed matrix parts, all with
/// the same row count — a `rows × Σ colsⱼ` matrix that is never materialized.
#[derive(Clone, Debug)]
pub struct ColsView<'a> {
    rows: usize,
    parts: Vec<MatrixView<'a>>,
    /// Prefix column offsets: `offsets[j]` is the first global column of part `j`;
    /// the final entry is the total column count.
    offsets: Vec<usize>,
}

impl<'a> ColsView<'a> {
    /// Build a view over `parts` (left to right). All parts must share a row count;
    /// at least one part is required so the row count is well-defined.
    pub fn new(parts: impl IntoIterator<Item = MatrixView<'a>>) -> Result<Self> {
        let parts: Vec<MatrixView<'a>> = parts.into_iter().collect();
        let Some(first) = parts.first() else {
            return Err(LinalgError::InvalidArgument(
                "ColsView needs at least one part".into(),
            ));
        };
        let rows = first.rows();
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        let mut total = 0usize;
        for (j, p) in parts.iter().enumerate() {
            if p.rows() != rows {
                return Err(LinalgError::InvalidArgument(format!(
                    "ColsView part {j} has {} rows, part 0 has {rows}",
                    p.rows()
                )));
            }
            offsets.push(total);
            total += p.cols();
        }
        offsets.push(total);
        Ok(Self {
            rows,
            parts,
            offsets,
        })
    }

    /// Convenience constructor from whole borrowed matrices.
    pub fn from_matrices(parts: impl IntoIterator<Item = &'a Matrix>) -> Result<Self> {
        Self::new(parts.into_iter().map(MatrixView::from))
    }

    /// Number of rows (shared by every part).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of columns across all parts.
    #[inline]
    pub fn cols(&self) -> usize {
        *self.offsets.last().expect("offsets always non-empty")
    }

    /// The borrowed parts, left to right.
    pub fn parts(&self) -> &[MatrixView<'a>] {
        &self.parts
    }

    /// Index of the part containing global column `col`, and the column's offset
    /// inside it.
    #[inline]
    fn locate(&self, col: usize) -> (usize, usize) {
        debug_assert!(col < self.cols());
        // partition_point returns the first offset > col; its predecessor's part
        // holds the column (zero-width parts are skipped by the strict compare).
        let j = self.offsets.partition_point(|&o| o <= col) - 1;
        (j, col - self.offsets[j])
    }

    /// Materialize the concatenation into an owned matrix. This is the *non*
    /// zero-copy fallback: it counts as an input stitch (see [`input_stitches`]).
    pub fn to_matrix(&self) -> Matrix {
        note_input_stitch();
        let mut out = Matrix::zeros(self.rows, self.cols());
        for (part, &off) in self.parts.iter().zip(self.offsets.iter()) {
            for i in 0..self.rows {
                out.row_mut(i)[off..off + part.cols()].copy_from_slice(part.row(i));
            }
        }
        out
    }

    /// `(X − shift·1ᵀ)ᵀ · B` where `X` is this view (`d × N`), `shift` an optional
    /// per-row (per-feature) offset of length `d`, and `B` is `d × r` — producing
    /// the `N × r` projection the `transform_view` serving path needs, without ever
    /// materializing `X` or a centered copy of it: the shift is applied while
    /// packing. Bit-identical to `stitched_centered.t_matmul(b)`.
    pub fn shifted_t_matmul(&self, shift: Option<&[f64]>, b: &Matrix) -> Result<Matrix> {
        if self.rows != b.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "shifted_t_matmul",
                lhs: (self.rows, self.cols()),
                rhs: b.shape(),
            });
        }
        if let Some(s) = shift {
            if s.len() != self.rows {
                return Err(LinalgError::InvalidArgument(format!(
                    "shift has {} entries but the view has {} rows",
                    s.len(),
                    self.rows
                )));
            }
        }
        let (m, n, k) = (self.cols(), b.cols(), self.rows);
        let mut out = Matrix::zeros(m, n);
        let flops = m * n * k;
        let pack_a = self.packer(shift);
        gemm::gemm(
            m,
            n,
            k,
            &mut out,
            parallel::threads_for_work(flops),
            false,
            &pack_a,
            &gemm::pack_panel_rows(b),
        );
        Ok(out)
    }

    /// Packing closure for the transposed left operand `(X − shift·1ᵀ)ᵀ`: lane `i`
    /// (a global column of the view) at step `p` (a feature row) reads
    /// `part[p][local] − shift[p]` straight from the borrowed part.
    fn packer<'s>(
        &'s self,
        shift: Option<&'s [f64]>,
    ) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + 's {
        move |dst, i0, valid, p0, kc| {
            if valid < gemm::MR {
                dst.fill(0.0);
            }
            // The MR lanes of one micro-panel may straddle part boundaries; resolve
            // each lane to (part, local column) once, then stream the k-range.
            let mut lanes = [(0usize, 0usize); gemm::MR];
            for (ii, lane) in lanes.iter_mut().enumerate().take(valid) {
                *lane = self.locate(i0 + ii);
            }
            for p in 0..kc {
                let s = shift.map_or(0.0, |s| s[p0 + p]);
                let dst_row = &mut dst[p * gemm::MR..p * gemm::MR + valid];
                for (ii, d) in dst_row.iter_mut().enumerate() {
                    let (part, local) = lanes[ii];
                    *d = self.parts[part].row(p0 + p)[local] - s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| ((i as f64) * 0.37 + seed).sin())
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn view_accessors() {
        let m = sample(3, 4, 0.0);
        let v = m.view();
        assert_eq!(v.shape(), (3, 4));
        assert_eq!(v.row(1), m.row(1));
        assert!(MatrixView::new(2, 2, &[0.0; 3]).is_err());
    }

    #[test]
    fn cols_view_concatenates() {
        let a = sample(3, 2, 0.1);
        let b = sample(3, 5, 0.2);
        let c = sample(3, 1, 0.3);
        let view = ColsView::from_matrices([&a, &b, &c]).unwrap();
        assert_eq!(view.rows(), 3);
        assert_eq!(view.cols(), 8);
        let stitched = view.to_matrix();
        let expected = a.hstack(&b).unwrap().hstack(&c).unwrap();
        assert_eq!(stitched, expected);
        assert!(ColsView::from_matrices([&a, &sample(2, 2, 0.0)]).is_err());
        assert!(ColsView::from_matrices(std::iter::empty::<&Matrix>()).is_err());
    }

    #[test]
    fn shifted_t_matmul_matches_stitched_bit_for_bit() {
        let a = sample(6, 3, 1.0);
        let b = sample(6, 4, 2.0);
        let proj = sample(6, 2, 3.0);
        let shift: Vec<f64> = (0..6).map(|i| (i as f64) * 0.11 - 0.3).collect();
        let view = ColsView::from_matrices([&a, &b]).unwrap();

        let zero_copy = view.shifted_t_matmul(Some(&shift), &proj).unwrap();
        let mut stitched = view.to_matrix();
        for i in 0..stitched.rows() {
            let s = shift[i];
            for v in stitched.row_mut(i) {
                *v -= s;
            }
        }
        assert_eq!(zero_copy, stitched.t_matmul(&proj).unwrap());

        // Unshifted case too.
        let plain = view.shifted_t_matmul(None, &proj).unwrap();
        assert_eq!(plain, view.to_matrix().t_matmul(&proj).unwrap());

        // Shape errors are reported.
        assert!(view.shifted_t_matmul(Some(&[0.0]), &proj).is_err());
        assert!(view.shifted_t_matmul(None, &sample(5, 2, 0.0)).is_err());
    }

    #[test]
    fn counters_are_monotone() {
        let before = input_stitches();
        let a = sample(2, 2, 0.0);
        let _ = ColsView::from_matrices([&a]).unwrap().to_matrix();
        assert_eq!(input_stitches(), before + 1);
        let c0 = matrix_clones();
        let _copy = a.clone();
        assert!(matrix_clones() > c0);
    }
}
