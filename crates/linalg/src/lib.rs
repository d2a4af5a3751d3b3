//! Dense linear-algebra substrate for the TCCA reproduction.
//!
//! The paper's method (and every baseline it is compared against) is built on a small
//! set of dense linear-algebra primitives:
//!
//! * a column-major-agnostic dense [`Matrix`] type with the usual arithmetic,
//! * symmetric eigendecomposition (cyclic Jacobi) used for inverse square roots,
//!   PCA and spectral embedding,
//! * Cholesky factorization and triangular solves used for ridge/RLS systems and the
//!   kernel-TCCA whitening `(K² + εK) = LᵀL`,
//! * a thin SVD used by two-view CCA, CCA-MAXVAR and PCA,
//! * statistics helpers (centering, covariance, cross-covariance).
//!
//! Everything is implemented from scratch on `f64` so the whole reproduction has no
//! external linear-algebra dependency. The dense products all route through one
//! blocked, packed GEMM engine ([`gemm`]) with an explicitly register-tiled
//! microkernel; the borrowed [`MatrixView`]/[`ColsView`] types let the serving path
//! feed that engine straight from request payloads with zero input copies.

#![warn(missing_docs)]
#![warn(clippy::all)]
// Dense numerical kernels deliberately use explicit index loops over several arrays at
// once (rotations, factorizations); iterator rewrites of these obscure the math.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod error;
pub mod exact;
pub mod gemm;
mod matrix;
mod ops;
mod qr;
mod sketch;
mod solve;
mod stats;
mod svd;
mod view;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use exact::{ExactSum, JointMoments};
pub use matrix::Matrix;
pub use ops::{dot, norm2, normalize};
pub use qr::thin_qr;
pub use sketch::{gaussian_matrix, nystrom_eig, randomized_covariance_eig, LowRankEig, SketchRng};
pub use solve::{ridge_solve, solve_spd};
pub use stats::{
    center_columns, center_rows, column_means, covariance, cross_covariance, row_means,
};
pub use svd::Svd;
pub use view::{input_stitches, matrix_clones, note_input_stitch, ColsView, MatrixView};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
