//! Synthetic sparse-matrix generators standing in for the SuiteSparse
//! Matrix Collection.
//!
//! The paper evaluates on all 2893 SuiteSparse matrices (750 GB of
//! downloads). What actually drives the results is the *structure* of each
//! matrix: its row-length distribution decides which DASP category rows
//! land in, and the locality of its column indices decides the cost of the
//! random accesses to `x`. This crate generates matrices spanning those
//! axes:
//!
//! * [`banded`] / [`stencil2d`] — FEM/PDE discretizations (medium rows,
//!   high locality): `pwtk`, `cant`, `consph`, `mc2depi`, ...
//! * [`rmat`] — Kronecker power-law graphs (skewed rows, poor locality):
//!   `kron_g500`, `wiki-Talk`-like tails, web crawls.
//! * [`uniform_random`] — uniformly scattered nonzeros.
//! * [`diagonal_bands`] — (block-)diagonal matrices with very short rows:
//!   `rel19`-like, `mc2depi`.
//! * [`circuit_like`] — mostly-short rows plus a few dense rows/columns:
//!   `FullChip`, `circuit5M`, `dc2`, `ASIC_680k`.
//! * [`rectangular_long`] — few rows, each very long: `bibd_20_10`,
//!   `lp_osa_60`-like LP matrices.
//! * [`block_dense`] — small dense blocks (BSR-friendly): `mip1`-like.
//!
//! [`representative`] instantiates scaled-down analogs of the paper's 21
//! Table-2 matrices, and [`corpus`] samples a full synthetic collection used
//! where the paper sweeps all of SuiteSparse. [`suite_matrices`] is the
//! fixed four-class set the `dasp-bench` snapshots are recorded on.

//! # Example
//!
//! ```
//! // A power-law graph and its row statistics.
//! let m = dasp_matgen::rmat(8, 4, 7);
//! let stats = dasp_sparse::RowStats::of(&m);
//! assert_eq!(m.rows, 256);
//! assert!(stats.max_len > stats.mean_len as usize);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod generators;
mod representative;
mod suite;

pub use corpus::{corpus, corpus_with, CorpusSpec, NamedMatrix};
pub use generators::{
    banded, block_dense, circuit_like, dense_vector, diagonal_bands, kronecker, rectangular_long,
    rmat, stencil2d, stencil3d, uniform_random, uniform_random_var,
};
pub use representative::{representative, representative_names, RepresentativeMatrix};
pub use suite::{bench_matrices, suite_matrices};
