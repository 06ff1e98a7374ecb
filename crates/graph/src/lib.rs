//! # pmss-graph — graph substrate and the Louvain case study
//!
//! The paper validates its GPU power characterization on a real HPC graph
//! application: GPU-based Louvain community detection over networks ranging
//! from 3 K to 8 M edges (Sec. III-B-c, Sec. IV-C, Fig. 7).  This crate
//! provides everything that experiment needs, built from scratch:
//!
//! * [`csr`] — compressed sparse row storage with degree statistics;
//! * [`gen`] — network generators replacing the SNAP datasets
//!   (Barabási–Albert and RMAT for power-law "social" networks, a perturbed
//!   lattice for bounded-degree "road" networks, Erdős–Rényi and planted
//!   partitions for testing);
//! * [`mod@louvain`] — a full, deterministic multi-level Louvain
//!   implementation;
//! * `gpu_map` — the degree-distribution-based thread-mapping model that
//!   turns Louvain levels into GPU kernel phases;
//! * [`case_study`] — the Fig. 7 driver (frequency and power-cap sweeps,
//!   energy-saving summaries);
//! * [`analysis`] — structural measurements (components, degree histograms,
//!   power-law tails, clustering) validating the generators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod case_study;
pub mod csr;
pub mod gen;
mod gpu_map;
pub mod louvain;

pub use case_study::{CaseScale, CaseStudy};
pub use csr::Csr;
pub use louvain::{louvain, modularity};
