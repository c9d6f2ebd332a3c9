//! The repository benchmark (see README.md): load-to-assignment runs of
//! the release `dinfomap` binary on four workloads (`e2e`), and one
//! traced pass per workload that times each layer's public functions
//! from outside (`e2e_layers`).

#![forbid(unsafe_code)]

pub mod compare;
pub mod host;
pub mod json;
pub mod measure;
pub mod run;
pub mod spec;
pub mod stats;
pub mod workload;
