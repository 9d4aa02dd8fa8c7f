//! Workload generation for TierBase experiments.
//!
//! Reimplements the parts of YCSB (Cooper et al., SoCC '10) the paper's
//! evaluation depends on — zipfian/uniform/latest key choosers, the
//! standard Workload A/B/C mixes, and a load phase — plus the synthetic
//! datasets (Cities-style, machine-generated KV1/KV2) and the
//! record-and-replay trace machinery used by the cost-optimization
//! framework (§5.3) and the production case studies (§6.5).

#![deny(unsafe_code)]

pub mod dataset;
pub mod dist;
pub mod persist;
pub mod trace;
pub mod ycsb;

pub use dataset::{CitiesDataset, Dataset, DatasetKind, MachineDataset};
pub use dist::{KeyChooser, LatestChooser, ScrambledZipfian, UniformChooser, ZipfianGen};
pub use persist::{decode_trace, encode_trace, load_trace, save_trace};
pub use trace::{Op, Trace, TraceStats};
pub use ycsb::{OpKind, Workload, WorkloadSpec};
