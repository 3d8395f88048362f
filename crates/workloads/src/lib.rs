//! # swf-workloads
//!
//! The paper's workload, for real: dense integer matrices (350×350, entries
//! in [-100, 100]), bit-identical matmul kernels (a naive reference and
//! one register-tiled body compiled per x86 ISA level, whole or over row
//! panels), a binary codec for files and pass-by-value request
//! payloads, workflow-shape generators (Fig. 3 chains, Fig. 4 concurrent
//! sets with random environment assignment), and a compute-time calibration
//! harness connecting real kernel runtime to the simulator's charged time.

#![warn(missing_docs)]

pub mod codec;
pub mod generator;
pub mod matmul;
pub mod matrix;
pub mod task;

pub use codec::{decode, decode_pair, encode, encode_pair, encoded_size, CodecError};
pub use generator::{
    chain_workflow, concurrent_workflows, ChainTask, ChainWorkflow, EnvMix, ExecEnv,
};
pub use matmul::{matmul, Kernel};
pub use matrix::Matrix;
pub use task::{multiply_encoded, multiply_pair_payload, ComputeModel};
