//! The repository benchmark: seeded workloads against the NKA decision
//! engine and its quantum-program queries, measured end to end (in
//! process and over the socket server) and, in a separate traced run,
//! layer by layer. See `README.md` in this directory.

pub mod check;
pub mod gen;
pub mod inproc;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
