//! Statistics and host-speed calibration for the `perfbench` repository
//! benchmark; the benchmark itself is the `perfbench` binary
//! (`src/main.rs`).

pub mod calib;
pub mod stats;
