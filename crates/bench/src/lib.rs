//! # dsmpm2-bench — benchmark harness for the DSM-PM2 reproduction
//!
//! See the `table3`, `table4`, `fig4_tsp`, `fig5_coloring`, `micro_pm2` and
//! `ablations` binaries (each regenerates one table or figure of the paper)
//! and the Criterion benches under `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod handoff;
pub mod report;
pub mod transport_probe;

pub use handoff::{measure_handoff, measure_handoff_mode, HandoffMeasurement};
pub use report::{markdown_table, write_json};
pub use transport_probe::{probe_fan_in, probe_single_transfer};
