//! Shared workload generators and experiment drivers for the benchmark
//! harness. Each table/figure binary (`table1`, `table2`, `figure1`,
//! `figure3`, `ablation`) builds on these.

pub mod figure3;
pub mod workload;

pub use figure3::{run_figure3_cell, Figure3Cell, Figure3Grid};
pub use workload::{table1_run_state, table1_series};
