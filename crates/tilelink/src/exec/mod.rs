//! Kernel runtimes: functional (threads + real data) and timed (simulator).

pub mod functional;
pub mod timed;

pub use functional::{run_blocks, run_comm_compute};
pub use timed::{simulate_makespan_bounded_with, simulate_report_with, simulate_with, task_graph};
