//! # `risc1-experiments` — regenerators for every table and figure in the
//! paper's evaluation
//!
//! Each module reproduces one artifact of Patterson & Séquin's evaluation
//! (see DESIGN.md §3 for the experiment index). Every module exposes
//! `compute()` returning structured rows (unit-tested for the paper's
//! qualitative claims — who wins, by roughly what factor, where the
//! crossovers are) and `run()` rendering the table/figure as text.
//!
//! [`EXPERIMENTS`] lists them once; run any of them through the CLI, e.g.:
//!
//! ```text
//! cargo run --release -p risc1-cli --bin risc1 -- exp e6
//! ```

pub mod ablations;
pub mod e10_area;
pub mod e11_pipeline_trace;
pub mod e12_instruction_mix;
pub mod e13_fault_recovery;
pub mod e14_checkpoint_overhead;
pub mod e1_complexity;
pub mod e2_instruction_set;
pub mod e3_formats;
pub mod e4_windows_figure;
pub mod e5_call_cost;
pub mod e6_exec_time;
pub mod e7_code_size;
pub mod e8_window_sweep;
pub mod e9_delay_slots;

/// An experiment: its `risc1 exp` id and the function that renders its
/// report.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment, in report order. [`run_all`], `risc1 exp` and
/// `risc1 list` all walk this table.
pub const EXPERIMENTS: [Experiment; 15] = [
    ("e1", e1_complexity::run),
    ("e2", e2_instruction_set::run),
    ("e3", e3_formats::run),
    ("e4", e4_windows_figure::run),
    ("e5", e5_call_cost::run),
    ("e6", e6_exec_time::run),
    ("e7", e7_code_size::run),
    ("e8", e8_window_sweep::run),
    ("e9", e9_delay_slots::run),
    ("e10", e10_area::run),
    ("e11", e11_pipeline_trace::run),
    ("e12", e12_instruction_mix::run),
    ("e13", e13_fault_recovery::run),
    ("e14", e14_checkpoint_overhead::run),
    ("ablations", ablations::run),
];

/// Runs every experiment in order, concatenating their reports — the
/// "regenerate the whole evaluation" entry point behind `risc1 exp all`.
pub fn run_all() -> String {
    EXPERIMENTS
        .iter()
        .map(|(_, run)| run())
        .collect::<Vec<_>>()
        .join("\n\n")
}
