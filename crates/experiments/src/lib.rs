//! # `risc1-experiments` — regenerators for every table and figure in the
//! paper's evaluation
//!
//! Each module reproduces one artifact of Patterson & Séquin's evaluation
//! (see DESIGN.md §3 for the experiment index). Every module exposes
//! `compute()` returning structured rows (unit-tested for the paper's
//! qualitative claims — who wins, by roughly what factor, where the
//! crossovers are) and `run()` rendering the table/figure as text.
//!
//! Run any experiment with its binary, e.g.:
//!
//! ```text
//! cargo run -p risc1-experiments --bin e6_exec_time
//! ```

pub mod ablations;
pub mod bench;
pub mod e10_area;
pub mod e11_pipeline_trace;
pub mod e12_instruction_mix;
pub mod e13_fault_recovery;
pub mod e14_checkpoint_overhead;
pub mod e15_fusion_ablation;
pub mod e1_complexity;
pub mod e2_instruction_set;
pub mod e3_formats;
pub mod e4_windows_figure;
pub mod e5_call_cost;
pub mod e6_exec_time;
pub mod e7_code_size;
pub mod e8_window_sweep;
pub mod e9_delay_slots;

/// Runs every experiment in order, concatenating their reports — the
/// "regenerate the whole evaluation" entry point used by EXPERIMENTS.md.
pub fn run_all() -> String {
    [
        e1_complexity::run(),
        e2_instruction_set::run(),
        e3_formats::run(),
        e4_windows_figure::run(),
        e5_call_cost::run(),
        e6_exec_time::run(),
        e7_code_size::run(),
        e8_window_sweep::run(),
        e9_delay_slots::run(),
        e10_area::run(),
        e11_pipeline_trace::run(),
        e12_instruction_mix::run(),
        e13_fault_recovery::run(),
        e14_checkpoint_overhead::run(),
        e15_fusion_ablation::run(),
        ablations::run(),
    ]
    .join("\n\n")
}
