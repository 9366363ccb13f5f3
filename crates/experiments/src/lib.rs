//! Experiment drivers that regenerate every table and figure of the
//! Quasar paper's evaluation (§6) against the simulated cluster.
//!
//! Each module corresponds to one figure/table (see DESIGN.md §4 for the
//! full index) and exposes `run(scale) -> <result struct>` whose
//! `Display` prints the same rows/series the paper reports. The
//! `quasar-experiments` binary dispatches by id.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not the authors' testbed); the *shape* — who wins, by what factor,
//! where crossovers fall — is what these drivers reproduce, and
//! EXPERIMENTS.md records paper-vs-measured for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptation;
pub mod bench_kernels;
pub mod bench_sim;
pub mod fig1;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod fig910;
pub mod qos_report;
pub mod report;
pub mod table2;
pub mod validate;

use std::sync::OnceLock;

use quasar_core::HistorySet;
use quasar_workloads::PlatformCatalog;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk sizes for tests, benches, and quick looks (minutes of
    /// simulated time, tens of workloads).
    Quick,
    /// The paper's scenario sizes (hours-to-days of simulated time,
    /// hundreds of workloads). Slower to run.
    Full,
}

impl Scale {
    /// Parses `"quick"`/`"full"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// The shared offline CF history for the local (Table 1) catalog,
/// bootstrapped once per process.
pub fn local_history() -> &'static HistorySet {
    static HISTORY: OnceLock<HistorySet> = OnceLock::new();
    HISTORY.get_or_init(|| HistorySet::bootstrap(&PlatformCatalog::local(), 24, 0x0FF1))
}

/// The shared offline CF history for the EC2 catalog.
pub fn ec2_history() -> &'static HistorySet {
    static HISTORY: OnceLock<HistorySet> = OnceLock::new();
    HISTORY.get_or_init(|| HistorySet::bootstrap(&PlatformCatalog::ec2(), 24, 0x0FF2))
}

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "fig1",
    "fig2",
    "table1",
    "table2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "adaptation",
];

/// Runs one experiment by id, returning its printed report.
/// Equivalent to [`run_experiment_with`] at 1 thread.
///
/// `"fig7"` reruns the Fig. 6 scenario and prints its utilization view;
/// `"fig9"` also covers Fig. 10 (same 24-hour run), and `"fig5"` also
/// prints Table 3. Unknown ids return `None`.
pub fn run_experiment(id: &str, scale: Scale) -> Option<String> {
    run_experiment_with(id, scale, 1)
}

/// [`run_experiment`] with an explicit worker-thread count. Every
/// experiment fans its replications (days, jobs, manager runs, waves)
/// out over the deterministic parallel runner; the report text is
/// bit-identical for every `threads` value. (`fig3`'s decision-time
/// columns are the one live wall-clock measurement — they are masked
/// when [`report::mask_live_timings`] is set, as in the CI smoke that
/// compares stdout across thread counts.)
pub fn run_experiment_with(id: &str, scale: Scale, threads: usize) -> Option<String> {
    let out = match id {
        "fig1" => fig1::run_with(scale, threads).to_string(),
        "fig2" => fig2::run_with(scale, threads).to_string(),
        "table1" => fig2::table1(),
        "table2" => table2::run_with(scale, threads).to_string(),
        "fig3" => fig3::run_with(scale, threads).to_string(),
        "fig5" | "table3" => fig5::run_with(scale, threads).to_string(),
        "fig6" => fig67::run_with(scale, threads).to_string(),
        "fig7" => fig67::run_with(scale, threads).utilization_report(),
        "fig8" => fig8::run_with(scale, threads).to_string(),
        "fig9" | "fig10" => fig910::run_with(scale, threads).to_string(),
        "fig11" => fig11::run_with(scale, threads).to_string(),
        "adaptation" => adaptation::run_with(scale, threads).to_string(),
        _ => return None,
    };
    Some(out)
}
