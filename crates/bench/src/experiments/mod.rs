//! One module per reproduced table/figure, plus the ablations.

pub mod ablations;
pub mod broadcast;
pub mod directory;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod hitpath;
pub mod store;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table56;

use crate::report::TableReport;

/// An experiment's id and its runner.
pub type Experiment = (&'static str, fn() -> TableReport);

/// Every experiment the `tables` binary runs, by id, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1::run),
    ("table2", table2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig4-sim", fig4::run_sim),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table56::run_table5),
    ("table6", table56::run_table6),
    ("policies", ablations::run_policies),
    ("policies-hetero", ablations::run_policies_hetero),
    ("falsemiss", ablations::run_false_consistency),
    ("locking", ablations::run_locking),
    ("broadcast", broadcast::run),
    ("directory", directory::run),
    ("faults", faults::run),
    ("hitpath", hitpath::run),
    ("store", store::run),
];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<TableReport> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| run())
}
