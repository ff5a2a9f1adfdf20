//! One module per reproduced table/figure, plus the ablations.

pub mod ablations;
pub mod fig3;
pub mod fig4;
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
];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<TableReport> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| run())
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// The ids README.md's experiment table names, row by row, in order.
    fn readme_ids() -> Vec<String> {
        const README: &str = include_str!("../../../../README.md");
        let table = README
            .split("\n| id | reproduces | what it shows |\n")
            .nth(1)
            .expect("README.md has the tables id table");
        table
            .lines()
            .take_while(|l| l.starts_with('|'))
            .filter(|l| l.starts_with("| `"))
            .flat_map(|l| {
                let ids = l.split('|').nth(1).expect("README row has an id cell");
                ids.split('`').skip(1).step_by(2).map(String::from)
            })
            .collect()
    }

    /// README.md's `tables` id table is the registry: every id it names
    /// runs, and every id that runs is documented, in the same order.
    #[test]
    fn readme_experiment_table_matches_the_registry() {
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            readme_ids(),
            registered,
            "README.md's tables id table needs exactly the ids of EXPERIMENTS"
        );
    }
}
