//! Experiment implementations, one function per paper figure/table, and
//! [`FIGURES`], the one list of them the `figs` bench target and
//! `sim_core`'s wall-time ledger both run.

pub mod cache_fig;
pub mod fault_insim;
pub mod macro_figs;
pub mod micro_figs;
pub mod obs;
pub mod openloop;
pub mod scaleout;
pub mod summary;
pub mod teardown;
pub mod txn_fig;

pub use cache_fig::fig_cache;
pub use fault_insim::{fig12_in_sim, insim_cell, measure_clean, CleanCosts, InSimCell};
pub use macro_figs::{fig10, fig11, fig12, fig20};
pub use micro_figs::{fig08, fig09, fig13, fig14_15_16, fig17, fig18, fig19};
pub use obs::fig_obs;
pub use openloop::{fig_openloop, openloop_curve, openloop_point};
pub use scaleout::{fig_scaleout, scaleout_point, ScaleoutPoint};
pub use summary::{
    abl_ddio, abl_flush_impl, abl_log_threshold, abl_replication, ablations, case_fig7a, table2,
};
pub use teardown::{build_run_drop, proc_status_kib};
pub use txn_fig::fig_txn;

use crate::report::Table;
use crate::runner::Scale;

/// A registry entry: the name `figs` runs it by, and the sweep that
/// builds its tables.
pub type Figure = (&'static str, fn(Scale) -> Vec<Table>);

/// Every table and figure the harness regenerates, in the order `figs`
/// runs them under `--bench` with no name.
pub const FIGURES: &[Figure] = &[
    ("fig08_throughput", fig08),
    ("fig09_tail_latency", fig09),
    ("fig10_pagerank", fig10),
    ("fig11_ycsb", fig11),
    ("fig12_failure_recovery", fig12),
    ("fig12_in_sim", fig12_in_sim),
    ("fig13_object_size", fig13),
    ("fig14_15_16_load", fig14_15_16),
    ("fig17_concurrent_senders", fig17),
    ("fig18_access_pattern", fig18),
    ("fig19_batching", fig19),
    ("fig20_breakdown", fig20),
    ("table2_summary", table2),
    ("ablations", ablations),
    ("fig_scaleout", fig_scaleout),
    ("fig_obs", fig_obs),
    ("fig_openloop", fig_openloop),
    ("fig_cache", fig_cache),
    ("fig_txn", fig_txn),
];

/// What a `figs` command line asks for.
#[derive(Debug)]
pub enum FigsCommand {
    /// `--list`: print every entry's name.
    List,
    /// Run these entries in order: the ones named, every entry, or none.
    Run(Vec<Figure>),
}

/// Parse the `figs` target's arguments (program name excluded): entry
/// names, `--list`, `--journal` (read by
/// [`journal_enabled`](crate::journal_enabled)) and the `--bench` that
/// `cargo bench` passes. With no name, `--bench` runs every entry and
/// its absence runs none: `cargo test` starts a `harness = false` bench
/// with no arguments. An unknown name or flag is an error that lists the
/// names.
pub fn parse_figs_args(args: &[String]) -> Result<FigsCommand, String> {
    let (mut list, mut bench, mut named) = (false, false, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--journal" => {}
            "--bench" => bench = true,
            "--list" => list = true,
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some(&entry) => named.push(entry),
                None => {
                    let names: Vec<_> = FIGURES.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "figs: unknown figure or flag {name:?}; flags are --journal and \
                         --list, figures are: {}",
                        names.join(" ")
                    ));
                }
            },
        }
    }
    Ok(if list {
        FigsCommand::List
    } else if named.is_empty() && bench {
        FigsCommand::Run(FIGURES.to_vec())
    } else {
        FigsCommand::Run(named)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigsCommand, String> {
        parse_figs_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn run_names(args: &[&str]) -> Vec<&'static str> {
        match parse(args) {
            Ok(FigsCommand::Run(figs)) => figs.iter().map(|(n, _)| *n).collect(),
            other => panic!("{args:?} parsed as {other:?}"),
        }
    }

    /// A second entry under a name could never be run.
    #[test]
    fn figure_names_are_unique() {
        for (i, (name, _)) in FIGURES.iter().enumerate() {
            assert!(
                !FIGURES[..i].iter().any(|(n, _)| n == name),
                "{name:?} is registered twice"
            );
        }
    }

    /// Every entry's own asserts, the paper's claims among them, hold at
    /// smoke scale.
    #[test]
    fn every_figure_holds_its_claims_at_smoke_scale() {
        for (name, run) in FIGURES {
            assert!(!run(Scale::smoke()).is_empty(), "{name} built no table");
        }
    }

    #[test]
    fn figs_accepts_names_and_its_flags_and_rejects_the_rest() {
        let all: Vec<_> = FIGURES.iter().map(|(n, _)| *n).collect();
        assert!(
            run_names(&[]).is_empty(),
            "cargo test's empty argument list"
        );
        assert!(run_names(&["--journal"]).is_empty());
        assert_eq!(run_names(&["--bench"]), all);
        assert_eq!(run_names(&["--journal", "--bench"]), all);
        assert_eq!(
            run_names(&["fig20_breakdown", "fig_txn", "--journal", "--bench"]),
            ["fig20_breakdown", "fig_txn"]
        );
        assert_eq!(run_names(&["fig12_in_sim"]), ["fig12_in_sim"]);
        assert!(matches!(
            parse(&["--list", "--bench"]),
            Ok(FigsCommand::List)
        ));
        for bad in [
            &["--in-sim"][..],
            &["--test"],
            &["fig12_failure_recovery", "--in-sim"],
            &["fig_tx"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unknown figure or flag"), "{err}");
            for name in &all {
                assert!(err.contains(name), "{err} does not list {name}");
            }
        }
    }

    /// Every `--bench figs -- …` command the docs and CI give parses:
    /// each name is an entry of [`FIGURES`] and each flag is one `figs`
    /// takes.
    #[test]
    fn documented_figs_commands_name_registered_figures() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for file in [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            ".github/workflows/ci.yml",
        ] {
            let text = std::fs::read_to_string(format!("{root}/{file}"))
                .unwrap_or_else(|e| panic!("read {file}: {e}"))
                .replace("\\\n", " ");
            let commands: Vec<&str> = text.split("--bench figs --").skip(1).collect();
            assert!(!commands.is_empty(), "{file} gives no figs command");
            for rest in commands {
                // The arguments run to the end of the command: a line
                // break, a closing backtick, a redirect or a comment.
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || " \t_-".contains(c)))
                    .unwrap_or(rest.len());
                let args: Vec<String> = rest[..end].split_whitespace().map(String::from).collect();
                if let Err(e) = parse_figs_args(&args) {
                    panic!("{file}: `--bench figs -- {}`: {e}", rest[..end].trim());
                }
            }
        }
    }
}
