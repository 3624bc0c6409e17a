//! Runs the entries of the figure registry `prdma_bench::exp::FIGURES`:
//! the ones named after `--`, in order, or all of them under `cargo
//! bench`; under `cargo test`, none. The `prdma_bench` crate docs
//! describe the command line.
use prdma_bench::exp::{parse_figs_args, FigsCommand, FIGURES};
use prdma_bench::{emit_all, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_figs_args(&args) {
        Ok(FigsCommand::List) => FIGURES.iter().for_each(|(name, _)| println!("{name}")),
        Ok(FigsCommand::Run(figures)) if figures.is_empty() => {
            println!("figs: no figure named and no --bench: running none (--list names them)");
        }
        Ok(FigsCommand::Run(figures)) => {
            let scale = Scale::from_env();
            for (_, run) in figures {
                emit_all(run(scale));
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
