//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--fast] all          # every experiment
//! experiments [--fast] e3 e5 ...    # selected experiments
//! experiments --list                # list experiment ids
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if args.iter().any(|a| a == "--list") {
        for id in medsec_bench::ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        medsec_bench::ALL_EXPERIMENTS.to_vec()
    } else {
        ids
    };

    for id in &selected {
        match medsec_bench::run(id, fast) {
            Some(report) => {
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
