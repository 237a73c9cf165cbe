//! Runs experiments from the registry in-process: prints each result
//! table, writes `results/<stem>.csv` and `.json`, and gates on the
//! results.
//!
//! ```text
//! experiments --list             the experiment table
//! experiments all                every experiment
//! experiments smoke              the ones CI's bench-smoke job runs
//! experiments fig3 energy ...    the named ones, in that order
//! ```
//!
//! Exit status: 0 clean, 1 if any gate failed (an empty table, a NaN or
//! infinite cell, or an experiment's own gates), 2 on a usage error.
//! Scale comes from the `NMPIC_*` environment knobs
//! (`nmpic_bench::ExperimentOpts`).

use nmpic_bench::{listing, select, ExperimentOpts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", listing().render());
        return;
    }
    let selected = match select(&args) {
        Ok(selected) if !selected.is_empty() => selected,
        picked => {
            if let Err(unknown) = picked {
                eprintln!("error: {unknown}");
            }
            eprintln!("usage: experiments --list | all | smoke | <name>...\n");
            eprint!("{}", listing().render());
            std::process::exit(2);
        }
    };

    let opts = ExperimentOpts::from_env();
    eprintln!(
        "cap {} nnz per matrix (set NMPIC_QUICK=1 for the 20 000 smoke scale)",
        opts.max_nnz
    );
    let mut failures = Vec::new();
    for e in selected {
        println!("==================== {} ====================", e.name);
        let outcome = (e.run)(&opts);
        for s in &outcome.tables {
            println!("{}", s.title);
            println!("{}", s.table.render());
            for note in &s.notes {
                println!("{note}");
            }
            for path in s.table.write_results(s.stem).expect("write results files") {
                eprintln!("wrote {}", path.display());
            }
            let gate = s.table.gate();
            failures.extend(gate.iter().map(|f| format!("{}/{}: {f}", e.name, s.stem)));
        }
        failures.extend(outcome.failures.iter().map(|f| format!("{}: {f}", e.name)));
        println!();
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("all result gates passed");
}
