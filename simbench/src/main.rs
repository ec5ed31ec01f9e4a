//! `simbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`
//!
//! Prints one line per metric, then a JSON result line. Exits 0 only
//! when every check passed.

use std::process::ExitCode;

use simbench::plan::{Workload, DEFAULT_SEED};
use simbench::{layers, report, Options};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: simbench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let opts = Options {
        workload,
        seed,
        seconds,
        scale: workload.scale(),
    };
    Ok((opts, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The simulator reads its host-parallelism settings from the
    // environment; the benchmark measures the default serial simulator
    // whatever the caller's environment says.
    for var in [
        "VTA_HOST_THREADS",
        "VTA_FABRIC_WORKERS",
        "VTA_MANAGER_SHARDS",
    ] {
        std::env::remove_var(var);
    }
    let result = if trace {
        simbench::traced(&opts)
    } else {
        simbench::end_to_end(&opts)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = opts.workload.name();
    println!(
        "workload {name} seed {} scale {:?} trace {}",
        opts.seed, opts.scale, trace as u8
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{}", report::line(name, m));
    }
    println!("metric {name} sim_digest = {:016x} [sim]", out.sim_digest);
    for e in &out.errors {
        println!("FAILED {name}: {e}");
    }
    let declared = if trace {
        layers::per_layer_names()
    } else {
        layers::end_to_end_names()
    };
    let reported: Vec<_> = out
        .metrics
        .iter()
        .filter(|m| declared.contains(&m.name))
        .cloned()
        .collect();
    println!(
        "{}",
        report::json(out.correct(), out.attempted, out.failed, &reported)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
