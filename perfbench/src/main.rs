//! Command line: `perfbench --workload <name> [--seed <n>] [--seconds <s>]
//! [--trace <0|1>] [--print-digests]`.
//!
//! Prints a header (host, sizes, verification), one line per metric with
//! its unit, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use perfbench::verify::{self, DEFAULT_SEED};
use perfbench::{run, Options, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--print-digests]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_digests = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => Workload::parse(&value)
                .map(|w| workload = Some(w))
                .is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s >= 0.0)
                .map(|v| seconds = v)
                .is_some(),
            "--trace" => {
                trace = value == "1";
                value == "0" || value == "1"
            }
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let recorded = seed == DEFAULT_SEED && !print_digests;
    let nproc = rt_experiments::available_workers();
    let opts = Options {
        workload,
        seed,
        seconds: if print_digests { 0.0 } else { seconds },
        trace: trace && !print_digests,
        sizes: Sizes::default_for(workload, nproc),
        expected: recorded.then(|| verify::recorded(workload.name())),
        nproc,
        out_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    let report = run(&opts);
    if print_digests {
        for (cell, digest) in &report.cell_digests {
            println!("    ({cell:?}, {digest:#018x}),");
        }
        return ExitCode::SUCCESS;
    }
    for line in &report.header {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("# metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
