//! The repo benchmark. See `README.md` next to this package.
//!
//! ```text
//! simrank_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                   [--out DIR] [--quick]
//! simrank_benchmark compare A B [--spec BENCHMARK.json]
//! ```

mod check;
mod compare;
mod gen;
mod host;
mod json;
mod probes;
mod report;
mod run;
mod serving;
mod spec;
mod stats;
mod trace;
mod traced;

use spec::{WorkloadSpec, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: simrank_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]\n       simrank_benchmark compare A B [--spec BENCHMARK.json]",
        names.join("|")
    )
}

/// `--flag value` pairs, in order.
type Flags = Vec<(String, String)>;

/// Splits the arguments into flags and bare words.
fn parse(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let (mut flags, mut words) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some("quick") => flags.push(("quick".to_string(), "1".to_string())),
            Some(name) => {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            }
            None => words.push(arg.clone()),
        }
    }
    Ok((flags, words))
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, words) = parse(&args)?;
    let flag = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let known = [
        "workload", "seed", "seconds", "trace", "out", "quick", "spec",
    ];
    if let Some((unknown, _)) = flags.iter().find(|(n, _)| !known.contains(&n.as_str())) {
        return Err(format!("unknown option --{unknown}\n{}", usage()));
    }

    if words.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = words.as_slice() else {
            return Err(usage());
        };
        let spec = PathBuf::from(flag("spec").unwrap_or("BENCHMARK.json"));
        let worse = compare::compare(&spec, a.as_ref(), b.as_ref())?;
        return Ok(if worse == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if !words.is_empty() {
        return Err(usage());
    }

    let name = flag("workload").ok_or_else(usage)?;
    let mut spec =
        WorkloadSpec::by_name(name).ok_or(format!("unknown workload {name}\n{}", usage()))?;
    let number = |name: &str, default: f64| -> Result<f64, String> {
        flag(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} {v} is not a number"))
        })
    };
    let seconds = number("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let seed = flag("seed").map_or(Ok(DEFAULT_SEED), |v| {
        v.parse()
            .map_err(|_| format!("--seed {v} is not a whole number"))
    })?;
    let trace = match flag("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let quick = flag("quick").is_some();
    if quick {
        spec = spec.quick();
        println!("QUICK MODE: tiny graphs, harness test only; these numbers are not comparable with anything");
    }

    // One worker, one closed-loop client and one paced writer is all the
    // reference box has cores for; on less the numbers mean something else.
    let nproc = host::nproc();
    if nproc < 2 {
        return Err(format!(
            "the benchmark needs at least 2 cores, this host has {nproc}"
        ));
    }
    assert!(
        spec.busy_threads() <= nproc,
        "{} keeps {} threads busy on {nproc} cores",
        spec.name,
        spec.busy_threads()
    );

    let ctx = run::Ctx {
        spec,
        seed,
        seconds,
        trace,
        quick,
        out_dir: PathBuf::from(flag("out").unwrap_or("benchmark/out")),
    };
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} nproc {nproc}",
        spec.name,
        u8::from(trace)
    );
    let report = run::run(&ctx);
    report.print(spec.name, trace);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
