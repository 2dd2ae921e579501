//! Command line shared by the two binaries:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::workloads::{spec, Spec, SPECS};

pub struct Args {
    /// `None`: every workload, one after the other (for people; the driver
    /// always names one).
    pub workload: Option<&'static Spec>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced binary writes its spans.
    pub out_dir: String,
}

pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 1, seconds: 20.0, trace: false, out_dir: "benchmark/out".into() };
    let mut it = argv.skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                a.workload = Some(spec(&v).ok_or(format!("unknown workload {v}; one of {names:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--out-dir" => a.out_dir = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// Run `one` over the chosen workload (or all of them), printing each table
/// and, last, each result line. Any error ends the process without a result.
pub fn run(
    args: &Args,
    one: impl Fn(&'static Spec) -> Result<crate::report::Report, String>,
) -> std::process::ExitCode {
    let specs: Vec<&'static Spec> = args.workload.map_or(SPECS.iter().collect(), |s| vec![s]);
    for s in specs {
        match one(s) {
            Ok(r) => {
                print!("{}", r.table());
                println!("{}", r.json());
            }
            Err(e) => {
                eprintln!("benchmark check failed on {}: {e}", s.name);
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    std::process::ExitCode::SUCCESS
}
