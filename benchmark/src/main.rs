//! End-to-end binary: untraced runs through `PepcNode`.

use pepc_benchmark::{cli, workloads};

fn main() -> std::process::ExitCode {
    let args = match cli::parse(std::env::args()) {
        Ok(a) if a.trace => {
            eprintln!("--trace 1 is served by pepc-benchmark-trace (benchmark/run.sh picks the binary)");
            return std::process::ExitCode::FAILURE;
        }
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    cli::run(&args, |spec| workloads::run_end_to_end(spec, args.seed, args.seconds))
}
