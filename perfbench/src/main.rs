use ferrotcam_perfbench::report::{END_TO_END, PER_LAYER};
use ferrotcam_perfbench::{env, serve};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let cleared = env::pin();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", env::record(&cleared));
    let kind = match args.workload.as_str() {
        "lookup" => serve::Kind::Lookup,
        "similarity" => serve::Kind::Similarity,
        "churn" => serve::Kind::Churn,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        serve::run_traced(kind, args.seed, args.seconds)
    } else {
        serve::run_e2e(kind, args.seed, args.seconds)
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.to_json(catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
