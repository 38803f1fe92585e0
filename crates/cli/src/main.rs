//! `ferrotcam` — command-line interface to the ferroTCAM toolkit.
//!
//! ```text
//! ferrotcam search <design> <stored-word> <query-bits>
//! ferrotcam characterize <design> [word-len]
//! ferrotcam margins <design>
//! ferrotcam idvg <sg|dg> [--csv]
//! ferrotcam export <design> <stored-word> <query-bits>
//! ferrotcam designs
//! ferrotcam analyze [--deny] [--json] [--root <dir>]
//! ferrotcam trace [<design> <stored-word> <query-bits>] [--ndjson]
//! ferrotcam bench [--smoke] [--bits N] [--reps N] [--design <d>]
//! ferrotcam serve-bench [--smoke] [--workload exact|approx|mixed|both] [--shards 1,2,4]
//! ```

use std::process::ExitCode;

/// How a command failed, which decides what the user is shown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CliError {
    /// The command line could not be parsed: the message, then the
    /// usage text.
    Usage(String),
    /// The command ran and failed (a failed gate, a simulation error,
    /// a closed pipe): the message alone.
    Failed(String),
}

/// Errors raised while reading arguments are usage errors; a command
/// maps its runtime failures to [`CliError::Failed`] explicitly.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        Self::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        Self::Usage(msg.to_string())
    }
}

mod analyze;
mod commands;
mod lint;
mod newton_bench;
mod serve_bench;
mod trace_cmd;

fn main() -> ExitCode {
    // Piping into `head` closes stdout early; exit quietly instead of
    // panicking on the resulting broken pipe (standard CLI behaviour).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
