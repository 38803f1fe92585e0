//! `ferrotcam trace` — run one instrumented row search and render the
//! observability output (human summary or NDJSON event stream).

use crate::CliError;
use ferrotcam_spice::trace::{self, TraceLevel};

/// Run the `trace` subcommand.
///
/// Accepts optional `<design> <stored-word> <query-bits>` positionals
/// (default: a 4-bit 2DG row with a one-bit mismatch) plus `--summary`
/// (default) or `--full` to pick the trace level, `--ndjson` to emit
/// the raw event stream, and `--out FILE` to write it to a file.
///
/// # Errors
/// Human-readable messages for bad arguments, simulation failures, or
/// an unwritable `--out` path.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut positional = Vec::new();
    let mut ndjson = false;
    let mut level_flag = None;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ndjson" => ndjson = true,
            "--full" => level_flag = Some(TraceLevel::Full),
            "--summary" => level_flag = Some(TraceLevel::Summary),
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| "--out needs a file path".to_string())?
                        .clone(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown trace flag {other:?}").into());
            }
            other => positional.push(other.to_string()),
        }
    }

    let (design, stored, query) = match positional.len() {
        0 => ("2dg".to_string(), "0101".to_string(), "0111".to_string()),
        3 => (
            positional[0].clone(),
            positional[1].clone(),
            positional[2].clone(),
        ),
        _ => {
            return Err(
                "usage: ferrotcam trace [<design> <stored-word> <query-bits>] \
                 [--summary|--full] [--ndjson] [--out FILE]"
                    .into(),
            );
        }
    };
    let design = crate::commands::parse_design(&design)?;
    let stored = crate::commands::parse_word(&stored)?;
    let query = crate::commands::parse_query(&query, stored.len())?;
    if design.is_two_step() && stored.len() % 2 != 0 {
        return Err("1.5T designs pair cells: use an even word length".into());
    }

    // Flags win over FERROTCAM_TRACE; default is summary so the command
    // always produces output even with tracing disabled in the env.
    let level = level_flag.unwrap_or_else(|| {
        std::env::var("FERROTCAM_TRACE")
            .ok()
            .and_then(|s| TraceLevel::parse(&s))
            .filter(|&l| l != TraceLevel::Off)
            .unwrap_or(TraceLevel::Summary)
    });
    trace::set_level(level);
    trace::reset();

    let mut sim = crate::commands::build(design, &stored, &query).map_err(CliError::Failed)?;
    let run = sim
        .run()
        .map_err(|e| CliError::Failed(format!("transient failed: {e}")))?;
    let stats = run.trace.stats();

    if ndjson {
        let events = trace::take_events();
        let body = trace::render_ndjson(&events);
        match out_path {
            Some(path) => {
                if let Some(dir) = std::path::Path::new(&path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).map_err(|e| {
                            CliError::Failed(format!("creating {}: {e}", dir.display()))
                        })?;
                    }
                }
                std::fs::write(&path, &body)
                    .map_err(|e| CliError::Failed(format!("writing {path}: {e}")))?;
                println!(
                    "wrote {} event(s) to {path} ({} accepted / {} rejected step(s) in SimStats)",
                    events.len(),
                    stats.accepted_steps,
                    stats.rejected_steps
                );
            }
            None => crate::commands::write_stdout(&body)?,
        }
    } else {
        let summary = trace::summary();
        println!(
            "{} row search: stored {stored}, level {level:?}",
            design.name()
        );
        print!("{}", summary.render());
        println!(
            "simstats cross-check: {} accepted / {} rejected step(s), {} newton iter(s)",
            stats.accepted_steps, stats.rejected_steps, stats.newton_iters
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<(), CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn summary_and_ndjson_paths_work() {
        run_args(&[]).unwrap();
        let dir = std::env::temp_dir().join("ferrotcam-trace-cmd-test");
        let path = dir.join("t.ndjson");
        run_args(&["--full", "--ndjson", "--out", path.to_str().unwrap()]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 0);
        for line in body.lines() {
            let v: serde_json::JsonValue = serde_json::from_str(line).unwrap();
            assert!(v.get("kind").is_some(), "line missing kind: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(run_args(&["--bogus"]).is_err());
        assert!(run_args(&["--out"]).is_err());
        assert!(run_args(&["2dg", "01"]).is_err());
    }
}
