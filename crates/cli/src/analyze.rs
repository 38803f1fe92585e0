//! `ferrotcam analyze`: run the concurrency static analyzer over the
//! serve layer's sources, without compiling or executing them.
//!
//! The counterpart of `ferrotcam lint` one level up the stack: `lint`
//! audits the netlists the toolkit *generates*, `analyze` audits the
//! concurrent Rust that *serves* them. With `--deny` any deny-severity
//! diagnostic fails the command (the CI configuration), and `--json`
//! emits one machine-readable report. `--root` overrides workspace
//! discovery, which otherwise walks up from the current directory to
//! the first ancestor holding the checked-in registry.

use crate::CliError;
use ferrotcam_analysis::{analyze_workspace, REGISTRY_PATH};
use std::path::PathBuf;

/// Walk up from the current directory to the first ancestor that
/// contains the analysis registry — the workspace root.
fn discover_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("reading current dir: {e}"))?;
    for dir in start.ancestors() {
        if dir.join(REGISTRY_PATH).is_file() {
            return Ok(dir.to_path_buf());
        }
    }
    Err(format!(
        "no `{REGISTRY_PATH}` found in {} or any ancestor; run from the \
         workspace or pass --root <dir>",
        start.display()
    ))
}

/// Run the analyze command. See module docs for the flags.
///
/// # Errors
/// Bad flags, an unreadable source tree or registry, and (with
/// `--deny`) any deny-severity diagnostic.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut deny = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--root" => {
                let dir = it
                    .next()
                    .ok_or_else(|| "--root requires a directory argument".to_string())?;
                root = Some(PathBuf::from(dir));
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown analyze flag {other:?} (expected --deny, --json, --root <dir>)"
                )))
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => discover_root().map_err(CliError::Failed)?,
    };
    let report = analyze_workspace(&root).map_err(CliError::Failed)?;
    if json {
        let mut body = report.to_json();
        body.push('\n');
        crate::commands::write_stdout(&body)?;
    } else {
        crate::commands::write_stdout(&report.render_human())?;
    }
    if deny && report.num_deny() > 0 {
        return Err(CliError::Failed(format!(
            "analyze --deny: {} deny-severity diagnostic(s)",
            report.num_deny()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace root, two levels above this crate's manifest.
    fn root_flag() -> Vec<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        vec!["--root".to_string(), root.display().to_string()]
    }

    #[test]
    fn workspace_is_clean_under_deny() {
        let mut args = root_flag();
        args.push("--deny".to_string());
        run(&args).expect("serve sources must analyze clean");
    }

    #[test]
    fn json_mode_runs_clean() {
        let mut args = root_flag();
        args.push("--json".to_string());
        args.push("--deny".to_string());
        run(&args).expect("json analyze");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(run(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn missing_root_argument_is_rejected() {
        assert!(run(&["--root".to_string()]).is_err());
    }

    #[test]
    fn bad_root_is_a_registry_error() {
        let err = run(&[
            "--root".to_string(),
            "/nonexistent-ferrotcam-root".to_string(),
        ])
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("registry")),
            "unexpected error: {err:?}"
        );
    }
}
