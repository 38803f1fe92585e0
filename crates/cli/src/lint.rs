//! `ferrotcam lint`: run the ERC static analyzer over every netlist the
//! toolkit generates, without simulating any of them.
//!
//! The default corpus is one search row per design; `--all` widens it to
//! the 1.5T divider cells, full M×N arrays and 3-step write arrays. With
//! `--deny` any error-severity diagnostic fails the command (the CI
//! configuration), and `--json` emits one JSON report per netlist.

use crate::CliError;
use ferrotcam::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use ferrotcam::margins::build_divider_circuit;
use ferrotcam::{build_array_write, build_full_array, build_search_row, TernaryWord};
use ferrotcam_device::fefet::VthState;
use ferrotcam_spice::erc;
use ferrotcam_spice::Circuit;
use std::fmt::Write as _;

/// One generated netlist with its provenance label.
struct Entry {
    label: String,
    circuit: Circuit,
}

fn word(s: &str) -> TernaryWord {
    s.parse().expect("literal ternary word")
}

/// Representative stored word / query per design: both matching and
/// mismatching cells, plus an 'X' so every stored state appears.
fn row_entry(kind: DesignKind) -> Result<Entry, String> {
    let params = DesignParams::preset(kind);
    let stored = word("01X0");
    let query = [false, true, true, true];
    let sim = build_search_row(
        &params,
        &stored,
        &query,
        SearchTiming::default(),
        RowParasitics::default(),
        kind.is_two_step(),
    )
    .map_err(|e| format!("{}-row: build failed: {e}", kind.name()))?;
    Ok(Entry {
        label: format!("{}-row", kind.name()),
        circuit: sim.circuit,
    })
}

/// Build the lint corpus. `all` adds divider cells, full arrays and
/// write arrays for the 1.5T designs on top of the per-design rows.
fn corpus(all: bool) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for kind in DesignKind::ALL {
        entries.push(row_entry(kind)?);
    }
    if !all {
        return Ok(entries);
    }
    for kind in [DesignKind::T15Sg, DesignKind::T15Dg] {
        let params = DesignParams::preset(kind);
        for state in [VthState::Lvt, VthState::Mvt, VthState::Hvt] {
            for query in [false, true] {
                let (ckt, _) = build_divider_circuit(&params, params.fefet(), state, query)
                    .map_err(|e| format!("{}-divider: build failed: {e}", kind.name()))?;
                entries.push(Entry {
                    label: format!("{}-divider-{state:?}-q{}", kind.name(), u8::from(query)),
                    circuit: ckt,
                });
            }
        }
        let rows = [word("01X0"), word("1010"), word("XXXX")];
        let query = [false, true, true, false];
        let arr = build_full_array(
            &params,
            &rows,
            &query,
            &SearchTiming::default(),
            &RowParasitics::default(),
            true,
        )
        .map_err(|e| format!("{}-array: build failed: {e}", kind.name()))?;
        entries.push(Entry {
            label: format!("{}-array-3x4", kind.name()),
            circuit: arr.circuit,
        });
        let initial = [word("1111"), word("0000"), word("XX00")];
        let wckt = build_array_write(&params, &initial, 1, &word("01X1"))
            .map_err(|e| format!("{}-write-array: build failed: {e}", kind.name()))?;
        entries.push(Entry {
            label: format!("{}-write-array-3x4", kind.name()),
            circuit: wckt,
        });
    }
    Ok(entries)
}

/// Run the lint command. See module docs for the flags.
///
/// # Errors
/// Bad flags, netlist construction failures, and (with `--deny`) any
/// error-severity ERC diagnostic.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let mut all = false;
    let mut deny = false;
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--all" => all = true,
            "--deny" => deny = true,
            "--json" => json = true,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown lint flag {other:?} (expected --all, --deny, --json)"
                )))
            }
        }
    }

    let entries = corpus(all).map_err(CliError::Failed)?;
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut first_json = true;
    // JSON output goes through a checked stdout write at the end: the
    // machine-readable mode must exit non-zero (not panic) when the
    // consumer closes the pipe early.
    let mut json_body = String::new();
    if json {
        json_body.push_str("[\n");
    }
    for e in &entries {
        let report = match erc::check(&e.circuit) {
            Ok(r) => r,
            Err(err) => return Err(CliError::Failed(format!("{}: {err}", e.label))),
        };
        total_errors += report.num_errors();
        total_warnings += report.num_warnings();
        if json {
            let sep = if first_json { "" } else { "," };
            first_json = false;
            let _ = writeln!(
                json_body,
                "{sep}{{\"netlist\":\"{}\",\"report\":{}}}",
                e.label,
                report.to_json()
            );
        } else {
            let verdict = if report.has_errors() {
                "FAIL"
            } else if report.is_clean() {
                "ok"
            } else {
                "warn"
            };
            println!(
                "{verdict:<5} {:<28} {} node(s), {} device/element(s)",
                e.label,
                e.circuit.num_nodes() - 1,
                e.circuit.elements().len() + e.circuit.devices().len()
            );
            for d in report.diagnostics() {
                println!("      {d}");
            }
        }
    }
    if json {
        json_body.push_str("]\n");
        crate::commands::write_stdout(&json_body)?;
    } else {
        println!(
            "linted {} netlist(s): {total_errors} error(s), {total_warnings} warning(s)",
            entries.len()
        );
    }
    if deny && total_errors > 0 {
        return Err(CliError::Failed(format!(
            "lint --deny: {total_errors} error-severity diagnostic(s)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_corpus_is_clean_under_deny() {
        run(&["--deny".to_string()]).expect("row netlists must lint clean");
    }

    #[test]
    fn full_corpus_is_clean_under_deny() {
        run(&["--all".to_string(), "--deny".to_string()])
            .expect("all generated netlists must lint clean");
    }

    #[test]
    fn json_mode_emits_a_report_per_netlist() {
        run(&["--json".to_string()]).expect("json lint");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(run(&["--bogus".to_string()]).is_err());
    }
}
