//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints, as its last stdout line, one object with exactly
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every [`END_TO_END`] metric; a traced run every [`PER_LAYER`]
//! metric. `BENCHMARK.json` lists the same names.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them (see `perfbench/README.md` for what each means per workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_us_per_op", "us"),
    ("ok_frac", "fraction"),
    ("energy_fj_per_search", "fJ"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every traced run reports all of
/// them; a counter of a layer the workload does not drive reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.p50_us", "us"),
    ("client.p99_us", "us"),
    ("client.write_p50_us", "us"),
    ("client.write_p99_us", "us"),
    ("client.capacity_qps", "1/s"),
    ("parallel.par_map_ns", "ns"),
    ("service.idle_roundtrip_us", "us"),
    ("admission.admit_ns", "ns"),
    ("queue.push_pop_ns", "ns"),
    ("queue.push_pop_2t_ns", "ns"),
    ("batch.plan_ns", "ns"),
    ("shard.snapshot_ns", "ns"),
    ("calib.energy_of_kind_ns", "ns"),
    ("metrics.on_responses_ns_per_sample", "ns"),
    ("backend.execute_routed_ns_per_job", "ns"),
    ("backend.execute_fanout_ns_per_job", "ns"),
    ("kernel.exact_ns_per_row", "ns"),
    ("kernel.topk_ns_per_row", "ns"),
    ("kernel.threshold_ns_per_row", "ns"),
    ("kernel.range_ns_per_row", "ns"),
    ("kernel.merge_top_k_ns", "ns"),
    ("shard.apply_update_ns", "ns"),
    ("shard.apply_insert_ns", "ns"),
    ("shard.apply_delete_ns", "ns"),
    ("oracle.reference_search_us", "us"),
    ("device.fefet_eval_ns", "ns"),
    ("device.mosfet_eval_ns", "ns"),
    ("engine.assemble_us", "us"),
    ("matrix.factor_us", "us"),
    ("matrix.refactor_solve_us", "us"),
    ("engine.newton_iters", "count"),
    ("engine.device_evals", "count"),
    ("engine.bypass_hits", "count"),
    ("engine.refactors", "count"),
    ("engine.full_factors", "count"),
    ("engine.rejected_steps", "count"),
    ("service.batches", "count"),
    ("service.mean_batch", "count"),
    ("service.max_queue_depth", "count"),
    ("service.audit_sampled", "count"),
    ("service.audit_divergences", "count"),
    ("service.step1_et_rate", "fraction"),
    ("harness.gen_late_p99_us", "us"),
    ("harness.unattributed_us", "us"),
];

/// Whether `name` is a legal metric name: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (shed, unanswered, over the cap, wrong).
    pub failed: u64,
    /// `(name, value)` pairs; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Set metric `name` (must be in the catalogue being reported).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The result line, with metrics in `catalogue` order. Fails when a
    /// catalogue metric is missing, an extra one is present, or a value
    /// is not finite — a malformed result is never printed.
    ///
    /// # Errors
    /// Describes the first catalogue mismatch.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        for list in [END_TO_END, PER_LAYER] {
            for (i, (name, unit)) in list.iter().enumerate() {
                assert!(valid_name(name), "bad metric name {name:?}");
                assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
                assert!(
                    !list[..i].iter().any(|(n, _)| n == name),
                    "duplicate metric {name}"
                );
            }
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn result_line_requires_the_whole_catalogue() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        let cat = [("a_us", "us"), ("b", "count")];
        o.set("a_us", 1.5);
        assert!(o.to_json(&cat).is_err());
        o.set("b", 2.0);
        let line = o.to_json(&cat).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        o.set("c", 1.0);
        assert!(o.to_json(&cat).is_err());
    }
}
