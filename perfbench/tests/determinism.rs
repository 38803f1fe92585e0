//! The benchmark's own checks: a seed fixes every input, the modelled
//! figures repeat exactly for a seed, and the metric catalogue is legal
//! and matches `BENCHMARK.json`.

use ferrotcam_perfbench::ledger::fig7_row;
use ferrotcam_perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use ferrotcam_perfbench::serve::{Harness, Inputs, Kind, Op, OpStream, Spec};

fn stream(kind: Kind, seed: u64, n: usize) -> (Inputs, Vec<Op>) {
    let inputs = Inputs::generate(kind, seed);
    let mut ops = OpStream::new(kind, seed, &inputs);
    let v = (0..n).map(|_| ops.next_op()).collect();
    (inputs, v)
}

#[test]
fn same_seed_gives_an_identical_query_stream() {
    for kind in [Kind::Lookup, Kind::Similarity, Kind::Churn] {
        let (a_in, a_ops) = stream(kind, 7, 2000);
        let (b_in, b_ops) = stream(kind, 7, 2000);
        assert_eq!(a_in.words, b_in.words);
        let queries =
            |i: &Inputs| -> Vec<_> { i.pool.iter().map(|q| (q.kind, q.query.clone())).collect() };
        assert_eq!(queries(&a_in), queries(&b_in));
        assert_eq!(a_ops, b_ops);
        let (c_in, c_ops) = stream(kind, 8, 2000);
        assert_ne!(queries(&a_in), queries(&c_in), "{kind:?}: seed must matter");
        assert_ne!(a_ops, c_ops, "{kind:?}: seed must matter");
    }
}

#[test]
fn lookup_energy_repeats_exactly_for_a_seed() {
    let energy = || {
        let mut d = Harness::start(Spec::new(Kind::Lookup, 0.3, false), 11);
        // A light load, so every request is answered in time even in an
        // unoptimised build.
        let ph = d.run_phase(2_000.0, 0.3);
        assert_eq!(ph.failed(), 0, "every request answered correctly");
        (ph.attempted, ph.energy_fj().to_bits())
    };
    let (a, b) = (energy(), energy());
    assert!(a.0 > 0);
    assert_eq!(a, b);
}

#[test]
fn engine_counts_repeat_exactly() {
    let run = || fig7_row().run().expect("Fig. 7 row").trace.stats();
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert!(
        a.bypass_hits > 0,
        "production defaults bypass device evaluations"
    );
}

#[test]
fn metric_names_are_legal_and_match_the_benchmark_file() {
    let file = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(
            file.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} ({unit})"
        );
    }
    let listed = file.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "no metric beyond the catalogue"
    );
}
