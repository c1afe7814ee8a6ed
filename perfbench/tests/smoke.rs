//! Every workload, untraced and traced, at a tiny scale: the runs must
//! pass their own correctness checks and report exactly the metrics
//! BENCHMARK.json declares.

use perfbench::{run, Outcome, Scale, Workload};

/// The metric names BENCHMARK.json lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section")..];
    let section = &section[..section.find(']').expect("end of section")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn reported(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_runs_and_reports_its_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 10);
    for workload in [
        Workload::ServeWarm,
        Workload::UpdateStream,
        Workload::PublishServe,
    ] {
        for (traced, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run(workload, 7, &Scale::tiny(), traced);
            let what = format!("{} traced={traced}", workload.name());
            assert!(out.correct(), "{what}: {:?}", out.errors);
            assert!(out.attempted > 0 && out.failed == 0, "{what}");
            assert_eq!(&reported(&out), want, "{what}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{what}");
            let line = out.to_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn the_same_seed_stores_the_same_bytes() {
    let a = run(Workload::UpdateStream, 3, &Scale::tiny(), false);
    let b = run(Workload::UpdateStream, 3, &Scale::tiny(), false);
    assert!(a.totals.is_some());
    assert_eq!(a.totals, b.totals);
    let c = run(Workload::UpdateStream, 4, &Scale::tiny(), false);
    assert_ne!(a.totals, c.totals, "the seed must change the inputs");
}
