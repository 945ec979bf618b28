//! The benchmark's own tests: a minimal-size run of every workload prints
//! every metric with its unit, and the correctness gate rejects a wrong
//! reference count.

use perfbench::gate::{self, Reference, Source};
use perfbench::workload::{data_graphs, queries};
use perfbench::{run, Scale, Workload};

const END_TO_END: [(&str, &str); 5] = [
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Printed by the untraced run as text only (they are 0 on some
/// workloads, or fixed by the seed, so they are not compared run to run).
const END_TO_END_TEXT: [(&str, &str); 3] =
    [("embeddings_per_s", "1/s"), ("failed_frac", "ratio"), ("admitted_queries", "count")];

const PER_LAYER: [(&str, &str); 40] = [
    ("ccsr.build_ms", "ms"),
    ("ccsr.clusters", "count"),
    ("ccsr.read_ms", "ms"),
    ("ccsr.read_share", "ratio"),
    ("ccsr.read_bytes", "bytes"),
    ("ccsr.clusters_read", "count"),
    ("ccsr.rows_decompressed", "count"),
    ("ccsr.missing_clusters", "count"),
    ("catalog.ms", "ms"),
    ("plan.ms", "ms"),
    ("plan.share", "ratio"),
    ("plan.gcf_ms", "ms"),
    ("plan.dag_ms", "ms"),
    ("plan.descendant_ms", "ms"),
    ("plan.ldsf_ms", "ms"),
    ("plan.nec_ms", "ms"),
    ("plan.sce_ms", "ms"),
    ("plan.tree_ms", "ms"),
    ("plan.dag_edges", "count"),
    ("plan.slot_count", "count"),
    ("plan.splits", "count"),
    ("plan.nodes_vs_ri_cluster", "ratio"),
    ("exec.ms", "ms"),
    ("exec.share", "ratio"),
    ("exec.nodes", "count"),
    ("exec.candidates_scanned", "count"),
    ("exec.candidate_computations", "count"),
    ("exec.sce_cache_hits", "count"),
    ("exec.sce_hit_rate", "ratio"),
    ("exec.splits_taken", "count"),
    ("exec.negation_clusters", "count"),
    ("exec.nodes_per_s", "1/s"),
    ("sched.chunks_claimed", "count"),
    ("sched.worker_imbalance", "ratio"),
    ("sink.embeddings", "count"),
    ("sink.yield", "ratio"),
    ("failed_frac", "ratio"),
    ("embeddings_per_s", "1/s"),
    ("trace.query_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

fn assert_printed(text: &str, json: &str, name: &str, unit: &str, in_json: bool) {
    let line = text
        .lines()
        .find(|l| l.starts_with(&format!("{name} = ")))
        .unwrap_or_else(|| panic!("{name} not printed in:\n{text}"));
    let value_and_unit = line.split("  (").next().unwrap_or(line);
    assert!(value_and_unit.ends_with(&format!(" {unit}")), "{name} lacks unit {unit}: {line}");
    let key = format!("\"{name}\": {{\"value\": ");
    assert_eq!(json.contains(&key), in_json, "{name} in JSON: {json}");
    if in_json {
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{name} unit in JSON");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let e2e = run(w, 3, 0.2, false, Scale::Smoke).unwrap_or_else(|e| panic!("{e}"));
        assert!(e2e.json.starts_with("{\"correct\": true, \"attempted\": "), "{}", e2e.json);
        for (name, unit) in END_TO_END {
            assert_printed(&e2e.text, &e2e.json, name, unit, true);
        }
        for (name, unit) in END_TO_END_TEXT {
            assert_printed(&e2e.text, &e2e.json, name, unit, false);
        }

        let traced = run(w, 3, 0.2, true, Scale::Smoke).unwrap_or_else(|e| panic!("{e}"));
        for (name, unit) in PER_LAYER {
            assert_printed(&traced.text, &traced.json, name, unit, true);
        }
        assert!(traced.text.contains(&format!("counter {} seed=3 ", w.name())));
    }
}

#[test]
fn counter_block_repeats_exactly() {
    let counters = |text: &str| {
        text.lines().filter(|l| l.starts_with("counter ")).collect::<Vec<_>>().join("\n")
    };
    for w in Workload::ALL {
        let a = run(w, 5, 0.1, true, Scale::Smoke).unwrap_or_else(|e| panic!("{e}"));
        let b = run(w, 5, 0.1, true, Scale::Smoke).unwrap_or_else(|e| panic!("{e}"));
        assert!(!counters(&a.text).is_empty());
        assert_eq!(counters(&a.text), counters(&b.text), "{}", w.name());
    }
}

#[test]
fn a_wrong_reference_count_fails_the_gate() {
    let w = Workload::PlanQuality;
    let graphs = data_graphs(w, Scale::Smoke);
    let engines: Vec<_> = graphs.iter().map(|d| csce_core::Engine::build(&d.graph)).collect();
    let q = &queries(w, &graphs, 1, Scale::Smoke)[0];
    let reference = gate::reference(q, &graphs, &engines, &w.spec());
    let right = reference.count.expect("smoke queries finish within the reference budget");
    assert!(gate::check_count(&q.name, right, &reference).is_ok());

    let wrong = Reference { count: Some(right + 1), ..reference };
    let err = gate::check_count(&q.name, right, &wrong).expect_err("a wrong reference must fail");
    assert!(err.contains(&q.name), "{err}");

    let none = Reference { count: None, source: Source::None };
    assert!(gate::check_count(&q.name, right, &none).is_ok(), "no reference is unverified");
}
