//! End-to-end runs over the dataset presets: the full paper pipeline
//! (cluster → persist → reload → plan → execute, all variants) on each
//! synthetic data graph, plus the parallel counting extension.

use csce::datasets::{presets, sample_suite};
use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::Density;
use csce::obs::Recorder;
use csce::Variant;

#[test]
fn yeast_pipeline_all_variants() {
    let ds = presets::yeast();
    let engine = Engine::build(&ds.graph);
    // Round-trip the clustered form through persistence.
    let bytes = csce::ccsr::persist::to_bytes(engine.ccsr()).unwrap();
    let engine2 = Engine::from_ccsr(csce::ccsr::persist::from_bytes(&bytes).unwrap());
    let suites = sample_suite(&ds.graph, &[8], &[Density::Sparse, Density::Dense], 2, 1);
    for suite in &suites {
        for p in &suite.patterns {
            for variant in Variant::ALL {
                let a = engine.count(p, variant);
                let b = engine2.count(p, variant);
                assert_eq!(a, b, "{}: persisted engine disagrees under {variant}", suite.name);
                if variant == Variant::EdgeInduced {
                    assert!(a >= 1, "sampled patterns have at least one embedding");
                }
            }
        }
    }
}

#[test]
fn roadca_counts_are_variant_ordered() {
    let ds = presets::roadca();
    let engine = Engine::build(&ds.graph);
    let suites = sample_suite(&ds.graph, &[6, 8], &[Density::Sparse], 2, 2);
    for suite in &suites {
        for p in &suite.patterns {
            let v = engine.count(p, Variant::VertexInduced);
            let e = engine.count(p, Variant::EdgeInduced);
            let h = engine.count(p, Variant::Homomorphic);
            assert!(v <= e && e <= h, "{}: v={v} e={e} h={h}", suite.name);
        }
    }
}

#[test]
fn parallel_count_on_dataset() {
    let ds = presets::hprd();
    let engine = Engine::build(&ds.graph);
    let suites = sample_suite(&ds.graph, &[8], &[Density::Sparse], 2, 3);
    for suite in &suites {
        for p in &suite.patterns {
            let sequential = engine.count(p, Variant::EdgeInduced);
            let parallel = engine
                .prepare(p, Variant::EdgeInduced, PlannerConfig::csce(), &Recorder::disabled())
                .unwrap()
                .count(RunConfig::default(), 4, None)
                .expect("no worker panicked");
            assert_eq!(sequential, parallel.count);
            assert_eq!(parallel.stats.embeddings, parallel.count);
            assert!(!parallel.stats.timed_out);
        }
    }
}

#[test]
fn directed_dataset_matching() {
    let ds = presets::subcategory();
    let engine = Engine::build(&ds.graph);
    let suites = sample_suite(&ds.graph, &[5], &[Density::Sparse], 2, 4);
    for suite in &suites {
        for p in &suite.patterns {
            assert!(p.has_directed_edges(), "patterns inherit direction");
            let h = engine.count(p, Variant::Homomorphic);
            assert!(h >= 1, "sampled pattern embeds at least once");
        }
    }
}

#[test]
fn every_preset_clusters_cleanly() {
    for ds in presets::all_presets() {
        let engine = Engine::build(&ds.graph);
        let gc = engine.ccsr();
        assert_eq!(gc.n(), ds.graph.n(), "{}", ds.name);
        assert_eq!(gc.total_ic_len(), 2 * ds.graph.m(), "{}", ds.name);
        let total_edges: usize = gc.clusters().map(|c| c.edge_count()).sum();
        assert_eq!(total_edges, ds.graph.m(), "{}", ds.name);
    }
}
