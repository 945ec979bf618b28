//! Randomized cross-validation of the CSCE engine against the
//! brute-force oracle: every variant, every graph flavor (labels, edge
//! labels, directions), exact embedding sets — not just counts.

use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::generate::erdos_renyi;
use csce::graph::oracle::oracle_embeddings;
use csce::graph::sample::PatternSampler;
use csce::graph::Density;
use csce::Variant;

/// Sample a pattern or die trying: a refused draw retries with fresh
/// derived sampler seeds instead of silently skipping the family (the old
/// `else {{ continue }}` shrank coverage without failing anything).
fn must_sample(g: &csce::Graph, base_seed: u64, size: usize, density: Density) -> csce::Graph {
    for attempt in 0..16u64 {
        let mut sampler = PatternSampler::new(g, base_seed ^ (attempt.wrapping_mul(0x9E37)));
        if let Some(sp) = sampler.sample(size, density) {
            return sp.pattern;
        }
    }
    panic!("no {size}-vertex {density:?} pattern after 16 sampler seeds (base {base_seed})");
}

/// Exhaustive agreement on a family of small random graphs.
fn check_family(vertex_labels: u32, edge_labels: u32, directed: bool, seed: u64) {
    let g = erdos_renyi(14, 28, vertex_labels, edge_labels, directed, seed);
    let engine = Engine::build(&g);
    for size in [4usize, 5] {
        for density in [Density::Sparse, Density::Dense] {
            let p = must_sample(&g, seed ^ 0xABCD, size, density);
            for variant in Variant::ALL {
                let expected = oracle_embeddings(&g, &p, variant);
                let got = engine.embeddings(&p, variant);
                assert_eq!(
                    got, expected,
                    "family(vl={vertex_labels}, el={edge_labels}, dir={directed}, seed={seed}, \
                     size={size}) {variant}"
                );
            }
        }
    }
}

#[test]
fn unlabeled_undirected() {
    for seed in 0..8 {
        check_family(0, 0, false, seed);
    }
}

#[test]
fn vertex_labeled_undirected() {
    for seed in 0..8 {
        check_family(3, 0, false, 100 + seed);
    }
}

#[test]
fn vertex_and_edge_labeled_undirected() {
    for seed in 0..8 {
        check_family(3, 2, false, 200 + seed);
    }
}

#[test]
fn unlabeled_directed() {
    for seed in 0..8 {
        check_family(0, 0, true, 300 + seed);
    }
}

#[test]
fn fully_heterogeneous_directed() {
    for seed in 0..8 {
        check_family(4, 3, true, 400 + seed);
    }
}

#[test]
fn larger_patterns_counts_only() {
    // 6-vertex patterns on slightly bigger graphs: counts vs oracle.
    for seed in 0..4 {
        let g = erdos_renyi(18, 40, 2, 0, false, 500 + seed);
        let engine = Engine::build(&g);
        let p = must_sample(&g, seed, 6, Density::Sparse);
        for variant in Variant::ALL {
            let expected = csce::graph::oracle_count(&g, &p, variant);
            assert_eq!(engine.count(&p, variant), expected, "seed={seed} {variant}");
        }
    }
}

#[test]
fn directed_edge_labeled_homomorphic() {
    // Directed + edge-labeled graphs with 5- and 6-vertex patterns,
    // checked homomorphically (exact embedding sets for size 5, counts
    // for size 6) — the variant/flavor corner the families above missed.
    for seed in 0..4 {
        let g = erdos_renyi(16, 36, 3, 2, true, 600 + seed);
        let engine = Engine::build(&g);
        let p = must_sample(&g, 600 + seed, 5, Density::Sparse);
        assert_eq!(
            engine.embeddings(&p, Variant::Homomorphic),
            oracle_embeddings(&g, &p, Variant::Homomorphic),
            "seed={seed} hom embeddings"
        );
        let p6 = must_sample(&g, 700 + seed, 6, Density::Sparse);
        for variant in Variant::ALL {
            assert_eq!(
                engine.count(&p6, variant),
                csce::graph::oracle_count(&g, &p6, variant),
                "seed={seed} {variant}"
            );
        }
    }
}

#[test]
fn labeled_cycle_factorization_parity() {
    // Regression for the NEC cycle misgrouping: on a labeled 4-cycle
    // pattern, opposite corners share their label and full neighborhood,
    // and grouping them as equivalent leaves is exactly the case the
    // cycle guard in `plan/nec.rs` now rejects. Factorized and plain
    // counts must agree with the oracle for every variant and preset.
    use csce::graph::GraphBuilder;
    use csce::NO_LABEL;
    let mut pb = GraphBuilder::new();
    for label in [0u32, 1, 0, 1] {
        pb.add_vertex(label);
    }
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        pb.add_undirected_edge(x, y, NO_LABEL).unwrap();
    }
    let p = pb.build();
    for seed in 0..6 {
        // Data graphs rich in 4-cycles over the two labels.
        let g = erdos_renyi(12, 30, 2, 0, false, 800 + seed);
        let engine = Engine::build(&g);
        for variant in Variant::ALL {
            let expected = csce::graph::oracle_count(&g, &p, variant);
            for config in [PlannerConfig::csce(), PlannerConfig::ri_only()] {
                for factorize in [true, false] {
                    let run = RunConfig { factorize, ..RunConfig::default() };
                    let out = engine.run(&p, variant, config, run);
                    assert_eq!(
                        out.count,
                        expected,
                        "seed={seed} {variant} plan={} factorize={factorize}",
                        config.name()
                    );
                }
            }
        }
    }
}

#[test]
fn antiparallel_arcs_and_induced_semantics() {
    // Regression: a vertex-induced pattern with a single directed edge
    // must reject data pairs that also carry the antiparallel arc.
    use csce::graph::GraphBuilder;
    use csce::NO_LABEL;
    let mut gb = GraphBuilder::new();
    gb.add_unlabeled_vertices(4);
    gb.add_edge(0, 1, NO_LABEL).unwrap();
    gb.add_edge(1, 0, NO_LABEL).unwrap(); // antiparallel pair
    gb.add_edge(2, 3, NO_LABEL).unwrap(); // plain arc
    let g = gb.build();
    let mut pb = GraphBuilder::new();
    pb.add_unlabeled_vertices(2);
    pb.add_edge(0, 1, NO_LABEL).unwrap();
    let p = pb.build();
    let engine = Engine::build(&g);
    // Edge-induced: all three arcs match; vertex-induced: only 2->3.
    assert_eq!(engine.count(&p, Variant::EdgeInduced), 3);
    assert_eq!(engine.count(&p, Variant::VertexInduced), 1);
    assert_eq!(engine.embeddings(&p, Variant::VertexInduced), vec![vec![2, 3]]);
    // A pattern WITH the antiparallel pair only matches the 0<->1 pair.
    let mut pb = GraphBuilder::new();
    pb.add_unlabeled_vertices(2);
    pb.add_edge(0, 1, NO_LABEL).unwrap();
    pb.add_edge(1, 0, NO_LABEL).unwrap();
    let p2 = pb.build();
    assert_eq!(engine.count(&p2, Variant::VertexInduced), 2, "both orientations");
    assert_eq!(engine.count(&p2, Variant::EdgeInduced), 2);
    // Cross-check everything against the oracle.
    for p in [&p, &p2] {
        for variant in Variant::ALL {
            assert_eq!(
                engine.count(p, variant),
                csce::graph::oracle_count(&g, p, variant),
                "{variant}"
            );
        }
    }
}

#[test]
fn induced_rejects_extra_arcs_with_another_label() {
    // Pattern `a -[1]-> b`. Pair X carries the arc plus `y -[2]-> x`,
    // which the pattern does not have; pair Z carries only the arc.
    use csce::graph::GraphBuilder;
    let mut gb = GraphBuilder::new();
    gb.add_unlabeled_vertices(4);
    gb.add_edge(0, 1, 1).unwrap(); // x -[1]-> y
    gb.add_edge(1, 0, 2).unwrap(); // y -[2]-> x
    gb.add_edge(2, 3, 1).unwrap(); // z -[1]-> w
    let g = gb.build();
    let mut pb = GraphBuilder::new();
    pb.add_unlabeled_vertices(2);
    pb.add_edge(0, 1, 1).unwrap();
    let p = pb.build();
    let engine = Engine::build(&g);
    assert_eq!(engine.count(&p, Variant::EdgeInduced), 2);
    assert_eq!(engine.count(&p, Variant::VertexInduced), 1);
    assert_eq!(engine.embeddings(&p, Variant::VertexInduced), vec![vec![2, 3]]);
    for variant in Variant::ALL {
        assert_eq!(
            engine.count(&p, variant),
            csce::graph::oracle_count(&g, &p, variant),
            "{variant}"
        );
    }
}

#[test]
fn every_planner_preset_is_exact() {
    let g = erdos_renyi(14, 30, 3, 0, false, 42);
    let engine = Engine::build(&g);
    let mut sampler = PatternSampler::new(&g, 17);
    let sp = sampler.sample(5, Density::Sparse).expect("sample");
    for variant in Variant::ALL {
        let expected = csce::graph::oracle_count(&g, &sp.pattern, variant);
        for config in PlannerConfig::ALL {
            let out = engine.run(&sp.pattern, variant, config, RunConfig::default());
            assert_eq!(out.count, expected, "{} {variant}", config.name());
        }
    }
}

#[test]
fn every_runtime_toggle_is_exact() {
    let g = erdos_renyi(14, 30, 2, 0, false, 77);
    let engine = Engine::build(&g);
    let mut sampler = PatternSampler::new(&g, 3);
    let sp = sampler.sample(5, Density::Sparse).expect("sample");
    for variant in Variant::ALL {
        let expected = csce::graph::oracle_count(&g, &sp.pattern, variant);
        for (cache, factorize) in [(true, true), (true, false), (false, true), (false, false)] {
            let run = RunConfig { use_sce_cache: cache, factorize, ..RunConfig::default() };
            let out = engine.run(&sp.pattern, variant, PlannerConfig::csce(), run);
            assert_eq!(out.count, expected, "cache={cache} factorize={factorize} {variant}");
        }
    }
}
