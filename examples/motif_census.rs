//! Motif census: count every standard 3–4-vertex motif in a data graph —
//! the workload behind higher-order organization studies (Benson et al.,
//! the paper's [2]) and a tour of `Engine::count_subgraphs`.
//!
//! ```sh
//! cargo run --release --example motif_census
//! ```

use csce::datasets::motifs;
use csce::datasets::presets;
use csce::engine::Engine;
use csce::graph::automorphism::automorphism_count;
use csce::graph::Graph;
use csce::Variant;
use std::time::Instant;

fn main() {
    let ds = presets::yeast();
    println!("data graph {} — {}\n", ds.name, ds.stats());
    let engine = Engine::build(&ds.graph);

    let motifs: Vec<(&str, Graph)> = vec![
        ("wedge (P3)", motifs::path(3)),
        ("triangle (K3)", motifs::clique(3)),
        ("path (P4)", motifs::path(4)),
        ("star (S3)", motifs::star(3)),
        ("cycle (C4)", motifs::cycle(4)),
        ("paw", motifs::paw()),
        ("diamond", motifs::diamond()),
        ("clique (K4)", motifs::clique(4)),
    ];

    println!(
        "{:<14} {:>14} {:>14} {:>8} {:>10}",
        "motif", "subgraphs", "mappings", "|Aut|", "time"
    );
    for (name, p) in &motifs {
        // The data graph carries labels; motifs are unlabeled, so strip
        // labels by re-labeling the data graph? Instead match against the
        // unlabeled view prepared once below.
        let t0 = Instant::now();
        let subgraphs = engine_unlabeled()
            .count_subgraphs(p, Variant::EdgeInduced)
            .expect("motifs are connected");
        let elapsed = t0.elapsed();
        let aut = automorphism_count(p);
        println!(
            "{:<14} {:>14} {:>14} {:>8} {:>9.0?}",
            name,
            subgraphs,
            subgraphs * aut,
            aut,
            elapsed
        );
    }

    // Consistency check the paper's engines rely on: mappings = distinct
    // subgraphs x |Aut|.
    let tri = motifs::clique(3);
    let mappings = engine_unlabeled().count(&tri, Variant::EdgeInduced);
    let subgraphs =
        engine_unlabeled().count_subgraphs(&tri, Variant::EdgeInduced).expect("a triangle");
    assert_eq!(mappings, subgraphs * 6);
    println!("\nsanity: triangle mappings {mappings} = {subgraphs} subgraphs x 6 automorphisms");
    drop(engine);
}

/// The Yeast graph with labels stripped, clustered once.
fn engine_unlabeled() -> &'static Engine {
    use std::sync::OnceLock;
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let ds = presets::yeast();
        let unlabeled = csce::graph::generate::randomize_vertex_labels(&ds.graph, 0, 0);
        Engine::build(&unlabeled)
    })
}
