//! Inspect what the CSCE planner does for a pattern: the GCF order, the
//! dependency DAG, SCE occurrence, NEC classes, cache slots, and the
//! factorized execution tree — the machinery of §V–§VI made visible.
//!
//! ```sh
//! cargo run --release --example plan_explain
//! ```

use csce::datasets::presets;
use csce::engine::plan::explain::explain;
use csce::engine::{Engine, PlannerConfig};
use csce::graph::sample::PatternSampler;
use csce::graph::Density;
use csce::obs::Recorder;
use csce::Variant;

fn main() {
    let ds = presets::yeast();
    println!("data graph {} — {}", ds.name, ds.stats());
    let engine = Engine::build(&ds.graph);

    let mut sampler = PatternSampler::new(&ds.graph, 31);
    let sp = sampler.sample(10, Density::Sparse).expect("sample a 10-vertex pattern");
    let p = sp.pattern;
    println!("pattern: |V|={} |E|={} labels={:?}\n", p.n(), p.m(), p.labels());

    let recorder = Recorder::disabled();
    for variant in Variant::ALL {
        let query = engine
            .prepare(&p, variant, PlannerConfig::csce(), &recorder)
            .expect("sampled patterns are connected");
        println!("=== {variant} ===");
        print!("{}", explain(&query.catalog(), query.plan()));
        println!();
    }
}
