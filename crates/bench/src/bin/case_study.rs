//! §VII-G case study: department recovery on the EMAIL-EU-like network —
//! edge-based clustering F1 vs k-clique higher-order clustering F1, plus
//! the clique-discovery time under CSCE. The paper reports F1 0.398 →
//! 0.515 and 8-clique discovery accelerating from 11.57s to 0.39s.

use csce_bench::Table;
use csce_datasets::email::{email_eu, run_case_study};

fn main() {
    let k: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let (g, truth) = email_eu();
    println!(
        "Case study — EMAIL-EU-like network: {} members, {} edges, {} departments\n",
        g.n(),
        g.m(),
        truth.iter().copied().max().unwrap() + 1
    );
    let r = run_case_study(&g, &truth, k);
    let mut t = Table::new(&["method", "pairwise F1", "motif time", "instances"]);
    t.row(vec!["edge-based".into(), format!("{:.3}", r.f1_edge), "-".into(), "-".into()]);
    t.row(vec![
        format!("{}-clique higher-order", r.clique_size),
        format!("{:.3}", r.f1_motif),
        format!("{:.3}s", r.clique_time.as_secs_f64()),
        r.cliques_found.to_string(),
    ]);
    t.print();
    println!(
        "\nExpected shape (paper): higher-order F1 exceeds edge-based (0.398 -> 0.515)\n\
         and CSCE finds the cliques quickly (0.39s on the real network)."
    );
}
