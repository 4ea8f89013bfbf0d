//! Golden pins for the `repro` sections whose simulations are driven
//! through the retire hook rather than plain `Cpu::run`: the fault
//! campaign (trials stop at each injection's retire index) and the §6.1
//! reuse analysis (return-address signings logged from the hook). The
//! expected bytes are the `repro --save` artifacts under `results/`.

use pacstack_bench::{experiments, render};

fn saved(name: &str) -> String {
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn faults_section_matches_the_saved_result() {
    let report = experiments::faults(24, 0xFA17).expect("every target prepares");
    assert_eq!(render::faults(&report), saved("faults"));
}

#[test]
fn reuse_section_matches_the_saved_result() {
    let rows = experiments::reuse_opportunities();
    assert_eq!(render::reuse(&rows), saved("reuse"));
}
