//! The traced run's decomposed passes do the same work as the experiment
//! calls `wall_s` times: each reproduces its experiment bit for bit.
//!
//! `Debug` prints every `f64` in its shortest round-tripping form, so equal
//! `Debug` strings mean bit-identical results.

use pacstack_bench::experiments;
use pacstack_perfbench::layers::{
    ablations_decomposed, cpp_aggregate_decomposed, faults_decomposed, figure5_decomposed,
    instruction_mix_decomposed, table1_decomposed, table3_decomposed,
};
use pacstack_perfbench::trace::Tracer;
use pacstack_perfbench::workload::{table1_cells, FAULT_TRIALS_PER_CLASS, PINNED, TABLE3_RUNS};

fn same<T: std::fmt::Debug>(decomposed: T, direct: T) {
    assert_eq!(format!("{decomposed:?}"), format!("{direct:?}"));
}

#[test]
fn decomposed_overhead_sim_reproduces_figure5_and_table3() {
    let mut t = Tracer::new();
    same(figure5_decomposed(&mut t).unwrap(), experiments::figure5());
    same(
        cpp_aggregate_decomposed(&mut t).unwrap(),
        experiments::cpp_aggregate(),
    );
    for seed in [PINNED.table3, 5] {
        same(
            table3_decomposed(&mut t, seed).unwrap(),
            experiments::table3(TABLE3_RUNS, seed),
        );
    }
    same(
        ablations_decomposed(&mut t).unwrap(),
        experiments::ablations(),
    );
    same(
        instruction_mix_decomposed(&mut t).unwrap(),
        experiments::instruction_mix(),
    );

    // Every simulation is one lower, one link and at least one run, and
    // every span sits under the decomposition's own spans.
    let count = |name: &str| t.spans().iter().filter(|s| s.name == name).count();
    assert_eq!(count("compiler.lower"), count("aarch64.link"));
    assert_eq!(
        count("aarch64.link") as u64,
        t.counted("aarch64.simulations")
    );
    assert!(count("aarch64.run") >= count("aarch64.link"));
    for span in t.spans() {
        assert!(span.end_ns >= span.start_ns);
        if span.layer() == "compiler" || span.layer() == "aarch64" {
            assert!(span.parent.is_none() || t.spans()[span.parent.unwrap()].name != span.name);
        }
    }
}

#[test]
fn decomposed_fault_campaign_reproduces_faults() {
    for seed in [PINNED.faults, 3] {
        let mut t = Tracer::new();
        same(
            faults_decomposed(&mut t, seed).unwrap(),
            experiments::faults(FAULT_TRIALS_PER_CLASS, seed).unwrap(),
        );
        assert_eq!(
            t.spans()
                .iter()
                .filter(|s| s.name == "chaos.prepare")
                .count(),
            4
        );
        assert_eq!(t.counted("chaos.host_panics"), 0);
    }
}

#[test]
fn decomposed_table1_reproduces_table1() {
    let mut t = Tracer::new();
    same(
        table1_decomposed(&mut t, PINNED.table1),
        table1_cells(PINNED.table1),
    );
    assert!(t.counted("attacks.trials") > 0);
}
