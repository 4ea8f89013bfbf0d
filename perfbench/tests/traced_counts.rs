//! Every count of the traced run repeats exactly across two runs, and the
//! traced run finds no failed operation at the pinned seeds.
//!
//! This is the only test in its binary: the traced run enables the
//! process-wide telemetry sink, which a concurrent test would pollute.

use pacstack_perfbench::layers::{traced_run, PER_LAYER};
use pacstack_perfbench::report::Ledger;
use pacstack_perfbench::trace::Tracer;
use pacstack_perfbench::workload::Workload;

#[test]
fn counts_repeat_exactly_across_two_traced_runs() {
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut ledger = Ledger::default();
            let metrics = traced_run(Workload::FaultCampaign, 0, &mut Tracer::new(), &mut ledger);
            assert!(ledger.attempted > 0);
            assert_eq!(ledger.failed, 0);
            metrics
        })
        .collect();
    let names: Vec<&str> = runs[0].0.iter().map(|(n, _, _)| n.as_str()).collect();
    let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, listed);

    let exact = |name: &str, unit: &str| {
        matches!(unit, "count" | "cycles" | "bytes")
            || matches!(
                name,
                "pauth.pac_computes_per_rebuild"
                    | "aarch64.pac_memo_hit_ratio"
                    | "chaos.in_window_ratio"
            )
    };
    for ((name, a, unit), (_, b, _)) in runs[0].0.iter().zip(&runs[1].0) {
        assert!(a.is_finite(), "{name} = {a}");
        if exact(name, unit) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} then {b}");
        }
    }
    let get = |name: &str| runs[0].get(name).unwrap();
    for name in [
        "aarch64.insns_retired",
        "aarch64.sim_cycles",
        "pauth.keygens",
    ] {
        assert!(get(name) > 0.0, "{name}");
    }
    let tallies: f64 = [
        "chaos.detected",
        "chaos.silent",
        "chaos.masked",
        "chaos.hangs",
    ]
    .iter()
    .map(|n| get(n))
    .sum();
    assert_eq!(tallies, get("chaos.trials"));
    assert_eq!(get("chaos.host_panics"), 0.0);
}
