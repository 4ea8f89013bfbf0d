//! `BENCHMARK.json` at the repository root names exactly the metrics the
//! benchmark prints, and the workloads it accepts.

use pacstack_perfbench::layers::PER_LAYER;
use pacstack_perfbench::workload::Workload;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The values of every `"name": "<value>"` pair inside the manifest's
/// array `key`.
fn names_in(key: &str) -> Vec<String> {
    let start = MANIFEST
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &MANIFEST[start..];
    let end = body.find(']').unwrap();
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_owned()
        })
        .collect()
}

#[test]
fn the_manifest_lists_the_printed_metrics_and_workloads() {
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
    assert_eq!(names_in("per_layer"), per_layer);
    assert_eq!(names_in("end_to_end"), ["wall_s", "setup_s", "peak_rss_mb"]);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names_in("workloads"), workloads);
}
