//! Small-parameter smoke runs of every experiment behind `repro`, asserting
//! the paper's qualitative shape for each table and figure.

use pacstack::acs::security::ViolationKind;
use pacstack::acs::Masking;
use pacstack::compiler::Scheme;
use pacstack_bench::experiments;

#[test]
fn table1_shape() {
    let cells = experiments::table1(4, 500, 3);
    assert_eq!(cells.len(), 6);
    let get = |kind: ViolationKind, masking: Masking| {
        cells
            .iter()
            .find(|c| c.kind == kind && c.masking == masking)
            .copied()
            .expect("cell present")
    };
    // On-graph without masking succeeds (essentially) always; with masking
    // it collapses to ~2^-b.
    let unmasked = get(ViolationKind::OnGraph, Masking::Unmasked);
    let masked = get(ViolationKind::OnGraph, Masking::Masked);
    assert!(unmasked.measured > 0.9);
    assert!(masked.measured < 0.3);
    // Arbitrary-address is rarer than call-site in both variants.
    for masking in [Masking::Masked, Masking::Unmasked] {
        let call_site = get(ViolationKind::OffGraphToCallSite, masking);
        let arbitrary = get(ViolationKind::OffGraphToArbitrary, masking);
        assert!(arbitrary.measured <= call_site.measured + 0.01);
    }
}

#[test]
fn figure5_and_table2_shape() {
    let rows = experiments::figure5();
    assert_eq!(rows.len(), 16); // 8 benchmarks × 2 suites
                                // lbm is the least-affected benchmark under full PACStack in both suites.
    for suite_rows in rows.chunks(8) {
        let lbm = suite_rows.iter().find(|r| r.name == "lbm").unwrap();
        let lbm_full = lbm.overheads[0].1;
        for row in suite_rows {
            assert!(row.overheads[0].1 >= lbm_full - 0.01, "{} < lbm", row.name);
        }
    }
    let t2 = experiments::table2(&rows);
    let full = t2.iter().find(|r| r.scheme == Scheme::PacStack).unwrap();
    assert!(
        full.rate > 1.8 && full.rate < 4.5,
        "headline ≈3% violated: {}",
        full.rate
    );
}

#[test]
fn table3_shape() {
    let rows = experiments::table3(2, 9);
    assert_eq!(rows.len(), 2);
    assert!(rows[1].baseline.mean_tps > rows[0].baseline.mean_tps); // more workers, more TPS
    for row in &rows {
        assert!(row.pacstack_loss() > row.nomask_loss());
    }
    // Both rows come from the same sessions, and TPS is linear in workers,
    // so the 8-worker row is exactly twice the 4-worker row.
    let (four, eight) = (&rows[0], &rows[1]);
    assert_eq!((four.workers, eight.workers), (4, 8));
    for (a, b) in [
        (&four.baseline, &eight.baseline),
        (&four.nomask, &eight.nomask),
        (&four.pacstack, &eight.pacstack),
    ] {
        assert_eq!(
            format!("{:?}", 2.0 * a.mean_tps),
            format!("{:?}", b.mean_tps)
        );
        assert_eq!(format!("{:?}", 2.0 * a.sigma), format!("{:?}", b.sigma));
    }
}

#[test]
fn birthday_shape() {
    let rows = experiments::birthday(&[6, 8], 15, 1);
    // Expected token counts grow ~2x per +2 bits (sqrt scaling).
    assert!(rows[1].measured_mean > rows[0].measured_mean);
}

#[test]
fn guessing_shape() {
    let rows = experiments::guessing_costs(&[6], 100);
    let row = rows[0];
    assert!(
        row.reseeded_mean > row.shared_key_mean * 1.4,
        "re-seeding must raise the cost: {} vs {}",
        row.reseeded_mean,
        row.shared_key_mean
    );
}

#[test]
fn attack_matrix_has_no_pacstack_hijacks() {
    use pacstack::attacks::rop::AttackOutcome;
    for row in experiments::attack_matrix() {
        for (scheme, outcome) in &row.outcomes {
            if *scheme == Scheme::PacStack {
                assert_ne!(
                    *outcome,
                    AttackOutcome::Hijacked,
                    "PACStack hijacked by {}",
                    row.attack
                );
            }
        }
    }
}
