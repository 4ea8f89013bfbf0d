//! The NGINX SSL-TPS server model (paper §7.2, Table 3).
//!
//! The paper's test drives NGINX with one HTTPS request per connection and
//! a 0-byte response, making the server CPU-bound on connection setup: the
//! TLS handshake's public-key arithmetic, which in OpenSSL is a storm of
//! small bignum-helper calls — precisely the call-heavy profile that
//! maximises return-address-protection overhead (the paper measures 6–13%
//! for full PACStack there, versus ≈3% on SPEC).
//!
//! The model runs an accept → handshake → respond → close loop per
//! transaction; the handshake spins on instrumented bignum helpers. TPS is
//! simulated cycles converted through a nominal clock and scaled linearly
//! across workers. Run-to-run jitter (the paper reports σ over `wrk`
//! sessions) comes from perturbing the handshake round count per run.

use crate::measure::run_module;
use pacstack_compiler::{FuncDef, Module, Scheme, Stmt};
use pacstack_exec::{self as exec, TrialRng};
use rand::Rng;

/// RNG-stream tag for [`session_cycles`] measurement sessions. Deliberately
/// excludes the scheme: paired comparisons (baseline vs instrumented at
/// the same seed) must see identical per-run handshake jitter.
const STREAM_SSL_TPS: u64 = 0x5517_7005_EA51_0005;

/// Nominal CPU clock used to convert cycles to wall-clock TPS.
pub const CLOCK_HZ: f64 = 2.0e9;

/// Transactions simulated per measurement run (per worker).
pub const TRANSACTIONS: u32 = 40;

/// Builds the per-worker server module.
///
/// `handshake_rounds` controls how many bignum operations one TLS
/// handshake performs (the RSA-2048 / ECDHE profile of the paper's cipher
/// suite is call-heavy).
pub fn server_module(handshake_rounds: u32) -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Loop(
                TRANSACTIONS,
                vec![
                    Stmt::Call("accept_conn".into()),
                    Stmt::Call("tls_handshake".into()),
                    Stmt::Call("respond".into()),
                    Stmt::Call("close_conn".into()),
                ],
            ),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "accept_conn",
        vec![
            Stmt::Compute(150),
            Stmt::MemAccess(35),
            Stmt::Call("alloc_buf".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "tls_handshake",
        vec![
            Stmt::Loop(
                handshake_rounds,
                vec![
                    Stmt::Call("bn_mul".into()),
                    Stmt::Call("bn_sqr".into()),
                    Stmt::Call("bn_mod".into()),
                ],
            ),
            Stmt::Call("kdf".into()),
            Stmt::Return,
        ],
    ));
    // Bignum helpers: small bodies, each calling a limb-level leaf — the
    // OpenSSL shape that makes handshakes call-bound.
    m.push(FuncDef::new(
        "bn_mul",
        vec![
            Stmt::Compute(95),
            Stmt::MemAccess(22),
            Stmt::Call("limb_op".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "bn_sqr",
        vec![
            Stmt::Compute(75),
            Stmt::MemAccess(18),
            Stmt::Call("limb_op".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "bn_mod",
        vec![
            Stmt::Compute(110),
            Stmt::MemAccess(26),
            Stmt::Call("limb_op".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "kdf",
        vec![
            Stmt::Compute(300),
            Stmt::Call("digest_block".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "respond",
        vec![
            Stmt::Compute(190),
            Stmt::MemAccess(45),
            Stmt::Call("writev_stub".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "close_conn",
        vec![Stmt::Compute(55), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "alloc_buf",
        vec![Stmt::Compute(75), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "limb_op",
        vec![Stmt::Compute(52), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "digest_block",
        vec![Stmt::Compute(220), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "writev_stub",
        vec![Stmt::Compute(95), Stmt::Return],
    ));
    m
}

/// Result of an SSL-TPS measurement campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TpsResult {
    /// Mean transactions per second across runs.
    pub mean_tps: f64,
    /// Standard deviation across runs.
    pub sigma: f64,
    /// Number of measurement runs.
    pub runs: usize,
}

impl TpsResult {
    /// TPS of `workers` NGINX workers from the cycles per transaction of
    /// each measurement session: TPS scales linearly with workers at the
    /// nominal clock.
    pub fn from_sessions(workers: u32, cycles_per_txn: &[f64]) -> Self {
        let samples: Vec<f64> = cycles_per_txn
            .iter()
            .map(|c| f64::from(workers) * CLOCK_HZ / c)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Self {
            mean_tps: mean,
            sigma: var.sqrt(),
            runs: samples.len(),
        }
    }
}

/// Cycles per transaction of each of `runs` measurement sessions, per
/// scheme: `result[s][i]` is session `i` under `schemes[s]`.
///
/// Session `i` perturbs the handshake round count ±10% (run-to-run load
/// jitter), drawn from its own `(seed, i)` stream; the stream excludes the
/// scheme, so every scheme sees the same sessions. The round count takes
/// only nine values and a session is a deterministic simulation of it, so
/// each distinct (scheme, rounds) pair is simulated once, fanned out
/// across the [`pacstack_exec`] worker pool, and sessions with equal
/// rounds share its result. The result is identical at any thread count.
///
/// # Panics
///
/// Panics if a run faults (the workload must run clean under every scheme).
pub fn session_cycles(schemes: &[Scheme], runs: usize, seed: u64) -> Vec<Vec<f64>> {
    let rounds: Vec<u32> = (0..runs as u64)
        .map(|i| 36 + TrialRng::new(seed ^ STREAM_SSL_TPS, i).gen_range(0..=8)) // 40 ± 10%
        .collect();
    let mut distinct = rounds.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let cells: Vec<(Scheme, u32)> = schemes
        .iter()
        .flat_map(|&scheme| distinct.iter().map(move |&r| (scheme, r)))
        .collect();
    let run = exec::parallel_map(&cells, |_, &(scheme, rounds)| {
        let m = run_module(&server_module(rounds), scheme, 1_000_000_000);
        m.cycles as f64 / f64::from(TRANSACTIONS)
    });
    exec::stats::record("ssl-tps session sweep", run.stats);
    (0..schemes.len())
        .map(|s| {
            rounds
                .iter()
                .map(|r| run.results[s * distinct.len() + distinct.partition_point(|d| d < r)])
                .collect()
        })
        .collect()
}

/// Measures SSL TPS for `scheme` with `workers` NGINX workers over `runs`
/// measurement sessions: the one-scheme case of [`session_cycles`],
/// summarised by [`TpsResult::from_sessions`].
///
/// # Panics
///
/// Panics if a run faults (the workload must run clean under every scheme).
pub fn ssl_tps(scheme: Scheme, workers: u32, runs: usize, seed: u64) -> TpsResult {
    TpsResult::from_sessions(workers, &session_cycles(&[scheme], runs, seed)[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{overhead_percent, overheads, run_module};

    #[test]
    fn handshake_dominates_and_is_call_heavy() {
        // Full PACStack overhead on the server should exceed its overhead
        // on a compute-bound SPEC profile — the paper's NGINX result.
        let module = server_module(40);
        let o = overhead_percent(&module, Scheme::PacStack, 1_000_000_000);
        assert!(o > 4.0, "server overhead only {o}%");
        assert!(o < 20.0, "server overhead implausibly high: {o}%");
    }

    #[test]
    fn nomask_costs_less_than_full() {
        let module = server_module(40);
        let o = overheads(
            &module,
            &[Scheme::PacStackNomask, Scheme::PacStack],
            1_000_000_000,
        );
        let (nomask, full) = (o[0], o[1]);
        assert!(nomask < full);
        assert!(nomask > 2.0, "nomask overhead only {nomask}%");
    }

    #[test]
    fn tps_scales_linearly_with_workers() {
        let four = ssl_tps(Scheme::Baseline, 4, 3, 1);
        let eight = ssl_tps(Scheme::Baseline, 8, 3, 1);
        let ratio = eight.mean_tps / four.mean_tps;
        assert!((1.9..2.1).contains(&ratio), "worker scaling ratio {ratio}");
    }

    #[test]
    fn instrumented_tps_is_lower_than_baseline() {
        let base = ssl_tps(Scheme::Baseline, 4, 3, 7);
        let nomask = ssl_tps(Scheme::PacStackNomask, 4, 3, 7);
        let full = ssl_tps(Scheme::PacStack, 4, 3, 7);
        assert!(base.mean_tps > nomask.mean_tps);
        assert!(nomask.mean_tps > full.mean_tps);
    }

    #[test]
    fn sigma_reflects_run_jitter() {
        let result = ssl_tps(Scheme::Baseline, 4, 8, 3);
        assert!(result.sigma > 0.0);
        assert!(result.sigma < result.mean_tps * 0.1, "σ implausibly large");
    }

    #[test]
    fn batched_sessions_equal_one_simulation_per_session() {
        // The oracle is the one-simulation-per-session schedule: every
        // session draws its rounds from its own stream and runs its own
        // module. Compared through `Debug`, so equal means bit-identical.
        let schemes = [Scheme::Baseline, Scheme::PacStack];
        for seed in [3, 42] {
            let sessions = session_cycles(&schemes, 3, seed);
            for (s, &scheme) in schemes.iter().enumerate() {
                for workers in [4, 8] {
                    let samples: Vec<f64> = (0..3)
                        .map(|i| {
                            let mut rng = TrialRng::new(seed ^ STREAM_SSL_TPS, i);
                            let rounds = 36 + rng.gen_range(0..=8);
                            let m = run_module(&server_module(rounds), scheme, 1_000_000_000);
                            let cycles_per_txn = m.cycles as f64 / f64::from(TRANSACTIONS);
                            f64::from(workers) * CLOCK_HZ / cycles_per_txn
                        })
                        .collect();
                    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
                        / samples.len() as f64;
                    let oracle = TpsResult {
                        mean_tps: mean,
                        sigma: var.sqrt(),
                        runs: 3,
                    };
                    let batched = TpsResult::from_sessions(workers, &sessions[s]);
                    assert_eq!(format!("{batched:?}"), format!("{oracle:?}"), "{scheme}");
                    if workers == 4 {
                        let single = ssl_tps(scheme, workers, 3, seed);
                        assert_eq!(format!("{single:?}"), format!("{oracle:?}"), "{scheme}");
                    }
                }
            }
        }
    }
}
