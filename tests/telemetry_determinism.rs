//! Determinism and zero-overhead guarantees of the telemetry subsystem.
//!
//! Two claims are pinned here:
//!
//! 1. **Deterministic capture** — every `repro trace` artifact (summary,
//!    Prometheus dump, Chrome JSON, flamegraph) is byte-identical at any
//!    `--jobs` count and across repeated runs, because all records live in
//!    the simulated-cycle domain and merge in task order through the exec
//!    engine.
//! 2. **Architectural invisibility** — enabling the sink (and the
//!    per-function profiler) never changes what the simulated CPU retires:
//!    cycle counts, instruction counts and exit codes are identical with
//!    telemetry on, off, and with profiling attached.
//!
//! The telemetry store is process-global, so every test that enables the
//! sink or changes the job count serialises on one lock.

use pacstack::aarch64::{Cpu, Fault, Profiler};
use pacstack::compiler::{lower, FuncDef, Module, Scheme, Stmt};
use pacstack::telemetry;
use pacstack::workloads::measure;
use pacstack_bench::{exec, tracecmd};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests touching the global telemetry store / job count.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the sink disabled, the store clean, and `jobs` workers,
/// restoring both afterwards.
fn with_clean_telemetry<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::disable();
    telemetry::reset();
    exec::set_jobs(jobs);
    let out = f();
    exec::set_jobs(0);
    telemetry::disable();
    telemetry::reset();
    out
}

#[test]
fn repro_trace_artifacts_are_identical_across_job_counts() {
    let sequential =
        with_clean_telemetry(1, || tracecmd::capture(true)).expect("capture at jobs=1");
    for jobs in [4, 4, 2] {
        let parallel =
            with_clean_telemetry(jobs, || tracecmd::capture(true)).expect("parallel capture");
        assert_eq!(
            sequential.stdout(),
            parallel.stdout(),
            "trace stdout diverged at jobs={jobs}"
        );
        assert_eq!(
            sequential.chrome_json, parallel.chrome_json,
            "trace.json diverged at jobs={jobs}"
        );
        assert_eq!(
            sequential.flame, parallel.flame,
            "flamegraph diverged at jobs={jobs}"
        );
    }
}

#[test]
fn repro_trace_quick_stdout_matches_the_golden_file() {
    let artifacts = with_clean_telemetry(1, || tracecmd::capture(true)).expect("quick capture");
    let golden = include_str!("golden/repro_trace_quick.txt");
    assert_eq!(
        artifacts.stdout(),
        golden,
        "`repro trace --quick` stdout drifted from tests/golden/repro_trace_quick.txt — \
         regenerate it with `repro trace --quick > tests/golden/repro_trace_quick.txt` \
         if the change is intentional"
    );
}

#[test]
fn enabled_sink_changes_no_architectural_state() {
    // The same workload, profiled and instrumented vs dark, must retire
    // identically — the zero-overhead claim is about *results* first.
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Loop(6, vec![Stmt::Call("f".into()), Stmt::MemAccess(2)]),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "f",
        vec![Stmt::Compute(3), Stmt::Call("g".into()), Stmt::Return],
    ));
    m.push(FuncDef::new("g", vec![Stmt::Compute(1), Stmt::Return]));
    for scheme in [Scheme::Baseline, Scheme::PacStack, Scheme::ShadowCallStack] {
        let dark = with_clean_telemetry(1, || measure::run_module(&m, scheme, 1_000_000));
        let lit = with_clean_telemetry(1, || {
            telemetry::enable();
            measure::run_module_profiled(&m, scheme, 1_000_000, "t")
        });
        assert_eq!(dark, lit, "telemetry changed a {scheme} run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disabled-sink runs and instrumented runs retire identical
    /// instruction and cycle counts over arbitrary generated programs.
    #[test]
    fn instrumented_runs_retire_identical_counts(seed in 0u64..1_000_000) {
        let module = pacstack::workloads::synth::generate(&Default::default(), seed);
        let program = lower(&module, Scheme::PacStack);
        let run_dark = with_clean_telemetry(1, || {
            let mut cpu = Cpu::with_seed(program.clone(), 7);
            cpu.run(2_000_000).map(|out| (out.status, out.cycles, out.instructions))
        });
        let run_lit = with_clean_telemetry(1, || {
            telemetry::enable();
            let mut cpu = Cpu::with_seed(program.clone(), 7);
            let mut profiler = Profiler::new(&cpu, 1 << 12);
            let status = cpu.run_until(2_000_000, |cpu, insn| profiler.retire(cpu, insn));
            cpu.publish_telemetry();
            status
                .and_then(|status| status.ok_or(Fault::Timeout))
                .map(|status| (status, cpu.cycles(), cpu.instructions()))
        });
        prop_assert_eq!(run_dark, run_lit);
    }
}
