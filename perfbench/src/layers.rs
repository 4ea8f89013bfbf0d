//! The traced run: per-layer numbers for every workload.
//!
//! Each workload runs once decomposed, with the benchmark's spans around
//! its calls into each crate's public functions, and once as a counting
//! pass: the plain experiment calls with the telemetry sink enabled, whose
//! exact counts are read through `telemetry::snapshot()` and whose timings
//! are discarded. Every decomposed operation must render exactly what the
//! plain call renders. Small probes time single-layer operations on fixed
//! inputs.
//!
//! Each per-layer metric is measured on the workload that owns it, so the
//! traced run measures all four; `--workload` picks the workload whose
//! tracing overhead (`trace.overhead_ratio`) is measured.

use crate::report::{median, quantile, ratio, Ledger, Metrics};
use crate::trace::Tracer;
use crate::workload::{
    call, call_with_artifacts, export_all, faults_section, overhead_modules, records, section,
    table1_cells, table1_section, table2_section, take_snapshot, trace_op, OpResult, Seeds,
    Workload, ATTACK_OPS, FAULT_TRIALS_PER_CLASS, PREPARE_SEED_TAG, RUN_MODULE_SEED, TABLE1_TRIALS,
    TABLE1_WIDTHS, TABLE3_RUNS,
};
use pacstack_aarch64::{Cpu, InsnCounters, RunStatus, LAYOUT};
use pacstack_acs::security::{self, ViolationKind};
use pacstack_acs::{AcsConfig, AuthenticatedCallStack, Masking};
use pacstack_attacks::{collision, offgraph};
use pacstack_bench::experiments::{
    AblationRow, ConfirmRow, FaultsReport, Figure5Row, MixRow, Table1Cell, Table3Row,
    MEASURED_SCHEMES,
};
use pacstack_bench::render;
use pacstack_chaos::campaign::chaos_module;
use pacstack_chaos::plan::{generate_kind, generate_trigger};
use pacstack_chaos::{engine, CellCounts, FaultClass, InjectionPlan, TargetCoverage};
use pacstack_chaos::{TrialOutcome, TARGETS};
use pacstack_compiler::{lower, lower_with_options, LowerOptions, Module, Scheme};
use pacstack_exec::{self as exec, TrialRng};
use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
use pacstack_qarma::{Key128, Qarma64};
use pacstack_telemetry as telemetry;
use pacstack_workloads::confirm;
use pacstack_workloads::measure::{geometric_mean_percent, Measurement};
use pacstack_workloads::nginx::{self, TpsResult};
use pacstack_workloads::spec::{c_benchmark, Suite, CPP_BENCHMARKS, C_BENCHMARKS};
use pacstack_workloads::supervisor::online_attack_economics;
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("experiments.table1_s", "s"),
    ("experiments.birthday_s", "s"),
    ("experiments.guessing_s", "s"),
    ("experiments.games_s", "s"),
    ("experiments.pac-width_s", "s"),
    ("experiments.gadget_s", "s"),
    ("experiments.reuse_s", "s"),
    ("experiments.figure5_s", "s"),
    ("experiments.table2_s", "s"),
    ("experiments.table3_s", "s"),
    ("experiments.ablation_s", "s"),
    ("experiments.mix_s", "s"),
    ("experiments.confirm_s", "s"),
    ("experiments.faults_s", "s"),
    ("experiments.trace_s", "s"),
    ("experiments.self_s", "s"),
    ("qarma.encrypt_ns", "ns"),
    ("qarma.schedule_ns", "ns"),
    ("pauth.keygen_ns", "ns"),
    ("pauth.compute_pac_ns", "ns"),
    ("pauth.keygens", "count"),
    ("pauth.cipher_rebuilds", "count"),
    ("pauth.pac_computes", "count"),
    ("pauth.pac_computes_per_rebuild", "ratio"),
    ("acs.call_ret_ns", "ns"),
    ("acs.calls", "count"),
    ("acs.violations", "count"),
    ("attacks.trials_per_s", "1/s"),
    ("attacks.self_s", "s"),
    ("compiler.lower_us", "us"),
    ("compiler.lower_calls", "count"),
    ("compiler.program_insns", "count"),
    ("compiler.self_s", "s"),
    ("aarch64.link_us", "us"),
    ("aarch64.run_s", "s"),
    ("aarch64.run_minsn_per_s", "Minsn/s"),
    ("aarch64.simulations", "count"),
    ("aarch64.insns_retired", "count"),
    ("aarch64.sim_cycles", "cycles"),
    ("aarch64.restore_us", "us"),
    ("aarch64.pac_memo_hit_ratio", "ratio"),
    ("aarch64.self_s", "s"),
    ("workloads.module_us", "us"),
    ("workloads.ssl_tps_cell_s", "s"),
    ("workloads.supervisor_ms", "ms"),
    ("workloads.self_s", "s"),
    ("chaos.prepare_ms", "ms"),
    ("chaos.trial_us_p50", "us"),
    ("chaos.trial_us_p90", "us"),
    ("chaos.trials", "count"),
    ("chaos.detected", "count"),
    ("chaos.silent", "count"),
    ("chaos.masked", "count"),
    ("chaos.hangs", "count"),
    ("chaos.in_window_ratio", "ratio"),
    ("chaos.host_panics", "count"),
    ("chaos.self_s", "s"),
    ("exec.invocations", "count"),
    ("exec.trials", "count"),
    ("exec.effective_parallelism", "ratio"),
    ("telemetry.on_off_ratio", "ratio"),
    ("telemetry.snapshot_ms", "ms"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.records", "count"),
    ("telemetry.artifact_bytes", "bytes"),
    ("telemetry.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Instruction budget of the overhead experiments (`experiments::BUDGET`).
const BUDGET: u64 = 2_000_000_000;
/// Instruction budget of one NGINX session (`nginx::ssl_tps`).
const SSL_BUDGET: u64 = 1_000_000_000;
/// The RNG stream tag of `nginx::ssl_tps`.
const STREAM_SSL_TPS: u64 = 0x5517_7005_EA51_0005;
/// `experiments::faults`' supervisor economics parameters.
const FAULTS_PAC_BITS: u32 = 8;
const FAULTS_UPTIME_PER_LIFE: u64 = 50;
const FAULTS_HORIZON: u64 = 100_000;
const FAULTS_SUPERVISOR_TRIALS: u64 = 96;
/// The seed the ablation, instruction-mix and reuse programs are linked with.
const EXPERIMENT_LINK_SEED: u64 = 1;

/// What a traced run measured, before it becomes metrics.
#[derive(Debug, Default)]
struct Traced {
    /// The counting pass's telemetry counters, by workload name.
    counters: BTreeMap<&'static str, BTreeMap<String, u64>>,
    /// Host seconds of each workload's traced pass.
    traced_s: BTreeMap<&'static str, f64>,
    /// Sink-off and sink-on host seconds of the Table 1 cells.
    cells_off_on: (Vec<f64>, Vec<f64>),
    /// Busy ÷ wall of the engine over an `attack_mc` pass at `--jobs` auto.
    effective_parallelism: f64,
    /// Host seconds of one untraced pass of the named workload.
    untraced_s: f64,
}

/// Runs a traced operation: a span named `span` around `f`, closing any
/// spans a caught panic left open.
fn traced_call(
    t: &mut Tracer,
    name: &'static str,
    span: &'static str,
    f: impl FnOnce(&mut Tracer) -> Result<String, String>,
) -> OpResult {
    let depth = t.depth();
    let op = call(name, || t.span(span, f));
    t.close_to(depth);
    op
}

/// One decomposed pass of `workload`, with spans.
pub fn traced_pass(workload: Workload, seeds: &Seeds, t: &mut Tracer) -> Vec<OpResult> {
    match workload {
        Workload::AttackMc => ATTACK_OPS
            .iter()
            .map(|&(name, span, op)| {
                if name == "table1" {
                    traced_call(t, name, span, |t| {
                        Ok(table1_section(&table1_decomposed(t, seeds.table1)))
                    })
                } else {
                    traced_call(t, name, span, |_| op(seeds))
                }
            })
            .collect(),
        Workload::OverheadSim => overhead_traced(t, seeds),
        Workload::FaultCampaign => vec![traced_call(t, "faults", "experiments.faults", |t| {
            faults_decomposed(t, seeds.faults).and_then(|r| faults_section(&r))
        })],
        Workload::TelemetryOn => telemetry_traced(t, seeds),
    }
}

// ---------------------------------------------------------------------------
// attack_mc
// ---------------------------------------------------------------------------

/// `experiments::table1` at every width, with a span around each
/// `attacks::*` Monte Carlo.
pub fn table1_decomposed(t: &mut Tracer, seed: u64) -> Vec<(u32, Vec<Table1Cell>)> {
    let trials = TABLE1_TRIALS;
    TABLE1_WIDTHS
        .iter()
        .map(|&b| {
            let mut cells = Vec::new();
            for masking in [Masking::Unmasked, Masking::Masked] {
                let on_graph = t.span("attacks.on_graph_attack", |_| {
                    collision::on_graph_attack(b, masking, trials.min(2_000), seed)
                });
                let call_site = t.span("attacks.to_call_site", |_| {
                    offgraph::to_call_site(b, masking, trials, seed ^ 1)
                });
                let arbitrary = t.span("attacks.to_arbitrary_address", |_| {
                    offgraph::to_arbitrary_address(b, masking, trials * 8, seed ^ 2)
                });
                for (kind, mc) in [
                    (ViolationKind::OnGraph, on_graph),
                    (ViolationKind::OffGraphToCallSite, call_site),
                    (ViolationKind::OffGraphToArbitrary, arbitrary),
                ] {
                    t.count("attacks.trials", mc.trials);
                    cells.push(Table1Cell {
                        kind,
                        masking,
                        measured: mc.rate(),
                        interval: mc.wilson_interval(),
                        analytic: security::max_success_probability(kind, masking, b),
                        trials: mc.trials,
                    });
                }
            }
            (b, cells)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// overhead_sim: module → lower → Cpu::with_seed → Cpu::run
// ---------------------------------------------------------------------------

fn module(t: &mut Tracer, build: impl FnOnce() -> Module) -> Module {
    t.span("workloads.module", |_| build())
}

fn link(t: &mut Tracer, program: pacstack_aarch64::Program, seed: u64) -> Cpu {
    t.count("aarch64.simulations", 1);
    t.span("aarch64.link", |_| Cpu::with_seed(program, seed))
}

/// Runs `cpu` until it exits, resuming after syscalls, as the ablation and
/// instruction-mix experiments do.
fn run_to_exit(t: &mut Tracer, cpu: &mut Cpu) -> Result<(), String> {
    loop {
        let out = t
            .span("aarch64.run", |_| cpu.run(BUDGET))
            .map_err(|f| format!("clean run faulted: {f}"))?;
        if let RunStatus::Exited(_) = out.status {
            t.count("aarch64.insns", cpu.instructions());
            return Ok(());
        }
    }
}

/// `measure::run_module`, decomposed.
pub fn run_module_decomposed(
    t: &mut Tracer,
    module: &Module,
    scheme: Scheme,
    budget: u64,
) -> Result<Measurement, String> {
    let program = t.span("compiler.lower", |_| lower(module, scheme));
    let mut cpu = link(t, program, RUN_MODULE_SEED);
    let out = t
        .span("aarch64.run", |_| cpu.run(budget))
        .map_err(|f| format!("workload faulted under {scheme}: {f}"))?;
    t.count("aarch64.insns", out.instructions);
    match out.status {
        RunStatus::Exited(exit_code) => Ok(Measurement {
            cycles: out.cycles,
            instructions: out.instructions,
            exit_code,
        }),
        RunStatus::Syscall(n) => Err(format!("workload raised unexpected syscall {n}")),
    }
}

/// `measure::overhead_percent`, decomposed.
fn overhead_decomposed(t: &mut Tracer, module: &Module, scheme: Scheme) -> Result<f64, String> {
    let base = run_module_decomposed(t, module, Scheme::Baseline, BUDGET)?;
    let inst = run_module_decomposed(t, module, scheme, BUDGET)?;
    if base.exit_code != inst.exit_code {
        return Err(format!("{scheme} changed program behaviour"));
    }
    Ok((inst.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0)
}

/// `experiments::figure5`, decomposed.
pub fn figure5_decomposed(t: &mut Tracer) -> Result<Vec<Figure5Row>, String> {
    let mut rows = Vec::new();
    for suite in [Suite::Rate, Suite::Speed] {
        for profile in &C_BENCHMARKS {
            let m = module(t, || profile.module(suite));
            let mut overheads = Vec::new();
            for scheme in MEASURED_SCHEMES {
                overheads.push((scheme, overhead_decomposed(t, &m, scheme)?));
            }
            rows.push(Figure5Row {
                name: profile.name.to_owned(),
                suite,
                overheads,
            });
        }
    }
    Ok(rows)
}

/// `experiments::cpp_aggregate`, decomposed.
pub fn cpp_aggregate_decomposed(t: &mut Tracer) -> Result<(f64, f64), String> {
    let (mut full, mut nomask) = (Vec::new(), Vec::new());
    for profile in &CPP_BENCHMARKS {
        let m = module(t, || profile.module(Suite::Rate));
        full.push(overhead_decomposed(t, &m, Scheme::PacStack)?);
        nomask.push(overhead_decomposed(t, &m, Scheme::PacStackNomask)?);
    }
    Ok((
        geometric_mean_percent(&full),
        geometric_mean_percent(&nomask),
    ))
}

/// `nginx::ssl_tps` at `--jobs 1`, decomposed.
fn ssl_tps_decomposed(
    t: &mut Tracer,
    scheme: Scheme,
    workers: u32,
    seed: u64,
) -> Result<TpsResult, String> {
    t.span("workloads.ssl_tps_cell", |t| {
        let mut samples = Vec::with_capacity(TABLE3_RUNS);
        for i in 0..TABLE3_RUNS as u64 {
            let mut rng = TrialRng::new(seed ^ STREAM_SSL_TPS, i);
            let rounds: u32 = 36 + rng.gen_range(0..=8);
            let m = module(t, || nginx::server_module(rounds));
            let run = run_module_decomposed(t, &m, scheme, SSL_BUDGET)?;
            let cycles_per_txn = run.cycles as f64 / f64::from(nginx::TRANSACTIONS);
            samples.push(f64::from(workers) * nginx::CLOCK_HZ / cycles_per_txn);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Ok(TpsResult {
            mean_tps: mean,
            sigma: var.sqrt(),
            runs: TABLE3_RUNS,
        })
    })
}

/// `experiments::table3`, decomposed.
pub fn table3_decomposed(t: &mut Tracer, seed: u64) -> Result<Vec<Table3Row>, String> {
    [4u32, 8]
        .iter()
        .map(|&workers| {
            Ok(Table3Row {
                workers,
                baseline: ssl_tps_decomposed(t, Scheme::Baseline, workers, seed)?,
                nomask: ssl_tps_decomposed(t, Scheme::PacStackNomask, workers, seed)?,
                pacstack: ssl_tps_decomposed(t, Scheme::PacStack, workers, seed)?,
            })
        })
        .collect()
}

fn profile_module(t: &mut Tracer, name: &str) -> Result<Module, String> {
    let profile = c_benchmark(name).ok_or_else(|| format!("no {name} profile"))?;
    Ok(module(t, || profile.module(Suite::Rate)))
}

/// `experiments::ablations`, decomposed.
pub fn ablations_decomposed(t: &mut Tracer) -> Result<Vec<AblationRow>, String> {
    let m = profile_module(t, "perlbench")?;
    let cycles = |t: &mut Tracer, scheme: Scheme, leaves: bool| {
        let options = LowerOptions {
            instrument_leaves: leaves,
        };
        let program = t.span("compiler.lower", |_| {
            lower_with_options(&m, scheme, options)
        });
        let mut cpu = link(t, program, EXPERIMENT_LINK_SEED);
        run_to_exit(t, &mut cpu).map(|()| cpu.cycles())
    };
    run_module_decomposed(t, &m, Scheme::Baseline, BUDGET)?;
    let shipped = cycles(t, Scheme::PacStack, false)?;
    let nomask = cycles(t, Scheme::PacStackNomask, false)?;
    let leaves_on = cycles(t, Scheme::PacStack, true)?;
    Ok(vec![
        AblationRow {
            label: "PAC masking (PACStack vs nomask)".to_owned(),
            cycles_on: shipped,
            cycles_off: nomask,
        },
        AblationRow {
            label: "leaf heuristic off (instrument leaves)".to_owned(),
            cycles_on: leaves_on,
            cycles_off: shipped,
        },
    ])
}

/// `experiments::instruction_mix`, decomposed.
pub fn instruction_mix_decomposed(t: &mut Tracer) -> Result<Vec<MixRow>, String> {
    let m = profile_module(t, "gcc")?;
    let run = |t: &mut Tracer, scheme: Scheme| -> Result<InsnCounters, String> {
        let program = t.span("compiler.lower", |_| lower(&m, scheme));
        let mut cpu = link(t, program, EXPERIMENT_LINK_SEED);
        run_to_exit(t, &mut cpu).map(|()| cpu.counters())
    };
    let baseline = run(t, Scheme::Baseline)?;
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let counters = run(t, scheme)?;
            Ok(MixRow {
                scheme,
                counters,
                added_vs_baseline: counters.total() as i64 - baseline.total() as i64,
            })
        })
        .collect()
}

/// `experiments::confirm_table`, with a span around each case.
fn confirm_decomposed(t: &mut Tracer) -> Vec<ConfirmRow> {
    confirm::suite()
        .iter()
        .map(|case| ConfirmRow {
            name: case.name,
            results: t
                .span("workloads.confirm_case", |_| confirm::run_case(case))
                .into_iter()
                .map(|r| (r.scheme, r.passed))
                .collect(),
        })
        .collect()
}

fn overhead_traced(t: &mut Tracer, seeds: &Seeds) -> Vec<OpResult> {
    let mut rows = None;
    let mut ops = vec![traced_call(t, "figure5", "experiments.figure5", |t| {
        let r = figure5_decomposed(t)?;
        let s = section(render::figure5(&r));
        rows = Some(r);
        Ok(s)
    })];
    ops.push(traced_call(t, "table2", "experiments.table2", |t| {
        let rows = rows.as_deref().ok_or("figure5 failed")?;
        Ok(table2_section(rows, cpp_aggregate_decomposed(t)?))
    }));
    ops.push(traced_call(t, "table3", "experiments.table3", |t| {
        Ok(section(render::table3(&table3_decomposed(
            t,
            seeds.table3,
        )?)))
    }));
    ops.push(traced_call(t, "ablation", "experiments.ablation", |t| {
        Ok(section(render::ablations(&ablations_decomposed(t)?)))
    }));
    ops.push(traced_call(t, "mix", "experiments.mix", |t| {
        Ok(section(render::instruction_mix(
            &instruction_mix_decomposed(t)?,
        )))
    }));
    ops.push(traced_call(t, "confirm", "experiments.confirm", |t| {
        Ok(section(render::confirm(&confirm_decomposed(t))))
    }));
    ops
}

// ---------------------------------------------------------------------------
// fault_campaign: chaos::engine::prepare, then PreparedTarget::run_plan
// ---------------------------------------------------------------------------

/// `experiments::faults` at `--jobs 1`, with a span around each target's
/// preparation, each trial and the supervisor sweep.
pub fn faults_decomposed(t: &mut Tracer, seed: u64) -> Result<FaultsReport, String> {
    let chaos = chaos_module();
    let classes = FaultClass::ALL.len() as u64;
    let trials = FAULT_TRIALS_PER_CLASS * classes;
    let mut coverage = Vec::with_capacity(TARGETS.len());
    for (t_idx, target) in TARGETS.iter().enumerate() {
        let prepared = t
            .span("chaos.prepare", |_| {
                engine::prepare(*target, &chaos, seed ^ PREPARE_SEED_TAG)
            })
            .map_err(|e| e.to_string())?;
        let stream = seed.wrapping_add(0x9E37 * (t_idx as u64 + 1));
        let mut cells = [CellCounts::default(); FaultClass::ALL.len()];
        let mut host_panics = 0u64;
        for i in 0..trials {
            let mut rng = TrialRng::new(stream, i);
            let class = FaultClass::ALL[(i % classes) as usize];
            let reference = &prepared.reference;
            let at = generate_trigger(&mut rng, &reference.windows, reference.instructions);
            let plan = InjectionPlan::single(at, generate_kind(class, &mut rng));
            let outcome = t.span("chaos.trial", |_| {
                catch_unwind(AssertUnwindSafe(|| prepared.run_plan(&plan))).ok()
            });
            let cell = &mut cells[(i % classes) as usize];
            match outcome {
                Some(TrialOutcome::DetectedCrash(_)) => cell.detected += 1,
                Some(TrialOutcome::SilentCorruption) => cell.silent += 1,
                Some(TrialOutcome::Masked) => cell.masked += 1,
                Some(TrialOutcome::Hang) => cell.hung += 1,
                None => host_panics += 1,
            }
        }
        t.count("chaos.host_panics", host_panics);
        coverage.push(TargetCoverage {
            label: target.label,
            cells,
            host_panics,
        });
    }
    let economics = t.span("workloads.supervisor", |_| {
        online_attack_economics(
            FAULTS_PAC_BITS,
            FAULTS_UPTIME_PER_LIFE,
            FAULTS_HORIZON,
            FAULTS_SUPERVISOR_TRIALS,
            seed ^ 0x50FE,
        )
    });
    Ok(FaultsReport {
        coverage,
        economics,
        b: FAULTS_PAC_BITS,
        horizon: FAULTS_HORIZON,
    })
}

// ---------------------------------------------------------------------------
// telemetry_on
// ---------------------------------------------------------------------------

fn telemetry_traced(t: &mut Tracer, seeds: &Seeds) -> Vec<OpResult> {
    let table1 = traced_call(t, "table1", "experiments.table1_on", |_| {
        telemetry::reset();
        telemetry::enable();
        Ok(table1_section(&table1_cells(seeds.table1)))
    });
    let depth = t.depth();
    let export = call_with_artifacts("telemetry-export", || {
        let merged = t.span("telemetry.snapshot", |_| telemetry::snapshot());
        telemetry::disable();
        let artifacts = t.span("telemetry.export", |_| export_all(&merged));
        telemetry::reset();
        t.count("telemetry.records", records(&merged));
        t.count("telemetry.artifact_bytes", artifacts.len() as u64);
        Ok((String::new(), artifacts))
    });
    t.close_to(depth);
    let trace = call_with_artifacts("trace", || {
        let (stdout, extra) = t.span("experiments.trace", |_| trace_op())?;
        t.count(
            "telemetry.artifact_bytes",
            (stdout.len() + extra.len()) as u64,
        );
        Ok((stdout, extra))
    });
    t.close_to(depth);
    vec![table1, export, trace]
}

/// Host seconds of the Table 1 cells with the sink off and on, interleaved
/// off, on, on, off so drift cancels. Each run is checked against the
/// golden (at the pinned seeds) and against the first.
fn cells_off_on(seeds: &Seeds, ledger: &mut Ledger) -> (Vec<f64>, Vec<f64>) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<OpResult>> = None;
    for sink in [false, true, true, false] {
        telemetry::reset();
        if sink {
            telemetry::enable();
        }
        let start = Instant::now();
        let op = call("table1", || Ok(table1_section(&table1_cells(seeds.table1))));
        let secs = start.elapsed().as_secs_f64();
        take_snapshot();
        (if sink { &mut on } else { &mut off }).push(secs);
        let pass = vec![op];
        ledger.record(&pass, seeds.pinned(), reference.as_deref());
        reference.get_or_insert(pass);
    }
    (off, on)
}

// ---------------------------------------------------------------------------
// Probes: single-layer operations on fixed inputs
// ---------------------------------------------------------------------------

/// Median over five batches of the host nanoseconds per call of `f`.
fn per_call_ns<R>(calls: u64, mut f: impl FnMut(u64) -> R) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                black_box(f(black_box(i)));
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// Times single-layer operations on inputs drawn from `seed`.
fn probes(seed: u64, m: &mut Metrics) {
    let key = Key128::new(seed ^ 0x84BE_85CE_9804_E94B, 0xEC28_02D4_E0A4_88E9);
    let cipher = Qarma64::recommended(key);
    m.set(
        "qarma.encrypt_ns",
        per_call_ns(200_000, |i| cipher.encrypt(i, i ^ 0x5555)),
        "ns",
    );
    m.set(
        "qarma.schedule_ns",
        per_call_ns(20_000, |i| Qarma64::recommended(Key128::new(i, seed))),
        "ns",
    );
    m.set(
        "pauth.keygen_ns",
        per_call_ns(5_000, |i| PaKeys::from_seed(seed ^ i)),
        "ns",
    );
    let pa = PointerAuth::new(VaLayout::default());
    let keys = PaKeys::from_seed(seed);
    m.set(
        "pauth.compute_pac_ns",
        per_call_ns(100_000, |i| {
            pa.compute_pac(&keys, PaKey::Ia, 0x40_0000 + 4 * (i & 0xFFFF), i)
        }),
        "ns",
    );
    let mut acs = AuthenticatedCallStack::new(pa, keys, AcsConfig::new());
    m.set(
        "acs.call_ret_ns",
        per_call_ns(100_000, |i| {
            acs.call(0x40_1000 + 4 * (i & 0xFFF));
            acs.ret()
        }),
        "ns",
    );
    let base = Cpu::with_seed(lower(&chaos_module(), Scheme::PacStack), seed);
    let mut scratch = base.clone();
    let ran = scratch.run(BUDGET).is_ok();
    m.set(
        "aarch64.restore_us",
        if ran {
            per_call_ns(2_000, |_| scratch.clone_from(&base)) / 1e3
        } else {
            f64::NAN
        },
        "us",
    );
    let mut insns = 0u64;
    for module in overhead_modules() {
        for scheme in Scheme::ALL {
            let image = lower(&module, scheme).assemble(LAYOUT.code_base);
            insns += image.map_or(0, |i| i.instructions.len() as u64);
        }
    }
    m.set("compiler.program_insns", insns as f64, "count");
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// The traced run at workload seed `seed`: probes, then for each workload
/// a decomposed pass and a counting pass (and, for `named`, an untraced
/// pass); then the sink on/off cells and an `attack_mc` pass at `--jobs`
/// auto. Returns the per-layer metrics in [`PER_LAYER`] order.
pub fn traced_run(named: Workload, seed: u64, t: &mut Tracer, ledger: &mut Ledger) -> Metrics {
    exec::set_jobs(1);
    let seeds = Seeds::from_workload_seed(seed);
    let pinned = seeds.pinned();
    let mut m = Metrics::default();
    probes(seed, &mut m);
    let mut traced = Traced::default();
    let mut attack_reference = Vec::new();
    for workload in Workload::ALL {
        let start = Instant::now();
        let pass = traced_pass(workload, &seeds, t);
        traced
            .traced_s
            .insert(workload.name(), start.elapsed().as_secs_f64());
        ledger.record(&pass, pinned, None);
        if workload != Workload::TelemetryOn {
            telemetry::reset();
            telemetry::enable();
            let counted = workload.pass(&seeds);
            traced
                .counters
                .insert(workload.name(), take_snapshot().counters);
            ledger.record(&counted, pinned, Some(&pass));
        }
        if workload == named {
            let start = Instant::now();
            let plain = workload.pass(&seeds);
            traced.untraced_s = start.elapsed().as_secs_f64();
            ledger.record(&plain, pinned, Some(&pass));
        }
        if workload == Workload::AttackMc {
            attack_reference = pass;
        }
    }
    traced.cells_off_on = cells_off_on(&seeds, ledger);

    exec::set_jobs(0);
    exec::stats::drain();
    let parallel = Workload::AttackMc.pass(&seeds);
    let stats = exec::stats::drain();
    exec::set_jobs(1);
    ledger.record(&parallel, pinned, Some(&attack_reference));
    let busy: f64 = stats.iter().map(|(_, s)| s.busy.as_secs_f64()).sum();
    let wall: f64 = stats.iter().map(|(_, s)| s.wall.as_secs_f64()).sum();
    traced.effective_parallelism = ratio(busy, wall);

    derive(&mut m, t, &traced, named);
    let mut ordered = Metrics::default();
    for (name, unit) in PER_LAYER {
        ordered.set(name, m.get(name).unwrap_or(f64::NAN), unit);
    }
    ordered
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Per-layer metrics from the spans, counts and counters of a traced run.
fn derive(m: &mut Metrics, t: &Tracer, traced: &Traced, named: Workload) {
    for (name, _) in PER_LAYER {
        if let Some(op) = name
            .strip_prefix("experiments.")
            .and_then(|n| n.strip_suffix("_s"))
            .filter(|op| *op != "self")
        {
            let span = format!("experiments.{op}");
            m.set(name, t.total(&span), "s");
        }
    }
    for (layer, secs) in t.self_times() {
        m.set(format!("{layer}.self_s"), secs, "s");
    }
    let empty = BTreeMap::new();
    let counters = |w: Workload| traced.counters.get(w.name()).unwrap_or(&empty);
    let sum = |c: &BTreeMap<String, u64>, prefix: &str| -> f64 {
        c.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };

    let attack = counters(Workload::AttackMc);
    let rebuilds = sum(attack, "pauth_cipher_rebuilds_total");
    let computes = sum(attack, "pauth_pac_computes_total");
    m.set("pauth.keygens", sum(attack, "pauth_keygens_total"), "count");
    m.set("pauth.cipher_rebuilds", rebuilds, "count");
    m.set("pauth.pac_computes", computes, "count");
    m.set(
        "pauth.pac_computes_per_rebuild",
        ratio(computes, rebuilds),
        "ratio",
    );
    m.set("acs.calls", sum(attack, "acs_calls_total"), "count");
    m.set(
        "acs.violations",
        sum(attack, "acs_violations_total"),
        "count",
    );
    m.set(
        "exec.invocations",
        sum(attack, "exec_invocations_total"),
        "count",
    );
    m.set("exec.trials", sum(attack, "exec_trials_total"), "count");
    m.set(
        "exec.effective_parallelism",
        traced.effective_parallelism,
        "ratio",
    );
    let attack_secs: f64 = [
        "attacks.on_graph_attack",
        "attacks.to_call_site",
        "attacks.to_arbitrary_address",
    ]
    .iter()
    .map(|s| t.total(s))
    .sum();
    m.set(
        "attacks.trials_per_s",
        ratio(t.counted("attacks.trials") as f64, attack_secs),
        "1/s",
    );

    let lowers = t.durations("compiler.lower");
    m.set("compiler.lower_us", mean(&lowers) * 1e6, "us");
    m.set("compiler.lower_calls", lowers.len() as f64, "count");
    let run_s = t.total("aarch64.run");
    m.set(
        "aarch64.link_us",
        mean(&t.durations("aarch64.link")) * 1e6,
        "us",
    );
    m.set("aarch64.run_s", run_s, "s");
    m.set(
        "aarch64.run_minsn_per_s",
        ratio(t.counted("aarch64.insns") as f64 / 1e6, run_s),
        "Minsn/s",
    );
    m.set(
        "aarch64.simulations",
        t.counted("aarch64.simulations") as f64,
        "count",
    );
    let sim = counters(Workload::OverheadSim);
    m.set(
        "aarch64.insns_retired",
        sum(sim, "cpu_insns_total"),
        "count",
    );
    m.set("aarch64.sim_cycles", sum(sim, "cpu_cycles_total"), "cycles");
    let faults = counters(Workload::FaultCampaign);
    let hits = sum(faults, "cpu_pac_memo_total{result=\"hit\"}");
    let misses = sum(faults, "cpu_pac_memo_total{result=\"miss\"}");
    m.set(
        "aarch64.pac_memo_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );

    m.set(
        "workloads.module_us",
        mean(&t.durations("workloads.module")) * 1e6,
        "us",
    );
    m.set(
        "workloads.ssl_tps_cell_s",
        mean(&t.durations("workloads.ssl_tps_cell")),
        "s",
    );
    m.set(
        "workloads.supervisor_ms",
        t.total("workloads.supervisor") * 1e3,
        "ms",
    );

    m.set(
        "chaos.prepare_ms",
        mean(&t.durations("chaos.prepare")) * 1e3,
        "ms",
    );
    let trials = t.durations("chaos.trial");
    m.set("chaos.trial_us_p50", quantile(&trials, 0.5) * 1e6, "us");
    m.set("chaos.trial_us_p90", quantile(&trials, 0.9) * 1e6, "us");
    m.set("chaos.trials", sum(faults, "chaos_trials_total"), "count");
    for (name, label) in [
        ("chaos.detected", "detected"),
        ("chaos.silent", "silent"),
        ("chaos.masked", "masked"),
        ("chaos.hangs", "hang"),
    ] {
        let counter = format!("chaos_trials_total{{outcome=\"{label}\"}}");
        m.set(name, sum(faults, &counter), "count");
    }
    let inside = sum(faults, "chaos_injections_total{window=\"in\"}");
    let outside = sum(faults, "chaos_injections_total{window=\"out\"}");
    m.set(
        "chaos.in_window_ratio",
        ratio(inside, inside + outside),
        "ratio",
    );
    m.set(
        "chaos.host_panics",
        t.counted("chaos.host_panics") as f64,
        "count",
    );

    let (off, on) = &traced.cells_off_on;
    m.set(
        "telemetry.on_off_ratio",
        ratio(on.iter().sum(), off.iter().sum()),
        "ratio",
    );
    m.set(
        "telemetry.snapshot_ms",
        t.total("telemetry.snapshot") * 1e3,
        "ms",
    );
    m.set(
        "telemetry.export_ms",
        t.total("telemetry.export") * 1e3,
        "ms",
    );
    m.set(
        "telemetry.records",
        t.counted("telemetry.records") as f64,
        "count",
    );
    m.set(
        "telemetry.artifact_bytes",
        t.counted("telemetry.artifact_bytes") as f64,
        "bytes",
    );

    let traced_s = traced.traced_s.get(named.name()).copied().unwrap_or(0.0);
    m.set(
        "trace.overhead_ratio",
        ratio(traced_s, traced.untraced_s),
        "ratio",
    );
}
