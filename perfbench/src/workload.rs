//! The four closed-loop workloads: their inputs, their set-up, and one
//! untraced pass of public `experiments::*` calls.
//!
//! One operation is one experiment call. Each call starts only when the
//! previous one has returned, and each is rendered with `render::*` exactly
//! as `repro` prints it, so its output can be byte-compared with the golden
//! files.

use pacstack_aarch64::Cpu;
use pacstack_acs::{AcsConfig, AuthenticatedCallStack, Masking};
use pacstack_attacks::layout_with_pac_bits;
use pacstack_bench::experiments::{self, FaultsReport, Figure5Row, Table1Cell};
use pacstack_bench::{render, tracecmd};
use pacstack_chaos::campaign::chaos_module;
use pacstack_chaos::{engine, TARGETS};
use pacstack_compiler::{lower, Scheme};
use pacstack_pauth::{PaKeys, PointerAuth};
use pacstack_telemetry as telemetry;
use pacstack_telemetry::Merged;
use pacstack_workloads::nginx;
use pacstack_workloads::spec::{Suite, CPP_BENCHMARKS, C_BENCHMARKS};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// PAC widths of the Table 1 cells (as `repro table1`).
pub const TABLE1_WIDTHS: [u32; 3] = [4, 6, 8];
/// Monte Carlo trials per Table 1 cell.
pub const TABLE1_TRIALS: u64 = 4_000;
/// Measurement sessions per Table 3 cell.
pub const TABLE3_RUNS: usize = 10;
/// Widths and campaigns of the birthday experiment.
pub const BIRTHDAY_WIDTHS: [u32; 4] = [6, 8, 10, 12];
/// Harvest campaigns per birthday width.
pub const BIRTHDAY_RUNS: u64 = 60;
/// Widths of the guessing experiment.
pub const GUESSING_WIDTHS: [u32; 3] = [6, 8, 10];
/// Runs per guessing width.
pub const GUESSING_RUNS: u64 = 200;
/// Widths of the collision games.
pub const GAMES_WIDTHS: [u32; 3] = [6, 8, 10];
/// Trials per collision game.
pub const GAMES_TRIALS: u64 = 40;
/// Fault-injection trials per (target, fault class): the golden size.
pub const FAULT_TRIALS_PER_CLASS: u64 = 24;
/// Handshake rounds of the nominal NGINX module built at set-up.
const NGINX_ROUNDS: u32 = 40;
/// The seed `measure::run_module` links workload programs with.
pub const RUN_MODULE_SEED: u64 = 0xACE5;
/// The tag `chaos::campaign::coverage` XORs into the campaign seed before
/// preparing each target.
pub const PREPARE_SEED_TAG: u64 = 0xC4A0_5000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Security Monte Carlos: `attacks` → `acs` → `pauth` → `qarma`.
    AttackMc,
    /// Compiled-code overheads: `workloads` → `lower` → `Cpu::run`.
    OverheadSim,
    /// The fault-injection campaign and supervisor economics.
    FaultCampaign,
    /// Table 1 cells and `repro trace` with the telemetry sink enabled.
    TelemetryOn,
}

impl Workload {
    /// Every workload, in the order the traced run measures them.
    pub const ALL: [Workload; 4] = [
        Workload::AttackMc,
        Workload::OverheadSim,
        Workload::FaultCampaign,
        Workload::TelemetryOn,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttackMc => "attack_mc",
            Workload::OverheadSim => "overhead_sim",
            Workload::FaultCampaign => "fault_campaign",
            Workload::TelemetryOn => "telemetry_on",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One untraced pass: every experiment call of the workload, in order.
    pub fn pass(self, seeds: &Seeds) -> Vec<OpResult> {
        match self {
            Workload::AttackMc => attack_pass(seeds),
            Workload::OverheadSim => overhead_pass(seeds),
            Workload::FaultCampaign => vec![call("faults", || {
                experiments::faults(FAULT_TRIALS_PER_CLASS, seeds.faults)
                    .map_err(|e| e.to_string())
                    .and_then(|report| faults_section(&report))
            })],
            Workload::TelemetryOn => telemetry_pass(seeds),
        }
    }

    /// Builds the workload's inputs, as a fresh process does before its
    /// first timed pass, and returns a checksum of them.
    ///
    /// # Errors
    ///
    /// Returns a message if a chaos target fails to prepare.
    pub fn setup(self, seeds: &Seeds) -> Result<u64, String> {
        match self {
            Workload::AttackMc => Ok(attack_setup(seeds)),
            Workload::OverheadSim => Ok(overhead_setup()),
            Workload::FaultCampaign => fault_setup(seeds),
            Workload::TelemetryOn => {
                telemetry::reset();
                telemetry::enable();
                let sum = attack_setup(seeds);
                telemetry::disable();
                telemetry::reset();
                Ok(sum)
            }
        }
    }
}

/// The experiment seeds a workload seed selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `experiments::table1`.
    pub table1: u64,
    /// `experiments::table3`.
    pub table3: u64,
    /// `experiments::faults`.
    pub faults: u64,
    /// `experiments::birthday`.
    pub birthday: u64,
    /// `experiments::collision_games`.
    pub games: u64,
}

/// The seeds `repro all` uses, which the golden files pin.
pub const PINNED: Seeds = Seeds {
    table1: 0x71,
    table3: 42,
    faults: 0xFA17,
    birthday: 7,
    games: 0xA11CE,
};

impl Seeds {
    /// Workload seed 0 selects the pinned seeds; any other seed moves every
    /// experiment seed by the same 32-bit SplitMix64 hash of it.
    pub fn from_workload_seed(seed: u64) -> Self {
        if seed == 0 {
            return PINNED;
        }
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let shift = ((z ^ (z >> 31)) & 0xFFFF_FFFF) << 8;
        Seeds {
            table1: PINNED.table1 ^ shift,
            table3: PINNED.table3 ^ shift,
            faults: PINNED.faults ^ shift,
            birthday: PINNED.birthday ^ shift,
            games: PINNED.games ^ shift,
        }
    }

    /// Whether these are the seeds the golden files pin.
    pub fn pinned(&self) -> bool {
        *self == PINNED
    }
}

/// The result of one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The operation: a `repro` subcommand name, or `telemetry-export`.
    pub name: &'static str,
    /// The rendered section as `repro` prints it, or why the call failed.
    pub output: Result<String, String>,
    /// Further bytes that must repeat exactly across passes (exported
    /// telemetry artifacts); empty for plain experiment calls.
    pub artifacts: String,
}

/// Runs one operation, turning a panic into a failed result.
pub fn call(name: &'static str, f: impl FnOnce() -> Result<String, String>) -> OpResult {
    call_with_artifacts(name, || f().map(|s| (s, String::new())))
}

/// [`call`] for operations that also produce artifacts.
pub fn call_with_artifacts(
    name: &'static str,
    f: impl FnOnce() -> Result<(String, String), String>,
) -> OpResult {
    let (output, artifacts) = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok((section, artifacts))) => (Ok(section), artifacts),
        Ok(Err(e)) => (Err(e), String::new()),
        Err(panic) => (Err(panic_message(&*panic)), String::new()),
    };
    OpResult {
        name,
        output,
        artifacts,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    format!("panicked: {msg}")
}

/// A section as `repro` prints it: the body plus `println!`'s newline.
pub fn section(body: String) -> String {
    body + "\n"
}

/// The `repro table1` section from its cells, one table per width.
pub fn table1_section(tables: &[(u32, Vec<Table1Cell>)]) -> String {
    let mut body = String::new();
    for (b, cells) in tables {
        body.push_str(&render::table1(cells, *b));
        body.push('\n');
    }
    section(body)
}

/// The `repro table1` cells at `seed`.
pub fn table1_cells(seed: u64) -> Vec<(u32, Vec<Table1Cell>)> {
    TABLE1_WIDTHS
        .iter()
        .map(|&b| (b, experiments::table1(b, TABLE1_TRIALS, seed)))
        .collect()
}

/// The `repro faults` section; a caught host panic in any target fails it.
pub fn faults_section(report: &FaultsReport) -> Result<String, String> {
    let panics: u64 = report.coverage.iter().map(|t| t.host_panics).sum();
    if panics > 0 {
        return Err(format!("{panics} host panics in the campaign"));
    }
    Ok(section(render::faults(report)))
}

/// The `repro table2` section from Figure 5 rows and the C++ aggregate.
pub fn table2_section(rows: &[Figure5Row], cpp: (f64, f64)) -> String {
    section(render::table2(&experiments::table2(rows), cpp))
}

/// An experiment call of `attack_mc`: its operation name, the name of the
/// span the traced run puts around it, and the call itself.
pub type AttackOp = (
    &'static str,
    &'static str,
    fn(&Seeds) -> Result<String, String>,
);

/// The `attack_mc` operations, in pass order.
pub const ATTACK_OPS: [AttackOp; 7] = [
    ("table1", "experiments.table1", |s| {
        Ok(table1_section(&table1_cells(s.table1)))
    }),
    ("birthday", "experiments.birthday", |s| {
        let rows = experiments::birthday(&BIRTHDAY_WIDTHS, BIRTHDAY_RUNS, s.birthday);
        Ok(section(render::birthday(&rows)))
    }),
    ("guessing", "experiments.guessing", |_| {
        let rows = experiments::guessing_costs(&GUESSING_WIDTHS, GUESSING_RUNS);
        Ok(section(render::guessing(&rows)))
    }),
    ("games", "experiments.games", |s| {
        let rows = experiments::collision_games(&GAMES_WIDTHS, GAMES_TRIALS, s.games);
        Ok(section(render::games(&rows)))
    }),
    ("pac-width", "experiments.pac-width", |_| {
        Ok(section(render::pac_width(&experiments::pac_width_sweep())))
    }),
    ("gadget", "experiments.gadget", |_| {
        Ok(section(
            render::attack_matrix(&experiments::attack_matrix()),
        ))
    }),
    ("reuse", "experiments.reuse", |_| {
        Ok(section(render::reuse(&experiments::reuse_opportunities())))
    }),
];

fn attack_pass(seeds: &Seeds) -> Vec<OpResult> {
    ATTACK_OPS
        .iter()
        .map(|(name, _, op)| call(name, || op(seeds)))
        .collect()
}

fn overhead_pass(seeds: &Seeds) -> Vec<OpResult> {
    let mut rows = None;
    let mut ops = vec![call("figure5", || {
        let r = experiments::figure5();
        let s = section(render::figure5(&r));
        rows = Some(r);
        Ok(s)
    })];
    ops.push(call("table2", || {
        let rows = rows.as_deref().ok_or("figure5 failed")?;
        Ok(table2_section(rows, experiments::cpp_aggregate()))
    }));
    ops.push(call("table3", || {
        let rows = experiments::table3(TABLE3_RUNS, seeds.table3);
        Ok(section(render::table3(&rows)))
    }));
    ops.push(call("ablation", || {
        Ok(section(render::ablations(&experiments::ablations())))
    }));
    ops.push(call("mix", || {
        Ok(section(render::instruction_mix(
            &experiments::instruction_mix(),
        )))
    }));
    ops.push(call("confirm", || {
        Ok(section(render::confirm(&experiments::confirm_table())))
    }));
    ops
}

/// Every record of a merged snapshot: counters, histograms, stacks and
/// spans.
pub fn records(merged: &Merged) -> u64 {
    (merged.counters.len() + merged.histograms.len() + merged.stacks.len() + merged.spans.len())
        as u64
}

/// A merged snapshot through all three exporters, concatenated.
pub fn export_all(merged: &Merged) -> String {
    [
        telemetry::export::prometheus(merged),
        telemetry::export::chrome_json(merged),
        telemetry::export::flame(merged),
    ]
    .concat()
}

/// Takes the sink's snapshot, then disables and clears the sink.
pub fn take_snapshot() -> Merged {
    let merged = telemetry::snapshot();
    telemetry::disable();
    telemetry::reset();
    merged
}

/// `repro trace --quick`: its stdout is the section, the Chrome trace and
/// flamegraph are the artifacts.
pub fn trace_op() -> Result<(String, String), String> {
    let artifacts = tracecmd::capture(true)?;
    let extra = [artifacts.chrome_json.as_str(), artifacts.flame.as_str()].concat();
    Ok((artifacts.stdout(), extra))
}

fn telemetry_pass(seeds: &Seeds) -> Vec<OpResult> {
    telemetry::reset();
    telemetry::enable();
    let table1 = call("table1", || Ok(table1_section(&table1_cells(seeds.table1))));
    let export = call_with_artifacts("telemetry-export", || {
        Ok((String::new(), export_all(&take_snapshot())))
    });
    vec![table1, export, call_with_artifacts("trace", trace_op)]
}

fn attack_setup(seeds: &Seeds) -> u64 {
    let mut sum = 0u64;
    for b in TABLE1_WIDTHS {
        for masking in [Masking::Unmasked, Masking::Masked] {
            let keys = PaKeys::from_seed(seeds.table1 ^ u64::from(b));
            let pa = PointerAuth::new(layout_with_pac_bits(b));
            let mut acs = AuthenticatedCallStack::new(pa, keys, AcsConfig::new().masking(masking));
            acs.call(0x40_1000);
            sum ^= black_box(acs.chain_register());
        }
    }
    sum
}

/// Every (suite, profile) module the overhead experiments simulate, plus
/// the nominal NGINX server.
pub fn overhead_modules() -> Vec<pacstack_compiler::Module> {
    let mut modules = Vec::new();
    for suite in [Suite::Rate, Suite::Speed] {
        for profile in &C_BENCHMARKS {
            modules.push(profile.module(suite));
        }
    }
    for profile in &CPP_BENCHMARKS {
        modules.push(profile.module(Suite::Rate));
    }
    modules.push(nginx::server_module(NGINX_ROUNDS));
    modules
}

fn overhead_setup() -> u64 {
    let mut sum = 0u64;
    for module in overhead_modules() {
        for scheme in Scheme::ALL {
            let cpu = Cpu::with_seed(lower(&module, scheme), RUN_MODULE_SEED);
            sum = sum.wrapping_add(black_box(&cpu).pc());
        }
    }
    sum
}

fn fault_setup(seeds: &Seeds) -> Result<u64, String> {
    let module = chaos_module();
    let mut sum = 0u64;
    for target in TARGETS {
        let prepared = engine::prepare(target, &module, seeds.faults ^ PREPARE_SEED_TAG)
            .map_err(|e| e.to_string())?;
        sum = sum.wrapping_add(black_box(prepared.reference.instructions));
    }
    Ok(sum)
}
