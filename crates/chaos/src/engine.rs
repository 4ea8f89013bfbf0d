//! The injection engine: prepared targets, runs stopped at each injection's
//! retire index, classified outcomes.

use crate::plan::{FaultKind, InjectionPlan};
use pacstack_aarch64::kernel::{SignalDelivery, SIGRETURN_SYSCALL};
use pacstack_aarch64::{Cpu, Fault, Instruction, LinkError, Reg, RunStatus};
use pacstack_compiler::{lower, Module, Scheme};
use pacstack_pauth::PaKey;
use pacstack_qarma::Key128;
use pacstack_telemetry as telemetry;
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Per-thread scratch CPU reused across trials. Restoring the base
    /// snapshot with `clone_from` copies into the scratch's existing
    /// allocations; cloning afresh per trial would map and unmap the ~3 MiB
    /// of memory segments every time, which dominated campaign wall time.
    static SCRATCH: RefCell<Option<Cpu>> = const { RefCell::new(None) };
}

/// A protection configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Row label in the coverage matrix.
    pub label: &'static str,
    /// The instrumentation scheme to lower the module under.
    pub scheme: Scheme,
    /// Whether to enable ARMv8.6-A FPAC (fault inside `aut*`).
    pub fpac: bool,
}

/// The four configurations the `repro faults` matrix compares. Under FPAC
/// the masking that hides intermediate authentication tokens is unnecessary
/// (the paper's §5.2 discussion), so the FPAC row uses PACStack-nomask.
pub const TARGETS: [Target; 4] = [
    Target {
        label: "unprotected",
        scheme: Scheme::Baseline,
        fpac: false,
    },
    Target {
        label: "PACStack",
        scheme: Scheme::PacStack,
        fpac: false,
    },
    Target {
        label: "PACStack-nomask",
        scheme: Scheme::PacStackNomask,
        fpac: false,
    },
    Target {
        label: "PACStack+FPAC",
        scheme: Scheme::PacStackNomask,
        fpac: true,
    },
];

/// How one injected trial ended. Every trial ends in exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The simulated process died with a [`Fault`] — the corruption was
    /// *detected* (the paper's desired failure mode).
    DetectedCrash(Fault),
    /// The process exited normally but with the wrong exit code or output —
    /// undetected corruption, the dangerous quadrant.
    SilentCorruption,
    /// The process produced exactly the reference exit code and output —
    /// the flip was architecturally masked.
    Masked,
    /// The process exceeded its instruction budget.
    Hang,
}

impl TrialOutcome {
    /// Short label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            TrialOutcome::DetectedCrash(_) => "detected",
            TrialOutcome::SilentCorruption => "silent",
            TrialOutcome::Masked => "masked",
            TrialOutcome::Hang => "hang",
        }
    }
}

impl fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialOutcome::DetectedCrash(fault) => write!(f, "detected ({fault})"),
            other => f.write_str(other.label()),
        }
    }
}

/// Why a target could not be prepared (distinct from trial outcomes:
/// preparation failures mean the *harness* is misconfigured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// The lowered program did not link.
    Link(LinkError),
    /// The uninjected reference run did not exit cleanly.
    Reference(Fault),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Link(e) => write!(f, "target program does not link: {e}"),
            ChaosError::Reference(fault) => {
                write!(f, "reference run did not exit cleanly: {fault}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<LinkError> for ChaosError {
    fn from(e: LinkError) -> Self {
        ChaosError::Link(e)
    }
}

/// Golden behaviour of the uninjected program, plus the retire-index
/// windows where return-address state is live in registers.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Exit code of the clean run.
    pub exit_code: u64,
    /// `svc #1` emissions of the clean run.
    pub output: Vec<u64>,
    /// Retired instructions of the clean run.
    pub instructions: u64,
    /// Retire indices about to execute a PA instruction, call or return —
    /// the prologue/epilogue windows plans bias injections toward.
    pub windows: Vec<u64>,
}

/// A target compiled, seeded and profiled, ready for injected trials.
/// Trials restore the base CPU into a per-thread scratch with `clone_from`,
/// so the per-trial snapshot cost is a straight memory copy.
#[derive(Debug, Clone)]
pub struct PreparedTarget {
    /// The configuration this was prepared for.
    pub target: Target,
    /// Golden behaviour and injection windows.
    pub reference: Reference,
    base: Cpu,
    handler: u64,
    budget: u64,
}

/// Name of the signal handler the engine appends to every lowered program.
const SIG_HANDLER: &str = "chaos_sig_handler";

/// Whether the upcoming instruction opens a prologue/epilogue window:
/// pointer-auth activity, a call, or a return.
fn is_window(insn: Instruction) -> bool {
    insn.is_pointer_auth()
        || matches!(
            insn,
            Instruction::Bl(_) | Instruction::Blr(_) | Instruction::Ret
        )
}

/// Lowers `module` under the target's scheme, appends the chaos signal
/// handler, seeds the PA keys, and records the reference run.
///
/// # Errors
///
/// [`ChaosError::Link`] if the program does not assemble;
/// [`ChaosError::Reference`] if the clean run faults, times out, or stops
/// on an unexpected syscall.
pub fn prepare(target: Target, module: &Module, seed: u64) -> Result<PreparedTarget, ChaosError> {
    let mut program = lower(module, target.scheme);
    // The handler a spurious signal lands in: immediately requests
    // sigreturn, so an *uncorrupted* signal round-trip is behaviour-
    // preserving and any deviation is attributable to the injection.
    program.function(SIG_HANDLER, vec![Instruction::Svc(SIGRETURN_SYSCALL)]);

    let mut base = Cpu::try_with_seed(program, seed)?;
    if target.fpac {
        base.enable_fpac();
    }
    let handler = base
        .symbol(SIG_HANDLER)
        .ok_or(Fault::NoSuchSymbol)
        .map_err(ChaosError::Reference)?;

    // Reference run on a scratch clone, collecting windows as we go. It
    // publishes no telemetry: only the injected trials count.
    let mut cpu = base.clone();
    let mut windows = Vec::new();
    const REFERENCE_CEILING: u64 = 4_000_000;
    let status = cpu.run_until(REFERENCE_CEILING, |cpu, insn| {
        if is_window(insn) {
            windows.push(cpu.instructions() - 1);
        }
    });
    let reference = match status {
        Ok(Some(RunStatus::Exited(exit_code))) => Reference {
            exit_code,
            output: cpu.output().to_vec(),
            instructions: cpu.instructions(),
            windows,
        },
        // The clean program must not raise syscalls the engine would have
        // to interpret; that would make classification ambiguous.
        Ok(Some(RunStatus::Syscall(_))) => {
            return Err(ChaosError::Reference(Fault::SigreturnViolation));
        }
        Ok(None) => return Err(ChaosError::Reference(Fault::Timeout)),
        Err(fault) => return Err(ChaosError::Reference(fault)),
    };

    // Budget: generous multiple of the clean run, so only genuine
    // divergence (e.g. a flipped loop counter) classifies as Hang.
    let budget = reference.instructions.saturating_mul(4) + 4096;
    Ok(PreparedTarget {
        target,
        reference,
        base,
        handler,
        budget,
    })
}

/// Applies one perturbation to the live CPU. Returns a fault only for
/// signal delivery that the kernel model itself rejects (e.g. the frame
/// write faulted because SP was already corrupted).
fn apply(
    cpu: &mut Cpu,
    signals: &mut SignalDelivery,
    handler: u64,
    kind: FaultKind,
) -> Result<(), Fault> {
    match kind {
        FaultKind::RegFlip { reg, mask } => {
            let v = cpu.reg(reg);
            cpu.set_reg(reg, v ^ mask);
        }
        FaultKind::StackFlip { slot, mask } => {
            let addr = cpu.reg(Reg::Sp).wrapping_add(8 * slot);
            // A flip landing on unmapped memory latches nothing.
            if let Ok(v) = cpu.mem().read_u64(addr) {
                let _ = cpu.mem_mut().write_u64(addr, v ^ mask);
            }
        }
        FaultKind::KeyFlip {
            key_index,
            mask_w0,
            mask_k0,
        } => {
            let key = PaKey::ALL[key_index % PaKey::ALL.len()];
            let mut keys = cpu.keys().clone();
            let old = keys.key(key);
            keys.set_key(key, Key128::new(old.w0() ^ mask_w0, old.k0() ^ mask_k0));
            cpu.corrupt_keys(keys);
        }
        FaultKind::KeyZero => {
            let mut keys = cpu.keys().clone();
            for key in PaKey::ALL {
                keys.set_key(key, Key128::new(0, 0));
            }
            cpu.corrupt_keys(keys);
        }
        FaultKind::InsnSkip => {
            let pc = cpu.pc();
            cpu.set_pc(pc.wrapping_add(4));
        }
        FaultKind::Signal => {
            signals.deliver(cpu, handler)?;
        }
    }
    Ok(())
}

impl PreparedTarget {
    /// Runs one injected trial to its classified outcome. Never panics:
    /// every termination path maps to a [`TrialOutcome`].
    ///
    /// The trial executes on this thread's scratch CPU, restored to the
    /// prepared base snapshot first — `clone_from` makes the restore an
    /// in-place copy, so consecutive trials do no allocator work. Restores
    /// have full `Clone` semantics, so outcomes are independent of whatever
    /// trial (of whatever target) previously used the scratch.
    pub fn run_plan(&self, plan: &InjectionPlan) -> TrialOutcome {
        SCRATCH.with(|slot| {
            let mut slot = slot.borrow_mut();
            let cpu = match slot.as_mut() {
                Some(cpu) => {
                    cpu.clone_from(&self.base);
                    cpu
                }
                None => slot.insert(self.base.clone()),
            };
            self.run_plan_on(cpu, plan)
        })
    }

    /// The trial loop, plus end-of-trial telemetry: outcome counts, fault
    /// attribution, the cycle-latency histogram, and the CPU's own counter
    /// deltas — all in the simulated-cycle domain, so campaign telemetry is
    /// as thread-count-independent as the outcomes themselves.
    fn run_plan_on(&self, cpu: &mut Cpu, plan: &InjectionPlan) -> TrialOutcome {
        let outcome = self.trial_loop(cpu, plan);
        if telemetry::enabled() {
            telemetry::counter(
                &format!("chaos_trials_total{{outcome=\"{}\"}}", outcome.label()),
                1,
            );
            if let TrialOutcome::DetectedCrash(fault) = outcome {
                telemetry::counter(
                    &format!("chaos_detected_total{{fault=\"{}\"}}", fault.label()),
                    1,
                );
            }
            telemetry::observe_cycles("chaos_trial_cycles", cpu.cycles());
            cpu.publish_telemetry();
        }
        outcome
    }

    fn trial_loop(&self, cpu: &mut Cpu, plan: &InjectionPlan) -> TrialOutcome {
        let mut signals = SignalDelivery::new();
        let mut pending = plan.injections.as_slice();

        loop {
            // Fire every injection scheduled at or before this retire index
            // (triggers past the actual exit simply never fire — the
            // process was gone before the glitch landed).
            while let Some(injection) = pending.first() {
                if injection.at > cpu.instructions() {
                    break;
                }
                pending = &pending[1..];
                if telemetry::enabled() {
                    // `windows` is in retire order, so occupancy is a
                    // binary search: did the glitch land on a retire index
                    // where return-address state was live?
                    let occupied = self.reference.windows.binary_search(&injection.at).is_ok();
                    telemetry::counter(
                        if occupied {
                            "chaos_injections_total{window=\"in\"}"
                        } else {
                            "chaos_injections_total{window=\"out\"}"
                        },
                        1,
                    );
                }
                if let Err(fault) = apply(cpu, &mut signals, self.handler, injection.kind) {
                    return TrialOutcome::DetectedCrash(fault);
                }
            }

            if cpu.instructions() >= self.budget {
                return TrialOutcome::Hang;
            }

            // Run to the next injection's retire index (every pending one
            // lies ahead) or the budget, whichever comes first.
            let stop = pending
                .first()
                .map_or(self.budget, |i| i.at.min(self.budget));
            match cpu.run_until(stop, |_, _| {}) {
                Ok(None) => {}
                Ok(Some(RunStatus::Exited(code))) => {
                    let reference = &self.reference;
                    return if code == reference.exit_code && cpu.output() == reference.output {
                        TrialOutcome::Masked
                    } else {
                        TrialOutcome::SilentCorruption
                    };
                }
                Ok(Some(RunStatus::Syscall(SIGRETURN_SYSCALL))) => {
                    if let Err(fault) = signals.sigreturn(cpu) {
                        return TrialOutcome::DetectedCrash(fault);
                    }
                }
                // No other syscall exists in the lowered image; control
                // flow wild enough to reach one is corruption.
                Ok(Some(RunStatus::Syscall(_))) => return TrialOutcome::SilentCorruption,
                Err(fault) => return TrialOutcome::DetectedCrash(fault),
            }
        }
    }

    /// The per-trial instruction budget Hang is judged against.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::campaign::chaos_module;
    use crate::plan::InjectionPlan;

    fn prepared(label: &str) -> PreparedTarget {
        let target = *TARGETS.iter().find(|t| t.label == label).unwrap();
        prepare(target, &chaos_module(), 0xFEED).unwrap()
    }

    #[test]
    fn empty_plan_is_masked_for_every_target() {
        for target in TARGETS {
            let p = prepare(target, &chaos_module(), 0xFEED).unwrap();
            assert_eq!(
                p.run_plan(&InjectionPlan::default()),
                TrialOutcome::Masked,
                "{}",
                target.label
            );
        }
    }

    #[test]
    fn reference_runs_collect_windows() {
        let p = prepared("PACStack");
        assert!(p.reference.instructions > 0);
        assert!(!p.reference.windows.is_empty());
        assert!(p.budget() > p.reference.instructions);
    }

    #[test]
    fn uninjected_signal_round_trip_is_masked() {
        // A spurious signal with an honest sigreturn preserves behaviour.
        for target in TARGETS {
            let p = prepare(target, &chaos_module(), 0xFEED).unwrap();
            let mid = p.reference.instructions / 2;
            let plan = InjectionPlan::single(mid, FaultKind::Signal);
            assert_eq!(p.run_plan(&plan), TrialOutcome::Masked, "{}", target.label);
        }
    }

    #[test]
    fn key_zero_mid_chain_is_detected_under_pacstack() {
        let p = prepared("PACStack");
        // Zero the keys in the middle of the run, while the chain is live.
        let mid = p.reference.instructions / 2;
        let plan = InjectionPlan::single(mid, FaultKind::KeyZero);
        match p.run_plan(&plan) {
            TrialOutcome::DetectedCrash(fault) => {
                assert!(matches!(fault, Fault::KeyFault { .. }), "got {fault}");
            }
            other => panic!("expected a detected crash, got {other}"),
        }
    }

    #[test]
    fn key_flip_is_never_masked_by_the_pac_memo_cache() {
        // Regression for the PAC memo cache: corrupting a key register
        // mid-run must invalidate every cached MAC, so the next `aut*`
        // recomputes under the glitched keys and attributes the failure to
        // them. A stale cache hit would instead report Masked — the cache
        // silently bridging a hardware fault.
        let p = prepared("PACStack");
        let mid = p.reference.instructions / 2;
        let plan = InjectionPlan::single(
            mid,
            FaultKind::KeyFlip {
                key_index: 0, // IA — the key PACStack signs with
                mask_w0: 1,
                mask_k0: 0,
            },
        );
        match p.run_plan(&plan) {
            TrialOutcome::DetectedCrash(fault) => {
                assert!(matches!(fault, Fault::KeyFault { .. }), "got {fault}");
            }
            other => panic!("expected a detected KeyFault crash, got {other}"),
        }
    }

    #[test]
    fn cr_flip_faults_under_pacstack() {
        let p = prepared("PACStack");
        // Flip a low bit of CR right at a window: the chained MAC check
        // must eventually fail and the corrupted pointer fault on use.
        let at = p.reference.windows[p.reference.windows.len() / 2];
        let plan = InjectionPlan::single(
            at,
            FaultKind::RegFlip {
                reg: Reg::CR,
                mask: 1 << 3,
            },
        );
        assert!(matches!(p.run_plan(&plan), TrialOutcome::DetectedCrash(_)));
    }

    #[test]
    fn outcome_display_is_stable() {
        assert_eq!(TrialOutcome::Masked.to_string(), "masked");
        assert_eq!(TrialOutcome::Hang.to_string(), "hang");
        assert_eq!(TrialOutcome::SilentCorruption.to_string(), "silent");
        assert!(TrialOutcome::DetectedCrash(Fault::Timeout)
            .to_string()
            .starts_with("detected"));
    }
}
