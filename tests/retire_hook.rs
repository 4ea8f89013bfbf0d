//! The contract fault injection and every retire-hook observer rely on:
//! stopping at arbitrary retire indices with [`Cpu::run_until`] and
//! resuming is indistinguishable from one uninterrupted [`Cpu::run`].

use pacstack::aarch64::{Cpu, Fault, RunStatus};
use pacstack::compiler::{lower, Scheme};
use pacstack::workloads::synth;
use proptest::prelude::*;

const BUDGET: u64 = 2_000_000;

/// Runs `cpu` to a stop in chunks of the given sizes (cycled), checking
/// that the hook fires exactly once per retired instruction.
fn run_in_chunks(cpu: &mut Cpu, chunks: &[u64]) -> Result<RunStatus, Fault> {
    let mut retired = 0;
    let mut sizes = chunks.iter().cycle();
    let status = loop {
        let chunk = sizes.next().copied().unwrap_or(1);
        let stop = (cpu.instructions() + chunk).min(BUDGET);
        match cpu.run_until(stop, |_, _| retired += 1) {
            Ok(None) if cpu.instructions() >= BUDGET => break Err(Fault::Timeout),
            Ok(None) => {}
            Ok(Some(status)) => break Ok(status),
            Err(fault) => break Err(fault),
        }
    };
    assert_eq!(retired, cpu.instructions(), "hook missed a retire");
    status
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_until_chunks_equal_one_run(
        seed in 0u64..1_000_000,
        shadow in any::<bool>(),
        chunks in proptest::collection::vec(1u64..3_000, 1..12),
    ) {
        let scheme = if shadow { Scheme::ShadowCallStack } else { Scheme::PacStack };
        let program = lower(&synth::generate(&Default::default(), seed), scheme);
        let mut whole = Cpu::with_seed(program.clone(), 7);
        let mut split = Cpu::with_seed(program, 7);

        let one_run = whole.run(BUDGET);
        let chunked = run_in_chunks(&mut split, &chunks);

        prop_assert_eq!(one_run.clone().map(|out| out.status), chunked);
        if let (Ok(out), Ok(RunStatus::Exited(code))) = (&one_run, chunked) {
            prop_assert_eq!(out.exit_code, code);
        }
        prop_assert_eq!(whole.output(), split.output());
        prop_assert_eq!(whole.cycles(), split.cycles());
        prop_assert_eq!(whole.instructions(), split.instructions());
        prop_assert_eq!(whole.counters(), split.counters());
        prop_assert_eq!(whole.shadow_accesses(), split.shadow_accesses());
    }
}
