//! Per-function cycle attribution.
//!
//! The profiler rides the retire hook of [`Cpu::run_until`]: every retired
//! instruction's cycle cost is attributed to the function on top of a
//! simulated call stack that is pushed on `bl`/`blr` and popped on
//! `ret`/`retaa`/`retab`. Because it observes only architectural events in
//! the simulated-cycle domain, its output is deterministic — a function of
//! the program and seed, never of host scheduling — and feeds the telemetry
//! exporters directly: collapsed stacks become flamegraph lines, completed
//! frames become Chrome trace spans.

use crate::{Cpu, Instruction};
use std::collections::{BTreeMap, HashMap};

/// A completed function activation, in the simulated-cycle domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Resolved function name (symbol, or `0x…` for unknown addresses).
    pub name: String,
    /// Cycle count when the function was entered.
    pub start: u64,
    /// Inclusive duration in cycles (callees included).
    pub dur: u64,
}

/// The result of a profiled run: collapsed self-time stacks plus completed
/// call spans, both with addresses resolved to symbol names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Semicolon-collapsed call stacks (`main;f;g`) to *self* cycles —
    /// flamegraph input, exclusive of callees.
    pub stacks: Vec<(String, u64)>,
    /// Completed activations in completion order (innermost first for
    /// nested frames, matching how returns retire).
    pub spans: Vec<ProfileSpan>,
    /// Spans discarded once the configured cap was reached.
    pub dropped_spans: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    addr: u64,
    entered_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    addr: u64,
    start: u64,
    dur: u64,
}

/// Live profiler state, owned by the caller driving [`Cpu::run_until`]:
/// call [`Profiler::retire`] from the retire hook, then
/// [`Profiler::finish`].
#[derive(Debug)]
pub struct Profiler {
    frames: Vec<Frame>,
    /// Call stack (as entry addresses, outermost first) → self cycles.
    stacks: BTreeMap<Vec<u64>, u64>,
    spans: Vec<RawSpan>,
    max_spans: usize,
    dropped: u64,
    /// Cycle watermark of the last attribution, so each retired
    /// instruction's cost is charged exactly once.
    last_cycles: u64,
    root: u64,
}

impl Profiler {
    /// Starts profiling `cpu`, rooted at its current PC and cycle count.
    /// Completed call spans beyond `max_spans` are counted as dropped
    /// rather than recorded, bounding memory on call-heavy workloads.
    pub fn new(cpu: &Cpu, max_spans: usize) -> Self {
        let (root, now) = (cpu.pc(), cpu.cycles());
        Self {
            frames: vec![Frame {
                addr: root,
                entered_at: now,
            }],
            stacks: BTreeMap::new(),
            spans: Vec::new(),
            max_spans,
            dropped: 0,
            last_cycles: now,
            root,
        }
    }

    fn stack_key(&self) -> Vec<u64> {
        self.frames.iter().map(|f| f.addr).collect()
    }

    /// The retire hook: attributes the (fully charged) cost of `insn` to
    /// the frame that issued it, then moves the frame stack — calls are
    /// charged to the caller, returns to the returning function.
    pub fn retire(&mut self, cpu: &Cpu, insn: Instruction) {
        let now = cpu.cycles();
        self.attribute(now);
        match insn {
            Instruction::Bl(target) => self.enter(target, now),
            Instruction::Blr(n) => self.enter(cpu.reg(n), now),
            Instruction::Ret | Instruction::Retaa | Instruction::Retab => self.exit(now),
            _ => {}
        }
    }

    /// Charges all cycles since the last attribution to the current stack.
    fn attribute(&mut self, now: u64) {
        let delta = now.saturating_sub(self.last_cycles);
        if delta > 0 {
            *self.stacks.entry(self.stack_key()).or_insert(0) += delta;
            self.last_cycles = now;
        }
    }

    /// Records entry into the function at `addr`.
    fn enter(&mut self, addr: u64, now: u64) {
        self.frames.push(Frame {
            addr,
            entered_at: now,
        });
    }

    /// Records a return from the current function.
    fn exit(&mut self, now: u64) {
        // The root frame is never popped: a `ret` seen with only the root
        // on the stack belongs to a caller outside the profiled window.
        if self.frames.len() <= 1 {
            return;
        }
        if let Some(frame) = self.frames.pop() {
            self.record_span(frame, now);
        }
    }

    fn record_span(&mut self, frame: Frame, now: u64) {
        if self.spans.len() < self.max_spans {
            self.spans.push(RawSpan {
                addr: frame.addr,
                start: frame.entered_at,
                dur: now.saturating_sub(frame.entered_at),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Attributes the residual tail, closes every open frame at `cpu`'s
    /// current cycle count, and resolves addresses to names via its symbol
    /// table.
    pub fn finish(mut self, cpu: &Cpu) -> FunctionProfile {
        let (now, symbols) = (cpu.cycles(), cpu.symbols());
        self.attribute(now);
        while let Some(frame) = self.frames.pop() {
            self.record_span(frame, now);
        }

        let mut names: HashMap<u64, &str> = HashMap::with_capacity(symbols.len());
        for (name, &addr) in symbols {
            // Two symbols on one address would make name resolution depend
            // on hash order; keep the lexicographically first.
            match names.get(&addr) {
                Some(existing) if *existing <= name.as_str() => {}
                _ => {
                    names.insert(addr, name.as_str());
                }
            }
        }
        let resolve = |addr: u64| -> String {
            if let Some(name) = names.get(&addr) {
                (*name).to_owned()
            } else if addr == self.root {
                "_start".to_owned()
            } else {
                format!("{addr:#x}")
            }
        };

        let stacks = self
            .stacks
            .iter()
            .map(|(key, &cycles)| {
                let joined = key
                    .iter()
                    .map(|&a| resolve(a))
                    .collect::<Vec<_>>()
                    .join(";");
                (joined, cycles)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| ProfileSpan {
                name: resolve(s.addr),
                start: s.start,
                dur: s.dur,
            })
            .collect();
        FunctionProfile {
            stacks,
            spans,
            dropped_spans: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::program::Op;
    use crate::Instruction::*;
    use crate::{Program, Reg, RunStatus};

    fn call_tree_program() -> Program {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                Op::I(MovImm(Reg::X0, 1)),
                Op::Call("leaf".into()),
                Op::Call("leaf".into()),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function("leaf", vec![AddImm(Reg::X0, Reg::X0, 1), Ret]);
        p
    }

    /// Runs the call-tree program to exit under a profiler capped at
    /// `max_spans`, returning the CPU, its exit status and the profile.
    fn profiled(max_spans: usize) -> (Cpu, RunStatus, FunctionProfile) {
        let mut cpu = Cpu::with_seed(call_tree_program(), 7);
        let mut profiler = Profiler::new(&cpu, max_spans);
        let status = cpu.run_until(10_000, |cpu, insn| profiler.retire(cpu, insn));
        let Ok(Some(status @ RunStatus::Exited(_))) = status else {
            panic!("the call-tree program should exit: {status:?}");
        };
        let profile = profiler.finish(&cpu);
        (cpu, status, profile)
    }

    #[test]
    fn self_cycles_partition_total_cycles() {
        let (cpu, _, profile) = profiled(64);
        let attributed: u64 = profile.stacks.iter().map(|(_, c)| c).sum();
        assert_eq!(attributed, cpu.cycles(), "{profile:?}");
    }

    #[test]
    fn stacks_and_spans_name_the_call_tree() {
        let (_, _, profile) = profiled(64);
        let stacks: Vec<&str> = profile.stacks.iter().map(|(s, _)| s.as_str()).collect();
        assert!(stacks.contains(&"_start;main;leaf"), "{stacks:?}");
        assert!(stacks.contains(&"_start;main"), "{stacks:?}");
        let leaves = profile.spans.iter().filter(|s| s.name == "leaf").count();
        assert_eq!(leaves, 2, "{:?}", profile.spans);
        assert_eq!(profile.dropped_spans, 0);
    }

    #[test]
    fn span_cap_counts_drops_deterministically() {
        let (_, _, profile) = profiled(1);
        assert_eq!(profile.spans.len(), 1);
        // Two leaf returns, one main return, plus the root and main frames
        // closed by finish(): everything past the first span is dropped.
        assert!(profile.dropped_spans >= 2, "{profile:?}");
    }

    #[test]
    fn profiling_is_architecturally_invisible() {
        let mut plain = Cpu::with_seed(call_tree_program(), 7);
        let out = plain.run(10_000).unwrap();
        let (profiled, status, _) = profiled(64);
        assert_eq!(out.status, status);
        assert_eq!(plain.cycles(), profiled.cycles());
        assert_eq!(plain.instructions(), profiled.instructions());
        assert_eq!(plain.counters(), profiled.counters());
        assert_eq!(plain.output(), profiled.output());
        assert_eq!(plain.save_context(), profiled.save_context());
    }
}
