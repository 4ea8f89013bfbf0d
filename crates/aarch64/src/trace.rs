//! Execution tracing and disassembly — the debugging surface a real
//! simulator ships with.
//!
//! A trace is a caller-owned `pacstack_telemetry::Ring<TraceEntry>` filled
//! from the retire hook of [`Cpu::run_until`]; this module keeps the
//! CPU-specific entry type and the disassembler.
//!
//! # Examples
//!
//! ```
//! use pacstack_aarch64::trace::TraceEntry;
//! use pacstack_aarch64::{Cpu, Instruction::*, Program, Reg};
//! use pacstack_telemetry::Ring;
//!
//! let mut program = Program::new();
//! program.function("main", vec![MovImm(Reg::X0, 0), Svc(0)]);
//! let mut cpu = Cpu::with_seed(program, 0);
//! let mut trace = Ring::new(2);
//! cpu.run_until(1_000, |cpu, insn| trace.record(TraceEntry::retired(cpu, insn)))?;
//! assert_eq!(trace.entries().last().map(|e| e.insn), Some(Svc(0)));
//! # Ok::<(), pacstack_aarch64::Fault>(())
//! ```

use crate::{Cpu, Instruction};
use std::fmt;

/// One retired instruction in an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Program counter the instruction was fetched from.
    pub pc: u64,
    /// The instruction.
    pub insn: Instruction,
    /// Cumulative cycle count *after* this instruction retired — always
    /// equal to [`Cpu::cycles`](crate::Cpu::cycles) at the retire point,
    /// shadow-stack surcharge included, because the CPU charges the whole
    /// [`CostModel::cost`](crate::CostModel::cost) before the retire hook
    /// runs.
    pub cycles: u64,
}

impl TraceEntry {
    /// The entry for `insn` as seen from the retire hook of
    /// [`Cpu::run_until`]: the PC it was fetched from and the cycle count
    /// with its cost charged.
    pub fn retired(cpu: &Cpu, insn: Instruction) -> Self {
        Self {
            pc: cpu.pc(),
            insn,
            cycles: cpu.cycles(),
        }
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#010x}: {:<32} ; cycles={}",
            self.pc,
            self.insn.to_string(),
            self.cycles
        )
    }
}

/// Disassembles the loaded image around an address: `context` instructions
/// before and after, with a marker at `addr`.
pub fn disassemble_around(cpu: &Cpu, addr: u64, context: u64) -> String {
    let mut out = String::new();
    let start = addr.saturating_sub(context * 4);
    for i in 0..=(2 * context) {
        let pc = start + i * 4;
        match cpu.instruction_at(pc) {
            Some(insn) => {
                let marker = if pc == addr { "=>" } else { "  " };
                out.push_str(&format!("{marker} {pc:#010x}: {insn}\n"));
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::Instruction::*;
    use crate::{Program, Reg};

    #[test]
    fn disassembly_marks_the_focus_instruction() {
        let mut p = Program::new();
        p.function(
            "main",
            vec![MovImm(Reg::X0, 1), AddImm(Reg::X0, Reg::X0, 2), Ret],
        );
        let cpu = Cpu::with_seed(p, 0);
        let main = cpu.symbol("main").unwrap();
        let text = disassemble_around(&cpu, main + 4, 1);
        assert!(text.contains("=>"), "{text}");
        assert!(text.contains("add x0, x0, #2"), "{text}");
    }

    #[test]
    fn trace_entry_displays_pc_and_insn() {
        let entry = TraceEntry {
            pc: 0x40_0000,
            insn: Retaa,
            cycles: 17,
        };
        let s = entry.to_string();
        assert!(s.contains("0x00400000"));
        assert!(s.contains("retaa"));
        assert!(s.contains("cycles=17"));
    }
}
