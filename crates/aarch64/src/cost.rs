//! The deterministic cycle cost model.
//!
//! The paper could not measure PA instructions on real silicon; it adopts
//! the ~4-cycle PAC latency estimated from QARMA hardware evaluations
//! (Avanzi 2017, via Liljestrand et al. 2019) and measures everything else
//! on ARMv8.2 cores with a PA-analogue. This model plays the same role: it
//! assigns each instruction class a fixed cost so instrumentation overhead
//! can be compared across schemes as a cycle ratio.

use crate::{Instruction, Reg};

/// Per-class cycle costs.
///
/// # Examples
///
/// ```
/// use pacstack_aarch64::{CostModel, Instruction, Reg};
///
/// let model = CostModel::default();
/// assert_eq!(model.cost(&Instruction::Pacia(Reg::X30, Reg::X28)), 4);
/// assert_eq!(model.cost(&Instruction::Nop), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Simple ALU / move / branch instructions.
    pub base: u64,
    /// Loads and stores (L1-hit latency); `stp`/`ldp` count once.
    pub memory: u64,
    /// PA instructions (`pacia`, `autia`, ...), the paper's ~4-cycle figure.
    pub pointer_auth: u64,
    /// Integer multiply.
    pub multiply: u64,
    /// Supervisor call (EL0→EL1 round trip).
    pub syscall: u64,
    /// Extra cycles for memory accesses into the shadow-stack region: it
    /// lives far from the hot stack, costing additional cache/TLB traffic.
    pub shadow_penalty: u64,
}

impl CostModel {
    /// The model used throughout the reproduction: 1-cycle ALU, 2-cycle
    /// L1 accesses, 4-cycle PAC, 3-cycle multiply, 200-cycle syscall.
    pub fn new() -> Self {
        Self {
            base: 1,
            memory: 2,
            pointer_auth: 4,
            multiply: 3,
            syscall: 200,
            shadow_penalty: 2,
        }
    }

    /// Cycles charged for one instruction. This is the *single* authority
    /// on cycle accounting: the CPU adds exactly this value per retired
    /// instruction, so execution traces, telemetry and the profiler all
    /// read one consistent counter.
    ///
    /// `retaa` combines an authentication and a return and is charged
    /// `pointer_auth + base`. Accesses whose base register is the
    /// shadow-stack pointer carry `shadow_penalty` on top of the memory
    /// latency (charged at fetch time, even if the access then faults) —
    /// the addressing mode is static, so the surcharge is a property of the
    /// instruction, not of dynamic state.
    pub fn cost(&self, insn: &Instruction) -> u64 {
        use Instruction::*;
        match insn {
            Retaa => self.pointer_auth + self.base,
            i if i.is_pointer_auth() => self.pointer_auth,
            i if Self::is_shadow_access(i) => self.memory + self.shadow_penalty,
            i if i.is_memory() => self.memory,
            Mul(..) => self.multiply,
            Svc(..) => self.syscall,
            _ => self.base,
        }
    }

    /// Whether an instruction accesses memory through the shadow-stack
    /// pointer in one of the addressing modes the instrumentation emits
    /// (plain, pre-indexed push, post-indexed pop).
    pub fn is_shadow_access(insn: &Instruction) -> bool {
        use Instruction::*;
        matches!(
            insn,
            Ldr(_, Reg::SCS, _)
                | Str(_, Reg::SCS, _)
                | LdrPre(_, Reg::SCS, _)
                | StrPost(_, Reg::SCS, _)
        )
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn pac_costs_four_cycles() {
        let m = CostModel::default();
        assert_eq!(m.cost(&Instruction::Pacia(Reg::X30, Reg::X28)), 4);
        assert_eq!(m.cost(&Instruction::Autia(Reg::X30, Reg::X28)), 4);
        assert_eq!(m.cost(&Instruction::Paciasp), 4);
        assert_eq!(m.cost(&Instruction::Pacga(Reg::X0, Reg::X1, Reg::X2)), 4);
    }

    #[test]
    fn retaa_costs_auth_plus_return() {
        let m = CostModel::default();
        assert_eq!(m.cost(&Instruction::Retaa), 5);
    }

    #[test]
    fn memory_ops_cost_memory_latency() {
        let m = CostModel::default();
        assert_eq!(m.cost(&Instruction::Ldr(Reg::X0, Reg::Sp, 0)), 2);
        assert_eq!(
            m.cost(&Instruction::Stp(Reg::X29, Reg::X30, Reg::Sp, -16)),
            2
        );
    }

    #[test]
    fn shadow_stack_accesses_carry_the_penalty() {
        let m = CostModel::default();
        assert_eq!(m.cost(&Instruction::Str(Reg::X30, Reg::SCS, 0)), 4);
        assert_eq!(m.cost(&Instruction::LdrPre(Reg::X30, Reg::SCS, -8)), 4);
        assert_eq!(m.cost(&Instruction::StrPost(Reg::X30, Reg::SCS, 8)), 4);
        // Non-shadow bases are plain memory ops.
        assert_eq!(m.cost(&Instruction::Str(Reg::X30, Reg::Sp, 0)), 2);
        // Addressing modes the instrumentation never uses against the
        // shadow stack stay at memory latency.
        assert_eq!(m.cost(&Instruction::StrPre(Reg::X30, Reg::SCS, -8)), 2);
        assert_eq!(m.cost(&Instruction::LdrPost(Reg::X30, Reg::SCS, 8)), 2);
    }

    #[test]
    fn alu_and_branches_cost_base() {
        let m = CostModel::default();
        assert_eq!(m.cost(&Instruction::Add(Reg::X0, Reg::X1, Reg::X2)), 1);
        assert_eq!(m.cost(&Instruction::Bl(0x40_0000)), 1);
        assert_eq!(m.cost(&Instruction::Ret), 1);
    }
}
