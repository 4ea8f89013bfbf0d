//! The general-purpose register file.

use std::fmt;

/// An AArch64 general-purpose register, plus `SP` and the zero register.
///
/// Registers with an ABI role relevant to the paper:
///
/// * `X30` = **LR**, the link register set by `bl`/`blr`;
/// * `X29` = **FP**, the frame pointer;
/// * `X28` = **CR**, the chain register PACStack reserves (paper §5.1);
/// * `X18` = the platform register ShadowCallStack reserves for its shadow
///   stack base;
/// * `X15` is the scratch register the PACStack masking sequences use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Reg {
    X0,
    X1,
    X2,
    X3,
    X4,
    X5,
    X6,
    X7,
    X8,
    X9,
    X10,
    X11,
    X12,
    X13,
    X14,
    X15,
    X16,
    X17,
    X18,
    X19,
    X20,
    X21,
    X22,
    X23,
    X24,
    X25,
    X26,
    X27,
    X28,
    X29,
    X30,
    /// The stack pointer.
    Sp,
    /// The zero register: reads as 0, writes are discarded.
    Xzr,
}

impl Reg {
    /// The link register alias.
    pub const LR: Reg = Reg::X30;
    /// The frame-pointer alias.
    pub const FP: Reg = Reg::X29;
    /// PACStack's chain register (paper §5.1).
    pub const CR: Reg = Reg::X28;
    /// ShadowCallStack's shadow-stack pointer.
    pub const SCS: Reg = Reg::X18;

    /// Whether the AAPCS64 calling convention makes this register
    /// callee-saved (`X19`–`X28`, plus `FP`).
    pub fn is_callee_saved(self) -> bool {
        matches!(
            self,
            Reg::X19
                | Reg::X20
                | Reg::X21
                | Reg::X22
                | Reg::X23
                | Reg::X24
                | Reg::X25
                | Reg::X26
                | Reg::X27
                | Reg::X28
                | Reg::X29
        )
    }

    /// Maps an index `0..=30` to `X0..=X30`.
    pub fn from_index(i: usize) -> Option<Reg> {
        use Reg::*;
        const TABLE: [Reg; 31] = [
            X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15, X16, X17, X18,
            X19, X20, X21, X22, X23, X24, X25, X26, X27, X28, X29, X30,
        ];
        TABLE.get(i).copied()
    }

    fn index(self) -> usize {
        match self {
            Reg::Sp => 31,
            Reg::Xzr => 32,
            other => {
                // X0..X30 are declared in order.
                other as usize
            }
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Sp => f.write_str("sp"),
            Reg::Xzr => f.write_str("xzr"),
            Reg::X30 => f.write_str("lr"),
            Reg::X29 => f.write_str("fp"),
            other => write!(f, "x{}", other.index()),
        }
    }
}

/// The register file: `X0`–`X30` plus `SP`; `XZR` is hardwired to zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegisterFile {
    values: [u64; 32],
}

impl RegisterFile {
    /// Creates a zeroed register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register (`XZR` reads as zero).
    pub fn read(&self, reg: Reg) -> u64 {
        match reg {
            Reg::Xzr => 0,
            other => self.values[other.index()],
        }
    }

    /// Writes a register (writes to `XZR` are discarded).
    pub fn write(&mut self, reg: Reg, value: u64) {
        if reg != Reg::Xzr {
            self.values[reg.index()] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn aliases_resolve() {
        assert_eq!(Reg::LR, Reg::X30);
        assert_eq!(Reg::FP, Reg::X29);
        assert_eq!(Reg::CR, Reg::X28);
        assert_eq!(Reg::SCS, Reg::X18);
    }

    #[test]
    fn xzr_reads_zero_and_ignores_writes() {
        let mut rf = RegisterFile::new();
        rf.write(Reg::Xzr, 99);
        assert_eq!(rf.read(Reg::Xzr), 0);
    }

    #[test]
    fn sp_is_distinct_from_gprs() {
        let mut rf = RegisterFile::new();
        rf.write(Reg::Sp, 0x1000);
        rf.write(Reg::X30, 0x2000);
        assert_eq!(rf.read(Reg::Sp), 0x1000);
        assert_eq!(rf.read(Reg::X30), 0x2000);
    }

    #[test]
    fn callee_saved_set_matches_aapcs() {
        assert!(Reg::X19.is_callee_saved());
        assert!(Reg::X28.is_callee_saved());
        assert!(Reg::X29.is_callee_saved());
        assert!(!Reg::X30.is_callee_saved()); // LR is special, not in the set
        assert!(!Reg::X18.is_callee_saved()); // platform register
        assert!(!Reg::X0.is_callee_saved());
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(Reg::X30.to_string(), "lr");
        assert_eq!(Reg::X29.to_string(), "fp");
        assert_eq!(Reg::Sp.to_string(), "sp");
        assert_eq!(Reg::X5.to_string(), "x5");
    }

    #[test]
    fn from_index_round_trips() {
        for i in 0..31 {
            let reg = Reg::from_index(i).unwrap();
            assert_eq!(reg.index(), i);
        }
        assert_eq!(Reg::from_index(31), None);
    }
}
