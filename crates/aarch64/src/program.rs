//! Program construction: functions of symbolic ops assembled to an image.

use crate::{Cond, Instruction, Reg};
use std::collections::HashMap;
use std::fmt;

/// A symbolic operation: either a resolved [`Instruction`] or a reference to
/// a function or local label that assembly resolves to an address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A fully resolved instruction.
    I(Instruction),
    /// `bl <function>`.
    Call(String),
    /// `b <function>` — a tail call (paper §6.3.1).
    TailCall(String),
    /// `mov Xd, #address_of(function)` — materialise a function pointer.
    FnAddr(Reg, String),
    /// `mov Xd, #address_of(.label)` — materialise a local label address
    /// (the setjmp resume-point idiom).
    LabelAddr(Reg, String),
    /// `b .label` within the current function.
    Jump(String),
    /// `b.cond .label` within the current function.
    JumpCond(Cond, String),
    /// `cbz Xt, .label` within the current function.
    JumpZero(Reg, String),
    /// `cbnz Xt, .label` within the current function.
    JumpNonZero(Reg, String),
    /// Defines a local label (occupies no space).
    Label(String),
}

impl Op {
    fn occupies_slot(&self) -> bool {
        !matches!(self, Op::Label(_))
    }
}

impl From<Instruction> for Op {
    fn from(insn: Instruction) -> Self {
        Op::I(insn)
    }
}

#[derive(Debug, Clone)]
struct Function {
    name: String,
    ops: Vec<Op>,
}

/// A program under construction: an ordered list of named functions.
///
/// Assembly lays functions out contiguously from the code base, prepending a
/// start stub that calls `main` and exits with its return value (`X0`).
///
/// # Examples
///
/// ```
/// use pacstack_aarch64::{Instruction::*, Program, Reg};
/// use pacstack_aarch64::program::Op;
///
/// let mut p = Program::new();
/// p.function_ops("main", vec![
///     Op::I(MovImm(Reg::X0, 1)),
///     Op::Call("double".into()),
///     Op::I(Ret), // LR still holds the stub's return here only because
///                 // `double` preserved it; real functions must spill LR.
/// ]);
/// p.function("double", vec![Add(Reg::X0, Reg::X0, Reg::X0), Ret]);
/// assert!(p.contains("double"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    functions: Vec<Function>,
}

/// A fully assembled program image.
#[derive(Debug, Clone)]
pub struct Image {
    /// Instructions, indexed by `(pc - code_base) / 4`.
    pub instructions: Vec<Instruction>,
    /// Function name → entry address.
    pub symbols: HashMap<String, u64>,
    /// Entry point (the start stub).
    pub entry: u64,
}

/// A structured link-time failure raised by [`Program::assemble`].
///
/// These used to be host-process panics; a fault-injection campaign that
/// perturbs program construction needs them to be reportable outcomes
/// instead of aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The program defines no `main` function.
    MissingMain,
    /// A call/tail-call/address-of refers to a function that does not exist.
    UnresolvedFunction {
        /// Function containing the dangling reference.
        function: String,
        /// The missing callee.
        name: String,
    },
    /// A branch or label-address op refers to a label the function lacks.
    UnresolvedLabel {
        /// Function containing the dangling reference.
        function: String,
        /// The missing local label.
        label: String,
    },
    /// The same local label is defined twice within one function.
    DuplicateLabel {
        /// Function containing the clash.
        function: String,
        /// The label defined twice.
        label: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::MissingMain => write!(f, "program has no `main`"),
            LinkError::UnresolvedFunction { function, name } => {
                write!(f, "unresolved function {name:?} in {function}")
            }
            LinkError::UnresolvedLabel { function, label } => {
                write!(f, "unresolved label {label:?} in {function}")
            }
            LinkError::DuplicateLabel { function, label } => {
                write!(f, "duplicate label {label:?} in {function}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a function given plain instructions.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn function(&mut self, name: &str, insns: Vec<Instruction>) -> &mut Self {
        self.function_ops(name, insns.into_iter().map(Op::I).collect())
    }

    /// Appends a function given symbolic ops.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn function_ops(&mut self, name: &str, ops: Vec<Op>) -> &mut Self {
        assert!(!self.contains(name), "duplicate function {name:?}");
        self.functions.push(Function {
            name: name.to_owned(),
            ops,
        });
        self
    }

    /// Whether a function with this name has been added.
    pub fn contains(&self, name: &str) -> bool {
        self.functions.iter().any(|f| f.name == name)
    }

    /// Assembles the program at `code_base`.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] on unresolved function or label references,
    /// duplicate local labels, or a missing `main`.
    pub fn assemble(&self, code_base: u64) -> Result<Image, LinkError> {
        if !self.contains("main") {
            return Err(LinkError::MissingMain);
        }

        // The start stub: bl main; svc #0 (exit with X0).
        let stub_len = 2u64;

        // Pass 1: assign addresses.
        let mut symbols = HashMap::new();
        let mut addr = code_base + stub_len * 4;
        for f in &self.functions {
            symbols.insert(f.name.clone(), addr);
            let slots = f.ops.iter().filter(|op| op.occupies_slot()).count() as u64;
            addr += slots * 4;
        }

        // Pass 2: emit.
        let main = symbols.get("main").copied().ok_or(LinkError::MissingMain)?;
        let mut instructions = vec![Instruction::Bl(main), Instruction::Svc(0)];
        for f in &self.functions {
            // Local label addresses within this function.
            let mut labels = HashMap::new();
            let mut pc = symbols.get(&f.name).copied().unwrap_or(code_base);
            for op in &f.ops {
                match op {
                    Op::Label(l) => {
                        if labels.insert(l.clone(), pc).is_some() {
                            return Err(LinkError::DuplicateLabel {
                                function: f.name.clone(),
                                label: l.clone(),
                            });
                        }
                    }
                    _ => pc += 4,
                }
            }

            let fn_sym = |name: &str| -> Result<u64, LinkError> {
                symbols
                    .get(name)
                    .copied()
                    .ok_or_else(|| LinkError::UnresolvedFunction {
                        function: f.name.clone(),
                        name: name.to_owned(),
                    })
            };
            let label_sym = |name: &str| -> Result<u64, LinkError> {
                labels
                    .get(name)
                    .copied()
                    .ok_or_else(|| LinkError::UnresolvedLabel {
                        function: f.name.clone(),
                        label: name.to_owned(),
                    })
            };

            for op in &f.ops {
                let insn = match op {
                    Op::I(i) => *i,
                    Op::Call(name) => Instruction::Bl(fn_sym(name)?),
                    Op::TailCall(name) => Instruction::B(fn_sym(name)?),
                    Op::FnAddr(reg, name) => Instruction::MovImm(*reg, fn_sym(name)?),
                    Op::LabelAddr(reg, name) => Instruction::MovImm(*reg, label_sym(name)?),
                    Op::Jump(l) => Instruction::B(label_sym(l)?),
                    Op::JumpCond(c, l) => Instruction::BCond(*c, label_sym(l)?),
                    Op::JumpZero(r, l) => Instruction::Cbz(*r, label_sym(l)?),
                    Op::JumpNonZero(r, l) => Instruction::Cbnz(*r, label_sym(l)?),
                    Op::Label(_) => continue,
                };
                instructions.push(insn);
            }
        }

        Ok(Image {
            instructions,
            symbols,
            entry: code_base,
        })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in &self.functions {
            writeln!(f, "{}:", func.name)?;
            for op in &func.ops {
                match op {
                    Op::I(i) => writeln!(f, "    {i}")?,
                    Op::Call(n) => writeln!(f, "    bl {n}")?,
                    Op::TailCall(n) => writeln!(f, "    b {n}")?,
                    Op::FnAddr(r, n) => writeln!(f, "    mov {r}, #&{n}")?,
                    Op::LabelAddr(r, n) => writeln!(f, "    mov {r}, #&.{n}")?,
                    Op::Jump(l) => writeln!(f, "    b .{l}")?,
                    Op::JumpCond(c, l) => writeln!(f, "    b.{c} .{l}")?,
                    Op::JumpZero(r, l) => writeln!(f, "    cbz {r}, .{l}")?,
                    Op::JumpNonZero(r, l) => writeln!(f, "    cbnz {r}, .{l}")?,
                    Op::Label(l) => writeln!(f, "  .{l}:")?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::Instruction::*;

    #[test]
    fn assembles_stub_and_symbols() {
        let mut p = Program::new();
        p.function("main", vec![MovImm(Reg::X0, 7), Ret]);
        let image = p.assemble(0x40_0000).unwrap();
        assert_eq!(image.entry, 0x40_0000);
        assert_eq!(image.symbols["main"], 0x40_0008);
        assert_eq!(image.instructions[0], Bl(0x40_0008));
        assert_eq!(image.instructions[1], Svc(0));
    }

    #[test]
    fn resolves_cross_function_calls() {
        let mut p = Program::new();
        p.function_ops("main", vec![Op::Call("helper".into()), Op::I(Ret)]);
        p.function("helper", vec![Ret]);
        let image = p.assemble(0x40_0000).unwrap();
        let main_addr = image.symbols["main"];
        let helper_addr = image.symbols["helper"];
        let idx = ((main_addr - 0x40_0000) / 4) as usize;
        assert_eq!(image.instructions[idx], Bl(helper_addr));
    }

    #[test]
    fn resolves_local_labels_without_consuming_space() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(MovImm(Reg::X0, 3)),
                Op::Label("loop".into()),
                Op::I(AddImm(Reg::X0, Reg::X0, -1)),
                Op::JumpNonZero(Reg::X0, "loop".into()),
                Op::I(Ret),
            ],
        );
        let image = p.assemble(0x40_0000).unwrap();
        let main_addr = image.symbols["main"];
        // The label points at the AddImm, one slot after the MovImm.
        let idx = ((main_addr - 0x40_0000) / 4) as usize;
        assert_eq!(image.instructions[idx + 2], Cbnz(Reg::X0, main_addr + 4));
    }

    #[test]
    fn fn_addr_materialises_entry_address() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![Op::FnAddr(Reg::X9, "target".into()), Op::I(Ret)],
        );
        p.function("target", vec![Ret]);
        let image = p.assemble(0x40_0000).unwrap();
        let idx = ((image.symbols["main"] - 0x40_0000) / 4) as usize;
        assert_eq!(
            image.instructions[idx],
            MovImm(Reg::X9, image.symbols["target"])
        );
    }

    #[test]
    fn missing_main_is_a_link_error() {
        assert_eq!(
            Program::new().assemble(0x40_0000).unwrap_err(),
            LinkError::MissingMain
        );
    }

    #[test]
    fn unresolved_call_is_a_link_error() {
        let mut p = Program::new();
        p.function_ops("main", vec![Op::Call("ghost".into())]);
        let err = p.assemble(0x40_0000).unwrap_err();
        assert_eq!(
            err,
            LinkError::UnresolvedFunction {
                function: "main".into(),
                name: "ghost".into(),
            }
        );
        assert_eq!(err.to_string(), "unresolved function \"ghost\" in main");
    }

    #[test]
    fn unresolved_label_is_a_link_error() {
        let mut p = Program::new();
        p.function_ops("main", vec![Op::Jump("nowhere".into()), Op::I(Ret)]);
        let err = p.assemble(0x40_0000).unwrap_err();
        assert_eq!(
            err,
            LinkError::UnresolvedLabel {
                function: "main".into(),
                label: "nowhere".into(),
            }
        );
        assert_eq!(err.to_string(), "unresolved label \"nowhere\" in main");
    }

    #[test]
    fn duplicate_label_is_a_link_error() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::Label("twice".into()),
                Op::I(Nop),
                Op::Label("twice".into()),
                Op::I(Ret),
            ],
        );
        assert_eq!(
            p.assemble(0x40_0000).unwrap_err(),
            LinkError::DuplicateLabel {
                function: "main".into(),
                label: "twice".into(),
            }
        );
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut p = Program::new();
        p.function("main", vec![Ret]);
        p.function("main", vec![Ret]);
    }
}
