//! Domain example: a bytecode-interpreter-shaped program — the workload
//! class the paper's evaluation shows is *most* affected by return-address
//! protection (perlbench-style: a hot dispatch loop calling tiny opcode
//! handlers).
//!
//! The dispatch is data-dependent (`IfEven` on the evolving accumulator),
//! so the executed handler sequence is only known at run time — exactly
//! what makes interpreter return addresses such attractive ROP material.
//!
//! ```text
//! cargo run --release --example interpreter
//! ```

use pacstack::compiler::{FuncDef, Module, Scheme, Stmt};
use pacstack::workloads::measure::{overheads, run_module};

/// Builds the interpreter: `run_loop` dispatches on the accumulator's
/// low bit between two handler families, each of which calls helpers.
fn interpreter_module(steps: u32) -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Compute(1),
            Stmt::Call("run_loop".into()),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "run_loop",
        vec![
            Stmt::Loop(
                steps,
                vec![Stmt::IfEven(
                    vec![Stmt::Call("op_arith".into())],
                    vec![Stmt::Call("op_load_store".into())],
                )],
            ),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "op_arith",
        vec![
            Stmt::Compute(60),
            Stmt::Call("update_flags".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "op_load_store",
        vec![
            Stmt::MemAccess(12),
            Stmt::Compute(30),
            Stmt::Call("update_flags".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "update_flags",
        vec![Stmt::Compute(15), Stmt::Return],
    ));
    m
}

fn main() {
    let module = interpreter_module(400);

    let baseline = run_module(&module, Scheme::Baseline, 100_000_000);
    println!("interpreter: 400 dispatched 'opcodes', data-dependent handlers");
    println!(
        "baseline: {} cycles, {} instructions, result {:#x}\n",
        baseline.cycles, baseline.instructions, baseline.exit_code
    );

    println!("{:<28} {:>10}", "scheme", "overhead");
    for (scheme, o) in Scheme::ALL
        .into_iter()
        .zip(overheads(&module, &Scheme::ALL, 100_000_000))
    {
        println!("{:<28} {:>9.2}%", scheme.to_string(), o);
    }

    println!("\nDispatch-heavy code pays the most for return-address protection");
    println!("(compare `cargo run --release --example spec_overhead -- lbm`,");
    println!(" a loop kernel that pays essentially nothing).");
}
