//! `pacstack-run` — assemble and execute a program on the simulated CPU.
//!
//! ```text
//! pacstack-run <file.s> [--seed N] [--budget N] [--trace] [--fpac] [--disasm]
//! ```
//!
//! The input syntax is the simulator's own listing format (see
//! `pacstack::aarch64::asm`); `examples/demo.s` in the repository shows a
//! PACStack-instrumented function written by hand.

use pacstack::aarch64::asm::parse_program;
use pacstack::aarch64::trace::{disassemble_around, TraceEntry};
use pacstack::aarch64::{Cpu, Fault, RunStatus};
use pacstack::telemetry::Ring;
use std::process::ExitCode;

struct Options {
    path: String,
    seed: u64,
    budget: u64,
    trace: bool,
    fpac: bool,
    disasm: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut options = Options {
        path: String::new(),
        seed: 0,
        budget: 10_000_000,
        trace: false,
        fpac: false,
        disasm: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--budget" => {
                options.budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--budget needs an integer")?;
            }
            "--trace" => options.trace = true,
            "--fpac" => options.fpac = true,
            "--disasm" => options.disasm = true,
            other if !other.starts_with('-') && options.path.is_empty() => {
                options.path = other.to_owned();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.path.is_empty() {
        return Err(
            "usage: pacstack-run <file.s> [--seed N] [--budget N] [--trace] [--fpac] [--disasm]"
                .to_owned(),
        );
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&options.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", options.path);
            return ExitCode::FAILURE;
        }
    };
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", options.path);
            return ExitCode::FAILURE;
        }
    };
    if options.disasm {
        print!("{program}");
    }

    let mut cpu = Cpu::with_seed(program, options.seed);
    if options.fpac {
        cpu.enable_fpac();
    }
    let mut trace = options.trace.then(|| Ring::new(32));

    loop {
        let stop = cpu.instructions().saturating_add(options.budget);
        let status = cpu.run_until(stop, |cpu, insn| {
            if let Some(trace) = &mut trace {
                trace.record(TraceEntry::retired(cpu, insn));
            }
        });
        match status.and_then(|status| status.ok_or(Fault::Timeout)) {
            Ok(RunStatus::Exited(code)) => {
                for value in cpu.output() {
                    println!("emit: {value:#x}");
                }
                println!(
                    "exit: {code:#x} ({} instructions, {} cycles)",
                    cpu.instructions(),
                    cpu.cycles()
                );
                return ExitCode::SUCCESS;
            }
            Ok(RunStatus::Syscall(n)) => {
                eprintln!("unhandled syscall {n} at pc={:#x}; resuming", cpu.pc());
            }
            Err(fault) => {
                eprintln!("fault: {fault}");
                if let Some(trace) = &trace {
                    eprintln!("\nlast instructions:\n{trace}");
                }
                eprintln!(
                    "disassembly near pc:\n{}",
                    disassemble_around(&cpu, cpu.pc(), 2)
                );
                return ExitCode::FAILURE;
            }
        }
    }
}
