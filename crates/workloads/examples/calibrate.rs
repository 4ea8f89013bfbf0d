//! Prints per-benchmark overheads for calibration.
use pacstack_compiler::{Module, Scheme};
use pacstack_workloads::measure::overheads;
use pacstack_workloads::nginx::server_module;
use pacstack_workloads::spec::{Suite, CPP_BENCHMARKS, C_BENCHMARKS};

const SCHEMES: [Scheme; 5] = [
    Scheme::StackProtector,
    Scheme::PacRet,
    Scheme::ShadowCallStack,
    Scheme::PacStackNomask,
    Scheme::PacStack,
];

fn print_row(name: &str, module: &Module) {
    let o = overheads(module, &SCHEMES, 1_000_000_000);
    println!(
        "{:<12} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
        name, o[0], o[1], o[2], o[3], o[4]
    );
}

fn main() {
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "bench", "canary", "pacret", "scs", "nomask", "full"
    );
    for p in C_BENCHMARKS.iter().chain(CPP_BENCHMARKS.iter()) {
        print_row(p.name, &p.module(Suite::Rate));
    }
    print_row("nginx", &server_module(40));
}
