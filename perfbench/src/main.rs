//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are `wall_s`, `setup_s` and `peak_rss_mb`; with
//! `--trace 1` they are the per-layer metrics of `layers::PER_LAYER`.
//! A traced run also writes its spans as TSV next to this executable, in
//! `spans-<workload>.tsv`.

use pacstack_perfbench::layers::traced_run;
use pacstack_perfbench::report::{result_line, Ledger};
use pacstack_perfbench::run::{end_to_end, setup_once};
use pacstack_perfbench::trace::Tracer;
use pacstack_perfbench::workload::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

/// Writes the traced run's spans beside the executable, inside the build
/// directory. A failure to write is reported but does not fail the run.
fn write_spans(tracer: &Tracer, workload: Workload) {
    let path = std::env::current_exe()
        .map(|exe| exe.with_file_name(format!("spans-{}.tsv", workload.name())));
    match path.and_then(|path| std::fs::write(&path, tracer.to_tsv()).map(|()| path)) {
        Ok(path) => eprintln!("perfbench: wrote the spans to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write the spans: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match setup_once(args.workload, args.seed) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        let mut tracer = Tracer::new();
        let metrics = traced_run(args.workload, args.seed, &mut tracer, &mut ledger);
        write_spans(&tracer, args.workload);
        metrics
    } else {
        match end_to_end(args.workload, args.seed, args.seconds, &mut ledger) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("{}", result_line(&ledger, &metrics));
    ExitCode::SUCCESS
}
