//! The end-to-end run: fresh-process set-up, then warm, timed passes at
//! `--jobs 1`, each checked.

use crate::report::{median, peak_rss_mb, thread_sched_ns, Ledger, Metrics};
use crate::workload::{Seeds, Workload};
use pacstack_exec as exec;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Fresh set-up processes run before the warm-up pass; one more follows
/// each timed pass, so the set-up samples span the whole run.
pub const SETUP_PROCESSES_FIRST: usize = 3;
/// Timed passes a run makes even when they outlast `--seconds`.
pub const MIN_PASSES: usize = 3;

/// Builds the workload's inputs at workload seed `seed` once in this
/// process and returns the host seconds it took. This is what each fresh
/// set-up process runs.
///
/// # Errors
///
/// Returns a message if the set-up fails.
pub fn setup_once(workload: Workload, seed: u64) -> Result<f64, String> {
    let seeds = Seeds::from_workload_seed(seed);
    exec::set_jobs(1);
    let start = Instant::now();
    black_box(workload.setup(&seeds)?);
    Ok(start.elapsed().as_secs_f64())
}

/// Runs `setup_once` in a fresh copy of this program and returns the
/// seconds it reports.
fn setup_in_fresh_process(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    match String::from_utf8_lossy(&out.stdout).trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The end-to-end run of `workload` at workload seed `seed`: one warm-up
/// pass; timed passes for at least `seconds` (and at least
/// [`MIN_PASSES`]); the memory high-water mark; then, away from the pinned
/// seeds, one pass at `--jobs` auto. Every pass is checked: against the
/// golden sections where they apply, and against the warm-up pass.
/// `setup_s` is the median over fresh set-up processes run before the
/// warm-up pass and after each timed pass.
///
/// # Errors
///
/// Returns a message if the fresh-process set-up fails.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
) -> Result<Metrics, String> {
    let seeds = Seeds::from_workload_seed(seed);
    let pinned = seeds.pinned();
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROCESSES_FIRST {
        setups.push(setup_in_fresh_process(workload, seed)?);
    }

    exec::set_jobs(1);
    let reference = workload.pass(&seeds);
    ledger.record(&reference, pinned, None);
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let sched_start = thread_sched_ns();
        let pass = workload.pass(&seeds);
        let wall = pass_start.elapsed().as_secs_f64();
        walls.push(wall);
        if let (Some((cpu0, wait0)), Some((cpu1, wait1))) = (sched_start, thread_sched_ns()) {
            eprintln!(
                "perfbench: pass {}: wall {wall:.4} s, on-cpu {:.4} s, run-queue wait {:.4} s",
                walls.len(),
                (cpu1 - cpu0) as f64 / 1e9,
                (wait1 - wait0) as f64 / 1e9
            );
        }
        ledger.record(&pass, pinned, Some(&reference));
        setups.push(setup_in_fresh_process(workload, seed)?);
    }
    let peak_rss = peak_rss_mb();
    if !pinned {
        exec::set_jobs(0);
        let pass = workload.pass(&seeds);
        exec::set_jobs(1);
        ledger.record(&pass, pinned, Some(&reference));
    }

    let mut m = Metrics::default();
    m.set("wall_s", median(&walls), "s");
    m.set("setup_s", median(&setups), "s");
    m.set("peak_rss_mb", peak_rss, "MiB");
    Ok(m)
}
