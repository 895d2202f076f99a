//! `quasar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it runs untraced passes of the workload for the
//! given number of seconds and reports the end-to-end metrics; with
//! `--trace 1` it runs the traced passes and reports the per-layer
//! metrics, writing a Chrome trace and a per-layer table under
//! `perfbench/out/`. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 0 only when every check passed.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use quasar_perfbench::alloc::CountingAlloc;
use quasar_perfbench::workloads::{inputs, Scenario, Size, INPUTS_PER_RUN, NAMES};
use quasar_perfbench::{attribute, measure, DEFAULT_SEED, HELD_OUT_SEED};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Untraced passes a run makes however short `--seconds` is: every
/// input once, and the first again so each run checks a repeat.
const MIN_PASSES: usize = INPUTS_PER_RUN as usize + 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("quasar-perfbench: {problem}");
    eprintln!(
        "usage: quasar-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, inputs: &[Scenario]) -> String {
    let scenario = &inputs[0];
    use quasar_obs::json::escape;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let checkout = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"inputs\": {}, \
         \"arrivals_per_input\": {}, \"guaranteed_per_input\": {}, \"servers\": {}, \
         \"horizon_s\": {}, \"nproc\": {nproc}, \
         \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_revision\": \"{}\"}}}}",
        escape(scenario.name),
        args.seed,
        args.seconds,
        args.trace as u8,
        inputs.len(),
        scenario.arrivals.len(),
        scenario.guaranteed(),
        scenario.per_platform * scenario.catalog.len(),
        scenario.horizon_s,
        escape(&cpu_model()),
        escape(&command_line(Command::new("rustc").arg("--version"))),
        // Only the checkout's own repository, never one above it.
        escape(&command_line(
            Command::new("git")
                .env("GIT_DIR", checkout.join(".git"))
                .args(["rev-parse", "HEAD"])
        )),
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let Some(inputs) = inputs(&args.workload, args.seed, Size::Full) else {
        return usage(&format!("unknown workload {:?}", args.workload));
    };
    println!("{}", provenance(&args, &inputs));
    let report = if args.trace {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        attribute(&inputs[0], args.seed, Some(&out))
    } else {
        measure(&inputs, Duration::from_secs(args.seconds), MIN_PASSES)
    };
    print!("{}", report.render());
    for note in &report.notes {
        eprintln!("quasar-perfbench: {note}");
    }
    for problem in &report.problems {
        eprintln!("quasar-perfbench: FAILED: {problem}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
