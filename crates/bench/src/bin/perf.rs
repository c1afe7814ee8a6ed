//! The perf flight recorder CLI.
//!
//! ```text
//! perf [SCENARIO...|all] [--quick|--full] [--reps N]
//!      [--check] [--rebaseline] [--out PATH] [--baseline PATH]
//! ```
//!
//! Runs the macro-benchmark suite (see `directload_bench::perf`), prints
//! each scenario table plus the pipeline phase-time profile, and writes
//! `BENCH_RESULTS.json` in the working directory (run it from the repo
//! root). With `--check` it compares the fresh results against the
//! checked-in `BENCH_BASELINE.json` (also resolved there) and exits
//! non-zero on any deterministic-counter drift or >30% wall-clock drift.
//! With `--rebaseline` it rewrites the baseline from the fresh results
//! (deterministic cells plus the curated wall-gated cells).

use directload_bench::perf::{baseline_subset, pipeline_profile, run_suite, PerfConfig, SCENARIOS};
use perfrec::{compare, BenchReport, WALL_TOLERANCE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perf [SCENARIO...|all] [--quick|--full] [--reps N] \
         [--check] [--rebaseline] [--out PATH] [--baseline PATH]\n\
         scenarios: {}",
        SCENARIOS.join(", ")
    )
}

struct Args {
    scenarios: Vec<String>,
    cfg: PerfConfig,
    check: bool,
    rebaseline: bool,
    out: PathBuf,
    baseline: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenarios: Vec::new(),
        cfg: PerfConfig::full(),
        check: false,
        rebaseline: false,
        // Relative to the working directory, so a relocated build reads
        // and writes the checkout it is run from (CI runs at the root).
        out: PathBuf::from("BENCH_RESULTS.json"),
        baseline: PathBuf::from("BENCH_BASELINE.json"),
    };
    let mut explicit_mode = false;
    let mut explicit_reps = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                args.cfg = PerfConfig::quick();
                explicit_mode = true;
            }
            "--full" => {
                args.cfg = PerfConfig::full();
                explicit_mode = true;
            }
            "--reps" => {
                let n = it.next().ok_or("--reps needs a value")?;
                explicit_reps = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("bad --reps `{n}`"))?,
                );
            }
            "--check" => args.check = true,
            "--rebaseline" => args.rebaseline = true,
            "--out" => args.out = it.next().ok_or("--out needs a path")?.into(),
            "--baseline" => args.baseline = it.next().ok_or("--baseline needs a path")?.into(),
            "--help" | "-h" => return Err(usage()),
            "all" => args.scenarios = SCENARIOS.iter().map(|s| s.to_string()).collect(),
            s if s.starts_with("--") => return Err(format!("unknown flag `{s}`\n{}", usage())),
            s if SCENARIOS.contains(&s) => args.scenarios.push(s.to_string()),
            s => return Err(format!("unknown scenario `{s}`\n{}", usage())),
        }
    }
    if args.scenarios.is_empty() {
        args.scenarios = SCENARIOS.iter().map(|s| s.to_string()).collect();
    }
    // `--check` must measure at the baseline's scale or the comparison is
    // meaningless; adopt its mode unless one was forced on the CLI.
    if args.check && !explicit_mode {
        if let Ok(base) = BenchReport::read_from(&args.baseline) {
            args.cfg = if base.mode == "quick" {
                PerfConfig::quick()
            } else {
                PerfConfig::full()
            };
        }
    }
    if let Some(reps) = explicit_reps {
        if reps == 0 {
            return Err("--reps must be at least 1".into());
        }
        args.cfg.reps = reps;
    }
    Ok(args)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let names: Vec<&str> = args.scenarios.iter().map(|s| s.as_str()).collect();
    eprintln!(
        "running {} scenario(s) in {} mode, {} wall rep(s) each...",
        names.len(),
        args.cfg.mode(),
        args.cfg.reps
    );
    let report = run_suite(&names, &args.cfg);
    println!("{}", report.render_table());

    // The phase-time profile rides along with every full-suite run (it is
    // cheap: one extra pipeline round under the wall tracer).
    if names.contains(&"pipeline_round") {
        let (profile, attributed) = pipeline_profile(&args.cfg);
        println!("{profile}");
        if attributed < 0.9 {
            eprintln!(
                "warning: only {:.1}% of the pipeline round is attributed to named phases",
                attributed * 100.0
            );
        }
    }

    report
        .write_to(&args.out)
        .map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    eprintln!("wrote {}", args.out.display());

    if args.rebaseline {
        let base = baseline_subset(&report);
        base.write_to(&args.baseline)
            .map_err(|e| format!("writing {}: {e}", args.baseline.display()))?;
        eprintln!(
            "re-baselined {} ({} gated cells)",
            args.baseline.display(),
            base.results.len()
        );
    }

    if args.check {
        if !Path::new(&args.baseline).exists() {
            return Err(format!(
                "--check: no baseline at {} (run with --rebaseline first)",
                args.baseline.display()
            ));
        }
        let base = BenchReport::read_from(&args.baseline)
            .map_err(|e| format!("reading {}: {e}", args.baseline.display()))?;
        let drifts = compare(&base, &report, WALL_TOLERANCE)?;
        if drifts.is_empty() {
            println!(
                "regression gate: PASS ({} baseline cells checked)",
                base.results.len()
            );
        } else {
            println!("regression gate: FAIL ({} drift(s))", drifts.len());
            for d in &drifts {
                println!("  {}", d.render());
            }
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}
