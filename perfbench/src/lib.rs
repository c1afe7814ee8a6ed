//! End-to-end and per-layer benchmark of the DirectLoad read and write
//! paths. See README.md for the workloads and metrics.

pub mod alloc;
pub mod loadgen;
pub mod session;
pub mod spans;
pub mod stats;
pub mod system;
pub mod traced;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read only, with a summary working set that fits the cache.
    ServeWarm,
    /// Write only: a long run of delta versions.
    UpdateStream,
    /// Publishing and serving alternate, so every window starts cold.
    PublishServe,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_warm" => Some(Workload::ServeWarm),
            "update_stream" => Some(Workload::UpdateStream),
            "publish_serve" => Some(Workload::PublishServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::UpdateStream => "update_stream",
            Workload::PublishServe => "publish_serve",
        }
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Documents in the corpus.
    pub docs: usize,
    /// Times the system is built to time set-up.
    pub setup_repeats: usize,
    /// Delta versions serve_warm publishes before serving, and on each
    /// of the builds that time set-up.
    pub warm_versions: usize,
    /// Delta versions update_stream publishes, on the build it serves
    /// from and on a twin build before it.
    pub update_versions: usize,
    /// Open-loop rate of the measured serving windows, per second.
    pub serve_qps: f64,
    /// Unmeasured window that fills the summary cache first.
    pub warmup_secs: f64,
    /// Measured serving time of serve_warm and update_stream.
    pub serve_secs: f64,
    /// Length of one serving window: latency percentiles are taken per
    /// window and the run reports their medians.
    pub window_secs: f64,
    /// publish_serve: publish-then-serve rounds, one window each, their
    /// open-loop rate and length.
    pub windows: usize,
    pub window_qps: f64,
    pub publish_window_secs: f64,
    /// The search for `query_max_qps`.
    pub knee: session::Knee,
    /// Replies per window compared with the oracle.
    pub oracle_sample: usize,
    /// Stored values read back per version.
    pub readback_sample: usize,
    /// Queries per serving point replayed through the read chain when
    /// traced.
    pub trace_queries: usize,
}

impl Scale {
    /// The benchmark's scale for runs of about `seconds` of measuring.
    pub fn for_seconds(seconds: u64) -> Scale {
        let s = seconds.max(1) as f64;
        Scale {
            docs: 1000,
            setup_repeats: 21,
            warm_versions: 4,
            update_versions: 20,
            serve_qps: 3000.0,
            warmup_secs: 0.5,
            serve_secs: 0.4 * s,
            window_secs: 0.25,
            windows: 10,
            window_qps: 1000.0,
            publish_window_secs: 0.05 * s,
            knee: session::Knee {
                start_qps: 3000.0,
                step_qps: 2000.0,
                max_qps: 40_000.0,
                stairs: 2 * seconds.max(1) as usize,
                stair_frac: 0.04,
                rung_secs: 0.25,
                p90_limit_ms: 2.0,
                lag_limit_ms: 2.0,
            },
            oracle_sample: 200,
            readback_sample: 64,
            trace_queries: 300,
        }
    }

    /// A scale small enough for a unit test.
    pub fn tiny() -> Scale {
        Scale {
            docs: 120,
            setup_repeats: 3,
            warm_versions: 2,
            update_versions: 6,
            serve_qps: 500.0,
            warmup_secs: 0.05,
            serve_secs: 0.2,
            window_secs: 0.1,
            windows: 3,
            window_qps: 500.0,
            publish_window_secs: 0.1,
            knee: session::Knee {
                start_qps: 500.0,
                step_qps: 500.0,
                max_qps: 1000.0,
                stairs: 2,
                stair_frac: 0.1,
                rung_secs: 0.1,
                p90_limit_ms: 50.0,
                lag_limit_ms: 50.0,
            },
            oracle_sample: 20,
            readback_sample: 16,
            trace_queries: 10,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed correctness check; empty when the run was correct.
    pub errors: Vec<String>,
    /// The counters a seed must fix exactly.
    pub totals: Option<system::Totals>,
    /// The traced run's spans, one JSON object per line.
    pub spans_jsonl: String,
}

impl Outcome {
    pub fn error(e: String) -> Outcome {
        Outcome {
            attempted: 1,
            failed: 1,
            errors: vec![e],
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they cannot occur in a
            // correct run.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Runs `workload`, traced or not.
pub fn run(workload: Workload, seed: u64, scale: &Scale, traced: bool) -> Outcome {
    if traced {
        traced::run(workload, seed, scale)
    } else {
        workloads::run(workload, seed, scale)
    }
}

/// Where runs keep their span dumps and deterministic-counter records.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compares the counters a seed fixes with those an earlier run of the
/// same binary, workload, seed and length recorded, and records them if
/// this is the first such run.
pub fn check_totals(key: &str, totals: &system::Totals) -> Result<(), String> {
    let exe = std::env::current_exe().and_then(std::fs::metadata);
    let stamp = exe
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = out_dir().join("totals");
    let path = dir.join(format!("{key}-{stamp}.txt"));
    let now = format!("{totals:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => Err(format!(
            "counters differ from an earlier run of the same seed: {} then {}",
            before.trim(),
            now.trim()
        )),
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, now))
            .map_err(|e| format!("recording counters: {e}")),
    }
}

fn usage() -> String {
    "usage: perfbench --workload <serve_warm|update_stream|publish_serve> --seed <n> \
     --seconds <n> --trace <0|1>"
        .to_string()
}

/// Parses `--workload --seed --seconds --trace`.
pub fn parse_args(args: &[String]) -> Result<(Workload, u64, u64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(usage)?),
            "--seed" => seed = Some(value.parse().map_err(|_| usage())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| usage())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            _ => return Err(usage()),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) if secs > 0 => Ok((w, s, secs, t)),
        _ => Err(usage()),
    }
}

/// The command line: runs one workload and prints the result as the
/// last line of standard output. Exits 1 when a correctness check
/// failed. `traced_binary` says whether this binary counts allocations;
/// each binary runs only its own mode.
pub fn main(traced_binary: bool) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    if trace != traced_binary {
        eprintln!(
            "--trace {} runs in the other binary; use perfbench/run.sh",
            u8::from(trace)
        );
        return std::process::ExitCode::from(2);
    }
    let scale = Scale::for_seconds(seconds);
    let mut out = run(workload, seed, &scale, trace);
    let mode = if trace { "traced" } else { "untraced" };
    if let Some(totals) = out.totals {
        let key = format!("{}-{mode}-{seed}-{seconds}", workload.name());
        out.attempted += 1;
        if let Err(e) = check_totals(&key, &totals) {
            out.failed += 1;
            out.errors.push(e);
        }
    }
    if trace {
        let path = out_dir().join(format!("spans-{}-{seed}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, &out.spans_jsonl));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
