//! The three workloads, run untraced for the end-to-end metrics.

use crate::loadgen::Window;
use crate::session::{Search, Session};
use crate::stats::{mean, median, quantile, ratio};
use crate::system::{self, Builds, Layers, ReadBack, Totals, CHANGE_FRACTION};
use crate::{Outcome, Scale, Workload};
use bifrost::DataCenterId;
use directload::{DirectLoad, DirectLoadConfig};
use net::Request;
use serve::ServeReport;
use std::time::Instant;

/// The delta versions a workload published, as the system reported them.
#[derive(Debug, Default)]
pub struct Versions {
    pub wall_s: Vec<f64>,
    pub sim_s: Vec<f64>,
    pub uplink_bytes: Vec<f64>,
    pub reports: Vec<directload::VersionReport>,
    /// The counters a seed fixes, after each version.
    pub totals: Vec<Totals>,
    /// Storage counters before the first delta version.
    pub before: Option<Layers>,
    /// `run_version` calls that returned an error.
    pub run_errors: u64,
    pub readback_checked: u64,
    pub readback_bad: u64,
    pub errors: Vec<String>,
}

impl Versions {
    /// Publishes one delta version, timing `run_version` alone, then
    /// reads a sample of it back.
    pub fn publish(&mut self, dl: &mut DirectLoad, readback: &mut ReadBack) {
        if self.before.is_none() {
            self.before = Some(Layers::of_system(dl));
        }
        let t = Instant::now();
        let result = dl.run_version(CHANGE_FRACTION);
        let wall = t.elapsed().as_secs_f64();
        match result {
            Ok(r) => {
                self.wall_s.push(wall);
                self.sim_s.push(r.update_time.as_secs_f64());
                self.uplink_bytes.push(r.delivery.uplink_bytes as f64);
                self.reports.push(r);
                self.totals.push(Totals::of(dl));
            }
            Err(e) => {
                self.run_errors += 1;
                self.errors.push(format!("run_version: {e}"));
            }
        }
        let (checked, bad) = readback.check(dl, CHANGE_FRACTION);
        self.readback_checked += checked;
        self.readback_bad += bad;
        if bad > 0 {
            self.errors.push(format!(
                "version {}: {bad} of {checked} values read back wrong",
                dl.version()
            ));
        }
    }

    /// Operations attempted: each version and each value read back.
    pub fn attempted(&self) -> u64 {
        self.reports.len() as u64 + self.run_errors + self.readback_checked
    }

    pub fn failed(&self) -> u64 {
        self.run_errors + self.readback_bad
    }

    /// Device bytes written per qindb user byte over these versions.
    pub fn write_amp(&self, dl: &DirectLoad) -> f64 {
        let Some(before) = &self.before else {
            return 0.0;
        };
        let after = Layers::of_system(dl);
        ratio(
            (after.device.sys_write_bytes() - before.device.sys_write_bytes()) as f64,
            (after.engine.user_write_bytes - before.engine.user_write_bytes) as f64,
        )
    }
}

/// Latency percentiles of one serving window.
#[derive(Debug, Clone, Copy)]
pub struct WindowLatency {
    pub p50_us: f64,
    pub p90_us: f64,
    /// CPU time the hypervisor took from the machine during the window,
    /// in clock ticks.
    pub steal_ticks: u64,
}

/// Query windows served by a workload.
#[derive(Debug, Default)]
pub struct Reads {
    pub windows: Vec<WindowLatency>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Reads {
    pub fn merge(&mut self, other: Reads) {
        self.windows.extend(other.windows);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn add(&mut self, w: &Window, steal_ticks: u64, wrong: u64, what: &str) {
        if !w.ok_latency_us.is_empty() {
            self.windows.push(WindowLatency {
                p50_us: median(&w.ok_latency_us),
                p90_us: quantile(&w.ok_latency_us, 0.9),
                steal_ticks,
            });
        }
        self.attempted += w.attempted;
        self.failed += w.failed() + wrong;
        if !w.transport_ok() {
            self.errors.push(format!(
                "{what}: {} replies lost, {} duplicated",
                w.lost, w.duplicate
            ));
        }
        if wrong > 0 {
            self.errors
                .push(format!("{what}: {wrong} replies differ from the oracle"));
        }
    }

    /// A run's latency figure: the median of `value` over the half of
    /// the windows in which the hypervisor took the least CPU time from
    /// the machine (the earlier window first on a tie). On a shared host
    /// a neighbour's burst stalls the virtual CPUs for tens of
    /// milliseconds at a time and can lift a window's p90 tenfold. The
    /// windows are chosen by that measure of the host, never by their
    /// latency, so a slower program lifts the figure just as it lifts the
    /// median of all the windows.
    fn least_stolen_median(&self, value: fn(&WindowLatency) -> f64) -> f64 {
        let mut order: Vec<usize> = (0..self.windows.len()).collect();
        order.sort_by_key(|&i| (self.windows[i].steal_ticks, i));
        let calm: Vec<f64> = order[..self.windows.len().div_ceil(2)]
            .iter()
            .map(|&i| value(&self.windows[i]))
            .collect();
        median(&calm)
    }
}

/// Serves `requests` at `rate` as consecutive windows of `window`
/// requests each, so that a stall of the machine spoils one window's
/// percentiles rather than the run's. `observer` hears of each window
/// as it ends.
#[allow(clippy::too_many_arguments)]
pub fn serve_windows(
    session: &Session,
    requests: &[Request],
    window: usize,
    rate: f64,
    sample: usize,
    seed: u64,
    reads: &mut Reads,
    observer: &mut impl Observer,
) -> Vec<Window> {
    let chunks: Vec<&[Request]> = requests.chunks(window.max(1)).collect();
    let per_chunk = sample.div_ceil(chunks.len().max(1));
    chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let what = format!("window {i}");
            let w = serve_window(session, c, rate, per_chunk, seed + i as u64, reads, &what);
            observer.served(session);
            w
        })
        .collect()
}

/// Serves `requests` at `rate` on `session` and checks a seeded sample
/// of the replies against the oracle.
pub fn serve_window(
    session: &Session,
    requests: &[Request],
    rate: f64,
    sample: usize,
    seed: u64,
    reads: &mut Reads,
    what: &str,
) -> Window {
    let keep = system::Rng::new(seed, 11).sample(requests.len(), sample);
    let steal = system::host_steal_ticks();
    let w = session.offer(requests, rate, &keep);
    let steal = system::host_steal_ticks().saturating_sub(steal);
    let wrong = system::wrong_replies(session.engine(), requests, &w.kept);
    reads.add(&w, steal, wrong, what);
    w
}

/// Seeded queries for stream `stream` at the system's current version.
fn queries_now(
    dl: &DirectLoad,
    seed: u64,
    stream: u64,
    n: usize,
    dc: Option<DataCenterId>,
) -> Vec<Request> {
    system::queries(dl, seed, stream, n, dc, dl.version())
}

/// Fills the summary cache with the warm-up stream, which is not
/// measured. Returns its requests and window.
fn warm_up(session: &Session, seed: u64, scale: &Scale) -> (Vec<Request>, Window) {
    let rate = scale.serve_qps;
    let n = (rate * scale.warmup_secs) as usize;
    let warm = queries_now(session.engine(), seed, 1, n, None);
    let window = session.offer(&warm, rate, &[]);
    (warm, window)
}

/// One serving point of a workload: the running server, the requests
/// sent to it, and their windows (the warm-up's first, if any).
pub struct Point<'a> {
    pub session: &'a Session,
    pub warm: Vec<Request>,
    pub measured: Vec<Request>,
    pub windows: Vec<Window>,
}

/// What [`drive`] shows the traced run as it goes.
pub trait Observer {
    /// Called right after each delta version is published.
    fn published(&mut self, _versions: &Versions) {}
    /// Called after each measured window.
    fn served(&mut self, _session: &Session) {}
    /// Called at every serving point.
    fn point(&mut self, _point: &Point<'_>) {}
}

impl Observer for () {}

/// Publishes a workload's versions and serves its windows, starting from
/// a system that has published version 1. serve_warm and update_stream
/// publish `deltas` versions first. `observer` sees every published
/// version and every serving point. Returns the last server, still
/// running, and the reports of the servers stopped on the way.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    dl: DirectLoad,
    deltas: usize,
    versions: &mut Versions,
    readback: &mut ReadBack,
    reads: &mut Reads,
    observer: &mut impl Observer,
) -> (Session, Vec<ServeReport>) {
    let rate = scale.serve_qps;
    // The query streams: 1 warm-up, 2 measured, 3.. per window, 1000..
    // the rate search.
    let mut dl = Some(dl);
    let mut reports = Vec::new();
    if workload != Workload::PublishServe {
        let mut dl = dl.take().expect("system");
        for _ in 0..deltas {
            versions.publish(&mut dl, readback);
            observer.published(versions);
        }
        let session = Session::start(dl);
        let (warm, window) = warm_up(&session, seed, scale);
        let mut windows = vec![window];
        let n = (rate * scale.serve_secs) as usize;
        let measured = queries_now(session.engine(), seed, 2, n, None);
        let window = (rate * scale.window_secs) as usize;
        windows.extend(serve_windows(
            &session,
            &measured,
            window,
            rate,
            scale.oracle_sample,
            seed,
            reads,
            observer,
        ));
        observer.point(&Point {
            session: &session,
            warm,
            measured,
            windows,
        });
        return (session, reports);
    }
    let dcs = DataCenterId::all();
    let mut last: Option<Session> = None;
    for w in 0..scale.windows {
        let mut system = match last.take() {
            Some(session) => {
                let (system, report) = session.stop();
                reports.push(report);
                system
            }
            None => dl.take().expect("system"),
        };
        versions.publish(&mut system, readback);
        observer.published(versions);
        let session = Session::start(system);
        let n = (scale.window_qps * scale.publish_window_secs) as usize;
        let reqs = queries_now(
            session.engine(),
            seed,
            3 + w as u64,
            n,
            Some(dcs[w % dcs.len()]),
        );
        let what = format!("window {w}");
        let win = serve_window(
            &session,
            &reqs,
            scale.window_qps,
            scale.oracle_sample,
            seed + w as u64,
            reads,
            &what,
        );
        observer.served(&session);
        observer.point(&Point {
            session: &session,
            warm: Vec::new(),
            measured: reqs,
            windows: vec![win],
        });
        last = Some(session);
    }
    (last.expect("at least one window"), reports)
}

/// The requests of rung `rung` of the rate search.
fn rung_queries(session: &Session, seed: u64) -> impl FnMut(usize, usize) -> Vec<Request> + '_ {
    move |rung, n| queries_now(session.engine(), seed, 1000 + rung as u64, n, None)
}

/// Work spread over the measured windows, so that a slow spell of the
/// host lands on a share of each kind of work rather than on all of one:
/// rungs of the rate search, and the builds that time set-up. On
/// serve_warm each of these builds publishes the workload's delta
/// versions too, so that its version times rest on more than a fraction
/// of a second of work.
struct Interleave {
    search: Search,
    cfg: DirectLoadConfig,
    seed: u64,
    rungs_per_window: usize,
    builds: Builds,
    builds_left: usize,
    windows_left: usize,
    /// Delta versions each build publishes.
    versions_per_round: usize,
    readback_sample: usize,
    /// The versions published on the extra builds.
    rounds: Vec<Versions>,
    errors: Vec<String>,
}

impl Interleave {
    /// One more timed build, dropped once it has published `versions`
    /// delta versions.
    fn build(&mut self, versions: usize) {
        self.builds_left = self.builds_left.saturating_sub(1);
        let mut dl = match self.builds.build() {
            Ok(dl) => dl,
            Err(e) => return self.errors.push(e),
        };
        if versions > 0 {
            let mut v = Versions::default();
            let mut readback = ReadBack::new(self.cfg, self.seed, self.readback_sample);
            for _ in 0..versions {
                v.publish(&mut dl, &mut readback);
            }
            self.rounds.push(v);
        }
    }

    /// Runs the builds the windows left over.
    fn finish(&mut self) {
        while self.builds_left > 0 {
            self.build(self.versions_per_round);
        }
    }
}

impl Observer for Interleave {
    fn served(&mut self, session: &Session) {
        for _ in 0..self.rungs_per_window {
            self.search.step(session, rung_queries(session, self.seed));
        }
        let builds = self.builds_left.div_ceil(self.windows_left.max(1));
        self.windows_left = self.windows_left.saturating_sub(1);
        for _ in 0..builds {
            self.build(self.versions_per_round);
        }
    }
}

/// Wall time per delta version: for each version, the lower quartile of
/// its times over `kept` and the `rounds` that published it too; the
/// mean of those over the versions. Every round does the same work on an
/// identical build (their totals are compared), so a slower program
/// lifts every time. A slow spell of the host, which can lift one
/// version by half, lifts the figure only where it hits most rounds of
/// that version; as with the build times, the lower quartile follows the
/// calmer spells (see `Builds::setup_s`).
fn version_wall_s(kept: &Versions, rounds: &[Versions]) -> f64 {
    let per_version: Vec<f64> = (0..kept.wall_s.len())
        .map(|k| {
            let times: Vec<f64> = std::iter::once(kept)
                .chain(rounds)
                .filter_map(|r| r.wall_s.get(k).copied())
                .collect();
            quantile(&times, 0.25)
        })
        .collect();
    mean(&per_version)
}

/// Runs a workload untraced and reports its end-to-end metrics.
pub fn run(workload: Workload, seed: u64, scale: &Scale) -> Outcome {
    let cfg = system::config(scale.docs, seed);
    let mut builds = Builds::new(cfg);
    let dl = match builds.build() {
        Ok(dl) => dl,
        Err(e) => return Outcome::error(e),
    };
    let mut versions = Versions::default();
    let mut readback = ReadBack::new(cfg, seed, scale.readback_sample);
    let mut reads = Reads::default();
    let (deltas, windows) = match workload {
        Workload::ServeWarm | Workload::UpdateStream => {
            let window = ((scale.serve_qps * scale.window_secs) as usize).max(1);
            let n = (scale.serve_qps * scale.serve_secs) as usize;
            let deltas = if workload == Workload::ServeWarm {
                scale.warm_versions
            } else {
                scale.update_versions
            };
            (deltas, n.div_ceil(window))
        }
        Workload::PublishServe => (0, scale.windows),
    };
    // The search takes its staircase and about a quarter more rungs for
    // the ladder and reruns; what the windows leave runs after them.
    let rungs_per_window = (scale.knee.stairs * 5 / 4).div_ceil(windows.max(1));
    let mut interleave = Interleave {
        search: scale.knee.start(),
        cfg,
        seed,
        rungs_per_window,
        builds,
        builds_left: scale.setup_repeats.saturating_sub(1),
        windows_left: windows,
        versions_per_round: if workload == Workload::ServeWarm {
            scale.warm_versions
        } else {
            0
        },
        readback_sample: scale.readback_sample,
        rounds: Vec::new(),
        errors: Vec::new(),
    };
    if workload == Workload::UpdateStream {
        // A twin stream on a build of its own, before the measured one:
        // each version is then timed twice (see `version_wall_s`).
        interleave.build(deltas);
    }
    let (session, _) = drive(
        workload,
        seed,
        scale,
        dl,
        deltas,
        &mut versions,
        &mut readback,
        &mut reads,
        &mut interleave,
    );
    let max_qps = interleave
        .search
        .finish(&session, rung_queries(&session, seed));
    interleave.finish();
    let Interleave {
        builds,
        rounds,
        errors,
        ..
    } = interleave;
    let (dl, _) = session.stop();
    let totals = Totals::of(&dl);
    let mut out = Outcome {
        attempted: versions.attempted() + reads.attempted,
        failed: versions.failed() + reads.failed,
        errors: [versions.errors.clone(), reads.errors.clone(), errors].concat(),
        totals: Some(totals),
        ..Outcome::default()
    };
    for r in &rounds {
        out.attempted += r.attempted();
        out.failed += r.failed();
        out.errors.extend(r.errors.iter().cloned());
        if r.totals != versions.totals {
            out.errors
                .push("the same versions stored different bytes on two builds".into());
        }
    }
    let ok_frac = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    out.metric("setup_s", builds.setup_s(), "s");
    out.metric(
        "query_p50_ms",
        reads.least_stolen_median(|w| w.p50_us) / 1e3,
        "ms",
    );
    out.metric(
        "query_p90_ms",
        reads.least_stolen_median(|w| w.p90_us) / 1e3,
        "ms",
    );
    out.metric("query_max_qps", max_qps, "qps");
    out.metric("ok_frac", ok_frac, "ratio");
    out.metric("version_wall_s", version_wall_s(&versions, &rounds), "s");
    out.metric("update_sim_s", median(&versions.sim_s), "s");
    out.metric(
        "wan_bytes_per_version",
        mean(&versions.uplink_bytes),
        "bytes",
    );
    out.metric("write_amp", versions.write_amp(&dl), "ratio");
    drop(dl);
    out.metric("rss_mb", system::peak_rss_mb(), "MB");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_comes_from_the_least_stolen_half_of_the_windows() {
        let windows = [(0, 1.0), (5, 100.0), (0, 3.0), (9, 200.0), (1, 5.0)]
            .map(|(steal_ticks, p90_us)| WindowLatency {
                p50_us: p90_us / 2.0,
                p90_us,
                steal_ticks,
            })
            .to_vec();
        let reads = Reads {
            windows,
            ..Reads::default()
        };
        assert_eq!(reads.least_stolen_median(|w| w.p90_us), 3.0);
        assert_eq!(reads.least_stolen_median(|w| w.p50_us), 1.5);
    }

    #[test]
    fn a_spell_on_one_round_of_a_version_is_mostly_discounted() {
        let round = |wall_s: Vec<f64>| Versions {
            wall_s,
            ..Versions::default()
        };
        let kept = round(vec![1.0, 10.0]);
        assert_eq!(version_wall_s(&kept, &[]), 5.5);
        // Version 2 of the twin hit a spell: 20 instead of 10.
        let twin = round(vec![1.0, 20.0]);
        assert_eq!(version_wall_s(&kept, &[twin]), (1.0 + 12.5) / 2.0);
    }
}
