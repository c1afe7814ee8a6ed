//! A loopback server over the system, and the rate search run on it.

use crate::loadgen::{self, Window};
use crate::{stats, system};
use directload::DirectLoad;
use net::{Request, Server, ServerConfig};
use serve::{FrontendConfig, ServeReport};
use std::sync::Arc;
use std::time::Duration;

/// The front end as deployed, except that the modeled service sleeps
/// are zero: they stand in for storage wait the simulated clock already
/// charges, and with them the wall times would time sleeps, not code.
pub fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        rank_service: Duration::ZERO,
        summary_service: Duration::ZERO,
        ..FrontendConfig::default()
    }
}

/// `net::Server` on an OS-assigned loopback port.
pub struct Session {
    server: Server,
    engine: Arc<DirectLoad>,
}

impl Session {
    pub fn start(dl: DirectLoad) -> Session {
        let engine = Arc::new(dl);
        let cfg = ServerConfig {
            frontend: frontend_config(),
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", cfg)
            .expect("start the loopback server");
        Session { server, engine }
    }

    pub fn engine(&self) -> &Arc<DirectLoad> {
        &self.engine
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Offers `requests` open loop at `rate`, keeping the replies of
    /// the indices in `keep`.
    pub fn offer(&self, requests: &[Request], rate: f64, keep: &[usize]) -> Window {
        loadgen::run(self.addr(), requests, rate, keep)
    }

    /// Stops the server and takes the system back: shutdown joins every
    /// thread that holds the engine.
    pub fn stop(self) -> (DirectLoad, ServeReport) {
        let report = self.server.shutdown();
        let dl = Arc::try_unwrap(self.engine)
            .unwrap_or_else(|_| panic!("the stopped server still holds the engine"));
        (dl, report)
    }
}

/// A rung during which the hypervisor took more than this many clock
/// ticks (10 ms each) of CPU time from the machine is run again: near
/// the knee a stall of a few tens of milliseconds fails a rung whatever
/// the program does. A search reruns at most half as many rungs as its
/// staircase has.
const RUNG_STEAL_LIMIT_TICKS: u64 = 1;

/// The settings of the search for the highest rate that meets the
/// latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Knee {
    /// First offered rate, per second.
    pub start_qps: f64,
    /// Rate added per rung of the coarse ladder.
    pub step_qps: f64,
    /// Highest rate tried.
    pub max_qps: f64,
    /// Rungs of the staircase that follows the ladder.
    pub stairs: usize,
    /// Staircase step: the rate grows by this share after a pass and
    /// shrinks by it after a miss.
    pub stair_frac: f64,
    /// Length of one rung.
    pub rung_secs: f64,
    /// The p90 a rung must meet, from due time to reply.
    pub p90_limit_ms: f64,
    /// A rung whose sends ran later than this on average over its last
    /// quarter had a growing backlog in the generator.
    pub lag_limit_ms: f64,
}

impl Knee {
    /// A search that has run no rung yet.
    pub fn start(&self) -> Search {
        Search {
            knee: *self,
            rungs: 0,
            reruns: 0,
            first: None,
            achieved: Vec::with_capacity(self.stairs),
            phase: Phase::Ladder {
                rate: self.start_qps,
                passed: None,
                missed: false,
            },
        }
    }
}

/// Where a [`Search`] stands.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Climbing from `start_qps`; `missed` when `rate` missed once.
    Ladder {
        rate: f64,
        passed: Option<f64>,
        missed: bool,
    },
    /// Rung `i` of the staircase is next, at `rate`.
    Stairs {
        i: usize,
        rate: f64,
    },
    Done,
}

/// The search for the highest rate that meets the latency limit, one
/// rung at a time, so that a workload can spread its rungs over the run.
///
/// A rung passes when every request is answered, none shed, degraded or
/// lost, p90 is within the limit and the generator's lag did not grow.
/// Near the knee whether a short rung passes is a matter of chance, so
/// one pass/miss boundary would jump from run to run. Instead a coarse
/// ladder climbs to the first rate that misses twice, and from the last
/// rate that passed a staircase steps up after each pass and down after
/// each miss. It hovers around the rate that passes half the time; the
/// result is the mean of the replies per second achieved by the passing
/// rungs of its second half (the first rung's, if none passed).
#[derive(Debug)]
pub struct Search {
    knee: Knee,
    /// Rungs run so far, reruns included.
    rungs: usize,
    reruns: usize,
    /// Replies per second of the first rung.
    first: Option<f64>,
    /// Replies per second of the passing rungs of the staircase's
    /// second half.
    achieved: Vec<f64>,
    phase: Phase,
}

impl Search {
    /// Runs the next rung on `session`, with `requests(rung, n)` giving
    /// its `n` requests. Returns false, running nothing, once the search
    /// is over.
    pub fn step(
        &mut self,
        session: &Session,
        mut requests: impl FnMut(usize, usize) -> Vec<Request>,
    ) -> bool {
        let k = self.knee;
        match self.phase {
            Phase::Done => false,
            Phase::Ladder { rate, passed, .. } if rate > k.max_qps => {
                self.phase = Phase::Stairs {
                    i: 0,
                    rate: passed.unwrap_or(k.start_qps),
                };
                self.step(session, requests)
            }
            Phase::Ladder {
                rate,
                passed,
                missed,
            } => {
                let (pass, _) = self.rung(session, rate, &mut requests);
                self.phase = if pass {
                    Phase::Ladder {
                        rate: rate + k.step_qps,
                        passed: Some(rate),
                        missed: false,
                    }
                } else if missed {
                    Phase::Stairs {
                        i: 0,
                        rate: passed.unwrap_or(k.start_qps),
                    }
                } else {
                    Phase::Ladder {
                        rate,
                        passed,
                        missed: true,
                    }
                };
                true
            }
            Phase::Stairs { i, .. } if i >= k.stairs => {
                self.phase = Phase::Done;
                false
            }
            Phase::Stairs { i, rate } => {
                let (pass, achieved) = self.rung(session, rate, &mut requests);
                let rate = if pass {
                    // The first half walks from the ladder's rate to the knee.
                    if i >= k.stairs / 2 {
                        self.achieved.push(achieved);
                    }
                    rate * (1.0 + k.stair_frac)
                } else {
                    rate / (1.0 + k.stair_frac)
                };
                self.phase = Phase::Stairs { i: i + 1, rate };
                true
            }
        }
    }

    /// Runs the rest of the search and returns its result.
    pub fn finish(
        &mut self,
        session: &Session,
        mut requests: impl FnMut(usize, usize) -> Vec<Request>,
    ) -> f64 {
        while self.step(session, &mut requests) {}
        if self.achieved.is_empty() {
            self.first.unwrap_or(0.0)
        } else {
            stats::mean(&self.achieved)
        }
    }

    /// Offers one rung at `rate`: whether it passed, and the replies per
    /// second it achieved.
    fn rung(
        &mut self,
        session: &Session,
        rate: f64,
        requests: &mut impl FnMut(usize, usize) -> Vec<Request>,
    ) -> (bool, f64) {
        let k = self.knee;
        let w = loop {
            let reqs = requests(self.rungs, (rate * k.rung_secs).ceil() as usize);
            self.rungs += 1;
            let steal = system::host_steal_ticks();
            let w = session.offer(&reqs, rate, &[]);
            let stolen = system::host_steal_ticks().saturating_sub(steal);
            if stolen <= RUNG_STEAL_LIMIT_TICKS || self.reruns >= k.stairs / 2 {
                break w;
            }
            self.reruns += 1;
        };
        let achieved = stats::ratio(w.ok_latency_us.len() as f64, w.elapsed.as_secs_f64());
        self.first.get_or_insert(achieved);
        let p90_ms = stats::quantile(&w.ok_latency_us, 0.9) / 1e3;
        let pass = w.failed() == 0 && p90_ms <= k.p90_limit_ms && w.tail_lag_ms() <= k.lag_limit_ms;
        (pass, achieved)
    }
}
