//! Building the system under test, its seeded inputs, and the checks of
//! its outputs.

use bifrost::DataCenterId;
use bytes::Bytes;
use directload::{summary_host_for, DirectLoad, DirectLoadConfig};
use indexgen::{CrawlSimulator, IndexKind, QueryWorkload, QueryWorkloadConfig};
use mint::Mint;
use net::{Request, Response, WireHit};
use std::time::Instant;

/// Share of pages each delta version changes.
pub const CHANGE_FRACTION: f64 = 0.3;

/// Hits per query: the front end's default.
pub fn top_k() -> usize {
    serve::FrontendConfig::default().top_k
}

/// SplitMix64: the benchmark's own seeded choices (which data center,
/// which keys to check), kept apart from the program's generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `min(k, n)` distinct indices below `n`, drawn uniformly, sorted.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < k.min(n) {
            picked.insert(self.below(n));
        }
        picked.into_iter().collect()
    }
}

/// The system configuration for `docs` documents: the laptop-scale
/// preset with the corpus drawn from `seed`.
pub fn config(docs: usize, seed: u64) -> DirectLoadConfig {
    let mut cfg = DirectLoadConfig::small();
    cfg.corpus.num_docs = docs;
    cfg.corpus.seed = Rng::new(seed, 1).next_u64();
    cfg
}

/// Builds the system and publishes the full first version.
pub fn build(cfg: DirectLoadConfig) -> Result<DirectLoad, String> {
    let mut dl = DirectLoad::new(cfg);
    dl.run_version(1.0).map_err(|e| format!("version 1: {e}"))?;
    Ok(dl)
}

/// Timed builds of the system from one configuration. Every build must
/// store the same bytes.
pub struct Builds {
    cfg: DirectLoadConfig,
    times: Vec<f64>,
    first: Option<Totals>,
}

impl Builds {
    pub fn new(cfg: DirectLoadConfig) -> Builds {
        Builds {
            cfg,
            times: Vec::new(),
            first: None,
        }
    }

    /// Builds the system once more and times it. Fails if the build
    /// failed or stored other bytes than the first.
    pub fn build(&mut self) -> Result<DirectLoad, String> {
        let t = Instant::now();
        let dl = build(self.cfg)?;
        self.times.push(t.elapsed().as_secs_f64());
        let totals = Totals::of(&dl);
        match &self.first {
            Some(f) if *f != totals => Err(format!(
                "set-up is not deterministic: {f:?} then {totals:?}"
            )),
            Some(_) => Ok(dl),
            None => {
                self.first = Some(totals);
                Ok(dl)
            }
        }
    }

    /// The lower quartile of the build times, in seconds. The host's
    /// speed drifts for seconds at a time; the lower quartile of many
    /// builds spread over the run follows the program and the calmer
    /// spells of the host, and a slower build lifts every quartile.
    pub fn setup_s(&self) -> f64 {
        crate::stats::quantile(&self.times, 0.25)
    }
}

/// Counters that a seed fixes exactly: the same seed must give the same
/// values on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub keys_stored: u64,
    pub uplink_bytes: u64,
    pub engine_puts: u64,
    pub sys_write_bytes: u64,
}

impl Totals {
    /// The totals of a running system: storage counters from its
    /// clusters, pipeline counters from its introspection report.
    pub fn of(dl: &DirectLoad) -> Totals {
        let report = dl.introspect();
        let mut t = Totals::of_clusters(dl.dc_ids().iter().map(|&dc| dl.cluster(dc).expect("dc")));
        t.keys_stored = report.counter("pipeline.keys_stored_total").unwrap_or(0);
        t.uplink_bytes = report.counter("bifrost.uplink_bytes").unwrap_or(0);
        t
    }

    pub fn of_clusters<'a>(clusters: impl Iterator<Item = &'a Mint>) -> Totals {
        let l = Layers::of(clusters);
        Totals {
            engine_puts: l.engine.puts,
            sys_write_bytes: l.device.sys_write_bytes(),
            ..Totals::default()
        }
    }
}

/// Cumulative counters of the storage layers, summed over clusters.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub engine: qindb::EngineStats,
    pub device: ssdsim::CounterSnapshot,
    pub wal: wal::WalStats,
    pub disk_bytes: u64,
}

impl Layers {
    pub fn of<'a>(clusters: impl Iterator<Item = &'a Mint>) -> Layers {
        let mut l = Layers::default();
        for c in clusters {
            l.engine.accumulate(&c.aggregate_stats());
            l.device.accumulate(&c.aggregate_device_counters());
            l.wal.accumulate(&c.aggregate_wal_stats());
            l.disk_bytes += c.total_disk_bytes();
        }
        l
    }

    pub fn of_system(dl: &DirectLoad) -> Layers {
        Layers::of(dl.dc_ids().iter().map(|&dc| dl.cluster(dc).expect("dc")))
    }
}

/// Seeded `Get` requests against `version`. With `dc` set every query
/// goes there; otherwise each picks one of the six data centers.
pub fn queries(
    dl: &DirectLoad,
    seed: u64,
    stream: u64,
    n: usize,
    dc: Option<DataCenterId>,
    version: u64,
) -> Vec<Request> {
    let mut workload = QueryWorkload::new(
        dl.crawler(),
        QueryWorkloadConfig {
            seed: Rng::new(seed, stream).next_u64(),
            ..QueryWorkloadConfig::default()
        },
    );
    let mut pick = Rng::new(seed, stream + 1);
    let all = DataCenterId::all();
    (0..n)
        .map(|_| Request::Get {
            dc: dc.unwrap_or_else(|| all[pick.below(all.len())]),
            terms: workload.next_query().terms,
            version,
            top_k: top_k() as u32,
        })
        .collect()
}

/// The answer the system must give: rank at the data center, abstracts
/// from its region's summary host, at the same version.
pub fn oracle(dl: &DirectLoad, req: &Request) -> Result<Vec<WireHit>, String> {
    let Request::Get {
        dc,
        terms,
        version,
        top_k,
    } = req
    else {
        return Err("not a Get".into());
    };
    let refs: Vec<&[u8]> = terms.iter().map(|t| t.as_ref()).collect();
    let ranked = dl
        .rank(*dc, &refs, *version, *top_k as usize)
        .map_err(|e| e.to_string())?;
    ranked
        .ranked
        .into_iter()
        .map(|(url, matched)| {
            let (summary, _) = dl
                .get_summary(summary_host_for(*dc), &url, *version)
                .map_err(|e| e.to_string())?;
            Ok(WireHit {
                url,
                matched_terms: matched as u32,
                summary,
            })
        })
        .collect()
}

/// Replies (by request index) that differ from the oracle's answer.
/// Errors and degraded replies are counted as failures elsewhere and are
/// not compared.
pub fn wrong_replies(dl: &DirectLoad, requests: &[Request], kept: &[(usize, Response)]) -> u64 {
    kept.iter()
        .filter(|(i, resp)| match resp {
            Response::Hits {
                degraded: false,
                hits,
            } => oracle(dl, &requests[*i]).map_or(true, |want| &want != hits),
            _ => false,
        })
        .count() as u64
}

/// Checks stored values against the generator: a twin crawler with the
/// same corpus configuration produces every version's pairs again, and
/// a seeded sample of them is read back at the version just published.
pub struct ReadBack {
    twin: CrawlSimulator,
    rng: Rng,
    sample: usize,
}

impl ReadBack {
    /// A checker for a system built by [`build`] from `cfg`, which has
    /// published version 1 only.
    pub fn new(cfg: DirectLoadConfig, seed: u64, sample: usize) -> ReadBack {
        let mut twin = CrawlSimulator::new(cfg.corpus);
        twin.advance_round(1.0);
        ReadBack {
            twin,
            rng: Rng::new(seed, 7),
            sample,
        }
    }

    /// Follows one more `run_version(change)` and reads back a sample
    /// of its pairs. Returns `(checked, mismatched)`.
    pub fn check(&mut self, dl: &DirectLoad, change: f64) -> (u64, u64) {
        self.check_with(change, dl.version(), |kind, dc, key, version| {
            match kind {
                IndexKind::Summary => dl.get_summary(summary_host_for(dc), key, version),
                IndexKind::Forward => dl.get_forward(dc, key, version),
                IndexKind::Inverted => dl.get_inverted(dc, key, version),
            }
            .ok()
            .and_then(|(v, _)| v)
        })
    }

    /// [`ReadBack::check`] for a system published `published`, read
    /// through `get(kind, data center, key, version)`.
    pub fn check_with(
        &mut self,
        change: f64,
        published: u64,
        get: impl Fn(IndexKind, DataCenterId, &[u8], u64) -> Option<Bytes>,
    ) -> (u64, u64) {
        let index = self.twin.advance_round(change);
        let pairs: Vec<_> = index.all_pairs().collect();
        let dcs = DataCenterId::all();
        let mut bad = u64::from(index.version != published);
        for i in self.rng.sample(pairs.len(), self.sample) {
            let p = pairs[i];
            let dc = dcs[self.rng.below(dcs.len())];
            if get(p.kind, dc, &p.key, index.version).as_ref() != Some(&p.value) {
                bad += 1;
            }
        }
        (self.sample.min(pairs.len()) as u64, bad)
    }
}

/// CPU time the hypervisor has so far taken from this machine's virtual
/// CPUs while they had work, in clock ticks: `steal` in `/proc/stat`.
/// 0 where it is not reported.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The data center, terms and version of a `Get`.
pub fn terms_of(req: &Request) -> (DataCenterId, Vec<Bytes>, u64) {
    match req {
        Request::Get {
            dc, terms, version, ..
        } => (*dc, terms.clone(), *version),
        _ => unreachable!("the benchmark only sends Get requests"),
    }
}
