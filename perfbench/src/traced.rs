//! The traced run: the per-layer breakdown of a workload.
//!
//! First the workload runs on the system itself, as untraced, with each
//! serving point's queries also replayed one layer at a time through the
//! read chain:
//!
//! `net.request` (`Client::request`) ⊃ `net.codec` + `serve.reply`
//! (`Submitter::submit_query` → responder) ⊃ `core.rank`
//! (`DirectLoad::rank`) ⊃ `mint.get` (`Mint::get`), and `serve.summary`
//! (`SummaryCache::get_or_fetch`) ⊃ `core.get_summary` on a miss.
//!
//! Each version the system publishes is also replayed from outside, right
//! after `run_version` returns, through the layers' public entry points,
//! one `version` span each: `indexgen.advance_round` →
//! `bifrost.deliver_version` → `mint.apply` per data center →
//! `mint.delete` for retention. The replay must store exactly what
//! `run_version` stored, its layer calls must account for all but a small
//! share of each version span, and its wall time must stay close to
//! `run_version`'s.

use crate::session::{frontend_config, Session};
use crate::spans::{Recorder, SpanId};
use crate::stats::{mean, ratio};
use crate::system::{self, Layers, ReadBack, Totals, CHANGE_FRACTION};
use crate::workloads::{drive, Observer, Point, Reads, Versions};
use crate::{Outcome, Scale, Workload};
use bifrost::{Bifrost, DataCenterId, Deduplicator, UpdateEntry};
use bytes::Bytes;
use directload::{routed_key, summary_host_for, DirectLoad, DirectLoadConfig};
use indexgen::{CrawlSimulator, IndexKind};
use mint::{Mint, WriteOp};
use net::{wire, Client, ClientConfig, Request, Response, WireHit};
use serve::frontend::{Frontend, QueryReply};
use serve::{ServeReport, SummaryCache};
use simclock::{SimClock, SimTime};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};

/// Largest share of a version span that lies outside its layer calls:
/// the replay's own glue between them, which no layer accounts for.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// How far the replay's total wall time over the delta versions may stray
/// from the untraced `run_version` total, as a share of the latter.
const REPLAY_TOLERANCE: f64 = 0.25;

/// What the read side of the traced run gathered.
#[derive(Default)]
struct ReadSide {
    reads: Reads,
    /// Server reports of every serving point.
    reports: Vec<ServeReport>,
    lag_ms: Vec<f64>,
    replies: u64,
    response_bytes: u64,
    /// Storage counters summed over the in-process `serve.reply` calls.
    gets: u64,
    traceback_steps: u64,
    host_read_bytes: u64,
    queries: u64,
}

/// The traced run's state while the workload runs.
struct Tracer {
    rec: Recorder,
    side: ReadSide,
    /// Queries per serving point replayed through the read chain.
    replayed: usize,
    replay: Replay,
    replay_readback: ReadBack,
    /// The `version` spans of the delta versions, and the simulated
    /// storage time of each.
    roots: Vec<SpanId>,
    storage_ms: Vec<f64>,
    errors: Vec<String>,
}

impl Tracer {
    /// Replays one version through the write chain, then reads back and
    /// counts as the system's run does, so both do the same work around
    /// each version. `want` is what `run_version` stored.
    fn replay_version(&mut self, change: f64, want: Option<Totals>) {
        let (root, storage) = match self.replay.version(&mut self.rec, change) {
            Ok(done) => done,
            Err(e) => {
                self.errors.push(format!("write-chain replay: {e}"));
                return;
            }
        };
        let published = self.replay.crawler.version();
        if change != 1.0 {
            self.roots.push(root);
            self.storage_ms.push(storage.as_secs_f64() * 1e3);
            let replay = &self.replay;
            let (_, bad) =
                self.replay_readback
                    .check_with(change, published, |kind, dc, key, v| {
                        replay.get(kind, dc, key, v)
                    });
            if bad > 0 {
                self.errors.push(format!(
                    "write-chain replay of version {published}: {bad} values read back wrong"
                ));
            }
        }
        let stored = self.replay.totals();
        if Some(stored) != want {
            self.errors.push(format!(
                "write-chain replay of version {published} stored {stored:?}, \
                 run_version stored {want:?}"
            ));
        }
    }
}

impl Observer for Tracer {
    fn published(&mut self, versions: &Versions) {
        self.replay_version(CHANGE_FRACTION, versions.totals.last().copied());
    }

    fn point(&mut self, p: &Point<'_>) {
        for w in &p.windows {
            self.side.note_window(w);
        }
        let n = self.replayed.min(p.measured.len());
        self.side
            .chain(&mut self.rec, p.session, &p.warm, &p.measured[..n]);
    }
}

/// Runs `workload` traced and reports the per-layer metrics.
pub fn run(workload: Workload, seed: u64, scale: &Scale) -> Outcome {
    let cfg = system::config(scale.docs, seed);
    let dl = match system::build(cfg) {
        Ok(dl) => dl,
        Err(e) => return Outcome::error(e),
    };
    let mut readback = ReadBack::new(cfg, seed, scale.readback_sample);
    let mut versions = Versions::default();
    let mut reads = Reads::default();
    let (deltas, replayed) = match workload {
        Workload::ServeWarm => (scale.warm_versions, scale.trace_queries),
        Workload::UpdateStream => (scale.update_versions, scale.trace_queries),
        Workload::PublishServe => (0, (scale.trace_queries / scale.windows.max(1)).max(1)),
    };
    let mut t = Tracer {
        rec: Recorder::default(),
        side: ReadSide::default(),
        replayed,
        replay: Replay::new(cfg),
        replay_readback: ReadBack::new(cfg, seed, scale.readback_sample),
        roots: Vec::new(),
        storage_ms: Vec::new(),
        errors: Vec::new(),
    };
    t.replay_version(1.0, Some(Totals::of(&dl)));
    let (session, reports) = drive(
        workload,
        seed,
        scale,
        dl,
        deltas,
        &mut versions,
        &mut readback,
        &mut reads,
        &mut t,
    );
    let (dl, report) = session.stop();
    let Tracer {
        rec,
        mut side,
        roots,
        storage_ms,
        mut errors,
        ..
    } = t;
    side.reports.extend(reports);
    side.reports.push(report);
    side.reads.merge(reads);
    let layers_end = Layers::of_system(&dl);
    let totals = Totals::of(&dl);
    drop(dl);

    let untraced_s: f64 = versions.wall_s.iter().sum();
    let (overhead_frac, timing_errors) = check_write_chain(&rec, &roots, untraced_s);
    errors.extend(timing_errors);

    let spans = rec.by_name();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let n_versions = roots.len().max(1) as f64;
    let before = versions.before.clone().unwrap_or_default();
    let d = |f: fn(&Layers) -> u64| f(&layers_end).saturating_sub(f(&before)) as f64;
    let reports = &versions.reports;
    let attribution = side
        .reports
        .iter()
        .fold(obs::CostTotals::default(), |mut t, r| {
            t.merge(&r.attribution.costs.total);
            t
        });
    let (hits, misses) = side.reports.iter().fold((0, 0), |(h, m), r| {
        (h + r.summary_hits, m + r.summary_misses)
    });

    let mut out = Outcome {
        attempted: versions.attempted() + side.reads.attempted,
        failed: versions.failed() + side.reads.failed + errors.len() as u64,
        errors: [versions.errors.clone(), side.reads.errors.clone(), errors].concat(),
        totals: Some(totals),
        ..Outcome::default()
    };
    let q = side.queries as f64;
    out.metric("net.rtt_us", span("net.request").mean_us(), "us");
    out.metric("net.codec_us", span("net.codec").mean_us(), "us");
    out.metric(
        "net.response_bytes",
        ratio(side.response_bytes as f64, side.replies as f64),
        "bytes",
    );
    out.metric("net.codec_allocs", span("net.codec").mean_allocs(), "count");
    out.metric("serve.reply_us", span("serve.reply").mean_us(), "us");
    out.metric(
        "serve.queue_us",
        ratio(attribution.queue_us as f64, attribution.requests as f64),
        "us",
    );
    out.metric(
        "serve.service_us",
        ratio(attribution.service_us as f64, attribution.requests as f64),
        "us",
    );
    out.metric(
        "serve.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    out.metric(
        "serve.shed",
        side.reports.iter().map(|r| r.shed).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "serve.degraded",
        side.reports.iter().map(|r| r.served_stale).sum::<u64>() as f64,
        "count",
    );
    out.metric("core.rank_us", span("core.rank").mean_us(), "us");
    out.metric("core.rank_allocs", span("core.rank").mean_allocs(), "count");
    out.metric(
        "core.get_summary_us",
        span("core.get_summary").mean_us(),
        "us",
    );
    out.metric(
        "core.get_summary_allocs",
        span("core.get_summary").mean_allocs(),
        "count",
    );
    out.metric(
        "core.get_summary_alloc_bytes",
        span("core.get_summary").mean_alloc_bytes(),
        "bytes",
    );
    out.metric("mint.get_us", span("mint.get").mean_us(), "us");
    out.metric("mint.get_allocs", span("mint.get").mean_allocs(), "count");
    out.metric(
        "mint.apply_ms",
        span("mint.apply").dur_ns as f64 / 1e6 / n_versions,
        "ms",
    );
    out.metric(
        "mint.delete_ms",
        span("mint.delete").dur_ns as f64 / 1e6 / n_versions,
        "ms",
    );
    out.metric("mint.apply_sim_ms", mean(&storage_ms), "ms");
    out.metric("mint.disk_bytes", layers_end.disk_bytes as f64, "bytes");
    out.metric("qindb.gets_per_query", ratio(side.gets as f64, q), "count");
    out.metric(
        "qindb.traceback_steps_per_get",
        ratio(side.traceback_steps as f64, side.gets as f64),
        "count",
    );
    out.metric(
        "qindb.user_write_bytes_per_version",
        d(|l| l.engine.user_write_bytes) / n_versions,
        "bytes",
    );
    out.metric(
        "qindb.dels_per_version",
        d(|l| l.engine.dels) / n_versions,
        "count",
    );
    out.metric(
        "qindb.gc_bytes_rewritten",
        d(|l| l.engine.gc_bytes_rewritten),
        "bytes",
    );
    out.metric(
        "wal.appended_bytes_per_version",
        d(|l| l.wal.appended_bytes) / n_versions,
        "bytes",
    );
    out.metric(
        "wal.retained_bytes",
        layers_end
            .wal
            .appended_bytes
            .saturating_sub(layers_end.wal.gc_bytes) as f64,
        "bytes",
    );
    out.metric(
        "wal.checkpoints",
        layers_end.wal.checkpoints as f64,
        "count",
    );
    out.metric(
        "ssd.host_write_bytes_per_version",
        d(|l| l.device.host_write_bytes) / n_versions,
        "bytes",
    );
    out.metric(
        "ssd.gc_write_bytes_per_version",
        d(|l| l.device.gc_write_bytes) / n_versions,
        "bytes",
    );
    out.metric("ssd.blocks_erased", d(|l| l.device.blocks_erased), "count");
    out.metric(
        "ssd.host_read_bytes_per_query",
        ratio(side.host_read_bytes as f64, q),
        "bytes",
    );
    out.metric(
        "indexgen.round_ms",
        span("indexgen.advance_round").dur_ns as f64 / 1e6 / n_versions,
        "ms",
    );
    out.metric(
        "indexgen.pairs_per_version",
        mean(
            &reports
                .iter()
                .map(|r| r.delivery.dedup.pairs_total as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    out.metric(
        "bifrost.deliver_ms",
        span("bifrost.deliver_version").dur_ns as f64 / 1e6 / n_versions,
        "ms",
    );
    out.metric(
        "bifrost.dedup_ms",
        span("bifrost.dedup").dur_ns as f64 / 1e6 / n_versions,
        "ms",
    );
    out.metric(
        "bifrost.dedup_byte_ratio",
        mean(
            &reports
                .iter()
                .map(|r| r.delivery.dedup.byte_ratio())
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );
    out.metric(
        "bifrost.slices",
        mean(
            &reports
                .iter()
                .map(|r| r.delivery.slices as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    out.metric(
        "bifrost.missed_slices",
        reports.iter().map(|r| r.delivery.missed as f64).sum(),
        "count",
    );
    out.metric("loadgen.lag_ms", mean(&side.lag_ms), "ms");
    out.metric("trace.overhead_frac", overhead_frac, "ratio");
    out.spans_jsonl = rec.to_jsonl();
    out
}

/// The write chain's timing checks. The layer calls must account for
/// all but [`MAX_UNATTRIBUTED`] of each `version` span in `roots`, and the
/// spans' total wall time must be within [`REPLAY_TOLERANCE`] of
/// `untraced_s`, the system's own `run_version` time for the same
/// versions. Each version is replayed right after the system published
/// it, so both ran on the same state of the host. Returns the replay's
/// overhead, (replay − untraced) / untraced, and every failure.
fn check_write_chain(rec: &Recorder, roots: &[SpanId], untraced_s: f64) -> (f64, Vec<String>) {
    let mut errors = Vec::new();
    let self_ns = rec.self_ns();
    for &r in roots {
        let span = rec.get(r);
        let share = ratio(self_ns[r] as f64, span.dur_ns() as f64);
        if !(0.0..=MAX_UNATTRIBUTED).contains(&share) {
            errors.push(format!(
                "{:.1}% of a {:.1} ms version span lies outside its layer calls (at most {:.0}%)",
                share * 1e2,
                span.dur_ns() as f64 / 1e6,
                MAX_UNATTRIBUTED * 1e2
            ));
        }
    }
    let traced_s: f64 = roots
        .iter()
        .map(|&r| rec.get(r).dur_ns() as f64 / 1e9)
        .sum();
    let overhead_frac = ratio(traced_s - untraced_s, untraced_s);
    if overhead_frac.abs() > REPLAY_TOLERANCE {
        errors.push(format!(
            "the write-chain replay took {traced_s:.3} s over the delta versions, \
             run_version {untraced_s:.3} s (at most {:.0}% apart)",
            REPLAY_TOLERANCE * 1e2
        ));
    }
    (overhead_frac, errors)
}

impl ReadSide {
    fn note_window(&mut self, w: &crate::loadgen::Window) {
        self.lag_ms.extend_from_slice(&w.lag_ms);
        self.replies += w.attempted - w.lost;
        self.response_bytes += w.response_bytes;
    }

    /// Replays `queries` one layer at a time, after warming the
    /// in-process front end's cache with `warm` as the server's was.
    fn chain(
        &mut self,
        rec: &mut Recorder,
        session: &Session,
        warm: &[Request],
        queries: &[Request],
    ) {
        let engine = Arc::clone(session.engine());
        let cfg = frontend_config();
        let frontend = Frontend::start(
            Arc::clone(&engine),
            cfg,
            Arc::new(SummaryCache::new(cfg.cache_capacity, cfg.cache_shards)),
            None,
        );
        let cache = SummaryCache::new(cfg.cache_capacity, cfg.cache_shards);
        let mut client = Client::connect(session.addr().to_string(), ClientConfig::default())
            .expect("connect to the benchmark server");
        let submit = |req: &Request| -> QueryReply {
            let (dc, terms, version) = system::terms_of(req);
            let (tx, rx) = mpsc::channel();
            frontend.submitter().submit_query(
                dc,
                terms,
                version,
                system::top_k(),
                Box::new(move |reply| {
                    let _ = tx.send(reply);
                }),
            );
            rx.recv().unwrap_or(QueryReply {
                hits: Arc::new(Vec::new()),
                degraded: true,
            })
        };
        for req in warm {
            let (dc, _, version) = system::terms_of(req);
            submit(req);
            if let Ok(ranked) = engine.rank(dc, &term_refs(req), version, system::top_k()) {
                for (url, _) in ranked.ranked {
                    let _ = cache.get_or_fetch(&engine, dc, &url, version);
                }
            }
        }
        for (i, req) in queries.iter().enumerate() {
            let (dc, terms, version) = system::terms_of(req);
            self.reads.attempted += 1;
            let (resp, root) = rec.time("net.request", None, || client.request(req));
            let Ok(resp) = resp else {
                self.reads.failed += 1;
                self.reads.errors.push("read chain: request failed".into());
                continue;
            };
            let id = i as u64 + 1;
            let _ = rec.time("net.codec", Some(root), || {
                let frame = wire::encode_request(id, 0, req);
                let decoded = wire::decode_request(&frame[4..]);
                let frame = wire::encode_response(id, 0, &resp);
                (decoded, wire::decode_response(&frame[4..]))
            });
            let before = Layers::of_system(&engine);
            let (reply, serve_id) = rec.time("serve.reply", Some(root), || submit(req));
            let after = Layers::of_system(&engine);
            self.gets += after.engine.gets - before.engine.gets;
            self.traceback_steps += after.engine.traceback_steps - before.engine.traceback_steps;
            self.host_read_bytes += after.device.host_read_bytes - before.device.host_read_bytes;
            self.queries += 1;
            if !same_hits(&resp, &reply) {
                self.reads.failed += 1;
                self.reads.errors.push(format!(
                    "read chain: query {i} differs between net and serve"
                ));
            }
            self.replay_core(rec, &engine, &cache, serve_id, dc, &terms, version);
        }
        drop(client);
        frontend.shutdown();
    }

    /// The `serve.reply` children: ranking with its posting-list reads,
    /// then one summary lookup per hit.
    #[allow(clippy::too_many_arguments)]
    fn replay_core(
        &mut self,
        rec: &mut Recorder,
        engine: &DirectLoad,
        cache: &SummaryCache,
        parent: SpanId,
        dc: DataCenterId,
        terms: &[Bytes],
        version: u64,
    ) {
        let refs: Vec<&[u8]> = terms.iter().map(|t| t.as_ref()).collect();
        let top_k = system::top_k();
        let (ranked, rank_id) = rec.time("core.rank", Some(parent), || {
            engine.rank(dc, &refs, version, top_k)
        });
        let cluster = engine.cluster(dc).expect("every data center has a cluster");
        for t in terms {
            let key = routed_key(IndexKind::Inverted, t);
            let _ = rec.time("mint.get", Some(rank_id), || cluster.get(&key, version));
        }
        let Ok(ranked) = ranked else { return };
        for (url, _) in ranked.ranked {
            let (fetched, summary_id) = rec.time("serve.summary", Some(parent), || {
                cache.get_or_fetch(engine, dc, &url, version)
            });
            let hit = matches!(fetched, Ok((_, true, _)));
            // On a hit the cache saved this read; it is timed as a probe
            // of its own, outside the request's tree.
            let p = if hit { None } else { Some(summary_id) };
            let _ = rec.time("core.get_summary", p, || {
                engine.get_summary(summary_host_for(dc), &url, version)
            });
        }
    }
}

fn term_refs(req: &Request) -> Vec<&[u8]> {
    match req {
        Request::Get { terms, .. } => terms.iter().map(|t| t.as_ref()).collect(),
        _ => Vec::new(),
    }
}

fn same_hits(resp: &Response, reply: &QueryReply) -> bool {
    let Response::Hits { hits, .. } = resp else {
        return false;
    };
    let want: Vec<WireHit> = reply
        .hits
        .iter()
        .map(|h| WireHit {
            url: h.url.clone(),
            matched_terms: h.matched_terms as u32,
            summary: h.summary.clone(),
        })
        .collect();
    *hits == want
}

/// The version pipeline of `DirectLoad::run_version`, rebuilt from the
/// layers' public parts so each call can be timed on its own.
struct Replay {
    cfg: DirectLoadConfig,
    crawler: CrawlSimulator,
    bifrost: Bifrost,
    clock: SimClock,
    dcs: Vec<(DataCenterId, Mint)>,
    history: VecDeque<(u64, Vec<(IndexKind, Bytes)>)>,
    /// Deduplication again on its own, to time it apart from delivery.
    dedup: Deduplicator,
    keys_stored: u64,
    uplink_bytes: u64,
}

/// The capacity `DirectLoad` gives its trace rings.
const TRACE_CAPACITY: usize = 16 * 1024;

impl Replay {
    /// Wires the layers as `DirectLoad::new` does, trace rings included,
    /// so the replayed calls do the same work.
    fn new(cfg: DirectLoadConfig) -> Replay {
        let clock = SimClock::new();
        let trace = obs::TraceSink::sim(TRACE_CAPACITY, clock.clone());
        let wall = obs::TraceSink::wall(TRACE_CAPACITY);
        let wan = obs::WanLedger::new();
        let mut bifrost = Bifrost::new(cfg.bifrost, clock.clone());
        bifrost.attach_trace(&trace);
        bifrost.attach_wall_trace(&wall);
        bifrost.attach_wan(&wan);
        let dcs = DataCenterId::all()
            .into_iter()
            .map(|dc| {
                let mut cluster = Mint::new(cfg.mint);
                let label = format!("dc{}.{}", dc.region.0, dc.slot);
                cluster.attach_trace(&trace, &label);
                cluster.attach_wall_trace(&wall, &label);
                cluster.attach_wan(&wan, &label);
                (dc, cluster)
            })
            .collect();
        Replay {
            cfg,
            crawler: CrawlSimulator::new(cfg.corpus),
            bifrost,
            clock,
            dcs,
            history: VecDeque::new(),
            dedup: Deduplicator::new(),
            keys_stored: 0,
            uplink_bytes: 0,
        }
    }

    /// Reads one stored value as `DirectLoad`'s lookups do.
    fn get(&self, kind: IndexKind, dc: DataCenterId, key: &[u8], version: u64) -> Option<Bytes> {
        let dc = if kind == IndexKind::Summary {
            summary_host_for(dc)
        } else {
            dc
        };
        let (_, cluster) = self.dcs.iter().find(|(id, _)| *id == dc)?;
        cluster
            .get(&routed_key(kind, key), version)
            .ok()
            .and_then(|(v, _)| v)
    }

    fn totals(&self) -> Totals {
        Totals {
            keys_stored: self.keys_stored,
            uplink_bytes: self.uplink_bytes,
            ..Totals::of_clusters(self.dcs.iter().map(|(_, c)| c))
        }
    }

    /// One version under a `version` span. Returns the span and the
    /// simulated storage time.
    fn version(&mut self, rec: &mut Recorder, change: f64) -> Result<(SpanId, SimTime), String> {
        let start = self.clock.now();
        let root = rec.open("version", None);
        let crawler = &mut self.crawler;
        let (index, _) = rec.time("indexgen.advance_round", Some(root), || {
            crawler.advance_round(change)
        });
        let bifrost = &mut self.bifrost;
        let ((delivery, entries), _) = rec.time("bifrost.deliver_version", Some(root), || {
            bifrost.deliver_version(&index, start)
        });
        let summary_ops: Vec<WriteOp> = entries
            .iter()
            .filter(|e| e.kind == IndexKind::Summary)
            .map(to_write_op)
            .collect();
        let other_ops: Vec<WriteOp> = entries
            .iter()
            .filter(|e| e.kind != IndexKind::Summary)
            .map(to_write_op)
            .collect();
        let hosts = DataCenterId::summary_hosts();
        let mut storage = SimTime::ZERO;
        for (dc, cluster) in &mut self.dcs {
            let mut wall = SimTime::ZERO;
            if hosts.contains(dc) && !summary_ops.is_empty() {
                let (r, _) = rec.time("mint.apply", Some(root), || cluster.apply(&summary_ops));
                wall += r.map_err(|e| e.to_string())?.wall;
            }
            if !other_ops.is_empty() {
                let (r, _) = rec.time("mint.apply", Some(root), || cluster.apply(&other_ops));
                wall += r.map_err(|e| e.to_string())?.wall;
            }
            storage = storage.max(wall);
        }
        self.history.push_back((
            index.version,
            entries.iter().map(|e| (e.kind, e.key.clone())).collect(),
        ));
        let retained = self.cfg.versions_retained;
        let (history, dcs) = (&mut self.history, &mut self.dcs);
        let (deleted, _) = rec.time("mint.delete", Some(root), || -> Result<(), String> {
            while history.len() > retained {
                let (old, keys) = history.pop_front().expect("len checked");
                for (kind, key) in keys {
                    let routed = routed_key(kind, &key);
                    for (dc, cluster) in dcs.iter_mut() {
                        if kind == IndexKind::Summary && !hosts.contains(dc) {
                            continue;
                        }
                        cluster.delete(&routed, old).map_err(|e| e.to_string())?;
                    }
                }
            }
            Ok(())
        });
        self.keys_stored += entries.len() as u64;
        self.uplink_bytes += delivery.uplink_bytes;
        drop((summary_ops, other_ops, entries));
        rec.close(root);
        deleted?;
        let dedup = &mut self.dedup;
        rec.time("bifrost.dedup", None, || dedup.process(&index));
        Ok((root, storage))
    }
}

fn to_write_op(e: &UpdateEntry) -> WriteOp {
    WriteOp {
        key: routed_key(e.kind, &e.key),
        version: e.version,
        value: e.value.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    fn span(name: &'static str, parent: Option<SpanId>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            alloc: Default::default(),
        }
    }

    /// A 100 ms version span whose layer calls cover `covered_ms` of it.
    fn version(rec: &mut Recorder, at_ms: u64, covered_ms: u64) -> SpanId {
        let root = rec.push(span("version", None, at_ms, at_ms + 100));
        rec.push(span("mint.apply", Some(root), at_ms, at_ms + covered_ms));
        root
    }

    #[test]
    fn a_replay_that_matches_passes() {
        let mut rec = Recorder::default();
        let roots = [version(&mut rec, 0, 99), version(&mut rec, 100, 98)];
        let (overhead, errors) = check_write_chain(&rec, &roots, 0.21);
        assert!(errors.is_empty(), "{errors:?}");
        assert!((overhead - (0.2 - 0.21) / 0.21).abs() < 1e-9);
    }

    #[test]
    fn time_outside_the_layer_calls_fails() {
        let mut rec = Recorder::default();
        let roots = [version(&mut rec, 0, 99), version(&mut rec, 100, 80)];
        let (_, errors) = check_write_chain(&rec, &roots, 0.2);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("20.0% of a 100.0 ms version span"));
    }

    #[test]
    fn a_replay_far_from_run_version_fails() {
        let mut rec = Recorder::default();
        let roots = [version(&mut rec, 0, 100)];
        for untraced_s in [0.07, 0.14] {
            let (_, errors) = check_write_chain(&rec, &roots, untraced_s);
            assert_eq!(errors.len(), 1, "{untraced_s}: {errors:?}");
        }
        assert!(check_write_chain(&rec, &roots, 0.09).1.is_empty());
    }
}
