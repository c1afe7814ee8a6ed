//! Query serving for DirectLoad: the reason the indices exist.
//!
//! §1.1.1 describes the read side the update pipeline feeds: queries are
//! split into terms, posting lists are fetched and ranked, and abstracts
//! are "gathered from the summary index". The core crate's
//! [`DirectLoad::search`](directload::DirectLoad) implements one such
//! query; this crate turns it into a *serving system* — many queries per
//! second against one shared engine — and measures it:
//!
//! * [`frontend`] — sharded worker pool over bounded queues, with
//!   admission control that sheds (reject or serve-stale) under overload
//!   and degrades rather than drops on deadline breach;
//! * [`cache`] — sharded LRU over summary values keyed
//!   `(region, url, version)`, read-through, invalidated below the
//!   minimum live version on publish;
//! * latency measurement — the mergeable log-bucketed
//!   [`obs::LatencyHistogram`] (p50/p90/p99/p99.9), which lives in
//!   `obs::hist` and is re-exported here because [`ServeReport`] is made
//!   of them;
//! * [`driver`] — seeded open-loop QPS generator over [`indexgen`]'s
//!   Zipf/VIP query workload;
//! * [`routing`] — generation-keyed topology snapshots, so a serving
//!   path (in-process or behind the `net` crate's socket front end)
//!   re-resolves group bindings the moment a placement cutover moves
//!   the cluster's routing generation.
//!
//! Request tracing belongs to the long-running [`Frontend`] (the `net`
//! server's core): started with a trace sink, its workers emit one
//! `serve` span per response, and a query offered through
//! [`Submitter::submit_traced`] carries its trace id down the single read
//! path — `DirectLoad::rank_costed`, `Mint::get_costed`, `QinDb::status`.
//! The in-process experiments ([`ServeExt::serve`], [`frontend::run`])
//! run untraced.
//!
//! The whole stack is deterministic in its inputs (seeded workload,
//! fixed arrival schedule); wall-clock latencies of course vary run to
//! run, which is exactly what the histograms are for.
//!
//! # Quick start
//!
//! ```
//! use directload::{DirectLoad, DirectLoadConfig};
//! use serve::{ServeConfig, ServeExt};
//!
//! let mut system = DirectLoad::new(DirectLoadConfig::small());
//! system.run_version(1.0).unwrap();
//! let mut cfg = ServeConfig::default();
//! cfg.driver.requests = 50;
//! cfg.driver.qps = 2000.0;
//! let report = system.serve(&cfg);
//! assert_eq!(report.offered, 50);
//! assert_eq!(report.responses() + report.shed, report.offered);
//! ```

pub mod cache;
pub mod driver;
pub mod frontend;
pub mod routing;

pub use cache::{ShardedLru, SummaryCache, SummaryKey};
pub use driver::DriverConfig;
pub use frontend::{
    Admission, AttributionReport, Frontend, FrontendConfig, LiveStats, QueryReply, Responder,
    ServeReport, ShedPolicy, Submitted, Submitter,
};
pub use obs::LatencyHistogram;
pub use routing::RoutingView;

use directload::DirectLoad;

/// Everything one serving experiment needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Front-end shape (workers, queues, admission, service model).
    pub frontend: FrontendConfig,
    /// Offered load (QPS, request count, workload seed).
    pub driver: DriverConfig,
}

/// Serving entry points for [`DirectLoad`].
///
/// An extension trait because the dependency points this way: `serve`
/// builds on `directload`, which knows nothing about serving.
pub trait ServeExt {
    /// Runs one open-loop serving experiment with a fresh summary cache.
    fn serve(&self, cfg: &ServeConfig) -> ServeReport;

    /// Same, but against a caller-owned cache (keep it warm across runs;
    /// call [`SummaryCache::invalidate_below`] after each publish).
    fn serve_with_cache(&self, cfg: &ServeConfig, cache: &SummaryCache) -> ServeReport;
}

impl ServeExt for DirectLoad {
    fn serve(&self, cfg: &ServeConfig) -> ServeReport {
        let cache = SummaryCache::new(cfg.frontend.cache_capacity, cfg.frontend.cache_shards);
        self.serve_with_cache(cfg, &cache)
    }

    fn serve_with_cache(&self, cfg: &ServeConfig, cache: &SummaryCache) -> ServeReport {
        driver::run_open_loop(self, &cfg.frontend, cache, &cfg.driver)
    }
}
