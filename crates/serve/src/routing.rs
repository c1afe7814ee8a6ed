//! Topology-aware routing snapshots for the serving path.
//!
//! A front-end worker (or a remote network server) must not keep using a
//! group binding after placement cut a node over: a drained node's
//! routed traffic has to stop at `cutover_drain`, and a joined node has
//! to start taking traffic at `cutover_join`. Re-reading the cluster's
//! group tables on every request would be correct but defeats the point
//! of a snapshot; instead, [`mint::Mint`] maintains a **routing
//! generation** — a counter bumped exactly when the set of routable
//! nodes changes — and [`RoutingView`] caches per-data-center membership
//! snapshots keyed by it. A resolve against an unchanged generation is a
//! pure cache read; the first resolve after a cutover sees the moved
//! counter and rebuilds, so stale bindings survive at most zero requests
//! past the cutover (the check happens on the resolve itself).

use bifrost::DataCenterId;
use directload::DirectLoad;
use std::collections::HashMap;
use std::sync::Mutex;

/// One data center's cached routing state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DcSnapshot {
    /// The cluster's routing generation when this snapshot was taken.
    generation: u64,
    /// Routed members per group (serving and draining nodes; joining
    /// newcomers are absent until their cutover).
    groups: Vec<Vec<u32>>,
}

/// A cache of per-data-center group-membership snapshots, refreshed only
/// when the cluster's routing generation moves.
#[derive(Debug, Default)]
pub struct RoutingView {
    dcs: Mutex<HashMap<DataCenterId, DcSnapshot>>,
    refreshes: std::sync::atomic::AtomicU64,
}

impl RoutingView {
    /// An empty view; snapshots are taken lazily on first resolve.
    pub fn new() -> RoutingView {
        RoutingView::default()
    }

    /// Snapshot rebuilds so far (one per data center per generation
    /// actually observed — the reuse metric the tests pin down).
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resolves the routed members of `key`'s group at `dc`, refreshing
    /// the snapshot first iff the cluster's routing generation moved
    /// since the last resolve. Returns the generation the answer is
    /// valid for and the member node ids.
    pub fn resolve(
        &self,
        engine: &DirectLoad,
        dc: DataCenterId,
        key: &[u8],
    ) -> directload::Result<(u64, Vec<u32>)> {
        let cluster = engine.cluster(dc)?;
        let generation = cluster.routing_generation();
        let mut dcs = self.dcs.lock().unwrap_or_else(|e| e.into_inner());
        let stale = dcs.get(&dc).map(|s| s.generation) != Some(generation);
        if stale {
            // Routed *and* alive: a failed node stays in the group table
            // until recovery but must leave the read fan-out at once.
            let groups = (0..cluster.num_groups())
                .map(|g| {
                    cluster
                        .group_members(g)
                        .iter()
                        .copied()
                        .filter(|&n| cluster.is_alive(mint::NodeId(n)))
                        .collect()
                })
                .collect();
            dcs.insert(dc, DcSnapshot { generation, groups });
            self.refreshes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let snapshot = dcs.get(&dc).expect("snapshot just ensured");
        let group = cluster.key_group(key);
        Ok((generation, snapshot.groups[group].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use directload::{DirectLoad, DirectLoadConfig};
    use mint::NodeId;

    fn system() -> DirectLoad {
        let mut s = DirectLoad::new(DirectLoadConfig::small());
        s.run_version(1.0).unwrap();
        s
    }

    #[test]
    fn snapshot_is_reused_while_generation_holds() {
        let s = system();
        let dc = s.dc_ids()[0];
        let view = RoutingView::new();
        let (gen0, members0) = view.resolve(&s, dc, b"some-key").unwrap();
        assert_eq!(view.refreshes(), 1, "first resolve takes the snapshot");
        for i in 0..50 {
            let key = format!("key-{i}");
            let (generation, _) = view.resolve(&s, dc, key.as_bytes()).unwrap();
            assert_eq!(generation, gen0);
        }
        assert_eq!(view.refreshes(), 1, "no routing change, no rebuild");
        assert!(!members0.is_empty());
    }

    #[test]
    fn worker_never_serves_a_group_binding_after_cutover() {
        let mut s = system();
        let dc = s.dc_ids()[0];
        let view = RoutingView::new();
        // Scale group 0 out so a member may drain, then bind the view.
        let joined = s.cluster_mut(dc).unwrap().add_node(0).unwrap();
        let victim = NodeId(s.cluster(dc).unwrap().group_members(0)[0]);
        // Pick a key that routes to group 0 so the binding matters.
        let key: Vec<u8> = (0..200u32)
            .map(|i| format!("probe-{i}").into_bytes())
            .find(|k| s.cluster(dc).unwrap().key_group(k) == 0)
            .expect("some key maps to group 0");
        let (gen_before, members_before) = view.resolve(&s, dc, &key).unwrap();
        assert!(members_before.contains(&victim.0), "victim starts routed");
        assert!(members_before.contains(&joined.0));
        // Decommission the victim: begin_drain leaves routing (and the
        // cached binding) alone; cutover_drain moves the generation.
        let cluster = s.cluster_mut(dc).unwrap();
        cluster.begin_drain(victim).unwrap();
        assert_eq!(cluster.routing_generation(), gen_before);
        cluster.cutover_drain(victim).unwrap();
        // The very next resolve re-reads: the retired node is gone from
        // the binding before any request can be routed to it.
        let (gen_after, members_after) = view.resolve(&s, dc, &key).unwrap();
        assert!(gen_after > gen_before);
        assert!(
            !members_after.contains(&victim.0),
            "stale binding served a retired node"
        );
        assert_eq!(view.refreshes(), 2, "exactly one rebuild for the cutover");
        // And queries through the engine still succeed end to end.
        let version = s.version();
        let hits = s.search(dc, &[b"the".as_ref()], version, 3);
        assert!(hits.is_ok());
    }

    #[test]
    fn failure_and_recovery_both_move_the_binding() {
        let mut s = system();
        let dc = s.dc_ids()[0];
        let view = RoutingView::new();
        let (g0, _) = view.resolve(&s, dc, b"k").unwrap();
        s.cluster_mut(dc).unwrap().fail_node(NodeId(0)).unwrap();
        let (g1, _) = view.resolve(&s, dc, b"k").unwrap();
        assert_eq!(g1, g0 + 1);
        s.cluster_mut(dc).unwrap().recover_node(NodeId(0)).unwrap();
        let (g2, _) = view.resolve(&s, dc, b"k").unwrap();
        assert_eq!(g2, g0 + 2);
        assert_eq!(view.refreshes(), 3);
    }
}
