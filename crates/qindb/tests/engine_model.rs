//! Model-based property test: QinDB must agree with a trivial in-memory
//! model of the paper's mutated-operation semantics, across arbitrary
//! interleavings of PUT (full and deduplicated), DEL, GET, forced GC, and
//! crash+recovery. Every read goes through both `get` and `status`.

use proptest::prelude::*;
use qindb::{KeyStatus, QinDb, QinDbConfig};
use simclock::SimClock;
use ssdsim::{Device, DeviceConfig, Geometry, LatencyModel};
use std::collections::BTreeMap;

fn engine() -> QinDb {
    let dev = Device::new(
        DeviceConfig {
            geometry: Geometry {
                page_size: 64,
                pages_per_block: 8,
                blocks: 512,
            },
            ftl_overprovision: 0.1,
            gc_low_watermark_blocks: 2,
            latency: LatencyModel::default(),
            retain_data: true,
            erase_endurance: 0,
        },
        SimClock::new(),
    );
    QinDb::new(dev, QinDbConfig::small_files(2 * 7 * 64))
}

/// A model entry: the stored value (None = deduplicated) and the d flag.
type ModelEntry = (Option<Vec<u8>>, bool);

/// The reference model: (key, version) → entry.
#[derive(Default)]
struct Model {
    entries: BTreeMap<(u8, u8), ModelEntry>,
}

impl Model {
    fn put(&mut self, k: u8, t: u8, v: Option<Vec<u8>>) {
        self.entries.insert((k, t), (v, false));
    }

    fn del(&mut self, k: u8, t: u8) {
        if let Some(e) = self.entries.get_mut(&(k, t)) {
            e.1 = true;
        }
    }

    fn get(&self, k: u8, t: u8) -> Option<Vec<u8>> {
        let (_, deleted) = self.entries.get(&(k, t))?;
        if *deleted {
            return None;
        }
        // Trace back: newest version ≤ t that carries a value, ignoring
        // the d flag of ancestors (GC preserves referenced records).
        self.entries
            .range((k, 0)..=(k, t))
            .rev()
            .find_map(|(_, (v, _))| v.clone())
    }

    /// Whether a deduplicated put of `(k, t)` is realistic: Bifrost only
    /// strips a value after comparing it with the *live previous version*
    /// of the key, so the newest existing version must be below `t`,
    /// undeleted, and value-resolvable. (An arbitrary dedup referencing a
    /// deleted, already-reclaimed version cannot occur in the system and
    /// has no recoverable value by construction.)
    fn can_dedup(&self, k: u8, t: u8) -> bool {
        let Some((&(_, vmax), (_, deleted))) =
            self.entries.range((k, 0)..=(k, u8::MAX)).next_back()
        else {
            return false;
        };
        vmax < t && !deleted && self.get(k, vmax).is_some()
    }
}

/// Reads `k/t` through both `get` and `status` and checks them against
/// each other and the model: `Live` exactly when `get` finds a value
/// (the same bytes the model resolves), `Deleted` only for a pair the
/// model deleted, and one storage read per lookup.
fn check_read(db: &QinDb, model: &Model, k: u8, t: u8) -> Result<(), TestCaseError> {
    let got = db.get(&[k], t as u64).unwrap().map(|b| b.to_vec());
    let (status, cost) = db.status(&[k], t as u64, 0);
    prop_assert_eq!(cost.storage_reads, 1);
    match status.unwrap() {
        KeyStatus::Live { value, .. } => {
            prop_assert_eq!(Some(value.to_vec()), got.clone(), "status({}/{})", k, t)
        }
        KeyStatus::Deleted => prop_assert!(
            got.is_none() && model.entries.get(&(k, t)).is_some_and(|e| e.1),
            "Deleted for {}/{}, which the model did not delete",
            k,
            t
        ),
        KeyStatus::Missing => prop_assert!(got.is_none(), "Missing for {}/{}", k, t),
    }
    prop_assert_eq!(got, model.get(k, t), "GET({}/{})", k, t);
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    PutFull(u8, u8, Vec<u8>),
    PutDedup(u8, u8),
    Del(u8, u8),
    Get(u8, u8),
    ForceGc,
    Checkpoint,
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u8..12;
    let ver = 1u8..8;
    prop_oneof![
        4 => (key.clone(), ver.clone(), proptest::collection::vec(any::<u8>(), 1..80))
            .prop_map(|(k, t, v)| Op::PutFull(k, t, v)),
        3 => (key.clone(), ver.clone()).prop_map(|(k, t)| Op::PutDedup(k, t)),
        2 => (key.clone(), ver.clone()).prop_map(|(k, t)| Op::Del(k, t)),
        4 => (key, ver).prop_map(|(k, t)| Op::Get(k, t)),
        1 => Just(Op::ForceGc),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::CrashRecover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn qindb_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut db = engine();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::PutFull(k, t, v) => {
                    db.put(&[k], t as u64, Some(&v)).unwrap();
                    model.put(k, t, Some(v));
                }
                Op::PutDedup(k, t) => {
                    if !model.can_dedup(k, t) {
                        continue;
                    }
                    db.put(&[k], t as u64, None).unwrap();
                    model.put(k, t, None);
                }
                Op::Del(k, t) => {
                    db.del(&[k], t as u64).unwrap();
                    model.del(k, t);
                }
                Op::Get(k, t) => check_read(&db, &model, k, t)?,
                Op::ForceGc => {
                    db.force_gc().unwrap();
                }
                Op::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Op::CrashRecover => {
                    db.flush().unwrap();
                    let dev = db.device().clone();
                    drop(db);
                    db = QinDb::recover(dev, QinDbConfig::small_files(2 * 7 * 64)).unwrap();
                    // Deep integrity check: every item must resolve to a
                    // matching record and the GC accounting must cover it.
                    let problems = db.verify().unwrap();
                    prop_assert!(problems.is_empty(), "verify failed: {problems:?}");
                }
            }
        }
        // Final sweep: every (key, version) the model knows must agree.
        for &(k, t) in model.entries.keys() {
            check_read(&db, &model, k, t)?;
        }
    }
}
