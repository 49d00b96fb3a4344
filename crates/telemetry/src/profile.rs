//! Wall-clock profiling: hierarchical self/child span accounting, the
//! parallel executor's scaling diagnosis, and memory accounting.
//!
//! Everything in this module describes the **execution**, not the emulated
//! world: wall-clock nanoseconds vary run to run, grant timelines depend on
//! OS scheduling, byte estimates depend on the platform. None of it may
//! reach the canonical report ([`crate::RunReport::to_json`]); it is
//! exported only by [`crate::RunReport::to_json_full`].
//!
//! What *is* guaranteed deterministic is the **shape**: the profile key set
//! is the fixed [`keys::ALL`] registry (every key present every run, zero
//! when unused) and [`ScalingDiagnosis`] serializes the same object keys
//! whether the run was serial or sharded. That makes "did the structure
//! change?" a byte-comparison even though the values never are.

use crate::Serialize;
use serde::Value;
use std::collections::BTreeMap;

/// The fixed registry of wall-clock profile keys.
///
/// Keys form a hierarchy by dot-prefix: `core.mockup.converge` is a child
/// of `core.mockup`, and a parent's *self* time is its wall minus the sum
/// of its children's walls. The registry is closed on purpose: a
/// conditional key (emitted on some worker counts but not others) would
/// break the profile's structural determinism, so instrumentation sites
/// must use these constants and the report always emits all of them.
pub mod keys {
    /// Whole `mockup()` call: prepare sandboxes, boot, converge.
    pub const MOCKUP: &str = "core.mockup";
    /// Convergence inside `mockup()` (serial engine or parallel executor).
    pub const MOCKUP_CONVERGE: &str = "core.mockup.converge";
    /// `settle()` re-convergence calls.
    pub const SETTLE: &str = "core.settle";
    /// `fork()` / `fork_emulation()` copy-on-write fork cost.
    pub const FORK: &str = "core.fork";
    /// Warm `EmulationFork::apply` (validate, inject, re-converge, diff).
    pub const APPLY: &str = "core.apply";
    /// Serial engine event loop (`run_until_quiet` on one shard).
    pub const ENGINE_RUN: &str = "sim.engine.run";
    /// Whole parallel executor call, fork to join.
    pub const PARALLEL: &str = "routing.parallel";
    /// Splitting the world into per-shard worlds.
    pub const PARALLEL_FORK: &str = "routing.parallel.fork_worlds";
    /// The coordinator grant loop (between fork and join).
    pub const PARALLEL_RUN: &str = "routing.parallel.run";
    /// Merging shard worlds, envelopes, and recorders back.
    pub const PARALLEL_JOIN: &str = "routing.parallel.join";
    /// Worker compute time, summed across shards (overlaps wall time, so
    /// this legitimately exceeds `routing.parallel.run` on real cores).
    pub const PARALLEL_COMPUTE: &str = "sim.parallel.compute";
    /// Coordinator time merging shard outboxes into inboxes.
    pub const PARALLEL_MERGE: &str = "sim.parallel.merge";
    /// Worker idle time blocked on the grant channel, summed across shards.
    pub const PARALLEL_IDLE: &str = "sim.parallel.idle";

    /// Every profile key, in report order. The profile section always
    /// contains exactly these keys.
    pub const ALL: &[&str] = &[
        MOCKUP,
        MOCKUP_CONVERGE,
        SETTLE,
        FORK,
        APPLY,
        ENGINE_RUN,
        PARALLEL,
        PARALLEL_FORK,
        PARALLEL_RUN,
        PARALLEL_JOIN,
        PARALLEL_COMPUTE,
        PARALLEL_MERGE,
        PARALLEL_IDLE,
    ];
}

/// Aggregated wall-clock time under one profile key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Total wall nanoseconds recorded under this key.
    pub wall_ns: u64,
    /// Wall nanoseconds not covered by child keys (saturating; summed
    /// concurrent children can exceed a parent's wall).
    pub self_ns: u64,
    /// Number of times the key was recorded.
    pub count: u64,
}

/// The wall-clock profile section: every [`keys::ALL`] key with its total
/// wall time, self time (wall minus children), and record count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Entries keyed by profile key, in [`keys::ALL`] order when exported.
    pub entries: BTreeMap<String, ProfileEntry>,
}

impl Profile {
    /// Builds the profile from raw `(wall_ns, count)` aggregates. Keys not
    /// in the registry are kept (sorted) but discouraged: conditional
    /// extra keys break cross-run structural comparisons.
    #[must_use]
    pub fn from_recorded(recorded: &BTreeMap<&'static str, (u64, u64)>) -> Self {
        let mut entries: BTreeMap<String, ProfileEntry> = BTreeMap::new();
        for &key in keys::ALL {
            let (wall_ns, count) = recorded.get(key).copied().unwrap_or((0, 0));
            entries.insert(
                key.to_string(),
                ProfileEntry {
                    wall_ns,
                    self_ns: wall_ns,
                    count,
                },
            );
        }
        for (key, &(wall_ns, count)) in recorded {
            entries.entry((*key).to_string()).or_insert(ProfileEntry {
                wall_ns,
                self_ns: wall_ns,
                count,
            });
        }
        // Self time: subtract each key's wall from its nearest ancestor
        // (the longest strict dot-prefix that is also a key).
        let names: Vec<String> = entries.keys().cloned().collect();
        for name in &names {
            let Some(parent) = nearest_ancestor(name, &names) else {
                continue;
            };
            let child_wall = entries[name.as_str()].wall_ns;
            let p = entries.get_mut(&parent).expect("ancestor exists");
            p.self_ns = p.self_ns.saturating_sub(child_wall);
        }
        Profile { entries }
    }

    /// Total wall nanoseconds under one key (0 if absent).
    #[must_use]
    pub fn wall_ns(&self, key: &str) -> u64 {
        self.entries.get(key).map_or(0, |e| e.wall_ns)
    }
}

/// The longest strict dot-prefix of `name` that appears in `names`.
fn nearest_ancestor(name: &str, names: &[String]) -> Option<String> {
    let mut best: Option<&str> = None;
    for cand in names {
        if cand.len() < name.len()
            && name.starts_with(cand.as_str())
            && name.as_bytes()[cand.len()] == b'.'
            && best.is_none_or(|b| cand.len() > b.len())
        {
            best = Some(cand);
        }
    }
    best.map(str::to_string)
}

impl Serialize for Profile {
    fn to_value(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(k, e)| {
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("wall_ns".to_string(), Value::Uint(e.wall_ns)),
                            ("self_ns".to_string(), Value::Uint(e.self_ns)),
                            ("count".to_string(), Value::Uint(e.count)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Why one straggler interval on the critical path was slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameKind {
    /// The shard's grant window was clipped by a peer's lower bound: the
    /// lookahead matrix would not let it run further ahead.
    LookaheadStarved,
    /// The shard had all the window it could use and spent the interval
    /// computing (or the run was in lock-step / delivery mode).
    WorkBound,
    /// The interval was coordinator-side envelope merging.
    MergeBound,
}

impl BlameKind {
    /// Stable lowercase label used in exports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BlameKind::LookaheadStarved => "lookahead-starved",
            BlameKind::WorkBound => "work-bound",
            BlameKind::MergeBound => "merge-bound",
        }
    }
}

/// Wall time attributed to each blame class across the critical path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlameBreakdown {
    /// Intervals where cross-shard lookahead bounded progress.
    pub lookahead_starved_ns: u64,
    /// Intervals where shard compute bounded progress.
    pub work_bound_ns: u64,
    /// Intervals where coordinator-side merging bounded progress.
    pub merge_bound_ns: u64,
}

impl Serialize for BlameBreakdown {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "lookahead_starved_ns".to_string(),
                Value::Uint(self.lookahead_starved_ns),
            ),
            ("work_bound_ns".to_string(), Value::Uint(self.work_bound_ns)),
            (
                "merge_bound_ns".to_string(),
                Value::Uint(self.merge_bound_ns),
            ),
        ])
    }
}

/// One link in the chain of grants that bounded run completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalLink {
    /// Shard the grant ran on.
    pub shard: u32,
    /// Grant kind label (`window`, `deliver`, `step`).
    pub kind: String,
    /// What bounded the grant's horizon (`echo`, `peer:<j>`, `quiet-clip`,
    /// `deadline-clip`, `lockstep`, `deliver`).
    pub limiter: String,
    /// Wall nanoseconds from run start when the grant was issued.
    pub start_ns: u64,
    /// Wall nanoseconds from run start when the status came back.
    pub end_ns: u64,
    /// Events the grant executed.
    pub executed: u64,
    /// Blame classification label for this interval.
    pub blame: String,
}

impl Serialize for CriticalLink {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shard".to_string(), Value::Uint(u64::from(self.shard))),
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("limiter".to_string(), Value::Str(self.limiter.clone())),
            ("start_ns".to_string(), Value::Uint(self.start_ns)),
            ("end_ns".to_string(), Value::Uint(self.end_ns)),
            ("executed".to_string(), Value::Uint(self.executed)),
            ("blame".to_string(), Value::Str(self.blame.clone())),
        ])
    }
}

/// Per-shard load summary over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: u32,
    /// Grants issued to this shard.
    pub grants: u64,
    /// Events the shard executed.
    pub executed: u64,
    /// Wall nanoseconds the shard's worker spent computing.
    pub busy_ns: u64,
    /// Wall nanoseconds the shard's worker spent blocked on the grant
    /// channel.
    pub idle_ns: u64,
}

impl Serialize for ShardLoad {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shard".to_string(), Value::Uint(u64::from(self.shard))),
            ("grants".to_string(), Value::Uint(self.grants)),
            ("executed".to_string(), Value::Uint(self.executed)),
            ("busy_ns".to_string(), Value::Uint(self.busy_ns)),
            ("idle_ns".to_string(), Value::Uint(self.idle_ns)),
        ])
    }
}

/// Critical-path and blame attribution for one parallel (or serial) run.
///
/// Reconstructed from the coordinator's grant timeline: the chain of
/// grants that bounded completion, each interval classified as
/// lookahead-starved / work-bound / merge-bound. A serial run reports the
/// same object shape with `shards == 1` and empty arrays, so the key
/// structure of the export never depends on the worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScalingDiagnosis {
    /// Number of shards (1 for a serial run).
    pub shards: u32,
    /// Wall nanoseconds of the whole executor run.
    pub run_wall_ns: u64,
    /// Worker compute nanoseconds summed across shards.
    pub compute_ns: u64,
    /// Coordinator merge nanoseconds.
    pub merge_ns: u64,
    /// Worker idle nanoseconds summed across shards.
    pub idle_ns: u64,
    /// Total grants issued.
    pub grants: u64,
    /// Blame totals along the critical path.
    pub blame: BlameBreakdown,
    /// The chain of grants that bounded completion, newest last. Bounded
    /// to the last [`ScalingDiagnosis::CRITICAL_PATH_CAP`] links.
    pub critical_path: Vec<CriticalLink>,
    /// Per-shard load summary.
    pub per_shard: Vec<ShardLoad>,
}

impl ScalingDiagnosis {
    /// Maximum critical-path links kept in the export.
    pub const CRITICAL_PATH_CAP: usize = 64;

    /// The trivial diagnosis a serial (one-shard) run reports: same key
    /// structure, no grant timeline.
    #[must_use]
    pub fn serial() -> Self {
        ScalingDiagnosis {
            shards: 1,
            ..ScalingDiagnosis::default()
        }
    }

    /// Renders the critical path as Chrome trace-event JSON (complete
    /// `"ph": "X"` events, one per link, `tid` = shard), loadable in
    /// Perfetto / `chrome://tracing` next to the causal trace export.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<Value> = self
            .critical_path
            .iter()
            .map(|l| {
                Value::Object(vec![
                    (
                        "name".to_string(),
                        Value::Str(format!("{} ({})", l.kind, l.blame)),
                    ),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("pid".to_string(), Value::Uint(0)),
                    ("tid".to_string(), Value::Uint(u64::from(l.shard))),
                    ("ts".to_string(), Value::Uint(l.start_ns / 1_000)),
                    (
                        "dur".to_string(),
                        Value::Uint(l.end_ns.saturating_sub(l.start_ns).max(1) / 1_000),
                    ),
                    (
                        "args".to_string(),
                        Value::Object(vec![
                            ("limiter".to_string(), Value::Str(l.limiter.clone())),
                            ("executed".to_string(), Value::Uint(l.executed)),
                            ("start_ns".to_string(), Value::Uint(l.start_ns)),
                            ("end_ns".to_string(), Value::Uint(l.end_ns)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        let mut s = serde_json::to_string_pretty(&doc).expect("trace serialization");
        s.push('\n');
        s
    }
}

impl Serialize for ScalingDiagnosis {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shards".to_string(), Value::Uint(u64::from(self.shards))),
            ("run_wall_ns".to_string(), Value::Uint(self.run_wall_ns)),
            ("compute_ns".to_string(), Value::Uint(self.compute_ns)),
            ("merge_ns".to_string(), Value::Uint(self.merge_ns)),
            ("idle_ns".to_string(), Value::Uint(self.idle_ns)),
            ("grants".to_string(), Value::Uint(self.grants)),
            ("blame".to_string(), self.blame.to_value()),
            (
                "critical_path".to_string(),
                Value::Array(self.critical_path.iter().map(Serialize::to_value).collect()),
            ),
            (
                "per_shard".to_string(),
                Value::Array(self.per_shard.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

/// Byte totals across every emulated device's routing tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceMemTotals {
    /// Devices accounted.
    pub devices: u64,
    /// Total RIB entries across devices.
    pub rib_entries: u64,
    /// Estimated RIB bytes across devices.
    pub rib_bytes: u64,
    /// Total FIB prefixes across devices.
    pub fib_prefixes: u64,
    /// Total FIB route entries (prefixes × ECMP fanout) across devices.
    pub fib_route_entries: u64,
    /// Estimated FIB bytes across devices.
    pub fib_bytes: u64,
}

impl Serialize for DeviceMemTotals {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("devices".to_string(), Value::Uint(self.devices)),
            ("rib_entries".to_string(), Value::Uint(self.rib_entries)),
            ("rib_bytes".to_string(), Value::Uint(self.rib_bytes)),
            ("fib_prefixes".to_string(), Value::Uint(self.fib_prefixes)),
            (
                "fib_route_entries".to_string(),
                Value::Uint(self.fib_route_entries),
            ),
            ("fib_bytes".to_string(), Value::Uint(self.fib_bytes)),
        ])
    }
}

/// One device's memory estimate (only the heaviest devices are exported).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceMem {
    /// Device id.
    pub device: u32,
    /// Estimated RIB bytes.
    pub rib_bytes: u64,
    /// Estimated FIB bytes.
    pub fib_bytes: u64,
}

impl Serialize for DeviceMem {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("device".to_string(), Value::Uint(u64::from(self.device))),
            ("rib_bytes".to_string(), Value::Uint(self.rib_bytes)),
            ("fib_bytes".to_string(), Value::Uint(self.fib_bytes)),
        ])
    }
}

/// The process-wide `PathAttrs` interner's footprint and payoff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerMem {
    /// Live interned entries.
    pub entries: u64,
    /// Estimated bytes held by the intern table.
    pub table_bytes: u64,
    /// Intern hits so far (process-wide).
    pub hits: u64,
    /// Estimated bytes the hits avoided allocating.
    pub hit_bytes_saved: u64,
}

impl Serialize for InternerMem {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("entries".to_string(), Value::Uint(self.entries)),
            ("table_bytes".to_string(), Value::Uint(self.table_bytes)),
            ("hits".to_string(), Value::Uint(self.hits)),
            (
                "hit_bytes_saved".to_string(),
                Value::Uint(self.hit_bytes_saved),
            ),
        ])
    }
}

/// Residual engine event-queue footprint at report time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMem {
    /// Events still pending in the queue.
    pub pending_events: u64,
    /// Estimated bytes those pending events hold.
    pub residue_bytes: u64,
}

impl Serialize for QueueMem {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "pending_events".to_string(),
                Value::Uint(self.pending_events),
            ),
            ("residue_bytes".to_string(), Value::Uint(self.residue_bytes)),
        ])
    }
}

/// Copy-on-write sharing breakdown for one emulation fork: what the child
/// still shares with its parent versus what it owns alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Estimated bytes shared with the parent (prepare output, interned
    /// path attributes, route tables and trace-ring chunks neither side
    /// has written since the fork).
    pub shared_bytes: u64,
    /// Estimated bytes the child owns alone (route tables it has written,
    /// its own trace-ring chunks, queued events).
    pub copied_bytes: u64,
}

impl CowStats {
    /// Fraction of the fork's reachable bytes that are shared, in
    /// [0, 1]. Returns 0 when nothing is accounted.
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.shared_bytes + self.copied_bytes;
        if total == 0 {
            0.0
        } else {
            self.shared_bytes as f64 / total as f64
        }
    }
}

impl Serialize for CowStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shared_bytes".to_string(), Value::Uint(self.shared_bytes)),
            ("copied_bytes".to_string(), Value::Uint(self.copied_bytes)),
            (
                "sharing_ratio".to_string(),
                Value::Float(self.sharing_ratio()),
            ),
        ])
    }
}

/// The memory-accounting section: per-device table bytes, interner
/// footprint, event-queue residue, and (for forks) COW sharing.
///
/// All byte figures are *estimates* — entry counts multiplied by struct
/// sizes — not allocator measurements: they are deterministic for a seed
/// on a given platform, which is what a regression baseline needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySection {
    /// Totals across devices.
    pub devices: DeviceMemTotals,
    /// The heaviest devices by combined RIB+FIB bytes, largest first.
    pub top_devices: Vec<DeviceMem>,
    /// Interner footprint.
    pub interner: InternerMem,
    /// Event-queue residue.
    pub event_queue: QueueMem,
    /// COW sharing for forked emulations; `None` on a root emulation.
    pub fork_cow: Option<CowStats>,
}

impl Serialize for MemorySection {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("devices".to_string(), self.devices.to_value()),
            (
                "top_devices".to_string(),
                Value::Array(self.top_devices.iter().map(Serialize::to_value).collect()),
            ),
            ("interner".to_string(), self.interner.to_value()),
            ("event_queue".to_string(), self.event_queue.to_value()),
            (
                "fork_cow".to_string(),
                match &self.fork_cow {
                    Some(c) => c.to_value(),
                    None => Value::Null,
                },
            ),
        ])
    }
}

pub use crate::testutil::json_key_structure;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_always_contains_the_full_registry() {
        let p = Profile::from_recorded(&BTreeMap::new());
        for &key in keys::ALL {
            assert!(p.entries.contains_key(key), "missing {key}");
            assert_eq!(p.entries[key], ProfileEntry::default());
        }
    }

    #[test]
    fn profile_self_time_subtracts_children() {
        let mut rec = BTreeMap::new();
        rec.insert(keys::MOCKUP, (100, 1));
        rec.insert(keys::MOCKUP_CONVERGE, (70, 1));
        let p = Profile::from_recorded(&rec);
        assert_eq!(p.entries[keys::MOCKUP].wall_ns, 100);
        assert_eq!(p.entries[keys::MOCKUP].self_ns, 30);
        assert_eq!(p.entries[keys::MOCKUP_CONVERGE].self_ns, 70);
        // Overlapping concurrent children saturate instead of underflowing.
        let mut rec = BTreeMap::new();
        rec.insert(keys::PARALLEL, (10, 1));
        rec.insert(keys::PARALLEL_RUN, (8, 1));
        rec.insert(keys::PARALLEL_JOIN, (5, 1));
        let p = Profile::from_recorded(&rec);
        assert_eq!(p.entries[keys::PARALLEL].self_ns, 0);
    }

    #[test]
    fn nearest_ancestor_prefers_longest_prefix() {
        let names = vec![
            "routing.parallel".to_string(),
            "routing.parallel.run".to_string(),
            "routing.parallel.run.inner".to_string(),
        ];
        assert_eq!(
            nearest_ancestor("routing.parallel.run.inner", &names),
            Some("routing.parallel.run".to_string())
        );
        assert_eq!(nearest_ancestor("routing.parallel", &names), None);
        // "routing.parallelx" must not match "routing.parallel".
        assert_eq!(nearest_ancestor("routing.parallelx", &names), None);
    }

    #[test]
    fn serial_diagnosis_has_same_structure_as_sharded() {
        let serial = ScalingDiagnosis::serial();
        let sharded = ScalingDiagnosis {
            shards: 4,
            run_wall_ns: 1000,
            grants: 12,
            critical_path: vec![CriticalLink {
                shard: 2,
                kind: "window".to_string(),
                limiter: "peer:0".to_string(),
                start_ns: 10,
                end_ns: 40,
                executed: 3,
                blame: "lookahead-starved".to_string(),
            }],
            per_shard: vec![ShardLoad::default(); 4],
            ..ScalingDiagnosis::default()
        };
        assert_eq!(
            json_key_structure(&serial.to_value()),
            json_key_structure(&sharded.to_value())
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let d = ScalingDiagnosis {
            shards: 2,
            critical_path: vec![CriticalLink {
                shard: 1,
                kind: "window".to_string(),
                limiter: "echo".to_string(),
                start_ns: 5_000,
                end_ns: 9_000,
                executed: 7,
                blame: "work-bound".to_string(),
            }],
            ..ScalingDiagnosis::default()
        };
        let json = d.chrome_trace_json();
        let parsed = serde_json::from_str(&json).expect("valid JSON");
        let Value::Object(obj) = parsed else {
            panic!("chrome trace must be an object")
        };
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("ph").and_then(Value::as_str),
            Some("X"),
            "critical-path links are complete events"
        );
    }

    #[test]
    fn cow_ratio_is_bounded() {
        assert_eq!(CowStats::default().sharing_ratio(), 0.0);
        let c = CowStats {
            shared_bytes: 75,
            copied_bytes: 25,
        };
        assert!((c.sharing_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn key_structure_collapses_arrays_and_scalars() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Uint(1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Uint(1), Value::Uint(2)]),
            ),
        ]);
        let w = Value::Object(vec![
            ("a".to_string(), Value::Str("different".to_string())),
            ("b".to_string(), Value::Array(vec![])),
        ]);
        assert_eq!(json_key_structure(&v), json_key_structure(&w));
        let x = Value::Object(vec![("a".to_string(), Value::Uint(1))]);
        assert_ne!(json_key_structure(&v), json_key_structure(&x));
    }
}
