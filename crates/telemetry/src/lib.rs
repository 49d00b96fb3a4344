//! Deterministic, virtual-time observability for CrystalNet runs.
//!
//! CrystalNet's value proposition is *visibility*: operators must be able to
//! ask "what did the engine, the shards, and each BGP speaker actually do
//! during this run?" without perturbing the run itself. This crate provides
//! the three pieces the Emulation API builds `pull_report()` on:
//!
//! 1. a [`Recorder`] trait instrumented code emits through — spans and
//!    events stamped with [`SimTime`], plus named counters, gauges, and
//!    histograms. The default [`NoopRecorder`] makes every emission a
//!    no-op behind a single `enabled()` branch, so hot paths pay nothing
//!    when observability is off;
//! 2. an in-memory [`MemRecorder`] that stores everything in `BTreeMap`s
//!    so export order never depends on insertion order;
//! 3. a [`RunReport`] exporter: canonical JSON plus a human-readable table.
//!
//! # Determinism contract
//!
//! The canonical report ([`RunReport::to_json`]) must be **byte-identical**
//! across repetitions and across `workers` values for the same seed. Two
//! rules make that hold:
//!
//! - *canonical* metrics record facts about the emulated world (frames
//!   sent, BGP updates received, faults injected, per-device route churn).
//!   The parallel executor replays the exact serial schedule, so these
//!   merge to identical values whichever shard recorded them. Shard
//!   recorders are created with [`Recorder::fork`] and merged back with
//!   [`Recorder::absorb`]: counters add, gauges max, histograms append and
//!   are sorted before summarizing — all order-independent operations;
//! - *diagnostic* metrics record facts about the execution itself
//!   (events executed per shard, conservative windows, lock-step rounds,
//!   interner hit rate). These legitimately differ run-to-run, so they are
//!   excluded from the canonical export and only appear in
//!   [`RunReport::to_json_full`].
//!
//! Spans and events are only emitted from serial orchestrator code (the
//! mockup/settle/fault paths), never from inside shard workers, so their
//! emission order is deterministic by construction.

use crystalnet_sim::metrics::percentile_f64;
use crystalnet_sim::{EventId, SimDuration, SimTime};
use serde::{Serialize, Value};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

pub mod profile;
pub mod testutil;

pub use profile::{
    BlameBreakdown, BlameKind, CowStats, CriticalLink, DeviceMem, DeviceMemTotals, InternerMem,
    MemorySection, Profile, ProfileEntry, QueueMem, ScalingDiagnosis, ShardLoad,
};
pub use testutil::{assert_same_key_structure, json_deep_structure, json_key_structure};

/// A typed field value attached to an event or report metadata.
///
/// Events carry structured key/value pairs instead of preformatted strings
/// so reports can be diffed, filtered, and asserted on.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (must not be NaN; reports compare bytes).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short text (labels, kinds — not log prose).
    Str(String),
    /// A virtual-time instant; serializes as nanoseconds.
    Time(SimTime),
    /// A virtual-time duration; serializes as nanoseconds.
    Dur(SimDuration),
}

impl Serialize for FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::Uint(*v),
            FieldValue::I64(v) => Value::Int(*v),
            FieldValue::F64(v) => Value::Float(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
            FieldValue::Time(t) => Value::Uint(t.as_nanos()),
            FieldValue::Dur(d) => Value::Uint(d.as_nanos()),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Time(t) => write!(f, "{t}"),
            FieldValue::Dur(d) => write!(f, "{d}"),
        }
    }
}

/// A completed span: a named phase of the run over a virtual-time interval,
/// optionally scoped to one device (`convergence` spans).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`mockup`, `boot`, `settle`, `recovery`, `convergence`).
    pub name: String,
    /// Device scope for per-device spans; `None` for run-wide phases.
    pub device: Option<u32>,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
}

impl SpanRecord {
    /// The span's virtual duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        let mut obj = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if let Some(dev) = self.device {
            obj.push(("device".to_string(), Value::Uint(u64::from(dev))));
        }
        obj.push(("start_ns".to_string(), Value::Uint(self.start.as_nanos())));
        obj.push(("end_ns".to_string(), Value::Uint(self.end.as_nanos())));
        obj.push((
            "duration_ns".to_string(),
            Value::Uint(self.duration().as_nanos()),
        ));
        Value::Object(obj)
    }
}

/// A point event with typed fields, stamped with virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// When the event happened, in virtual time.
    pub at: SimTime,
    /// Event name (e.g. `fault_injected`, `reboot_attempt`).
    pub name: String,
    /// Typed key/value payload, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl EventRecord {
    /// Builds an event from static field names.
    #[must_use]
    pub fn new(at: SimTime, name: &str, fields: Vec<(&str, FieldValue)>) -> Self {
        EventRecord {
            at,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Looks up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl Serialize for EventRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_ns".to_string(), Value::Uint(self.at.as_nanos())),
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "fields".to_string(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Order-independent summary of a histogram's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 99th percentile (linear interpolation).
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarizes `samples`; sorts internally so the result is independent
    /// of recording/merge order. Returns `None` if empty.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram samples must not be NaN"));
        let sum: f64 = sorted.iter().sum();
        Some(HistogramSummary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: sum / sorted.len() as f64,
            p50: percentile_f64(&sorted, 50.0).expect("non-empty"),
            p99: percentile_f64(&sorted, 99.0).expect("non-empty"),
        })
    }
}

impl Serialize for HistogramSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::Uint(self.count as u64)),
            ("min".to_string(), Value::Float(self.min)),
            ("max".to_string(), Value::Float(self.max)),
            ("mean".to_string(), Value::Float(self.mean)),
            ("p50".to_string(), Value::Float(self.p50)),
            ("p99".to_string(), Value::Float(self.p99)),
        ])
    }
}

/// One causal trace record: something the emulated world did, stamped
/// with the stable id of the event that did it and a link to the event
/// that caused that one.
///
/// Records are device-scoped world facts (a frame delivered, a FIB entry
/// installed, a link transition observed by an endpoint), so the sharded
/// executor emits each exactly once — on the shard owning the device —
/// and the merged, sorted stream is byte-identical to a serial run's.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the record.
    pub at: SimTime,
    /// Stable id of the event this record was emitted under.
    pub id: EventId,
    /// Ordinal among records emitted under the same `(event id, device)`
    /// pair. Assigned by the sink at push time (one device's records for
    /// one event are pushed consecutively on the single shard owning that
    /// device, so the numbering is deterministic even when an event —
    /// e.g. a link transition — touches devices on different shards);
    /// used only as a sort tiebreak and never exported.
    pub sub: u32,
    /// Id of the causal parent event, if known.
    pub cause: Option<EventId>,
    /// Record kind (`bgp_rx`, `fib_install`, `link_state`, ...).
    pub name: &'static str,
    /// Device scope, if the record belongs to one device.
    pub device: Option<u32>,
    /// Typed payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceRecord {
    /// Builds a record; `sub` starts at 0 and is reassigned by the sink.
    #[must_use]
    pub fn new(
        at: SimTime,
        id: EventId,
        cause: Option<EventId>,
        name: &'static str,
        device: Option<u32>,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Self {
        TraceRecord {
            at,
            id,
            sub: 0,
            cause,
            name,
            device,
            fields,
        }
    }

    /// The deterministic global sort rank: `(time, event key, device,
    /// ordinal)`. Device-less records sort before device-scoped ones
    /// within the same event.
    #[must_use]
    pub fn rank(&self) -> (u64, u64, u64, u32) {
        (
            self.id.time_ns,
            self.id.key,
            self.device.map_or(0, |d| u64::from(d) + 1),
            self.sub,
        )
    }

    fn jsonl_value(&self) -> Value {
        let mut obj = vec![
            ("at_ns".to_string(), Value::Uint(self.at.as_nanos())),
            ("id".to_string(), event_id_value(self.id)),
            (
                "cause".to_string(),
                match self.cause {
                    Some(c) => event_id_value(c),
                    None => Value::Null,
                },
            ),
            ("name".to_string(), Value::Str(self.name.to_string())),
        ];
        if let Some(dev) = self.device {
            obj.push(("device".to_string(), Value::Uint(u64::from(dev))));
        }
        obj.push((
            "fields".to_string(),
            Value::Object(
                self.fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.to_value()))
                    .collect(),
            ),
        ));
        Value::Object(obj)
    }

    fn chrome_value(&self) -> Value {
        // Chrome trace-event format: an instant event ("ph": "i") with
        // thread scope. `ts` is in microseconds; the exact nanosecond
        // timestamp and the causal ids ride in `args` so nothing is lost
        // to the unit conversion.
        let mut args = vec![
            ("time_ns".to_string(), Value::Uint(self.at.as_nanos())),
            ("id_key".to_string(), Value::Uint(self.id.key)),
        ];
        if let Some(c) = self.cause {
            args.push(("cause_time_ns".to_string(), Value::Uint(c.time_ns)));
            args.push(("cause_key".to_string(), Value::Uint(c.key)));
        }
        for (k, v) in &self.fields {
            args.push(((*k).to_string(), v.to_value()));
        }
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("ph".to_string(), Value::Str("i".to_string())),
            ("s".to_string(), Value::Str("t".to_string())),
            ("pid".to_string(), Value::Uint(1)),
            (
                "tid".to_string(),
                Value::Uint(self.device.map_or(0, u64::from)),
            ),
            ("ts".to_string(), Value::Uint(self.at.as_nanos() / 1_000)),
            ("args".to_string(), Value::Object(args)),
        ])
    }
}

fn event_id_value(id: EventId) -> Value {
    Value::Object(vec![
        ("time_ns".to_string(), Value::Uint(id.time_ns)),
        ("key".to_string(), Value::Uint(id.key)),
    ])
}

/// Renders records as stream-friendly JSONL: one object per line, in
/// rank order if the caller sorted them (the sink does).
#[must_use]
pub fn trace_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(&r.jsonl_value()).expect("trace serialization"));
        out.push('\n');
    }
    out
}

/// Renders records as Chrome trace-event JSON (the `traceEvents` object
/// form), loadable in Perfetto / `chrome://tracing`.
#[must_use]
pub fn trace_chrome_json(records: &[TraceRecord]) -> String {
    let value = Value::Object(vec![
        (
            "traceEvents".to_string(),
            Value::Array(records.iter().map(TraceRecord::chrome_value).collect()),
        ),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    let mut s = serde_json::to_string_pretty(&value).expect("trace serialization");
    s.push('\n');
    s
}

/// Records per [`TraceSink`] chunk. Small enough that the first push
/// after a fork copies little, large enough that a full default-size
/// ring (65,536 records) is a few hundred chunk pointers.
const TRACE_CHUNK: usize = 256;

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// Keeps the **newest** `capacity` records; older records are dropped and
/// counted. Because the global record stream is totally ordered by
/// [`TraceRecord::rank`] and each shard holds a contiguous-by-device
/// subset, "newest `capacity` per shard, then merge-sort and keep the
/// newest `capacity` overall" retains exactly the same set a serial run
/// would — any record in the global newest-`capacity` set is necessarily
/// within its own shard's newest `capacity`. Dropped counts therefore
/// merge deterministically too (`emitted − retained`).
///
/// Records live in fixed-size `Arc`-shared chunks, oldest first, with a
/// head offset into the first chunk. Cloning the sink (an emulation
/// fork) copies chunk pointers; afterwards each side's first push copies
/// at most its tail chunk, and evicting a shared head chunk only moves
/// the offset and finally drops the pointer.
#[derive(Debug, Clone)]
pub struct TraceSink {
    capacity: usize,
    chunks: VecDeque<Arc<Vec<TraceRecord>>>,
    /// Records of `chunks[0]` already evicted.
    head: usize,
    len: usize,
    emitted: u64,
    last_id: EventId,
    last_dev: Option<u32>,
    last_sub: u32,
}

impl TraceSink {
    /// An empty sink bounded to `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceSink {
            capacity,
            chunks: VecDeque::new(),
            head: 0,
            len: 0,
            emitted: 0,
            last_id: EventId::ZERO,
            last_dev: None,
            last_sub: 0,
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total records ever pushed (including dropped ones).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records dropped to stay within the bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.emitted - self.len as u64
    }

    /// Retained records held in chunks some other sink (a fork's parent
    /// or child) also points to.
    #[must_use]
    pub fn shared_len(&self) -> usize {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| Arc::strong_count(c) > 1)
            .map(|(i, c)| if i == 0 { c.len() - self.head } else { c.len() })
            .sum()
    }

    /// Appends a record, assigning its `sub` ordinal and evicting the
    /// oldest record if the sink is full.
    pub fn push(&mut self, mut rec: TraceRecord) {
        if rec.id == self.last_id && rec.device == self.last_dev {
            self.last_sub += 1;
        } else {
            self.last_id = rec.id;
            self.last_dev = rec.device;
            self.last_sub = 0;
        }
        rec.sub = self.last_sub;
        self.emitted += 1;
        if self.capacity == 0 {
            return;
        }
        if self.len == self.capacity {
            self.head += 1;
            self.len -= 1;
            if self.chunks.front().is_some_and(|c| self.head == c.len()) {
                self.chunks.pop_front();
                self.head = 0;
            }
        }
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < TRACE_CHUNK => Arc::make_mut(tail).push(rec),
            _ => {
                let mut chunk = Vec::with_capacity(TRACE_CHUNK);
                chunk.push(rec);
                self.chunks.push_back(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Retained records, oldest first (push order).
    fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.chunks.iter().flat_map(|c| c.iter()).skip(self.head)
    }

    /// Retained records in [`TraceRecord::rank`] order.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self.iter().cloned().collect();
        out.sort_by_key(TraceRecord::rank);
        out
    }

    /// Empties the sink, returning its retained records oldest first;
    /// chunks no other sink shares are moved, not copied.
    fn take_records(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len + self.head);
        for chunk in std::mem::take(&mut self.chunks) {
            out.extend(Arc::try_unwrap(chunk).unwrap_or_else(|c| c.to_vec()));
        }
        out.drain(..std::mem::take(&mut self.head));
        self.len = 0;
        out
    }

    /// Merges a shard sink back: records interleave by rank, the newest
    /// `capacity` survive, and emit counts add.
    pub fn absorb(&mut self, mut child: TraceSink) {
        self.emitted += child.emitted;
        let mut all = self.take_records();
        all.extend(child.take_records());
        all.sort_by_key(TraceRecord::rank);
        all.drain(..all.len().saturating_sub(self.capacity));
        if let Some(last) = all.last() {
            self.last_id = last.id;
            self.last_dev = last.device;
            self.last_sub = last.sub;
        }
        self.len = all.len();
        let mut rest = all.into_iter();
        while rest.len() > 0 {
            let chunk: Vec<TraceRecord> = rest.by_ref().take(TRACE_CHUNK).collect();
            self.chunks.push_back(Arc::new(chunk));
        }
    }

    /// JSONL export of the retained records.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        trace_jsonl(&self.records())
    }

    /// Chrome trace-event JSON export of the retained records.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        trace_chrome_json(&self.records())
    }
}

/// The sink instrumented code emits through.
///
/// Every method has a no-op default body, so [`NoopRecorder`] is an empty
/// impl and hot paths can guard bulk work with a single
/// `if recorder.enabled()` branch. Canonical emissions (`counter_add`,
/// `gauge_max`, the per-device variants, `histogram_record`) must describe
/// the emulated world and merge order-independently; execution-dependent
/// facts go through `diagnostic_add`/`diagnostic_max` and never reach the
/// canonical report.
pub trait Recorder: Send {
    /// Whether emissions are stored. Callers may skip preparing emission
    /// arguments when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `v` to the named canonical counter.
    fn counter_add(&mut self, _name: &'static str, _v: u64) {}

    /// Raises the named canonical gauge to at least `v`.
    fn gauge_max(&mut self, _name: &'static str, _v: u64) {}

    /// Adds `v` to a per-device canonical counter.
    fn device_counter_add(&mut self, _name: &'static str, _device: u32, _v: u64) {}

    /// Raises a per-device canonical gauge to at least `v`.
    fn device_gauge_max(&mut self, _name: &'static str, _device: u32, _v: u64) {}

    /// Records one sample into the named histogram.
    fn histogram_record(&mut self, _name: &'static str, _v: f64) {}

    /// Adds `v` to a diagnostic (execution-dependent) counter.
    fn diagnostic_add(&mut self, _name: String, _v: u64) {}

    /// Raises a diagnostic gauge to at least `v`.
    fn diagnostic_max(&mut self, _name: String, _v: u64) {}

    /// Sets an array-valued diagnostic (e.g. one value per shard). Last
    /// write wins; like scalar diagnostics, arrays never reach the
    /// canonical export.
    fn diagnostic_array(&mut self, _name: String, _values: Vec<u64>) {}

    /// Whether wall-clock profiling is on. Instrumentation sites gate
    /// every `Instant::now()` pair behind this so a profiling-off run
    /// pays nothing but the branch.
    fn profiling_enabled(&self) -> bool {
        false
    }

    /// Adds `wall_ns` of wall-clock time under a [`profile::keys`] key.
    /// Only meaningful when [`Recorder::profiling_enabled`] is true.
    fn profile_add(&mut self, _key: &'static str, _wall_ns: u64) {}

    /// Stores the parallel executor's scaling diagnosis for this run.
    /// Last write wins (each converge replaces the previous diagnosis).
    fn scaling_diagnosis(&mut self, _d: ScalingDiagnosis) {}

    /// Records a completed span. Only call from serial orchestrator code.
    fn span(&mut self, _name: &'static str, _device: Option<u32>, _start: SimTime, _end: SimTime) {}

    /// Records a typed event. Only call from serial orchestrator code.
    fn event(
        &mut self,
        _at: SimTime,
        _name: &'static str,
        _fields: Vec<(&'static str, FieldValue)>,
    ) {
    }

    /// Whether causal trace records are stored. Like [`Recorder::enabled`]
    /// this gates argument preparation: emitting a trace record means
    /// formatting fields, so hot paths must check first.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Appends one causal trace record to the bounded sink.
    fn trace(&mut self, _rec: TraceRecord) {}

    /// Creates an empty recorder of the same kind for a shard worker.
    fn fork(&self) -> Box<dyn Recorder>;

    /// Copies this recorder, history included — the telemetry fork
    /// point of an emulation fork. The trace ring is copied by chunk
    /// pointer, so a snapshot costs O(chunks), not O(records). Unlike [`Recorder::fork`] (which
    /// starts a shard's recorder *empty* so the join can `absorb` it
    /// additively), a snapshot carries everything recorded so far: a
    /// forked emulation's report reads as "baseline plus the fork's own
    /// activity", byte-identical to a run that had performed the fork's
    /// steps directly.
    fn snapshot(&self) -> Box<dyn Recorder>;

    /// Merges a forked recorder back: counters add, gauges max, histograms
    /// append. Shard merge order must not affect the canonical report.
    fn absorb(&mut self, _child: Box<dyn Recorder>) {}

    /// Downcast support for readers ([`MemRecorder::from_recorder`]).
    fn as_any(&self) -> &dyn Any;

    /// Downcast support for [`Recorder::absorb`].
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The zero-cost default: every emission is a no-op and `enabled()` is
/// `false`, so instrumented hot paths skip argument preparation entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn fork(&self) -> Box<dyn Recorder> {
        Box::new(NoopRecorder)
    }

    fn snapshot(&self) -> Box<dyn Recorder> {
        Box::new(NoopRecorder)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// In-memory recorder. All keyed storage is `BTreeMap`-backed so export
/// order is a function of the keys alone, never of insertion order.
#[derive(Debug, Clone, Default)]
pub struct MemRecorder {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    dev_counters: BTreeMap<&'static str, BTreeMap<u32, u64>>,
    dev_gauges: BTreeMap<&'static str, BTreeMap<u32, u64>>,
    histograms: BTreeMap<&'static str, Vec<f64>>,
    diag_counters: BTreeMap<String, u64>,
    diag_gauges: BTreeMap<String, u64>,
    diag_arrays: BTreeMap<String, Vec<u64>>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    trace: Option<TraceSink>,
    profiling: bool,
    profile: BTreeMap<&'static str, (u64, u64)>,
    scaling: Option<ScalingDiagnosis>,
}

impl MemRecorder {
    /// An empty enabled recorder, with causal tracing off.
    #[must_use]
    pub fn new() -> Self {
        MemRecorder::default()
    }

    /// An empty enabled recorder with a bounded causal-trace sink.
    /// `capacity == 0` leaves tracing off.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        MemRecorder {
            trace: (capacity > 0).then(|| TraceSink::new(capacity)),
            ..MemRecorder::default()
        }
    }

    /// Turns wall-clock profiling on (builder-style). Profiled runs emit
    /// a [`Profile`] and [`ScalingDiagnosis`] section in the full export.
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// The causal-trace sink, if tracing is on.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Downcasts a `dyn Recorder` to `MemRecorder` for reading; `None` for
    /// the no-op (or any foreign) recorder.
    #[must_use]
    pub fn from_recorder(r: &dyn Recorder) -> Option<&MemRecorder> {
        r.as_any().downcast_ref::<MemRecorder>()
    }

    /// Current value of a canonical counter (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a canonical gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Per-device values of a canonical counter, keyed by device id.
    #[must_use]
    pub fn device_counter(&self, name: &str) -> Option<&BTreeMap<u32, u64>> {
        self.dev_counters.get(name)
    }

    /// Per-device values of a canonical gauge, keyed by device id.
    #[must_use]
    pub fn device_gauge(&self, name: &str) -> Option<&BTreeMap<u32, u64>> {
        self.dev_gauges.get(name)
    }

    /// All spans in emission order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All events in emission order.
    #[must_use]
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Builds the report skeleton from everything recorded so far. The
    /// caller (the Emulation API) adds metadata and the journal section.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let mut per_device = BTreeMap::new();
        for (name, devs) in &self.dev_counters {
            per_device.insert((*name).to_string(), devs.clone());
        }
        for (name, devs) in &self.dev_gauges {
            per_device.insert((*name).to_string(), devs.clone());
        }
        let mut histograms = BTreeMap::new();
        for (name, samples) in &self.histograms {
            if let Some(summary) = HistogramSummary::from_samples(samples) {
                histograms.insert((*name).to_string(), summary);
            }
        }
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, v) in &self.counters {
            counters.insert((*name).to_string(), *v);
        }
        for (name, v) in &self.gauges {
            counters.insert((*name).to_string(), *v);
        }
        if let Some(sink) = &self.trace {
            // Emit/retain/drop counts are world facts (each record is
            // emitted exactly once whatever the worker count), so they
            // belong in the canonical section.
            counters.insert("telemetry.trace_emitted".to_string(), sink.emitted());
            counters.insert("telemetry.trace_retained".to_string(), sink.len() as u64);
            counters.insert("telemetry.trace_dropped".to_string(), sink.dropped());
        }
        let mut diagnostics = self.diag_counters.clone();
        for (name, v) in &self.diag_gauges {
            diagnostics.insert(name.clone(), *v);
        }
        RunReport {
            enabled: true,
            meta: Vec::new(),
            spans: self.spans.clone(),
            counters,
            per_device,
            histograms,
            events: self.events.clone(),
            journal: Vec::new(),
            diagnostics,
            diagnostic_arrays: self.diag_arrays.clone(),
            profile: self
                .profiling
                .then(|| Profile::from_recorded(&self.profile)),
            scaling: self.profiling.then(|| {
                self.scaling
                    .clone()
                    .unwrap_or_else(ScalingDiagnosis::serial)
            }),
            memory: None,
        }
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    fn gauge_max(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    fn device_counter_add(&mut self, name: &'static str, device: u32, v: u64) {
        *self
            .dev_counters
            .entry(name)
            .or_default()
            .entry(device)
            .or_insert(0) += v;
    }

    fn device_gauge_max(&mut self, name: &'static str, device: u32, v: u64) {
        let g = self
            .dev_gauges
            .entry(name)
            .or_default()
            .entry(device)
            .or_insert(0);
        *g = (*g).max(v);
    }

    fn histogram_record(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().push(v);
    }

    fn diagnostic_add(&mut self, name: String, v: u64) {
        *self.diag_counters.entry(name).or_insert(0) += v;
    }

    fn diagnostic_max(&mut self, name: String, v: u64) {
        let g = self.diag_gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    fn diagnostic_array(&mut self, name: String, values: Vec<u64>) {
        self.diag_arrays.insert(name, values);
    }

    fn profiling_enabled(&self) -> bool {
        self.profiling
    }

    fn profile_add(&mut self, key: &'static str, wall_ns: u64) {
        let e = self.profile.entry(key).or_insert((0, 0));
        e.0 += wall_ns;
        e.1 += 1;
    }

    fn scaling_diagnosis(&mut self, d: ScalingDiagnosis) {
        self.scaling = Some(d);
    }

    fn span(&mut self, name: &'static str, device: Option<u32>, start: SimTime, end: SimTime) {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            device,
            start,
            end,
        });
    }

    fn event(&mut self, at: SimTime, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.events.push(EventRecord::new(at, name, fields));
    }

    fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn trace(&mut self, rec: TraceRecord) {
        if let Some(sink) = &mut self.trace {
            sink.push(rec);
        }
    }

    fn fork(&self) -> Box<dyn Recorder> {
        // Shard sinks share the parent's bound so the post-merge
        // newest-`capacity` set matches a serial run's (see [`TraceSink`]).
        let mut child = match &self.trace {
            Some(sink) => MemRecorder::with_trace_capacity(sink.capacity()),
            None => MemRecorder::new(),
        };
        child.profiling = self.profiling;
        Box::new(child)
    }

    fn snapshot(&self) -> Box<dyn Recorder> {
        Box::new(self.clone())
    }

    fn absorb(&mut self, child: Box<dyn Recorder>) {
        let child = child
            .into_any()
            .downcast::<MemRecorder>()
            .expect("absorb requires a recorder forked from MemRecorder");
        for (name, v) in child.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in child.gauges {
            let g = self.gauges.entry(name).or_insert(0);
            *g = (*g).max(v);
        }
        for (name, devs) in child.dev_counters {
            let mine = self.dev_counters.entry(name).or_default();
            for (dev, v) in devs {
                *mine.entry(dev).or_insert(0) += v;
            }
        }
        for (name, devs) in child.dev_gauges {
            let mine = self.dev_gauges.entry(name).or_default();
            for (dev, v) in devs {
                let g = mine.entry(dev).or_insert(0);
                *g = (*g).max(v);
            }
        }
        for (name, samples) in child.histograms {
            self.histograms.entry(name).or_default().extend(samples);
        }
        for (name, v) in child.diag_counters {
            *self.diag_counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in child.diag_gauges {
            let g = self.diag_gauges.entry(name).or_insert(0);
            *g = (*g).max(v);
        }
        for (name, values) in child.diag_arrays {
            self.diag_arrays.insert(name, values);
        }
        for (key, (wall, count)) in child.profile {
            let e = self.profile.entry(key).or_insert((0, 0));
            e.0 += wall;
            e.1 += count;
        }
        if let Some(scaling) = child.scaling {
            self.scaling = Some(scaling);
        }
        self.spans.extend(child.spans);
        self.events.extend(child.events);
        if let (Some(mine), Some(theirs)) = (self.trace.as_mut(), child.trace) {
            mine.absorb(theirs);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The exportable snapshot of everything observed during a run.
///
/// Returned by the Emulation API's `pull_report()`. The canonical export
/// ([`RunReport::to_json`]) is bit-identical across repetitions and across
/// `workers` values for the same seed; [`RunReport::to_json_full`] appends
/// the execution-dependent `diagnostics` section on top.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Whether telemetry was enabled for this run. Disabled runs export an
    /// empty (but schema-complete) report.
    pub enabled: bool,
    /// Run metadata (seed, device/VM counts, convergence parameters), in
    /// insertion order. Must not contain execution-dependent values such
    /// as worker counts or wall-clock times.
    pub meta: Vec<(String, FieldValue)>,
    /// Completed spans in emission order.
    pub spans: Vec<SpanRecord>,
    /// Canonical counters and gauges, merged and key-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Per-device canonical metrics, keyed by metric name then device id.
    pub per_device: BTreeMap<String, BTreeMap<u32, u64>>,
    /// Histogram summaries, key-sorted.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Typed events in emission order.
    pub events: Vec<EventRecord>,
    /// The recovery journal rendered as typed events, time-sorted.
    pub journal: Vec<EventRecord>,
    /// Execution-dependent metrics — excluded from the canonical export.
    pub diagnostics: BTreeMap<String, u64>,
    /// Array-valued execution-dependent metrics (e.g. one value per
    /// shard), merged into the `diagnostics` object of the full export.
    pub diagnostic_arrays: BTreeMap<String, Vec<u64>>,
    /// Wall-clock profile; `Some` when the run had profiling enabled.
    /// Exported only by [`RunReport::to_json_full`].
    pub profile: Option<Profile>,
    /// Parallel-executor scaling diagnosis; `Some` when profiling was
    /// enabled (a serial run reports [`ScalingDiagnosis::serial`]).
    /// Exported only by [`RunReport::to_json_full`].
    pub scaling: Option<ScalingDiagnosis>,
    /// Memory accounting; `Some` when profiling was enabled. Exported
    /// only by [`RunReport::to_json_full`].
    pub memory: Option<MemorySection>,
}

impl RunReport {
    /// The empty report a telemetry-disabled run returns.
    #[must_use]
    pub fn disabled() -> Self {
        RunReport::default()
    }

    /// Whether anything was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.per_device.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.journal.is_empty()
    }

    /// Appends one metadata entry (builder-style).
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: FieldValue) -> Self {
        self.meta.push((key.to_string(), value));
        self
    }

    fn canonical_value(&self) -> Value {
        Value::Object(vec![
            ("enabled".to_string(), Value::Bool(self.enabled)),
            (
                "meta".to_string(),
                Value::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "spans".to_string(),
                Value::Array(self.spans.iter().map(Serialize::to_value).collect()),
            ),
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Uint(*v)))
                        .collect(),
                ),
            ),
            (
                "per_device".to_string(),
                Value::Object(
                    self.per_device
                        .iter()
                        .map(|(k, devs)| {
                            (
                                k.clone(),
                                Value::Object(
                                    devs.iter()
                                        .map(|(dev, v)| (dev.to_string(), Value::Uint(*v)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "events".to_string(),
                Value::Array(self.events.iter().map(Serialize::to_value).collect()),
            ),
            (
                "journal".to_string(),
                Value::Array(self.journal.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }

    /// Canonical JSON export: bit-identical across reps and worker counts
    /// for the same seed. Ends with a newline (artifact-friendly).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.canonical_value())
            .expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// Full JSON export: the canonical sections plus the
    /// execution-dependent `diagnostics` section (scalar and array-valued
    /// keys interleaved in one sorted object) and — when profiling was on
    /// — the `profile`, `scaling_diagnosis`, and `memory` sections. Not
    /// stable across worker counts — for humans and perf investigations,
    /// never for diffing.
    #[must_use]
    pub fn to_json_full(&self) -> String {
        let Value::Object(mut obj) = self.canonical_value() else {
            unreachable!("canonical report is always an object");
        };
        let mut diag: BTreeMap<String, Value> = self
            .diagnostics
            .iter()
            .map(|(k, v)| (k.clone(), Value::Uint(*v)))
            .collect();
        for (k, values) in &self.diagnostic_arrays {
            diag.insert(
                k.clone(),
                Value::Array(values.iter().map(|&v| Value::Uint(v)).collect()),
            );
        }
        obj.push((
            "diagnostics".to_string(),
            Value::Object(diag.into_iter().collect()),
        ));
        if let Some(profile) = &self.profile {
            obj.push(("profile".to_string(), profile.to_value()));
        }
        if let Some(scaling) = &self.scaling {
            obj.push(("scaling_diagnosis".to_string(), scaling.to_value()));
        }
        if let Some(memory) = &self.memory {
            obj.push(("memory".to_string(), memory.to_value()));
        }
        let mut s = serde_json::to_string_pretty(&Value::Object(obj))
            .expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// Expands array-valued per-shard diagnostics back into the flat
    /// per-shard keys older tooling consumed: an array entry
    /// `sim.parallel.shard.idle_ns = [a, b]` yields
    /// `sim.parallel.shard0.idle_ns = a` and
    /// `sim.parallel.shard1.idle_ns = b`. The data is identical to what
    /// the pre-array reports carried; only the representation moved.
    #[must_use]
    pub fn legacy_shard_diagnostics(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (key, values) in &self.diagnostic_arrays {
            let Some(pos) = key.find(".shard.") else {
                continue;
            };
            let (prefix, field) = (&key[..pos], &key[pos + ".shard.".len()..]);
            for (shard, &v) in values.iter().enumerate() {
                out.insert(format!("{prefix}.shard{shard}.{field}"), v);
            }
        }
        out
    }

    /// Compact JSON of just the canonical counter section — what the
    /// benches splice into their `BENCH_*.json` rows.
    #[must_use]
    pub fn counters_json(&self) -> String {
        serde_json::to_string(&Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Uint(*v)))
                .collect(),
        ))
        .expect("counter serialization is infallible")
    }

    /// Human-readable table summary for terminals.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.enabled {
            out.push_str("run report: telemetry disabled\n");
            return out;
        }
        out.push_str("run report\n");
        if !self.meta.is_empty() {
            let line = self
                .meta
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(out, "  {line}");
        }
        if !self.spans.is_empty() {
            out.push_str("  spans:\n");
            for s in &self.spans {
                let scope = match s.device {
                    Some(dev) => format!("{}[{dev}]", s.name),
                    None => s.name.clone(),
                };
                let _ = writeln!(
                    out,
                    "    {scope:<24} {start} .. {end}  ({dur})",
                    start = s.start,
                    end = s.end,
                    dur = s.duration()
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "    {name:<40} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {name:<40} n={} p50={:.0} p99={:.0} max={:.0}",
                    h.count, h.p50, h.p99, h.max
                );
            }
        }
        let _ = writeln!(out, "  journal: {} event(s)", self.journal.len());
        if !self.diagnostics.is_empty() {
            out.push_str("  diagnostics (execution-dependent, non-canonical):\n");
            for (name, v) in &self.diagnostics {
                let _ = writeln!(out, "    {name:<40} {v}");
            }
            for (name, values) in &self.diagnostic_arrays {
                let _ = writeln!(out, "    {name:<40} {values:?}");
            }
        }
        if let Some(profile) = &self.profile {
            out.push_str("  profile (wall-clock, non-canonical):\n");
            for (name, e) in &profile.entries {
                if e.count > 0 {
                    let _ = writeln!(
                        out,
                        "    {name:<40} {:>10.3}ms self {:>10.3}ms  n={}",
                        e.wall_ns as f64 / 1e6,
                        e.self_ns as f64 / 1e6,
                        e.count
                    );
                }
            }
        }
        if let Some(scaling) = &self.scaling {
            let _ = writeln!(
                out,
                "  scaling: {} shard(s), {} grant(s), blame \
                 lookahead {:.3}ms / work {:.3}ms / merge {:.3}ms",
                scaling.shards,
                scaling.grants,
                scaling.blame.lookahead_starved_ns as f64 / 1e6,
                scaling.blame.work_bound_ns as f64 / 1e6,
                scaling.blame.merge_bound_ns as f64 / 1e6,
            );
        }
        if let Some(memory) = &self.memory {
            let d = &memory.devices;
            let _ = writeln!(
                out,
                "  memory: {} device(s), rib {:.1} KiB ({} entries), \
                 fib {:.1} KiB ({} prefixes), interner {:.1} KiB, \
                 queue residue {:.1} KiB ({} events)",
                d.devices,
                d.rib_bytes as f64 / 1024.0,
                d.rib_entries,
                d.fib_bytes as f64 / 1024.0,
                d.fib_prefixes,
                memory.interner.table_bytes as f64 / 1024.0,
                memory.event_queue.residue_bytes as f64 / 1024.0,
                memory.event_queue.pending_events,
            );
            if let Some(cow) = &memory.fork_cow {
                let _ = writeln!(
                    out,
                    "  fork_cow: shared {:.1} KiB / copied {:.1} KiB \
                     ({:.0}% shared)",
                    cow.shared_bytes as f64 / 1024.0,
                    cow.copied_bytes as f64 / 1024.0,
                    cow.sharing_ratio() * 100.0,
                );
            }
        }
        out
    }
}

impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        self.canonical_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.counter_add("x", 5);
        r.span("mockup", None, SimTime(0), SimTime(10));
        let forked = r.fork();
        assert!(!forked.enabled());
        r.absorb(forked);
        assert!(MemRecorder::from_recorder(&r).is_none());
    }

    #[test]
    fn mem_recorder_accumulates() {
        let mut r = MemRecorder::new();
        assert!(r.enabled());
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.gauge_max("g", 7);
        r.gauge_max("g", 4);
        r.device_counter_add("dc", 1, 10);
        r.device_counter_add("dc", 1, 1);
        r.device_gauge_max("dg", 2, 5);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(7));
        assert_eq!(r.device_counter("dc").unwrap()[&1], 11);
        assert_eq!(r.device_gauge("dg").unwrap()[&2], 5);
    }

    #[test]
    fn absorb_merges_order_independently() {
        // Two shard recorders merged in either order give the same report.
        let build = |order: [usize; 2]| {
            let mut root = MemRecorder::new();
            root.counter_add("frames", 1);
            let mut shards: Vec<MemRecorder> = Vec::new();
            for base in [10u64, 20u64] {
                let mut s = MemRecorder::new();
                s.counter_add("frames", base);
                s.gauge_max("high", base * 2);
                s.device_counter_add("churn", base as u32, base);
                s.histogram_record("lat", base as f64);
                shards.push(s);
            }
            let mut shards: Vec<Option<MemRecorder>> = shards.into_iter().map(Some).collect();
            for i in order {
                root.absorb(Box::new(shards[i].take().unwrap()));
            }
            root.report()
        };
        let a = build([0, 1]);
        let b = build([1, 0]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.counters["frames"], 31);
        assert_eq!(a.counters["high"], 40);
    }

    #[test]
    fn histogram_summary_sorts() {
        let h = HistogramSummary::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.p50, 2.0);
        assert_eq!(h.mean, 2.0);
        assert!(HistogramSummary::from_samples(&[]).is_none());
        let fwd = HistogramSummary::from_samples(&[1.0, 2.0, 9.0]).unwrap();
        let rev = HistogramSummary::from_samples(&[9.0, 2.0, 1.0]).unwrap();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn report_json_has_schema_sections_even_when_empty() {
        let json = RunReport::disabled().to_json();
        for key in ["\"spans\"", "\"counters\"", "\"journal\"", "\"meta\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let parsed = serde_json::from_str(&json).expect("valid JSON");
        let Value::Object(obj) = parsed else {
            panic!("report must be an object")
        };
        assert!(obj.iter().any(|(k, _)| k == "events"));
    }

    #[test]
    fn diagnostics_excluded_from_canonical_json() {
        let mut r = MemRecorder::new();
        r.counter_add("visible", 1);
        r.diagnostic_add("sim.parallel.windows".to_string(), 9);
        let report = r.report();
        assert!(!report.to_json().contains("sim.parallel.windows"));
        assert!(report.to_json_full().contains("sim.parallel.windows"));
        assert!(report.to_json().contains("visible"));
    }

    #[test]
    fn profile_and_scaling_excluded_from_canonical_json() {
        let mut r = MemRecorder::new().with_profiling();
        assert!(r.profiling_enabled());
        r.counter_add("visible", 1);
        r.profile_add(profile::keys::MOCKUP, 1234);
        r.scaling_diagnosis(ScalingDiagnosis {
            shards: 2,
            grants: 5,
            ..ScalingDiagnosis::default()
        });
        let report = r.report();
        let canonical = report.to_json();
        assert!(!canonical.contains("profile"));
        assert!(!canonical.contains("scaling_diagnosis"));
        let full = report.to_json_full();
        assert!(full.contains("\"profile\""));
        assert!(full.contains("\"scaling_diagnosis\""));
        assert!(full.contains(profile::keys::MOCKUP));
        assert_eq!(
            report.profile.as_ref().unwrap().wall_ns("core.mockup"),
            1234
        );
        assert_eq!(report.scaling.as_ref().unwrap().shards, 2);
    }

    #[test]
    fn profiling_off_recorder_reports_no_profile_sections() {
        let mut r = MemRecorder::new();
        assert!(!r.profiling_enabled());
        r.counter_add("visible", 1);
        let report = r.report();
        assert!(report.profile.is_none() && report.scaling.is_none());
        assert!(!report.to_json_full().contains("scaling_diagnosis"));
    }

    #[test]
    fn serial_profiled_report_defaults_to_a_serial_diagnosis() {
        let r = MemRecorder::new().with_profiling();
        let report = r.report();
        let scaling = report.scaling.as_ref().expect("diagnosis present");
        assert_eq!(scaling.shards, 1);
        assert!(scaling.critical_path.is_empty());
        // Every registry key is present even though none was recorded.
        let profile = report.profile.as_ref().expect("profile present");
        assert_eq!(profile.entries.len(), profile::keys::ALL.len());
    }

    #[test]
    fn diagnostic_arrays_export_in_full_json_only() {
        let mut r = MemRecorder::new();
        r.diagnostic_array("sim.parallel.shard.idle_ns".to_string(), vec![5, 9]);
        r.diagnostic_add("sim.parallel.windows".to_string(), 3);
        let report = r.report();
        assert!(!report.to_json().contains("shard.idle_ns"));
        let full = report.to_json_full();
        assert!(full.contains("\"sim.parallel.shard.idle_ns\": [\n"));
        // Arrays and scalars share one sorted diagnostics object.
        let legacy = report.legacy_shard_diagnostics();
        assert_eq!(legacy["sim.parallel.shard0.idle_ns"], 5);
        assert_eq!(legacy["sim.parallel.shard1.idle_ns"], 9);
        assert_eq!(legacy.len(), 2);
    }

    #[test]
    fn shard_fork_inherits_profiling_and_absorb_merges_profile() {
        let mut root = MemRecorder::new().with_profiling();
        let mut shard = root.fork();
        assert!(shard.profiling_enabled());
        shard.profile_add(profile::keys::PARALLEL_COMPUTE, 40);
        root.profile_add(profile::keys::PARALLEL_COMPUTE, 2);
        root.absorb(shard);
        let report = root.report();
        let p = report.profile.as_ref().unwrap();
        assert_eq!(p.entries["sim.parallel.compute"].wall_ns, 42);
        assert_eq!(p.entries["sim.parallel.compute"].count, 2);
    }

    #[test]
    fn events_serialize_typed_fields() {
        let mut r = MemRecorder::new();
        r.event(
            SimTime(5),
            "fault_injected",
            vec![
                ("kind", FieldValue::Str("VmCrash".to_string())),
                ("vm", FieldValue::U64(3)),
                ("latency", FieldValue::Dur(SimDuration::from_secs(2))),
            ],
        );
        let report = r.report();
        assert_eq!(report.events.len(), 1);
        let ev = &report.events[0];
        assert_eq!(ev.field("vm"), Some(&FieldValue::U64(3)));
        let json = report.to_json();
        assert!(json.contains("\"at_ns\": 5"));
        assert!(json.contains("\"latency\": 2000000000"));
    }

    fn rec(t: u64, key: u64, name: &'static str) -> TraceRecord {
        TraceRecord::new(
            SimTime(t),
            EventId { time_ns: t, key },
            None,
            name,
            Some(1),
            vec![("n", FieldValue::U64(key))],
        )
    }

    #[test]
    fn trace_sink_assigns_sub_ordinals_and_bounds_memory() {
        let mut sink = TraceSink::new(3);
        sink.push(rec(10, 1, "a"));
        sink.push(rec(10, 1, "b")); // same event → sub 1
        sink.push(rec(20, 2, "c"));
        sink.push(rec(30, 3, "d")); // evicts the oldest ("a")
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.emitted(), 4);
        assert_eq!(sink.dropped(), 1);
        let records = sink.records();
        assert_eq!(
            records.iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["b", "c", "d"]
        );
        assert_eq!(records[0].sub, 1);
        assert_eq!(records[1].sub, 0);
    }

    #[test]
    fn trace_sink_absorb_matches_serial_retention() {
        // Serial: one sink sees everything in rank order.
        let mut serial = TraceSink::new(4);
        for (t, key) in [(10u64, 1u64), (20, 2), (30, 3), (40, 4), (50, 5), (60, 6)] {
            serial.push(rec(t, key, "x"));
        }
        // Sharded: the same records split across two sinks, merged back.
        let mut a = TraceSink::new(4);
        let mut b = TraceSink::new(4);
        for (t, key) in [(10u64, 1u64), (30, 3), (50, 5)] {
            a.push(rec(t, key, "x"));
        }
        for (t, key) in [(20u64, 2u64), (40, 4), (60, 6)] {
            b.push(rec(t, key, "x"));
        }
        let mut merged = TraceSink::new(4);
        merged.absorb(a);
        merged.absorb(b);
        assert_eq!(merged.to_jsonl(), serial.to_jsonl());
        assert_eq!(merged.dropped(), serial.dropped());
    }

    #[test]
    fn trace_exports_are_valid_json() {
        let mut sink = TraceSink::new(16);
        sink.push(TraceRecord::new(
            SimTime(5),
            EventId { time_ns: 5, key: 9 },
            Some(EventId { time_ns: 1, key: 3 }),
            "fib_install",
            Some(7),
            vec![("prefix", FieldValue::Str("10.0.0.0/24".to_string()))],
        ));
        let jsonl = sink.to_jsonl();
        for line in jsonl.lines() {
            let _: Value = serde_json::from_str(line).expect("each JSONL line parses");
        }
        assert!(jsonl.contains("\"cause\""));
        assert!(!jsonl.contains("\"sub\""), "sub ordinal must not export");
        let chrome = sink.to_chrome_json();
        let parsed = serde_json::from_str(&chrome).expect("chrome trace parses");
        let Value::Object(obj) = parsed else {
            panic!("chrome trace must be an object")
        };
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
    }

    /// The ring before chunking: one `VecDeque`, evicting at the front.
    /// The reference [`TraceSink`] must export identically to.
    #[derive(Clone)]
    struct RefSink {
        capacity: usize,
        records: VecDeque<TraceRecord>,
        emitted: u64,
        last: (EventId, Option<u32>, u32),
    }

    impl RefSink {
        fn new(capacity: usize) -> Self {
            RefSink {
                capacity,
                records: VecDeque::new(),
                emitted: 0,
                last: (EventId::ZERO, None, 0),
            }
        }

        fn push(&mut self, mut rec: TraceRecord) {
            self.last = if (rec.id, rec.device) == (self.last.0, self.last.1) {
                (rec.id, rec.device, self.last.2 + 1)
            } else {
                (rec.id, rec.device, 0)
            };
            rec.sub = self.last.2;
            self.emitted += 1;
            if self.capacity == 0 {
                return;
            }
            if self.records.len() == self.capacity {
                self.records.pop_front();
            }
            self.records.push_back(rec);
        }

        fn absorb(&mut self, child: RefSink) {
            self.emitted += child.emitted;
            let mut all: Vec<TraceRecord> = self.records.drain(..).chain(child.records).collect();
            all.sort_by_key(TraceRecord::rank);
            let drop = all.len().saturating_sub(self.capacity);
            self.records = all.into_iter().skip(drop).collect();
            if let Some(r) = self.records.back() {
                self.last = (r.id, r.device, r.sub);
            }
        }

        fn records(&self) -> Vec<TraceRecord> {
            let mut out: Vec<TraceRecord> = self.records.iter().cloned().collect();
            out.sort_by_key(TraceRecord::rank);
            out
        }
    }

    /// Record `n` of a stream: pairs of consecutive records share an
    /// `(event, device)`, so sub ordinals run past 0.
    fn stream_rec(n: u64) -> TraceRecord {
        let ev = n / 4;
        TraceRecord::new(
            SimTime(ev),
            EventId {
                time_ns: ev,
                key: ev % 7,
            },
            None,
            "r",
            Some((n / 2 % 2) as u32),
            vec![("n", FieldValue::U64(n))],
        )
    }

    /// Pushes `count` stream records, starting at `*next`, into both.
    fn push_both(sink: &mut TraceSink, reference: &mut RefSink, next: &mut u64, count: usize) {
        for _ in 0..count {
            sink.push(stream_rec(*next));
            reference.push(stream_rec(*next));
            *next += 1;
        }
    }

    fn same_export(sink: &TraceSink, reference: &RefSink) -> Result<(), String> {
        let (got, want) = (sink.records(), reference.records());
        if got != want {
            return Err(format!(
                "{} records vs {} in the reference",
                got.len(),
                want.len()
            ));
        }
        if (sink.len(), sink.emitted(), sink.dropped())
            != (
                want.len(),
                reference.emitted,
                reference.emitted - want.len() as u64,
            )
        {
            return Err("len/emitted/dropped diverged".to_string());
        }
        if sink.to_jsonl() != trace_jsonl(&want) {
            return Err("JSONL export diverged".to_string());
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn chunked_ring_exports_like_a_vecdeque(
            cap_kind in 0u8..4,
            jitter in 1usize..TRACE_CHUNK,
            before_fork in 0usize..3 * TRACE_CHUNK,
            on_parent in 0usize..2 * TRACE_CHUNK,
            on_child in 0usize..2 * TRACE_CHUNK,
            on_grandchild in 0usize..2 * TRACE_CHUNK,
            child_again in 0usize..TRACE_CHUNK,
        ) {
            let capacity = match cap_kind {
                0 => jitter,
                1 => TRACE_CHUNK,
                2 => 2 * TRACE_CHUNK + jitter,
                _ => 0,
            };
            let (mut parent, mut ref_parent) = (TraceSink::new(capacity), RefSink::new(capacity));
            let mut next = 0;
            push_both(&mut parent, &mut ref_parent, &mut next, before_fork);

            let (mut child, mut ref_child) = (parent.clone(), ref_parent.clone());
            push_both(&mut parent, &mut ref_parent, &mut next, on_parent);
            push_both(&mut child, &mut ref_child, &mut next, on_child);

            let (mut grandchild, mut ref_grandchild) = (child.clone(), ref_child.clone());
            push_both(&mut grandchild, &mut ref_grandchild, &mut next, on_grandchild);
            push_both(&mut child, &mut ref_child, &mut next, child_again);

            for (sink, reference) in [
                (&parent, &ref_parent),
                (&child, &ref_child),
                (&grandchild, &ref_grandchild),
            ] {
                proptest::prop_assert!(same_export(sink, reference).is_ok(), "{:?}", same_export(sink, reference));
            }

            // A shard merge keeps matching too, shared chunks included.
            parent.absorb(grandchild);
            ref_parent.absorb(ref_grandchild);
            proptest::prop_assert!(same_export(&parent, &ref_parent).is_ok(), "{:?}", same_export(&parent, &ref_parent));
            push_both(&mut parent, &mut ref_parent, &mut next, jitter);
            proptest::prop_assert!(same_export(&parent, &ref_parent).is_ok(), "{:?}", same_export(&parent, &ref_parent));
        }
    }

    #[test]
    fn forked_ring_shares_chunks_until_written() {
        let mut parent = TraceSink::new(4 * TRACE_CHUNK);
        let mut next = 0;
        let mut reference = RefSink::new(4 * TRACE_CHUNK);
        push_both(&mut parent, &mut reference, &mut next, 6 * TRACE_CHUNK + 3);
        assert_eq!(parent.shared_len(), 0, "nothing shared before a fork");
        let mut child = parent.clone();
        assert_eq!(
            child.shared_len(),
            child.len(),
            "a fresh fork shares every record"
        );
        // The first push copies only the partial tail chunk.
        child.push(stream_rec(next));
        assert_eq!(child.shared_len(), child.len() - 4);
        assert_eq!(parent.shared_len(), parent.len() - 3);
    }

    #[test]
    fn mem_recorder_trace_plumbs_through_fork_and_absorb() {
        let mut root = MemRecorder::with_trace_capacity(8);
        assert!(root.trace_enabled());
        assert!(!MemRecorder::new().trace_enabled());
        let mut shard = root.fork();
        assert!(shard.trace_enabled());
        shard.trace(rec(10, 1, "shard"));
        root.trace(rec(20, 2, "root"));
        root.absorb(shard);
        let sink = root.trace_sink().expect("sink present");
        assert_eq!(sink.len(), 2);
        assert_eq!(
            sink.records().iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["shard", "root"]
        );
        let report = root.report();
        assert_eq!(report.counters["telemetry.trace_emitted"], 2);
        assert_eq!(report.counters["telemetry.trace_dropped"], 0);
    }

    #[test]
    fn summary_mentions_core_sections() {
        let mut r = MemRecorder::new();
        r.counter_add("routing.bgp_updates_sent", 12);
        r.span("mockup", None, SimTime(0), SimTime(1_000_000_000));
        let report = r.report().with_meta("seed", FieldValue::U64(42));
        let s = report.summary();
        assert!(s.contains("seed=42"));
        assert!(s.contains("routing.bgp_updates_sent"));
        assert!(s.contains("mockup"));
        assert!(RunReport::disabled().summary().contains("disabled"));
    }

    #[test]
    fn summary_surfaces_memory_and_fork_cow() {
        let mut r = MemRecorder::new();
        r.counter_add("routing.bgp_updates_sent", 12);
        let mut report = r.report();
        report.memory = Some(MemorySection {
            devices: DeviceMemTotals {
                devices: 3,
                rib_entries: 20,
                rib_bytes: 2048,
                fib_prefixes: 10,
                fib_route_entries: 12,
                fib_bytes: 1024,
            },
            top_devices: Vec::new(),
            interner: InternerMem {
                entries: 4,
                table_bytes: 512,
                hits: 9,
                hit_bytes_saved: 99,
            },
            event_queue: QueueMem {
                pending_events: 7,
                residue_bytes: 3584,
            },
            fork_cow: Some(CowStats {
                shared_bytes: 3072,
                copied_bytes: 1024,
            }),
        });
        // Snapshot of the two lines the memory section renders to: the
        // format is part of the operator-facing contract.
        let s = report.summary();
        assert!(
            s.contains(
                "  memory: 3 device(s), rib 2.0 KiB (20 entries), \
                 fib 1.0 KiB (10 prefixes), interner 0.5 KiB, \
                 queue residue 3.5 KiB (7 events)"
            ),
            "memory line changed:\n{s}"
        );
        assert!(
            s.contains("  fork_cow: shared 3.0 KiB / copied 1.0 KiB (75% shared)"),
            "fork_cow line changed:\n{s}"
        );
        // A root emulation (no fork) omits only the fork_cow line.
        report.memory.as_mut().unwrap().fork_cow = None;
        let s = report.summary();
        assert!(s.contains("  memory: 3 device(s)"));
        assert!(!s.contains("fork_cow"));
    }
}
