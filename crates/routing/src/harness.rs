//! The control-plane simulation harness: wires device OSes together over a
//! topology and runs them to convergence in virtual time.
//!
//! This is the engine room shared by the boundary differential validator
//! and the orchestrator: device firmwares ([`DeviceOs`]) exchange frames
//! over the topology's links, processing costs and link latencies are
//! provided by a pluggable [`WorkModel`] (the orchestrator plugs in one
//! backed by per-VM CPU servers, which is where Figure 9's curves come
//! from), and convergence is detected by route-activity quiescence —
//! matching the paper's route-ready definition, "the moment when all
//! routes are installed and stabilized in all switches" (§8.1).

use crate::health::{
    GrayFailureWitness, HealthState, Incident, IncidentKind, ProbeConfig, ProbeOutcome,
};
use crate::msg::{BgpMsg, Frame};
use crate::os::{DeviceOs, MgmtCommand, MgmtResponse, OsActions, OsEvent, TimerKind};
use crate::traffic::{entry_sig, TrafficConfig, TrafficState};
use crystalnet_dataplane::{decide, Fib, ForwardDecision, Ipv4Packet};
use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix, LinkId, Partition, Topology};
use crystalnet_sim::parallel::{
    run_shards_until_quiet_matrix_profiled, GrantRecord, Limiter, LookaheadMatrix, ParallelProfile,
    ParallelWorld,
};
use crystalnet_sim::{Engine, EventFire, EventId, SimDuration, SimTime};
use crystalnet_telemetry::profile::keys;
use crystalnet_telemetry::{
    BlameBreakdown, CriticalLink, FieldValue, NoopRecorder, Recorder, ScalingDiagnosis, ShardLoad,
    TraceRecord,
};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Work classes a device performs (costed by the [`WorkModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Firmware boot.
    Boot,
    /// Handling an event that touched `n` routes.
    RouteOps(usize),
}

/// Provides processing-completion times and link latencies.
///
/// The plain harness uses [`UniformWorkModel`]; the orchestrator
/// substitutes a model that queues work on the hosting VM's CPU cores,
/// coupling convergence time to VM packing density.
pub trait WorkModel: Send {
    /// When work of `kind` submitted by `dev` at `now` completes.
    fn completion(&mut self, dev: DeviceId, kind: WorkKind, now: SimTime) -> SimTime;
    /// One-way delay of a frame sent on `link` at `now`. Implementations
    /// may charge encap/decap CPU to the hosting VMs here.
    fn link_delay(&mut self, link: LinkId, now: SimTime) -> SimDuration;
    /// Downcasting hook so orchestration layers can reach their concrete
    /// model (e.g. to install per-device cost tables after construction).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Shared-reference downcasting hook; lets a fork read the live
    /// model (to deep-copy it) without exclusive access to the world.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Fixed-cost work model for protocol-level tests.
#[derive(Debug, Clone)]
pub struct UniformWorkModel {
    /// CPU time per route operation.
    pub per_route_op: SimDuration,
    /// Boot duration.
    pub boot: SimDuration,
    /// One-way link latency.
    pub latency: SimDuration,
}

impl Default for UniformWorkModel {
    fn default() -> Self {
        UniformWorkModel {
            per_route_op: SimDuration::from_micros(2),
            boot: SimDuration::from_secs(30),
            latency: SimDuration::from_micros(50),
        }
    }
}

impl WorkModel for UniformWorkModel {
    fn completion(&mut self, _dev: DeviceId, kind: WorkKind, now: SimTime) -> SimTime {
        match kind {
            WorkKind::Boot => now + self.boot,
            WorkKind::RouteOps(n) => now + self.per_route_op * (n as u64),
        }
    }

    fn link_delay(&mut self, _link: LinkId, _now: SimTime) -> SimDuration {
        self.latency
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[derive(Clone, Copy)]
struct Adjacency {
    remote_dev: DeviceId,
    remote_iface: u32,
    link: LinkId,
}

/// Parallel-mode wiring: which shard owns each device, which shard this
/// world is, and the outbox of cross-shard events (drained at window
/// barriers). `None` in serial mode.
struct ShardRoute {
    self_shard: usize,
    shard_of: Vec<usize>,
    outbox: Vec<(usize, SimTime, HarnessEvent)>,
}

/// A typed harness event: no per-event heap allocation or dynamic
/// dispatch, and a content-derived tie-break key.
///
/// Keys are `(source + 1) << 32 | per-source counter` for device-sourced
/// events (frame deliveries, timers, boot completions — keyed by the
/// *emitting* device) and a plain counter for control-plane-script events
/// (boots, link flaps, management injections). Every key is globally
/// unique, so `(time, key)` totally orders harness events regardless of
/// the order they were pushed into any queue — the property the parallel
/// executor's cross-shard merge relies on for bit-identical replay.
///
/// The causal parent travels *inside* the event (not in engine
/// bookkeeping): the parallel executor drains, ships, and re-schedules
/// events across shard queues, and the cause link must survive that trip.
#[derive(Debug, Clone)]
pub struct HarnessEvent {
    key: u64,
    /// Stable id of the event whose firing scheduled this one; `None` for
    /// script-scheduled events (boots, link flaps, management injections).
    cause: Option<EventId>,
    kind: HarnessEventKind,
}

#[derive(Debug, Clone)]
enum HarnessEventKind {
    /// Boot requested: ask the work model for the boot completion time.
    BootStart(DeviceId),
    /// Boot work finished: the OS comes up.
    BootDone(DeviceId),
    /// A link changes state; both endpoint OSes are notified.
    LinkState {
        lid: LinkId,
        up: bool,
        a: DeviceId,
        ia: u32,
        b: DeviceId,
        ib: u32,
    },
    /// A management command arrives over the jumpbox.
    Mgmt(DeviceId, MgmtCommand),
    /// An armed OS timer fires.
    Timer(DeviceId, TimerKind),
    /// A frame arrives at `dev` on `iface` (link state re-checked on
    /// delivery).
    Deliver {
        dev: DeviceId,
        iface: u32,
        frame: Frame,
        link: LinkId,
    },
    /// A probe-mesh round begins (broadcast: every shard replays the
    /// identical tick and launches probes for the sources it owns).
    ProbeTick { round: u64 },
    /// A probe packet arrives at `dev` for a forwarding decision.
    ProbeHop {
        src: DeviceId,
        src_addr: Ipv4Addr,
        dst: DeviceId,
        dst_addr: Ipv4Addr,
        dev: DeviceId,
        ingress: Option<u32>,
        ttl: u8,
        probe_seq: u64,
        /// Accumulated forward-path latency (ns) — also the conservative
        /// return-trip bound the report is scheduled under.
        path_ns: u64,
    },
    /// A probe's fate travels back to its source's gauges.
    ProbeReport {
        src: DeviceId,
        dst: DeviceId,
        probe_seq: u64,
        outcome: ProbeOutcome,
        path_ns: u64,
    },
    /// A traffic round begins (broadcast: every shard replays the
    /// identical tick, runs the congestion watchdogs over its owned
    /// residue, and launches flows for the sources it owns).
    TrafficTick { round: u64 },
    /// A flow's leading packet arrives at `dev` for a forwarding
    /// decision (the flow-level abstraction: one walk stands in for the
    /// whole flow, `bytes` is charged per traversed link).
    FlowHop {
        src: DeviceId,
        src_addr: Ipv4Addr,
        dst: DeviceId,
        dst_addr: Ipv4Addr,
        dev: DeviceId,
        ingress: Option<u32>,
        ttl: u8,
        flow_seq: u64,
        bytes: u64,
        /// Whether any device on the path so far had *changed* its
        /// route for the destination since last observed.
        rerouted: bool,
        /// Accumulated forward-path latency (ns) — also the
        /// conservative return bound the report is scheduled under.
        path_ns: u64,
    },
    /// A flow's fate travels back to its source's gauges.
    FlowReport {
        src: DeviceId,
        dst: DeviceId,
        flow_seq: u64,
        outcome: ProbeOutcome,
        bytes: u64,
        rerouted: bool,
        path_ns: u64,
    },
}

/// Probe and traffic event keys live in ranges no other event can
/// reach: device keys are `(dev + 1) << 32 | seq` (far below `2^61` at
/// any real device count), control keys are a small counter, and the
/// synthetic packet-hop ids of `pull_trace` set bit 63. Probe ticks
/// take `[3 << 61, 4 << 61)`, probe hop/report flows
/// `[1 << 62, 3 << 61)`, traffic ticks `[1 << 61, 3 << 60)`, and flow
/// hops/reports `[3 << 60, 1 << 62)` — all content-derived, so
/// `(time, key)` stays a total order with no coordination between
/// shards. (At one instant the order is therefore: traffic tick, flow
/// hops/reports, probe hops/reports, probe tick.)
const PROBE_TICK_KEY: u64 = 0b11 << 61;
const PROBE_FLOW_KEY: u64 = 1 << 62;
const TRAFFIC_TICK_KEY: u64 = 1 << 61;
const TRAFFIC_FLOW_KEY: u64 = 0b11 << 60;

/// Key of hop `hop` of probe `probe_seq` (9 bits of hop per probe: TTLs
/// are 8-bit, plus one slot for the report).
fn probe_hop_key(probe_seq: u64, hop: u32) -> u64 {
    PROBE_FLOW_KEY | (probe_seq << 9) | u64::from(hop & 0xff)
}

/// Key of probe `probe_seq`'s report (the 257th slot of its flow range).
fn probe_report_key(probe_seq: u64) -> u64 {
    PROBE_FLOW_KEY | (probe_seq << 9) | 256
}

/// Key of hop `hop` of flow `flow_seq` (same 9-bit hop discipline as
/// probes).
fn flow_hop_key(flow_seq: u64, hop: u32) -> u64 {
    TRAFFIC_FLOW_KEY | (flow_seq << 9) | u64::from(hop & 0xff)
}

/// Key of flow `flow_seq`'s report (the 257th slot of its range).
fn flow_report_key(flow_seq: u64) -> u64 {
    TRAFFIC_FLOW_KEY | (flow_seq << 9) | 256
}

impl HarnessEvent {
    /// The device whose shard must process this event; `None` for global
    /// wiring events (link state), which every shard replays.
    fn target_device(&self) -> Option<DeviceId> {
        match &self.kind {
            HarnessEventKind::BootStart(d)
            | HarnessEventKind::BootDone(d)
            | HarnessEventKind::Mgmt(d, _)
            | HarnessEventKind::Timer(d, _) => Some(*d),
            HarnessEventKind::Deliver { dev, .. } => Some(*dev),
            HarnessEventKind::ProbeHop { dev, .. } => Some(*dev),
            HarnessEventKind::ProbeReport { src, .. } => Some(*src),
            HarnessEventKind::FlowHop { dev, .. } => Some(*dev),
            HarnessEventKind::FlowReport { src, .. } => Some(*src),
            HarnessEventKind::LinkState { .. }
            | HarnessEventKind::ProbeTick { .. }
            | HarnessEventKind::TrafficTick { .. } => None,
        }
    }

    /// Copies a broadcast (link-state / probe-tick / traffic-tick)
    /// event for another shard's queue.
    fn replicate(&self) -> Option<HarnessEvent> {
        match self.kind {
            HarnessEventKind::LinkState {
                lid,
                up,
                a,
                ia,
                b,
                ib,
            } => Some(HarnessEvent {
                key: self.key,
                cause: self.cause,
                kind: HarnessEventKind::LinkState {
                    lid,
                    up,
                    a,
                    ia,
                    b,
                    ib,
                },
            }),
            HarnessEventKind::ProbeTick { round } => Some(HarnessEvent {
                key: self.key,
                cause: self.cause,
                kind: HarnessEventKind::ProbeTick { round },
            }),
            HarnessEventKind::TrafficTick { round } => Some(HarnessEvent {
                key: self.key,
                cause: self.cause,
                kind: HarnessEventKind::TrafficTick { round },
            }),
            _ => None,
        }
    }

    /// Whether this event counts against `causal_pending` while queued.
    /// Everything but pure timers, the health plane, and the traffic
    /// plane does: boots, link changes, management injections, and
    /// frame deliveries can all trigger route activity. Probe and flow
    /// events are observers by construction — keeping them non-causal
    /// is what makes probing (or loading) a network not change when it
    /// is declared converged.
    fn is_causal(&self) -> bool {
        !matches!(
            self.kind,
            HarnessEventKind::Timer(..)
                | HarnessEventKind::ProbeTick { .. }
                | HarnessEventKind::ProbeHop { .. }
                | HarnessEventKind::ProbeReport { .. }
                | HarnessEventKind::TrafficTick { .. }
                | HarnessEventKind::FlowHop { .. }
                | HarnessEventKind::FlowReport { .. }
        )
    }
}

impl EventFire<ControlPlaneWorld> for HarnessEvent {
    fn key(&self) -> u64 {
        self.key
    }

    fn cause(&self) -> Option<EventId> {
        self.cause
    }

    fn fire(self, e: &mut ControlPlaneEngine) {
        match self.kind {
            HarnessEventKind::BootStart(dev) => {
                let ready = e.world.work.completion(dev, WorkKind::Boot, e.now());
                let key = e.world.device_key(dev);
                let cause = e.current_event();
                e.schedule_event_at(
                    ready,
                    HarnessEvent {
                        key,
                        cause,
                        kind: HarnessEventKind::BootDone(dev),
                    },
                );
            }
            HarnessEventKind::BootDone(dev) => {
                e.world.causal_pending -= 1;
                e.world.booted[dev.index()] = true;
                if e.world.recorder.enabled() {
                    let now = e.now().as_nanos();
                    e.world.recorder.counter_add("routing.devices_booted", 1);
                    e.world.recorder.gauge_max("routing.last_boot_done_ns", now);
                }
                if e.world.recorder.trace_enabled() {
                    trace_here(e, "boot_done", Some(dev), vec![]);
                }
                dispatch(e, dev, OsEvent::Boot);
            }
            HarnessEventKind::LinkState {
                lid,
                up,
                a,
                ia,
                b,
                ib,
            } => {
                e.world.causal_pending -= 1;
                e.world.link_up.insert(lid, up);
                let (ev_a, ev_b) = if up {
                    (OsEvent::LinkUp(ia), OsEvent::LinkUp(ib))
                } else {
                    (OsEvent::LinkDown(ia), OsEvent::LinkDown(ib))
                };
                // The transition is recorded per *endpoint* (guarded by OS
                // presence) so each record is emitted exactly once — on the
                // shard owning that endpoint — even though every shard
                // replays the wiring change itself.
                for (dev, _iface) in [(a, ia), (b, ib)] {
                    if e.world.recorder.trace_enabled() && e.world.oses[dev.index()].is_some() {
                        trace_here(
                            e,
                            "link_state",
                            Some(dev),
                            vec![
                                ("link", FieldValue::U64(u64::from(lid.0))),
                                ("up", FieldValue::Bool(up)),
                            ],
                        );
                    }
                }
                dispatch(e, a, ev_a);
                dispatch(e, b, ev_b);
            }
            HarnessEventKind::Mgmt(dev, cmd) => {
                e.world.causal_pending -= 1;
                if e.world.recorder.trace_enabled() {
                    trace_here(e, "mgmt", Some(dev), vec![]);
                }
                dispatch(e, dev, OsEvent::Mgmt(cmd));
            }
            HarnessEventKind::Timer(dev, kind) => {
                dispatch(e, dev, OsEvent::Timer(kind));
            }
            HarnessEventKind::Deliver {
                dev,
                iface,
                frame,
                link,
            } => {
                e.world.causal_pending -= 1;
                // Re-check link state at delivery time.
                if e.world.link_up.get(&link).copied().unwrap_or(false) {
                    if e.world.recorder.enabled() {
                        record_frame(&mut *e.world.recorder, &frame, false);
                    }
                    if e.world.recorder.trace_enabled() {
                        trace_here(
                            e,
                            "frame_rx",
                            Some(dev),
                            vec![
                                ("kind", FieldValue::Str(frame.kind().to_string())),
                                ("iface", FieldValue::U64(u64::from(iface))),
                            ],
                        );
                    }
                    dispatch(e, dev, OsEvent::Frame { iface, frame });
                }
            }
            HarnessEventKind::ProbeTick { round } => probe_tick(e, round),
            HarnessEventKind::ProbeHop {
                src,
                src_addr,
                dst,
                dst_addr,
                dev,
                ingress,
                ttl,
                probe_seq,
                path_ns,
            } => probe_hop(
                e, src, src_addr, dst, dst_addr, dev, ingress, ttl, probe_seq, path_ns,
            ),
            HarnessEventKind::ProbeReport {
                src,
                dst,
                probe_seq,
                outcome,
                path_ns,
            } => probe_report(e, src, dst, probe_seq, outcome, path_ns),
            HarnessEventKind::TrafficTick { round } => traffic_tick(e, round),
            HarnessEventKind::FlowHop {
                src,
                src_addr,
                dst,
                dst_addr,
                dev,
                ingress,
                ttl,
                flow_seq,
                bytes,
                rerouted,
                path_ns,
            } => flow_hop(
                e, src, src_addr, dst, dst_addr, dev, ingress, ttl, flow_seq, bytes, rerouted,
                path_ns,
            ),
            HarnessEventKind::FlowReport {
                src,
                dst,
                flow_seq,
                outcome,
                bytes,
                rerouted,
                path_ns,
            } => flow_report(e, src, dst, flow_seq, outcome, bytes, rerouted, path_ns),
        }
    }
}

/// Emits one trace record under the currently firing event. The id falls
/// back to [`EventId::ZERO`] for synchronous out-of-event calls
/// (`mgmt_sync`), which by construction happen before or after the run.
fn trace_here(
    e: &mut ControlPlaneEngine,
    name: &'static str,
    dev: Option<DeviceId>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let id = e.current_event().unwrap_or(EventId::ZERO);
    let cause = e.current_cause();
    let rec = TraceRecord::new(e.now(), id, cause, name, dev.map(|d| d.0), fields);
    e.world.recorder.trace(rec);
}

/// The simulated world: OS instances plus wiring.
pub struct ControlPlaneWorld {
    oses: Vec<Option<Box<dyn DeviceOs>>>,
    booted: Vec<bool>,
    /// adjacency[device][iface] (None when unwired).
    adjacency: Vec<Vec<Option<Adjacency>>>,
    link_up: HashMap<LinkId, bool>,
    work: Box<dyn WorkModel>,
    /// Completion time of the last event that changed routes.
    pub last_route_activity: SimTime,
    /// Total route operations performed across all devices.
    pub route_ops_total: u64,
    /// Per-device route-operation counters (diagnostics).
    pub route_ops_by_dev: HashMap<DeviceId, u64>,
    /// Devices that crashed while handling events (health-monitor feed).
    pub crashes: Vec<(SimTime, DeviceId)>,
    /// Responses to asynchronously delivered management commands.
    pub mgmt_responses: Vec<(DeviceId, MgmtResponse)>,
    /// Scheduled events that can still cause route activity (frames in
    /// flight, pending boots, link changes). Pure timers are excluded.
    /// `run_until_quiet` only declares convergence when this hits zero.
    causal_pending: u64,
    /// Per-device key counters (see [`HarnessEvent`]).
    dev_key_seq: Vec<u32>,
    /// Key counter for control-plane-script events.
    control_key_seq: u32,
    /// Set while this world is a shard of a parallel run.
    shard_route: Option<ShardRoute>,
    /// Health plane (probe mesh + watchdogs); `None` keeps every probe
    /// code path dormant at zero cost.
    health: Option<HealthState>,
    /// Traffic plane (flow generation + utilisation gauges + congestion
    /// watchdogs); `None` keeps every flow code path dormant at zero
    /// cost.
    traffic: Option<TrafficState>,
    /// Devices whose *dataplane* forwarding is silently dead while their
    /// control plane keeps running (gray-failure injection). Only probe
    /// forwarding consults this — sessions stay up, FIBs stay "correct".
    fwd_disabled: BTreeSet<DeviceId>,
    /// Observability sink. Defaults to the zero-cost [`NoopRecorder`];
    /// orchestration layers install a `MemRecorder` to collect a run
    /// report. Shards fork it and the join merges them back, so canonical
    /// counters are identical whichever shard recorded them.
    pub recorder: Box<dyn Recorder>,
}

impl ControlPlaneWorld {
    /// Mutable access to the work model (orchestrator hook).
    pub fn work_mut(&mut self) -> &mut dyn WorkModel {
        &mut *self.work
    }

    /// Shared access to the work model (fork hook).
    pub fn work_ref(&self) -> &dyn WorkModel {
        &*self.work
    }

    /// The next tie-break key for an event emitted by `dev`.
    fn device_key(&mut self, dev: DeviceId) -> u64 {
        let seq = &mut self.dev_key_seq[dev.index()];
        *seq += 1;
        ((u64::from(dev.0) + 1) << 32) | u64::from(*seq)
    }

    /// The next tie-break key for a control-plane-script event.
    fn control_key(&mut self) -> u64 {
        self.control_key_seq += 1;
        u64::from(self.control_key_seq)
    }
}

impl ParallelWorld for ControlPlaneWorld {
    type Ev = HarnessEvent;

    fn take_outbox(&mut self) -> Vec<(usize, SimTime, HarnessEvent)> {
        self.shard_route
            .as_mut()
            .map(|r| std::mem::take(&mut r.outbox))
            .unwrap_or_default()
    }

    fn accept_remote(&mut self, ev: &HarnessEvent) {
        self.causal_pending += u64::from(ev.is_causal());
    }

    fn is_causal(ev: &HarnessEvent) -> bool {
        ev.is_causal()
    }

    fn causal_pending(&self) -> u64 {
        self.causal_pending
    }

    fn last_activity(&self) -> SimTime {
        self.last_route_activity
    }
}

/// The engine type the harness runs on: typed events over the world.
pub type ControlPlaneEngine = Engine<ControlPlaneWorld, HarnessEvent>;

/// The control-plane simulation: an [`Engine`] over [`ControlPlaneWorld`].
pub struct ControlPlaneSim {
    /// The event engine (exposed for orchestration layers).
    pub engine: ControlPlaneEngine,
}

impl ControlPlaneSim {
    /// An empty harness wired to `topo`'s links.
    #[must_use]
    pub fn new(topo: &Topology, work: Box<dyn WorkModel>) -> Self {
        let n = topo.device_count();
        let mut adjacency: Vec<Vec<Option<Adjacency>>> = (0..n)
            .map(|i| {
                let dev = topo.device(DeviceId(i as u32));
                (0..dev.ifaces.len()).map(|_| None).collect()
            })
            .collect();
        let mut link_up = HashMap::new();
        for (lid, link) in topo.links() {
            link_up.insert(lid, true);
            adjacency[link.a.device.index()][link.a.iface as usize] = Some(Adjacency {
                remote_dev: link.b.device,
                remote_iface: link.b.iface,
                link: lid,
            });
            adjacency[link.b.device.index()][link.b.iface as usize] = Some(Adjacency {
                remote_dev: link.a.device,
                remote_iface: link.a.iface,
                link: lid,
            });
        }
        ControlPlaneSim {
            engine: Engine::new(ControlPlaneWorld {
                oses: (0..n).map(|_| None).collect(),
                booted: vec![false; n],
                adjacency,
                link_up,
                work,
                last_route_activity: SimTime::ZERO,
                route_ops_total: 0,
                route_ops_by_dev: HashMap::new(),
                crashes: Vec::new(),
                mgmt_responses: Vec::new(),
                causal_pending: 0,
                dev_key_seq: vec![0; n],
                control_key_seq: 0,
                shard_route: None,
                health: None,
                traffic: None,
                fwd_disabled: BTreeSet::new(),
                recorder: Box::new(NoopRecorder),
            }),
        }
    }

    /// Deep-copies the whole simulation — every OS (via
    /// [`DeviceOs::clone_boxed`]), the wiring, the key counters, and the
    /// engine's clock/queue/sequence position — over a caller-supplied
    /// work model and recorder.
    ///
    /// This is the control-plane half of an emulation fork. The copy is
    /// *positionally exact*: queued events keep their `(time, key, seq)`
    /// ranks and per-device key counters resume where the parent's
    /// stand, so identical inputs produce bit-identical behavior on
    /// parent and child. Interned route state (`Arc<PathAttrs>`,
    /// `Arc<Provenance>`) is shared structurally rather than duplicated.
    ///
    /// The caller supplies `work` and `recorder` because both typically
    /// need their own treatment on fork: the work model must stop
    /// sharing mutable CPU accounting with the parent, and the recorder
    /// is copied via [`Recorder::snapshot`]. Parallel-shard wiring
    /// (`shard_route`) is never inherited — a fork starts in serial
    /// mode, mid-parallel-run forks are not supported.
    #[must_use]
    pub fn fork_with(&self, work: Box<dyn WorkModel>, recorder: Box<dyn Recorder>) -> Self {
        let w = &self.engine.world;
        debug_assert!(
            w.shard_route.is_none(),
            "fork_with on a shard of a parallel run"
        );
        let world = ControlPlaneWorld {
            oses: w
                .oses
                .iter()
                .map(|slot| slot.as_ref().map(|os| os.clone_boxed()))
                .collect(),
            booted: w.booted.clone(),
            adjacency: w.adjacency.clone(),
            link_up: w.link_up.clone(),
            work,
            last_route_activity: w.last_route_activity,
            route_ops_total: w.route_ops_total,
            route_ops_by_dev: w.route_ops_by_dev.clone(),
            crashes: w.crashes.clone(),
            mgmt_responses: w.mgmt_responses.clone(),
            causal_pending: w.causal_pending,
            dev_key_seq: w.dev_key_seq.clone(),
            control_key_seq: w.control_key_seq,
            shard_route: None,
            health: w.health.clone(),
            traffic: w.traffic.clone(),
            fwd_disabled: w.fwd_disabled.clone(),
            recorder,
        };
        ControlPlaneSim {
            engine: self.engine.replicate_with(world),
        }
    }

    /// Installs a firmware instance on `dev` (not yet booted).
    pub fn add_os(&mut self, dev: DeviceId, mut os: Box<dyn DeviceOs>) {
        os.set_tracing(self.engine.world.recorder.trace_enabled());
        self.engine.world.oses[dev.index()] = Some(os);
    }

    /// Pushes the recorder's tracing flag into every installed OS. Call
    /// after swapping the recorder on an already-populated sim (OSes
    /// installed later pick the flag up in [`Self::add_os`]).
    pub fn sync_tracing(&mut self) {
        let on = self.engine.world.recorder.trace_enabled();
        for os in self.engine.world.oses.iter_mut().flatten() {
            os.set_tracing(on);
        }
    }

    /// Schedules `dev` to boot at `at` (firmware boot latency is added by
    /// the work model).
    pub fn boot_device(&mut self, dev: DeviceId, at: SimTime) {
        self.engine.world.causal_pending += 1;
        let key = self.engine.world.control_key();
        self.engine.schedule_event_at(
            at,
            HarnessEvent {
                key,
                cause: None,
                kind: HarnessEventKind::BootStart(dev),
            },
        );
    }

    /// Boots every device with an installed OS at `at`.
    pub fn boot_all(&mut self, at: SimTime) {
        let devs: Vec<DeviceId> = self
            .engine
            .world
            .oses
            .iter()
            .enumerate()
            .filter(|(_, os)| os.is_some())
            .map(|(i, _)| DeviceId(i as u32))
            .collect();
        for dev in devs {
            self.boot_device(dev, at);
        }
    }

    /// Takes a link down at `at`: both ends get `LinkDown`, and in-flight
    /// frames on the link are dropped from then on.
    pub fn link_down(&mut self, topo_link: (DeviceId, u32, DeviceId, u32, LinkId), at: SimTime) {
        self.schedule_link_state(topo_link, at, false);
    }

    /// Brings a link back up at `at`.
    pub fn link_up(&mut self, topo_link: (DeviceId, u32, DeviceId, u32, LinkId), at: SimTime) {
        self.schedule_link_state(topo_link, at, true);
    }

    fn schedule_link_state(
        &mut self,
        topo_link: (DeviceId, u32, DeviceId, u32, LinkId),
        at: SimTime,
        up: bool,
    ) {
        let (a, ia, b, ib, lid) = topo_link;
        self.engine.world.causal_pending += 1;
        let key = self.engine.world.control_key();
        self.engine.schedule_event_at(
            at,
            HarnessEvent {
                key,
                cause: None,
                kind: HarnessEventKind::LinkState {
                    lid,
                    up,
                    a,
                    ia,
                    b,
                    ib,
                },
            },
        );
    }

    /// Resolves a link's endpoints for [`Self::link_down`]/[`Self::link_up`].
    #[must_use]
    pub fn link_endpoints(topo: &Topology, lid: LinkId) -> (DeviceId, u32, DeviceId, u32, LinkId) {
        let link = topo.link(lid);
        (
            link.a.device,
            link.a.iface,
            link.b.device,
            link.b.iface,
            lid,
        )
    }

    /// Delivers a management command at `at`; the response lands in
    /// [`ControlPlaneWorld::mgmt_responses`].
    pub fn mgmt(&mut self, dev: DeviceId, cmd: MgmtCommand, at: SimTime) {
        self.engine.world.causal_pending += 1;
        let key = self.engine.world.control_key();
        self.engine.schedule_event_at(
            at,
            HarnessEvent {
                key,
                cause: None,
                kind: HarnessEventKind::Mgmt(dev, cmd),
            },
        );
    }

    /// Synchronously executes a management command right now and returns
    /// the response (the jumpbox SSH round trip is treated as instant).
    pub fn mgmt_sync(&mut self, dev: DeviceId, cmd: MgmtCommand) -> Option<MgmtResponse> {
        let before = self.engine.world.mgmt_responses.len();
        dispatch(&mut self.engine, dev, OsEvent::Mgmt(cmd));
        self.engine
            .world
            .mgmt_responses
            .get(before)
            .map(|(_, r)| r.clone())
    }

    /// Runs every event with `time <= at`, then advances the clock to
    /// `at`, leaving later events queued.
    ///
    /// The fault subsystem uses this to interleave a fault timeline with
    /// convergence: run up to the next planned fault instant, mutate the
    /// world (power a VM's devices off, flap a link), and resume — so
    /// in-flight causal chains on untouched devices keep playing out
    /// across injections.
    pub fn run_until(&mut self, at: SimTime) {
        self.engine.run_until(at);
    }

    /// Runs until no route activity occurs within `quiet` of the last
    /// route change, or gives up past `deadline`.
    ///
    /// Returns the route-ready instant (the completion time of the last
    /// route-changing work) on convergence; `None` on deadline overrun.
    pub fn run_until_quiet(&mut self, quiet: SimDuration, deadline: SimTime) -> Option<SimTime> {
        let profiled = self
            .engine
            .world
            .recorder
            .profiling_enabled()
            .then(Instant::now);
        let out = loop {
            if self.engine.now() > deadline {
                break None;
            }
            let last = self.engine.world.last_route_activity;
            match self.engine.next_event_time() {
                // Nothing left to happen: converged.
                None => break Some(last),
                // Only pure timers remain and the next one lies beyond
                // the quiet horizon: every causal chain has played out.
                Some(t) if self.engine.world.causal_pending == 0 && t > last + quiet => {
                    break Some(last)
                }
                Some(_) => {
                    self.engine.step();
                }
            }
        };
        if let Some(t0) = profiled {
            self.engine
                .world
                .recorder
                .profile_add(keys::ENGINE_RUN, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// [`Self::run_until_quiet`] on worker threads: forks the world into
    /// per-shard replicas, steps them concurrently inside conservative
    /// per-shard windows (each shard bounded by the per-shard-pair
    /// lookahead matrix over its *actual* cut links, not a global
    /// min-cut scalar), and joins the shards back into this sim.
    ///
    /// The result is **bit-identical** to the serial run — same FIBs, same
    /// route-ready instant, same counters — because harness event keys
    /// totally order same-time events and frames can never cross a shard
    /// boundary in less than the cut-link latency. Two caveats: entries in
    /// [`ControlPlaneWorld::crashes`] are merged sorted by `(time,
    /// device)` and [`ControlPlaneWorld::mgmt_responses`] by device (the
    /// serial orders interleave same-time entries by event key, which the
    /// merge does not reconstruct), and on deadline overrun (`None`)
    /// shards may have processed a handful of events past the deadline
    /// that the serial loop would have left queued.
    ///
    /// `shard_work` supplies one [`WorkModel`] per shard (the serial
    /// model stays untouched); they are returned for the orchestrator to
    /// fold accumulated state (e.g. CPU-queue depths) back in.
    /// Cross-shard lookahead is probed from the *serial* model's
    /// [`WorkModel::link_delay`] over each cut link — the minimum per
    /// ordered shard pair, ∞ where no link crosses — so per-link delays
    /// must be time-invariant lower bounds and identical across the
    /// serial and shard models.
    ///
    /// # Panics
    ///
    /// Panics if `shard_work.len() != partition.shard_count()` or the
    /// partition does not cover this topology.
    pub fn run_until_quiet_parallel(
        &mut self,
        quiet: SimDuration,
        deadline: SimTime,
        partition: &Partition,
        shard_work: Vec<Box<dyn WorkModel>>,
    ) -> (Option<SimTime>, Vec<Box<dyn WorkModel>>) {
        let k = partition.shard_count();
        assert_eq!(shard_work.len(), k, "one work model per shard");
        let n = self.engine.world.oses.len();
        assert_eq!(partition.shard_of.len(), n, "partition/topology mismatch");
        if self.engine.now() > deadline {
            // The serial loop bails before touching the queue; so do we.
            return (None, shard_work);
        }
        let profiling = self.engine.world.recorder.profiling_enabled();
        let t_all = profiling.then(Instant::now);

        // Per-pair conservative lookahead: no frame crosses from shard i
        // to shard j faster than their cheapest connecting cut link;
        // pairs sharing no edge do not bound each other at all. The
        // matrix is derived from the adjacency table (the same link set
        // `Partition::lookahead_matrix_nanos` walks).
        let now = self.engine.now();
        let mut direct = vec![u64::MAX; k * k];
        for i in 0..k {
            direct[i * k + i] = 0;
        }
        {
            let world = &mut self.engine.world;
            for dev in 0..n {
                let si = partition.shard_of[dev];
                for adj in world.adjacency[dev].iter().flatten() {
                    let sj = partition.shard_of[adj.remote_dev.index()];
                    if si == sj {
                        continue;
                    }
                    let link = adj.link;
                    let d = world.work.link_delay(link, now).as_nanos().max(1);
                    let e = &mut direct[si * k + sj];
                    *e = (*e).min(d);
                }
            }
        }
        let lookahead = LookaheadMatrix::from_nanos(k, direct);

        // ---- Fork: one world replica per shard. ----
        let t_fork = profiling.then(Instant::now);
        let pending = self.engine.drain_pending();
        let world = &mut self.engine.world;
        let mut engines: Vec<ControlPlaneEngine> = shard_work
            .into_iter()
            .enumerate()
            .map(|(s, work)| {
                Engine::new(ControlPlaneWorld {
                    oses: (0..n).map(|_| None).collect(),
                    booted: world.booted.clone(),
                    adjacency: world.adjacency.clone(),
                    link_up: world.link_up.clone(),
                    work,
                    last_route_activity: world.last_route_activity,
                    route_ops_total: 0,
                    route_ops_by_dev: HashMap::new(),
                    crashes: Vec::new(),
                    mgmt_responses: Vec::new(),
                    causal_pending: 0,
                    dev_key_seq: world.dev_key_seq.clone(),
                    control_key_seq: world.control_key_seq,
                    shard_route: Some(ShardRoute {
                        self_shard: s,
                        shard_of: partition.shard_of.clone(),
                        outbox: Vec::new(),
                    }),
                    // Pair gauges travel with their src-owning shard so
                    // rolling SLO windows continue across the fork; the
                    // traffic plane's link/ECMP gauges travel with the
                    // transmitting device's shard for the same reason.
                    health: world
                        .health
                        .as_ref()
                        .map(|h| h.fork_for_shard(|d| partition.shard_of[d.index()] == s)),
                    traffic: world
                        .traffic
                        .as_ref()
                        .map(|t| t.fork_for_shard(|d| partition.shard_of[d.index()] == s)),
                    fwd_disabled: world.fwd_disabled.clone(),
                    recorder: world.recorder.fork(),
                })
            })
            .collect();
        // OS instances move to their owning shard's worker thread.
        for dev in 0..n {
            if let Some(os) = world.oses[dev].take() {
                engines[partition.shard_of[dev]].world.oses[dev] = Some(os);
            }
        }
        // Device-targeted events go to the owner; link state is global
        // wiring and is replayed by every shard.
        for (t, ev) in pending {
            match ev.target_device() {
                Some(dev) => {
                    let eng = &mut engines[partition.shard_of[dev.index()]];
                    eng.world.causal_pending += u64::from(ev.is_causal());
                    eng.schedule_event_at(t, ev);
                }
                None => {
                    for eng in &mut engines {
                        let copy = ev.replicate().expect("broadcast events replicate");
                        eng.world.causal_pending += u64::from(copy.is_causal());
                        eng.schedule_event_at(t, copy);
                    }
                }
            }
        }

        if let Some(t0) = t_fork {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL_FORK, t0.elapsed().as_nanos() as u64);
        }

        let t_run = profiling.then(Instant::now);
        let mut outcome =
            run_shards_until_quiet_matrix_profiled(engines, &lookahead, quiet, deadline, profiling);
        if let Some(t0) = t_run {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL_RUN, t0.elapsed().as_nanos() as u64);
        }

        // ---- Join: merge shard state back into the serial world. ----
        let t_join = profiling.then(Instant::now);
        let mut shard_models: Vec<Box<dyn WorkModel>> = Vec::with_capacity(k);
        let mut crashes: Vec<(SimTime, DeviceId)> = Vec::new();
        let mut responses: Vec<(DeviceId, MgmtResponse)> = Vec::new();
        let mut remaining: Vec<(SimTime, HarnessEvent)> = Vec::new();
        let mut shard_executed: Vec<u64> = Vec::with_capacity(k);
        let mut shard_queue_high: Vec<u64> = Vec::with_capacity(k);
        for (s, mut eng) in outcome.shards.into_iter().enumerate() {
            shard_executed.push(eng.events_executed());
            shard_queue_high.push(eng.queue_high_water() as u64);
            let drained = eng.drain_pending();
            let mut sw = eng.world;
            let world = &mut self.engine.world;
            // Canonical shard metrics merge order-independently; the
            // per-shard execution-shape facts go in as diagnostics.
            world.recorder.absorb(sw.recorder);
            for &dev in &partition.shards[s] {
                let i = dev.index();
                world.oses[i] = sw.oses[i].take();
                world.booted[i] = sw.booted[i];
                world.dev_key_seq[i] = sw.dev_key_seq[i];
                if let Some(ops) = sw.route_ops_by_dev.get(&dev) {
                    *world.route_ops_by_dev.entry(dev).or_insert(0) += ops;
                }
            }
            world.route_ops_total += sw.route_ops_total;
            world.last_route_activity = world.last_route_activity.max(sw.last_route_activity);
            // Every shard replayed the same link-state history.
            world.link_up = sw.link_up;
            if let Some(sh) = sw.health.take() {
                if let Some(h) = world.health.as_mut() {
                    h.absorb_shard(sh);
                }
            }
            if let Some(st) = sw.traffic.take() {
                if let Some(t) = world.traffic.as_mut() {
                    t.absorb_shard(st);
                }
            }
            crashes.extend(sw.crashes);
            responses.extend(sw.mgmt_responses);
            // Broadcast events survive in every shard queue; keep one copy.
            for (t, ev) in drained {
                if s == 0 || ev.target_device().is_some() {
                    remaining.push((t, ev));
                }
            }
            shard_models.push(sw.work);
        }
        crashes.sort_by_key(|&(t, d)| (t, d.0));
        self.engine.world.crashes.extend(crashes);
        // Shard incident streams interleave; restore the canonical
        // (time, seq, kind) order the serial run produces.
        if let Some(h) = self.engine.world.health.as_mut() {
            h.sort_incidents();
        }
        if let Some(t) = self.engine.world.traffic.as_mut() {
            t.sort_incidents();
        }
        responses.sort_by_key(|r| (r.0).0);
        self.engine.world.mgmt_responses.extend(responses);

        // Fast-forward the serial clock, then restore surviving events
        // (far-future timers and the like) and their causal accounting.
        self.engine.advance_clock_to(outcome.clock);
        remaining.sort_by_key(|(t, ev)| (*t, ev.key));
        let mut causal = 0u64;
        for (t, ev) in remaining {
            causal += u64::from(ev.is_causal());
            self.engine.schedule_event_at(t, ev);
        }
        self.engine.world.causal_pending = causal;
        if self.engine.world.recorder.enabled() {
            let rec = &mut *self.engine.world.recorder;
            rec.diagnostic_add("sim.parallel.windows".to_string(), outcome.windows);
            rec.diagnostic_add(
                "sim.parallel.lockstep_rounds".to_string(),
                outcome.lockstep_rounds,
            );
            rec.diagnostic_add(
                "sim.parallel.horizon_advances".to_string(),
                outcome.horizon_advances,
            );
            // Events-per-window histogram (power-of-two buckets) plus
            // per-shard execution-shape arrays: the facts needed to
            // diagnose a scaling regression from `pull_report()` without
            // bisection. Idle time is wall-clock, hence nondeterministic
            // — diagnostics only, never the canonical report. The arrays
            // describe the most recent parallel run in this report.
            let hist = &outcome.window_hist;
            rec.diagnostic_add("sim.parallel.window_events.count".to_string(), hist.count);
            rec.diagnostic_add("sim.parallel.window_events.sum".to_string(), hist.sum);
            rec.diagnostic_max("sim.parallel.window_events.max".to_string(), hist.max);
            for (b, &n) in hist.buckets.iter().enumerate() {
                if n > 0 {
                    rec.diagnostic_add(format!("sim.parallel.window_events.bucket{b}"), n);
                }
            }
            rec.diagnostic_array(
                "sim.parallel.shard.events_executed".to_string(),
                shard_executed.clone(),
            );
            rec.diagnostic_array(
                "sim.parallel.shard.queue_high_water".to_string(),
                shard_queue_high,
            );
            rec.diagnostic_array(
                "sim.parallel.shard.idle_ns".to_string(),
                outcome.idle_ns.clone(),
            );
        }
        if let Some(profile) = outcome.profile.take() {
            let rec = &mut *self.engine.world.recorder;
            rec.profile_add(keys::PARALLEL_COMPUTE, profile.busy_ns.iter().sum());
            rec.profile_add(keys::PARALLEL_MERGE, profile.merge_ns);
            rec.profile_add(keys::PARALLEL_IDLE, outcome.idle_ns.iter().sum());
            rec.scaling_diagnosis(diagnose_scaling(
                &profile,
                &outcome.idle_ns,
                &shard_executed,
            ));
        }
        if let Some(t0) = t_join {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL_JOIN, t0.elapsed().as_nanos() as u64);
        }
        if let Some(t0) = t_all {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL, t0.elapsed().as_nanos() as u64);
        }

        (outcome.converged_at, shard_models)
    }

    /// The FIB of `dev`.
    #[must_use]
    pub fn fib(&self, dev: DeviceId) -> Option<&Fib> {
        self.engine.world.oses[dev.index()]
            .as_deref()
            .map(|os| os.fib())
    }

    /// The OS instance on `dev`.
    #[must_use]
    pub fn os(&self, dev: DeviceId) -> Option<&dyn DeviceOs> {
        self.engine.world.oses[dev.index()].as_deref()
    }

    /// Mutable OS access (test instrumentation).
    pub fn os_mut(&mut self, dev: DeviceId) -> Option<&mut Box<dyn DeviceOs>> {
        self.engine.world.oses[dev.index()].as_mut()
    }

    /// Powers a device's sandbox off instantly (VM failure, kill):
    /// frames stop reaching it until a later [`Self::boot_device`].
    pub fn power_off(&mut self, dev: DeviceId) {
        self.engine.world.booted[dev.index()] = false;
    }

    /// Replaces a device's OS instance (used when a VM is rebuilt and its
    /// sandboxes restart from scratch). The device must be re-booted.
    pub fn replace_os(&mut self, dev: DeviceId, mut os: Box<dyn DeviceOs>) {
        os.set_tracing(self.engine.world.recorder.trace_enabled());
        self.engine.world.booted[dev.index()] = false;
        self.engine.world.oses[dev.index()] = Some(os);
    }

    /// Decommissions `dev` permanently: drops its OS instance and removes
    /// every queued event addressed to it (in-flight frames, timers,
    /// pending management commands), fixing up the causal-quiescence
    /// accounting so convergence detection stays exact. The caller is
    /// responsible for taking the device's links down first so neighbors
    /// observe the loss; after removal the device can not be re-booted
    /// (unlike [`Self::power_off`], which keeps the OS around).
    pub fn remove_device(&mut self, dev: DeviceId) {
        self.engine.world.booted[dev.index()] = false;
        self.engine.world.oses[dev.index()] = None;
        // Drain-and-requeue preserves event identity: ids are derived
        // from `(time, key)`, both unchanged by the round trip.
        let drained = self.engine.drain_pending();
        for (at, ev) in drained {
            if ev.target_device() == Some(dev) {
                if ev.is_causal() {
                    self.engine.world.causal_pending -= 1;
                }
            } else {
                self.engine.schedule_event_at(at, ev);
            }
        }
    }

    /// Whether `dev` booted and is still up.
    #[must_use]
    pub fn is_up(&self, dev: DeviceId) -> bool {
        self.engine.world.booted[dev.index()] && self.os(dev).is_some_and(|os| !os.is_down())
    }

    /// Synchronously traces `packet` hop by hop from `from` using the
    /// current FIBs (the `InjectPackets` + `PullPackets` path over a
    /// converged network). Returns the device path and the final fate.
    pub fn trace_packet(
        &self,
        from: DeviceId,
        packet: &Ipv4Packet,
    ) -> (Vec<DeviceId>, ForwardDecision) {
        let mut path = vec![from];
        let mut current = from;
        let mut ingress: Option<u32> = None;
        let mut pkt = packet.clone();
        let mut last = ForwardDecision::DropNoRoute;
        // TTL bounds the walk, but guard against accidental loops anyway.
        for _ in 0..512 {
            let world = &self.engine.world;
            let Some(os) = world.oses[current.index()].as_deref() else {
                return (path, ForwardDecision::DropNoRoute);
            };
            if !world.booted[current.index()] || os.is_down() {
                return (path, ForwardDecision::DropNoRoute);
            }
            let locals = os.local_addrs();
            let decision = decide(os.fib(), locals, &pkt, |src, dst| {
                os.filter_permits(ingress, src, dst)
            });
            last = decision;
            match decision {
                ForwardDecision::Forward(hop) => {
                    if hop.iface == crate::bgp::LOCAL_IFACE {
                        // Locally attached subnet: delivered here.
                        return (path, ForwardDecision::Deliver);
                    }
                    let Some(Some(adj)) = world.adjacency[current.index()].get(hop.iface as usize)
                    else {
                        return (path, ForwardDecision::DropNoRoute);
                    };
                    if !world.link_up.get(&adj.link).copied().unwrap_or(false) {
                        return (path, ForwardDecision::DropNoRoute);
                    }
                    let Some(next_pkt) = pkt.forwarded() else {
                        return (path, ForwardDecision::DropTtlExpired);
                    };
                    pkt = next_pkt;
                    current = adj.remote_dev;
                    ingress = Some(adj.remote_iface);
                    path.push(current);
                }
                _ => return (path, decision),
            }
        }
        (path, last)
    }

    /// Turns the health plane on: installs the probe-mesh state over
    /// `population` (the probe-able devices with their loopback
    /// addresses) and schedules the first probe round at
    /// `first_tick_at`. Ticks then self-perpetuate every `cfg.period`
    /// until the simulation ends; they are non-causal, so convergence
    /// detection is unaffected.
    pub fn enable_health(
        &mut self,
        cfg: ProbeConfig,
        population: Vec<(DeviceId, Ipv4Addr)>,
        first_tick_at: SimTime,
    ) {
        self.engine.world.health = Some(HealthState::new(cfg, population));
        self.engine.schedule_event_at(
            first_tick_at,
            HarnessEvent {
                key: PROBE_TICK_KEY,
                cause: None,
                kind: HarnessEventKind::ProbeTick { round: 0 },
            },
        );
    }

    /// The health plane's current state, when enabled.
    #[must_use]
    pub fn health(&self) -> Option<&HealthState> {
        self.engine.world.health.as_ref()
    }

    /// Turns the traffic plane on: installs the flow-generation state
    /// over `population` (the flow-capable devices with their loopback
    /// addresses) and schedules the first traffic round at
    /// `first_tick_at`. Ticks then self-perpetuate every `cfg.period`
    /// until the simulation ends; they are non-causal, so convergence
    /// detection is unaffected.
    pub fn enable_traffic(
        &mut self,
        cfg: TrafficConfig,
        population: Vec<(DeviceId, Ipv4Addr)>,
        first_tick_at: SimTime,
    ) {
        self.engine.world.traffic = Some(TrafficState::new(cfg, population));
        self.engine.schedule_event_at(
            first_tick_at,
            HarnessEvent {
                key: TRAFFIC_TICK_KEY,
                cause: None,
                kind: HarnessEventKind::TrafficTick { round: 0 },
            },
        );
    }

    /// The traffic plane's current state, when enabled.
    #[must_use]
    pub fn traffic(&self) -> Option<&TrafficState> {
        self.engine.world.traffic.as_ref()
    }

    /// Silently kills (or restores) `dev`'s dataplane forwarding while
    /// its control plane keeps running — the canonical gray failure.
    /// Sessions stay up and the FIB keeps "converging"; only a live
    /// probe can observe the difference.
    pub fn set_forwarding(&mut self, dev: DeviceId, enabled: bool) {
        if enabled {
            self.engine.world.fwd_disabled.remove(&dev);
        } else {
            self.engine.world.fwd_disabled.insert(dev);
        }
    }

    /// Whether `dev`'s forwarding was silently disabled.
    #[must_use]
    pub fn forwarding_disabled(&self, dev: DeviceId) -> bool {
        self.engine.world.fwd_disabled.contains(&dev)
    }
}

/// Stable export label for a grant's limiter.
fn limiter_label(l: Limiter) -> String {
    match l {
        Limiter::Echo => "echo".to_string(),
        Limiter::Peer(j) => format!("peer:{j}"),
        Limiter::QuietClip => "quiet-clip".to_string(),
        Limiter::DeadlineClip => "deadline-clip".to_string(),
        Limiter::Lockstep => "lockstep".to_string(),
        Limiter::Deliver => "deliver".to_string(),
    }
}

/// Grant-kind label (`window`, `deliver`, `step`) for exports.
fn grant_kind(l: Limiter) -> &'static str {
    match l {
        Limiter::Lockstep => "step",
        Limiter::Deliver => "deliver",
        _ => "window",
    }
}

/// Reconstructs the chain of grants that bounded run completion and
/// classifies each straggler interval.
///
/// Walking back from the last grant to finish, the predecessor of a
/// grant is the latest grant that completed before it was issued — the
/// command whose reply the coordinator had to fold in before this one
/// could go out. Time *inside* a grant is blamed on its limiter
/// (a peer bound ⇒ lookahead-starved, otherwise work-bound); the gap
/// between a predecessor's completion and the successor's issue is
/// coordinator-side merging ⇒ merge-bound. All wall-clock, hence
/// nondeterministic: full-report diagnostics only.
fn diagnose_scaling(
    profile: &ParallelProfile,
    idle_ns: &[u64],
    shard_executed: &[u64],
) -> ScalingDiagnosis {
    let grants = &profile.grants;
    // Walk the chain back from the last completion.
    let mut chain: Vec<&GrantRecord> = Vec::new();
    let mut cur = grants.iter().max_by_key(|g| g.done_ns);
    while let Some(g) = cur {
        chain.push(g);
        cur = grants
            .iter()
            .filter(|p| p.done_ns <= g.issue_ns)
            .max_by_key(|p| p.done_ns);
    }
    chain.reverse();

    // Blame totals over the whole chain (even the links the export cap
    // drops), so the breakdown always accounts for the full path.
    let mut blame = BlameBreakdown::default();
    let mut prev_done: Option<u64> = None;
    let mut links: Vec<CriticalLink> = Vec::with_capacity(chain.len());
    for g in &chain {
        let exec = g.done_ns.saturating_sub(g.issue_ns);
        let gap = prev_done.map_or(0, |d| g.issue_ns.saturating_sub(d));
        blame.merge_bound_ns += gap;
        let starved = matches!(g.limiter, Limiter::Peer(_));
        if starved {
            blame.lookahead_starved_ns += exec;
        } else {
            blame.work_bound_ns += exec;
        }
        let label = if starved {
            "lookahead-starved"
        } else if gap > exec {
            "merge-bound"
        } else {
            "work-bound"
        };
        links.push(CriticalLink {
            shard: g.shard as u32,
            kind: grant_kind(g.limiter).to_string(),
            limiter: limiter_label(g.limiter),
            start_ns: g.issue_ns,
            end_ns: g.done_ns,
            executed: g.executed,
            blame: label.to_string(),
        });
        prev_done = Some(g.done_ns);
    }
    // Keep the links nearest completion when the chain is long.
    if links.len() > ScalingDiagnosis::CRITICAL_PATH_CAP {
        links.drain(..links.len() - ScalingDiagnosis::CRITICAL_PATH_CAP);
    }

    let k = profile.busy_ns.len();
    let per_shard = (0..k)
        .map(|s| ShardLoad {
            shard: s as u32,
            grants: grants.iter().filter(|g| g.shard == s).count() as u64,
            executed: shard_executed.get(s).copied().unwrap_or(0),
            busy_ns: profile.busy_ns[s],
            idle_ns: idle_ns.get(s).copied().unwrap_or(0),
        })
        .collect();

    ScalingDiagnosis {
        shards: k as u32,
        run_wall_ns: profile.run_wall_ns,
        compute_ns: profile.busy_ns.iter().sum(),
        merge_ns: profile.merge_ns,
        idle_ns: idle_ns.iter().sum(),
        grants: grants.len() as u64,
        blame,
        critical_path: links,
        per_shard,
    }
}

/// Core dispatcher: feeds `event` to `dev`'s OS and schedules the actions.
fn dispatch(e: &mut ControlPlaneEngine, dev: DeviceId, event: OsEvent) {
    let now = e.now();
    let idx = dev.index();
    let cur = e.current_event().unwrap_or(EventId::ZERO);
    let actions: OsActions = {
        let world = &mut e.world;
        let Some(os) = world.oses[idx].as_mut() else {
            return;
        };
        // Frames reach only booted devices; timers/mgmt likewise.
        let is_boot = matches!(event, OsEvent::Boot);
        if !is_boot && !world.booted[idx] {
            return;
        }
        // Stamp the event id first: provenance chains the OS builds while
        // handling must point at this event.
        os.begin_event(cur);
        os.handle(now, event)
    };
    // Journaled RIB/FIB mutations become trace records naming the causal
    // chain and decision reason of the installed path.
    if e.world.recorder.trace_enabled() {
        let muts = e.world.oses[idx]
            .as_mut()
            .map(|os| os.take_route_mutations())
            .unwrap_or_default();
        for m in muts {
            let mut fields = vec![("prefix", FieldValue::Str(m.prefix.to_string()))];
            if let Some(prov) = &m.prov {
                fields.push((
                    "origin",
                    FieldValue::Str(prov.origin_kind.label().to_string()),
                ));
                fields.push(("prov", FieldValue::U64(prov.digest())));
                fields.push(("chain_len", FieldValue::U64(prov.hops.len() as u64 + 1)));
            }
            if let Some(reason) = m.reason {
                fields.push(("reason", FieldValue::Str(reason.label().to_string())));
            }
            trace_here(e, m.kind.label(), Some(dev), fields);
        }
    }
    let done = if actions.route_ops > 0 {
        let t = e
            .world
            .work
            .completion(dev, WorkKind::RouteOps(actions.route_ops), now);
        e.world.route_ops_total += actions.route_ops as u64;
        *e.world.route_ops_by_dev.entry(dev).or_insert(0) += actions.route_ops as u64;
        e.world.last_route_activity = e.world.last_route_activity.max(t);
        if let Some(h) = e.world.health.as_mut() {
            *h.ops_since_tick.entry(dev).or_insert(0) += actions.route_ops as u64;
        }
        if e.world.recorder.enabled() {
            let rec = &mut *e.world.recorder;
            rec.device_counter_add("routing.route_churn", dev.0, actions.route_ops as u64);
            rec.device_gauge_max("routing.convergence_ns", dev.0, t.as_nanos());
            rec.gauge_max("routing.last_route_activity_ns", t.as_nanos());
        }
        t
    } else {
        now
    };
    if actions.crashed {
        e.world.crashes.push((now, dev));
    }
    if let Some(resp) = actions.response {
        e.world.mgmt_responses.push((dev, resp));
    }
    let cause = e.current_event();
    for (delay, kind) in actions.timers {
        let key = e.world.device_key(dev);
        e.schedule_event_at(
            done + delay,
            HarnessEvent {
                key,
                cause,
                kind: HarnessEventKind::Timer(dev, kind),
            },
        );
    }
    for (iface, frame) in actions.out {
        let Some(Some(adj)) = e.world.adjacency[idx].get(iface as usize) else {
            continue;
        };
        let (rdev, riface, link) = (adj.remote_dev, adj.remote_iface, adj.link);
        if !e.world.link_up.get(&link).copied().unwrap_or(false) {
            continue;
        }
        let arrive = done + e.world.work.link_delay(link, done);
        // Counted here, after the link-up check: frames *actually sent*
        // are a world fact the parallel replay reproduces exactly.
        if e.world.recorder.enabled() {
            record_frame(&mut *e.world.recorder, &frame, true);
        }
        if e.world.recorder.trace_enabled() {
            trace_here(
                e,
                "frame_tx",
                Some(dev),
                vec![
                    ("kind", FieldValue::Str(frame.kind().to_string())),
                    ("iface", FieldValue::U64(u64::from(iface))),
                ],
            );
        }
        // Keyed by the *sender*: the key travels with the frame, so a
        // cross-shard delivery merges into the receiver's queue at exactly
        // the position the serial engine would have given it.
        let key = e.world.device_key(dev);
        let ev = HarnessEvent {
            key,
            cause,
            kind: HarnessEventKind::Deliver {
                dev: rdev,
                iface: riface,
                frame,
                link,
            },
        };
        if let Some(route) = &mut e.world.shard_route {
            let dest = route.shard_of[rdev.index()];
            if dest != route.self_shard {
                // The receiving shard accounts for the causal unit when
                // it enqueues the envelope at the next window barrier.
                route.outbox.push((dest, arrive, ev));
                continue;
            }
        }
        e.world.causal_pending += 1;
        e.schedule_event_at(arrive, ev);
    }
}

/// Schedules a probe or flow event onto the shard that owns `target`,
/// using the same outbox mechanism as cross-shard frame deliveries.
/// Probe and flow events are non-causal, so no `causal_pending`
/// accounting is needed on either side.
fn schedule_probe(e: &mut ControlPlaneEngine, at: SimTime, target: DeviceId, ev: HarnessEvent) {
    if let Some(route) = &mut e.world.shard_route {
        let dest = route.shard_of[target.index()];
        if dest != route.self_shard {
            route.outbox.push((dest, at, ev));
            return;
        }
    }
    e.schedule_event_at(at, ev);
}

/// One probe-mesh round: run the churn watchdog over the route-operation
/// residue, launch this round's sampled probes from locally owned
/// sources, and schedule the next tick.
///
/// In parallel mode every shard fires the identical (replicated) tick:
/// pair sampling is a pure function of `(seed, round)` over the
/// replicated population, so all shards agree on the plan and each
/// launches exactly the probes whose source it owns — the union is the
/// serial behavior. Each shard also schedules its own copy of the next
/// tick (same time, same key); the join keeps shard 0's copy, exactly
/// like link-state broadcasts.
fn probe_tick(e: &mut ControlPlaneEngine, round: u64) {
    let now = e.now();
    let Some(h) = e.world.health.as_ref() else {
        return;
    };
    let period = h.cfg.period;
    let ppr = h.cfg.pairs_per_round as u64;
    let ttl = h.cfg.ttl;
    let threshold = h.cfg.churn_threshold;
    let plan: Vec<(DeviceId, Ipv4Addr, DeviceId, Ipv4Addr)> = h
        .sample_pairs(round)
        .into_iter()
        .map(|(si, di)| {
            let (sd, sa) = h.population[si];
            let (dd, da) = h.population[di];
            (sd, sa, dd, da)
        })
        .collect();

    // Churn watchdog: route operations per device since the previous
    // tick. The first tick only primes the baseline — boot-time
    // convergence churn is expected, not an anomaly.
    let churn: Vec<(DeviceId, u64)> = {
        let h = e.world.health.as_mut().expect("checked above");
        let residue = std::mem::take(&mut h.ops_since_tick);
        let primed = h.churn_primed;
        h.churn_primed = true;
        if primed {
            let mut hot: Vec<(DeviceId, u64)> = residue
                .into_iter()
                .filter(|&(_, ops)| ops > threshold)
                .collect();
            hot.sort_by_key(|&(d, _)| d.0);
            hot
        } else {
            Vec::new()
        }
    };
    for (dev, ops) in churn {
        record_incident(
            e,
            Incident {
                at: now,
                src: dev,
                dst: dev,
                seq: (1 << 63) | (round << 22) | u64::from(dev.0),
                kind: IncidentKind::FibChurnAnomaly {
                    device: dev,
                    ops,
                    threshold,
                },
            },
        );
    }

    let cause = e.current_event();
    for (i, (src, src_addr, dst, dst_addr)) in plan.into_iter().enumerate() {
        // Only the world holding the source's OS launches: in a shard
        // world that is the owner, serially it is everyone. Removed or
        // never-emulated sources simply do not probe.
        if e.world.oses[src.index()].is_none() {
            continue;
        }
        let probe_seq = round * ppr + i as u64;
        e.world.health.as_mut().expect("checked above").probes_sent += 1;
        if e.world.recorder.enabled() {
            e.world.recorder.counter_add("health.probes_sent", 1);
        }
        e.schedule_event_at(
            now,
            HarnessEvent {
                key: probe_hop_key(probe_seq, 0),
                cause,
                kind: HarnessEventKind::ProbeHop {
                    src,
                    src_addr,
                    dst,
                    dst_addr,
                    dev: src,
                    ingress: None,
                    ttl,
                    probe_seq,
                    path_ns: 0,
                },
            },
        );
    }

    e.schedule_event_at(
        now + period,
        HarnessEvent {
            key: PROBE_TICK_KEY | (round + 1),
            cause: None,
            kind: HarnessEventKind::ProbeTick { round: round + 1 },
        },
    );
}

/// What one probe hop resolved to (computed under a scoped world borrow,
/// acted on afterwards).
enum HopStep {
    Lost(ProbeOutcome, Option<IncidentKind>),
    Delivered,
    Forward {
        next_dev: DeviceId,
        next_iface: u32,
        link: LinkId,
    },
}

/// One probe packet at one device: re-uses the dataplane's
/// [`decide`] over the device's live FIB — the same forwarding logic
/// `trace_packet` walks — but hop by hop in virtual time, so transient
/// state (a link that is down *right now*, a FIB entry not yet
/// withdrawn) is what the probe actually experiences.
#[allow(clippy::too_many_arguments)]
fn probe_hop(
    e: &mut ControlPlaneEngine,
    src: DeviceId,
    src_addr: Ipv4Addr,
    dst: DeviceId,
    dst_addr: Ipv4Addr,
    dev: DeviceId,
    ingress: Option<u32>,
    ttl: u8,
    probe_seq: u64,
    path_ns: u64,
) {
    let now = e.now();
    let Some(cfg_ttl) = e.world.health.as_ref().map(|h| h.cfg.ttl) else {
        return;
    };
    let hop_index = u32::from(cfg_ttl.saturating_sub(ttl));

    let step = {
        let world = &mut e.world;
        let idx = dev.index();
        match world.oses[idx].as_deref() {
            None => HopStep::Lost(ProbeOutcome::DeviceDown, None),
            Some(os) if !world.booted[idx] || os.is_down() => {
                HopStep::Lost(ProbeOutcome::DeviceDown, None)
            }
            Some(os) => {
                // The witness a gray failure produces: the FIB entry the
                // device *would have used*, with its provenance digest.
                let matched = os.fib().lookup(dst_addr).map(|(p, _)| p);
                let witness = |prefix: Ipv4Prefix| {
                    IncidentKind::Blackhole(GrayFailureWitness {
                        device: dev,
                        hop: hop_index,
                        prefix: Some(prefix),
                        prov_digest: os.route_detail(prefix).map(|d| d.prov.digest()),
                    })
                };
                if world.fwd_disabled.contains(&dev) {
                    // Forwarding silently dead: sessions stay up, the FIB
                    // stays "correct" — only a live probe can see this.
                    match matched {
                        Some(prefix) => {
                            HopStep::Lost(ProbeOutcome::Blackhole, Some(witness(prefix)))
                        }
                        None => HopStep::Lost(ProbeOutcome::NoRoute, None),
                    }
                } else {
                    let pkt = Ipv4Packet {
                        src: src_addr,
                        dst: dst_addr,
                        protocol: crystalnet_dataplane::ipproto::UDP,
                        ttl,
                        identification: probe_seq as u16,
                        payload: bytes::Bytes::new(),
                    };
                    let locals = os.local_addrs();
                    let decision = decide(os.fib(), locals, &pkt, |s, d| {
                        os.filter_permits(ingress, s, d)
                    });
                    match decision {
                        ForwardDecision::Deliver => HopStep::Delivered,
                        ForwardDecision::DropTtlExpired => HopStep::Lost(
                            ProbeOutcome::TtlExpired,
                            Some(IncidentKind::ForwardingLoop {
                                device: dev,
                                hop: hop_index,
                            }),
                        ),
                        ForwardDecision::DropNoRoute => HopStep::Lost(ProbeOutcome::NoRoute, None),
                        ForwardDecision::DropAcl => HopStep::Lost(ProbeOutcome::AclDrop, None),
                        ForwardDecision::Forward(hop) => {
                            if hop.iface == crate::bgp::LOCAL_IFACE {
                                HopStep::Delivered
                            } else {
                                match world.adjacency[idx].get(hop.iface as usize) {
                                    Some(Some(adj)) => {
                                        if world.link_up.get(&adj.link).copied().unwrap_or(false) {
                                            HopStep::Forward {
                                                next_dev: adj.remote_dev,
                                                next_iface: adj.remote_iface,
                                                link: adj.link,
                                            }
                                        } else {
                                            // The FIB still points at a dead
                                            // link: stale state, gray failure.
                                            match matched {
                                                Some(prefix) => HopStep::Lost(
                                                    ProbeOutcome::Blackhole,
                                                    Some(witness(prefix)),
                                                ),
                                                None => HopStep::Lost(ProbeOutcome::NoRoute, None),
                                            }
                                        }
                                    }
                                    _ => HopStep::Lost(ProbeOutcome::NoRoute, None),
                                }
                            }
                        }
                    }
                }
            }
        }
    };

    match step {
        HopStep::Forward {
            next_dev,
            next_iface,
            link,
        } => {
            let delay = e.world.work.link_delay(link, now);
            let arrive = now + delay;
            let cause = e.current_event();
            schedule_probe(
                e,
                arrive,
                next_dev,
                HarnessEvent {
                    key: probe_hop_key(probe_seq, hop_index + 1),
                    cause,
                    kind: HarnessEventKind::ProbeHop {
                        src,
                        src_addr,
                        dst,
                        dst_addr,
                        dev: next_dev,
                        ingress: Some(next_iface),
                        ttl: ttl - 1,
                        probe_seq,
                        path_ns: path_ns + delay.as_nanos(),
                    },
                },
            );
        }
        HopStep::Delivered | HopStep::Lost(..) => {
            let outcome = match &step {
                HopStep::Delivered => ProbeOutcome::Delivered,
                HopStep::Lost(o, _) => *o,
                HopStep::Forward { .. } => unreachable!(),
            };
            if let HopStep::Lost(_, Some(kind)) = step {
                record_incident(
                    e,
                    Incident {
                        at: now,
                        src,
                        dst,
                        seq: probe_seq,
                        kind,
                    },
                );
            }
            // The report returns to the source's shard. Scheduling it
            // `path_ns` out is lookahead-honest: the forward path's
            // accumulated link delays bound the shard-pair distance the
            // matrix derived from the same (time-invariant) link delays.
            let cause = e.current_event();
            schedule_probe(
                e,
                now + SimDuration::from_nanos(path_ns),
                src,
                HarnessEvent {
                    key: probe_report_key(probe_seq),
                    cause,
                    kind: HarnessEventKind::ProbeReport {
                        src,
                        dst,
                        probe_seq,
                        outcome,
                        path_ns,
                    },
                },
            );
        }
    }
}

/// A probe's fate lands on its source's gauges: per-pair counts and the
/// rolling SLO window, plus the breach watchdog on the transition.
fn probe_report(
    e: &mut ControlPlaneEngine,
    src: DeviceId,
    dst: DeviceId,
    probe_seq: u64,
    outcome: ProbeOutcome,
    path_ns: u64,
) {
    let now = e.now();
    let Some(h) = e.world.health.as_mut() else {
        return;
    };
    let cfg = h.cfg.clone();
    let delivered = outcome.delivered();
    let stats = h.pairs.entry((src, dst)).or_default();
    let fired = stats.record(delivered, path_ns, &cfg);
    let window_lost = stats.window_lost();
    if delivered {
        h.probes_delivered += 1;
    } else {
        h.probes_lost += 1;
    }
    if e.world.recorder.enabled() {
        e.world.recorder.counter_add(
            if delivered {
                "health.probes_delivered"
            } else {
                "health.probes_lost"
            },
            1,
        );
    }
    if fired {
        record_incident(
            e,
            Incident {
                at: now,
                src,
                dst,
                seq: probe_seq,
                kind: IncidentKind::SloBreach {
                    window_lost,
                    window: cfg.slo_window as u64,
                },
            },
        );
    }
}

/// Emits the trace record for one watchdog firing (shared by the
/// health and traffic planes) — this is what carries incidents into the
/// JSONL/Chrome exports for free.
fn trace_incident(e: &mut ControlPlaneEngine, inc: &Incident) {
    let site = match &inc.kind {
        IncidentKind::Blackhole(w) => w.device,
        IncidentKind::ForwardingLoop { device, .. }
        | IncidentKind::FibChurnAnomaly { device, .. }
        | IncidentKind::LinkOversubscribed { device, .. }
        | IncidentKind::EcmpPolarisation { device, .. } => *device,
        IncidentKind::SloBreach { .. } | IncidentKind::FlowSloBreach { .. } => inc.src,
    };
    let mut fields = vec![
        ("kind", FieldValue::Str(inc.kind.label().to_string())),
        ("src", FieldValue::U64(u64::from(inc.src.0))),
        ("dst", FieldValue::U64(u64::from(inc.dst.0))),
        ("seq", FieldValue::U64(inc.seq)),
    ];
    match &inc.kind {
        IncidentKind::Blackhole(w) => {
            fields.push(("hop", FieldValue::U64(u64::from(w.hop))));
            if let Some(p) = w.prefix {
                fields.push(("prefix", FieldValue::Str(p.to_string())));
            }
            if let Some(d) = w.prov_digest {
                fields.push(("prov", FieldValue::U64(d)));
            }
        }
        IncidentKind::ForwardingLoop { hop, .. } => {
            fields.push(("hop", FieldValue::U64(u64::from(*hop))));
        }
        IncidentKind::SloBreach {
            window_lost,
            window,
        }
        | IncidentKind::FlowSloBreach {
            window_lost,
            window,
        } => {
            fields.push(("window_lost", FieldValue::U64(*window_lost)));
            fields.push(("window", FieldValue::U64(*window)));
        }
        IncidentKind::FibChurnAnomaly { ops, threshold, .. } => {
            fields.push(("ops", FieldValue::U64(*ops)));
            fields.push(("threshold", FieldValue::U64(*threshold)));
        }
        IncidentKind::LinkOversubscribed {
            link,
            bytes,
            capacity_bytes,
            ..
        } => {
            fields.push(("link", FieldValue::U64(u64::from(link.0))));
            fields.push(("bytes", FieldValue::U64(*bytes)));
            fields.push(("capacity_bytes", FieldValue::U64(*capacity_bytes)));
        }
        IncidentKind::EcmpPolarisation {
            iface,
            share_pct,
            members,
            ..
        } => {
            fields.push(("iface", FieldValue::U64(u64::from(*iface))));
            fields.push(("share_pct", FieldValue::U64(*share_pct)));
            fields.push(("members", FieldValue::U64(*members)));
        }
    }
    trace_here(e, "incident", Some(site), fields);
}

/// Lands one health-plane watchdog firing: onto the canonical incident
/// timeline, the `health.incidents` counter, and the trace sink.
fn record_incident(e: &mut ControlPlaneEngine, inc: Incident) {
    if e.world.recorder.enabled() {
        e.world.recorder.counter_add("health.incidents", 1);
    }
    if e.world.recorder.trace_enabled() {
        trace_incident(e, &inc);
    }
    e.world
        .health
        .as_mut()
        .expect("incidents only fire with the health plane enabled")
        .incidents
        .push(inc);
}

/// Lands one traffic-plane (congestion) watchdog firing: onto the
/// traffic incident timeline, the `traffic.incidents` counter, and the
/// trace sink.
fn record_traffic_incident(e: &mut ControlPlaneEngine, inc: Incident) {
    if e.world.recorder.enabled() {
        e.world.recorder.counter_add("traffic.incidents", 1);
    }
    if e.world.recorder.trace_enabled() {
        trace_incident(e, &inc);
    }
    e.world
        .traffic
        .as_mut()
        .expect("congestion incidents only fire with the traffic plane enabled")
        .incidents
        .push(inc);
}

/// One traffic round: run the congestion watchdogs over the utilisation
/// residue, launch this round's sampled flows from locally owned
/// sources, and schedule the next tick.
///
/// In parallel mode every shard fires the identical (replicated) tick.
/// Flow sampling is a pure function of `(seed, round)` over the
/// replicated population, so all shards agree on the plan and each
/// launches exactly the flows whose source it owns; the link/ECMP
/// residues a shard holds are exactly those of its owned devices, so
/// each watchdog verdict is computed on exactly one shard and the union
/// is the serial behavior. Each shard also schedules its own copy of
/// the next tick (same time, same key); the join keeps shard 0's copy,
/// exactly like link-state broadcasts.
fn traffic_tick(e: &mut ControlPlaneEngine, round: u64) {
    let now = e.now();
    let Some(t) = e.world.traffic.as_ref() else {
        return;
    };
    let period = t.cfg.period;
    let fpr = t.cfg.flows_per_round as u64;
    let ttl = t.cfg.ttl;
    let capacity_bytes = t.cfg.capacity_bytes_per_period();
    let oversub_pct = u64::from(t.cfg.oversub_pct);
    let polarisation_pct = u64::from(t.cfg.polarisation_pct);
    let polarisation_min = t.cfg.polarisation_min_bytes;
    let plan: Vec<(DeviceId, Ipv4Addr, DeviceId, Ipv4Addr, u64)> = t
        .sample_flows(round)
        .iter()
        .map(|f| {
            let (sd, sa) = t.population[f.src];
            let (dd, da) = t.population[f.dst];
            (sd, sa, dd, da, f.bytes)
        })
        .collect();

    // Over-subscription watchdog: bytes per directional link since the
    // previous tick against the capacity threshold. The residue maps
    // hold only locally-owned transmitting devices, so every verdict is
    // computed on exactly one world.
    let incidents: Vec<Incident> = {
        let t = e.world.traffic.as_mut().expect("checked above");
        let tx_residue = std::mem::take(&mut t.tx_since_tick);
        let ecmp_residue = std::mem::take(&mut t.ecmp_since_tick);
        let mut fired = Vec::new();
        for (&(dev, link), &bytes) in &tx_residue {
            let peak = t.link_peak.entry((dev, link)).or_insert(0);
            *peak = (*peak).max(bytes);
            if bytes * 100 > oversub_pct * capacity_bytes {
                fired.push(Incident {
                    at: now,
                    src: dev,
                    dst: dev,
                    seq: (0b101 << 61) | (u64::from(dev.0) << 24) | u64::from(link.0 & 0xff_ffff),
                    kind: IncidentKind::LinkOversubscribed {
                        link,
                        device: dev,
                        bytes,
                        capacity_bytes,
                    },
                });
            }
        }
        // Polarisation watchdog: one member of a ≥2-member ECMP group
        // absorbing more than the threshold share of the device's
        // hashed bytes over a non-trivial sample.
        for (&dev, res) in &ecmp_residue {
            let total: u64 = res.by_iface.values().sum();
            if res.members_max < 2 || total < polarisation_min {
                continue;
            }
            let (hot_iface, hot_bytes) = res
                .by_iface
                .iter()
                .map(|(i, b)| (*i, *b))
                .max_by_key(|&(i, b)| (b, std::cmp::Reverse(i)))
                .expect("residue entries are non-empty");
            if hot_bytes * 100 > polarisation_pct * total {
                fired.push(Incident {
                    at: now,
                    src: dev,
                    dst: dev,
                    seq: (0b110 << 61) | (u64::from(dev.0) << 8) | u64::from(hot_iface & 0xff),
                    kind: IncidentKind::EcmpPolarisation {
                        device: dev,
                        iface: hot_iface,
                        share_pct: hot_bytes * 100 / total,
                        members: res.members_max,
                    },
                });
            }
        }
        fired
    };
    for inc in incidents {
        record_traffic_incident(e, inc);
    }

    let cause = e.current_event();
    for (i, (src, src_addr, dst, dst_addr, bytes)) in plan.into_iter().enumerate() {
        // Only the world holding the source's OS launches: in a shard
        // world that is the owner, serially it is everyone.
        if e.world.oses[src.index()].is_none() {
            continue;
        }
        let flow_seq = round * fpr + i as u64;
        {
            let t = e.world.traffic.as_mut().expect("checked above");
            t.flows_sent += 1;
            t.bytes_offered += bytes;
        }
        if e.world.recorder.enabled() {
            e.world.recorder.counter_add("traffic.flows_sent", 1);
            e.world.recorder.counter_add("traffic.bytes_offered", bytes);
        }
        e.schedule_event_at(
            now,
            HarnessEvent {
                key: flow_hop_key(flow_seq, 0),
                cause,
                kind: HarnessEventKind::FlowHop {
                    src,
                    src_addr,
                    dst,
                    dst_addr,
                    dev: src,
                    ingress: None,
                    ttl,
                    flow_seq,
                    bytes,
                    rerouted: false,
                    path_ns: 0,
                },
            },
        );
    }

    e.schedule_event_at(
        now + period,
        HarnessEvent {
            key: TRAFFIC_TICK_KEY | (round + 1),
            cause: None,
            kind: HarnessEventKind::TrafficTick { round: round + 1 },
        },
    );
}

/// One flow at one device: the same [`decide`] walk a probe makes, but
/// the flow's `identification` is its sequence number — so ECMP's
/// 5-tuple hash spreads concurrent flows over group members — and every
/// traversed link is charged the flow's bytes for the utilisation
/// gauges and congestion residues. Lost flows feed the flow SLO
/// windows; the *witness*-producing gray-failure watchdogs stay the
/// probe mesh's job (a loss here is never double-reported as a
/// blackhole).
#[allow(clippy::too_many_arguments)]
fn flow_hop(
    e: &mut ControlPlaneEngine,
    src: DeviceId,
    src_addr: Ipv4Addr,
    dst: DeviceId,
    dst_addr: Ipv4Addr,
    dev: DeviceId,
    ingress: Option<u32>,
    ttl: u8,
    flow_seq: u64,
    bytes: u64,
    rerouted: bool,
    path_ns: u64,
) {
    let now = e.now();
    let Some(cfg_ttl) = e.world.traffic.as_ref().map(|t| t.cfg.ttl) else {
        return;
    };
    let hop_index = u32::from(cfg_ttl.saturating_sub(ttl));

    // Resolve the forwarding decision under a scoped world borrow; the
    // accounting facts (matched prefix, next-hop digest, group size,
    // chosen egress) are collected here and charged afterwards.
    let (step, acct, egress) = {
        let world = &mut e.world;
        let idx = dev.index();
        match world.oses[idx].as_deref() {
            None => (HopStep::Lost(ProbeOutcome::DeviceDown, None), None, None),
            Some(os) if !world.booted[idx] || os.is_down() => {
                (HopStep::Lost(ProbeOutcome::DeviceDown, None), None, None)
            }
            Some(os) if world.fwd_disabled.contains(&dev) => {
                let outcome = if os.fib().lookup(dst_addr).is_some() {
                    ProbeOutcome::Blackhole
                } else {
                    ProbeOutcome::NoRoute
                };
                (HopStep::Lost(outcome, None), None, None)
            }
            Some(os) => {
                let pkt = Ipv4Packet {
                    src: src_addr,
                    dst: dst_addr,
                    protocol: crystalnet_dataplane::ipproto::TCP,
                    ttl,
                    identification: flow_seq as u16,
                    payload: bytes::Bytes::new(),
                };
                let locals = os.local_addrs();
                let decision = decide(os.fib(), locals, &pkt, |s, d| {
                    os.filter_permits(ingress, s, d)
                });
                let acct = os
                    .fib()
                    .lookup(dst_addr)
                    .map(|(p, entry)| (p, entry_sig(entry), entry.next_hops.len()));
                let (step, egress) = match decision {
                    ForwardDecision::Deliver => (HopStep::Delivered, None),
                    ForwardDecision::DropTtlExpired => {
                        (HopStep::Lost(ProbeOutcome::TtlExpired, None), None)
                    }
                    ForwardDecision::DropNoRoute => {
                        (HopStep::Lost(ProbeOutcome::NoRoute, None), None)
                    }
                    ForwardDecision::DropAcl => (HopStep::Lost(ProbeOutcome::AclDrop, None), None),
                    ForwardDecision::Forward(hop) => {
                        if hop.iface == crate::bgp::LOCAL_IFACE {
                            (HopStep::Delivered, None)
                        } else {
                            match world.adjacency[idx].get(hop.iface as usize) {
                                Some(Some(adj)) => {
                                    if world.link_up.get(&adj.link).copied().unwrap_or(false) {
                                        (
                                            HopStep::Forward {
                                                next_dev: adj.remote_dev,
                                                next_iface: adj.remote_iface,
                                                link: adj.link,
                                            },
                                            Some((adj.link, hop.iface)),
                                        )
                                    } else {
                                        // FIB points at a dead link: the
                                        // flow dies where a probe would.
                                        (HopStep::Lost(ProbeOutcome::Blackhole, None), None)
                                    }
                                }
                                _ => (HopStep::Lost(ProbeOutcome::NoRoute, None), None),
                            }
                        }
                    }
                };
                (step, acct, egress)
            }
        }
    };

    // Charge the reroute detector on every observation, the link and
    // ECMP residues only on actual transmission. All keys are owned by
    // `dev`, whose shard is executing this hop.
    let mut rerouted = rerouted;
    if let Some((prefix, sig, members)) = acct {
        let t = e.world.traffic.as_mut().expect("checked above");
        rerouted |= t.note_route(dev, prefix, sig);
        if let Some((link, iface)) = egress {
            *t.tx_since_tick.entry((dev, link)).or_insert(0) += bytes;
            *t.link_bytes.entry((dev, link)).or_insert(0) += bytes;
            if members >= 2 {
                let res = t.ecmp_since_tick.entry(dev).or_default();
                *res.by_iface.entry(iface).or_insert(0) += bytes;
                res.members_max = res.members_max.max(members as u64);
            }
        }
    }

    match step {
        HopStep::Forward {
            next_dev,
            next_iface,
            link,
        } => {
            let delay = e.world.work.link_delay(link, now);
            let arrive = now + delay;
            let cause = e.current_event();
            schedule_probe(
                e,
                arrive,
                next_dev,
                HarnessEvent {
                    key: flow_hop_key(flow_seq, hop_index + 1),
                    cause,
                    kind: HarnessEventKind::FlowHop {
                        src,
                        src_addr,
                        dst,
                        dst_addr,
                        dev: next_dev,
                        ingress: Some(next_iface),
                        ttl: ttl - 1,
                        flow_seq,
                        bytes,
                        rerouted,
                        path_ns: path_ns + delay.as_nanos(),
                    },
                },
            );
        }
        HopStep::Delivered | HopStep::Lost(..) => {
            let outcome = match &step {
                HopStep::Delivered => ProbeOutcome::Delivered,
                HopStep::Lost(o, _) => *o,
                HopStep::Forward { .. } => unreachable!(),
            };
            // The report returns to the source's shard, `path_ns` out —
            // lookahead-honest for the same reason probe reports are.
            let cause = e.current_event();
            schedule_probe(
                e,
                now + SimDuration::from_nanos(path_ns),
                src,
                HarnessEvent {
                    key: flow_report_key(flow_seq),
                    cause,
                    kind: HarnessEventKind::FlowReport {
                        src,
                        dst,
                        flow_seq,
                        outcome,
                        bytes,
                        rerouted,
                        path_ns,
                    },
                },
            );
        }
    }
}

/// A flow's fate lands on its source's gauges: per-pair counts, the
/// rolling flow SLO window (with the breach watchdog on the
/// transition), byte totals, and the rerouted-during-transient counter.
#[allow(clippy::too_many_arguments)]
fn flow_report(
    e: &mut ControlPlaneEngine,
    src: DeviceId,
    dst: DeviceId,
    flow_seq: u64,
    outcome: ProbeOutcome,
    bytes: u64,
    rerouted: bool,
    path_ns: u64,
) {
    let now = e.now();
    let Some(t) = e.world.traffic.as_mut() else {
        return;
    };
    let (slo_window, slo_loss_pct) = (t.cfg.slo_window, t.cfg.slo_loss_pct);
    let delivered = outcome.delivered();
    let stats = t.pairs.entry((src, dst)).or_default();
    let fired = stats.record_windowed(delivered, path_ns, slo_window, slo_loss_pct);
    let window_lost = stats.window_lost();
    if delivered {
        t.flows_delivered += 1;
        t.bytes_delivered += bytes;
    } else {
        t.flows_lost += 1;
        t.bytes_lost += bytes;
    }
    if rerouted {
        t.flows_rerouted += 1;
    }
    if e.world.recorder.enabled() {
        let rec = &mut *e.world.recorder;
        if delivered {
            rec.counter_add("traffic.flows_delivered", 1);
            rec.counter_add("traffic.bytes_delivered", bytes);
        } else {
            rec.counter_add("traffic.flows_lost", 1);
            rec.counter_add("traffic.bytes_lost", bytes);
        }
        if rerouted {
            rec.counter_add("traffic.flows_rerouted", 1);
        }
    }
    if fired {
        record_traffic_incident(
            e,
            Incident {
                at: now,
                src,
                dst,
                seq: (1 << 61) | flow_seq,
                kind: IncidentKind::FlowSloBreach {
                    window_lost,
                    window: slo_window as u64,
                },
            },
        );
    }
}

/// Classifies a frame into the canonical counter set. `sent` selects the
/// TX names (counted after the link-up check in [`dispatch`]) versus the
/// RX names (counted at delivery); both sets are world facts that the
/// parallel replay reproduces bit-identically.
fn record_frame(rec: &mut dyn Recorder, frame: &Frame, sent: bool) {
    let (frames, opens, updates, keepalives, notifications) = if sent {
        (
            "routing.frames_sent",
            "routing.bgp_opens_sent",
            "routing.bgp_updates_sent",
            "routing.bgp_keepalives_sent",
            "routing.bgp_notifications_sent",
        )
    } else {
        (
            "routing.frames_delivered",
            "routing.bgp_opens_received",
            "routing.bgp_updates_received",
            "routing.bgp_keepalives_received",
            "routing.bgp_notifications_received",
        )
    };
    rec.counter_add(frames, 1);
    if let Frame::Bgp(msg) = frame {
        match msg {
            BgpMsg::Open { .. } => rec.counter_add(opens, 1),
            BgpMsg::Update {
                announced,
                withdrawn,
            } => {
                rec.counter_add(updates, 1);
                if sent {
                    rec.counter_add("routing.bgp_prefixes_announced", announced.len() as u64);
                    rec.counter_add("routing.bgp_prefixes_withdrawn", withdrawn.len() as u64);
                }
            }
            BgpMsg::Keepalive => rec.counter_add(keepalives, 1),
            BgpMsg::Notification { .. } => rec.counter_add(notifications, 1),
            BgpMsg::RouteRefresh => rec.counter_add(
                if sent {
                    "routing.bgp_refreshes_sent"
                } else {
                    "routing.bgp_refreshes_received"
                },
                1,
            ),
        }
    }
}

/// Builds a harness where every device in `topo` runs a BGP firmware
/// image generated from its production configuration, with the vendor
/// profile chosen by `profile_for`.
///
/// Devices for which `profile_for` returns `None` get no OS (useful for
/// leaving externals dark or substituting speakers).
pub fn build_bgp_sim(
    topo: &Topology,
    work: Box<dyn WorkModel>,
    mut profile_for: impl FnMut(
        DeviceId,
        &crystalnet_net::Device,
    ) -> Option<crate::vendor::VendorProfile>,
) -> ControlPlaneSim {
    let mut sim = ControlPlaneSim::new(topo, work);
    for (id, dev) in topo.devices() {
        if let Some(profile) = profile_for(id, dev) {
            let cfg = crystalnet_config::generate_device(topo, id);
            let os = crate::bgp::BgpRouterOs::new(profile, cfg, dev.loopback);
            sim.add_os(id, Box::new(os));
        }
    }
    sim
}

/// [`build_bgp_sim`] with every device (externals included) running the
/// released profile of its own vendor — the "production ground truth"
/// configuration used for speaker synthesis and differential validation.
pub fn build_full_bgp_sim(topo: &Topology, work: Box<dyn WorkModel>) -> ControlPlaneSim {
    build_bgp_sim(topo, work, |_, dev| {
        Some(crate::vendor::VendorProfile::for_vendor(dev.vendor))
    })
}
