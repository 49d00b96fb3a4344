//! Incremental operation rehearsal: config-diff-driven re-convergence.
//!
//! The Fig. 3 validation loop re-runs "apply change → inspect" many times
//! against one mockup. Rebuilding the emulation for every step would pay
//! the full route-ready cost each time (§8.2: minutes to hours at L-DC
//! scale), so [`EmulationFork::apply`](crate::EmulationFork::apply)
//! instead:
//!
//! 1. classifies each change ([`classify_diff`]) — a no-op diff touches
//!    nothing, a policy edit soft-refreshes the live session (RFC 2918
//!    route refresh), only neighbor/interface/platform changes pay a
//!    session reset;
//! 2. predicts the **dirty set** of devices the change can reach by
//!    walking adjacency with speakers as barriers and a per-seed
//!    [`RippleScope`] bound
//!    ([`dirty_region_scoped`](crystalnet_net::dirty_region_scoped())) —
//!    static speakers never react (§5), so a ripple legally stops
//!    there, and structurally bounded changes (an ACL-only refresh, a
//!    single link drain) stay inside their pod instead of flooding the
//!    fabric. The FIB diff is computed over the *full* emulated scope,
//!    so the prediction is audited, not trusted: any mutation landing
//!    outside it is counted in
//!    `core.apply_change.fib_changes_outside_dirty`;
//! 3. re-converges the existing sim on the same sharded executor while
//!    untouched devices keep their interned RIB/FIB state; and
//! 4. returns a typed [`ConvergenceDelta`]: per-device FIB
//!    adds/removes/modifies with provenance digests, the dirty-set size,
//!    and the virtual/wall cost of the step.
//!
//! The warm-start result is **bit-identical** to a cold full re-settle
//! from the same seed (`crates/core/tests/incremental.rs` proves it per
//! change kind, across worker counts): the event engine is deterministic
//! and quiescent state carries no pending work, so resuming it is
//! equivalent to replaying history.

use crate::emulation::{converge, Emulation, EmulationError};
use crate::metrics::JournalKind;
use crystalnet_config::{
    classify_diff, classify_ripple, config_diff, Change, ChangeImpact, ChangeSet, DeviceConfig,
};
use crystalnet_dataplane::NextHop;
use crystalnet_net::{dirty_region_scoped, DeviceId, Ipv4Prefix, LinkId, RippleScope};
use crystalnet_routing::{FibView, MgmtCommand, PathAttrs, SpeakerOs, SpeakerScript};
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_telemetry::FieldValue;
use std::collections::{BTreeMap, BTreeSet};

/// How one prefix's FIB entry changed across an
/// [`EmulationFork::apply`](crate::EmulationFork::apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibChangeKind {
    /// The prefix was not installed before and is now.
    Added,
    /// The prefix was installed before and is gone.
    Removed,
    /// The prefix stayed installed but its ECMP set changed.
    Modified,
}

impl FibChangeKind {
    /// Stable lowercase label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FibChangeKind::Added => "added",
            FibChangeKind::Removed => "removed",
            FibChangeKind::Modified => "modified",
        }
    }
}

/// One FIB mutation observed on one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibChange {
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Add / remove / modify.
    pub kind: FibChangeKind,
    /// The ECMP set *after* the change (empty for [`FibChangeKind::Removed`]).
    pub next_hops: Vec<NextHop>,
    /// Provenance digest of the route behind the entry (PR 4's causal
    /// chain): the new route's digest for adds/modifies, the old route's
    /// for removes. `None` when the OS keeps no provenance (speakers).
    pub prov_digest: Option<u64>,
}

/// What an apply did with one [`Change`] of the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedChange {
    /// The change kind label ([`Change::kind`]).
    pub kind: &'static str,
    /// The device the change targeted, when it targets one.
    pub device: Option<DeviceId>,
    /// For config updates: the diff classification that picked the
    /// mechanism (no-op / soft refresh / session reset).
    pub impact: Option<ChangeImpact>,
}

/// The typed result of one incremental re-convergence step.
///
/// Everything except [`ConvergenceDelta::wall`] is a deterministic
/// world fact: identical across repetitions and `workers` values for the
/// same seed and change history.
#[derive(Debug, Clone)]
pub struct ConvergenceDelta {
    /// What was applied, in change-set order.
    pub applied: Vec<AppliedChange>,
    /// The predicted dirty set: devices the change is structurally
    /// expected to reach (scoped ripple walk), in id order. A reporting
    /// aid, not a correctness bound — [`Self::fib_changes`] is diffed
    /// over the full emulated scope regardless.
    pub dirty: Vec<DeviceId>,
    /// Virtual time when the step reached route quiescence.
    pub settled_at: SimTime,
    /// Virtual time the step cost (settled minus the pre-step clock).
    pub virtual_cost: SimDuration,
    /// Simulation events executed by the step.
    pub events_executed: u64,
    /// Wall-clock cost of the step (the number `BENCH_incremental.json`
    /// compares against a full re-settle).
    pub wall: std::time::Duration,
    /// Per-device FIB mutations over the full emulated scope,
    /// prefix-sorted. Authoritative: computed independently of the
    /// predicted dirty set, so a too-narrow prediction can never hide a
    /// mutation (misses are counted in
    /// `core.apply_change.fib_changes_outside_dirty`).
    pub fib_changes: BTreeMap<DeviceId, Vec<FibChange>>,
    /// Health-plane probes launched while the step converged (zero when
    /// the health plane is off). With the probe mesh on, a rehearsed
    /// change reports *its own* SLO impact: how much traffic the
    /// transient would have hurt.
    pub probes_sent: u64,
    /// Health-plane probes lost during the step's transient.
    pub probes_lost: u64,
    /// Watchdog incidents fired during the step (health and congestion
    /// watchdogs combined).
    pub incidents: u64,
    /// Traffic-plane flows launched while the step converged (zero when
    /// the traffic plane is off). With traffic on, a rehearsed change
    /// reports what the transient did to *user load*, not just probes.
    pub flows_sent: u64,
    /// Flows lost during the step's transient.
    pub flows_lost: u64,
    /// Flows that completed during the step but crossed a device whose
    /// route had changed mid-flight — traffic rerouted by the change.
    pub flows_rerouted: u64,
}

impl ConvergenceDelta {
    /// Total FIB mutations across all devices.
    #[must_use]
    pub fn total_fib_changes(&self) -> usize {
        self.fib_changes.values().map(Vec::len).sum()
    }

    /// Whether the step touched nothing (empty or no-op change set).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.dirty.is_empty()
    }

    /// One-line human summary for rehearsal logs.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} change(s) -> {} dirty device(s), {} FIB change(s), {:?} virtual",
            self.applied.len(),
            self.dirty.len(),
            self.total_fib_changes(),
            self.virtual_cost,
        );
        if self.probes_sent > 0 {
            s.push_str(&format!(
                "; SLO impact: {}/{} probe(s) lost, {} incident(s)",
                self.probes_lost, self.probes_sent, self.incidents,
            ));
        }
        if self.flows_sent > 0 {
            s.push_str(&format!(
                "; traffic impact: {}/{} flow(s) lost, {} rerouted",
                self.flows_lost, self.flows_sent, self.flows_rerouted,
            ));
        }
        s
    }
}

/// One named step of a multi-step rehearsal plan.
#[derive(Debug, Clone)]
pub struct RehearsalStep {
    /// Operator-facing step name ("drain T1", "tighten import policy").
    pub name: String,
    /// The changes the step applies.
    pub changes: ChangeSet,
}

impl RehearsalStep {
    /// A named step.
    #[must_use]
    pub fn new(name: impl Into<String>, changes: ChangeSet) -> Self {
        RehearsalStep {
            name: name.into(),
            changes,
        }
    }
}

/// The per-step results of [`Emulation::rehearse`].
#[derive(Debug, Clone, Default)]
pub struct RehearsalReport {
    /// `(step name, delta)` in execution order.
    pub steps: Vec<(String, ConvergenceDelta)>,
}

impl RehearsalReport {
    /// Total FIB mutations across all steps.
    #[must_use]
    pub fn total_fib_changes(&self) -> usize {
        self.steps.iter().map(|(_, d)| d.total_fib_changes()).sum()
    }

    /// Multi-line human summary, one line per step.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, delta) in &self.steps {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(&delta.summary());
            out.push('\n');
        }
        out
    }
}

/// A validated, ready-to-inject plan for one [`Change`].
enum Planned {
    Config {
        dev: DeviceId,
        cfg: Box<DeviceConfig>,
        impact: ChangeImpact,
    },
    LinkDown(LinkId),
    LinkUp(LinkId),
    Remove(DeviceId),
    SpeakerSwap {
        dev: DeviceId,
        scripts: Vec<(u32, SpeakerScript)>,
    },
}

impl Emulation {
    /// Applies a change set in place and re-converges only the devices
    /// it can affect — the mechanism behind
    /// [`EmulationFork::apply`](crate::EmulationFork::apply), which runs
    /// it on a fork's child (see there for the per-kind semantics).
    /// Nothing is mutated until the whole set validates.
    pub(crate) fn apply_change(
        &mut self,
        changes: &ChangeSet,
    ) -> Result<ConvergenceDelta, EmulationError> {
        let wall_start = std::time::Instant::now();
        let start = self.now();
        let mark = self.sim.engine.checkpoint();
        // Health-plane totals before the step: the diff after settle is
        // the step's own SLO impact (zeros when the plane is off).
        let health_before = self
            .sim
            .health()
            .map(|h| (h.probes_sent, h.probes_lost, h.incidents.len() as u64))
            .unwrap_or_default();
        // Same trick for the traffic plane: the step's own flow losses
        // and reroutes are the totals' diff across the settle.
        let traffic_before = self
            .sim
            .traffic()
            .map(|t| {
                (
                    t.flows_sent,
                    t.flows_lost,
                    t.flows_rerouted,
                    t.incidents.len() as u64,
                )
            })
            .unwrap_or_default();

        // ---- Validate everything before mutating anything. ----
        let mut planned = Vec::new();
        let mut applied = Vec::new();
        let mut seeds: Vec<(DeviceId, RippleScope)> = Vec::new();
        for change in &changes.changes {
            match change {
                Change::ConfigUpdate { device, config } => {
                    let dev = *device;
                    self.guard(dev)?;
                    let old = self.effective_config(dev).ok_or_else(|| {
                        EmulationError::UnknownDevice(self.topo.device(dev).name.clone())
                    })?;
                    let diff = config_diff(old, config);
                    let impact = classify_diff(&diff);
                    if impact != ChangeImpact::NoOp {
                        seeds.push((dev, classify_ripple(&diff)));
                    }
                    applied.push(AppliedChange {
                        kind: change.kind(),
                        device: Some(dev),
                        impact: Some(impact),
                    });
                    planned.push(Planned::Config {
                        dev,
                        cfg: config.clone(),
                        impact,
                    });
                }
                Change::LinkDown(lid) | Change::LinkUp(lid) => {
                    if (lid.0 as usize) >= self.topo.link_count() {
                        return Err(EmulationError::UnknownLink(lid.0));
                    }
                    let (a, _, b, _, _) =
                        crystalnet_routing::ControlPlaneSim::link_endpoints(&self.topo, *lid);
                    if !self.sandboxes.contains_key(&a) || !self.sandboxes.contains_key(&b) {
                        return Err(EmulationError::UnknownLink(lid.0));
                    }
                    // A link flap changes reachability, but Clos ECMP
                    // redundancy keeps the blast radius inside the
                    // affected pod(s) plus the shared spine/border tier.
                    seeds.push((a, RippleScope::PodAndCore));
                    seeds.push((b, RippleScope::PodAndCore));
                    applied.push(AppliedChange {
                        kind: change.kind(),
                        device: None,
                        impact: None,
                    });
                    planned.push(if matches!(change, Change::LinkDown(_)) {
                        Planned::LinkDown(*lid)
                    } else {
                        Planned::LinkUp(*lid)
                    });
                }
                Change::DeviceRemove(dev) => {
                    let dev = *dev;
                    self.guard(dev)?;
                    seeds.push((dev, RippleScope::Fabric));
                    for n in self.topo.neighbor_devices(dev) {
                        if self.sandboxes.contains_key(&n) {
                            seeds.push((n, RippleScope::Fabric));
                        }
                    }
                    applied.push(AppliedChange {
                        kind: change.kind(),
                        device: Some(dev),
                        impact: None,
                    });
                    planned.push(Planned::Remove(dev));
                }
                Change::SpeakerRouteSwap { device, routes } => {
                    let dev = *device;
                    self.guard(dev)?;
                    let plan_entry = self
                        .prep
                        .speaker_plan
                        .scripts
                        .iter()
                        .find(|(d, _)| *d == dev)
                        .ok_or_else(|| {
                            EmulationError::UnknownDevice(self.topo.device(dev).name.clone())
                        })?;
                    let loopback = self.topo.device(dev).loopback;
                    let script = SpeakerScript {
                        routes: routes
                            .iter()
                            .map(|r| {
                                (
                                    r.prefix,
                                    PathAttrs {
                                        as_path: r.as_path.clone(),
                                        med: r.med,
                                        ..PathAttrs::originated(loopback)
                                    }
                                    .intern(),
                                )
                            })
                            .collect(),
                    };
                    let scripts: Vec<(u32, SpeakerScript)> = plan_entry
                        .1
                        .iter()
                        .map(|(iface, _)| (*iface, script.clone()))
                        .collect();
                    seeds.push((dev, RippleScope::Fabric));
                    applied.push(AppliedChange {
                        kind: change.kind(),
                        device: Some(dev),
                        impact: None,
                    });
                    planned.push(Planned::SpeakerSwap { dev, scripts });
                }
            }
        }

        // ---- Dirty set: scoped adjacency walk, speakers as barriers. ----
        let scope: BTreeSet<DeviceId> = self.sandboxes.keys().copied().collect();
        let barriers: BTreeSet<DeviceId> = self.classification.speakers().into_iter().collect();
        let dirty = dirty_region_scoped(&self.topo, &scope, &seeds, &barriers);

        // ---- Snapshot FIBs before injecting. The snapshot covers the
        // full emulated scope, not just the predicted dirty set, so the
        // reported diff is authoritative even if the prediction is short.
        let before = self.fib_views(&scope);

        // ---- Inject. ----
        let now = self.now();
        let mut did_work = false;
        for plan in planned {
            match plan {
                Planned::Config { dev, cfg, impact } => match impact {
                    ChangeImpact::NoOp => {}
                    ChangeImpact::SoftRefresh => {
                        self.config_overrides.insert(dev, (*cfg).clone());
                        self.sim.mgmt(dev, MgmtCommand::UpdatePolicy(cfg), now);
                        did_work = true;
                    }
                    ChangeImpact::SessionReset => {
                        self.reload(dev, *cfg, false);
                        did_work = true;
                    }
                },
                Planned::LinkDown(lid) => {
                    self.disconnect(lid);
                    did_work = true;
                }
                Planned::LinkUp(lid) => {
                    self.connect(lid);
                    did_work = true;
                }
                Planned::Remove(dev) => {
                    self.remove_device(dev, now);
                    did_work = true;
                }
                Planned::SpeakerSwap { dev, scripts } => {
                    self.swap_speaker(dev, scripts, now);
                    did_work = true;
                }
            }
        }

        // ---- Re-converge only if something was injected. ----
        let settled_at = if did_work {
            let deadline = start + self.options.deadline;
            converge(
                &mut self.sim,
                &self.topo,
                &self.sandboxes,
                &self.options,
                deadline,
            )
            .ok_or(EmulationError::NotConverged)?
        } else {
            start
        };

        // ---- Diff the full scope's FIBs (authoritative). ----
        let after = self.fib_views(&scope);
        let fib_changes = diff_snapshots(&before, &after);
        let outside_dirty = fib_changes.keys().filter(|d| !dirty.contains(d)).count() as u64;
        let (virtual_cost, events_executed) = self.sim.engine.cost_since(&mark);

        // The boundary memo must still agree with a fresh classification
        // everywhere the change reached (cheap audit instead of
        // re-running Algorithm 1 over the whole topology).
        debug_assert!(
            self.classification
                .validate_region(&self.topo, &self.emulated_now, dirty.iter())
                .is_none(),
            "incremental boundary memo diverged from fresh classification"
        );

        let health_after = self
            .sim
            .health()
            .map(|h| (h.probes_sent, h.probes_lost, h.incidents.len() as u64))
            .unwrap_or_default();
        let traffic_after = self
            .sim
            .traffic()
            .map(|t| {
                (
                    t.flows_sent,
                    t.flows_lost,
                    t.flows_rerouted,
                    t.incidents.len() as u64,
                )
            })
            .unwrap_or_default();
        let delta = ConvergenceDelta {
            applied,
            dirty: dirty.iter().copied().collect(),
            settled_at,
            virtual_cost,
            events_executed,
            wall: wall_start.elapsed(),
            fib_changes,
            probes_sent: health_after.0 - health_before.0,
            probes_lost: health_after.1 - health_before.1,
            incidents: (health_after.2 - health_before.2) + (traffic_after.3 - traffic_before.3),
            flows_sent: traffic_after.0 - traffic_before.0,
            flows_lost: traffic_after.1 - traffic_before.1,
            flows_rerouted: traffic_after.2 - traffic_before.2,
        };

        // Incident correlation reads this log: the change lands at its
        // application instant, described by its change kinds.
        if !delta.applied.is_empty() {
            let kinds: Vec<&'static str> = delta.applied.iter().map(|a| a.kind).collect();
            self.change_log
                .push((start, format!("change applied: {}", kinds.join(", "))));
        }

        let total = delta.total_fib_changes() as u64;
        let rec = &mut *self.sim.engine.world.recorder;
        if rec.profiling_enabled() {
            rec.profile_add(
                crystalnet_telemetry::profile::keys::APPLY,
                wall_start.elapsed().as_nanos() as u64,
            );
        }
        if rec.enabled() {
            rec.span("apply_change", None, start, settled_at);
            rec.counter_add("core.apply_change.steps", delta.applied.len() as u64);
            rec.counter_add("core.apply_change.dirty_devices", delta.dirty.len() as u64);
            rec.counter_add("core.apply_change.fib_changes", total);
            // Prediction misses: devices whose FIB moved outside the
            // predicted dirty set. Zero when the scope bound is honest.
            rec.counter_add("core.apply_change.fib_changes_outside_dirty", outside_dirty);
            rec.event(
                settled_at,
                "apply_change",
                vec![
                    ("changes", FieldValue::U64(delta.applied.len() as u64)),
                    ("dirty", FieldValue::U64(delta.dirty.len() as u64)),
                    ("fib_changes", FieldValue::U64(total)),
                ],
            );
        }
        Ok(delta)
    }

    /// Runs a multi-step rehearsal plan — the Fig. 3 loop's "apply the
    /// staged operation one step at a time, inspecting the blast radius
    /// after each" — stopping at the first step that fails.
    ///
    /// Implemented as a thin fork-per-step wrapper over the session API:
    /// each step runs on a fresh [`fork`](Emulation::fork) and is
    /// committed back on success. Forking replicates the engine position
    /// and every OS exactly, so the per-step deltas — and the final FIBs
    /// — are bit-identical to the old in-place path (the warm≡cold
    /// differential tests pin this).
    ///
    /// # Errors
    ///
    /// The first failing step's [`EmulationError`]; earlier steps remain
    /// applied, and the failing step's fork is committed too (a
    /// rehearsal that dies mid-plan leaves the mockup in the failed
    /// state for inspection, exactly like production would).
    pub fn rehearse(&mut self, plan: &[RehearsalStep]) -> Result<RehearsalReport, EmulationError> {
        let mut report = RehearsalReport::default();
        for step in plan {
            let mut fork = self.fork();
            match fork.apply(&step.changes) {
                Ok(delta) => {
                    report.steps.push((step.name.clone(), delta));
                    fork.commit(self);
                }
                Err(e) => {
                    fork.commit(self);
                    return Err(e);
                }
            }
        }
        Ok(report)
    }

    /// Decommissions one device mid-run: links drop, its pending events
    /// are discarded, its sandbox stops, and the boundary memo is patched
    /// in place.
    fn remove_device(&mut self, dev: DeviceId, at: SimTime) {
        for (lid, _, _) in self.topo.neighbors(dev).collect::<Vec<_>>() {
            let ep = crystalnet_routing::ControlPlaneSim::link_endpoints(&self.topo, lid);
            self.sim.link_down(ep, at);
        }
        self.sim.power_off(dev);
        self.sim.remove_device(dev);
        if let Some(sb) = self.sandboxes.remove(&dev) {
            self.engines[sb.vm].stop(sb.device);
            self.engines[sb.vm].stop(sb.phynet);
        }
        self.emulated_now.remove(&dev);
        self.classification
            .remove_device(&self.topo, &self.emulated_now, dev);
        self.config_overrides.remove(&dev);
        self.recovering_until.remove(&dev);
        let rec = &mut *self.sim.engine.world.recorder;
        if rec.enabled() {
            rec.event(
                at,
                "device_removed",
                vec![("device", FieldValue::U64(u64::from(dev.0)))],
            );
        }
    }

    /// Replaces a speaker's static announcement program: the old
    /// incarnation powers off (peers see link-down and flush), a fresh
    /// [`SpeakerOs`] with a bumped epoch boots, and peers resync against
    /// the new script.
    fn swap_speaker(&mut self, dev: DeviceId, scripts: Vec<(u32, SpeakerScript)>, at: SimTime) {
        self.sim.power_off(dev);
        let neighbor_links: Vec<_> = self.topo.neighbors(dev).map(|(lid, _, _)| lid).collect();
        for &lid in &neighbor_links {
            let ep = crystalnet_routing::ControlPlaneSim::link_endpoints(&self.topo, lid);
            self.sim.link_down(ep, at);
        }
        let info = self.topo.device(dev);
        let mut os = SpeakerOs::new(info.name.clone(), info.asn, info.loopback);
        for (iface, script) in &scripts {
            os.set_script(*iface, script.clone());
        }
        let epoch = *self
            .speaker_epochs
            .entry(dev)
            .and_modify(|e| *e += 1)
            .or_insert(1);
        os.set_epoch(epoch);
        self.journal_event(
            at,
            JournalKind::SpeakerRestarted {
                device: dev.0,
                epoch,
            },
        );
        self.sim.replace_os(dev, Box::new(os));
        self.sim.boot_device(dev, at);
        for &lid in &neighbor_links {
            let ep = crystalnet_routing::ControlPlaneSim::link_endpoints(&self.topo, lid);
            self.sim.link_up(ep, at);
        }
        self.speaker_overrides.insert(dev, scripts);
    }

    /// Shared FIB handles for a set of devices — O(devices) pointer
    /// copies. Devices with no OS (removed) get an empty view.
    pub(crate) fn fib_views(&self, devs: &BTreeSet<DeviceId>) -> FibViews {
        devs.iter()
            .map(|&dev| {
                let view = self
                    .sim
                    .os(dev)
                    .map_or_else(FibView::empty, |os| os.fib_view());
                (dev, view)
            })
            .collect()
    }
}

/// Per-device FIB handles: what a snapshot or an apply's before/after
/// capture holds instead of copied tables.
pub(crate) type FibViews = BTreeMap<DeviceId, FibView>;

/// Per-device diff of two FIB captures; devices with no mutations are
/// omitted, and devices absent from `after` diff against an empty table.
///
/// A device whose handles are pointer-equal was never written in
/// between and is skipped without a look at its entries, so the cost is
/// O(devices + entries of the tables that changed).
pub(crate) fn diff_snapshots(
    before: &FibViews,
    after: &FibViews,
) -> BTreeMap<DeviceId, Vec<FibChange>> {
    let empty = FibView::empty();
    let mut out = BTreeMap::new();
    for (&dev, old) in before {
        let new = after.get(&dev).unwrap_or(&empty);
        if old.same_fib(new) {
            continue;
        }
        let changes = diff_fibs(old, new);
        if !changes.is_empty() {
            out.insert(dev, changes);
        }
    }
    out
}

/// One device's FIB mutations, prefix-sorted. Provenance digests are
/// computed for changed entries only: the new route's for adds and
/// modifies, the old route's for removes.
fn diff_fibs(old: &FibView, new: &FibView) -> Vec<FibChange> {
    let digest = |view: &FibView, prefix| view.route_detail(prefix).map(|d| d.prov.digest());
    let mut changes = Vec::new();
    for (prefix, entry) in old.fib().iter() {
        match new.fib().get(prefix) {
            None => changes.push(FibChange {
                prefix,
                kind: FibChangeKind::Removed,
                next_hops: Vec::new(),
                prov_digest: digest(old, prefix),
            }),
            Some(new_entry) if new_entry != entry => changes.push(FibChange {
                prefix,
                kind: FibChangeKind::Modified,
                next_hops: new_entry.next_hops.to_vec(),
                prov_digest: digest(new, prefix),
            }),
            Some(_) => {}
        }
    }
    for (prefix, entry) in new.fib().iter() {
        if old.fib().get(prefix).is_none() {
            changes.push(FibChange {
                prefix,
                kind: FibChangeKind::Added,
                next_hops: entry.next_hops.to_vec(),
                prov_digest: digest(new, prefix),
            });
        }
    }
    changes.sort_by_key(|c| c.prefix);
    changes
}
