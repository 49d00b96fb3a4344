//! Copy-on-write emulation forks: the session-oriented rehearsal API.
//!
//! The Fig. 3 validation loop wants *many* candidate operations checked
//! against one faithfully emulated network without re-converging a
//! fresh mockup per plan — exactly the §8.2 cost the
//! incremental-validation story exists to avoid. Sessions do that:
//!
//! ```text
//! let fork = emu.fork();          // copy-on-write fork of the converged baseline
//! fork.apply(&changes)?;          // rehearse on the child
//! fork.diff_against_parent();     // what moved, relative to the baseline
//! fork.commit(&mut emu);          // adopt — or just drop the fork to roll back
//! ```
//!
//! A fork is **independent**: no change or fault applied to it can reach
//! the parent. It is also **cheap**: every route table (Loc-RIB, FIBs,
//! Adj-RIBs) and the telemetry trace ring sit behind `Arc`s and are
//! copied on write, so the fork copies pointers and the first write on
//! either side copies only the table it touches. A fork costs
//! O(devices + trace-ring chunks); an apply, a diff and a drop cost
//! O(tables touched). The immutable `Arc<PrepareOutput>` spine and the
//! interned `Arc<PathAttrs>`/`Arc<Provenance>` route entries are shared
//! as before. Forks are `Send`: N rehearsals can run on N worker threads
//! off one warm baseline.
//!
//! A fork is **exact**: the engine's clock, scheduling sequence, and
//! every queued event's `(time, key, seq)` rank are replicated, so a
//! change set applied on the fork converges bit-identically to the same
//! set applied in place. [`Emulation::rehearse`] is now a thin
//! fork-per-step wrapper, and the pre-existing warm≡cold differential
//! proofs hold unchanged.
//!
//! Dropping a fork *is* the rollback — there is no undo log to replay,
//! which subsumes the old plan-rollback item.

use crate::emulation::{Emulation, EmulationError, TableSizes};
use crate::faults::{FaultPlan, FaultReport};
use crate::rehearse::{diff_snapshots, ConvergenceDelta, FibChange, FibViews};
use crystalnet_config::ChangeSet;
use crystalnet_net::DeviceId;
use crystalnet_sim::SimTime;
use crystalnet_telemetry::{CowStats, MemRecorder};
use std::collections::{BTreeMap, BTreeSet};

/// Flat per-record estimate for trace-ring bytes: the record plus a
/// couple of typed fields.
const TRACE_RECORD_BYTES: u64 = 128;

/// What a fork captured from its parent, summarized.
///
/// The snapshot records the fork point — virtual time, queue residue,
/// RNG/epoch state — and holds per-device handles to the parent's FIB
/// and route-detail tables (not copies) as the anchor for
/// [`EmulationFork::diff_against_parent`]. The *live* state (OS
/// instances, sessions, cloud) lives in the forked child itself; this
/// struct is the stable, inspectable description of where the fork
/// branched.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Virtual time at the fork point.
    pub at: SimTime,
    /// Devices emulated at the fork point.
    pub devices: usize,
    /// Total installed FIB prefixes across those devices.
    pub fib_entries: usize,
    /// Total Loc-RIB prefixes across those devices.
    pub rib_entries: usize,
    /// Event-queue residue carried into the fork (pending events —
    /// typically protocol timers on a quiescent baseline).
    pub pending_events: usize,
    /// Events the parent had executed when the fork was taken (the
    /// fork's engine resumes from exactly this position).
    pub events_executed: u64,
    /// Speaker incarnation epochs at the fork point, in device order.
    pub speaker_epochs: BTreeMap<DeviceId, u64>,
    /// The run seed (boot/provisioning jitter derive from it).
    pub seed: u64,
    /// Per-device FIB handles — the diff anchor.
    pub(crate) fibs: FibViews,
}

impl Snapshot {
    /// One-line human summary for rehearsal logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "fork point at {:?}: {} device(s), {} FIB entries, {} pending event(s)",
            self.at, self.devices, self.fib_entries, self.pending_events
        )
    }
}

impl Emulation {
    /// Captures a [`Snapshot`] of the converged state: handles to the
    /// FIB/RIB tables, queue residue, and epoch/RNG position a fork
    /// would branch from. O(devices): no table is copied.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let scope: BTreeSet<DeviceId> = self.sandboxes.keys().copied().collect();
        let fibs = self.fib_views(&scope);
        let (mut rib_entries, mut fib_entries) = (0, 0);
        for &dev in &scope {
            if let Some(os) = self.sim.os(dev) {
                rib_entries += os.rib_size();
                fib_entries += os.fib().len();
            }
        }
        Snapshot {
            at: self.now(),
            devices: scope.len(),
            fib_entries,
            rib_entries,
            pending_events: self.sim.engine.events_pending(),
            events_executed: self.sim.engine.events_executed(),
            speaker_epochs: self.speaker_epochs.iter().map(|(&d, &e)| (d, e)).collect(),
            seed: self.options.seed,
            fibs,
        }
    }

    /// Forks the emulation: an independent child branched from the
    /// current converged state, wrapped in a rehearsal session.
    ///
    /// The child shares every route table and the trace ring with `self`
    /// until one side writes them, at which point the writer copies the
    /// one table it touches. Forking therefore costs O(devices +
    /// trace-ring chunks), not O(routes), and changes and faults applied
    /// to the child never perturb `self`. Take as many forks as you like
    /// — each is `Send` and can rehearse on its own worker thread.
    ///
    /// # Examples
    ///
    /// ```
    /// # use crystalnet::prelude::*;
    /// # use crystalnet::PlanOptions;
    /// # use crystalnet_net::fixtures::fig7;
    /// # let f = fig7();
    /// # let prep = prepare(&f.topo, &[], BoundaryMode::WholeNetwork,
    /// #     SpeakerSource::OriginatedOnly, &PlanOptions::default());
    /// let mut emu = mockup(Arc::new(prep), MockupOptions::builder().build());
    /// let lid = f.topo.links().next().map(|(lid, _)| lid).unwrap();
    ///
    /// // Rehearse a drain on a fork; the baseline stays warm and clean.
    /// let mut fork = emu.fork();
    /// let delta = fork.apply(&ChangeSet::new().link_down(lid))?;
    /// assert!(delta.total_fib_changes() > 0);
    /// assert_eq!(fork.diff_against_parent().len(),
    ///            fork.deltas()[0].fib_changes.len());
    ///
    /// drop(fork); // not convinced — rollback is just dropping the fork
    /// assert_eq!(emu.snapshot().fib_entries, emu.fork().base().fib_entries);
    /// # Ok::<(), EmulationError>(())
    /// ```
    #[must_use]
    pub fn fork(&self) -> EmulationFork {
        EmulationFork {
            base: self.snapshot(),
            child: self.fork_emulation(),
            deltas: Vec::new(),
        }
    }
}

/// A rehearsal session: one forked child plus the snapshot it branched
/// from.
///
/// Apply [`ChangeSet`]s and [`FaultPlan`]s to the child, inspect the
/// cumulative [`EmulationFork::diff_against_parent`], then either
/// [`commit`](EmulationFork::commit) the child over the parent or drop
/// the session to discard every step (drop ≡ rollback).
pub struct EmulationFork {
    child: Emulation,
    base: Snapshot,
    deltas: Vec<ConvergenceDelta>,
}

impl EmulationFork {
    /// Applies a change set to the forked child and re-converges only
    /// the devices the change can affect.
    ///
    /// Config updates go by their diff classification:
    ///
    /// * [`ChangeImpact::NoOp`](crystalnet_config::ChangeImpact::NoOp) —
    ///   nothing is injected; the change contributes nothing to the
    ///   dirty set.
    /// * [`ChangeImpact::SoftRefresh`](crystalnet_config::ChangeImpact::SoftRefresh)
    ///   — the new config is soft-applied over the live session
    ///   ([`MgmtCommand::UpdatePolicy`](crystalnet_routing::MgmtCommand::UpdatePolicy)):
    ///   policies rebind, exports refresh, and peers replay their
    ///   announcements (route refresh) so tightened import policy
    ///   re-filters without a session reset.
    /// * [`ChangeImpact::SessionReset`](crystalnet_config::ChangeImpact::SessionReset)
    ///   — the device reloads ([`Emulation::reload`], two-layer mode)
    ///   and pays real downtime.
    ///
    /// Link and topology changes map to their Table 2 operations;
    /// [`Change::SpeakerRouteSwap`](crystalnet_config::Change::SpeakerRouteSwap)
    /// rebuilds the speaker's static script with a bumped incarnation
    /// epoch so peers flush and resync. Nothing is mutated until the
    /// whole set validates.
    ///
    /// ```
    /// # use crystalnet::prelude::*;
    /// # use crystalnet::PlanOptions;
    /// # use crystalnet_net::fixtures::fig7;
    /// # let f = fig7();
    /// # let prep = prepare(&f.topo, &[], BoundaryMode::WholeNetwork,
    /// #     SpeakerSource::OriginatedOnly, &PlanOptions::default());
    /// let mut emu = mockup(Arc::new(prep), MockupOptions::builder().build());
    ///
    /// // Rehearse a link drain on a fork and inspect exactly what moved.
    /// let lid = f.topo.links().next().map(|(lid, _)| lid).unwrap();
    /// let mut fork = emu.fork();
    /// let delta = fork.apply(&ChangeSet::new().link_down(lid))?;
    /// assert!(!delta.dirty.is_empty());
    /// assert!(delta.total_fib_changes() > 0);
    /// fork.commit(&mut emu); // or drop `fork` to roll back
    /// # Ok::<(), EmulationError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] / [`EmulationError::UnknownLink`]
    /// for targets outside the emulation, the reachability guards for
    /// unreachable devices, and [`EmulationError::NotConverged`] if
    /// re-convergence misses the deadline. The fork stays usable after a
    /// validation error (nothing was mutated), and the parent is
    /// untouched in every case.
    pub fn apply(&mut self, changes: &ChangeSet) -> Result<ConvergenceDelta, EmulationError> {
        let delta = self.child.apply_change(changes)?;
        self.deltas.push(delta.clone());
        Ok(delta)
    }

    /// Injects a fault plan into the forked child (VM crashes, link-flap
    /// bursts, speaker crashes, delayed heartbeats) and lets its health
    /// monitor recover — without the parent ever noticing.
    ///
    /// # Errors
    ///
    /// Whatever [`Emulation::run_fault_plan`] answers — typically
    /// [`EmulationError::NotConverged`] when recovery misses the
    /// deadline.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<FaultReport, EmulationError> {
        self.child.run_fault_plan(plan)
    }

    /// Diffs the child's *current* FIBs against the parent's at the fork
    /// point: the cumulative blast radius of every step applied so far,
    /// per device, prefix-sorted. Devices with no mutations are omitted.
    #[must_use]
    pub fn diff_against_parent(&self) -> BTreeMap<DeviceId, Vec<FibChange>> {
        let scope: BTreeSet<DeviceId> = self.child.sandboxes.keys().copied().collect();
        diff_snapshots(&self.base.fibs, &self.child.fib_views(&scope))
    }

    /// The snapshot this session branched from.
    #[must_use]
    pub fn base(&self) -> &Snapshot {
        &self.base
    }

    /// The per-step deltas of every successful [`EmulationFork::apply`],
    /// in application order.
    #[must_use]
    pub fn deltas(&self) -> &[ConvergenceDelta] {
        &self.deltas
    }

    /// Read access to the forked child (pull reports, traces, states —
    /// the whole monitor surface works on it).
    #[must_use]
    pub fn emulation(&self) -> &Emulation {
        &self.child
    }

    /// Mutable access to the forked child, for control-surface calls the
    /// session does not wrap (packet injection, `login_and_run`, …).
    pub fn emulation_mut(&mut self) -> &mut Emulation {
        &mut self.child
    }

    /// Estimates the fork's copy-on-write sharing: bytes the child
    /// still shares with the parent versus bytes it owns alone.
    ///
    /// Shared: the `Arc<PrepareOutput>` spine, the process-wide interned
    /// path-attribute pool, every device table whose handle is still the
    /// base snapshot's, and trace-ring chunks another emulation (the
    /// parent, a sibling fork) also holds.
    /// Copied: the tables the child has written since the fork, its own
    /// ring chunks, and the event-queue residue. Entry counts ×
    /// struct-size estimates, not allocator measurements — computed on
    /// demand, so an unused fork costs nothing extra.
    #[must_use]
    pub fn cow_stats(&self) -> CowStats {
        let mem = self.child.memory_section(None);
        // The immutable prepare spine: configs, topology tables, VM
        // plan. Flat per-record estimates, like the memory section's.
        let prep = &self.child.prep;
        let mut stats = CowStats {
            shared_bytes: prep.configs.len() as u64 * 256
                + prep.topo.device_count() as u64 * 128
                + prep.topo.link_count() as u64 * 64
                + mem.interner.table_bytes,
            copied_bytes: mem.event_queue.residue_bytes,
        };
        let mut count = |shared: bool, bytes: u64| {
            if shared {
                stats.shared_bytes += bytes;
            } else {
                stats.copied_bytes += bytes;
            }
        };
        for (&dev, base) in &self.base.fibs {
            let Some(os) = self.child.sim.os(dev) else {
                continue;
            };
            let sizes = TableSizes::of(os);
            let now = os.fib_view();
            count(base.same_details(&now), sizes.rib_bytes);
            count(base.same_fib(&now), sizes.fib_bytes);
        }
        let recorder = &*self.child.sim.engine.world.recorder;
        if let Some(sink) = MemRecorder::from_recorder(recorder).and_then(MemRecorder::trace_sink) {
            let shared = sink.shared_len() as u64;
            count(true, shared * TRACE_RECORD_BYTES);
            count(false, (sink.len() as u64 - shared) * TRACE_RECORD_BYTES);
        }
        stats
    }

    /// [`Emulation::pull_report`] on the forked child, with the memory
    /// section's `fork_cow` block filled in (profiling runs only).
    #[must_use]
    pub fn pull_report(&self) -> crystalnet_telemetry::RunReport {
        let mut report = self.child.pull_report();
        if let Some(memory) = report.memory.as_mut() {
            memory.fork_cow = Some(self.cow_stats());
        }
        report
    }

    /// Commits the session: the parent *becomes* the child, adopting
    /// every applied step. Returns the per-step deltas.
    ///
    /// Commit targets the emulation the fork came from; committing over
    /// an unrelated emulation is not detected (the child simply replaces
    /// it wholesale).
    pub fn commit(self, parent: &mut Emulation) -> Vec<ConvergenceDelta> {
        *parent = self.child;
        self.deltas
    }

    /// Unwraps the session into the bare child emulation (for promoting
    /// a fork to a standalone baseline instead of committing it back).
    #[must_use]
    pub fn into_emulation(self) -> Emulation {
        self.child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time `Send` audit: forks must be movable to worker
    /// threads, which is the whole point of the `Rc` → `Arc` spine
    /// conversion.
    #[test]
    fn forks_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Emulation>();
        assert_send::<EmulationFork>();
        assert_send::<Snapshot>();
    }
}
