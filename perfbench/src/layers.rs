//! The per-layer metric set: one fixed list, filled from the traced run.
//!
//! Every workload reports every name; a layer a workload does not reach
//! reads 0. Counts are taken over fixed, seeded work (the set-up, or
//! the first `PIN` operations), so they repeat exactly for a seed; times
//! come from the program's own profile (`profiling(true)`, read through
//! `pull_report()`) or from the benchmark's spans around public calls.

use crate::packets::PacketStats;
use crate::util::{ratio, Metrics};
use crystalnet::prelude::*;
use std::time::Duration;

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.prepare.ms", "ms"),
    ("core.mockup.ms", "ms"),
    ("core.mockup.converge_ms", "ms"),
    ("core.mockup.orchestrate_ms", "ms"),
    ("sim.engine.run_ms", "ms"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.queue_high_water", "count"),
    ("routing.bgp.route_ops", "count"),
    ("routing.bgp.updates", "count"),
    ("routing.bgp.ns_per_route_op", "ns"),
    ("routing.bgp.fib_useful_ratio", "ratio"),
    ("routing.intern.hit_ratio", "ratio"),
    ("memory.rib_kib", "KiB"),
    ("memory.fib_kib", "KiB"),
    ("memory.interner_kib", "KiB"),
    ("core.session.snapshot_ms", "ms"),
    ("core.session.fork_ms", "ms"),
    ("core.session.drop_ms", "ms"),
    ("core.session.commit_ms", "ms"),
    ("core.session.cow_shared_ratio", "ratio"),
    ("core.rehearse.apply_ms", "ms"),
    ("core.rehearse.diff_ms", "ms"),
    ("core.rehearse.dirty_devices", "count"),
    ("core.rehearse.fib_changes", "count"),
    ("core.rehearse.dirty_useful_ratio", "ratio"),
    ("routing.harness.trace_packet_us", "us"),
    ("dataplane.fib.lookup_ns", "ns"),
    ("core.emulation.trace_capture_us", "us"),
    ("core.emulation.pull_packets_us", "us"),
    ("core.emulation.pull_states_us", "us"),
    ("packet.hops_mean", "hops"),
    ("routing.health.probes", "count"),
    ("routing.traffic.flows", "count"),
    ("routing.traffic.delivered_ratio", "ratio"),
    ("core.emulation.advance_ms", "ms"),
    ("core.emulation.watch_rate", "vs/s"),
    ("routing.walk.ns_per_walk", "ns"),
    ("core.health.incidents", "count"),
    ("core.health.correlated_ratio", "ratio"),
    ("core.health.export_ms", "ms"),
    ("bench.warmup_ops", "count"),
    ("bench.span_coverage_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Orders `m` as [`LAYER_METRICS`], filling unreached layers with 0.
pub fn complete(m: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in LAYER_METRICS {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// Layers of one profiled set-up: `Prepare`, the mockup's profile
/// split, and the memory section of its report.
pub fn setup_layers(m: &mut Metrics, emu: &Emulation, prepare_wall: Duration) {
    let report = emu.pull_report();
    m.put("core.prepare.ms", prepare_wall.as_secs_f64() * 1e3, "ms");
    if let Some(profile) = &report.profile {
        let mockup = profile.wall_ns("core.mockup") as f64 / 1e6;
        let converge = profile.wall_ns("core.mockup.converge") as f64 / 1e6;
        m.put("core.mockup.ms", mockup, "ms");
        m.put("core.mockup.converge_ms", converge, "ms");
        m.put("core.mockup.orchestrate_ms", mockup - converge, "ms");
    }
    if let Some(mem) = &report.memory {
        m.put(
            "memory.rib_kib",
            mem.devices.rib_bytes as f64 / 1024.0,
            "KiB",
        );
        m.put(
            "memory.fib_kib",
            mem.devices.fib_bytes as f64 / 1024.0,
            "KiB",
        );
        m.put(
            "memory.interner_kib",
            mem.interner.table_bytes as f64 / 1024.0,
            "KiB",
        );
    }
    let diag = |k: &str| report.diagnostics.get(k).copied().unwrap_or(0) as f64;
    let (hits, misses) = (diag("routing.intern_hits"), diag("routing.intern_misses"));
    m.put(
        "routing.intern.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
}

/// Engine and BGP layers of a set-up mockup: the convergence that the
/// mdc-mockup workload measures.
pub fn mockup_engine_layers(m: &mut Metrics, emu: &Emulation) {
    let report = emu.pull_report();
    let run_ns = report
        .profile
        .as_ref()
        .map_or(0, |p| p.wall_ns("sim.engine.run")) as f64;
    let events = report
        .diagnostics
        .get("sim.engine.events_executed")
        .copied()
        .unwrap_or(0) as f64;
    let route_ops = emu.metrics.route_ops as f64;
    let (_, fib_entries) = crate::util::fib_digest(emu);
    engine_layers(
        m,
        EngineWork {
            run_ns,
            events,
            queue_high_water: emu.sim.engine.queue_high_water() as f64,
            route_ops,
            updates: report
                .counters
                .get("routing.bgp_updates_sent")
                .copied()
                .unwrap_or(0) as f64,
            fib_entries: fib_entries as f64,
        },
    );
}

/// What the engine and BGP did over a measured stretch of work.
pub struct EngineWork {
    pub run_ns: f64,
    pub events: f64,
    pub queue_high_water: f64,
    pub route_ops: f64,
    pub updates: f64,
    /// FIB entries the work ended with (for the useful-work ratio).
    pub fib_entries: f64,
}

pub fn engine_layers(m: &mut Metrics, w: EngineWork) {
    m.put("sim.engine.run_ms", w.run_ns / 1e6, "ms");
    m.put("sim.engine.events", w.events, "count");
    m.put("sim.engine.ns_per_event", ratio(w.run_ns, w.events), "ns");
    m.put("sim.engine.queue_high_water", w.queue_high_water, "count");
    m.put("routing.bgp.route_ops", w.route_ops, "count");
    m.put("routing.bgp.updates", w.updates, "count");
    m.put(
        "routing.bgp.ns_per_route_op",
        ratio(w.run_ns, w.route_ops),
        "ns",
    );
    m.put(
        "routing.bgp.fib_useful_ratio",
        ratio(w.fib_entries, w.route_ops),
        "ratio",
    );
}

/// Packet layers from the pairs a run made; `hops` covers the pinned
/// pairs only, so it repeats exactly.
pub fn packet_layers(m: &mut Metrics, s: &PacketStats, pinned_hops: (u64, u64)) {
    let walk_us = ratio(s.walk_ns as f64, s.walks as f64) / 1e3;
    let inject_us = ratio(s.inject_ns as f64, s.pairs as f64) / 1e3;
    m.put("routing.harness.trace_packet_us", walk_us, "us");
    m.put(
        "dataplane.fib.lookup_ns",
        ratio(s.lookup_ns as f64, s.lookups as f64),
        "ns",
    );
    m.put("core.emulation.trace_capture_us", inject_us - walk_us, "us");
    m.put(
        "core.emulation.pull_packets_us",
        ratio(s.pull_ns as f64, s.pairs as f64) / 1e3,
        "us",
    );
    m.put(
        "packet.hops_mean",
        ratio(pinned_hops.0 as f64, pinned_hops.1 as f64),
        "hops",
    );
}
