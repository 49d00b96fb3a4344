//! `sdc-watch`: an S-DC mockup with the health probe mesh and the
//! traffic plane at a high rate, watched through seeded faults.
//!
//! Each watch session forks the route-ready baseline, injects one of
//! `PLANS` seeded `FaultPlan`s (link-flap bursts and one
//! `SilentBlackhole`), advances in one-virtual-second steps, exports
//! `incidents_jsonl`, `pull_health` and `pull_traffic`, injects the
//! plan's packet sample and drops the fork. Sessions cycle through the plans until
//! the run's time is up and every plan has been watched equally often,
//! so sessions of one plan do the same work, a run's figures average
//! over several plans rather than hang on one draw, and the run's state
//! stays bounded. The engine runs many
//! light non-causal events here (probe and flow rounds) instead of a few
//! heavy BGP updates, so the `routing::{health,traffic}` walkers,
//! `decide`/`Fib::lookup` and `core::health` correlation do the work.

use crate::layers::{engine_layers, packet_layers, EngineWork};
use crate::packets::{draw_probes, PacketStats};
use crate::util::{leaves, median, ratio, set_up, stop, tors, Ctx, Size};
use crate::Outcome;
use crystalnet::prelude::*;
use crystalnet_telemetry::MemRecorder;
use std::time::Instant;

const SETUPS: usize = 5;
const PERIOD: SimDuration = SimDuration::from_millis(100);
const PROBE_PAIRS: usize = 64;
const FLOWS: usize = 128;
const STEP: SimDuration = SimDuration::from_secs(1);
const PROBES: usize = 1024;
const FLAP_BURSTS: usize = 3;
/// Sessions whose steps are excluded from the percentiles.
const WARMUP: usize = 1;
/// Distinct fault plans a run cycles through.
const PLANS: usize = 8;

/// The `k`-th seeded fault plan, and the ToR it blackholes. Plan 0
/// draws from the stream the pins in `golden.tsv` were recorded with.
fn fault_plan(ctx: &Ctx, topo: &ClosTopology, k: usize) -> (FaultPlan, DeviceId) {
    let mut rng = match k {
        0 => ctx.rng("sdc-watch.faults"),
        _ => ctx.rng(&format!("sdc-watch.faults.{k}")),
    };
    let victim = *rng.pick(&tors(topo)).expect("ToRs exist");
    let leaves = leaves(topo);
    let links: Vec<LinkId> = topo
        .topo
        .links()
        .filter(|(_, l)| leaves.contains(&l.a.device) || leaves.contains(&l.b.device))
        .map(|(lid, _)| lid)
        .collect();
    let mut plan = FaultPlan::default().then(
        SimDuration::from_secs(1),
        FaultKind::SilentBlackhole { device: victim },
    );
    for _ in 0..FLAP_BURSTS {
        plan.push(
            SimDuration::from_secs(2 + rng.below(18)),
            FaultKind::LinkFlapBurst {
                link: *rng.pick(&links).expect("leaf links exist"),
                flaps: 1 + rng.below(3) as u32,
                period: SimDuration::from_secs(1 + rng.below(4)),
            },
        );
    }
    (plan, victim)
}

/// Totals one session's counts are read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Totals {
    probes: u64,
    flows: u64,
    flows_delivered: u64,
    events: u64,
    route_ops: u64,
    updates: u64,
}

fn totals(emu: &Emulation) -> Totals {
    let health = emu.pull_health();
    let traffic = emu.pull_traffic();
    Totals {
        probes: health.probes_sent,
        flows: traffic.flows_sent,
        flows_delivered: traffic.flows_delivered,
        events: emu.sim.engine.events_executed(),
        route_ops: emu.sim.engine.world.route_ops_total,
        updates: MemRecorder::from_recorder(&*emu.sim.engine.world.recorder)
            .map_or(0, |m| m.counter("routing.bgp_updates_sent")),
    }
}

fn diff(a: Totals, b: Totals) -> Totals {
    Totals {
        probes: b.probes - a.probes,
        flows: b.flows - a.flows,
        flows_delivered: b.flows_delivered - a.flows_delivered,
        events: b.events - a.events,
        route_ops: b.route_ops - a.route_ops,
        updates: b.updates - a.updates,
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let (topo, steps) = match ctx.size {
        Size::Full => (ClosParams::s_dc().build(), 40),
        Size::Small => (ClosParams::s_dc().scaled_pods(0.5).build(), 10),
    };
    let options = MockupOptions::builder()
        .seed(ctx.seed)
        .workers(1)
        .health_config(ProbeConfig {
            pairs_per_round: PROBE_PAIRS,
            ..ProbeConfig::with_period(PERIOD)
        })
        .traffic_config(TrafficConfig {
            flows_per_round: FLOWS,
            ..TrafficConfig::with_period(PERIOD)
        });
    let set_ups = set_up(ctx, &topo, SETUPS, options, |_, _| {});
    let (base, setup_walls, mut layers) = (set_ups.emu, set_ups.walls, set_ups.layers);
    let plans: Vec<(FaultPlan, DeviceId)> =
        (0..PLANS).map(|k| fault_plan(ctx, &topo, k)).collect();
    let mut tors = tors(&topo);
    tors.retain(|t| plans.iter().all(|(_, victim)| t != victim));
    // One packet sample per plan, so a run's packet figures also
    // average over several draws.
    let mut rng = ctx.rng("sdc-watch.probes");
    let samples: Vec<_> = (0..PLANS)
        .map(|_| draw_probes(&base.topo, &tors, PROBES, &mut rng))
        .collect();

    let mut stats = PacketStats::default();
    let (mut ops, mut step_ms) = (Vec::new(), Vec::new());
    let mut session_ms = (Vec::new(), Vec::new());
    let (mut fork_ms, mut drop_ms, mut fault_ms, mut export_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut watched_s, mut watch_wall_s, mut engine_s) = (0.0, 0.0, 0.0);
    let mut first: Vec<Option<(Totals, usize, u64)>> = vec![None; PLANS];
    let mut correlated = (0u64, 0u64);
    let mut pinned_hops = (0, 0);
    let start = Instant::now();
    let mut session = 0usize;
    while session <= WARMUP
        || start.elapsed() < ctx.budget
        || !(session - WARMUP).is_multiple_of(PLANS)
    {
        let (plan, victim) = (&plans[session % PLANS].0, plans[session % PLANS].1);
        let probes = &samples[session % PLANS];
        // Even sessions are traced in one cycle of plans, odd ones in
        // the next, so over two cycles every plan is watched both ways.
        let traced = ctx.traced && (session + session / PLANS).is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        ctx.tracer.set_group(session as u64);
        let t_session = Instant::now();
        ctx.tracer.enter("watch_session");
        let t = Instant::now();
        let mut fork = ctx.tracer.span("core.session.fork", || base.fork());
        fork_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let at_fork = totals(fork.emulation());
        let virtual_start = fork.emulation().now();

        let t = Instant::now();
        let injected = ctx.tracer.span("core.emulation.run_fault_plan", || {
            fork.inject_faults(plan)
        });
        let fault_wall = t.elapsed().as_secs_f64();
        fault_ms.push(fault_wall * 1e3);
        ctx.call("inject_faults", injected);
        let before_steps = totals(fork.emulation());
        let mut advance_wall = 0.0;
        for _ in 0..steps {
            let t = Instant::now();
            ctx.tracer.span("core.emulation.advance", || {
                fork.emulation_mut().advance(STEP)
            });
            let op = stop(t);
            let wall = op.1.as_secs_f64();
            advance_wall += wall;
            if session >= WARMUP {
                step_ms.push(wall * 1e3);
                if !traced {
                    ops.push(op);
                }
            }
            // Between every two steps, so the gauges follow the host's
            // speed closely (see `pace`).
            ctx.tracer.span("bench.pace", || ctx.pace.sample());
        }
        let walks = diff(before_steps, totals(fork.emulation()));

        let t = Instant::now();
        ctx.tracer.enter("core.health.export");
        let emu = fork.emulation();
        let jsonl = ctx
            .tracer
            .span("core.emulation.incidents_jsonl", || emu.incidents_jsonl());
        let health = ctx
            .tracer
            .span("core.emulation.pull_health", || emu.pull_health());
        let traffic = ctx
            .tracer
            .span("core.emulation.pull_traffic", || emu.pull_traffic());
        ctx.tracer.exit();
        let export_wall = t.elapsed().as_secs_f64();
        export_ms.push(export_wall * 1e3);

        let incidents = jsonl.lines().count();
        ctx.check(
            incidents as u64 == health.incident_count + traffic.incident_count,
            || {
                format!(
                    "session {session}: {incidents} exported incidents, reports count {} + {}",
                    health.incident_count, traffic.incident_count
                )
            },
        );
        let witness = ctx.tracer.span("bench.check", || {
            emu.incidents().into_iter().fold((false, 0u64), |acc, ci| {
                let hit = matches!(&ci.incident.kind,
                    IncidentKind::Blackhole(w) if w.device == victim);
                (acc.0 || hit, acc.1 + u64::from(ci.cause.is_some()))
            })
        });
        ctx.check(witness.0, || {
            format!("session {session}: no GrayFailureWitness at the blackholed ToR")
        });
        let counts = diff(at_fork, totals(emu));
        match first[session % PLANS] {
            None => {
                first[session % PLANS] = Some((counts, incidents, walks.probes + walks.flows));
                if session == 0 {
                    correlated = (witness.1, incidents as u64);
                    ctx.pin("probes", counts.probes);
                    ctx.pin("flows", counts.flows);
                    ctx.pin("incidents", incidents);
                }
            }
            // Every session of a plan forks the same baseline and injects
            // the same plan, so it must see exactly the same counts.
            Some(f) => {
                ctx.check((f.0, f.1) == (counts, incidents), || {
                    format!(
                        "session {session} diverged: {f:?} vs {:?}",
                        (counts, incidents)
                    )
                });
            }
        }

        let hops_before = stats.hops;
        for p in probes {
            stats.pair(ctx, fork.emulation_mut(), p, session >= WARMUP);
        }
        if session == 0 {
            pinned_hops = (stats.hops - hops_before, probes.len() as u64);
        }
        watched_s += (fork.emulation().now().0 - virtual_start.0) as f64 / 1e9;
        watch_wall_s += fault_wall + advance_wall + export_wall;
        engine_s += fault_wall + advance_wall;
        let t = Instant::now();
        ctx.tracer.span("core.session.drop", || drop(fork));
        drop_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.exit();
        let wall = t_session.elapsed().as_secs_f64() * 1e3;
        if traced {
            session_ms.1.push(wall);
        } else {
            session_ms.0.push(wall);
        }
        ctx.pace.sample();
        session += 1;
    }
    ctx.tracer.set_enabled(ctx.traced);

    let (counts, incidents, walks) = first[0].expect("at least one session");
    packet_layers(&mut layers, &stats, pinned_hops);
    engine_layers(
        &mut layers,
        EngineWork {
            run_ns: engine_s / session as f64 * 1e9,
            events: counts.events as f64,
            queue_high_water: base.sim.engine.queue_high_water() as f64,
            route_ops: counts.route_ops as f64,
            updates: counts.updates as f64,
            fib_entries: 0.0,
        },
    );
    layers.put("core.session.fork_ms", median(&fork_ms), "ms");
    layers.put("core.session.drop_ms", median(&drop_ms), "ms");
    layers.put("routing.health.probes", counts.probes as f64, "count");
    layers.put("routing.traffic.flows", counts.flows as f64, "count");
    layers.put(
        "routing.traffic.delivered_ratio",
        ratio(counts.flows_delivered as f64, counts.flows as f64),
        "ratio",
    );
    layers.put("core.emulation.advance_ms", median(&step_ms), "ms");
    layers.put(
        "core.emulation.watch_rate",
        watched_s / watch_wall_s,
        "vs/s",
    );
    // Every session walks the same probes and flows in its steps.
    layers.put(
        "routing.walk.ns_per_walk",
        ratio(median(&step_ms) * steps as f64 * 1e6, walks as f64),
        "ns",
    );
    layers.put("core.health.incidents", incidents as f64, "count");
    layers.put(
        "core.health.correlated_ratio",
        ratio(correlated.0 as f64, correlated.1 as f64),
        "ratio",
    );
    layers.put("core.health.export_ms", median(&export_ms), "ms");
    Outcome::new(
        ctx,
        &setup_walls,
        &ops,
        session_ms,
        &stats,
        WARMUP * steps,
        "watch_session",
        layers,
    )
    .with_note(format!(
        "{session} watch sessions over {PLANS} fault plans, {:.0} virtual s each on average, \
         {incidents} incidents per session of plan 0; fault plan median {:.1}ms",
        watched_s / session as f64,
        median(&fault_ms)
    ))
}
