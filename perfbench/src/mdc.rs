//! `mdc-mockup`: Prepare plus Mockup of M-DC to route-ready, then an
//! operator's check rounds on the converged fabric.
//!
//! Set-up is the headline cost (Figure 8): routing and `sim::engine` do
//! nearly all of it, and fork, the planes and packet walks do none. The
//! timed loop is a closed loop of check rounds; every round re-checks
//! one fixed seeded sample of `InjectPackets`+`PullPackets` pairs
//! between ToRs and `PullStates` on seeded devices, reading the large
//! M-DC FIBs.

use crate::layers::{mockup_engine_layers, packet_layers};
use crate::packets::{draw_probes, PacketStats};
use crate::util::{fib_digest, set_up, stop, tors, Ctx, Size};
use crate::Outcome;
use crystalnet::prelude::*;
use std::time::Instant;

const SETUPS: usize = 2;
const PROBES_PER_ROUND: usize = 64;
const STATES_PER_ROUND: usize = 16;
/// Rounds excluded from the percentiles (cold caches, first touches).
const WARMUP: usize = 5;

pub fn run(ctx: &mut Ctx) -> Outcome {
    let topo = match ctx.size {
        Size::Full => ClosParams::m_dc().build(),
        Size::Small => ClosParams::m_dc().scaled_pods(0.25).build(),
    };
    // Every set-up of a seed must land on the same FIBs at the same
    // virtual instant.
    let mut first: Option<(u64, u64, u64)> = None;
    let options = MockupOptions::builder().seed(ctx.seed).workers(1);
    let set_ups = set_up(ctx, &topo, SETUPS, options, |ctx, e| {
        let (digest, entries) = fib_digest(e);
        let ready = e.metrics.route_ready.as_nanos();
        match first {
            None => {
                first = Some((digest, entries, ready));
                ctx.pin("fib_digest", format!("{digest:016x}"));
                ctx.pin("fib_entries", entries);
                ctx.pin("route_ready_ns", ready);
            }
            Some(f) => {
                ctx.check(f == (digest, entries, ready), || {
                    format!("set-ups diverged: {f:?} vs {:?}", (digest, entries, ready))
                });
            }
        }
    });
    let (mut emu, setup_walls, mut layers) = (set_ups.emu, set_ups.walls, set_ups.layers);
    if ctx.traced {
        mockup_engine_layers(&mut layers, &emu);
    }

    // The BGP routers: speakers hold no FIB.
    let mut devices: Vec<DeviceId> = emu.prep.configs.iter().map(|(d, _)| *d).collect();
    devices.sort_unstable_by_key(|d| d.0);
    // One fixed seeded sample, re-checked every round, so every round
    // does the same work.
    let mut rng = ctx.rng("mdc-mockup.checks");
    let probes = draw_probes(&emu.topo, &tors(&topo), PROBES_PER_ROUND, &mut rng);
    let checked: Vec<DeviceId> = (0..STATES_PER_ROUND)
        .map(|_| *rng.pick(&devices).expect("devices exist"))
        .collect();
    let mut stats = PacketStats::default();
    let (mut ops, mut iter_ms) = (Vec::new(), (Vec::new(), Vec::new()));
    let mut pinned_hops = (0, 0);
    let mut states_ns = 0u64;
    let mut states = 0u64;
    let start = Instant::now();
    let mut round = 0usize;
    while round <= WARMUP || start.elapsed() < ctx.budget {
        let traced = ctx.traced && round.is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        ctx.tracer.set_group(round as u64);
        let t = Instant::now();
        ctx.tracer.enter("check_round");
        let hops_before = stats.hops;
        for p in &probes {
            stats.pair(ctx, &mut emu, p, round >= WARMUP);
        }
        if round == 0 {
            pinned_hops = (stats.hops - hops_before, probes.len() as u64);
        }
        for &dev in &checked {
            let ts = Instant::now();
            let st = ctx
                .tracer
                .span("core.emulation.pull_states", || emu.pull_states(dev));
            states_ns += ts.elapsed().as_nanos() as u64;
            states += 1;
            if let Some(st) = ctx.call("pull_states", st) {
                ctx.check(st.up && st.fib_prefixes > 0, || {
                    format!("{} is down or has an empty FIB", st.hostname)
                });
            }
        }
        ctx.tracer.exit();
        let op = stop(t);
        let wall = op.1.as_secs_f64() * 1e3;
        if traced {
            iter_ms.1.push(wall);
        } else {
            iter_ms.0.push(wall);
            if round >= WARMUP {
                ops.push(op);
            }
        }
        ctx.pace.sample();
        round += 1;
    }
    ctx.tracer.set_enabled(ctx.traced);

    packet_layers(&mut layers, &stats, pinned_hops);
    layers.put(
        "core.emulation.pull_states_us",
        crate::util::ratio(states_ns as f64, states as f64) / 1e3,
        "us",
    );
    Outcome::new(
        ctx,
        &setup_walls,
        &ops,
        iter_ms,
        &stats,
        WARMUP,
        "check_round",
        layers,
    )
    .with_note(format!(
        "{round} check rounds of {PROBES_PER_ROUND} packets on {} devices",
        devices.len(),
    ))
}
