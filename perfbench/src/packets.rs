//! `InjectPackets` + `PullPackets` pairs, shared by every workload.
//!
//! Untraced, a pair is two public calls and one wall-clock sample. A
//! traced pair also walks the same packet with
//! `ControlPlaneSim::trace_packet` and times `Fib::lookup` on every hop
//! of its path, so `inject_packet`'s cost splits into the forwarding walk
//! and the trace capture around it.

use crate::util::{host_of, Ctx, Timed};
use bytes::Bytes;
use crystalnet::prelude::*;
use crystalnet_dataplane::Ipv4Packet;
use crystalnet_sim::SimRng;
use std::hint::black_box;
use std::time::Instant;

/// One packet an operator injects: from a ToR towards a server behind
/// another ToR.
#[derive(Clone, Copy)]
pub struct Probe {
    pub from: DeviceId,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
}

/// `n` seeded probes between distinct ToRs drawn from `tors`.
pub fn draw_probes(topo: &Topology, tors: &[DeviceId], n: usize, rng: &mut SimRng) -> Vec<Probe> {
    (0..n)
        .map(|_| {
            let from = *rng.pick(tors).expect("ToRs exist");
            let to = loop {
                let to = *rng.pick(tors).expect("ToRs exist");
                if to != from {
                    break to;
                }
            };
            Probe {
                from,
                src: host_of(topo, from, rng.next_u64()),
                dst: host_of(topo, to, rng.next_u64()),
            }
        })
        .collect()
}

/// Wall-clock samples and per-layer sums over every pair.
#[derive(Default)]
pub struct PacketStats {
    /// Timing of each recorded inject+pull pair.
    pub timed: Vec<Timed>,
    pub pairs: u64,
    pub inject_ns: u64,
    pub pull_ns: u64,
    /// Traced pairs only: the bare forwarding walk.
    pub walk_ns: u64,
    pub walks: u64,
    pub lookup_ns: u64,
    pub lookups: u64,
    pub hops: u64,
}

impl PacketStats {
    /// Injects `p`, pulls its path and fate, checks that it was
    /// delivered, and clears its trace (the `PullPackets` clean option),
    /// so the trace store stays bounded however many pairs a run makes.
    pub fn pair(&mut self, ctx: &mut Ctx, emu: &mut Emulation, p: &Probe, record: bool) {
        let t = Instant::now();
        ctx.tracer.enter("inject");
        let sig = ctx.tracer.span("core.emulation.inject_packet", || {
            emu.inject_packet(p.from, p.src, p.dst)
        });
        let t_pull = Instant::now();
        let pulled = ctx
            .tracer
            .span("core.emulation.pull_packets", || emu.pull_packets(sig));
        let end = Instant::now();
        ctx.tracer.exit();
        emu.traces.clear(sig);
        if record {
            self.timed.push((t, end - t));
        }
        self.pairs += 1;
        self.inject_ns += (t_pull - t).as_nanos() as u64;
        self.pull_ns += (end - t_pull).as_nanos() as u64;
        let Some((path, fate)) = ctx.call("pull_packets", pulled) else {
            return;
        };
        self.hops += path.len() as u64;
        ctx.check(matches!(fate, ForwardDecision::Deliver), || {
            format!("packet {} -> {} from #{}: {fate:?}", p.src, p.dst, p.from.0)
        });
        if ctx.tracer.enabled() {
            ctx.tracer
                .span("bench.rewalk", || self.walk_and_lookups(emu, p, &path));
        }
    }

    fn walk_and_lookups(&mut self, emu: &Emulation, p: &Probe, path: &[DeviceId]) {
        let pkt = Ipv4Packet {
            src: p.src,
            dst: p.dst,
            protocol: crystalnet_dataplane::ipproto::UDP,
            ttl: 64,
            identification: 0,
            payload: Bytes::new(),
        };
        let t = Instant::now();
        black_box(emu.sim.trace_packet(p.from, black_box(&pkt)));
        self.walk_ns += t.elapsed().as_nanos() as u64;
        self.walks += 1;
        // One lookup takes tens of nanoseconds, below what a single
        // clock read resolves, so each hop's lookup is repeated.
        const REPEAT: u64 = 16;
        for &dev in path {
            let Some(os) = emu.sim.os(dev) else { continue };
            let fib = os.fib();
            let t = Instant::now();
            for _ in 0..REPEAT {
                black_box(fib.lookup(black_box(p.dst)));
            }
            self.lookup_ns += t.elapsed().as_nanos() as u64;
            self.lookups += REPEAT;
        }
    }
}
