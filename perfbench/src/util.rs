//! Shared pieces of the workloads: run context, metric sets, order
//! statistics, FIB digests and process memory.

use crate::pace::Pace;
use crate::trace::Tracer;
use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_dataplane::NextHop;
use crystalnet_sim::SimRng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Workload size: `Full` is what the benchmark measures; `Small` is the
/// reduced size the self-test repeats.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// When a timed piece of work started, and its wall time.
pub type Timed = (Instant, Duration);

/// The timing of work that started at `t` and ends now.
pub fn stop(t: Instant) -> Timed {
    (t, t.elapsed())
}

/// What a workload run needs and what it accumulates.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub traced: bool,
    pub size: Size,
    pub tracer: Tracer,
    /// Reference-block timings taken between operations.
    pub pace: Pace,
    pub attempted: u64,
    pub failed: u64,
    /// Values later runs of the same seed must reproduce exactly.
    pub pins: Vec<(&'static str, String)>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: u64, traced: bool, size: Size) -> Self {
        Ctx {
            seed,
            budget: Duration::from_secs(seconds),
            traced,
            size,
            tracer: Tracer::new(traced),
            pace: Pace::new(),
            attempted: 0,
            failed: 0,
            pins: Vec::new(),
        }
    }

    /// A seeded stream for one purpose, so adding a draw to one stream
    /// never shifts another.
    pub fn rng(&self, purpose: &str) -> SimRng {
        SimRng::for_component(self.seed, purpose)
    }

    /// Counts one operation; a `false` outcome is a failure, reported on
    /// standard error with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }

    /// Counts one fallible call; an `Err` is a failure.
    pub fn call<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }

    pub fn pin(&mut self, key: &'static str, value: impl ToString) {
        self.pins.push((key, value.to_string()));
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| *n == name) {
            *slot = (name, value, unit);
        } else {
            self.0.push((name, value, unit));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A float as JSON: integral values without a fraction, others with
/// every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The `q`-quantile (0..=1) by the nearest-rank method; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The paper's `Prepare` for a whole Clos fabric: every device emulated,
/// WAN peers as speakers.
pub fn prepare_whole(topo: &ClosTopology) -> Arc<PrepareOutput> {
    Arc::new(prepare(
        &topo.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    ))
}

/// One set-up: `Prepare` then `Mockup` to route-ready, each in its span.
/// Returns the emulation, the timing of both and the wall of `Prepare`.
fn setup(
    ctx: &mut Ctx,
    topo: &ClosTopology,
    options: MockupOptions,
) -> (Emulation, Timed, Duration) {
    let t = Instant::now();
    ctx.tracer.enter("setup");
    let prep = ctx.tracer.span("core.prepare", || prepare_whole(topo));
    let prepare_wall = t.elapsed();
    let emu = ctx.tracer.span("core.mockup", || mockup(prep, options));
    ctx.tracer.exit();
    (emu, stop(t), prepare_wall)
}

/// Reference blocks timed right before and right after each set-up
/// (see `pace`).
const PACE_AROUND_SETUP: usize = 3;

/// The set-ups of a run and the emulation the run keeps.
pub struct SetUps {
    /// The last set-up's emulation.
    pub emu: Emulation,
    /// Timing of each untraced set-up.
    pub walls: Vec<Timed>,
    /// Layers of the traced set-up (empty when untraced).
    pub layers: Metrics,
}

/// Sets up `n` times from `options`, keeping only the last emulation
/// alive, and runs `check` on each. A traced run alternates untraced
/// and traced set-ups, ending on a traced one, so the kept emulation is
/// profiled and the untraced ones show what profiling costs.
pub fn set_up(
    ctx: &mut Ctx,
    topo: &ClosTopology,
    n: usize,
    options: MockupOptionsBuilder,
    mut check: impl FnMut(&mut Ctx, &Emulation),
) -> SetUps {
    let mut walls = Vec::new();
    let mut layers = Metrics::default();
    let mut kept = None;
    for i in 0..n {
        let traced = ctx.traced && (n - 1 - i).is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        drop(kept.take());
        // A set-up is long and has no reference blocks inside it, so
        // its slowness rests on the blocks right before and after it:
        // take several of each.
        for _ in 0..PACE_AROUND_SETUP {
            ctx.pace.sample();
        }
        let (emu, wall, prepare_wall) = setup(ctx, topo, options.clone().profiling(traced).build());
        for _ in 0..PACE_AROUND_SETUP {
            ctx.pace.sample();
        }
        if traced {
            crate::layers::setup_layers(&mut layers, &emu, prepare_wall);
        } else {
            walls.push(wall);
        }
        check(ctx, &emu);
        kept = Some(emu);
    }
    SetUps {
        emu: kept.expect("at least one set-up"),
        walls,
        layers,
    }
}

/// Every ToR of the fabric, pod by pod.
pub fn tors(topo: &ClosTopology) -> Vec<DeviceId> {
    topo.pods.iter().flat_map(|p| p.tors.clone()).collect()
}

/// Every leaf of the fabric, pod by pod.
pub fn leaves(topo: &ClosTopology) -> Vec<DeviceId> {
    topo.pods.iter().flat_map(|p| p.leaves.clone()).collect()
}

/// A 64-bit FNV-1a hash, fed one word at a time.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn prefix(&mut self, p: Ipv4Prefix) {
        self.mix(u64::from(p.network().0) << 8 | u64::from(p.len()));
    }

    pub fn hops(&mut self, hops: &[NextHop]) {
        for hop in hops {
            self.mix(u64::from(hop.iface) << 32 | u64::from(hop.via.0));
        }
    }
}

/// FNV-1a digest of every emulated device's FIB (prefix and ECMP next
/// hops, in prefix order), devices in id order; also returns the total
/// entry count.
pub fn fib_digest(emu: &Emulation) -> (u64, u64) {
    let mut h = Fnv::default();
    let mut devs: Vec<DeviceId> = emu.sandboxes.keys().copied().collect();
    devs.sort_unstable_by_key(|d| d.0);
    let mut entries = 0u64;
    for dev in devs {
        let Some(os) = emu.sim.os(dev) else { continue };
        h.mix(u64::from(dev.0));
        // `Fib::iter` is unordered.
        let mut fib: Vec<_> = os.fib().iter().collect();
        fib.sort_unstable_by_key(|(prefix, _)| (prefix.network().0, prefix.len()));
        for (prefix, entry) in fib {
            entries += 1;
            h.prefix(prefix);
            h.hops(&entry.next_hops);
        }
    }
    (h.0, entries)
}

/// A host address inside the last prefix `dev` originates (ToRs
/// originate their server subnets last).
pub fn host_of(topo: &Topology, dev: DeviceId, salt: u64) -> Ipv4Addr {
    let prefix = *topo
        .device(dev)
        .originated
        .last()
        .expect("ToRs originate server subnets");
    let hosts = (1u64 << (32 - u32::from(prefix.len())).min(31)).saturating_sub(2);
    if hosts == 0 {
        return prefix.network();
    }
    prefix.nth(1 + (salt % hosts) as u32)
}
