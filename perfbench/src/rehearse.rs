//! `sdc-rehearse`: a warm S-DC baseline, then seeded what-ifs one at a
//! time, the paper's §2 loop of rehearsing a change and checking it.
//!
//! A what-if is `fork` → `apply` one change → `diff_against_parent` + a
//! fixed seeded sample of `InjectPackets`/`PullPackets` + `PullStates`
//! on the dirty devices → drop. Every `COMMIT_EVERY`-th what-if commits
//! instead, so writes run beside reads; commits alternate between a
//! change and its revert, so the baseline stays valid and stationary.
//! Mockup runs only in set-up.

use crate::layers::{engine_layers, packet_layers, EngineWork};
use crate::packets::{draw_probes, PacketStats};
use crate::util::{fib_digest, leaves, median, ratio, set_up, stop, tors, Ctx, Fnv, Size};
use crate::Outcome;
use crystalnet::prelude::*;
use crystalnet_config::{Acl, AclEntry, Action, DeviceConfig};
use crystalnet_sim::SimRng;
use crystalnet_telemetry::MemRecorder;
use std::collections::BTreeMap;
use std::time::Instant;

const SETUPS: usize = 7;
const PROBES: usize = 256;
const COMMIT_EVERY: usize = 4;
/// What-ifs excluded from the percentiles: the first fork of a process
/// costs about twice a warm one.
const WARMUP: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Announce,
    Acl,
    LinkDown,
    LinkUp,
    /// A commit that undoes the previous commit.
    Revert,
}

/// One drawn what-if: the change set and, when committed, what undoes it.
struct WhatIf {
    kind: Kind,
    set: ChangeSet,
    revert: Option<Revert>,
}

enum Revert {
    Config(DeviceId, Box<DeviceConfig>),
    LinkUp(LinkId),
}

/// The seeded change stream. It tracks the committed baseline (device
/// configs and the one link a commit may hold down) so every drawn
/// change is valid against it.
struct Gen {
    rng: SimRng,
    configs: BTreeMap<DeviceId, DeviceConfig>,
    tors: Vec<DeviceId>,
    leaves: Vec<DeviceId>,
    /// ToR-leaf links, then leaf-spine links.
    links: [Vec<LinkId>; 2],
    down: Option<LinkId>,
    pending: Option<Revert>,
    serial: u32,
    commits: u32,
    dropped: u32,
}

impl Gen {
    fn new(rng: SimRng, emu: &Emulation, topo: &ClosTopology) -> Self {
        let (tors, leaves) = (tors(topo), leaves(topo));
        // ToR-leaf and leaf-spine links: Clos ECMP keeps every ToR
        // reachable with any two of them down.
        let links_between = |lower: &[DeviceId], upper: &[DeviceId]| -> Vec<LinkId> {
            topo.topo
                .links()
                .filter(|(_, l)| {
                    let (a, b) = (l.a.device, l.b.device);
                    (lower.contains(&a) && upper.contains(&b))
                        || (lower.contains(&b) && upper.contains(&a))
                })
                .map(|(lid, _)| lid)
                .collect()
        };
        let links = [
            links_between(&tors, &leaves),
            links_between(&leaves, &topo.spines()),
        ];
        Gen {
            rng,
            configs: emu.prep.configs.iter().cloned().collect(),
            tors,
            leaves,
            links,
            down: None,
            pending: None,
            serial: 0,
            commits: 0,
            dropped: 0,
        }
    }

    fn config_change(&mut self, kind: Kind) -> WhatIf {
        self.serial += 1;
        let n = self.serial;
        let pool = if kind == Kind::Acl && n.is_multiple_of(2) {
            &self.leaves
        } else {
            &self.tors
        };
        let dev = *self.rng.pick(pool).expect("devices exist");
        let old = self.configs[&dev].clone();
        let mut cfg = old.clone();
        if kind == Kind::Announce {
            let prefix = Ipv4Prefix::new(
                Ipv4Addr(u32::from_be_bytes([
                    10,
                    200 + (n / 256 % 50) as u8,
                    n as u8,
                    0,
                ])),
                24,
            );
            cfg.bgp
                .as_mut()
                .expect("generated configs run BGP")
                .networks
                .push(prefix);
        } else {
            // An ACL that no packet this benchmark injects can match.
            cfg.acls.insert(
                format!("ACL-BENCH-{n}"),
                Acl {
                    entries: vec![AclEntry {
                        seq: 10,
                        action: Action::Deny,
                        src: Ipv4Prefix::new(Ipv4Addr(u32::from_be_bytes([10, 66, 0, 0])), 24),
                        dst: Ipv4Prefix::new(Ipv4Addr(0), 0),
                    }],
                },
            );
        }
        WhatIf {
            kind,
            set: ChangeSet::new().config_update(dev, cfg),
            revert: Some(Revert::Config(dev, Box::new(old))),
        }
    }

    /// Takes down a link, alternating between the ToR-leaf and the
    /// leaf-spine tier so every seed runs the same mix.
    fn link_down(&mut self) -> WhatIf {
        self.serial += 1;
        let pool = &self.links[self.serial as usize % 2];
        let lid = loop {
            let lid = *self.rng.pick(pool).expect("links exist");
            if Some(lid) != self.down {
                break lid;
            }
        };
        WhatIf {
            kind: Kind::LinkDown,
            set: ChangeSet::new().link_down(lid),
            revert: Some(Revert::LinkUp(lid)),
        }
    }

    /// What-if `i` and whether it commits. The kinds follow a fixed
    /// schedule and only their targets are drawn, so every seed runs
    /// the same mix: commits cycle announce, link-down, ACL, each
    /// followed by its revert; dropped what-ifs cycle announce, ACL,
    /// link-down, except that while a committed link-down holds they
    /// rehearse bringing it back up.
    fn next(&mut self, i: usize) -> (WhatIf, bool) {
        if i % COMMIT_EVERY == COMMIT_EVERY - 1 {
            let w = match self.pending.take() {
                Some(Revert::Config(dev, cfg)) => WhatIf {
                    kind: Kind::Revert,
                    set: ChangeSet::new().config_update(dev, *cfg),
                    revert: None,
                },
                Some(Revert::LinkUp(lid)) => WhatIf {
                    kind: Kind::Revert,
                    set: ChangeSet::new().link_up(lid),
                    revert: None,
                },
                None => {
                    self.commits += 1;
                    match self.commits % 3 {
                        1 => self.config_change(Kind::Announce),
                        2 => self.link_down(),
                        _ => self.config_change(Kind::Acl),
                    }
                }
            };
            return (w, true);
        }
        if let Some(lid) = self.down {
            let w = WhatIf {
                kind: Kind::LinkUp,
                set: ChangeSet::new().link_up(lid),
                revert: None,
            };
            return (w, false);
        }
        self.dropped += 1;
        let w = match self.dropped % 3 {
            1 => self.config_change(Kind::Announce),
            2 => self.config_change(Kind::Acl),
            _ => self.link_down(),
        };
        (w, false)
    }

    /// Records a committed what-if in the baseline model.
    fn committed(&mut self, w: WhatIf) {
        for change in &w.set.changes {
            match change {
                Change::ConfigUpdate { device, config } => {
                    self.configs.insert(*device, (**config).clone());
                }
                Change::LinkDown(lid) => self.down = Some(*lid),
                Change::LinkUp(_) => self.down = None,
                _ => {}
            }
        }
        self.pending = w.revert;
    }
}

/// Per-layer sums over the pinned what-ifs and the traced ones.
#[derive(Default)]
struct Acc {
    fib_changes: Vec<usize>,
    /// The FIB changes themselves (device, prefix, kind, next hops).
    diff_digest: Fnv,
    dirty: u64,
    changed_devices: u64,
    events: u64,
    route_ops: u64,
    updates: u64,
    queue_high_water: usize,
    engine_ns: u64,
    traced: u64,
    snapshot: Vec<f64>,
    fork: Vec<f64>,
    apply: Vec<f64>,
    diff: Vec<f64>,
    drop: Vec<f64>,
    commit: Vec<f64>,
    states_ns: u64,
    states: u64,
    cow_shared: f64,
    cow_total: f64,
}

fn engine_run_ns(emu: &Emulation) -> u64 {
    emu.pull_report()
        .profile
        .map_or(0, |p| p.wall_ns("sim.engine.run"))
}

fn updates_sent(emu: &Emulation) -> u64 {
    MemRecorder::from_recorder(&*emu.sim.engine.world.recorder)
        .map_or(0, |m| m.counter("routing.bgp_updates_sent"))
}

fn timed<R>(ctx: &mut Ctx, name: &'static str, out: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = ctx.tracer.span(name, f);
    out.push(t.elapsed().as_secs_f64() * 1e3);
    r
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let (topo, pin) = match ctx.size {
        Size::Full => (ClosParams::s_dc().build(), 16),
        Size::Small => (ClosParams::s_dc().scaled_pods(0.5).build(), 8),
    };
    let options = MockupOptions::builder().seed(ctx.seed).workers(1);
    let set_ups = set_up(ctx, &topo, SETUPS, options, |_, _| {});
    let (mut warm, setup_walls, mut layers) = (set_ups.emu, set_ups.walls, set_ups.layers);
    let (base_digest, _) = fib_digest(&warm);

    let probes = draw_probes(
        &warm.topo,
        &tors(&topo),
        PROBES,
        &mut ctx.rng("sdc-rehearse.probes"),
    );
    let mut gen = Gen::new(ctx.rng("sdc-rehearse.changes"), &warm, &topo);
    let mut stats = PacketStats::default();
    let mut acc = Acc::default();
    let (mut ops, mut iter_ms) = (Vec::new(), (Vec::new(), Vec::new()));
    let mut pinned_hops = (0, 0);
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < pin.max(WARMUP + 1) || start.elapsed() < ctx.budget {
        let traced = ctx.traced && i.is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        ctx.tracer.set_group(i as u64);
        let t = Instant::now();
        ctx.tracer.enter("whatif");
        let (w, commit) = gen.next(i);
        *kinds.entry(format!("{:?}", w.kind)).or_default() += 1;
        if traced {
            timed(ctx, "core.session.snapshot", &mut acc.snapshot, || {
                warm.snapshot()
            });
        }
        let mut fork = timed(ctx, "core.session.fork", &mut acc.fork, || warm.fork());
        let before = (
            fork.emulation().sim.engine.world.route_ops_total,
            updates_sent(fork.emulation()),
            if traced {
                engine_run_ns(fork.emulation())
            } else {
                0
            },
        );
        let applied = timed(ctx, "core.rehearse.apply", &mut acc.apply, || {
            fork.apply(&w.set)
        });
        let delta = ctx.call("apply", applied);
        let diff = timed(ctx, "core.rehearse.diff", &mut acc.diff, || {
            fork.diff_against_parent()
        });
        if let Some(delta) = &delta {
            ctx.check(diff.len() == delta.fib_changes.len(), || {
                format!(
                    "what-if {i}: diff covers {} devices, the delta {}",
                    diff.len(),
                    delta.fib_changes.len()
                )
            });
            if i < pin {
                let child = fork.emulation();
                for (dev, changes) in &diff {
                    acc.diff_digest.mix(u64::from(dev.0));
                    for c in changes {
                        acc.diff_digest.prefix(c.prefix);
                        acc.diff_digest.mix(c.kind as u64);
                        acc.diff_digest.hops(&c.next_hops);
                    }
                }
                acc.fib_changes.push(delta.total_fib_changes());
                acc.dirty += delta.dirty.len() as u64;
                acc.changed_devices += delta.fib_changes.len() as u64;
                acc.events += delta.events_executed;
                acc.route_ops += child.sim.engine.world.route_ops_total - before.0;
                acc.updates += updates_sent(child) - before.1;
                acc.queue_high_water = acc
                    .queue_high_water
                    .max(child.sim.engine.queue_high_water());
            }
            if traced {
                ctx.tracer.enter("bench.report");
                acc.engine_ns += engine_run_ns(fork.emulation()) - before.2;
                acc.traced += 1;
                let cow = fork.cow_stats();
                acc.cow_shared += cow.shared_bytes as f64;
                acc.cow_total += (cow.shared_bytes + cow.copied_bytes) as f64;
                ctx.tracer.exit();
            }
        }
        let hops_before = stats.hops;
        for p in &probes {
            stats.pair(ctx, fork.emulation_mut(), p, i >= WARMUP);
        }
        if i < pin {
            pinned_hops.0 += stats.hops - hops_before;
            pinned_hops.1 += probes.len() as u64;
        }
        if let Some(delta) = &delta {
            for &dev in &delta.dirty {
                let ts = Instant::now();
                let st = ctx.tracer.span("core.emulation.pull_states", || {
                    fork.emulation().pull_states(dev)
                });
                acc.states_ns += ts.elapsed().as_nanos() as u64;
                acc.states += 1;
                ctx.call("pull_states", st);
            }
        }
        if commit {
            timed(ctx, "core.session.commit", &mut acc.commit, || {
                fork.commit(&mut warm)
            });
            gen.committed(w);
        } else {
            timed(ctx, "core.session.drop", &mut acc.drop, || drop(fork));
        }
        ctx.tracer.exit();
        let op = stop(t);
        let wall = op.1.as_secs_f64() * 1e3;
        if traced {
            iter_ms.1.push(wall);
        } else {
            iter_ms.0.push(wall);
            if i >= WARMUP {
                ops.push(op);
            }
        }
        ctx.pace.sample();
        i += 1;
    }
    ctx.tracer.set_enabled(false);
    let fib_changes: Vec<String> = acc.fib_changes.iter().map(ToString::to_string).collect();
    ctx.pin("fib_changes", fib_changes.join(","));
    ctx.pin("fib_diff_digest", format!("{:016x}", acc.diff_digest.0));
    ctx.pin("base_fib_digest", format!("{base_digest:016x}"));

    cold_checks(ctx, &topo);
    ctx.tracer.set_enabled(ctx.traced);

    packet_layers(&mut layers, &stats, pinned_hops);
    engine_layers(
        &mut layers,
        EngineWork {
            run_ns: ratio(acc.engine_ns as f64, acc.traced as f64) * pin as f64,
            events: acc.events as f64,
            queue_high_water: acc.queue_high_water as f64,
            route_ops: acc.route_ops as f64,
            updates: acc.updates as f64,
            fib_entries: acc.fib_changes.iter().sum::<usize>() as f64,
        },
    );
    for (name, xs) in [
        ("core.session.snapshot_ms", &acc.snapshot),
        ("core.session.fork_ms", &acc.fork),
        ("core.session.drop_ms", &acc.drop),
        ("core.session.commit_ms", &acc.commit),
        ("core.rehearse.apply_ms", &acc.apply),
        ("core.rehearse.diff_ms", &acc.diff),
    ] {
        layers.put(name, median(xs), "ms");
    }
    layers.put(
        "core.session.cow_shared_ratio",
        ratio(acc.cow_shared, acc.cow_total),
        "ratio",
    );
    layers.put("core.rehearse.dirty_devices", acc.dirty as f64, "count");
    layers.put(
        "core.rehearse.fib_changes",
        acc.fib_changes.iter().sum::<usize>() as f64,
        "count",
    );
    layers.put(
        "core.rehearse.dirty_useful_ratio",
        ratio(acc.changed_devices as f64, acc.dirty as f64),
        "ratio",
    );
    layers.put(
        "core.emulation.pull_states_us",
        ratio(acc.states_ns as f64, acc.states as f64) / 1e3,
        "us",
    );
    let kinds: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    Outcome::new(
        ctx,
        &setup_walls,
        &ops,
        iter_ms,
        &stats,
        WARMUP,
        "whatif",
        layers,
    )
    .with_note(format!(
        "{i} what-ifs ({}), every {COMMIT_EVERY}th committed",
        kinds.join(" ")
    ))
}

/// Outside the timed loop: each change kind once on a fork of a fresh
/// baseline must land on the FIBs of a cold mockup that plays the same
/// change through the Table 2 calls (Reload, Disconnect, Connect) and
/// settles.
fn cold_checks(ctx: &mut Ctx, topo: &ClosTopology) {
    let seed = ctx.seed;
    let options = || MockupOptions::builder().seed(seed).workers(1).build();
    let prep = crate::util::prepare_whole(topo);
    let pristine = mockup(Arc::clone(&prep), options());
    let mut gen = Gen::new(ctx.rng("sdc-rehearse.cold"), &pristine, topo);
    let announce = gen.config_change(Kind::Announce);
    let acl = gen.config_change(Kind::Acl);
    let down = gen.link_down();
    let Some(Revert::LinkUp(down_link)) = down.revert else {
        unreachable!("a link-down reverts with a link-up")
    };
    let cases = [
        ("announce", vec![announce.set]),
        ("acl", vec![acl.set]),
        ("link-down", vec![down.set.clone()]),
        (
            "link-up",
            vec![down.set, ChangeSet::new().link_up(down_link)],
        ),
    ];
    for (kind, steps) in cases {
        let mut fork = pristine.fork();
        let mut cold = mockup(Arc::clone(&prep), options());
        let mut ok = true;
        for set in &steps {
            ok &= ctx.call("cold-check apply", fork.apply(set)).is_some();
            for change in &set.changes {
                match change {
                    Change::ConfigUpdate { device, config } => {
                        cold.reload(*device, (**config).clone(), false);
                    }
                    Change::LinkDown(lid) => cold.disconnect(*lid),
                    Change::LinkUp(lid) => cold.connect(*lid),
                    _ => unreachable!("the generator draws only these"),
                }
            }
            ok &= ctx.call("cold-check settle", cold.settle()).is_some();
        }
        if ok {
            let (warm_digest, cold_digest) = (fib_digest(fork.emulation()), fib_digest(&cold));
            ctx.check(warm_digest == cold_digest, || {
                format!("{kind}: fork FIBs {warm_digest:?} differ from cold {cold_digest:?}")
            });
        }
    }
}
