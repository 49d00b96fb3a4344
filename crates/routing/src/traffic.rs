//! The deterministic flow-level traffic plane: seeded per-device
//! server/user profiles generating flow arrivals as first-class engine
//! events, ECMP hash-spread over the dataplane's [`decide`]
//! (`crystalnet_dataplane::decide`) path, per-link utilisation gauges
//! accumulated in virtual time, and streaming congestion watchdogs.
//!
//! Everything here is a pure function of `(seed, round)` — which flows
//! launch in a round, which ECMP member each flow hashes onto, when a
//! hop arrives — so the utilisation gauges, the flow SLO windows, and
//! the congestion incidents are byte-identical across repetitions and
//! `workers` values. Flow events are **non-causal** (like probes and
//! timers): they never count against route quiescence, so driving load
//! through a network does not change when it is declared converged, and
//! a traffic-off run is byte-identical to a build without the traffic
//! plane.
//!
//! Determinism under sharding follows the health plane's discipline:
//! every piece of mutable accounting is keyed by a single owning device
//! (per-pair flow gauges travel with the flow's *source* shard; link
//! and ECMP residues with the *transmitting* device's shard — link
//! accounting is directional on purpose, a cut link's two directions
//! are charged on different shards), so each shard's broadcast-tick
//! watchdog evaluation is complete for the keys it owns and the union
//! across shards equals the serial run.
//!
//! The congestion watchdog catalogue (each firing lands an
//! [`Incident`] on the shared timeline, alongside the health plane's):
//!
//! * **LinkOversubscribed** — a directional link carried more bytes
//!   between two traffic ticks than the configured fraction of its
//!   capacity-per-period.
//! * **EcmpPolarisation** — a device's ECMP traffic concentrated past
//!   the configured share on one member of a multi-member group (the
//!   classic hash-polarisation pathology).
//! * **FlowSloBreach** — a `(src, dst)` pair's rolling flow-loss
//!   window crossed the threshold (fires on the transition, re-arms
//!   when the window recovers).

#![warn(missing_docs)]

use crate::health::{Incident, PairStats};
use crystalnet_dataplane::FibEntry;
use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix, LinkId};
use crystalnet_sim::rng::SimRng;
use crystalnet_sim::SimDuration;
use std::collections::BTreeMap;

/// Traffic-plane configuration (the `MockupOptions::builder()
/// .traffic(...)` knob lands here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Interval between flow-arrival rounds (must be positive).
    pub period: SimDuration,
    /// Flows launched per round (sampled over the server/user profile
    /// split, seeded per round).
    pub flows_per_round: usize,
    /// Size of a user→server request flow, in bytes.
    pub request_bytes: u64,
    /// Size of a server→user response flow, in bytes.
    pub response_bytes: u64,
    /// Percentage of devices assigned the *server* profile at enable
    /// time (the rest are *users*; the split is seeded and at least one
    /// of each is forced when the population allows).
    pub server_share_pct: u8,
    /// Modelled per-direction link capacity in bits per second.
    pub link_capacity_bps: u64,
    /// Percentage of a link's capacity-per-period above which the
    /// over-subscription watchdog fires.
    pub oversub_pct: u8,
    /// Percentage of a device's ECMP bytes on a single member (of a
    /// group with ≥ 2 members) above which the polarisation watchdog
    /// fires.
    pub polarisation_pct: u8,
    /// Minimum ECMP bytes per device per round before the polarisation
    /// watchdog is consulted (suppresses verdicts on trivial samples).
    pub polarisation_min_bytes: u64,
    /// Rolling SLO window length, in flows per pair.
    pub slo_window: usize,
    /// Loss percentage over a full window at which a pair breaches.
    pub slo_loss_pct: u8,
    /// Flow TTL (loops surface as lost flows; the loop *witness* is the
    /// probe mesh's job).
    pub ttl: u8,
    /// Flow-stream seed. `0` means "derive from the run seed" (the
    /// orchestrator substitutes its seed before enabling).
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            period: SimDuration::from_secs(5),
            flows_per_round: 8,
            request_bytes: 2_000,
            response_bytes: 100_000,
            server_share_pct: 25,
            link_capacity_bps: 10_000_000_000,
            oversub_pct: 80,
            polarisation_pct: 90,
            polarisation_min_bytes: 64_000,
            slo_window: 12,
            slo_loss_pct: 25,
            ttl: 64,
            seed: 0,
        }
    }
}

impl TrafficConfig {
    /// A config launching flows every `period` with the other knobs at
    /// their defaults.
    #[must_use]
    pub fn with_period(period: SimDuration) -> Self {
        TrafficConfig {
            period,
            ..TrafficConfig::default()
        }
    }

    /// How many bytes one direction of a link can carry in one period
    /// at the modelled capacity.
    #[must_use]
    pub fn capacity_bytes_per_period(&self) -> u64 {
        let bits = u128::from(self.link_capacity_bps) * u128::from(self.period.as_nanos());
        u64::try_from(bits / (8 * 1_000_000_000)).unwrap_or(u64::MAX)
    }
}

/// One flow the sampler planned for a round: population indices plus
/// the flow size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source index into [`TrafficState::population`].
    pub src: usize,
    /// Destination index into [`TrafficState::population`].
    pub dst: usize,
    /// Flow size in bytes.
    pub bytes: u64,
}

/// Per-device ECMP spread residue between two traffic ticks: bytes per
/// chosen egress member, counted only for forwards through groups with
/// at least two members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcmpResidue {
    /// Bytes per chosen egress interface since the last tick.
    pub by_iface: BTreeMap<u32, u64>,
    /// Largest ECMP group size observed since the last tick.
    pub members_max: u64,
}

/// A content digest of a FIB entry's next-hop set, used to detect that
/// a device's route for a prefix *changed* between two packets of the
/// same transient (the "rerouted" signal in rehearsal deltas). Pure
/// function of the entry, so every shard computes the same digest.
#[must_use]
pub fn entry_sig(entry: &FibEntry) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for hop in entry.next_hops.iter() {
        h ^= (u64::from(hop.iface) << 32) | u64::from(hop.via.0);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ entry.next_hops.len() as u64
}

/// Live traffic-plane state inside a `ControlPlaneWorld`
/// (`crate::harness::ControlPlaneWorld`): utilisation gauges, flow SLO
/// windows, the congestion incident log, and the per-tick residues the
/// watchdogs evaluate. Cloned wholesale on fork; split and re-merged
/// around a parallel run (every keyed entry travels with the shard
/// owning its device, so gauges stay continuous and byte-identical).
#[derive(Debug, Clone)]
pub struct TrafficState {
    /// The active configuration (seed already resolved).
    pub cfg: TrafficConfig,
    /// Flow endpoints: every device with an OS at enable time, with its
    /// loopback address, sorted by device id. Replicated on every shard
    /// so flow sampling is a shard-independent pure function.
    pub population: Vec<(DeviceId, Ipv4Addr)>,
    /// Seeded profile split, parallel to `population`: `true` = server.
    pub servers: Vec<bool>,
    /// Per-pair flow gauges (reusing the health plane's rolling-window
    /// [`PairStats`]), keyed `(src, dst)`.
    pub pairs: BTreeMap<(DeviceId, DeviceId), PairStats>,
    /// Bytes transmitted per directional link since the last tick,
    /// keyed `(transmitting device, link)` — the over-subscription
    /// watchdog's residue, reset every tick.
    pub tx_since_tick: BTreeMap<(DeviceId, LinkId), u64>,
    /// Cumulative bytes transmitted per directional link.
    pub link_bytes: BTreeMap<(DeviceId, LinkId), u64>,
    /// Worst per-period byte count seen per directional link (the peak
    /// the utilisation report renders against capacity-per-period).
    pub link_peak: BTreeMap<(DeviceId, LinkId), u64>,
    /// Per-device ECMP spread residue, reset every tick.
    pub ecmp_since_tick: BTreeMap<DeviceId, EcmpResidue>,
    /// Last observed next-hop-set digest per `(device, prefix)` — the
    /// reroute detector's memory.
    pub route_sig: BTreeMap<(DeviceId, Ipv4Prefix), u64>,
    /// The congestion incident timeline, in deterministic order.
    pub incidents: Vec<Incident>,
    /// Total flows launched.
    pub flows_sent: u64,
    /// Total flows whose last byte reached the destination.
    pub flows_delivered: u64,
    /// Total flows lost en route (any cause).
    pub flows_lost: u64,
    /// Total flows that crossed a device whose route for the flow's
    /// destination had changed since last observed.
    pub flows_rerouted: u64,
    /// Bytes offered by launched flows.
    pub bytes_offered: u64,
    /// Bytes of delivered flows.
    pub bytes_delivered: u64,
    /// Bytes of lost flows.
    pub bytes_lost: u64,
    /// Per-round sampling seed base, derived once from
    /// [`TrafficConfig::seed`] at enable time.
    pub derived_seed: u64,
}

impl TrafficState {
    /// Fresh state over `population` (sorted by device id internally),
    /// with the server/user profile split drawn from the seed. When the
    /// population has at least two devices, at least one server and one
    /// user are forced so every round can sample flows.
    #[must_use]
    pub fn new(cfg: TrafficConfig, mut population: Vec<(DeviceId, Ipv4Addr)>) -> Self {
        population.sort_by_key(|(d, _)| d.0);
        let derived_seed = SimRng::for_component(cfg.seed, "traffic-flow").next_u64();
        let mut profile_rng = SimRng::for_component(cfg.seed, "traffic-profile");
        let mut servers: Vec<bool> = population
            .iter()
            .map(|_| profile_rng.below(100) < u64::from(cfg.server_share_pct))
            .collect();
        if servers.len() >= 2 {
            if !servers.iter().any(|s| *s) {
                servers[0] = true;
            }
            if servers.iter().all(|s| *s) {
                let last = servers.len() - 1;
                servers[last] = false;
            }
        }
        TrafficState {
            cfg,
            population,
            servers,
            pairs: BTreeMap::new(),
            tx_since_tick: BTreeMap::new(),
            link_bytes: BTreeMap::new(),
            link_peak: BTreeMap::new(),
            ecmp_since_tick: BTreeMap::new(),
            route_sig: BTreeMap::new(),
            incidents: Vec::new(),
            flows_sent: 0,
            flows_delivered: 0,
            flows_lost: 0,
            flows_rerouted: 0,
            bytes_offered: 0,
            bytes_delivered: 0,
            bytes_lost: 0,
            derived_seed,
        }
    }

    /// The flows round `round` launches: a pure function of
    /// `(derived_seed, round)`, independent of shard layout and of every
    /// other round. Even-indexed flows are user→server requests,
    /// odd-indexed flows server→user responses (Elvis-style paired
    /// request/response traffic at flow granularity).
    #[must_use]
    pub fn sample_flows(&self, round: u64) -> Vec<FlowSpec> {
        let servers: Vec<usize> = (0..self.population.len())
            .filter(|i| self.servers[*i])
            .collect();
        let users: Vec<usize> = (0..self.population.len())
            .filter(|i| !self.servers[*i])
            .collect();
        if servers.is_empty() || users.is_empty() {
            return Vec::new();
        }
        let mut rng =
            SimRng::from_seed(self.derived_seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (0..self.cfg.flows_per_round)
            .map(|i| {
                let s = servers[rng.below(servers.len() as u64) as usize];
                let u = users[rng.below(users.len() as u64) as usize];
                if i % 2 == 0 {
                    FlowSpec {
                        src: u,
                        dst: s,
                        bytes: self.cfg.request_bytes,
                    }
                } else {
                    FlowSpec {
                        src: s,
                        dst: u,
                        bytes: self.cfg.response_bytes,
                    }
                }
            })
            .collect()
    }

    /// Records that `dev` observed next-hop digest `sig` for `prefix`
    /// and reports whether that *differs* from the previous observation
    /// (first observations prime silently). Drives the "rerouted during
    /// the transient" counter.
    pub fn note_route(&mut self, dev: DeviceId, prefix: Ipv4Prefix, sig: u64) -> bool {
        match self.route_sig.insert((dev, prefix), sig) {
            Some(prev) => prev != sig,
            None => false,
        }
    }

    /// Splits off the state a parallel shard carries: full config,
    /// population, and profile split (flow sampling must replay
    /// identically everywhere), the live pair stats whose *source* the
    /// shard owns, every device-keyed gauge and residue for owned
    /// devices, and zeroed totals/incidents (merged back additively at
    /// the join).
    #[must_use]
    pub fn fork_for_shard(&self, owns: impl Fn(DeviceId) -> bool) -> TrafficState {
        TrafficState {
            cfg: self.cfg.clone(),
            population: self.population.clone(),
            servers: self.servers.clone(),
            pairs: self
                .pairs
                .iter()
                .filter(|((src, _), _)| owns(*src))
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            tx_since_tick: filter_keyed(&self.tx_since_tick, &owns),
            link_bytes: filter_keyed(&self.link_bytes, &owns),
            link_peak: filter_keyed(&self.link_peak, &owns),
            ecmp_since_tick: self
                .ecmp_since_tick
                .iter()
                .filter(|(d, _)| owns(**d))
                .map(|(d, r)| (*d, r.clone()))
                .collect(),
            route_sig: self
                .route_sig
                .iter()
                .filter(|((d, _), _)| owns(*d))
                .map(|(k, v)| (*k, *v))
                .collect(),
            incidents: Vec::new(),
            flows_sent: 0,
            flows_delivered: 0,
            flows_lost: 0,
            flows_rerouted: 0,
            bytes_offered: 0,
            bytes_delivered: 0,
            bytes_lost: 0,
            derived_seed: self.derived_seed,
        }
    }

    /// Folds a shard's state back in after a parallel run: keyed
    /// entries replace the serial ones (each key is exclusively owned
    /// by one shard, which carried the live continuation), totals add,
    /// incidents accumulate for a single deterministic sort by the
    /// caller.
    pub fn absorb_shard(&mut self, shard: TrafficState) {
        for (k, v) in shard.pairs {
            self.pairs.insert(k, v);
        }
        for (k, v) in shard.tx_since_tick {
            self.tx_since_tick.insert(k, v);
        }
        for (k, v) in shard.link_bytes {
            self.link_bytes.insert(k, v);
        }
        for (k, v) in shard.link_peak {
            self.link_peak.insert(k, v);
        }
        for (k, v) in shard.ecmp_since_tick {
            self.ecmp_since_tick.insert(k, v);
        }
        for (k, v) in shard.route_sig {
            self.route_sig.insert(k, v);
        }
        self.flows_sent += shard.flows_sent;
        self.flows_delivered += shard.flows_delivered;
        self.flows_lost += shard.flows_lost;
        self.flows_rerouted += shard.flows_rerouted;
        self.bytes_offered += shard.bytes_offered;
        self.bytes_delivered += shard.bytes_delivered;
        self.bytes_lost += shard.bytes_lost;
        self.incidents.extend(shard.incidents);
    }

    /// Restores the deterministic timeline order after shard incident
    /// lists were concatenated.
    pub fn sort_incidents(&mut self) {
        self.incidents.sort_by_key(Incident::sort_key);
    }
}

/// Filters a `(device, link)`-keyed map down to the entries whose
/// device `owns` claims.
fn filter_keyed<V: Clone>(
    map: &BTreeMap<(DeviceId, LinkId), V>,
    owns: impl Fn(DeviceId) -> bool,
) -> BTreeMap<(DeviceId, LinkId), V> {
    map.iter()
        .filter(|((d, _), _)| owns(*d))
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_dataplane::NextHop;

    fn pop(n: u32) -> Vec<(DeviceId, Ipv4Addr)> {
        (0..n)
            .map(|i| (DeviceId(i), Ipv4Addr(0x0a00_0000 + i)))
            .collect()
    }

    #[test]
    fn flow_sampling_is_deterministic_and_respects_profiles() {
        let t = TrafficState::new(
            TrafficConfig {
                flows_per_round: 64,
                seed: 7,
                ..TrafficConfig::default()
            },
            pop(9),
        );
        let a = t.sample_flows(3);
        assert_eq!(a, t.sample_flows(3), "same round samples the same flows");
        assert_ne!(t.sample_flows(4), a, "rounds sample independently");
        for (i, f) in a.iter().enumerate() {
            assert_ne!(f.src, f.dst, "profiles are disjoint: no self-flows");
            let (from_user, size) = if i % 2 == 0 {
                (true, t.cfg.request_bytes)
            } else {
                (false, t.cfg.response_bytes)
            };
            assert_eq!(f.bytes, size);
            assert_eq!(t.servers[f.src], !from_user, "src profile matches parity");
            assert_eq!(t.servers[f.dst], from_user, "dst profile matches parity");
        }
    }

    #[test]
    fn profile_split_always_has_both_roles_when_possible() {
        for share in [0u8, 100] {
            let t = TrafficState::new(
                TrafficConfig {
                    server_share_pct: share,
                    ..TrafficConfig::default()
                },
                pop(5),
            );
            assert!(
                t.servers.iter().any(|s| *s),
                "share {share}: a server exists"
            );
            assert!(
                t.servers.iter().any(|s| !*s),
                "share {share}: a user exists"
            );
            assert!(!t.sample_flows(0).is_empty());
        }
        let t = TrafficState::new(TrafficConfig::default(), pop(1));
        assert!(t.sample_flows(0).is_empty(), "one device cannot flow");
    }

    #[test]
    fn capacity_per_period_scales_with_period() {
        let cfg = TrafficConfig {
            link_capacity_bps: 8_000_000_000,
            period: SimDuration::from_secs(2),
            ..TrafficConfig::default()
        };
        assert_eq!(cfg.capacity_bytes_per_period(), 2_000_000_000);
    }

    #[test]
    fn entry_sig_tracks_next_hop_set_content() {
        let mk = |hops: &[(u32, u32)]| FibEntry {
            next_hops: hops
                .iter()
                .map(|&(iface, via)| NextHop {
                    iface,
                    via: Ipv4Addr(via),
                })
                .collect(),
        };
        let a = mk(&[(1, 10), (2, 20)]);
        assert_eq!(entry_sig(&a), entry_sig(&a.clone()));
        assert_ne!(entry_sig(&a), entry_sig(&mk(&[(1, 10)])));
        assert_ne!(entry_sig(&a), entry_sig(&mk(&[(1, 10), (3, 20)])));
    }

    #[test]
    fn shard_split_travels_device_keyed_state_and_merges_totals() {
        let mut t = TrafficState::new(TrafficConfig::default(), pop(4));
        let l = LinkId(9);
        t.tx_since_tick.insert((DeviceId(1), l), 500);
        t.tx_since_tick.insert((DeviceId(3), l), 700);
        t.link_peak.insert((DeviceId(1), l), 500);
        t.route_sig
            .insert((DeviceId(1), Ipv4Prefix::new(Ipv4Addr(0), 0)), 42);
        t.pairs.entry((DeviceId(1), DeviceId(2))).or_default().sent = 3;

        let mut shard = t.fork_for_shard(|d| d.0 < 2);
        assert_eq!(shard.tx_since_tick.get(&(DeviceId(1), l)), Some(&500));
        assert_eq!(shard.tx_since_tick.get(&(DeviceId(3), l)), None);
        assert_eq!(shard.pairs.len(), 1, "pair travels with its source");
        assert_eq!(shard.route_sig.len(), 1);

        shard.flows_sent = 2;
        shard.tx_since_tick.insert((DeviceId(1), l), 900);
        t.absorb_shard(shard);
        assert_eq!(t.flows_sent, 2);
        assert_eq!(
            t.tx_since_tick.get(&(DeviceId(1), l)),
            Some(&900),
            "owned keys replace"
        );
        assert_eq!(
            t.tx_since_tick.get(&(DeviceId(3), l)),
            Some(&700),
            "unowned keys survive"
        );
    }

    #[test]
    fn note_route_primes_then_flags_changes() {
        let mut t = TrafficState::new(TrafficConfig::default(), pop(2));
        let p = Ipv4Prefix::new(Ipv4Addr(0x0a00_0000), 24);
        assert!(!t.note_route(DeviceId(0), p, 1), "first observation primes");
        assert!(!t.note_route(DeviceId(0), p, 1), "unchanged route is quiet");
        assert!(t.note_route(DeviceId(0), p, 2), "changed digest flags");
        assert!(!t.note_route(DeviceId(0), p, 2), "and re-primes");
    }
}
