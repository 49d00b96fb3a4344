//! The BGP-4 routing engine behind the emulated firmware images.
//!
//! This is the reproduction's stand-in for the proprietary vendor NOS
//! images CrystalNet boots: a complete eBGP implementation — session
//! handshake, Adj-RIB-In per peer, the full decision process with ECMP
//! multipath, policy application, `aggregate-address` with vendor-divergent
//! AS-path construction (Figure 1), MRAI-batched advertisement, FIB
//! install with hardware capacity limits (§2's blackhole incident), and
//! the injectable firmware bugs of [`crate::vendor::Quirks`].
//!
//! Design notes for scale (Table 3's O(20M) routes): path attributes are
//! `Arc`-shared; updates are batched per MRAI interval into single
//! messages; the exporter skips peers whose AS already appears in the
//! path (sender-side loop check), which is what makes Clos fabrics with
//! shared layer ASes converge in O(links) messages instead of O(links^2).

use crate::attrs::{Origin, PathAttrs};
use crate::msg::{BgpMsg, Frame};
use crate::os::{
    DeviceOs, FibView, MgmtCommand, MgmtResponse, OsActions, OsEvent, RouteDetails, TimerKind,
};
use crate::provenance::{
    DecisionReason, MutationKind, OriginKind, Provenance, RouteDetail, RouteMutation,
};
use crate::vendor::{AggregateMode, FibOverflow, VendorProfile};
use crystalnet_config::{Action, DeviceConfig, RouteMap, RouteMatch, RouteSet};
use crystalnet_dataplane::{Fib, FibEntry, NextHop};
use crystalnet_net::{Asn, Ipv4Addr, Ipv4Prefix};
use crystalnet_sim::{EventId, SimTime};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Attr equality with the interner's pointer fast path: interned handles
/// are `ptr_eq` iff structurally equal, so the deep comparison only runs
/// for attrs that bypassed [`PathAttrs::intern`] (hand-built test fixtures).
#[inline]
fn same_attrs(a: &Arc<PathAttrs>, b: &Arc<PathAttrs>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// Sentinel interface index meaning "locally attached / deliver here".
pub const LOCAL_IFACE: u32 = u32::MAX;

/// BGP session state (simplified FSM: Idle → OpenSent → Established).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Not trying / administratively down / link down.
    Idle,
    /// Open sent, waiting for the peer.
    OpenSent,
    /// Routes flow.
    Established,
}

/// Where a Loc-RIB best route came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteSource {
    /// A `network` statement.
    Local,
    /// An `aggregate-address`.
    Aggregate,
    /// Learned from peer `index` (the best one among the ECMP set).
    Peer(usize),
}

#[derive(Debug, Clone)]
struct LocEntry {
    /// Attributes as learned/originated (pre-export).
    attrs: Arc<PathAttrs>,
    source: RouteSource,
    /// ECMP peer indexes (empty for local/aggregate). Shared, so a
    /// Loc-RIB copied on write allocates nothing per entry.
    ecmp: Arc<[usize]>,
    /// Monotonic change tick (drives timing-dependent aggregate
    /// contributor selection, the §9 non-determinism).
    changed_tick: u64,
    /// Causal chain of the winning path (interned; cloned from the
    /// Adj-RIB-In entry for learned routes, so no per-decision work).
    prov: Arc<Provenance>,
    /// Why the winning path won.
    reason: DecisionReason,
}

/// An Adj-RIB entry: attributes plus the causal chain that announced them
/// (both interned, so cloning the pair is two refcount bumps).
type RibAttrs = (Arc<PathAttrs>, Arc<Provenance>);

/// The Loc-RIB: best route per prefix.
type LocRib = HashMap<Ipv4Prefix, LocEntry>;

impl RouteDetails for LocRib {
    fn route_detail(&self, prefix: Ipv4Prefix) -> Option<RouteDetail> {
        self.get(&prefix).map(LocEntry::detail)
    }
}

impl LocEntry {
    fn detail(&self) -> RouteDetail {
        RouteDetail {
            attrs: self.attrs.clone(),
            prov: self.prov.clone(),
            reason: self.reason,
        }
    }
}

/// Empties a shared table: in place when this side owns it, by dropping
/// the pointer when a fork or snapshot shares it (no copy just to clear).
fn clear_shared<V>(table: &mut Arc<HashMap<Ipv4Prefix, V>>) {
    match Arc::get_mut(table) {
        Some(t) => t.clear(),
        None => *table = Arc::default(),
    }
}

/// Removes `prefix` from a shared table, copying the table only when the
/// prefix is actually there.
fn remove_shared<V: Clone>(table: &mut Arc<HashMap<Ipv4Prefix, V>>, prefix: Ipv4Prefix) -> bool {
    table.contains_key(&prefix) && Arc::make_mut(table).remove(&prefix).is_some()
}

#[derive(Debug, Clone)]
struct Peer {
    addr: Ipv4Addr,
    remote_as: Asn,
    iface: u32,
    shutdown: bool,
    route_map_in: Option<String>,
    route_map_out: Option<String>,
    state: SessionState,
    link_up: bool,
    /// Session token of the peer's current incarnation.
    remote_token: Option<u64>,
    adj_in: Arc<HashMap<Ipv4Prefix, RibAttrs>>,
    /// Last flushed Adj-RIB-Out.
    advertised: Arc<HashMap<Ipv4Prefix, RibAttrs>>,
    /// Pending (MRAI-batched) changes; `None` = withdraw.
    pending: Arc<HashMap<Ipv4Prefix, Option<RibAttrs>>>,
}

impl Peer {
    fn effective_advertised(&self, prefix: Ipv4Prefix) -> Option<&RibAttrs> {
        match self.pending.get(&prefix) {
            Some(p) => p.as_ref(),
            None => self.advertised.get(&prefix),
        }
    }
}

/// A BGP router OS instance (one emulated firmware image).
///
/// Every route table — the Loc-RIB and each peer's Adj-RIB-In,
/// Adj-RIB-Out and MRAI batch — sits behind its own `Arc` and is written
/// through `Arc::make_mut`; both FIBs are copy-on-write [`Fib`]s.
/// Cloning the OS (an emulation fork) copies pointers; the first write on
/// either side copies only the table it touches.
#[derive(Clone)]
pub struct BgpRouterOs {
    profile: VendorProfile,
    config: DeviceConfig,
    hostname: String,
    asn: Asn,
    router_id: Ipv4Addr,
    loopback: Ipv4Addr,
    local_addrs: Vec<Ipv4Addr>,
    iface_addr: HashMap<u32, Ipv4Addr>,
    peers: Vec<Peer>,
    peer_by_iface: HashMap<u32, usize>,
    networks: BTreeSet<Ipv4Prefix>,
    loc_rib: Arc<LocRib>,
    fib: Fib,
    /// The ASIC view for images with an external forwarding emulator
    /// (CTNR-B + BMv2, §6.2); `None` for single-FIB vendors.
    asic_fib: Option<Fib>,
    dirty: BTreeSet<Ipv4Prefix>,
    mrai_armed: bool,
    change_tick: u64,
    flaps: u32,
    down: bool,
    booted: bool,
    /// This control-plane incarnation's identity (changes on every boot
    /// and config replace — models the TCP connection epoch).
    session_token: u64,
    /// Stable id of the event being handled ([`DeviceOs::begin_event`]);
    /// stamps provenance hops and originations.
    cur_event: EventId,
    /// Whether to journal RIB/FIB mutations for the trace sink.
    tracing: bool,
    /// Mutations journaled since the last `take_route_mutations`.
    mutations: Vec<RouteMutation>,
}

impl BgpRouterOs {
    /// Boots-to-be image with `config` under `profile`.
    ///
    /// The loopback doubles as the router id when the config leaves the
    /// router id unset.
    #[must_use]
    pub fn new(profile: VendorProfile, config: DeviceConfig, loopback: Ipv4Addr) -> Self {
        let has_asic = profile.vendor == crystalnet_net::Vendor::CtnrB;
        let mut os = BgpRouterOs {
            profile,
            hostname: config.hostname.clone(),
            asn: Asn(0),
            router_id: Ipv4Addr::UNSPECIFIED,
            loopback,
            local_addrs: vec![],
            iface_addr: HashMap::new(),
            peers: vec![],
            peer_by_iface: HashMap::new(),
            networks: BTreeSet::new(),
            loc_rib: Arc::default(),
            fib: Fib::new(config.fib_capacity),
            asic_fib: has_asic.then(|| Fib::new(config.fib_capacity)),
            dirty: BTreeSet::new(),
            mrai_armed: false,
            change_tick: 0,
            flaps: 0,
            down: false,
            booted: false,
            session_token: 0,
            cur_event: EventId::ZERO,
            tracing: false,
            mutations: Vec::new(),
            config,
        };
        os.apply_config_internal();
        os
    }

    /// The vendor profile in effect.
    #[must_use]
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The running configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Addresses owned by this device (interfaces + loopback).
    #[must_use]
    pub fn local_addrs(&self) -> &[Ipv4Addr] {
        &self.local_addrs
    }

    /// Established peer addresses.
    #[must_use]
    pub fn established_peers(&self) -> Vec<Ipv4Addr> {
        self.peers
            .iter()
            .filter(|p| p.state == SessionState::Established)
            .map(|p| p.addr)
            .collect()
    }

    /// Total Adj-RIB-In entries across peers.
    #[must_use]
    pub fn adj_rib_in_size(&self) -> usize {
        self.peers.iter().map(|p| p.adj_in.len()).sum()
    }

    /// The Loc-RIB as `(prefix, attrs, ecmp-width)` rows.
    #[must_use]
    pub fn loc_rib(&self) -> Vec<(Ipv4Prefix, Arc<PathAttrs>, usize)> {
        let mut rows: Vec<_> = self
            .loc_rib
            .iter()
            .map(|(p, e)| (*p, e.attrs.clone(), e.ecmp.len()))
            .collect();
        rows.sort_by_key(|(p, _, _)| *p);
        rows
    }

    /// Session flap count (drives the Case-2 crash bug).
    #[must_use]
    pub fn flap_count(&self) -> u32 {
        self.flaps
    }

    /// Evaluates this firmware's inbound ACL on `iface` the way this
    /// vendor parses it — including the §2 v1/v2 misread quirk.
    #[must_use]
    pub fn acl_permits(&self, iface: u32, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let Some(icfg) = self.config.interfaces.get(iface as usize) else {
            return true;
        };
        let Some(name) = &icfg.acl_in else {
            return true;
        };
        let Some(acl) = self.config.acls.get(name) else {
            return true; // unbound ACL name: no filter installed
        };
        if self.profile.quirks.acl_v2_misread {
            acl.permits_v2_misread(src, dst)
        } else {
            acl.permits(src, dst)
        }
    }

    // ------------------------------------------------------------------
    // Configuration
    // ------------------------------------------------------------------

    fn apply_config_internal(&mut self) {
        self.hostname = self.config.hostname.clone();
        self.iface_addr.clear();
        self.local_addrs.clear();
        self.local_addrs.push(self.loopback);
        for (idx, iface) in self.config.interfaces.iter().enumerate() {
            if let Some(cidr) = iface.addr {
                self.iface_addr.insert(idx as u32, cidr.addr);
                self.local_addrs.push(cidr.addr);
            }
        }
        let Some(bgp) = &self.config.bgp else {
            self.peers.clear();
            self.peer_by_iface.clear();
            self.networks.clear();
            return;
        };
        self.asn = bgp.asn;
        self.router_id = if bgp.router_id == Ipv4Addr::UNSPECIFIED {
            self.loopback
        } else {
            bgp.router_id
        };
        self.networks = bgp.networks.iter().copied().collect();
        self.peers = bgp
            .neighbors
            .iter()
            .filter_map(|n| {
                let iface = self.iface_for_peer(n.addr)?;
                let iface_down = self
                    .config
                    .interfaces
                    .get(iface as usize)
                    .is_some_and(|i| i.shutdown);
                Some(Peer {
                    addr: n.addr,
                    remote_as: n.remote_as,
                    iface,
                    shutdown: n.shutdown,
                    route_map_in: n.route_map_in.clone(),
                    route_map_out: n.route_map_out.clone(),
                    state: SessionState::Idle,
                    link_up: !iface_down,
                    remote_token: None,
                    adj_in: Arc::default(),
                    advertised: Arc::default(),
                    pending: Arc::default(),
                })
            })
            .collect();
        self.peer_by_iface = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.iface, i))
            .collect();
    }

    fn iface_for_peer(&self, peer: Ipv4Addr) -> Option<u32> {
        for (idx, iface) in self.config.interfaces.iter().enumerate() {
            if let Some(cidr) = iface.addr {
                if cidr.network().contains(peer) && cidr.addr != peer {
                    return Some(idx as u32);
                }
            }
        }
        None
    }

    fn max_paths(&self) -> usize {
        self.config
            .bgp
            .as_ref()
            .map_or(1, |b| b.max_paths.max(1) as usize)
    }

    // ------------------------------------------------------------------
    // Session machinery
    // ------------------------------------------------------------------

    fn send_open(&self, out: &mut Vec<(u32, Frame)>, peer: &Peer) {
        out.push((
            peer.iface,
            Frame::Bgp(BgpMsg::Open {
                asn: self.asn,
                router_id: self.router_id,
                hold_secs: 180,
                session_token: self.session_token,
            }),
        ));
    }

    fn session_down(&mut self, idx: usize, actions: &mut OsActions) {
        let peer = &mut self.peers[idx];
        let was_established = peer.state == SessionState::Established;
        peer.state = SessionState::Idle;
        clear_shared(&mut peer.pending);
        clear_shared(&mut peer.advertised);
        if was_established {
            self.flaps += 1;
            let flushed: Vec<Ipv4Prefix> = peer.adj_in.keys().copied().collect();
            clear_shared(&mut peer.adj_in);
            actions.route_ops += flushed.len();
            self.dirty.extend(flushed);
            if let Some(limit) = self.profile.quirks.crash_after_flaps {
                if self.flaps >= limit {
                    // Case-2 bug: the OS crashes after repeated flaps.
                    self.down = true;
                    actions.crashed = true;
                }
            }
        }
    }

    fn establish(&mut self, idx: usize, actions: &mut OsActions) {
        if self.peers[idx].state == SessionState::Established {
            return;
        }
        self.peers[idx].state = SessionState::Established;
        // Full-table advertisement toward the new peer.
        let prefixes: Vec<(Ipv4Prefix, Arc<PathAttrs>, RouteSource, Arc<Provenance>)> = self
            .loc_rib
            .iter()
            .map(|(p, e)| (*p, e.attrs.clone(), e.source, e.prov.clone()))
            .collect();
        for (prefix, attrs, source, prov) in prefixes {
            if let Some(exported) = self.export_for(idx, prefix, &attrs, source, &prov) {
                Arc::make_mut(&mut self.peers[idx].pending).insert(prefix, Some(exported));
                actions.route_ops += 1;
            }
        }
        self.arm_mrai(actions);
    }

    fn arm_mrai(&mut self, actions: &mut OsActions) {
        let any_pending = self.peers.iter().any(|p| !p.pending.is_empty());
        if any_pending && !self.mrai_armed {
            self.mrai_armed = true;
            actions.timers.push((self.profile.mrai, TimerKind::Mrai));
        }
    }

    fn flush_mrai(&mut self, actions: &mut OsActions) {
        self.mrai_armed = false;
        for peer in &mut self.peers {
            if peer.state != SessionState::Established || peer.pending.is_empty() {
                clear_shared(&mut peer.pending);
                continue;
            }
            let mut announced = Vec::new();
            let mut withdrawn = Vec::new();
            for (prefix, change) in Arc::make_mut(&mut peer.pending).drain() {
                match change {
                    Some((attrs, prov)) => {
                        Arc::make_mut(&mut peer.advertised)
                            .insert(prefix, (attrs.clone(), prov.clone()));
                        announced.push((prefix, attrs, prov));
                    }
                    None => {
                        if remove_shared(&mut peer.advertised, prefix) {
                            withdrawn.push(prefix);
                        }
                    }
                }
            }
            if !announced.is_empty() || !withdrawn.is_empty() {
                announced.sort_by_key(|(p, _, _)| *p);
                withdrawn.sort();
                actions.route_ops += announced.len() + withdrawn.len();
                actions.out.push((
                    peer.iface,
                    Frame::Bgp(BgpMsg::Update {
                        announced,
                        withdrawn,
                    }),
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // Policy
    // ------------------------------------------------------------------

    /// Returns `Cow::Borrowed` when the matching entry permits without
    /// modifying anything — the common "filter only" policy — so callers
    /// can keep the original allocation (and its interned `Arc`).
    fn apply_route_map<'a>(
        &self,
        map: &RouteMap,
        prefix: Ipv4Prefix,
        attrs: &'a PathAttrs,
    ) -> Option<Cow<'a, PathAttrs>> {
        for entry in &map.entries {
            let matched = entry.matches.iter().all(|m| match m {
                RouteMatch::PrefixList(name) => self
                    .config
                    .prefix_lists
                    .get(name)
                    .is_some_and(|pl| pl.permits(prefix)),
                RouteMatch::AsPathContains(asn) => attrs.contains_as(*asn),
                RouteMatch::Community(c) => attrs.communities.contains(c),
            });
            if !matched {
                continue;
            }
            if entry.action == Action::Deny {
                return None;
            }
            if entry.sets.is_empty() {
                return Some(Cow::Borrowed(attrs));
            }
            let mut new = attrs.clone();
            for set in &entry.sets {
                match set {
                    RouteSet::LocalPref(v) => new.local_pref = *v,
                    RouteSet::Med(v) => new.med = *v,
                    RouteSet::AsPathPrepend(n) => {
                        for _ in 0..*n {
                            new.as_path.insert(0, self.asn);
                        }
                    }
                    RouteSet::Community(c) => new.communities.push(*c),
                }
            }
            return Some(Cow::Owned(new));
        }
        // No entry matched: implicit deny, as real route maps behave.
        None
    }

    /// Computes what (if anything) `prefix` looks like when exported to
    /// peer `idx`: the rewritten attributes plus the causal chain,
    /// extended by this router's re-announcement hop for learned routes
    /// (self-originated routes keep their origin-only chain, matching the
    /// speaker convention). The extension interns once per (route, event)
    /// and hits the table for every further peer in the same fan-out.
    fn export_for(
        &self,
        idx: usize,
        prefix: Ipv4Prefix,
        attrs: &Arc<PathAttrs>,
        source: RouteSource,
        prov: &Arc<Provenance>,
    ) -> Option<RibAttrs> {
        let peer = &self.peers[idx];
        // Firmware bug: stop announcing locally originated networks.
        if self.profile.quirks.stop_announcing_networks && source == RouteSource::Local {
            return None;
        }
        // summary-only aggregates suppress their contributors.
        if self.suppressed_by_aggregate(prefix, source) {
            return None;
        }
        // Split horizon: never export back to the (best) source peer.
        if let RouteSource::Peer(src) = source {
            if src == idx {
                return None;
            }
        }
        let exported = attrs.announced_by(self.asn, self.loopback);
        // Sender-side loop check: pointless to send a path the peer will
        // reject (its AS is already in it).
        if exported.contains_as(peer.remote_as) {
            return None;
        }
        let exported = match &peer.route_map_out {
            Some(name) => {
                let map = self.config.route_maps.get(name)?;
                match self.apply_route_map(map, prefix, &exported)? {
                    Cow::Borrowed(_) => exported,
                    Cow::Owned(modified) => modified,
                }
            }
            None => exported,
        };
        let out_prov = match source {
            RouteSource::Peer(_) => prov.extended(self.router_id, self.cur_event),
            RouteSource::Local | RouteSource::Aggregate => prov.clone(),
        };
        Some((exported.intern(), out_prov))
    }

    fn suppressed_by_aggregate(&self, prefix: Ipv4Prefix, source: RouteSource) -> bool {
        if source == RouteSource::Aggregate {
            return false;
        }
        let Some(bgp) = &self.config.bgp else {
            return false;
        };
        bgp.aggregates
            .iter()
            .any(|a| a.summary_only && a.prefix.covers(prefix) && a.prefix != prefix)
    }

    // ------------------------------------------------------------------
    // Decision process
    // ------------------------------------------------------------------

    /// Total preference order, higher wins: local-pref, then shorter AS
    /// path, then origin, then lower MED, then lower peer address.
    fn candidate_key(
        attrs: &PathAttrs,
    ) -> (
        u32,
        std::cmp::Reverse<usize>,
        std::cmp::Reverse<Origin>,
        std::cmp::Reverse<u32>,
    ) {
        (
            attrs.local_pref,
            std::cmp::Reverse(attrs.as_path.len()),
            std::cmp::Reverse(attrs.origin),
            std::cmp::Reverse(attrs.med),
        )
    }

    fn run_decision(&mut self, actions: &mut OsActions) {
        let dirty: Vec<Ipv4Prefix> = std::mem::take(&mut self.dirty).into_iter().collect();
        if dirty.is_empty() {
            return;
        }
        for prefix in dirty {
            self.decide_prefix(prefix, actions);
        }
        self.refresh_aggregates(actions);
        self.arm_mrai(actions);
    }

    fn decide_prefix(&mut self, prefix: Ipv4Prefix, actions: &mut OsActions) {
        actions.route_ops += 1;
        // Local origination always wins (administrative weight).
        let new_entry: Option<LocEntry> = if self.networks.contains(&prefix) {
            Some(LocEntry {
                attrs: PathAttrs::originated(self.loopback).intern(),
                source: RouteSource::Local,
                ecmp: Arc::default(),
                changed_tick: self.change_tick,
                // Stamped with the current event on first origination; the
                // unchanged-check below keeps that first entry alive, so
                // re-decisions never re-stamp it.
                prov: Provenance::originated(OriginKind::Network, self.loopback, self.cur_event),
                reason: DecisionReason::LocalOrigination,
            })
        } else {
            let mut best: Option<(usize, &Arc<PathAttrs>, &Arc<Provenance>)> = None;
            for (idx, peer) in self.peers.iter().enumerate() {
                if peer.state != SessionState::Established {
                    continue;
                }
                let Some((attrs, prov)) = peer.adj_in.get(&prefix) else {
                    continue;
                };
                let better = match best {
                    None => true,
                    Some((bidx, battrs, _)) => {
                        let ka = Self::candidate_key(attrs);
                        let kb = Self::candidate_key(battrs);
                        ka > kb || (ka == kb && peer.addr < self.peers[bidx].addr)
                    }
                };
                if better {
                    best = Some((idx, attrs, prov));
                }
            }
            best.map(|(bidx, battrs, bprov)| {
                let key = Self::candidate_key(battrs);
                let battrs = battrs.clone();
                let bprov = bprov.clone();
                // One pass collects the ECMP set and the runner-up key —
                // the best key among losing candidates, which names the
                // decision step that eliminated them.
                let mut ecmp: Vec<usize> = Vec::new();
                let mut runner: Option<_> = None;
                for (i, p) in self.peers.iter().enumerate() {
                    if p.state != SessionState::Established {
                        continue;
                    }
                    let Some((a, _)) = p.adj_in.get(&prefix) else {
                        continue;
                    };
                    let k = Self::candidate_key(a);
                    if k == key {
                        ecmp.push(i);
                    } else if runner.as_ref().is_none_or(|r| k > *r) {
                        runner = Some(k);
                    }
                }
                let equal_count = ecmp.len();
                ecmp.sort_by_key(|&i| self.peers[i].addr);
                ecmp.truncate(self.max_paths());
                let reason = match runner {
                    Some(rk) => {
                        if key.0 > rk.0 {
                            DecisionReason::HigherLocalPref
                        } else if key.1 > rk.1 {
                            DecisionReason::ShorterAsPath
                        } else if key.2 > rk.2 {
                            DecisionReason::LowerOriginCode
                        } else {
                            DecisionReason::LowerMed
                        }
                    }
                    // All candidates tied through the attributes: if any
                    // fell off the multipath limit, peer address decided.
                    None if equal_count > ecmp.len() => DecisionReason::LowerPeerAddr,
                    None => DecisionReason::OnlyCandidate,
                };
                LocEntry {
                    attrs: battrs,
                    source: RouteSource::Peer(bidx),
                    ecmp: ecmp.into(),
                    changed_tick: self.change_tick,
                    prov: bprov,
                    reason,
                }
            })
        };

        let old = self.loc_rib.get(&prefix);
        let unchanged = match (&old, &new_entry) {
            (Some(o), Some(n)) => {
                same_attrs(&o.attrs, &n.attrs) && o.ecmp == n.ecmp && o.source == n.source
            }
            (None, None) => true,
            _ => false,
        };
        if unchanged {
            return;
        }
        self.change_tick += 1;

        match new_entry {
            Some(mut entry) => {
                entry.changed_tick = self.change_tick;
                let installed = self.install_fib(prefix, &entry);
                let keep_in_rib =
                    installed || matches!(self.profile.fib_overflow, FibOverflow::SilentDrop);
                if keep_in_rib {
                    let attrs = entry.attrs.clone();
                    let source = entry.source;
                    let prov = entry.prov.clone();
                    self.journal(prefix, MutationKind::Install, Some(&entry));
                    Arc::make_mut(&mut self.loc_rib).insert(prefix, entry);
                    self.enqueue_export(prefix, Some((attrs, source, prov)), actions);
                } else {
                    // RejectRoute overflow: drop entirely and withdraw.
                    self.journal(prefix, MutationKind::Remove, None);
                    remove_shared(&mut self.loc_rib, prefix);
                    self.remove_fib(prefix);
                    self.enqueue_export(prefix, None, actions);
                }
            }
            None => {
                self.journal(prefix, MutationKind::Remove, None);
                remove_shared(&mut self.loc_rib, prefix);
                self.remove_fib(prefix);
                self.enqueue_export(prefix, None, actions);
            }
        }
    }

    /// Journals one RIB/FIB mutation when tracing is on (no-op otherwise,
    /// so untraced runs pay nothing).
    fn journal(&mut self, prefix: Ipv4Prefix, kind: MutationKind, entry: Option<&LocEntry>) {
        if !self.tracing {
            return;
        }
        self.mutations.push(RouteMutation {
            prefix,
            kind,
            prov: entry.map(|e| e.prov.clone()),
            reason: entry.map(|e| e.reason),
        });
    }

    fn fib_entry_for(&self, entry: &LocEntry) -> FibEntry {
        match entry.source {
            RouteSource::Local => FibEntry::new(vec![NextHop {
                iface: LOCAL_IFACE,
                via: self.loopback,
            }]),
            // Aggregates forward like Null0: present but discard
            // (the more-specific contributors do the real work locally).
            RouteSource::Aggregate => FibEntry::default(),
            RouteSource::Peer(_) => FibEntry::new(
                entry
                    .ecmp
                    .iter()
                    .map(|&i| NextHop {
                        iface: self.peers[i].iface,
                        via: self.peers[i].addr,
                    })
                    .collect(),
            ),
        }
    }

    /// Installs into the kernel FIB (and the ASIC FIB where the image has
    /// one). Returns false when the hardware table overflowed.
    fn install_fib(&mut self, prefix: Ipv4Prefix, entry: &LocEntry) -> bool {
        let fe = self.fib_entry_for(entry);
        let outcome = self.fib.install(prefix, fe.clone());
        if let Some(asic) = &mut self.asic_fib {
            // Case-2 bug: the ASIC sync layer skips default-route updates.
            let skip = self.profile.quirks.skip_default_route_fib && prefix.is_default();
            if !skip {
                asic.install(prefix, fe);
            }
        }
        outcome == crystalnet_dataplane::InstallOutcome::Installed
    }

    fn remove_fib(&mut self, prefix: Ipv4Prefix) {
        self.fib.remove(prefix);
        if let Some(asic) = &mut self.asic_fib {
            let skip = self.profile.quirks.skip_default_route_fib && prefix.is_default();
            if !skip {
                asic.remove(prefix);
            }
        }
    }

    fn enqueue_export(
        &mut self,
        prefix: Ipv4Prefix,
        new: Option<(Arc<PathAttrs>, RouteSource, Arc<Provenance>)>,
        actions: &mut OsActions,
    ) {
        for idx in 0..self.peers.len() {
            if self.peers[idx].state != SessionState::Established {
                continue;
            }
            let exported = new.as_ref().and_then(|(attrs, source, prov)| {
                self.export_for(idx, prefix, attrs, *source, prov)
            });
            let peer = &mut self.peers[idx];
            let current = peer.effective_advertised(prefix);
            match (&exported, current) {
                // Same attrs toward this peer ⇒ nothing to send; the
                // provenance is not compared because an attr-identical
                // re-export carries no new routing information.
                (Some(e), Some(c)) if same_attrs(&e.0, &c.0) => {}
                (None, None) => {}
                _ => {
                    actions.route_ops += 1;
                    Arc::make_mut(&mut peer.pending).insert(prefix, exported);
                }
            }
        }
    }

    fn refresh_aggregates(&mut self, actions: &mut OsActions) {
        let aggregates = match &self.config.bgp {
            Some(bgp) if !bgp.aggregates.is_empty() => bgp.aggregates.clone(),
            _ => return,
        };
        for agg in &aggregates {
            // Contributors: more-specific Loc-RIB prefixes under the
            // aggregate.
            let contributor = self
                .loc_rib
                .iter()
                .filter(|(p, e)| {
                    **p != agg.prefix
                        && agg.prefix.covers(**p)
                        && e.source != RouteSource::Aggregate
                })
                // Timing-dependent selection: the most recently changed
                // contributor wins — the §9 non-determinism source.
                .max_by_key(|(p, e)| (e.changed_tick, **p))
                .map(|(p, e)| (*p, e.attrs.clone()));

            match contributor {
                Some((_, contrib_attrs)) => {
                    let attrs = match self.profile.aggregate_mode {
                        AggregateMode::SelectContributorPath => PathAttrs {
                            aggregate: true,
                            next_hop: self.loopback,
                            ..(*contrib_attrs).clone()
                        },
                        AggregateMode::EmptyPath => PathAttrs {
                            as_path: vec![],
                            next_hop: self.loopback,
                            origin: Origin::Igp,
                            med: 0,
                            local_pref: 100,
                            communities: vec![],
                            aggregate: true,
                        },
                    };
                    let attrs = attrs.intern();
                    let changed = self
                        .loc_rib
                        .get(&agg.prefix)
                        .is_none_or(|e| !same_attrs(&e.attrs, &attrs));
                    if changed {
                        self.change_tick += 1;
                        let entry = LocEntry {
                            attrs: attrs.clone(),
                            source: RouteSource::Aggregate,
                            ecmp: Arc::default(),
                            changed_tick: self.change_tick,
                            prov: Provenance::originated(
                                OriginKind::Aggregate,
                                self.loopback,
                                self.cur_event,
                            ),
                            reason: DecisionReason::AggregateSynthesis,
                        };
                        let prov = entry.prov.clone();
                        self.install_fib(agg.prefix, &entry);
                        self.journal(agg.prefix, MutationKind::Install, Some(&entry));
                        Arc::make_mut(&mut self.loc_rib).insert(agg.prefix, entry);
                        self.enqueue_export(
                            agg.prefix,
                            Some((attrs, RouteSource::Aggregate, prov)),
                            actions,
                        );
                    }
                }
                None => {
                    let present = self
                        .loc_rib
                        .get(&agg.prefix)
                        .is_some_and(|e| e.source == RouteSource::Aggregate);
                    if present {
                        self.change_tick += 1;
                        self.journal(agg.prefix, MutationKind::Remove, None);
                        remove_shared(&mut self.loc_rib, agg.prefix);
                        self.remove_fib(agg.prefix);
                        self.enqueue_export(agg.prefix, None, actions);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Inbound message handling
    // ------------------------------------------------------------------

    fn on_bgp(&mut self, iface: u32, msg: BgpMsg, actions: &mut OsActions) {
        let Some(&idx) = self.peer_by_iface.get(&iface) else {
            return; // no session configured on this interface
        };
        if self.peers[idx].shutdown || !self.peers[idx].link_up {
            return;
        }
        match msg {
            BgpMsg::Open {
                asn, session_token, ..
            } => {
                if asn != self.peers[idx].remote_as {
                    // Wrong AS (a §2 config-bug class): reject the session
                    // and fall back to Idle so the peer's trailing
                    // Keepalive cannot complete the handshake either.
                    if self.peers[idx].state == SessionState::Established {
                        self.session_down(idx, actions);
                    }
                    self.peers[idx].state = SessionState::Idle;
                    actions
                        .out
                        .push((iface, Frame::Bgp(BgpMsg::Notification { code: 2 })));
                    return;
                }
                // A repeated token is the same incarnation completing the
                // bidirectional Open exchange: nothing to renegotiate.
                if self.peers[idx].remote_token == Some(session_token)
                    && self.peers[idx].state == SessionState::Established
                {
                    return;
                }
                // A *new* token means the peer restarted (Reload, crash
                // recovery): flush the session before re-establishing.
                if self.peers[idx].state == SessionState::Established {
                    self.session_down(idx, actions);
                    if self.down {
                        return; // the flap-crash quirk fired
                    }
                }
                self.peers[idx].remote_token = Some(session_token);
                // Complete the exchange: our Open (so the peer validates
                // our AS and learns our token) plus a Keepalive.
                self.send_open(&mut actions.out, &self.peers[idx]);
                actions.out.push((iface, Frame::Bgp(BgpMsg::Keepalive)));
                self.establish(idx, actions);
            }
            BgpMsg::Keepalive => {
                if self.peers[idx].state == SessionState::OpenSent {
                    self.establish(idx, actions);
                }
            }
            BgpMsg::Update {
                announced,
                withdrawn,
            } => {
                if self.peers[idx].state != SessionState::Established {
                    return;
                }
                actions.route_ops += announced.len() + withdrawn.len();
                for (prefix, attrs, prov) in announced {
                    // eBGP loop prevention: my AS in the path ⇒ discard.
                    if attrs.contains_as(self.asn) {
                        // A previously accepted route may need removal.
                        if remove_shared(&mut self.peers[idx].adj_in, prefix) {
                            self.dirty.insert(prefix);
                        }
                        continue;
                    }
                    let accepted = match &self.peers[idx].route_map_in {
                        Some(name) => match self.config.route_maps.get(name) {
                            Some(map) => {
                                self.apply_route_map(map, prefix, &attrs)
                                    .map(|out| match out {
                                        // Permitted unmodified: keep the
                                        // sender's (interned) Arc as-is.
                                        Cow::Borrowed(_) => Arc::clone(&attrs),
                                        Cow::Owned(modified) => modified.intern(),
                                    })
                            }
                            None => Some(attrs),
                        },
                        None => Some(attrs),
                    };
                    match accepted {
                        Some(a) => {
                            // Attr-identical re-announcements keep the old
                            // provenance: no routing change happened, and
                            // event ordering (hence which announcement is
                            // "first") is deterministic.
                            let known = self.peers[idx]
                                .adj_in
                                .get(&prefix)
                                .is_some_and(|cur| same_attrs(&cur.0, &a));
                            if !known {
                                Arc::make_mut(&mut self.peers[idx].adj_in)
                                    .insert(prefix, (a, prov));
                                self.dirty.insert(prefix);
                            }
                        }
                        None => {
                            if remove_shared(&mut self.peers[idx].adj_in, prefix) {
                                self.dirty.insert(prefix);
                            }
                        }
                    }
                }
                for prefix in withdrawn {
                    if remove_shared(&mut self.peers[idx].adj_in, prefix) {
                        self.dirty.insert(prefix);
                    }
                }
            }
            BgpMsg::Notification { .. } => {
                self.session_down(idx, actions);
            }
            BgpMsg::RouteRefresh => {
                // RFC 2918 shape: replay the full Adj-RIB-Out toward the
                // requester. The replay goes through the normal MRAI batch
                // and is attribute-identical for unchanged routes, so the
                // receiver's dedup makes it idempotent. Changes already
                // pending toward the peer are newer — keep them.
                if self.peers[idx].state != SessionState::Established {
                    return;
                }
                let peer = &mut self.peers[idx];
                let replay: Vec<(Ipv4Prefix, RibAttrs)> = peer
                    .advertised
                    .iter()
                    .map(|(p, r)| (*p, r.clone()))
                    .collect();
                actions.route_ops += replay.len();
                let pending = Arc::make_mut(&mut peer.pending);
                for (prefix, rib) in replay {
                    pending.entry(prefix).or_insert(Some(rib));
                }
                self.arm_mrai(actions);
            }
        }
    }

    fn on_mgmt(&mut self, command: MgmtCommand, actions: &mut OsActions) {
        match command {
            MgmtCommand::ShowBgpSummary => {
                let rows = self
                    .peers
                    .iter()
                    .map(|p| (p.addr, p.state == SessionState::Established, p.adj_in.len()))
                    .collect();
                actions.response = Some(MgmtResponse::BgpSummary(rows));
            }
            MgmtCommand::ShowRoutes => {
                let rows = self
                    .loc_rib()
                    .into_iter()
                    .map(|(p, a, w)| (p, a.as_path.len(), w))
                    .collect();
                actions.response = Some(MgmtResponse::Routes(rows));
            }
            MgmtCommand::NeighborShutdown(addr) => {
                match self.peers.iter().position(|p| p.addr == addr) {
                    Some(idx) => {
                        self.peers[idx].shutdown = true;
                        actions.out.push((
                            self.peers[idx].iface,
                            Frame::Bgp(BgpMsg::Notification { code: 6 }),
                        ));
                        self.session_down(idx, actions);
                        actions.response = Some(MgmtResponse::Ok);
                    }
                    None => {
                        actions.response = Some(MgmtResponse::Error(format!("no neighbor {addr}")));
                    }
                }
            }
            MgmtCommand::NeighborEnable(addr) => {
                match self.peers.iter().position(|p| p.addr == addr) {
                    Some(idx) => {
                        self.peers[idx].shutdown = false;
                        if self.peers[idx].link_up {
                            self.peers[idx].state = SessionState::OpenSent;
                            self.send_open(&mut actions.out, &self.peers[idx]);
                        }
                        actions.response = Some(MgmtResponse::Ok);
                    }
                    None => {
                        actions.response = Some(MgmtResponse::Error(format!("no neighbor {addr}")));
                    }
                }
            }
            MgmtCommand::AddNetwork(prefix) => {
                if let Some(bgp) = &mut self.config.bgp {
                    bgp.networks.push(prefix);
                }
                self.networks.insert(prefix);
                self.dirty.insert(prefix);
                actions.response = Some(MgmtResponse::Ok);
            }
            MgmtCommand::RemoveNetwork(prefix) => {
                if let Some(bgp) = &mut self.config.bgp {
                    bgp.networks.retain(|p| *p != prefix);
                }
                self.networks.remove(&prefix);
                self.dirty.insert(prefix);
                actions.response = Some(MgmtResponse::Ok);
            }
            MgmtCommand::ApplyAclIn {
                iface,
                acl_name,
                acl,
            } => {
                self.config.acls.insert(acl_name.clone(), acl);
                match self.config.interfaces.iter_mut().find(|i| i.name == iface) {
                    Some(i) => {
                        i.acl_in = Some(acl_name);
                        actions.response = Some(MgmtResponse::Ok);
                    }
                    None => {
                        actions.response =
                            Some(MgmtResponse::Error(format!("no interface {iface}")));
                    }
                }
            }
            MgmtCommand::ReplaceConfig(cfg) => {
                self.config = *cfg;
                self.reset_control_plane();
                // A config replace behaves like a control-plane restart:
                // sessions re-open immediately.
                let boot_actions = self.boot_control_plane();
                actions.out.extend(boot_actions.out);
                actions.timers.extend(boot_actions.timers);
                actions.route_ops += boot_actions.route_ops;
                actions.response = Some(MgmtResponse::Ok);
            }
            MgmtCommand::UpdatePolicy(cfg) => {
                self.soft_refresh(*cfg, actions);
            }
            MgmtCommand::DeviceShutdown => {
                self.down = true;
                actions.response = Some(MgmtResponse::Ok);
            }
        }
    }

    /// Applies a policy-level configuration change without tearing
    /// sessions down (the `SoftRefresh` path of incremental rehearsal).
    ///
    /// Sessions, tokens, and Adj-RIB-In survive. Inbound policy is
    /// re-applied by asking every established peer to replay its
    /// announcements ([`BgpMsg::RouteRefresh`]) — the Adj-RIB-In stores
    /// *post*-import-policy attributes, so both relaxing (denied routes
    /// are absent) and tightening (stale entries must be re-filtered)
    /// need the replay, which goes through the normal Update path under
    /// the new policy. Outbound policy is re-applied locally by
    /// re-exporting the whole Loc-RIB and diffing against each peer's
    /// Adj-RIB-Out ([`BgpRouterOs::refresh_exports`]) — the decision
    /// process alone would not re-export routes whose best path is
    /// unchanged.
    fn soft_refresh(&mut self, cfg: DeviceConfig, actions: &mut OsActions) {
        self.config = cfg;
        self.hostname = self.config.hostname.clone();
        if let Some(bgp) = &self.config.bgp {
            let new_networks: BTreeSet<Ipv4Prefix> = bgp.networks.iter().copied().collect();
            let affected: Vec<Ipv4Prefix> = self
                .networks
                .symmetric_difference(&new_networks)
                .copied()
                .collect();
            self.networks = new_networks;
            self.dirty.extend(affected);
            // Rebind per-peer policy references (session identity — addr,
            // AS, iface — is unchanged by construction: session-affecting
            // edits are classified `SessionReset` and never reach here).
            for peer in &mut self.peers {
                if let Some(n) = bgp.neighbors.iter().find(|n| n.addr == peer.addr) {
                    peer.route_map_in = n.route_map_in.clone();
                    peer.route_map_out = n.route_map_out.clone();
                }
            }
        }
        // Re-decide everything so aggregate/network edits take effect;
        // unchanged prefixes hit the decision process's no-op path.
        let installed: Vec<Ipv4Prefix> = self.loc_rib.keys().copied().collect();
        self.dirty.extend(installed);
        self.refresh_exports(actions);
        for peer in &self.peers {
            if peer.state == SessionState::Established {
                actions
                    .out
                    .push((peer.iface, Frame::Bgp(BgpMsg::RouteRefresh)));
            }
        }
        actions.response = Some(MgmtResponse::Ok);
    }

    /// Recomputes the export of every Loc-RIB route toward every
    /// established peer and queues the differences (new announcements,
    /// changed attributes, withdrawals of now-denied routes) into the
    /// MRAI batch. Needed after an outbound-policy change: the decision
    /// process only re-exports prefixes whose *best path* changed.
    fn refresh_exports(&mut self, actions: &mut OsActions) {
        let entries: Vec<(Ipv4Prefix, Arc<PathAttrs>, RouteSource, Arc<Provenance>)> = self
            .loc_rib
            .iter()
            .map(|(p, e)| (*p, e.attrs.clone(), e.source, e.prov.clone()))
            .collect();
        for (prefix, attrs, source, prov) in entries {
            self.enqueue_export(prefix, Some((attrs, source, prov)), actions);
        }
        self.arm_mrai(actions);
    }

    fn reset_control_plane(&mut self) {
        clear_shared(&mut self.loc_rib);
        self.fib.clear();
        if let Some(asic) = &mut self.asic_fib {
            asic.clear();
        }
        self.dirty.clear();
        self.mrai_armed = false;
        self.apply_config_internal();
    }

    fn boot_control_plane(&mut self) -> OsActions {
        let mut actions = OsActions::default();
        self.booted = true;
        // New incarnation: derived from the router id so tokens are
        // globally distinct, bumped per boot so restarts are detectable.
        self.session_token =
            (u64::from(self.router_id.0) << 20) | ((self.session_token & 0xfffff) + 1);
        // Originate configured networks.
        let networks: Vec<Ipv4Prefix> = self.networks.iter().copied().collect();
        self.dirty.extend(networks);
        self.run_decision(&mut actions);
        // Open sessions on all up links.
        for idx in 0..self.peers.len() {
            if self.peers[idx].link_up && !self.peers[idx].shutdown {
                self.peers[idx].state = SessionState::OpenSent;
                self.send_open(&mut actions.out, &self.peers[idx]);
            }
        }
        actions
    }
}

impl DeviceOs for BgpRouterOs {
    fn clone_boxed(&self) -> Box<dyn DeviceOs> {
        Box::new(self.clone())
    }

    fn handle(&mut self, _now: SimTime, event: OsEvent) -> OsActions {
        if self.down {
            return OsActions::default();
        }
        let mut actions = OsActions::default();
        match event {
            OsEvent::Boot => {
                return self.boot_control_plane();
            }
            OsEvent::LinkUp(iface) => {
                if let Some(&idx) = self.peer_by_iface.get(&iface) {
                    self.peers[idx].link_up = true;
                    if !self.peers[idx].shutdown {
                        self.peers[idx].state = SessionState::OpenSent;
                        self.send_open(&mut actions.out, &self.peers[idx]);
                    }
                }
            }
            OsEvent::LinkDown(iface) => {
                if let Some(&idx) = self.peer_by_iface.get(&iface) {
                    self.peers[idx].link_up = false;
                    self.session_down(idx, &mut actions);
                }
            }
            OsEvent::Frame { iface, frame } => match frame {
                Frame::Bgp(msg) => self.on_bgp(iface, msg, &mut actions),
                Frame::Arp(_) if self.profile.quirks.arp_trap_broken => {
                    // Case-2 bug: the trap never delivers ARP to the CPU.
                }
                Frame::Arp(req) if req.is_request => {
                    // Healthy firmware answers ARP for its own addresses.
                    if self.local_addrs.contains(&req.target_ip) {
                        actions.out.push((
                            iface,
                            Frame::Arp(crystalnet_dataplane::ArpMessage {
                                is_request: false,
                                sender_ip: req.target_ip,
                                sender_mac: crystalnet_net::MacAddr::from_id(req.target_ip.0),
                                target_ip: req.sender_ip,
                            }),
                        ));
                    }
                }
                Frame::Arp(_) | Frame::Data(_) | Frame::Ospf(_) => {}
            },
            OsEvent::Timer(TimerKind::Mrai) => {
                self.flush_mrai(&mut actions);
            }
            OsEvent::Timer(_) => {}
            OsEvent::Mgmt(cmd) => {
                self.on_mgmt(cmd, &mut actions);
            }
        }
        if self.booted && !self.down {
            self.run_decision(&mut actions);
        }
        actions
    }

    fn fib(&self) -> &Fib {
        self.asic_fib.as_ref().unwrap_or(&self.fib)
    }

    fn fib_view(&self) -> FibView {
        FibView::new(self.fib().clone(), Some(self.loc_rib.clone()))
    }

    fn rib_size(&self) -> usize {
        self.loc_rib.len()
    }

    fn is_down(&self) -> bool {
        self.down
    }

    fn hostname(&self) -> &str {
        &self.hostname
    }

    fn local_addrs(&self) -> &[Ipv4Addr] {
        &self.local_addrs
    }

    fn filter_permits(&self, ingress: Option<u32>, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        match ingress {
            Some(iface) => self.acl_permits(iface, src, dst),
            None => true,
        }
    }

    fn adj_rib_in(&self, iface: u32) -> Vec<(Ipv4Prefix, Arc<PathAttrs>)> {
        let Some(&idx) = self.peer_by_iface.get(&iface) else {
            return Vec::new();
        };
        let mut rows: Vec<(Ipv4Prefix, Arc<PathAttrs>)> = self.peers[idx]
            .adj_in
            .iter()
            .map(|(p, (a, _))| (*p, a.clone()))
            .collect();
        rows.sort_by_key(|(p, _)| *p);
        rows
    }

    fn begin_event(&mut self, id: EventId) {
        self.cur_event = id;
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.mutations.clear();
        }
    }

    fn take_route_mutations(&mut self) -> Vec<RouteMutation> {
        std::mem::take(&mut self.mutations)
    }

    fn route_detail(&self, prefix: Ipv4Prefix) -> Option<RouteDetail> {
        self.loc_rib.route_detail(prefix)
    }

    fn routes_with_detail(&self) -> Vec<(Ipv4Prefix, RouteDetail)> {
        let mut rows: Vec<(Ipv4Prefix, RouteDetail)> =
            self.loc_rib.iter().map(|(p, e)| (*p, e.detail())).collect();
        rows.sort_by_key(|(p, _)| *p);
        rows
    }
}

impl BgpRouterOs {
    /// The kernel-side FIB (differs from [`DeviceOs::fib`] only on images
    /// with a separate ASIC emulator).
    #[must_use]
    pub fn kernel_fib(&self) -> &Fib {
        &self.fib
    }
}
