//! Incremental-rehearsal bench: warm re-convergence through the
//! fork/commit session API vs the full-settle path (rebuild the
//! mockup, apply the change the old way, settle) across Table 3 scale
//! bands.
//!
//! Prints a table and writes `BENCH_incremental.json` at the workspace
//! root. Every incremental run is checked FIB-identical to the full-path
//! emulation after each change before its timing is accepted.
//!
//! `full_seconds` = measured mockup wall + post-change settle wall: the
//! cost an operator pays without warm-start. `CRYSTALNET_FULL=1` adds the
//! L-DC band (at 0.25 pod scale unless also `CRYSTALNET_LDC_FULL=1`).
//!
//! `dirty_devices` is the scoped ripple *prediction*: the config-acl row
//! must stay leaf-local and the link-down row pod-local, while the
//! network-origination row legitimately floods the band. The FIB
//! equivalence check diffs the full scope regardless, so a short
//! prediction can never hide a mutation.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_dataplane::Fib;
use crystalnet_net::{ClosParams, ClosTopology, DeviceId};
use std::collections::BTreeMap;
use std::time::Instant;

fn bands() -> Vec<(&'static str, ClosTopology)> {
    let mut v = vec![
        ("s-dc", ClosParams::s_dc().build()),
        ("m-dc", ClosParams::m_dc().build()),
    ];
    if std::env::var("CRYSTALNET_FULL").is_ok_and(|x| x == "1") {
        let params = if std::env::var("CRYSTALNET_LDC_FULL").is_ok_and(|x| x == "1") {
            ClosParams::l_dc()
        } else {
            ClosParams::l_dc().scaled_pods(0.25)
        };
        v.push(("l-dc", params.build()));
    }
    v
}

fn build(topo: &ClosTopology, seed: u64) -> (Emulation, f64) {
    let prep = prepare(
        &topo.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let start = Instant::now();
    let emu = mockup(Arc::new(prep), MockupOptions::builder().seed(seed).build());
    (emu, start.elapsed().as_secs_f64())
}

/// Applies `set` on the warm emulation through the session API — fork,
/// rehearse on the child, commit the child back.
fn apply_warm(warm: &mut Emulation, set: &ChangeSet) -> ConvergenceDelta {
    let mut fork = warm.fork();
    let delta = fork.apply(set).expect("change applies on fork");
    fork.commit(warm);
    delta
}

fn fib_map(emu: &Emulation) -> BTreeMap<DeviceId, Fib> {
    let mut devs: Vec<DeviceId> = emu.sandboxes.keys().copied().collect();
    devs.sort_unstable_by_key(|d| d.0);
    devs.into_iter()
        .filter_map(|d| emu.sim.os(d).map(|os| (d, os.fib().clone())))
        .collect()
}

struct Row {
    band: String,
    devices: usize,
    change: &'static str,
    dirty: usize,
    fib_changes: usize,
    incremental_secs: f64,
    full_secs: f64,
    incremental_virtual_ns: u64,
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    for (band, topo) in bands() {
        let devices = topo.topo.device_count();
        // One warm emulation takes the incremental path; a second takes
        // the pre-existing full path (reload/disconnect + full settle).
        let (mut warm, warm_mockup_secs) = build(&topo, 42);
        let (mut full, full_mockup_secs) = build(&topo, 42);
        println!(
            "{band:<6} devices={devices:<5} mockup {warm_mockup_secs:>7.3}s / {full_mockup_secs:>7.3}s"
        );

        // -- Change 1: ACL-only edit on a ToR. Filtering packets cannot
        // change what the device announces or selects, so the predicted
        // dirty set must stay leaf-local (ToR + direct neighbors), not
        // flood the band — this row is the pruning regression gauge.
        let tor = topo.pods[0].tors[0];
        let mut cfg = warm
            .prep
            .configs
            .iter()
            .find(|(d, _)| *d == tor)
            .map(|(_, c)| c.clone())
            .expect("tor has a config");
        cfg.acls.insert(
            "ACL-BENCH".into(),
            crystalnet_config::Acl {
                entries: vec![crystalnet_config::AclEntry {
                    seq: 10,
                    action: crystalnet_config::Action::Deny,
                    src: "10.66.0.0/24".parse().unwrap(),
                    dst: "0.0.0.0/0".parse().unwrap(),
                }],
            },
        );
        let delta = apply_warm(&mut warm, &ChangeSet::new().config_update(tor, cfg.clone()));
        assert!(
            delta.dirty.len() < devices,
            "{band}: ACL-only edit must not dirty the whole band"
        );
        let t = Instant::now();
        full.reload(tor, cfg.clone(), false);
        full.settle().expect("full path settles");
        let full_secs = full_mockup_secs + t.elapsed().as_secs_f64();
        assert_eq!(
            fib_map(&warm),
            fib_map(&full),
            "{band}: config-acl FIB mismatch"
        );
        rows.push(Row {
            band: band.to_string(),
            devices,
            change: "config-acl",
            dirty: delta.dirty.len(),
            fib_changes: delta.total_fib_changes(),
            incremental_secs: delta.wall.as_secs_f64(),
            full_secs,
            incremental_virtual_ns: delta.virtual_cost.as_nanos(),
        });

        // -- Change 2: config update (announce a new network on the same
        // ToR) — a new origination legitimately reaches every device, so
        // this row's dirty set stays fabric-wide.
        cfg.bgp
            .as_mut()
            .expect("generated configs run BGP")
            .networks
            .push("10.200.0.0/24".parse().unwrap());

        let delta = apply_warm(&mut warm, &ChangeSet::new().config_update(tor, cfg.clone()));
        let t = Instant::now();
        full.reload(tor, cfg, false);
        full.settle().expect("full path settles");
        let full_secs = full_mockup_secs + t.elapsed().as_secs_f64();
        assert_eq!(
            fib_map(&warm),
            fib_map(&full),
            "{band}: config-update FIB mismatch"
        );
        rows.push(Row {
            band: band.to_string(),
            devices,
            change: "config-update",
            dirty: delta.dirty.len(),
            fib_changes: delta.total_fib_changes(),
            incremental_secs: delta.wall.as_secs_f64(),
            full_secs,
            incremental_virtual_ns: delta.virtual_cost.as_nanos(),
        });

        // -- Change 3: link down (first pod-0 leaf uplink) — ECMP
        // redundancy bounds the ripple to the pod plus the shared
        // spine/border tier, so dirty stays below the device count on
        // multi-pod bands.
        let leaf = topo.pods[0].leaves[0];
        let lid = topo
            .topo
            .links()
            .find(|(_, l)| l.a.device == leaf || l.b.device == leaf)
            .map(|(lid, _)| lid)
            .expect("leaf has links");
        let delta = apply_warm(&mut warm, &ChangeSet::new().link_down(lid));
        let t = Instant::now();
        full.disconnect(lid);
        full.settle().expect("full path settles");
        let full_secs = full_mockup_secs + t.elapsed().as_secs_f64();
        assert_eq!(
            fib_map(&warm),
            fib_map(&full),
            "{band}: link-down FIB mismatch"
        );
        rows.push(Row {
            band: band.to_string(),
            devices,
            change: "link-down",
            dirty: delta.dirty.len(),
            fib_changes: delta.total_fib_changes(),
            incremental_secs: delta.wall.as_secs_f64(),
            full_secs,
            incremental_virtual_ns: delta.virtual_cost.as_nanos(),
        });
    }

    let mut json_rows = Vec::new();
    for r in &rows {
        let speedup = r.full_secs / r.incremental_secs.max(1e-9);
        println!(
            "{:<6} {:<14} dirty={:<5} fib_changes={:<6} incremental {:>8.3}s  full {:>8.3}s  speedup {:>7.1}x",
            r.band, r.change, r.dirty, r.fib_changes, r.incremental_secs, r.full_secs, speedup
        );
        json_rows.push(format!(
            "{{\"band\": \"{}\", \"devices\": {}, \"change\": \"{}\", \"dirty_devices\": {}, \
             \"fib_changes\": {}, \"incremental_seconds\": {:.6}, \"full_seconds\": {:.6}, \
             \"speedup\": {:.2}, \"incremental_virtual_ns\": {}}}",
            r.band,
            r.devices,
            r.change,
            r.dirty,
            r.fib_changes,
            r.incremental_secs,
            r.full_secs,
            speedup,
            r.incremental_virtual_ns
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"incremental\",\n  \"bench_meta\": {},\n  \"full_definition\": \
         \"mockup wall + post-change settle wall\",\n  \"results\": [\n    {}\n  ]\n}}\n",
        crystalnet_bench::meta::bench_meta_json(1),
        json_rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(path, json).expect("write BENCH_incremental.json");
    println!("wrote {path}");
}
