//! Integration: full-stack determinism — a seed fully determines every
//! simulation outcome (the property all experiment reproducibility rests
//! on), and different seeds genuinely differ.

use libdat::chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use libdat::core::{AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use libdat::sim::harness::addr_book;
use libdat::sim::{LatencyModel, LossModel, SchedulerKind, SimNet};
use rand::SeedableRng;

/// Run a lossy, jittery aggregation network and produce a fingerprint of
/// everything observable: events processed, per-node traffic, root reports.
type Fingerprint = (u64, u64, Vec<(u64, u64)>, Vec<(u64, u64)>);

fn fingerprint(seed: u64) -> Fingerprint {
    fingerprint_on(seed, SchedulerKind::Wheel)
}

fn fingerprint_on(seed: u64, scheduler: SchedulerKind) -> Fingerprint {
    fingerprint_with(seed, scheduler, &["cpu-usage"])
}

/// [`fingerprint_on`] with one continuous aggregation per name in
/// `attrs` registered on every node; reports come from each key's root.
fn fingerprint_with(seed: u64, scheduler: SchedulerKind, attrs: &[&str]) -> Fingerprint {
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, 96, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_000,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    // Same construction as `prestabilized_dat`, but on an explicit
    // scheduler backend so the wheel/heap parity test below can drive the
    // identical workload through both.
    let mut net: SimNet<StackNode> = SimNet::with_scheduler(seed, scheduler);
    {
        let book = addr_book(&ring);
        for &id in ring.ids() {
            let addr = book[&id];
            let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
            let table = ring.table_of_with(id, ccfg.succ_list_len, &|id| book[&id]);
            let outs = node.start_with_table(table);
            net.add_node(node);
            net.apply(addr, outs);
        }
    }
    net.set_latency(LatencyModel::Uniform { lo: 2, hi: 40 });
    net.set_loss(LossModel::new(0.02));
    net.set_record_upcalls(false);
    let book = addr_book(&ring);
    let mut keys = Vec::new();
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        keys = attrs
            .iter()
            .enumerate()
            .map(|(j, attr)| {
                let key = node.register(attr, AggregationMode::Continuous);
                node.set_local(key, (i * 3 + j) as f64);
                key
            })
            .collect();
    }
    net.run_for(20_000);
    let traffic: Vec<(u64, u64)> = net
        .addrs()
        .iter()
        .map(|&a| {
            let s = net.link_stats(a);
            (s.sent, s.delivered)
        })
        .collect();
    let mut reports: Vec<(u64, u64)> = Vec::new();
    for key in keys {
        let root = book[&ring.successor(key)];
        reports.extend(
            net.node_mut(root)
                .unwrap()
                .take_events()
                .into_iter()
                .filter_map(|e| match e {
                    DatEvent::Report { epoch, partial, .. } => Some((epoch, partial.count)),
                    _ => None,
                }),
        );
    }
    (net.events_processed(), net.dropped, traffic, reports)
}

#[test]
fn same_seed_reproduces_everything() {
    let a = fingerprint(0xDEAD);
    let b = fingerprint(0xDEAD);
    assert_eq!(a.0, b.0, "events processed");
    assert_eq!(a.1, b.1, "messages dropped");
    assert_eq!(a.2, b.2, "per-node traffic");
    assert_eq!(a.3, b.3, "root reports");
}

#[test]
fn multi_key_run_repeats_in_one_process() {
    // With several aggregations per node, the epoch walk over them — and
    // each key's merge over its children — must not follow hash-map
    // order, which differs between two map instances even in one process.
    let attrs = ["cpu-usage", "mem-free", "disk-io"];
    let a = fingerprint_with(7, SchedulerKind::Wheel, &attrs);
    let b = fingerprint_with(7, SchedulerKind::Wheel, &attrs);
    assert_eq!(a.0, b.0, "events processed");
    assert_eq!(a.1, b.1, "messages dropped");
    assert_eq!(a.2, b.2, "per-node traffic");
    assert_eq!(a.3, b.3, "root reports");
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    // Different rings, latencies and losses: traffic cannot coincide.
    assert_ne!(a.2, b.2, "distinct seeds must produce distinct traffic");
}

#[test]
fn wheel_and_heap_schedulers_are_schedule_identical() {
    // The timer wheel is a drop-in for the heap: the same seed must
    // produce the exact same fingerprint — event counts, every node's
    // traffic, every root report — on both backends. This is the
    // guarantee that lets the wheel be the default without invalidating
    // any recorded digest.
    let w = fingerprint_on(0xBEEF, SchedulerKind::Wheel);
    let h = fingerprint_on(0xBEEF, SchedulerKind::Heap);
    assert_eq!(w.0, h.0, "events processed");
    assert_eq!(w.1, h.1, "messages dropped");
    assert_eq!(w.2, h.2, "per-node traffic");
    assert_eq!(w.3, h.3, "root reports");
}

#[test]
fn sharded_merge_is_schedule_identical_to_wheel() {
    // The sharded backend's K-way `(at, seq)` merge must be a drop-in for
    // the wheel under the full protocol stack — same fingerprint for any
    // lane count, including lane counts that don't divide the workload
    // evenly. This is the merge-rule half of the multi-core determinism
    // contract, proven pop-for-pop without any threading in play.
    let w = fingerprint_on(0xBEEF, SchedulerKind::Wheel);
    for shards in [1u8, 2, 4, 8] {
        let s = fingerprint_on(0xBEEF, SchedulerKind::Sharded { shards });
        assert_eq!(w, s, "{shards}-lane merge diverged from the wheel");
    }
}

#[test]
fn sharded_engine_digest_is_shard_count_invariant() {
    // The threaded engine half of the contract: the same seeded scale
    // workload (real ChordNode maintenance) must produce a byte-identical
    // digest whether it runs on 1 worker thread or 8.
    use libdat::sim::{run_scale, ScaleConfig};
    let cfg = |shards| ScaleConfig {
        n: 192,
        virtual_ms: 5_000,
        shards,
        ..ScaleConfig::default()
    };
    let base = run_scale(cfg(1));
    assert!(base.events > 0, "workload generated no events");
    assert_eq!(base.clamped, 0, "conservative window violated");
    for s in [2usize, 4, 8] {
        let r = run_scale(cfg(s));
        assert_eq!(
            r.digest, base.digest,
            "{s}-shard digest {:016x} diverged from 1-shard {:016x}",
            r.digest, base.digest
        );
        assert_eq!(r.events, base.events, "{s}-shard event count diverged");
        assert_eq!(r.clamped, 0);
    }
}
