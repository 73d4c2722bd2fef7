//! `grid-churn`: the fault path. A 2048-node ring on `SimNet` — the only
//! engine with a fault plan — under seeded crash/restart churn, 1% link
//! loss and one low-rate `CorruptLink` episode on a DAT tree edge. One
//! continuous key carries sensor values in its low bits, whose root sums
//! are scored against the live nodes, and freshness probes in its high
//! bits. (A second key would make runs of one seed differ between
//! processes; README.md explains.) On-demand queries arrive at a fixed
//! virtual rate from random live requesters.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::mpsc::{channel, Sender};
use std::time::Instant;

use dat_chord::routing::ParentDecision;
use dat_chord::{
    ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, NodeStatus, Output, RoutingScheme, StaticRing,
};
use dat_core::{AggregationMode, DatConfig, DatProtocol, StackNode};
use dat_sim::latency::LossModel;
use dat_sim::net::SimNet;
use dat_sim::{CorruptMode, FaultPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fresh::ProbeKey;
use crate::out::{max_over_mean, mean, median, percentile, ratio, Outcome};
use crate::probe::{Class, Probe, Surfaced};
use crate::sim::{self, Engine, Runner, Window};
use crate::{sys, ALLOC};

const ATTR: &str = "cpu-usage";
/// Sensor values (below 16) of all nodes sum below `2^SENSOR_BITS`, four
/// times over; probe bits sit above.
const SENSOR_BITS: u32 = 17;
pub const EPOCH_MS: u64 = 1_000;
const TICK_MS: u64 = 50;
const WARM_EPOCHS: u64 = 3;
/// Link loss on every message.
const LOSS: f64 = 0.01;
/// Freshness probes per epoch.
const PROBES_PER_EPOCH: usize = 5;
/// On-demand queries per virtual second.
const QUERY_RATE: u64 = 4;

#[derive(Clone, Copy, Debug)]
pub struct Churn {
    pub nodes: usize,
    /// Measured epochs; faults and queries run through all of them.
    pub epochs: u64,
    /// Rounds of crashes; each crashes one node per tree level and
    /// restarts it 2–5 epochs later.
    pub crash_rounds: u64,
    pub setups: usize,
}

impl Churn {
    /// Twelve epochs per requested second, about two wall seconds on a
    /// 2-core host. The engine runs on one thread, and its CPU cost
    /// drifts with other tenants' load over tens of seconds. So this
    /// workload measures longer than the others. One crash round every
    /// 45 epochs.
    pub fn full(seconds: u64) -> Self {
        let epochs = (12 * seconds).max(12);
        Churn {
            nodes: 2048,
            epochs,
            crash_rounds: (epochs / 45).max(1),
            setups: 9,
        }
    }

    pub fn tiny() -> Self {
        Churn {
            nodes: 64,
            epochs: 8,
            crash_rounds: 1,
            setups: 2,
        }
    }
}

fn configs(space: IdSpace, ring: &StaticRing) -> (ChordConfig, DatConfig) {
    // The soak harnesses' maintenance cadence: crashed peers leave stale
    // fingers, and the finger fixer is the repair lever.
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_500,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        req_timeout_ms: 1_200,
        max_retries: 1,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: EPOCH_MS,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    (ccfg, dcfg)
}

/// A node's sensor value: a pure function of its lineage and
/// incarnation, so restarts are reproducible.
fn sensor_value(base: Id, gen: u64) -> f64 {
    ((base.0 ^ gen.wrapping_mul(0x9e37_79b9)) % 16) as f64
}

fn register(node: &mut StackNode, base: Id, gen: u64) -> Id {
    let key = node.register(ATTR, AggregationMode::Continuous);
    node.set_local(key, sensor_value(base, gen));
    key
}

/// The sensor part of a value or a root sum (probe bits masked off).
fn sensor_part(v: f64) -> f64 {
    ((v as u64) & ((1 << SENSOR_BITS) - 1)) as f64
}

struct Grid {
    net: SimNet<Probe>,
    ring: StaticRing,
    key: Id,
    setup_s: f64,
    chord_bytes: i64,
    dat_bytes: i64,
}

fn build(cfg: &Churn, seed: u64, sink: &Sender<Surfaced>, timing: bool) -> Grid {
    let t0 = Instant::now();
    let heap0 = ALLOC.live();
    let space = IdSpace::new(32);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, cfg.nodes, IdPolicy::Probed, &mut rng);
    let (ccfg, dcfg) = configs(space, &ring);
    let addr_of: HashMap<Id, NodeAddr> = ring
        .ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, NodeAddr(i as u64)))
        .collect();
    let mut net: SimNet<Probe> = SimNet::new(seed);
    net.set_record_upcalls(false);
    net.set_loss(LossModel::new(LOSS));
    for (i, &id) in ring.ids().iter().enumerate() {
        let addr = NodeAddr(i as u64);
        let node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
        let mut p = Probe::new(node, Some(sink.clone()), timing);
        let table = ring.table_of_with(id, ccfg.succ_list_len, &|x| addr_of[&x]);
        let outs = p.node.start_with_table(table);
        net.add_node(p);
        net.apply(addr, outs);
    }
    let heap1 = ALLOC.live();
    let mut key = Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        if let Some(p) = net.node_mut(NodeAddr(i as u64)) {
            key = register(&mut p.node, id, 0);
        }
    }
    Grid {
        net,
        ring,
        key,
        setup_s: t0.elapsed().as_secs_f64(),
        chord_bytes: heap1 - heap0,
        dat_bytes: ALLOC.live() - heap1,
    }
}

/// The crash/restart plan plus one corruption episode. Returns the plan
/// and the addresses it never crashes.
///
/// Crash victims are stratified by tree level: nodes are bucketed by
/// `log2` of their ring distance to the probe key, which tracks their
/// height in its DAT tree, and every round crashes one node of each
/// bucket at a seeded time. Each run then loses nodes near the root and
/// near the leaves alike, instead of the seed deciding whether a large
/// subtree is ever cut off.
fn plan(
    cfg: &Churn,
    rng: &mut SmallRng,
    net: &SimNet<Probe>,
    ring: &StaticRing,
    key: Id,
    protected: &[NodeAddr],
    start: u64,
) -> (FaultPlan, Vec<NodeAddr>) {
    let space = ring.space();
    let d0 = ring.d0().max(1);
    let mut buckets: Vec<Vec<NodeAddr>> = Vec::new();
    for (i, &id) in ring.ids().iter().enumerate() {
        let a = NodeAddr(i as u64);
        if protected.contains(&a) {
            continue;
        }
        let b = (space.dist_cw(id, key) / d0).max(1).ilog2() as usize;
        if buckets.len() <= b {
            buckets.resize(b + 1, Vec::new());
        }
        buckets[b].push(a);
    }
    let span = cfg.epochs * EPOCH_MS;
    let round = span / cfg.crash_rounds.max(1);
    let mut plan = FaultPlan::new();
    let mut crashed: HashSet<NodeAddr> = HashSet::new();
    for r in 0..cfg.crash_rounds {
        for bucket in buckets.iter_mut().filter(|b| !b.is_empty()) {
            let v = bucket.swap_remove(rng.random_range(0..bucket.len()));
            crashed.insert(v);
            let at =
                start + r * round + rng.random_range(0..round.saturating_sub(3 * EPOCH_MS).max(1));
            let back = at + EPOCH_MS * rng.random_range(2u64..=5);
            plan = plan.crash_at(at, v).restart_at(back, v);
        }
    }
    let stable: Vec<NodeAddr> = (0..cfg.nodes as u64)
        .map(NodeAddr)
        .filter(|a| !crashed.contains(a))
        .collect();
    // Corrupt one tree edge: a stable leaf's link to its DAT parent, for
    // a fifth of the run.
    let leaf = stable[rng.random_range(0..stable.len())];
    if let Some(ParentDecision::Parent(parent)) =
        net.node(leaf).map(|p| p.node.parent_decision(key))
    {
        let at = start + span / 3;
        plan = plan.corrupt_link_at(at, leaf, parent.addr, 0.2, CorruptMode::BitFlip, span / 5);
    }
    (plan, stable)
}

pub fn run(cfg: &Churn, seed: u64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let (tx, rx) = channel();
    let mut setups = Vec::new();
    let mut grid = None;
    for _ in 0..cfg.setups.max(1) {
        drop(grid.take());
        let g = build(cfg, seed, &tx, traced);
        setups.push(g.setup_s);
        grid = Some(g);
    }
    let Some(Grid {
        mut net,
        ring,
        key,
        chord_bytes,
        dat_bytes,
        ..
    }) = grid
    else {
        unreachable!("at least one setup ran")
    };
    let n = cfg.nodes;
    let space = ring.space();
    let (ccfg, dcfg) = configs(space, &ring);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4c4_2e5e);

    // Restarts come back as a new incarnation: fresh address, id nudged
    // past the old one, and a rejoin through a node that never crashes.
    let root = NodeAddr(
        ring.ids()
            .iter()
            .position(|&i| i == ring.successor(key))
            .unwrap_or(0) as u64,
    );
    let bootstrap = NodeAddr(if root.0 == 0 { 1 } else { 0 });
    let protected = [root, bootstrap];
    let warm_end = WARM_EPOCHS * EPOCH_MS;
    let (fault_plan, stable) = plan(cfg, &mut rng, &net, &ring, key, &protected, warm_end);
    let boot_ref = net.node(bootstrap).map(|p| p.node.me());
    type Lineage = (HashMap<NodeAddr, (Id, u64)>, u64);
    let lineage: Rc<RefCell<Lineage>> = Rc::new(RefCell::new((HashMap::new(), n as u64)));
    let ids: Vec<Id> = ring.ids().to_vec();
    let base_value = |a: NodeAddr| sensor_value(ring.ids()[a.0 as usize], 0);
    {
        let lineage = Rc::clone(&lineage);
        let sink = tx.clone();
        net.set_restart_fn(move |addr: NodeAddr| -> Option<(Probe, Vec<Output>)> {
            let mut l = lineage.borrow_mut();
            let (map, next) = &mut *l;
            let (base, gen) = map.remove(&addr).unwrap_or((*ids.get(addr.0 as usize)?, 0));
            let fresh = NodeAddr(*next);
            *next += 1;
            map.insert(fresh, (base, gen + 1));
            let mut node = StackNode::new(ccfg, space.add(base, gen + 1), fresh)
                .with_app(DatProtocol::new(dcfg));
            register(&mut node, base, gen + 1);
            let outs = node.start_join(boot_ref?);
            Some((Probe::new(node, Some(sink.clone()), traced), outs))
        });
    }
    drop(tx);
    net.set_fault_plan(fault_plan);
    let mut d = Runner::new(net, rx, traced);
    let mut probe = ProbeKey::new(SENSOR_BITS);
    let mut probe_vals: HashMap<NodeAddr, f64> = HashMap::new();

    let live_sum = |net: &SimNet<Probe>| -> (f64, u64) {
        let mut s = 0.0;
        let mut live = 0;
        for (_, p) in net.iter_nodes() {
            if p.node.status() == NodeStatus::Active {
                live += 1;
                s += sensor_part(p.node.aggregation(key).and_then(|e| e.local).unwrap_or(0.0));
            }
        }
        (s, live)
    };

    // Per-step handling: probe reports, value-key error, query answers.
    struct Acc {
        errors: Vec<f64>,
        lat: Vec<f64>,
        q_failed: u64,
        open: HashMap<u64, (u64, u64)>,
        measuring: bool,
    }
    let mut acc = Acc {
        errors: Vec::new(),
        lat: Vec::new(),
        q_failed: 0,
        open: HashMap::new(),
        measuring: false,
    };
    let step = |d: &mut Runner<SimNet<Probe>>,
                t: u64,
                acc: &mut Acc,
                probe: &mut ProbeKey,
                probe_vals: &mut HashMap<NodeAddr, f64>| {
        let evs = d.advance(t);
        let mut expect = None;
        for ev in evs {
            match ev {
                Surfaced::Report { sum, vms, .. } => {
                    for c in probe.on_report(sum, vms as f64) {
                        if let Some(v) = probe_vals.get_mut(&c.leaf) {
                            *v += c.delta;
                            let v = *v;
                            if let Some(p) = d.net.probe_mut(c.leaf) {
                                p.node.set_local(key, v);
                            }
                        }
                    }
                    if acc.measuring {
                        let (want, _) = *expect.get_or_insert_with(|| live_sum(&d.net));
                        acc.errors
                            .push(ratio((sensor_part(sum) - want).abs(), want) * 100.0);
                    }
                }
                Surfaced::Answer {
                    token,
                    contributors,
                    vms,
                    ..
                } => {
                    if let Some((t0, live)) = acc.open.remove(&token) {
                        acc.lat.push((vms - t0) as f64);
                        if contributors < live {
                            acc.q_failed += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        let now = d.net.now_ms();
        let before = acc.open.len();
        acc.open.retain(|_, (t0, _)| now - *t0 < 10 * EPOCH_MS);
        acc.q_failed += (before - acc.open.len()) as u64;
    };

    while d.net.now_ms() < warm_end {
        let t = (d.net.now_ms() + TICK_MS).min(warm_end);
        step(&mut d, t, &mut acc, &mut probe, &mut probe_vals);
    }

    // Measured window: faults, probes and queries.
    let all0: Vec<NodeAddr> = (0..n as u64).map(NodeAddr).collect();
    let (reg0, merge_ms) = if traced {
        sim::fleet_registry(&d.net, &all0)
    } else {
        Default::default()
    };
    let stats0 = sim::fleet_stats(&d.net, &stable);
    let loads0: Vec<u64> = stable
        .iter()
        .map(|&a| d.net.probe(a).map_or(0, |p| p.stats.dat_load()))
        .collect();
    let (sent0, delivered0) = sim::fleet_link(&d.net, &all0);
    let events0 = d.net.events();
    let window0 = d.window_ns;
    let cpu0 = sys::cpu_seconds();
    let wall0 = Instant::now();
    acc.measuring = true;
    let start = d.net.now_ms();
    let end = start + cfg.epochs * EPOCH_MS;
    // (time, 0 = probe | 1 = query)
    let mut sched: Vec<(u64, u8)> = Vec::new();
    for e in 0..cfg.epochs {
        for i in 0..PROBES_PER_EPOCH {
            sched.push((
                start + e * EPOCH_MS + crate::steady::stratified(&mut rng, i, PROBES_PER_EPOCH),
                0,
            ));
        }
    }
    let gap = 1_000 / QUERY_RATE;
    let mut t = start + gap / 2;
    while t < end {
        sched.push((t, 1));
        t += gap;
    }
    sched.sort_unstable();
    let mut issued = 0u64;
    for (t, what) in sched {
        // Checkpoints at least every tick keep report timing exact enough
        // for the live-sum comparison.
        while d.net.now_ms() + TICK_MS < t {
            let next = d.net.now_ms() + TICK_MS;
            step(&mut d, next, &mut acc, &mut probe, &mut probe_vals);
        }
        step(&mut d, t, &mut acc, &mut probe, &mut probe_vals);
        let a = stable[rng.random_range(0..stable.len())];
        if what == 0 {
            if let Some(c) = probe.raise(a) {
                probe.applied(c.slot, t as f64);
                let v = probe_vals.entry(a).or_insert_with(|| base_value(a));
                *v += c.delta;
                let v = *v;
                if let Some(p) = d.net.probe_mut(a) {
                    p.node.set_local(key, v);
                }
            }
        } else {
            let (_, live) = live_sum(&d.net);
            issued += 1;
            let token = issued;
            acc.open.insert(token, (t, live));
            d.net.drive(a, |p| p.query(key, token));
        }
    }
    while d.net.now_ms() < end {
        let next = (d.net.now_ms() + TICK_MS).min(end);
        step(&mut d, next, &mut acc, &mut probe, &mut probe_vals);
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let cpu_s = sys::cpu_seconds() - cpu0;
    let window_ns = d.window_ns - window0;
    let events = d.net.events() - events0;
    let backlog = d.net.backlog();
    let ever: Vec<NodeAddr> = (0..lineage.borrow().1).map(NodeAddr).collect();
    let (sent1, delivered1) = sim::fleet_link(&d.net, &ever);
    let stats_stable = sim::fleet_stats(&d.net, &stable).minus(&stats0);
    let loads: Vec<f64> = stable
        .iter()
        .zip(&loads0)
        .map(|(&a, &l0)| d.net.probe(a).map_or(0, |p| p.stats.dat_load() - l0) as f64)
        .collect();
    let live_addrs: Vec<NodeAddr> = d.net.addrs();
    let (retransmits, suspects) = if traced {
        let (reg1, _) = sim::fleet_registry(&d.net, &live_addrs);
        let (r0, s0) = sim::health_counters(&reg0);
        let (r1, s1) = sim::health_counters(&reg1);
        (r1.saturating_sub(r0), s1.saturating_sub(s0))
    } else {
        (0, 0)
    };
    // Answers still in flight get one more window to land.
    acc.measuring = false;
    let drain_end = end + 3 * EPOCH_MS;
    while !acc.open.is_empty() && d.net.now_ms() < drain_end {
        let next = d.net.now_ms() + TICK_MS;
        step(&mut d, next, &mut acc, &mut probe, &mut probe_vals);
    }
    acc.q_failed += acc.open.len() as u64;

    let virtual_s = (cfg.epochs * EPOCH_MS) as f64 / 1e3;
    o.set("setup_s", median(&setups));
    o.set("peak_rss_mib", sys::peak_rss_mib());
    o.set("cpu_ms_per_op", ratio(cpu_s * 1e3, virtual_s));
    o.set(
        "msgs_per_node_s",
        ratio((sent1 - sent0) as f64, n as f64 * virtual_s),
    );
    o.set("node_load_max_ratio", max_over_mean(&loads));
    o.set("fresh_p50_ms", percentile(&probe.samples, 0.5));
    o.set("fresh_p90_ms", percentile(&probe.samples, 0.9));
    o.set("query_p50_ms", percentile(&acc.lat, 0.5));
    o.set("query_p90_ms", percentile(&acc.lat, 0.9));
    o.set("sim_rate_vs_per_s", ratio(virtual_s, wall_ns as f64 / 1e9));
    o.set("agg_error_pct", mean(&acc.errors));
    o.set(
        "query_fail_ratio",
        ratio(acc.q_failed as f64, issued as f64),
    );

    o.attempted = probe.raised + issued;
    o.failed = probe.pending() + acc.q_failed;
    o.ctx("nodes", n);
    o.ctx("engine", "SimNet");
    o.ctx("shards", 1);
    o.ctx("virtual_s", virtual_s);
    o.ctx("link_loss", LOSS);
    o.ctx(
        "crashes",
        d.net.fault_plan().map_or(0, |p| p.len()) as u64 / 2,
    );
    o.ctx("fresh_samples", probe.samples.len());
    o.ctx("query_samples", acc.lat.len());
    o.ctx("error_samples", acc.errors.len());
    o.ctx("probes_skipped", probe.skipped);
    o.ctx("probe_anomalies", probe.anomalies);
    o.ctx("setup_samples", setups.len());
    o.ctx("messages", delivered1 - delivered0);

    let (sent, delivered_all) = sim::fleet_link(&d.net, &ever);
    o.digest = Some(crate::steady::digest(
        &[events, sent, delivered_all],
        &[&probe.samples, &acc.lat, &acc.errors, &loads],
    ));
    o.ctx(
        "node_link_digest",
        format!("{:016x}", crate::steady::node_link_digest(&d.net, &ever)),
    );

    if traced {
        // Crashed nodes took their counters with them: the stable nodes'
        // counts, scaled to the whole ring, stand for the fleet.
        let mut stats = stats_stable.clone();
        let scale = n as f64 / stable.len().max(1) as f64;
        for c in 0..crate::probe::CLASSES {
            stats.inputs[c] = (stats.inputs[c] as f64 * scale) as u64;
            stats.input_ns[c] = (stats.input_ns[c] as f64 * scale) as u64;
            stats.sent[c] = (stats.sent[c] as f64 * scale) as u64;
        }
        let q_msgs = stats.sent[Class::DatQuery as usize] as f64;
        sim::layer_metrics(
            &mut o,
            &Window {
                stats,
                nodes: n as f64,
                virtual_s,
                epochs: cfg.epochs as f64,
                events,
                wall_ns,
                window_ns,
                threads: 1,
                backlog,
                retransmits,
                suspects,
                merge_ms,
            },
        );
        o.set("dat.query_msgs", ratio(q_msgs, issued as f64));
        o.set("mem.chord_bytes_per_node", chord_bytes as f64 / n as f64);
        o.set("mem.dat_bytes_per_node", dat_bytes as f64 / n as f64);
        o.set("mem.heap_peak_bytes", ALLOC.peak() as f64);
        o.spans = d.finish_spans(&live_addrs);
    }
    o
}
