//! `grid-steady`: the write path. Sensor values flow up eight DAT trees
//! of an 8192-node probed-id ring on the sharded engine (two shards, no
//! faults, default maintenance, 1000 ms epochs). Freshness probes change
//! leaf values at seeded virtual times. No on-demand queries run: the
//! query path, the codec and the transport do no work here.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::time::Instant;

use dat_chord::{ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use dat_core::{AggregationMode, DatConfig, DatProtocol, StackNode};
use dat_sim::shard::ShardedNet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fresh::ProbeKey;
use crate::out::{max_over_mean, median, percentile, ratio, Fnv, Gate, Outcome};
use crate::probe::{Probe, Surfaced};
use crate::sim::{self, Engine, Runner, Window};
use crate::{sys, ALLOC};

/// Attribute names; each hashes to its own rendezvous key and root.
pub const ATTRS: [&str; 8] = [
    "cpu-usage",
    "mem-free",
    "load-1m",
    "disk-io",
    "net-rx",
    "net-tx",
    "gpu-util",
    "queue-len",
];
pub const EPOCH_MS: u64 = 1_000;
/// Virtual window between checkpoints outside probe times.
const TICK_MS: u64 = 100;
/// Epochs run before measuring (trees form, reports reach steady state)
/// and after it (the roots settle on exact sums).
const WARM_EPOCHS: u64 = 3;
const SETTLE_EPOCHS: u64 = 3;
/// Freshness probes per key and epoch.
const PROBES_PER_KEY_EPOCH: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct Steady {
    pub nodes: usize,
    pub shards: usize,
    pub keys: usize,
    /// Measured write-path epochs.
    pub push_epochs: u64,
    /// Ring builds; `setup_s` is their median.
    pub setups: usize,
}

impl Steady {
    /// The benchmark size; `seconds` scales the measured epochs.
    pub fn full(seconds: u64) -> Self {
        Steady {
            nodes: 8192,
            shards: 2,
            keys: ATTRS.len(),
            push_epochs: seconds.max(2),
            setups: 9,
        }
    }

    /// The same code paths at test size.
    pub fn tiny() -> Self {
        Steady {
            nodes: 64,
            shards: 2,
            keys: 2,
            push_epochs: 4,
            setups: 2,
        }
    }
}

struct Grid {
    net: ShardedNet<Probe>,
    keys: Vec<Id>,
    /// `values[k][i]`: node `i`'s current value of key `k`.
    values: Vec<Vec<f64>>,
    setup_s: f64,
    chord_bytes: i64,
    dat_bytes: i64,
}

/// Build the ring and register every key. Deterministic in `seed`.
fn build(cfg: &Steady, seed: u64, sink: Sender<Surfaced>, timing: bool) -> Grid {
    let t0 = Instant::now();
    let heap0 = ALLOC.live();
    let space = IdSpace::new(32);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, cfg.nodes, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: EPOCH_MS,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let addr_of: HashMap<Id, NodeAddr> = ring
        .ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, NodeAddr(i as u64)))
        .collect();
    let mut net: ShardedNet<Probe> = ShardedNet::new(seed, cfg.shards);
    net.set_record_upcalls(false);
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
    let mut vals = SmallRng::seed_from_u64(seed ^ 0x7a1e_5eed);
    let names = &ATTRS[..cfg.keys];
    let keys: Vec<Id> = names
        .iter()
        .map(|name| dat_chord::hash_to_id(space, name.as_bytes()))
        .collect();
    let mut values = vec![Vec::with_capacity(cfg.nodes); cfg.keys];
    for i in 0..cfg.nodes as u64 {
        let Some(p) = net.node_mut(NodeAddr(i)) else {
            continue;
        };
        for (k, name) in names.iter().enumerate() {
            let key = p.node.register(name, AggregationMode::Continuous);
            let v = f64::from(vals.random_range(0u32..16));
            p.node.set_local(key, v);
            values[k].push(v);
        }
    }
    Grid {
        net,
        keys,
        values,
        setup_s: t0.elapsed().as_secs_f64(),
        chord_bytes: heap1 - heap0,
        dat_bytes: ALLOC.live() - heap1,
    }
}

/// Last report seen per key: (sum, contributors).
type Latest = HashMap<Id, (f64, u64)>;

/// Feed reports to the probe trackers; apply the lowering changes when
/// `lower` is set.
fn absorb<E: Engine>(
    net: &mut E,
    evs: Vec<Surfaced>,
    g: &mut (Vec<Id>, Vec<Vec<f64>>),
    probes: &mut [ProbeKey],
    latest: &mut Latest,
    lower: bool,
) {
    for ev in evs {
        let Surfaced::Report {
            key,
            sum,
            contributors,
            vms,
            ..
        } = ev
        else {
            continue;
        };
        latest.insert(key, (sum, contributors));
        let Some(k) = g.0.iter().position(|&x| x == key) else {
            continue;
        };
        let lowers = probes[k].on_report(sum, vms as f64);
        if !lower {
            continue;
        }
        for c in lowers {
            let v = &mut g.1[k][c.leaf.0 as usize];
            *v += c.delta;
            let v = *v;
            if let Some(p) = net.probe_mut(c.leaf) {
                p.node.set_local(key, v);
            }
        }
    }
}

pub fn run(cfg: &Steady, seed: u64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let (tx, rx) = channel();
    let mut setups = Vec::new();
    let mut grid = None;
    for _ in 0..cfg.setups.max(1) {
        drop(grid.take());
        let g = build(cfg, seed, tx.clone(), traced);
        setups.push(g.setup_s);
        grid = Some(g);
    }
    drop(tx);
    let Some(Grid {
        net,
        keys,
        values,
        chord_bytes,
        dat_bytes,
        ..
    }) = grid
    else {
        unreachable!("at least one setup ran")
    };
    let n = cfg.nodes;
    let addrs: Vec<NodeAddr> = (0..n as u64).map(NodeAddr).collect();
    let mut d = Runner::new(net, rx, traced);
    let mut g = (keys, values);
    // Sensor values are below 16, so a key sums below 2^4 * n.
    let base = 4 + (n as f64).log2().ceil() as u32;
    let mut probes: Vec<ProbeKey> = g.0.iter().map(|_| ProbeKey::new(base)).collect();
    let mut latest = Latest::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);

    // Warm-up: trees form and reports reach steady state.
    let warm_end = WARM_EPOCHS * EPOCH_MS;
    while d.net.now_ms() < warm_end {
        let t = (d.net.now_ms() + TICK_MS).min(warm_end);
        let evs = d.advance(t);
        absorb(&mut d.net, evs, &mut g, &mut probes, &mut latest, true);
    }

    // Measured write path.
    let (reg0, merge_ms) = if traced {
        sim::fleet_registry(&d.net, &addrs)
    } else {
        Default::default()
    };
    let stats0 = sim::fleet_stats(&d.net, &addrs);
    let loads0: Vec<u64> = addrs
        .iter()
        .map(|&a| d.net.probe(a).map_or(0, |p| p.stats.dat_load()))
        .collect();
    let (_, delivered0) = sim::fleet_link(&d.net, &addrs);
    let events0 = d.net.events();
    let window0 = d.window_ns;
    let cpu0 = sys::cpu_seconds();
    let wall0 = Instant::now();
    let start = d.net.now_ms();
    let end = start + cfg.push_epochs * EPOCH_MS;
    // (time, key) of each probe.
    let mut sched: Vec<(u64, usize)> = Vec::new();
    for e in 0..cfg.push_epochs {
        for k in 0..g.0.len() {
            for i in 0..PROBES_PER_KEY_EPOCH {
                sched.push((
                    start + e * EPOCH_MS + stratified(&mut rng, i, PROBES_PER_KEY_EPOCH),
                    k,
                ));
            }
        }
    }
    sched.sort_unstable();
    for (t, k) in sched {
        let evs = d.advance(t);
        absorb(&mut d.net, evs, &mut g, &mut probes, &mut latest, true);
        let leaf = NodeAddr(rng.random_range(0..n as u64));
        if let Some(c) = probes[k].raise(leaf) {
            probes[k].applied(c.slot, t as f64);
            let v = &mut g.1[k][leaf.0 as usize];
            *v += c.delta;
            let (v, key) = (*v, g.0[k]);
            if let Some(p) = d.net.probe_mut(leaf) {
                p.node.set_local(key, v);
            }
        }
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let cpu_s = sys::cpu_seconds() - cpu0;
    let window_ns = d.window_ns - window0;
    let events = d.net.events() - events0;
    let backlog = d.net.backlog();
    let stats = sim::fleet_stats(&d.net, &addrs).minus(&stats0);
    let loads: Vec<f64> = addrs
        .iter()
        .zip(&loads0)
        .map(|(&a, &l0)| d.net.probe(a).map_or(0, |p| p.stats.dat_load() - l0) as f64)
        .collect();
    let (_, delivered1) = sim::fleet_link(&d.net, &addrs);
    let (retransmits, suspects) = if traced {
        let (reg1, _) = sim::fleet_registry(&d.net, &addrs);
        let (r0, s0) = sim::health_counters(&reg0);
        let (r1, s1) = sim::health_counters(&reg1);
        (r1.saturating_sub(r0), s1.saturating_sub(s0))
    } else {
        (0, 0)
    };

    // Settle: no more changes; the roots must converge on the exact sums.
    let settle_end = end + SETTLE_EPOCHS * EPOCH_MS;
    while d.net.now_ms() < settle_end {
        let t = (d.net.now_ms() + TICK_MS).min(settle_end);
        let evs = d.advance(t);
        absorb(&mut d.net, evs, &mut g, &mut probes, &mut latest, false);
    }
    let mut settled = Vec::new();
    for (k, &key) in g.0.iter().enumerate() {
        let want: f64 = g.1[k].iter().sum();
        let got = latest.get(&key).copied().unwrap_or((f64::NAN, 0));
        o.gates.push(exact_sum_gate(
            &format!("settled sum {}", ATTRS[k]),
            got,
            want,
            n as u64,
        ));
        settled.push(got.0);
    }

    let fresh: Vec<f64> = probes
        .iter()
        .flat_map(|p| p.samples.iter().copied())
        .collect();
    let push_s = (cfg.push_epochs * EPOCH_MS) as f64 / 1e3;
    o.set("setup_s", median(&setups));
    o.set("peak_rss_mib", sys::peak_rss_mib());
    o.set("cpu_ms_per_op", ratio(cpu_s * 1e3, push_s));
    o.set(
        "msgs_per_node_s",
        ratio(stats.sent_total() as f64, n as f64 * push_s),
    );
    o.set("node_load_max_ratio", max_over_mean(&loads));
    o.set("fresh_p50_ms", percentile(&fresh, 0.5));
    o.set("fresh_p90_ms", percentile(&fresh, 0.9));
    o.set("sim_rate_vs_per_s", ratio(push_s, wall_ns as f64 / 1e9));

    let raised: u64 = probes.iter().map(|p| p.raised).sum();
    let lost: u64 = probes.iter().map(|p| p.pending()).sum();
    let anomalies: u64 = probes.iter().map(|p| p.anomalies).sum();
    o.attempted = raised;
    o.failed = lost;
    o.ctx("nodes", n);
    o.ctx("engine", "ShardedNet");
    o.ctx("shards", cfg.shards);
    o.ctx("keys", g.0.len());
    o.ctx("virtual_s", push_s);
    o.ctx("fresh_samples", fresh.len());
    o.ctx(
        "probes_skipped",
        probes.iter().map(|p| p.skipped).sum::<u64>(),
    );
    o.ctx("probe_anomalies", anomalies);
    o.ctx("setup_samples", setups.len());
    o.ctx("messages", delivered1 - delivered0);

    let mut fresh_sorted = fresh.clone();
    fresh_sorted.sort_by(f64::total_cmp);
    let (sent, delivered_all) = sim::fleet_link(&d.net, &addrs);
    o.digest = Some(digest(
        &[events, sent, delivered_all],
        &[&fresh_sorted, &settled, &loads],
    ));
    o.ctx(
        "node_link_digest",
        format!("{:016x}", node_link_digest(&d.net, &addrs)),
    );

    if traced {
        sim::layer_metrics(
            &mut o,
            &Window {
                stats,
                nodes: n as f64,
                virtual_s: push_s,
                epochs: cfg.push_epochs as f64,
                events,
                wall_ns,
                window_ns,
                threads: d.net.threads(),
                backlog,
                retransmits,
                suspects,
                merge_ms,
            },
        );
        o.set("mem.chord_bytes_per_node", chord_bytes as f64 / n as f64);
        o.set("mem.dat_bytes_per_node", dat_bytes as f64 / n as f64);
        o.set("mem.heap_peak_bytes", ALLOC.peak() as f64);
        o.spans = d.finish_spans(&addrs);
    }
    o
}

/// A settled root report must carry exactly the expected sum from every
/// node.
pub fn exact_sum_gate(name: &str, (sum, contributors): (f64, u64), want: f64, n: u64) -> Gate {
    Gate::check(
        name,
        sum == want && contributors == n,
        format!("root sum {sum} from {contributors} nodes, expected {want} from {n}"),
    )
}

/// Offset of probe `i` of `of` within an epoch: one uniform draw inside
/// the `i`-th of `of` equal strata, so every run samples the whole epoch
/// evenly.
pub fn stratified(rng: &mut SmallRng, i: usize, of: usize) -> u64 {
    let w = EPOCH_MS as f64 / of.max(1) as f64;
    ((i as f64 + rng.random::<f64>()) * w).clamp(1.0, (EPOCH_MS - 1) as f64) as u64
}

/// Fingerprint of a simulated run: engine totals plus every virtual-time
/// result. These repeat exactly for a seed.
pub fn digest(words: &[u64], samples: &[&[f64]]) -> u64 {
    let mut f = Fnv::new();
    for &w in words {
        f.word(w);
    }
    for s in samples {
        f.floats(s);
    }
    f.0
}

/// FNV of every node's `(sent, delivered)` in address order. Reported,
/// not gated: with several keys per node it varies between processes
/// (see README.md).
pub fn node_link_digest<E: Engine>(net: &E, addrs: &[NodeAddr]) -> u64 {
    let mut f = Fnv::new();
    for &a in addrs {
        let (s, d) = net.link(a);
        f.word(a.0);
        f.word(s);
        f.word(d);
    }
    f.0
}
