//! Driving the simulators from outside: one trait over `ShardedNet` and
//! `SimNet`, timed `run_until` windows, and the per-layer figures both
//! simulated workloads share.

use std::sync::mpsc::Receiver;
use std::time::Instant;

use dat_chord::{NodeAddr, Output};
use dat_obs::Registry;
use dat_sim::net::SimNet;
use dat_sim::shard::ShardedNet;
use dat_sim::time::SimTime;

use crate::out::{ratio, Outcome};
use crate::probe::{Class, NodeStats, Probe, Surfaced};
use crate::trace::{self, Recorder};

/// The engine surface the benchmark uses.
pub trait Engine {
    fn now_ms(&self) -> u64;
    fn run_until_ms(&mut self, t: u64);
    fn probe(&self, a: NodeAddr) -> Option<&Probe>;
    fn probe_mut(&mut self, a: NodeAddr) -> Option<&mut Probe>;
    /// Run `f` on a node and route the outputs it returns.
    fn drive(&mut self, a: NodeAddr, f: impl FnOnce(&mut Probe) -> Vec<Output>);
    fn events(&self) -> u64;
    fn backlog(&self) -> usize;
    /// `(sent, delivered)` transport counters of one address, including a
    /// crashed incarnation's.
    fn link(&self, a: NodeAddr) -> (u64, u64);
    /// Worker threads the engine runs windows on.
    fn threads(&self) -> usize;
}

impl Engine for ShardedNet<Probe> {
    fn now_ms(&self) -> u64 {
        self.now().as_millis()
    }
    fn run_until_ms(&mut self, t: u64) {
        self.run_until(SimTime(t));
    }
    fn probe(&self, a: NodeAddr) -> Option<&Probe> {
        self.node(a)
    }
    fn probe_mut(&mut self, a: NodeAddr) -> Option<&mut Probe> {
        self.node_mut(a)
    }
    fn drive(&mut self, a: NodeAddr, f: impl FnOnce(&mut Probe) -> Vec<Output>) {
        self.with_node(a, |p| ((), f(p)));
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn backlog(&self) -> usize {
        self.pending_events()
    }
    fn link(&self, a: NodeAddr) -> (u64, u64) {
        let s = self.link_stats(a);
        (s.sent, s.delivered)
    }
    fn threads(&self) -> usize {
        self.shards()
    }
}

impl Engine for SimNet<Probe> {
    fn now_ms(&self) -> u64 {
        self.now().as_millis()
    }
    fn run_until_ms(&mut self, t: u64) {
        self.run_until(SimTime(t));
    }
    fn probe(&self, a: NodeAddr) -> Option<&Probe> {
        self.node(a)
    }
    fn probe_mut(&mut self, a: NodeAddr) -> Option<&mut Probe> {
        self.node_mut(a)
    }
    fn drive(&mut self, a: NodeAddr, f: impl FnOnce(&mut Probe) -> Vec<Output>) {
        self.with_node(a, |p| ((), f(p)));
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn backlog(&self) -> usize {
        self.pending_events()
    }
    fn link(&self, a: NodeAddr) -> (u64, u64) {
        let live = self.link_stats(a);
        let dead = self.retired_link_stats(a);
        (live.sent + dead.sent, live.delivered + dead.delivered)
    }
    fn threads(&self) -> usize {
        1
    }
}

/// An engine plus the benchmark's side of the measurement: surfaced events,
/// window wall time and spans.
pub struct Runner<E: Engine> {
    pub net: E,
    rx: Receiver<Surfaced>,
    pub rec: Recorder,
    /// Wall time spent inside `run_until` windows.
    pub window_ns: u64,
    root: (u64, u64),
}

impl<E: Engine> Runner<E> {
    pub fn new(net: E, rx: Receiver<Surfaced>, traced: bool) -> Self {
        let rec = Recorder::new(traced);
        let root = rec.open();
        trace::set_current(root.0);
        Runner {
            net,
            rx,
            rec,
            window_ns: 0,
            root,
        }
    }

    /// Run the engine up to virtual time `t` and return what surfaced, in
    /// a deterministic order (shards deliver in any order).
    pub fn advance(&mut self, t: u64) -> Vec<Surfaced> {
        let span = self.rec.open();
        if self.rec.on {
            trace::set_current(span.0);
        }
        let t0 = Instant::now();
        self.net.run_until_ms(t);
        self.window_ns += t0.elapsed().as_nanos() as u64;
        self.rec.close(span, self.root.0, "window", 0);
        trace::set_current(self.root.0);
        let mut v: Vec<Surfaced> = self.rx.try_iter().collect();
        v.sort_by_key(|s| match s {
            Surfaced::Report { node, key, vms, .. } => (*vms, 0, node.0, key.0),
            Surfaced::Answer { token, vms, .. } => (*vms, 1, *token, 0),
            Surfaced::Maan { token, .. } | Surfaced::Applied { token, .. } => {
                (u64::MAX, 2, *token, 0)
            }
        });
        v
    }

    /// Close the workload span and collect every span: the benchmark's and
    /// the sampled `on_input` spans of `addrs`.
    pub fn finish_spans(&mut self, addrs: &[NodeAddr]) -> Vec<trace::Span> {
        let root = self.root;
        self.rec.close(root, 0, "workload", 0);
        let mut spans = std::mem::take(&mut self.rec.spans);
        for &a in addrs {
            if let Some(p) = self.net.probe_mut(a) {
                spans.append(&mut p.spans);
            }
        }
        spans
    }
}

/// Sum of per-node counters over `addrs`.
pub fn fleet_stats<E: Engine>(net: &E, addrs: &[NodeAddr]) -> NodeStats {
    let mut s = NodeStats::default();
    for &a in addrs {
        if let Some(p) = net.probe(a) {
            s.add(&p.stats);
        }
    }
    s
}

/// `(sent, delivered)` summed over `addrs`.
pub fn fleet_link<E: Engine>(net: &E, addrs: &[NodeAddr]) -> (u64, u64) {
    addrs.iter().fold((0, 0), |(s, d), &a| {
        let (s2, d2) = net.link(a);
        (s + s2, d + d2)
    })
}

/// Merge every node's `StackNode::obs_registry` into one fleet view;
/// returns it with the wall ms the merge took.
pub fn fleet_registry<E: Engine>(net: &E, addrs: &[NodeAddr]) -> (Registry, f64) {
    let t0 = Instant::now();
    let mut fleet = Registry::new();
    for &a in addrs {
        if let Some(p) = net.probe(a) {
            fleet.merge(&p.node.obs_registry());
        }
    }
    (fleet, t0.elapsed().as_secs_f64() * 1e3)
}

/// What a measured simulation window did, for the per-layer figures.
pub struct Window {
    /// Counter deltas summed over the nodes.
    pub stats: NodeStats,
    pub nodes: f64,
    pub virtual_s: f64,
    pub epochs: f64,
    pub events: u64,
    /// Wall time of the whole measured phase and of its engine windows.
    pub wall_ns: u64,
    pub window_ns: u64,
    pub threads: usize,
    pub backlog: usize,
    /// Chord retransmissions over the window, fleet-wide.
    pub retransmits: u64,
    pub suspects: u64,
    pub merge_ms: f64,
}

/// The per-layer metrics a simulated window yields.
pub fn layer_metrics(o: &mut Outcome, w: &Window) {
    let s = &w.stats;
    let per_class = |c: &[Class]| {
        let ns: u64 = c.iter().map(|&c| s.input_ns[c as usize]).sum();
        let n: u64 = c.iter().map(|&c| s.inputs[c as usize]).sum();
        ratio(ns as f64, n as f64)
    };
    let stack_ns = s.input_ns_total() as f64;
    let worker_ns = (w.threads as u64 * w.window_ns) as f64;
    let inputs: u64 = s.inputs.iter().sum();
    let node_s = w.nodes * w.virtual_s;
    o.set("sim.events_per_vs", ratio(w.events as f64, w.virtual_s));
    o.set(
        "sim.engine_ns_per_event",
        ratio((worker_ns - stack_ns).max(0.0), w.events as f64),
    );
    o.set("sim.backlog_events", w.backlog as f64);
    o.set("stack.timer_ns", per_class(&[Class::Timer]));
    o.set("stack.chord_msg_ns", per_class(&[Class::Chord]));
    o.set(
        "stack.dat_msg_ns",
        per_class(&[Class::DatPush, Class::DatQuery]),
    );
    o.set("stack.maan_msg_ns", per_class(&[Class::Maan]));
    o.set("stack.inputs_per_node_s", ratio(inputs as f64, node_s));
    o.set("stack.busy_share", ratio(stack_ns, worker_ns));
    codec_metrics(o, s);
    o.set(
        "chord.maint_msgs_per_node_s",
        ratio(s.sent[Class::Chord as usize] as f64, node_s),
    );
    o.set(
        "chord.route_hops_mean",
        ratio(s.route_hops as f64, s.routes as f64),
    );
    o.set(
        "chord.retransmits_per_node_s",
        ratio(w.retransmits as f64, node_s),
    );
    o.set("health.suspects_total", w.suspects as f64);
    let dat_sent = s.sent[Class::DatPush as usize] + s.sent[Class::DatQuery as usize];
    o.set(
        "dat.msgs_per_node_epoch",
        ratio(dat_sent as f64, w.nodes * w.epochs),
    );
    o.set("obs.fleet_merge_ms", w.merge_ms);
    o.set(
        "self.workload_ms",
        w.wall_ns.saturating_sub(w.window_ns) as f64 / 1e6,
    );
    o.set("self.engine_ms", (worker_ns - stack_ns).max(0.0) / 1e6);
    o.set("self.stack_ms", stack_ns / 1e6);
}

pub fn codec_metrics(o: &mut Outcome, s: &NodeStats) {
    let m = s.codec_msgs as f64;
    o.set("codec.encode_ns", ratio(s.encode_ns as f64, m));
    o.set("codec.decode_ns", ratio(s.decode_ns as f64, m));
    o.set("codec.bytes_per_msg", ratio(s.codec_bytes as f64, m));
}

/// Chord retransmissions and health suspicions in a fleet registry.
pub fn health_counters(reg: &Registry) -> (u64, u64) {
    (
        reg.counter_with("retransmits_total", "chord"),
        reg.counter_sum("suspects_total"),
    )
}
