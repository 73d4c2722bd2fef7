//! Per-node observability: message counters, histograms and event traces.
//!
//! The paper's evaluation is largely message-count based: the distribution
//! of aggregation messages across nodes (Fig. 8a), imbalance factors
//! (Fig. 8b) and maintenance overhead during churn. [`Metrics`] is the
//! counting API every layer keeps one of: every count — kind-labeled
//! traffic and bespoke tallies alike — lands in an embedded [`Registry`],
//! and a bounded [`Tracer`] records typed events with causal trace ids
//! alongside the tallies.

#![deny(clippy::unwrap_used)]

use dat_obs::{EventKind, Key, Registry, Tracer};

use crate::msg::ChordMsg;

/// Counters every layer exports even before their first bump, so fleet
/// merges and dashboards see the series at zero.
const ZERO_SERIES: [&str; 3] = ["timeouts_total", "retransmits_total", "dropped_total"];

/// Observability state kept by every protocol node: a metric registry
/// (counters + histograms) and an event tracer.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    reg: Registry,
    tracer: Tracer,
}

impl Metrics {
    /// The single kind-label counting helper: every sent/received tally —
    /// whole messages or bare kind labels — funnels through here.
    fn count_kind(&mut self, name: &'static str, kind: &'static str) {
        self.reg.counter_inc(Key::new(name).label("kind", kind));
    }

    /// Record an outgoing message.
    pub fn count_sent(&mut self, msg: &ChordMsg) {
        self.count_kind("sent_total", msg.kind());
    }

    /// Record an incoming message.
    pub fn count_received(&mut self, msg: &ChordMsg) {
        self.count_kind("received_total", msg.kind());
    }

    /// Record an outgoing message by kind label (for layers above Chord).
    pub fn count_sent_kind(&mut self, kind: &'static str) {
        self.count_kind("sent_total", kind);
    }

    /// Record an incoming message by kind label (for layers above Chord).
    pub fn count_received_kind(&mut self, kind: &'static str) {
        self.count_kind("received_total", kind);
    }

    /// Count an outgoing message *and* trace it under `trace_id`
    /// (`peer` is the destination node id, or the routing key for routed
    /// sends).
    pub fn on_send(&mut self, at_ms: u64, trace_id: u64, kind: &'static str, peer: u64) {
        self.count_kind("sent_total", kind);
        self.tracer
            .record(at_ms, trace_id, EventKind::Send { kind, to: peer });
    }

    /// Count an incoming message *and* trace it under `trace_id`.
    pub fn on_recv(&mut self, at_ms: u64, trace_id: u64, kind: &'static str, peer: u64) {
        self.count_kind("received_total", kind);
        self.tracer
            .record(at_ms, trace_id, EventKind::Recv { kind, from: peer });
    }

    /// Record an arbitrary traced event (timers, epoch starts, reports…).
    pub fn trace(&mut self, at_ms: u64, trace_id: u64, kind: EventKind) {
        self.tracer.record(at_ms, trace_id, kind);
    }

    /// Record a histogram sample (e.g. `route_hops`, `rtt_ms`).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.reg.observe(Key::new(name), v);
    }

    /// Bump an unlabeled counter: `timeouts_total` (requests that expired
    /// in the in-flight table), `retransmits_total` (requests re-sent
    /// after an RTO expiry), `dropped_total` (messages dropped: hop budget,
    /// inactive node, empty table, undecodable payload) or a layer's
    /// bespoke tally (e.g. `proactive_reparents_total`). Exported with the
    /// layer stamp by [`Metrics::export_into`] like every other series.
    pub fn inc(&mut self, name: &'static str) {
        self.reg.counter_inc(Key::new(name));
    }

    /// Read back a counter bumped with [`Metrics::inc`].
    pub fn get(&self, name: &str) -> u64 {
        self.reg.counter_sum(name)
    }

    /// The embedded metric registry (read-only view).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// The embedded event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (enable/disable, resize, drain).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Total messages sent.
    pub fn sent_total(&self) -> u64 {
        self.reg.counter_sum("sent_total")
    }

    /// Total messages received.
    pub fn received_total(&self) -> u64 {
        self.reg.counter_sum("received_total")
    }

    /// Messages sent of a given kind.
    pub fn sent_of(&self, kind: &str) -> u64 {
        self.reg.counter_with("sent_total", kind)
    }

    /// Messages received of a given kind.
    pub fn received_of(&self, kind: &str) -> u64 {
        self.reg.counter_with("received_total", kind)
    }

    /// Sum of sent counts over `kinds`.
    pub fn sent_of_kinds(&self, kinds: &[&str]) -> u64 {
        kinds.iter().map(|k| self.sent_of(k)).sum()
    }

    /// Sum of received counts over `kinds`.
    pub fn received_of_kinds(&self, kinds: &[&str]) -> u64 {
        kinds.iter().map(|k| self.received_of(k)).sum()
    }

    /// Iterate `(kind, sent, received)` over every kind seen, sorted.
    pub fn by_kind(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (key, v) in self.reg.counters() {
            let kind = key.labels[0].1;
            match key.name {
                "sent_total" => rows.entry(kind).or_default().0 += v,
                "received_total" => rows.entry(kind).or_default().1 += v,
                _ => {}
            }
        }
        rows.into_iter().map(|(k, (s, r))| (k, s, r)).collect()
    }

    /// Merge another metrics snapshot into this one (registries merge;
    /// the other's trace buffer is left alone — traces are per-node).
    pub fn merge(&mut self, other: &Metrics) {
        self.reg.merge(&other.reg);
    }

    /// Reset every counter, histogram and the trace buffer.
    pub fn reset(&mut self) {
        self.reg.reset();
        self.tracer.clear();
    }

    /// Fold this node's metrics into a wider registry, stamping every
    /// series with `layer` (e.g. `chord`, `dat`); the timeout, retransmit
    /// and drop counters are exported even at zero.
    pub fn export_into(&self, out: &mut Registry, layer: &'static str) {
        out.merge_labeled(&self.reg, "layer", layer);
        for name in ZERO_SERIES {
            out.counter_add(Key::new(name).label("layer", layer), 0);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::finger::{NodeAddr, NodeRef};
    use crate::id::Id;

    fn ping() -> ChordMsg {
        ChordMsg::Ping {
            req: 1,
            sender: NodeRef::new(Id(0), NodeAddr(0)),
        }
    }

    #[test]
    fn counting_and_totals() {
        let mut m = Metrics::default();
        m.count_sent(&ping());
        m.count_sent(&ping());
        m.count_received(&ping());
        assert_eq!(m.sent_total(), 2);
        assert_eq!(m.received_total(), 1);
        assert_eq!(m.sent_of("ping"), 2);
        assert_eq!(m.sent_of("pong"), 0);
    }

    #[test]
    fn custom_kinds_and_merge() {
        let mut a = Metrics::default();
        a.count_sent_kind("dat_update");
        a.count_received_kind("dat_update");
        let mut b = Metrics::default();
        b.count_sent_kind("dat_update");
        b.inc("timeouts_total");
        a.merge(&b);
        assert_eq!(a.sent_of("dat_update"), 2);
        assert_eq!(a.received_of("dat_update"), 1);
        assert_eq!(a.get("timeouts_total"), 1);
    }

    #[test]
    fn by_kind_sorted() {
        let mut m = Metrics::default();
        m.count_sent_kind("zeta");
        m.count_received_kind("alpha");
        let rows = m.by_kind();
        assert_eq!(rows[0].0, "alpha");
        assert_eq!(rows[1].0, "zeta");
        assert_eq!(rows, vec![("alpha", 0, 1), ("zeta", 1, 0)]);
    }

    #[test]
    fn reset_clears() {
        let mut m = Metrics::default();
        m.count_sent(&ping());
        m.inc("dropped_total");
        m.reset();
        assert_eq!(m.sent_total(), 0);
        assert_eq!(m.get("dropped_total"), 0);
    }

    #[test]
    fn send_recv_helpers_count_and_trace() {
        let mut m = Metrics::default();
        m.on_send(10, 42, "dat_update", 7);
        m.on_recv(11, 42, "dat_update", 3);
        assert_eq!(m.sent_of("dat_update"), 1);
        assert_eq!(m.received_of("dat_update"), 1);
        let evs: Vec<_> = m.tracer().events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].trace_id, 42);
        assert!(matches!(
            evs[0].kind,
            EventKind::Send {
                kind: "dat_update",
                to: 7
            }
        ));
        m.reset();
        assert!(m.tracer().is_empty());
    }

    #[test]
    fn export_stamps_layer_and_zero_fills() {
        let mut m = Metrics::default();
        m.count_sent(&ping());
        m.inc("timeouts_total");
        m.inc("timeouts_total");
        m.observe("rtt_ms", 5);
        let mut reg = Registry::new();
        m.export_into(&mut reg, "chord");
        assert_eq!(reg.counter_with("sent_total", "chord"), 1);
        assert_eq!(reg.counter_with("timeouts_total", "chord"), 2);
        let text = reg.render_prometheus();
        assert!(text.contains("retransmits_total{layer=\"chord\"} 0"));
        assert!(text.contains("dropped_total{layer=\"chord\"} 0"));
        assert_eq!(reg.hist_sum("rtt_ms").count(), 1);
        dat_obs::validate_prometheus(&reg.render_prometheus()).expect("valid dump");
    }
}
