//! Shared registry vocabulary for transport-level counters.
//!
//! Every `Actor` host that owns real sockets (today the tokio cluster host)
//! counts the same things: datagrams in/out, decode failures by kind,
//! socket errors by operation, and frames shed at the transport edge.
//! This helper turns one snapshot of those counters into a [`Registry`]
//! with a single, fixed naming scheme, so fleet merges and dashboards
//! never see two spellings of the same series:
//!
//! * `transport_datagrams_total{transport,dir="sent"|"received"}`
//! * `transport_decode_errors_total{transport,kind}`
//! * `transport_socket_errors_total{transport,op="recv"|"send"}`
//! * `engine_shed_total{layer="transport_rx"|"transport_tx"}` — the
//!   transport edge reuses the engine's shed vocabulary, so one
//!   `counter_sum("engine_shed_total")` covers every layer that can
//!   drop under pressure.
//!
//! All series are written even when zero, so a fresh host already
//! exposes the complete vocabulary (scrapes can alert on absence).

use crate::registry::{Key, Registry};

/// One transport's counter snapshot, decoupled from any host type.
#[derive(Clone, Debug, Default)]
pub struct TransportCounters {
    /// Which host produced the snapshot (label value, e.g. `"tokio"`).
    pub transport: &'static str,
    /// Datagrams handed to the kernel.
    pub sent: u64,
    /// Datagrams received and decoded.
    pub received: u64,
    /// Decode failures paired with their wire kind labels; include every
    /// kind the codec distinguishes, zeros too.
    pub decode_errors_by_kind: Vec<(&'static str, u64)>,
    /// Inbound frames dropped at a full transport inbox.
    pub shed_rx: u64,
    /// Outbound frames dropped at a full transport outbox.
    pub shed_tx: u64,
    /// Socket `recv` errors (excluding poll timeouts).
    pub socket_recv_errors: u64,
    /// Socket `send` errors.
    pub socket_send_errors: u64,
}

/// Render one transport snapshot as a registry (see module docs for the
/// naming scheme). Every series is zero-initialized.
pub fn transport_registry(c: &TransportCounters) -> Registry {
    let mut r = Registry::new();
    let key = |name: &'static str| Key::new(name).label("transport", c.transport);
    r.counter_add(
        key("transport_datagrams_total").label("dir", "sent"),
        c.sent,
    );
    r.counter_add(
        key("transport_datagrams_total").label("dir", "received"),
        c.received,
    );
    for &(kind, count) in &c.decode_errors_by_kind {
        r.counter_add(
            key("transport_decode_errors_total").label("kind", kind),
            count,
        );
    }
    r.counter_add(
        key("transport_socket_errors_total").label("op", "recv"),
        c.socket_recv_errors,
    );
    r.counter_add(
        key("transport_socket_errors_total").label("op", "send"),
        c.socket_send_errors,
    );
    r.counter_add(
        Key::new("engine_shed_total").label("layer", "transport_rx"),
        c.shed_rx,
    );
    r.counter_add(
        Key::new("engine_shed_total").label("layer", "transport_tx"),
        c.shed_tx,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_snapshot_exposes_the_full_vocabulary() {
        let reg = transport_registry(&TransportCounters {
            transport: "test",
            decode_errors_by_kind: vec![("truncated", 0), ("bad_magic", 0)],
            ..TransportCounters::default()
        });
        assert_eq!(reg.counter_sum("transport_datagrams_total"), 0);
        assert_eq!(reg.counter_sum("transport_decode_errors_total"), 0);
        assert_eq!(reg.counter_sum("transport_socket_errors_total"), 0);
        assert_eq!(reg.counter_sum("engine_shed_total"), 0);
        let text = reg.render_prometheus();
        let samples = crate::registry::validate_prometheus(&text).expect("parses");
        assert_eq!(samples, 8, "2 dirs + 2 kinds + 2 ops + 2 shed layers");
    }

    #[test]
    fn counts_land_on_the_right_series() {
        let reg = transport_registry(&TransportCounters {
            transport: "test",
            sent: 5,
            received: 3,
            decode_errors_by_kind: vec![("truncated", 2), ("bad_magic", 0)],
            shed_rx: 7,
            shed_tx: 1,
            socket_recv_errors: 4,
            socket_send_errors: 6,
        });
        assert_eq!(reg.counter_with("transport_datagrams_total", "sent"), 5);
        assert_eq!(reg.counter_with("transport_datagrams_total", "received"), 3);
        assert_eq!(
            reg.counter_with("transport_decode_errors_total", "truncated"),
            2
        );
        assert_eq!(reg.counter_with("engine_shed_total", "transport_rx"), 7);
        assert_eq!(reg.counter_with("engine_shed_total", "transport_tx"), 1);
        assert_eq!(reg.counter_with("transport_socket_errors_total", "recv"), 4);
        assert_eq!(reg.counter_with("transport_socket_errors_total", "send"), 6);
    }
}
