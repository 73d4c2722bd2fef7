//! Metric names and units, run outcomes, gates and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: emitted by every workload of an untraced run and
/// steady enough between runs and seeds to gate on (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_ms_per_op", "ms"),
    ("msgs_per_node_s", "1/s"),
    ("node_load_max_ratio", "ratio"),
];

/// End-to-end figures on the report line only: they exist on some
/// workloads only, or swing too far between runs on a shared host to gate
/// on (README.md gives the measured spreads). Latencies and freshness are
/// virtual ms on the simulated workloads and wall ms on `udp-query`.
pub const REPORTED: &[(&str, &str)] = &[
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("sim_rate_vs_per_s", "vs/s"),
    ("agg_error_pct", "%"),
    ("query_fail_ratio", "ratio"),
    ("query_qps", "1/s"),
    ("maan_p50_ms", "ms"),
];

/// Per-layer metrics, emitted by every workload of a traced run (0 where
/// the workload bypasses the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events_per_vs", "1/vs"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.backlog_events", "count"),
    ("stack.timer_ns", "ns"),
    ("stack.chord_msg_ns", "ns"),
    ("stack.dat_msg_ns", "ns"),
    ("stack.maan_msg_ns", "ns"),
    ("stack.inputs_per_node_s", "1/s"),
    ("stack.busy_share", "ratio"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_msg", "B"),
    ("chord.maint_msgs_per_node_s", "1/s"),
    ("chord.route_hops_mean", "hops"),
    ("chord.retransmits_per_node_s", "1/s"),
    ("health.suspects_total", "count"),
    ("dat.msgs_per_node_epoch", "count"),
    ("dat.query_msgs", "count"),
    ("host.dgrams_per_s", "1/s"),
    ("host.cpu_us_per_dgram", "us"),
    ("host.transport_cpu_share", "ratio"),
    ("host.call_rtt_us", "us"),
    ("host.shed_total", "count"),
    ("host.socket_errors", "count"),
    ("mem.chord_bytes_per_node", "B"),
    ("mem.dat_bytes_per_node", "B"),
    ("mem.heap_peak_bytes", "B"),
    ("obs.fleet_merge_ms", "ms"),
    ("self.workload_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.stack_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// One output check.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn check(name: &str, ok: bool, detail: String) -> Gate {
        Gate {
            name: name.into(),
            ok,
            detail,
        }
    }
}

/// Everything one workload run produced.
#[derive(Default, Debug)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub context: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Deterministic fingerprint of a simulated run (link stats and
    /// virtual-time results); `None` on real UDP.
    pub digest: Option<u64>,
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn ctx(&mut self, k: &'static str, v: impl ToString) {
        self.context.push((k, v.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metric_obj(names: &[(&str, &str)], o: &Outcome) -> String {
    names
        .iter()
        .map(|(n, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                num(o.get(n))
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The human-facing report line: every metric the run has, its context
/// and its gates.
pub fn report_line(workload: &str, traced: bool, o: &Outcome) -> String {
    let ctx = o
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let gates = o
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"gate\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                esc(&g.name),
                g.ok,
                esc(&g.detail)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let mut all: Vec<(&str, &str)> = END_TO_END.iter().chain(REPORTED).copied().collect();
    if traced {
        all.extend_from_slice(PER_LAYER);
    }
    let shown: Vec<(&str, &str)> = all
        .into_iter()
        .filter(|(n, _)| o.metrics.contains_key(n))
        .collect();
    format!(
        "{{\"report\": {{\"workload\": \"{workload}\", \"traced\": {traced}, \"context\": {{{ctx}}}, \
         \"metrics\": {{{}}}, \"gates\": [{gates}]}}}}",
        metric_obj(&shown, o)
    )
}

/// The result line: end-to-end metrics untraced, per-layer metrics traced.
pub fn result_line(traced: bool, o: &Outcome) -> String {
    let names = if traced { PER_LAYER } else { END_TO_END };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metric_obj(names, o)
    )
}

/// Percentile `p` in [0, 1] by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Highest over mean: the paper's load-imbalance factor.
pub fn max_over_mean(v: &[f64]) -> f64 {
    let m = mean(v);
    ratio(v.iter().copied().fold(0.0, f64::max), m)
}

/// Incremental FNV-1a over little-endian `u64` words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(REPORTED)
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or("")
    }

    #[test]
    fn metric_names_fit_the_format() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(REPORTED)
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut seen = std::collections::HashSet::new();
        for n in &all {
            assert!(n.len() <= 64 && seen.insert(*n), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            let u = unit_of(n);
            assert!(!u.is_empty() && u.len() <= 16, "{n}: {u}");
        }
    }
}
