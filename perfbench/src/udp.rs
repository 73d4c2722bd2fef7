//! `udp-query`: the read path on real sockets. 1024 nodes on the tokio
//! `ClusterHost` over loopback (prestabilized boot as in `clusterd`, two
//! host workers). One continuous key at a 500 ms epoch carries freshness
//! probes. One client keeps two requests outstanding — on-demand DAT
//! aggregates and MAAN `cpu-speed` range queries in a seeded 3:1 mix, from
//! seeded random nodes — and sends the next only when one completes.

use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use dat_chord::{ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use dat_cluster::{ClusterHost, HostConfig};
use dat_core::{AggregationMode, DatConfig, DatProtocol, StackNode};
use dat_maan::{MaanProtocol, MaanStack, Resource};
use dat_monitor::grid_schemas;
use dat_obs::Registry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fresh::ProbeKey;
use crate::out::{max_over_mean, median, percentile, ratio, Gate, Outcome};
use crate::probe::{Class, NodeStats, Probe, Surfaced};
use crate::trace::{self, Recorder};
use crate::{sim, sys, ALLOC};

const ATTR: &str = "cpu-usage";
/// Tokens at or above this confirm a probe raise; the low bits name the
/// slot.
const PROBE_TOKEN: u64 = 1 << 40;

/// The ring's identifiers come from this fixed seed (`clusterd`'s
/// default); `--seed` drives the traffic, the sensor values and the MAAN
/// resources. Query windows halve with tree depth, so the partial-answer
/// rate, and with it CPU per datagram, follows the ring's shape: across
/// per-seed rings CPU per datagram spread 10%, on this ring 3–8%.
const RING_SEED: u64 = 0x5AC;
/// Host worker threads, sized for a 2-core host.
const WORKERS: usize = 2;
const EPOCH_MS: u64 = 500;
const WARM_MS: u64 = 1_500;
/// Freshness probes per epoch.
const PROBES_PER_EPOCH: u64 = 3;
/// Requests the closed-loop client keeps outstanding.
const OUTSTANDING: usize = 2;
/// A request unanswered this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(3);

#[derive(Clone, Copy, Debug)]
pub struct Udp {
    pub nodes: usize,
    pub measure_ms: u64,
    /// Hosts advertising `cpu-speed` through MAAN.
    pub machines: usize,
    pub setups: usize,
}

impl Udp {
    pub fn full(seconds: u64) -> Self {
        Udp {
            nodes: 1024,
            measure_ms: seconds.max(1) * 1_000,
            machines: 64,
            setups: 9,
        }
    }

    pub fn tiny() -> Self {
        Udp {
            nodes: 16,
            measure_ms: 2_000,
            machines: 8,
            setups: 2,
        }
    }
}

struct Cluster {
    host: ClusterHost<Probe>,
    key: Id,
    values: Vec<f64>,
    machines: Vec<(String, f64)>,
    setup_s: f64,
    chord_bytes: i64,
    dat_bytes: i64,
}

fn boot(cfg: &Udp, seed: u64, sink: &Sender<Surfaced>, timing: bool) -> Result<Cluster, String> {
    let t0 = Instant::now();
    let heap0 = ALLOC.live();
    let n = cfg.nodes;
    let space = IdSpace::new(32);
    let mut rng = SmallRng::seed_from_u64(RING_SEED);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    // Quiet maintenance on a pre-converged ring, as in `clusterd`.
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 60_000,
        fix_fingers_ms: 60_000,
        check_pred_ms: 60_000,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: EPOCH_MS,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let actors: Vec<Probe> = ring
        .ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let node = StackNode::new(ccfg, id, NodeAddr(i as u64))
                .with_app(DatProtocol::new(dcfg))
                .with_app(MaanProtocol::new(grid_schemas()));
            Probe::new(node, Some(sink.clone()), timing)
        })
        .collect();
    let host = ClusterHost::launch_with(
        actors,
        HostConfig {
            worker_threads: WORKERS,
            inbox_capacity: 256,
            outbox_capacity: 256,
            timer_granularity: Duration::from_millis(200),
            ..HostConfig::default()
        },
    )
    .map_err(|e| format!("launch: {e}"))?;
    let addr_of: HashMap<Id, NodeAddr> = ring
        .ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, NodeAddr(i as u64)))
        .collect();
    for (i, &id) in ring.ids().iter().enumerate() {
        let table = ring.table_of_with(id, ccfg.succ_list_len, &|x| addr_of[&x]);
        host.cast(NodeAddr(i as u64), move |p| p.node.start_with_table(table));
    }
    barrier(&host, n)?;
    let heap1 = ALLOC.live();
    let mut vals = SmallRng::seed_from_u64(seed ^ 0x7a1e_5eed);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let v = f64::from(vals.random_range(0u32..16));
        values.push(v);
        host.cast(NodeAddr(i as u64), move |p| {
            let k = p.node.register(ATTR, AggregationMode::Continuous);
            p.node.set_local(k, v);
            vec![]
        });
    }
    let mut machines = Vec::with_capacity(cfg.machines);
    for j in 0..cfg.machines {
        let uri = format!("grid://host-{j:03}");
        let speed = f64::from(vals.random_range(0u32..32)) * 0.25;
        let res = Resource::new(&uri).with("cpu-speed", speed);
        machines.push((uri, speed));
        let origin = NodeAddr(((j * 7) % n) as u64);
        host.cast(origin, move |p| p.node.maan_register(&res));
    }
    barrier(&host, n)?;
    Ok(Cluster {
        host,
        key: dat_chord::hash_to_id(space, ATTR.as_bytes()),
        values,
        machines,
        setup_s: t0.elapsed().as_secs_f64(),
        chord_bytes: heap1 - heap0,
        dat_bytes: ALLOC.live() - heap1,
    })
}

/// Wait until every node has run everything queued before this call.
fn barrier(host: &ClusterHost<Probe>, n: usize) -> Result<(), String> {
    for i in 0..n {
        host.call(NodeAddr(i as u64), |_| ((), vec![]))
            .ok_or_else(|| format!("node {i} stopped answering"))?;
    }
    Ok(())
}

/// Per-node counters of every node, read through `call`.
fn snapshot(host: &ClusterHost<Probe>, n: usize) -> Vec<NodeStats> {
    (0..n)
        .map(|i| {
            host.call(NodeAddr(i as u64), |p| (p.stats.clone(), vec![]))
                .unwrap_or_default()
        })
        .collect()
}

fn fleet_registry(host: &ClusterHost<Probe>, n: usize) -> (Registry, f64) {
    let t0 = Instant::now();
    let mut fleet = Registry::new();
    for i in 0..n {
        if let Some(r) = host.call(NodeAddr(i as u64), |p| (p.node.obs_registry(), vec![])) {
            fleet.merge(&r);
        }
    }
    fleet.merge(&host.transport_registry());
    (fleet, t0.elapsed().as_secs_f64() * 1e3)
}

/// Expected MAAN answer: every machine whose speed lies in `[lo, hi]`.
pub fn maan_expected(machines: &[(String, f64)], lo: f64, hi: f64) -> Vec<String> {
    let mut v: Vec<String> = machines
        .iter()
        .filter(|(_, s)| *s >= lo && *s <= hi)
        .map(|(u, _)| u.clone())
        .collect();
    v.sort();
    v
}

/// A MAAN answer must name exactly the expected hosts.
pub fn maan_gate(mismatches: &[(Vec<String>, Vec<String>)], answered: u64) -> Gate {
    Gate::check(
        "maan hits",
        mismatches.is_empty(),
        match mismatches.first() {
            None => format!("{answered} answers matched"),
            Some((got, want)) => format!(
                "{} of {answered} answers differ; first got {got:?}, expected {want:?}",
                mismatches.len()
            ),
        },
    )
}

enum Req {
    Dat { span: (u64, u64) },
    Maan { want: Vec<String> },
}

pub fn run(cfg: &Udp, seed: u64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    match run_inner(cfg, seed, traced, &mut o) {
        Ok(()) => {}
        Err(e) => o.gates.push(Gate::check("cluster", false, e)),
    }
    o
}

fn run_inner(cfg: &Udp, seed: u64, traced: bool, o: &mut Outcome) -> Result<(), String> {
    let n = cfg.nodes;
    let (tx, rx) = channel();
    let mut setups = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(c) = cluster.take() {
            c.host.shutdown();
        }
        let c = boot(cfg, seed, &tx, traced)?;
        setups.push(c.setup_s);
        cluster = Some(c);
    }
    drop(tx);
    let Some(Cluster {
        host,
        key,
        mut values,
        machines,
        chord_bytes,
        dat_bytes,
        ..
    }) = cluster
    else {
        unreachable!("at least one setup ran")
    };
    // Boots before the last one left their events behind.
    while rx.try_recv().is_ok() {}
    let mut rec = Recorder::new(traced);
    let root = rec.open();
    trace::set_current(root.0);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0d9b_1e55);
    // Sensor values are below 16, so the key sums below 2^4 * n.
    let mut probe = ProbeKey::new(4 + (n as f64).log2().ceil() as u32);
    let base = Instant::now();
    let ms = |at: Instant| at.saturating_duration_since(base).as_secs_f64() * 1e3;
    let mut latest: Option<(f64, u64, f64)> = None;

    // Reports and probe confirmations; lowers go out as casts.
    let on_report = |sum: f64,
                     contributors: u64,
                     at: f64,
                     probe: &mut ProbeKey,
                     values: &mut [f64],
                     latest: &mut Option<(f64, u64, f64)>,
                     lower: bool| {
        *latest = Some((sum, contributors, at));
        for c in probe.on_report(sum, at) {
            if lower {
                let v = &mut values[c.leaf.0 as usize];
                *v += c.delta;
                let v = *v;
                host.cast(c.leaf, move |p| {
                    p.set_value(key, v, 0);
                    vec![]
                });
            }
        }
    };

    // Warm-up.
    let warm_end = Instant::now() + Duration::from_millis(WARM_MS);
    while let Some(left) = warm_end.checked_duration_since(Instant::now()) {
        match rx.recv_timeout(left) {
            Ok(Surfaced::Report {
                sum,
                contributors,
                at,
                ..
            }) => on_report(
                sum,
                contributors,
                ms(at),
                &mut probe,
                &mut values,
                &mut latest,
                true,
            ),
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => break,
            Err(RecvTimeoutError::Disconnected) => return Err("event channel closed".into()),
        }
    }

    // Measured window.
    let (reg0, merge_ms) = if traced {
        fleet_registry(&host, n)
    } else {
        Default::default()
    };
    let snap0 = snapshot(&host, n);
    let snap0_at = Instant::now();
    let stats0 = host.stats();
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let end = start + Duration::from_millis(cfg.measure_ms);
    let epochs = cfg.measure_ms.div_ceil(EPOCH_MS);
    let mut probe_at: Vec<Instant> = (0..epochs)
        .flat_map(|e| {
            (0..PROBES_PER_EPOCH)
                .map(|i| {
                    let w = EPOCH_MS as f64 / PROBES_PER_EPOCH as f64;
                    e * EPOCH_MS + ((i as f64 + rng.random::<f64>()) * w) as u64
                })
                .collect::<Vec<_>>()
        })
        .filter(|&t| t < cfg.measure_ms)
        .map(|t| start + Duration::from_millis(t))
        .collect();
    probe_at.sort_unstable();
    probe_at.reverse();
    let mut open: HashMap<u64, (Instant, Req)> = HashMap::new();
    let mut next_token = 1u64;
    let (mut dat_issued, mut dat_complete) = (0u64, 0u64);
    let (mut dat_partial, mut dat_timeout) = (0u64, 0u64);
    let (mut maan_issued, mut maan_failed) = (0u64, 0u64);
    let mut dat_lat = Vec::new();
    let mut maan_lat = Vec::new();
    let mut mismatches = Vec::new();
    let mut rtts = Vec::new();
    let mut next_rtt = start;
    let mut issue_ns = 0u64;
    let mut issuing = true;
    loop {
        let now = Instant::now();
        if now >= end {
            issuing = false;
        }
        if !issuing && (open.is_empty() || now >= end + TIMEOUT) {
            break;
        }
        while issuing && open.len() < OUTSTANDING {
            let token = next_token;
            next_token += 1;
            let a = NodeAddr(rng.random_range(0..n as u64));
            let t0 = Instant::now();
            if rng.random_range(0u32..4) < 3 {
                dat_issued += 1;
                let span = rec.open();
                open.insert(token, (t0, Req::Dat { span }));
                host.cast(a, move |p| p.query(key, token));
            } else {
                maan_issued += 1;
                let lo = f64::from(rng.random_range(0u32..14)) * 0.5;
                let hi = lo + f64::from(rng.random_range(1u32..=4)) * 0.5;
                open.insert(
                    token,
                    (
                        t0,
                        Req::Maan {
                            want: maan_expected(&machines, lo, hi),
                        },
                    ),
                );
                host.cast(a, move |p| p.maan_query(lo, hi, token));
            }
            issue_ns += t0.elapsed().as_nanos() as u64;
        }
        if traced && issuing && now >= next_rtt {
            let a = NodeAddr(rng.random_range(0..n as u64));
            let t0 = Instant::now();
            if host.call(a, |_| ((), vec![])).is_some() {
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            next_rtt = now + Duration::from_millis(100);
        }
        // Probes due now.
        while issuing && probe_at.last().is_some_and(|&t| t <= Instant::now()) {
            probe_at.pop();
            let leaf = NodeAddr(rng.random_range(0..n as u64));
            if let Some(c) = probe.raise(leaf) {
                let v = &mut values[leaf.0 as usize];
                *v += c.delta;
                let v = *v;
                let token = PROBE_TOKEN + c.slot as u64;
                host.cast(leaf, move |p| {
                    p.set_value(key, v, token);
                    vec![]
                });
            }
        }
        let mut wake = open
            .values()
            .map(|(t, _)| *t + TIMEOUT)
            .min()
            .unwrap_or(end + TIMEOUT);
        if issuing {
            wake = wake.min(end);
            if let Some(&t) = probe_at.last() {
                wake = wake.min(t);
            }
        }
        match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(Surfaced::Report {
                sum,
                contributors,
                at,
                ..
            }) => on_report(
                sum,
                contributors,
                ms(at),
                &mut probe,
                &mut values,
                &mut latest,
                issuing,
            ),
            Ok(Surfaced::Applied { token, at }) if token >= PROBE_TOKEN => {
                probe.applied((token - PROBE_TOKEN) as usize, ms(at));
            }
            Ok(Surfaced::Answer {
                token,
                reqid,
                contributors,
                at,
                ..
            }) => {
                if let Some((t0, Req::Dat { span })) = open.remove(&token) {
                    rec.close(span, root.0, "request", reqid);
                    dat_lat.push(at.saturating_duration_since(t0).as_secs_f64() * 1e3);
                    if contributors == n as u64 {
                        dat_complete += 1;
                    } else {
                        dat_partial += 1;
                    }
                }
            }
            Ok(Surfaced::Maan { token, hits, at }) => {
                if let Some((t0, Req::Maan { want })) = open.remove(&token) {
                    maan_lat.push(at.saturating_duration_since(t0).as_secs_f64() * 1e3);
                    if hits != want {
                        maan_failed += 1;
                        mismatches.push((hits, want));
                    }
                }
            }
            Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Err("event channel closed".into()),
        }
        let now = Instant::now();
        open.retain(|_, (t0, req)| {
            let live = now < *t0 + TIMEOUT;
            if !live {
                match req {
                    Req::Dat { .. } => dat_timeout += 1,
                    Req::Maan { .. } => maan_failed += 1,
                }
            }
            live
        });
    }
    let measured = start.elapsed();
    for (_, (_, req)) in open.drain() {
        match req {
            Req::Dat { .. } => dat_timeout += 1,
            Req::Maan { .. } => maan_failed += 1,
        }
    }
    let cpu = sys::cpu_seconds() - cpu0;
    let stats1 = host.stats();
    let snap1 = snapshot(&host, n);
    let snap_s = snap0_at.elapsed().as_secs_f64();
    let (retransmits, suspects, shed) = if traced {
        let (reg1, _) = fleet_registry(&host, n);
        let (r0, s0) = sim::health_counters(&reg0);
        let (r1, s1) = sim::health_counters(&reg1);
        (
            r1.saturating_sub(r0),
            s1.saturating_sub(s0),
            reg1.counter_sum("engine_shed_total"),
        )
    } else {
        (0, 0, 0)
    };

    // Settle: no more changes; wait for an exact report.
    let last_change = ms(Instant::now());
    let settle_end = Instant::now() + Duration::from_millis(10 * EPOCH_MS);
    let want: f64 = values.iter().sum();
    let mut settled = latest.filter(|&(s, c, at)| at > last_change && s == want && c == n as u64);
    while settled.is_none() {
        let Some(left) = settle_end.checked_duration_since(Instant::now()) else {
            break;
        };
        match rx.recv_timeout(left) {
            Ok(Surfaced::Report {
                sum,
                contributors,
                at,
                ..
            }) => {
                on_report(
                    sum,
                    contributors,
                    ms(at),
                    &mut probe,
                    &mut values,
                    &mut latest,
                    false,
                );
                if ms(at) > last_change && sum == want && contributors == n as u64 {
                    settled = latest;
                }
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let got = settled.or(latest).map_or((f64::NAN, 0), |(s, c, _)| (s, c));
    o.gates.push(crate::steady::exact_sum_gate(
        "settled sum cpu-usage",
        got,
        want,
        n as u64,
    ));
    o.gates.push(maan_gate(&mismatches, maan_lat.len() as u64));

    let mut stats = NodeStats::default();
    let mut loads = Vec::with_capacity(n);
    for (a, b) in snap1.iter().zip(&snap0) {
        let dlt = a.minus(b);
        loads.push(dlt.dat_load() as f64);
        stats.add(&dlt);
    }
    let secs = measured.as_secs_f64();
    let dgrams = stats1.received - stats0.received;
    let fresh = &probe.samples;
    o.set("setup_s", median(&setups));
    o.set("peak_rss_mib", sys::peak_rss_mib());
    // CPU per datagram, not per request: under host contention a closed
    // loop completes fewer requests, so each carries more of the fixed
    // background traffic and CPU per request swung 58–72 ms on one seed.
    o.set("cpu_ms_per_op", ratio(cpu * 1e3, dgrams as f64));
    o.set(
        "msgs_per_node_s",
        ratio(stats.sent_background() as f64, n as f64 * snap_s),
    );
    o.set("node_load_max_ratio", max_over_mean(&loads));
    o.set("fresh_p50_ms", percentile(fresh, 0.5));
    o.set("fresh_p90_ms", percentile(fresh, 0.9));
    o.set("query_p50_ms", percentile(&dat_lat, 0.5));
    o.set("query_p90_ms", percentile(&dat_lat, 0.9));
    o.set("query_qps", ratio(dat_complete as f64, secs));
    o.set("maan_p50_ms", percentile(&maan_lat, 0.5));
    o.set(
        "query_fail_ratio",
        ratio((dat_partial + dat_timeout) as f64, dat_issued as f64),
    );
    o.attempted = probe.raised + dat_issued + maan_issued;
    // Partial answers (the known query-window defect, README.md) are in
    // `query_fail_ratio` and `dat_partial`, not in `failed`: their share
    // follows the host's CPU speed, so it cannot repeat between sets of
    // runs. An operation that gets no answer, or a wrong one, fails.
    o.failed = probe.pending() + dat_timeout + maan_failed;
    o.ctx("nodes", n);
    o.ctx("transport", "tokio ClusterHost, UDP loopback");
    o.ctx("host_workers", WORKERS);
    o.ctx("fd_limit", sys::fd_limit());
    o.ctx("measure_s", secs);
    o.ctx("dat_queries", dat_issued);
    o.ctx("dat_partial", dat_partial);
    o.ctx("dat_timeout", dat_timeout);
    o.ctx("probes_pending", probe.pending());
    o.ctx("maan_queries", maan_issued);
    o.ctx("maan_failed", maan_failed);
    o.ctx("fresh_samples", fresh.len());
    o.ctx("query_samples", dat_lat.len());
    o.ctx("maan_samples", maan_lat.len());
    o.ctx("probes_skipped", probe.skipped);
    o.ctx("probe_anomalies", probe.anomalies);
    o.ctx("setup_samples", setups.len());
    o.ctx("datagrams", dgrams);

    if traced {
        let stack_ns = stats.input_ns_total() as f64;
        let cpu_ns = cpu * 1e9;
        let per_class = |c: &[Class]| {
            let ns: u64 = c.iter().map(|&c| stats.input_ns[c as usize]).sum();
            let k: u64 = c.iter().map(|&c| stats.inputs[c as usize]).sum();
            ratio(ns as f64, k as f64)
        };
        let node_s = n as f64 * snap_s;
        let inputs: u64 = stats.inputs.iter().sum();
        o.set("stack.timer_ns", per_class(&[Class::Timer]));
        o.set("stack.chord_msg_ns", per_class(&[Class::Chord]));
        o.set(
            "stack.dat_msg_ns",
            per_class(&[Class::DatPush, Class::DatQuery]),
        );
        o.set("stack.maan_msg_ns", per_class(&[Class::Maan]));
        o.set("stack.inputs_per_node_s", ratio(inputs as f64, node_s));
        o.set("stack.busy_share", ratio(stack_ns, cpu_ns));
        sim::codec_metrics(o, &stats);
        o.set(
            "chord.maint_msgs_per_node_s",
            ratio(stats.sent[Class::Chord as usize] as f64, node_s),
        );
        o.set(
            "chord.route_hops_mean",
            ratio(stats.route_hops as f64, stats.routes as f64),
        );
        o.set(
            "chord.retransmits_per_node_s",
            ratio(retransmits as f64, node_s),
        );
        o.set("health.suspects_total", suspects as f64);
        let dat_sent = stats.sent[Class::DatPush as usize] + stats.sent[Class::DatQuery as usize];
        o.set(
            "dat.msgs_per_node_epoch",
            ratio(dat_sent as f64, n as f64 * snap_s * 1e3 / EPOCH_MS as f64),
        );
        o.set(
            "dat.query_msgs",
            ratio(
                stats.sent[Class::DatQuery as usize] as f64,
                dat_issued as f64,
            ),
        );
        o.set("host.dgrams_per_s", ratio(dgrams as f64, secs));
        o.set("host.cpu_us_per_dgram", ratio(cpu * 1e6, dgrams as f64));
        o.set(
            "host.transport_cpu_share",
            (1.0 - ratio(stack_ns, cpu_ns)).max(0.0),
        );
        o.set("host.call_rtt_us", median(&rtts));
        o.set(
            "host.shed_total",
            (stats1.shed_rx + stats1.shed_tx) as f64 + shed as f64,
        );
        o.set(
            "host.socket_errors",
            (stats1.socket_recv_errors + stats1.socket_send_errors) as f64,
        );
        o.set("mem.chord_bytes_per_node", chord_bytes as f64 / n as f64);
        o.set("mem.dat_bytes_per_node", dat_bytes as f64 / n as f64);
        o.set("mem.heap_peak_bytes", ALLOC.peak() as f64);
        o.set("obs.fleet_merge_ms", merge_ms);
        o.set("self.workload_ms", issue_ns as f64 / 1e6);
        o.set("self.engine_ms", (cpu_ns - stack_ns).max(0.0) / 1e6);
        o.set("self.stack_ms", stack_ns / 1e6);
        o.ctx("call_rtt_samples", rtts.len());
    }
    let actors = host.shutdown();
    if traced {
        rec.close(root, 0, "workload", 0);
        let mut spans = std::mem::take(&mut rec.spans);
        for mut p in actors {
            spans.append(&mut p.spans);
        }
        o.spans = spans;
    }
    Ok(())
}
