//! Integration: the same DAT stack over real loopback UDP — the paper's
//! RPC-based deployment (§5.1). Kept small so CI stays fast; the
//! `rpc_cluster` example scales the same path to larger clusters.

use std::time::{Duration, Instant};

use libdat::chord::{ChordConfig, Id, IdSpace, NodeAddr, NodeStatus};
use libdat::cluster::ClusterHost;
use libdat::core::{AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use rand::{Rng, SeedableRng};

fn fast_chord() -> ChordConfig {
    ChordConfig {
        space: IdSpace::new(40),
        stabilize_ms: 60,
        fix_fingers_ms: 30,
        check_pred_ms: 200,
        req_timeout_ms: 800,
        probe_on_join: false,
        ..ChordConfig::default()
    }
}

#[test]
fn udp_cluster_converges_and_answers_queries() {
    let n = 8usize;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let dcfg = DatConfig {
        epoch_ms: 150,
        query_window_ms: 250,
        ..DatConfig::default()
    };
    let mut actors = Vec::new();
    for i in 0..n {
        let id = Id(rng.random());
        let mut node =
            StackNode::new(fast_chord(), id, NodeAddr(i as u64)).with_app(DatProtocol::new(dcfg));
        let key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, (i * 10) as f64);
        actors.push(node);
    }
    let key = libdat::chord::hash_to_id(IdSpace::new(40), b"cpu-usage");
    let cluster = ClusterHost::launch(actors).unwrap();

    let bootstrap = cluster
        .call(NodeAddr(0), |node| (node.me(), node.start_create()))
        .unwrap();
    for i in 1..n {
        cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(50));
    }

    // Wait for every node to be active with a correct successor ring.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut infos = Vec::new();
        for i in 0..n {
            if let Some(v) = cluster.call(NodeAddr(i as u64), |node| {
                (
                    (
                        node.status(),
                        node.me().id,
                        node.chord().table().successor().map(|s| s.id),
                    ),
                    vec![],
                )
            }) {
                infos.push(v);
            }
        }
        let active = infos.iter().all(|(s, _, _)| *s == NodeStatus::Active);
        if active && infos.len() == n {
            let mut ids: Vec<Id> = infos.iter().map(|(_, id, _)| *id).collect();
            ids.sort_unstable();
            let ring_ok = infos.iter().all(|(_, id, succ)| {
                let pos = ids.iter().position(|x| x == id).unwrap();
                *succ == Some(ids[(pos + 1) % n])
            });
            if ring_ok {
                break;
            }
        }
        assert!(Instant::now() < deadline, "UDP ring did not converge");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Continuous aggregation warm-up, then an on-demand query.
    std::thread::sleep(Duration::from_millis(600));
    let asker = NodeAddr(3);
    let reqid = cluster.call(asker, move |node| node.query(key)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let partial = loop {
        let found = cluster
            .call(asker, |node| (node.take_events(), vec![]))
            .unwrap_or_default()
            .into_iter()
            .find_map(|e| match e {
                DatEvent::QueryDone {
                    reqid: r, partial, ..
                } if r == reqid => Some(partial),
                _ => None,
            });
        if let Some(p) = found {
            break p;
        }
        assert!(Instant::now() < deadline, "on-demand query timed out");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(partial.count as usize, n, "query covers every node");
    let want: f64 = (0..n).map(|i| (i * 10) as f64).sum();
    assert_eq!(partial.finalize(AggFunc::Sum), want);

    let stats = cluster.stats();
    assert!(stats.decode_errors == 0, "{stats:?}");
    let actors = cluster.shutdown();
    assert_eq!(actors.len(), n);
}

#[test]
fn udp_continuous_reports_reach_root() {
    let n = 5usize;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(123);
    let dcfg = DatConfig {
        epoch_ms: 120,
        ..DatConfig::default()
    };
    let mut actors = Vec::new();
    for i in 0..n {
        let id = Id(rng.random());
        let mut node =
            StackNode::new(fast_chord(), id, NodeAddr(i as u64)).with_app(DatProtocol::new(dcfg));
        let key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, 7.0);
        actors.push(node);
    }
    let cluster = ClusterHost::launch(actors).unwrap();
    let bootstrap = cluster
        .call(NodeAddr(0), |node| (node.me(), node.start_create()))
        .unwrap();
    for i in 1..n {
        cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(80));
    }
    // Poll every node for a full-coverage root report. The completeness
    // accounting must ride the real UDP transport intact: one contributor
    // per node, a sane local ring-size estimate, bounded staleness.
    let deadline = Instant::now() + Duration::from_secs(20);
    'outer: loop {
        for i in 0..n {
            let events = cluster
                .call(NodeAddr(i as u64), |node| (node.take_events(), vec![]))
                .unwrap_or_default();
            for e in events {
                if let DatEvent::Report {
                    partial,
                    completeness,
                    ..
                } = e
                {
                    if partial.count as usize == n {
                        assert_eq!(partial.finalize(AggFunc::Sum), 7.0 * n as f64);
                        assert_eq!(
                            completeness.contributors as usize, n,
                            "one contributor per node over UDP"
                        );
                        assert!(
                            completeness.ratio > 0.2 && completeness.ratio <= 2.0,
                            "completeness ratio {:.3} from the local density estimate",
                            completeness.ratio
                        );
                        assert!(
                            completeness.staleness_ms <= 4 * 120,
                            "staleness {} ms",
                            completeness.staleness_ms
                        );
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "no full-coverage report over UDP"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    cluster.shutdown();
}
