//! Real-network DAT: a cluster of nodes over loopback UDP sockets (the
//! paper's RPC-based deployment, §4/§5.1 — it ran 64 instances per machine;
//! we run them in one process on the tokio host, one real socket each).
//!
//! Nodes join the ring live (with identifier probing), the overlay
//! stabilizes in wall-clock time, then an on-demand aggregate query fans
//! out and convergecasts over real datagrams.
//!
//! ```text
//! cargo run --release --example rpc_cluster [-- <nodes>]   # default 24
//! ```

use std::time::{Duration, Instant};

use libdat::chord::{ChordConfig, IdSpace, NodeAddr, NodeStatus};
use libdat::cluster::ClusterHost;
use libdat::core::{AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use rand::{Rng, SeedableRng};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xDA7);
    let ccfg = ChordConfig {
        space: IdSpace::new(48),
        stabilize_ms: 100,
        fix_fingers_ms: 40,
        check_pred_ms: 300,
        req_timeout_ms: 1_000,
        probe_on_join: true,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        epoch_ms: 300,
        query_window_ms: 300,
        ..DatConfig::default()
    };

    // Build the actors; each will bind its own UDP socket.
    let mut actors = Vec::with_capacity(n);
    for i in 0..n {
        let id = libdat::chord::Id(rng.random());
        let mut node =
            StackNode::new(ccfg, id, NodeAddr(i as u64)).with_app(DatProtocol::new(dcfg));
        let key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, 10.0 + (i * 7 % 80) as f64);
        actors.push(node);
    }
    let key = libdat::chord::hash_to_id(ccfg.space, b"cpu-usage");
    let cluster = ClusterHost::launch(actors).expect("bind sockets");
    println!("launched {n} nodes on loopback UDP");

    // Node 0 creates the ring; the rest join through it (sequentially, as
    // the prototype does).
    let bootstrap = cluster
        .call(NodeAddr(0), |node| (node.me(), node.start_create()))
        .unwrap();
    for i in 1..n {
        cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(60));
    }

    // Wait until every node is active and the successor ring closes.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut states = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(s) = cluster.call(NodeAddr(i as u64), |node| {
                (
                    (
                        node.status(),
                        node.me().id,
                        node.chord().table().successor().map(|s| s.id),
                    ),
                    vec![],
                )
            }) {
                states.push(s);
            }
        }
        let all_active = states.iter().all(|(st, _, _)| *st == NodeStatus::Active);
        if all_active {
            let mut ids: Vec<_> = states.iter().map(|(_, id, _)| *id).collect();
            ids.sort_unstable();
            let ok = states.iter().all(|(_, id, succ)| {
                let pos = ids.iter().position(|x| x == id).unwrap();
                *succ == Some(ids[(pos + 1) % ids.len()])
            });
            if ok {
                println!("ring converged: {n} nodes active, successors correct");
                break;
            }
        }
        assert!(Instant::now() < deadline, "ring did not converge in 30s");
        std::thread::sleep(Duration::from_millis(200));
    }

    // Let continuous aggregation warm up, then issue an on-demand query
    // from a random non-root node.
    std::thread::sleep(Duration::from_millis(1_200));
    let asker = NodeAddr((n as u64).saturating_sub(1));
    let reqid = cluster
        .call(asker, move |node| node.query(key))
        .expect("query dispatched");
    println!("on-demand query {reqid} issued from node {asker:?}...");

    let deadline = Instant::now() + Duration::from_secs(15);
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
        assert!(Instant::now() < deadline, "query did not complete in 15s");
        std::thread::sleep(Duration::from_millis(100));
    };
    println!(
        "global cpu-usage over real UDP: count {}, avg {:.2}, min {:.0}, max {:.0}",
        partial.count,
        partial.finalize(AggFunc::Avg),
        partial.finalize(AggFunc::Min),
        partial.finalize(AggFunc::Max),
    );
    assert!(
        partial.count as usize >= n * 9 / 10,
        "query should cover (almost) every node"
    );

    let stats = cluster.stats();
    println!(
        "transport: {} datagrams sent, {} received, {} decode errors",
        stats.sent, stats.received, stats.decode_errors
    );
    cluster.shutdown();
    println!(
        "ok: live UDP cluster aggregated {} of {n} nodes",
        partial.count
    );
}
