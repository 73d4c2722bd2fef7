//! Task-per-node tokio transport hosting sans-io protocol actors.
//!
//! Layout per node — one UDP socket shared by two tasks via `Arc`, plus
//! the actor task in between, all glued with **bounded** channels:
//!
//! ```text
//!   socket ──recv_from──► reader ──try_send──► inbox ─► actor ─► outbox ──recv──► writer ──send_to──► socket
//!                           │ (full ⇒ shed_rx)            │ (full ⇒ shed_tx)
//! ```
//!
//! The reader decodes every datagram through the shared
//! [`dat_chord::codec`]; failures are classified by kind and forwarded to
//! the actor as [`Input::BadFrame`] with source-address attribution, so
//! the engine's per-peer scoring and quarantine pipeline runs over real
//! UDP exactly as in the simulator. The actor task owns a private timer
//! heap — `Output::SetTimer` never leaves the task, so timer delivery
//! cannot reorder against the inputs that set it.
//!
//! Drain contract: `shutdown` enqueues a `Stop` marker on the reliable
//! control plane and raises the stop flag. Each actor finishes everything
//! queued before its marker, then returns itself; readers observe the flag
//! within one `SOCKET_POLL`; writers flush every frame the actors
//! produced and exit when the outbox closes. No task outlives `shutdown`,
//! and dropping the host without it runs the same teardown, so every node
//! socket is released either way.

use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dat_chord::codec;
use dat_chord::wire::ERROR_KINDS;
use dat_chord::{Actor, Input, NodeAddr, Output, TimerKind, Upcall};
use dat_obs::Registry;
use parking_lot::Mutex;
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TrySendError;

/// Number of distinct decode-failure kinds the transport classifies
/// (one counter slot per [`dat_chord::wire::ERROR_KINDS`] label).
const KINDS: usize = ERROR_KINDS.len();

/// How often an idle reader wakes to check for shutdown — the upper bound
/// on how long readers linger after the stop flag is raised.
const SOCKET_POLL: Duration = Duration::from_millis(100);

/// How long [`ClusterHost::call`] waits for the actor's answer. The
/// control channel is reliable, so the wait only expires when the actor
/// task is genuinely backed up.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Runtime knobs for [`ClusterHost`].
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Executor worker threads; `0` means available parallelism.
    pub worker_threads: usize,
    /// Bound of each node's reader→actor channel. A full inbox sheds the
    /// datagram and counts it (`engine_shed_total{layer="transport_rx"}`).
    pub inbox_capacity: usize,
    /// Bound of each node's actor→writer channel. A full outbox sheds the
    /// frame and counts it (`engine_shed_total{layer="transport_tx"}`).
    pub outbox_capacity: usize,
    /// Cap on how long an actor task sleeps between timer-heap sweeps,
    /// which caps how late a timer can fire.
    pub timer_granularity: Duration,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            worker_threads: 0,
            inbox_capacity: 1024,
            outbox_capacity: 1024,
            timer_granularity: Duration::from_millis(50),
        }
    }
}

type WithFn<A> = Box<dyn FnOnce(&mut A) -> Vec<Output> + Send>;

enum Control<A> {
    Input(Input),
    With(WithFn<A>),
    Stop,
}

/// A pending timer inside one actor task's private heap.
struct TimerEntry {
    deadline: Instant,
    seq: u64,
    kind: TimerKind,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (deadline, insertion order).
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

/// Shared transport counters, one set for the whole cluster.
#[derive(Default)]
struct Counters {
    sent: AtomicU64,
    received: AtomicU64,
    decode_errors: AtomicU64,
    decode_errors_by_kind: [AtomicU64; KINDS],
    shed_rx: AtomicU64,
    shed_tx: AtomicU64,
    socket_recv_errors: AtomicU64,
    socket_send_errors: AtomicU64,
}

/// Transport counters for the whole cluster, as one coherent snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Datagrams handed to the kernel.
    pub sent: u64,
    /// Datagrams received and decoded.
    pub received: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// `decode_errors` broken down by failure kind, indexed like
    /// [`dat_chord::wire::ERROR_KINDS`].
    pub decode_errors_by_kind: [u64; KINDS],
    /// Inbound frames dropped because a node's inbox was full.
    pub shed_rx: u64,
    /// Outbound frames dropped because a node's outbox was full.
    pub shed_tx: u64,
    /// `recv_from` socket errors (other than the poll timeout).
    pub socket_recv_errors: u64,
    /// `send_to` socket errors.
    pub socket_send_errors: u64,
}

impl HostStats {
    /// The per-kind decode-error tallies paired with their wire labels.
    pub fn decode_error_kinds(&self) -> [(&'static str, u64); KINDS] {
        let mut out = [("", 0u64); KINDS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (ERROR_KINDS[i], self.decode_errors_by_kind[i]);
        }
        out
    }
}

/// A running cluster of UDP-backed protocol nodes on a tokio runtime.
pub struct ClusterHost<A: Actor> {
    inboxes: HashMap<NodeAddr, mpsc::Sender<Control<A>>>,
    actors: Vec<tokio::task::JoinHandle<A>>,
    readers: Vec<tokio::task::JoinHandle<()>>,
    writers: Vec<tokio::task::JoinHandle<()>>,
    sockets: Vec<Arc<tokio::net::UdpSocket>>,
    addr_book: Arc<HashMap<NodeAddr, SocketAddr>>,
    upcalls: Arc<Mutex<Vec<(NodeAddr, Upcall)>>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    // Dropped last (declaration order): tasks and sockets must unwind
    // while the executor, timer and reactor threads still run.
    runtime: tokio::runtime::Runtime,
}

impl<A: Actor> ClusterHost<A> {
    /// Bind sockets and spawn the per-node task trios for `actors` with
    /// default [`HostConfig`]. Actor `i` must use logical `NodeAddr(i)`.
    pub fn launch(actors: Vec<A>) -> std::io::Result<Self> {
        Self::launch_with(actors, HostConfig::default())
    }

    /// Like [`ClusterHost::launch`] with explicit runtime knobs.
    pub fn launch_with(actors: Vec<A>, cfg: HostConfig) -> std::io::Result<Self> {
        let n = actors.len();
        let mut builder = tokio::runtime::Builder::new_multi_thread();
        builder.thread_name("cluster");
        if cfg.worker_threads > 0 {
            builder.worker_threads(cfg.worker_threads);
        }
        let runtime = builder.enable_all().build()?;

        // Bind std sockets first (cheap, synchronous), then adopt them
        // into the reactor from inside the runtime context.
        let mut std_sockets = Vec::with_capacity(n);
        let mut book = HashMap::with_capacity(n);
        for (i, a) in actors.iter().enumerate() {
            assert_eq!(
                a.addr(),
                NodeAddr(i as u64),
                "actor {i} must use NodeAddr({i})"
            );
            let sock = std::net::UdpSocket::bind(("127.0.0.1", 0))?;
            book.insert(NodeAddr(i as u64), sock.local_addr()?);
            std_sockets.push(sock);
        }
        let sockets: Vec<Arc<tokio::net::UdpSocket>> = runtime.block_on(async {
            std_sockets
                .into_iter()
                .map(|s| tokio::net::UdpSocket::from_std(s).map(Arc::new))
                .collect::<std::io::Result<Vec<_>>>()
        })?;

        // Reverse book: source socket -> logical address, so a damaged
        // frame can still be attributed to the peer that sent it (the
        // payload is untrustworthy by definition; the UDP source address
        // is the best evidence available).
        let rev_book: Arc<HashMap<SocketAddr, NodeAddr>> =
            Arc::new(book.iter().map(|(&n, &s)| (s, n)).collect());
        let addr_book = Arc::new(book);
        let stop = Arc::new(AtomicBool::new(false));
        let upcalls = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(Counters::default());

        let mut inboxes = HashMap::with_capacity(n);
        let mut actor_tasks = Vec::with_capacity(n);
        let mut reader_tasks = Vec::with_capacity(n);
        let mut writer_tasks = Vec::with_capacity(n);
        // One epoch for the whole cluster: every actor task reports the
        // same monotonic clock, so cross-node RTT math is coherent.
        let epoch = Instant::now();

        for (i, actor) in actors.into_iter().enumerate() {
            let addr = NodeAddr(i as u64);
            let (in_tx, in_rx) = mpsc::channel::<Control<A>>(cfg.inbox_capacity);
            let (out_tx, out_rx) = mpsc::channel::<(Vec<u8>, SocketAddr)>(cfg.outbox_capacity);
            inboxes.insert(addr, in_tx.clone());

            reader_tasks.push(runtime.spawn(reader_task(
                Arc::clone(&sockets[i]),
                in_tx,
                Arc::clone(&stop),
                Arc::clone(&counters),
                Arc::clone(&rev_book),
            )));
            writer_tasks.push(runtime.spawn(writer_task(
                Arc::clone(&sockets[i]),
                out_rx,
                Arc::clone(&counters),
            )));
            actor_tasks.push(runtime.spawn(actor_task(
                actor,
                addr,
                in_rx,
                out_tx,
                Arc::clone(&addr_book),
                Arc::clone(&upcalls),
                Arc::clone(&counters),
                epoch,
                cfg.timer_granularity,
            )));
        }

        Ok(ClusterHost {
            inboxes,
            actors: actor_tasks,
            readers: reader_tasks,
            writers: writer_tasks,
            sockets,
            addr_book,
            upcalls,
            stop,
            counters,
            runtime,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// `true` when the cluster hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// The UDP socket address of a logical node.
    pub fn socket_addr(&self, addr: NodeAddr) -> Option<SocketAddr> {
        self.addr_book.get(&addr).copied()
    }

    /// Send raw bytes from `from`'s socket to `to`'s socket, bypassing the
    /// codec entirely — a byte-level fault-injection hook for hostile-wire
    /// tests. The receiver attributes whatever arrives to `from` via the
    /// source address, exactly as it would a genuinely corrupted datagram.
    pub fn send_raw(&self, from: NodeAddr, to: NodeAddr, bytes: &[u8]) -> std::io::Result<()> {
        let sock = self
            .sockets
            .get(from.0 as usize)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "unknown sender"))?;
        let peer = *self
            .addr_book
            .get(&to)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "unknown target"))?;
        self.runtime.block_on(sock.send_to(bytes, peer)).map(|_| ())
    }

    /// Run `f` against the actor at `addr` asynchronously; its outputs
    /// are processed on the actor task. Control plane: waits for inbox
    /// capacity instead of shedding.
    pub fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut A) -> Vec<Output> + Send + 'static,
    {
        if let Some(tx) = self.inboxes.get(&addr) {
            let _ = tx.blocking_send(Control::With(Box::new(f)));
        }
    }

    /// Run `f` against the actor at `addr` and wait for its return value;
    /// `None` if the actor does not answer within `CALL_TIMEOUT`.
    pub fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    {
        let tx = self.inboxes.get(&addr)?;
        let (rtx, rrx) = std::sync::mpsc::sync_channel::<R>(1);
        let _ = tx.blocking_send(Control::With(Box::new(move |a| {
            let (r, outs) = f(a);
            let _ = rtx.send(r);
            outs
        })));
        rrx.recv_timeout(CALL_TIMEOUT).ok()
    }

    /// Drain the recorded upcalls of every node.
    pub fn drain_upcalls(&self) -> Vec<(NodeAddr, Upcall)> {
        std::mem::take(&mut *self.upcalls.lock())
    }

    /// Transport counters.
    pub fn stats(&self) -> HostStats {
        let c = &self.counters;
        let mut by_kind = [0u64; KINDS];
        for (slot, counter) in by_kind.iter_mut().zip(c.decode_errors_by_kind.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        HostStats {
            sent: c.sent.load(Ordering::Relaxed),
            received: c.received.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            decode_errors_by_kind: by_kind,
            shed_rx: c.shed_rx.load(Ordering::Relaxed),
            shed_tx: c.shed_tx.load(Ordering::Relaxed),
            socket_recv_errors: c.socket_recv_errors.load(Ordering::Relaxed),
            socket_send_errors: c.socket_send_errors.load(Ordering::Relaxed),
        }
    }

    /// Transport-level metrics as an obs registry: datagram, decode-error
    /// and socket-error counters plus `engine_shed_total` transport
    /// layers, every series zero-initialized (`transport="tokio"`).
    pub fn transport_registry(&self) -> Registry {
        let s = self.stats();
        dat_obs::transport_registry(&dat_obs::TransportCounters {
            transport: "tokio",
            sent: s.sent,
            received: s.received,
            decode_errors_by_kind: s.decode_error_kinds().to_vec(),
            shed_rx: s.shed_rx,
            shed_tx: s.shed_tx,
            socket_recv_errors: s.socket_recv_errors,
            socket_send_errors: s.socket_send_errors,
        })
    }

    /// Stop every task, drain the planes, and return the actors.
    pub fn shutdown(mut self) -> Vec<A> {
        let mut actors = self.stop_all();
        actors.sort_by_key(|a| a.addr());
        actors
    }

    /// Teardown shared by `shutdown` and `Drop`.
    ///
    /// Order matters: the `Stop` markers ride the reliable control plane
    /// behind any queued datagrams, so each actor finishes its backlog
    /// first; the stop flag bounds reader exit to one [`SOCKET_POLL`]; the
    /// writers flush everything the actors produced before their outboxes
    /// close. Once every task has returned, no `Arc` of a node socket is
    /// left outside the host, so the sockets close with it. Idempotent:
    /// a second run finds nothing left to stop.
    fn stop_all(&mut self) -> Vec<A> {
        for (_, tx) in self.inboxes.drain() {
            let _ = tx.blocking_send(Control::Stop);
        }
        self.stop.store(true, Ordering::Relaxed);
        let actor_handles = std::mem::take(&mut self.actors);
        let reader_handles = std::mem::take(&mut self.readers);
        let writer_handles = std::mem::take(&mut self.writers);
        self.runtime.block_on(async move {
            let mut out = Vec::with_capacity(actor_handles.len());
            for h in actor_handles {
                if let Ok(a) = h.await {
                    out.push(a);
                }
            }
            for h in reader_handles {
                let _ = h.await;
            }
            for h in writer_handles {
                let _ = h.await;
            }
            out
        })
    }
}

impl<A: Actor> Drop for ClusterHost<A> {
    /// Dropping a host without `shutdown` must not leak its tasks: a task
    /// parked on the reactor or a timer would otherwise keep its node's
    /// socket bound after the runtime is gone.
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

/// Reader task: socket → decode → bounded inbox (shed on full).
async fn reader_task<A: Actor>(
    sock: Arc<tokio::net::UdpSocket>,
    inbox: mpsc::Sender<Control<A>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    sources: Arc<HashMap<SocketAddr, NodeAddr>>,
) {
    let mut buf = vec![0u8; codec::MAX_FRAME];
    loop {
        match tokio::time::timeout(SOCKET_POLL, sock.recv_from(&mut buf)).await {
            Err(_) => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Ok(Ok((len, peer))) => {
                let ctl = match codec::decode(&buf[..len]) {
                    Ok(msg) => {
                        counters.received.fetch_add(1, Ordering::Relaxed);
                        // `from` is carried inside the message where
                        // needed; the transport-level from is the logical
                        // unknown here, pass a sentinel.
                        Control::Input(Input::Message {
                            from: NodeAddr(u64::MAX),
                            msg,
                        })
                    }
                    Err(error) => {
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        counters.decode_errors_by_kind[error.kind_index()]
                            .fetch_add(1, Ordering::Relaxed);
                        Control::Input(Input::BadFrame {
                            from: sources.get(&peer).copied(),
                            error,
                        })
                    }
                };
                match inbox.try_send(ctl) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        counters.shed_rx.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Closed(_)) => break,
                }
            }
            Ok(Err(_)) => {
                counters.socket_recv_errors.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
}

/// Writer task: bounded outbox → socket. Exits when the actor task drops
/// its sender, after flushing everything already queued.
async fn writer_task(
    sock: Arc<tokio::net::UdpSocket>,
    mut outbox: mpsc::Receiver<(Vec<u8>, SocketAddr)>,
    counters: Arc<Counters>,
) {
    while let Some((frame, peer)) = outbox.recv().await {
        match sock.send_to(&frame, peer).await {
            Ok(_) => {
                counters.sent.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                counters.socket_send_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Actor task: drives the state machine from its inbox and a private
/// timer heap. `SetTimer` outputs never leave the task, so a timer can
/// never race ahead of the input that scheduled it.
#[allow(clippy::too_many_arguments)]
async fn actor_task<A: Actor>(
    mut actor: A,
    addr: NodeAddr,
    mut inbox: mpsc::Receiver<Control<A>>,
    outbox: mpsc::Sender<(Vec<u8>, SocketAddr)>,
    book: Arc<HashMap<NodeAddr, SocketAddr>>,
    upcalls: Arc<Mutex<Vec<(NodeAddr, Upcall)>>>,
    counters: Arc<Counters>,
    epoch: Instant,
    granularity: Duration,
) -> A {
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    let mut seq = 0u64;
    let process = |actor: &mut A,
                   input: Option<Control<A>>,
                   timers: &mut BinaryHeap<TimerEntry>,
                   seq: &mut u64|
     -> bool {
        actor.set_now(epoch.elapsed().as_millis() as u64);
        let outs = match input {
            Some(Control::Input(input)) => actor.on_input(input),
            Some(Control::With(f)) => f(actor),
            Some(Control::Stop) => return false,
            None => return false,
        };
        for o in outs {
            match o {
                Output::Send { to, msg } => {
                    if let Some(peer) = book.get(&to.addr) {
                        let frame = codec::encode(&msg);
                        match outbox.try_send((frame, *peer)) {
                            Ok(()) => {}
                            Err(TrySendError::Full(_)) => {
                                counters.shed_tx.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(TrySendError::Closed(_)) => {}
                        }
                    }
                }
                Output::SetTimer { kind, delay_ms } => {
                    timers.push(TimerEntry {
                        deadline: Instant::now() + Duration::from_millis(delay_ms),
                        seq: *seq,
                        kind,
                    });
                    *seq += 1;
                }
                Output::Upcall(u) => upcalls.lock().push((addr, u)),
            }
        }
        true
    };

    loop {
        // Fire everything due, then sleep until the next deadline (capped
        // by the granularity so clock skew cannot starve the heap).
        let now = Instant::now();
        while timers.peek().is_some_and(|t| t.deadline <= now) {
            if let Some(t) = timers.pop() {
                process(
                    &mut actor,
                    Some(Control::Input(Input::Timer(t.kind))),
                    &mut timers,
                    &mut seq,
                );
            }
        }
        let wait = timers
            .peek()
            .map(|t| t.deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(granularity)
            .min(granularity);
        match tokio::time::timeout(wait, inbox.recv()).await {
            Ok(ctl @ Some(_)) => {
                if !process(&mut actor, ctl, &mut timers, &mut seq) {
                    break;
                }
            }
            Ok(None) => break,
            Err(_) => {}
        }
    }
    actor
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use dat_chord::{ChordConfig, ChordNode, Id, IdSpace, NodeRef};

    fn fast_cfg() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(32),
            stabilize_ms: 50,
            fix_fingers_ms: 30,
            check_pred_ms: 100,
            req_timeout_ms: 400,
            ..ChordConfig::default()
        }
    }

    #[test]
    fn two_nodes_join_over_tokio_udp() {
        let a = ChordNode::new(fast_cfg(), Id(1_000), NodeAddr(0));
        let b = ChordNode::new(fast_cfg(), Id(2_000_000), NodeAddr(1));
        let cluster = ClusterHost::launch(vec![a, b]).unwrap();
        let bootstrap = cluster
            .call(NodeAddr(0), |n| (n.me(), n.start_create()))
            .unwrap();
        cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ok = false;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            let succ_a = cluster
                .call(NodeAddr(0), |n| {
                    (n.table().successor().map(|s| s.id), vec![])
                })
                .unwrap();
            let succ_b = cluster
                .call(NodeAddr(1), |n| {
                    (n.table().successor().map(|s| s.id), vec![])
                })
                .unwrap();
            if succ_a == Some(Id(2_000_000)) && succ_b == Some(Id(1_000)) {
                ok = true;
                break;
            }
        }
        let stats = cluster.stats();
        let actors = cluster.shutdown();
        assert!(ok, "ring did not converge over tokio UDP");
        assert_eq!(actors.len(), 2);
        assert!(stats.sent > 0 && stats.received > 0);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.shed_rx, 0);
    }

    #[test]
    fn join_succeeds_only_with_datagram_retransmission() {
        // The bootstrap activates ~250 ms late: the joiner's first
        // FindSuccessor lands while it is still `Created` and is
        // protocol-dropped. With a single protocol-level join attempt
        // (max_join_retries: 1), only RTO-driven datagram retransmission
        // can complete the join — the no-retry config must surface
        // JoinFailed instead.
        let run = |max_retries: u32| {
            let cfg = ChordConfig {
                max_retries,
                max_join_retries: 1,
                ..fast_cfg()
            };
            let a = ChordNode::new(cfg, Id(1_000), NodeAddr(0));
            let b = ChordNode::new(cfg, Id(2_000_000), NodeAddr(1));
            let cluster = ClusterHost::launch(vec![a, b]).unwrap();
            let bootstrap = NodeRef::new(Id(1_000), NodeAddr(0));
            cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));
            std::thread::sleep(Duration::from_millis(250));
            cluster.cast(NodeAddr(0), |n| n.start_create());
            let deadline = Instant::now() + Duration::from_secs(8);
            let (mut joined, mut failed) = (false, false);
            while Instant::now() < deadline && !joined && !failed {
                std::thread::sleep(Duration::from_millis(50));
                for (addr, u) in cluster.drain_upcalls() {
                    if addr == NodeAddr(1) {
                        match u {
                            Upcall::Joined { .. } => joined = true,
                            Upcall::JoinFailed => failed = true,
                            _ => {}
                        }
                    }
                }
            }
            cluster.shutdown();
            (joined, failed)
        };
        let (joined, _) = run(2);
        assert!(
            joined,
            "retransmission should recover the dropped join request"
        );
        let (joined, failed) = run(0);
        assert!(
            !joined && failed,
            "single-shot join through a sleeping bootstrap must fail (joined={joined}, failed={failed})"
        );
    }

    #[test]
    fn drop_without_shutdown_releases_every_socket() {
        let a = ChordNode::new(fast_cfg(), Id(1_000), NodeAddr(0));
        let b = ChordNode::new(fast_cfg(), Id(2_000_000), NodeAddr(1));
        let cluster = ClusterHost::launch(vec![a, b]).unwrap();
        cluster.cast(NodeAddr(0), |n| n.start_create());
        std::thread::sleep(Duration::from_millis(100));
        let addrs: Vec<SocketAddr> = (0..2)
            .map(|i| cluster.socket_addr(NodeAddr(i)).unwrap())
            .collect();
        drop(cluster);
        // Every reader, actor and writer task holds its node's socket;
        // only a teardown that ends them all frees the addresses.
        for addr in addrs {
            if let Err(e) = std::net::UdpSocket::bind(addr) {
                panic!("Drop must release node socket {addr}: {e}");
            }
        }
    }

    #[test]
    fn upcalls_and_registry_vocabulary() {
        let a = ChordNode::new(fast_cfg(), Id(5), NodeAddr(0));
        let cluster = ClusterHost::launch(vec![a]).unwrap();
        cluster.cast(NodeAddr(0), |n| n.start_create());
        std::thread::sleep(Duration::from_millis(200));
        let ups = cluster.drain_upcalls();
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::Joined { id } if *id == Id(5))));
        let reg = cluster.transport_registry();
        // Zero-initialized vocabulary: every series exists up front.
        assert_eq!(reg.counter_sum("engine_shed_total"), 0);
        assert_eq!(reg.counter_sum("transport_socket_errors_total"), 0);
        assert_eq!(reg.counter_sum("transport_decode_errors_total"), 0);
        let text = reg.render_prometheus();
        dat_obs::validate_prometheus(&text).expect("valid exposition");
        assert!(text.contains("transport=\"tokio\""));
        cluster.shutdown();
    }

    /// A minimal actor that records every `BadFrame` it is handed.
    struct Recorder {
        addr: NodeAddr,
        bad: Vec<(Option<NodeAddr>, &'static str)>,
        messages: u64,
    }

    impl Actor for Recorder {
        fn addr(&self) -> NodeAddr {
            self.addr
        }
        fn on_input(&mut self, input: Input) -> Vec<Output> {
            match input {
                Input::BadFrame { from, error } => self.bad.push((from, error.kind_label())),
                Input::Message { .. } => self.messages += 1,
                _ => {}
            }
            vec![]
        }
    }

    #[test]
    fn damaged_datagrams_are_classified_attributed_and_forwarded() {
        let recorder = |i: u64| Recorder {
            addr: NodeAddr(i),
            bad: Vec::new(),
            messages: 0,
        };
        let cluster = ClusterHost::launch(vec![recorder(0), recorder(1)]).unwrap();
        let valid = codec::encode(&dat_chord::ChordMsg::Ping {
            req: 7,
            sender: NodeRef::new(Id(42), NodeAddr(1)),
        });
        cluster.send_raw(NodeAddr(1), NodeAddr(0), &valid).unwrap();
        cluster
            .send_raw(NodeAddr(1), NodeAddr(0), &valid[..1])
            .unwrap(); // truncated
        cluster
            .send_raw(NodeAddr(1), NodeAddr(0), b"not a chord frame")
            .unwrap(); // bad_magic
        let outsider = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let target = cluster.socket_addr(NodeAddr(0)).unwrap();
        outsider.send_to(b"zzzz", target).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = Vec::new();
        let mut messages = 0;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            let (bad, msgs) = cluster
                .call(NodeAddr(0), |a| ((a.bad.clone(), a.messages), vec![]))
                .unwrap();
            if bad.len() >= 3 && msgs >= 1 {
                seen = bad;
                messages = msgs;
                break;
            }
        }
        let stats = cluster.stats();
        cluster.shutdown();

        assert_eq!(messages, 1, "the intact frame should decode and deliver");
        assert_eq!(seen.len(), 3, "all three damaged frames should forward");
        assert!(seen
            .iter()
            .any(|(f, k)| *f == Some(NodeAddr(1)) && *k == "truncated"));
        assert!(seen
            .iter()
            .any(|(f, k)| *f == Some(NodeAddr(1)) && *k == "bad_magic"));
        assert!(
            seen.iter().any(|(f, k)| f.is_none() && *k == "bad_magic"),
            "the outsider's frame should arrive unattributed"
        );
        assert_eq!(stats.received, 1);
        assert_eq!(stats.decode_errors, 3);
    }

    #[test]
    #[should_panic(expected = "must use NodeAddr")]
    fn launch_validates_addresses() {
        let a = ChordNode::new(fast_cfg(), Id(5), NodeAddr(7));
        let _ = ClusterHost::launch(vec![a]);
    }

    #[test]
    fn full_inbox_sheds_and_counts() {
        // A one-slot inbox with an actor wedged on a long blocking call:
        // floods must shed (bounded memory), and every shed is counted.
        let cfg = HostConfig {
            inbox_capacity: 1,
            ..HostConfig::default()
        };
        let cluster =
            ClusterHost::launch_with(vec![ChordNode::new(fast_cfg(), Id(5), NodeAddr(0))], cfg)
                .unwrap();
        // Wedge the actor task so nothing drains the inbox.
        cluster.cast(NodeAddr(0), |_| {
            std::thread::sleep(Duration::from_millis(600));
            vec![]
        });
        std::thread::sleep(Duration::from_millis(100));
        let valid = codec::encode(&dat_chord::ChordMsg::Ping {
            req: 1,
            sender: NodeRef::new(Id(9), NodeAddr(0)),
        });
        let sender = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let target = cluster.socket_addr(NodeAddr(0)).unwrap();
        for _ in 0..50 {
            sender.send_to(&valid, target).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut shed = 0;
        while Instant::now() < deadline {
            shed = cluster.stats().shed_rx;
            if shed > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(shed > 0, "flooding a wedged one-slot inbox must shed");
        let reg = cluster.transport_registry();
        assert!(reg.counter_with("engine_shed_total", "transport_rx") >= shed);
        cluster.shutdown();
    }
}
