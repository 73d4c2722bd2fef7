//! The benchmark's wrapper actor. It hosts one `StackNode`, forwards
//! every input to `Actor::on_input`, counts inputs and sends by class,
//! and surfaces DAT/MAAN events the moment they are produced, stamped
//! with the node's clock. That replaces sleep-polling `take_events`,
//! which quantizes latency to the polling period.
//!
//! With timing on (the traced run) it also times each `on_input` call,
//! round-trips every delivered message through `dat_chord::codec`, and
//! keeps sampled `on_input` spans.

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::time::Instant;

use dat_chord::{codec, Actor, ChordMsg, Id, Input, NodeAddr, Output};
use dat_core::{DatEvent, DatMsg, StackNode, DAT_PROTO};
use dat_maan::{MaanEvent, MaanStack, MAAN_PROTO};

use crate::trace::{self, Span};

/// Input and send classes: a timer, a Chord control message, a DAT
/// continuous-aggregation message, a DAT on-demand query message, a MAAN
/// message, anything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Timer = 0,
    Chord = 1,
    DatPush = 2,
    DatQuery = 3,
    Maan = 4,
    Other = 5,
}

pub const CLASSES: usize = 6;

/// Keep one `on_input` span in this many (plus every span of a query
/// whose id is a multiple of [`QUERY_SAMPLE`]).
const SPAN_SAMPLE: u64 = 64;
const QUERY_SAMPLE: u64 = 32;

/// Class of a wire message, from `ChordMsg::kind`'s variant, the app
/// proto byte and, for DAT, the message tag.
pub fn classify(msg: &ChordMsg) -> Class {
    match msg {
        ChordMsg::App { proto, payload, .. } => app_class(*proto, payload.as_slice()),
        ChordMsg::Route { payload, .. } => match payload.as_slice().split_first() {
            Some((&proto, rest)) => app_class(proto, rest),
            None => Class::Other,
        },
        m if m.is_maintenance() => Class::Chord,
        _ => Class::Other,
    }
}

/// DAT payloads are `[wire version, tag, ...]`; tags 2..=5 are the
/// on-demand query messages (Query, Response, Result, Request).
fn app_class(proto: u8, body: &[u8]) -> Class {
    match proto {
        DAT_PROTO => match body.get(1) {
            Some(2..=5) => Class::DatQuery,
            _ => Class::DatPush,
        },
        MAAN_PROTO => Class::Maan,
        _ => Class::Other,
    }
}

/// The on-demand query id a DAT message names, 0 if none.
fn dat_reqid(msg: &ChordMsg) -> u64 {
    let body = match msg {
        ChordMsg::App { proto, payload, .. } if *proto == DAT_PROTO => payload.as_slice(),
        ChordMsg::Route { payload, .. } => match payload.as_slice().split_first() {
            Some((&DAT_PROTO, rest)) => rest,
            _ => return 0,
        },
        _ => return 0,
    };
    match DatMsg::decode(body) {
        Ok(DatMsg::Query { reqid, .. })
        | Ok(DatMsg::Response { reqid, .. })
        | Ok(DatMsg::Result { reqid, .. })
        | Ok(DatMsg::Request { reqid, .. }) => reqid,
        _ => 0,
    }
}

/// Something a node produced that the benchmark waits for.
#[derive(Clone, Debug)]
pub enum Surfaced {
    /// A root report of a continuous aggregation.
    Report {
        node: NodeAddr,
        key: Id,
        sum: f64,
        contributors: u64,
        vms: u64,
        at: Instant,
    },
    /// A DAT on-demand answer for the request the benchmark tagged `token`.
    Answer {
        token: u64,
        reqid: u64,
        contributors: u64,
        vms: u64,
        at: Instant,
    },
    /// A MAAN range-query answer for request `token`.
    Maan {
        token: u64,
        hits: Vec<String>,
        at: Instant,
    },
    /// A benchmark closure (value change) ran on a node.
    Applied { token: u64, at: Instant },
}

/// Per-node counters. `*_ns` fields fill only with timing on.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    pub inputs: [u64; CLASSES],
    pub input_ns: [u64; CLASSES],
    pub sent: [u64; CLASSES],
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub codec_bytes: u64,
    pub codec_msgs: u64,
    /// Hops of routed messages and lookups, counted where they end.
    pub route_hops: u64,
    pub routes: u64,
}

impl NodeStats {
    /// DAT messages sent plus received: the node's aggregation load.
    pub fn dat_load(&self) -> u64 {
        let (p, q) = (Class::DatPush as usize, Class::DatQuery as usize);
        self.sent[p] + self.sent[q] + self.inputs[p] + self.inputs[q]
    }

    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Sends that are not on-demand query traffic.
    pub fn sent_background(&self) -> u64 {
        self.sent_total() - self.sent[Class::DatQuery as usize] - self.sent[Class::Maan as usize]
    }

    pub fn add(&mut self, o: &NodeStats) {
        for i in 0..CLASSES {
            self.inputs[i] += o.inputs[i];
            self.input_ns[i] += o.input_ns[i];
            self.sent[i] += o.sent[i];
        }
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.codec_bytes += o.codec_bytes;
        self.codec_msgs += o.codec_msgs;
        self.route_hops += o.route_hops;
        self.routes += o.routes;
    }

    /// `self - o`, field by field (saturating).
    pub fn minus(&self, o: &NodeStats) -> NodeStats {
        let mut d = self.clone();
        for i in 0..CLASSES {
            d.inputs[i] = d.inputs[i].saturating_sub(o.inputs[i]);
            d.input_ns[i] = d.input_ns[i].saturating_sub(o.input_ns[i]);
            d.sent[i] = d.sent[i].saturating_sub(o.sent[i]);
        }
        d.encode_ns = d.encode_ns.saturating_sub(o.encode_ns);
        d.decode_ns = d.decode_ns.saturating_sub(o.decode_ns);
        d.codec_bytes = d.codec_bytes.saturating_sub(o.codec_bytes);
        d.codec_msgs = d.codec_msgs.saturating_sub(o.codec_msgs);
        d.route_hops = d.route_hops.saturating_sub(o.route_hops);
        d.routes = d.routes.saturating_sub(o.routes);
        d
    }

    pub fn input_ns_total(&self) -> u64 {
        self.input_ns.iter().sum()
    }
}

/// A `StackNode` plus the benchmark's instrumentation.
pub struct Probe {
    pub node: StackNode,
    pub stats: NodeStats,
    pub spans: Vec<Span>,
    sink: Option<Sender<Surfaced>>,
    timing: bool,
    has_maan: bool,
    now_ms: u64,
    seen: u64,
    dat_tokens: HashMap<u64, u64>,
    maan_tokens: HashMap<u64, u64>,
}

impl Probe {
    pub fn new(node: StackNode, sink: Option<Sender<Surfaced>>, timing: bool) -> Self {
        Probe {
            has_maan: node.hosts(MAAN_PROTO),
            node,
            stats: NodeStats::default(),
            spans: Vec::new(),
            sink,
            timing,
            now_ms: 0,
            seen: 0,
            dat_tokens: HashMap::new(),
            maan_tokens: HashMap::new(),
        }
    }

    fn emit(&self, s: Surfaced) {
        if let Some(tx) = &self.sink {
            let _ = tx.send(s);
        }
    }

    /// Forward DAT and MAAN events produced since the last call.
    pub fn surface(&mut self) {
        for ev in self.node.take_events() {
            match ev {
                DatEvent::Report { key, partial, .. } => self.emit(Surfaced::Report {
                    node: self.node.me().addr,
                    key,
                    sum: partial.sum,
                    contributors: partial.contributors,
                    vms: self.now_ms,
                    at: Instant::now(),
                }),
                DatEvent::QueryDone { reqid, partial, .. } => {
                    if let Some(token) = self.dat_tokens.remove(&reqid) {
                        self.emit(Surfaced::Answer {
                            token,
                            reqid,
                            contributors: partial.contributors,
                            vms: self.now_ms,
                            at: Instant::now(),
                        });
                    }
                }
            }
        }
        if self.has_maan {
            for MaanEvent::QueryDone { qid, hits } in self.node.take_maan_events() {
                if let Some(token) = self.maan_tokens.remove(&qid) {
                    let mut hits: Vec<String> = hits.into_iter().map(|r| r.uri).collect();
                    hits.sort();
                    self.emit(Surfaced::Maan {
                        token,
                        hits,
                        at: Instant::now(),
                    });
                }
            }
        }
    }

    /// Issue an on-demand DAT aggregate of `key`; the answer surfaces as
    /// [`Surfaced::Answer`] carrying `token`.
    pub fn query(&mut self, key: Id, token: u64) -> Vec<Output> {
        let (reqid, outs) = self.node.query(key);
        self.dat_tokens.insert(reqid, token);
        self.surface();
        outs
    }

    /// Issue a MAAN `cpu-speed ∈ [lo, hi]` range query.
    pub fn maan_query(&mut self, lo: f64, hi: f64, token: u64) -> Vec<Output> {
        let (qid, outs) = self.node.maan_range_query("cpu-speed", lo, hi);
        self.maan_tokens.insert(qid, token);
        self.surface();
        outs
    }

    /// Change this node's local value of `key` and confirm with `token`.
    pub fn set_value(&mut self, key: Id, value: f64, token: u64) {
        self.node.set_local(key, value);
        self.emit(Surfaced::Applied {
            token,
            at: Instant::now(),
        });
    }

    fn timed_input(&mut self, class: Class, input: Input) -> Vec<Output> {
        if let Input::Message { msg, .. } = &input {
            let t0 = Instant::now();
            let bytes = codec::encode(msg);
            let t1 = Instant::now();
            let ok = codec::decode(&bytes).is_ok();
            let t2 = Instant::now();
            if ok {
                self.stats.encode_ns += (t1 - t0).as_nanos() as u64;
                self.stats.decode_ns += (t2 - t1).as_nanos() as u64;
                self.stats.codec_bytes += bytes.len() as u64;
                self.stats.codec_msgs += 1;
            }
        }
        let reqid = match (&input, class) {
            (Input::Message { msg, .. }, Class::DatQuery) => dat_reqid(msg),
            _ => 0,
        };
        let start = trace::now_ns();
        let t0 = Instant::now();
        let out = self.node.on_input(input);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.input_ns[class as usize] += ns;
        self.seen += 1;
        let sampled = if reqid != 0 {
            reqid.is_multiple_of(QUERY_SAMPLE)
        } else {
            self.seen.is_multiple_of(SPAN_SAMPLE)
        };
        if sampled {
            self.spans.push(Span {
                id: trace::next_id(),
                parent: trace::current(),
                name: "on_input",
                start_ns: start,
                dur_ns: ns,
                reqid,
                node: self.node.me().addr.0,
            });
        }
        out
    }
}

impl Actor for Probe {
    fn addr(&self) -> NodeAddr {
        self.node.me().addr
    }

    fn set_now(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
        self.node.set_now(now_ms);
    }

    fn on_input(&mut self, input: Input) -> Vec<Output> {
        let class = match &input {
            Input::Timer(_) => Class::Timer,
            Input::Message { msg, .. } => {
                match msg {
                    ChordMsg::Route { key, hops, .. } if self.node.owns(*key) => {
                        self.stats.route_hops += u64::from(*hops);
                        self.stats.routes += 1;
                    }
                    ChordMsg::FoundSuccessor { hops, .. } => {
                        self.stats.route_hops += u64::from(*hops);
                        self.stats.routes += 1;
                    }
                    _ => {}
                }
                classify(msg)
            }
            Input::BadFrame { .. } => Class::Other,
        };
        self.stats.inputs[class as usize] += 1;
        let out = if self.timing {
            self.timed_input(class, input)
        } else {
            self.node.on_input(input)
        };
        for o in &out {
            if let Output::Send { msg, .. } = o {
                self.stats.sent[classify(msg) as usize] += 1;
            }
        }
        self.surface();
        out
    }
}
