//! In-memory spans for the traced run: workload → window/request →
//! `on_input`, each with its parent. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span (0 for the workload root).
    pub parent: u64,
    pub name: &'static str,
    /// Start, ns since the process-wide trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// On-demand query id the span belongs to, 0 when none.
    pub reqid: u64,
    /// Node the span ran on (`u64::MAX` for the benchmark's own spans).
    pub node: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// The benchmark span (window or workload) currently running; `on_input`
/// spans recorded inside the engine take it as their parent.
static CURRENT: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

pub fn current() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

pub fn set_current(id: u64) {
    CURRENT.store(id, Ordering::Relaxed);
}

/// Spans the benchmark records around its calls (workload, windows, requests).
#[derive(Default)]
pub struct Recorder {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            spans: Vec::new(),
        }
    }

    /// Open a span: returns its id and start time (both 0 when off).
    pub fn open(&self) -> (u64, u64) {
        if self.on {
            (next_id(), now_ns())
        } else {
            (0, 0)
        }
    }

    pub fn close(&mut self, (id, start): (u64, u64), parent: u64, name: &'static str, reqid: u64) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: start,
                dur_ns: now_ns().saturating_sub(start),
                reqid,
                node: u64::MAX,
            });
        }
    }
}

/// Re-parent query-tagged spans under the request span carrying the same
/// `reqid`, then write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &mut [Span]) -> std::io::Result<()> {
    use std::collections::HashMap;
    use std::io::Write;
    let requests: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "request" && s.reqid != 0)
        .map(|s| (s.reqid, s.id))
        .collect();
    for s in spans.iter_mut() {
        if s.name != "request" && s.reqid != 0 {
            if let Some(&p) = requests.get(&s.reqid) {
                s.parent = p;
            }
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"reqid\":{},\"node\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.dur_ns,
            s.reqid,
            if s.node == u64::MAX { -1 } else { s.node as i64 }
        )?;
    }
    f.flush()
}
