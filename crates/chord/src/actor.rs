//! The single transport-facing actor interface.
//!
//! Both drivers — the deterministic simulator (`dat-sim`) and the real-UDP
//! host (`dat-cluster`) — host protocol state machines through this one
//! trait. An actor is addressed, consumes [`Input`]s and emits [`Output`]s,
//! and has its clock advanced by the driver before every delivery. The one
//! implementation in the workspace is `dat-core`'s `StackNode`, the
//! protocol-stack engine that multiplexes any number of application
//! protocols over a single Chord substrate; transports never need to know
//! which protocols a node hosts.

use crate::finger::NodeAddr;
use crate::msg::{Input, Output};

/// A hosted protocol endpoint, as seen by a transport.
///
/// `Send + 'static` so the same object can be moved onto the UDP host's
/// per-node actor task; the simulator needs neither bound but accepts
/// them for the sake of one shared vocabulary.
pub trait Actor: Send + 'static {
    /// The transport address this actor must be reachable at.
    fn addr(&self) -> NodeAddr;

    /// Feed one input (message delivery or timer expiry) and collect the
    /// resulting outputs.
    fn on_input(&mut self, input: Input) -> Vec<Output>;

    /// Advance the actor's monotonic clock. Drivers call this before every
    /// [`Actor::on_input`] so protocol code never observes a stale clock.
    fn set_now(&mut self, _now_ms: u64) {}
}

/// The bare substrate is itself hostable — a Chord overlay with no
/// application protocols on top.
impl Actor for crate::node::ChordNode {
    fn addr(&self) -> NodeAddr {
        self.me().addr
    }

    fn on_input(&mut self, input: Input) -> Vec<Output> {
        self.handle(input)
    }

    fn set_now(&mut self, now_ms: u64) {
        crate::node::ChordNode::set_now(self, now_ms);
    }
}
