//! Phi-accrual failure detection with flap damping — the health plane.
//!
//! The RTO machinery ([`crate::node::ChordNode`]) reacts to *silence*: a
//! request times out, retries, and eventually evicts the peer. That is the
//! right tool for clean crashes, but it cannot tell a dead peer from a slow
//! one, and it reacts only after the full retry budget burns down. The
//! [`HealthDetector`] closes that gap with the phi-accrual estimator of
//! Hayashibara et al.: every ack/reply a peer sends is a heartbeat, the
//! detector learns the peer's natural cadence (mean + deviation of
//! inter-arrival times), and suspicion is the improbability of the current
//! silence under that history — `phi = -log10(P(silence this long))`.
//! Upper layers act on a *level* ([`SuspicionLevel`]), not a timeout: a
//! peer whose phi crosses the threshold turns [`SuspicionLevel::Suspect`]
//! *before* any request times out, which is what lets the DAT layer
//! re-parent proactively.
//!
//! Slow-but-alive peers oscillate: they fall silent, turn Suspect, then
//! ack and recover. Each Suspect→Healthy recovery is recorded; too many
//! recoveries inside the flap window and the peer is *quarantined* — held
//! at [`SuspicionLevel::Quarantined`] for a fixed period regardless of its
//! acks, so routing stops bouncing on and off it. A quarantined peer
//! rejoins (drops back to Healthy) only after the quarantine expires, with
//! its flap history cleared.
//!
//! The detector is sans-io and fully deterministic: it consumes only
//! `(peer, now_ms)` observations, never a clock or RNG of its own, so the
//! same input schedule yields the same suspicion trajectory on the
//! simulator and over UDP.
//!
//! Transitions are counted into the detector's own [`Registry`]
//! (`suspects_total`, `quarantines_total`, `rejoins_total`); hosts fold it
//! into their exposition with [`HealthDetector::export_into`].

#![deny(clippy::unwrap_used)]

use std::collections::{BTreeMap, VecDeque};

use dat_obs::{Key, Registry};

use crate::id::Id;

/// Transition counters, exported even before their first bump.
const COUNTERS: [&str; 3] = ["suspects_total", "quarantines_total", "rejoins_total"];

/// Tunables for the phi-accrual detector. Times are host milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Suspicion threshold: a peer turns [`SuspicionLevel::Suspect`] when
    /// its phi (improbability exponent of the current silence) reaches
    /// this. 8 ≈ "this silence had a 10⁻⁸ chance under the learned
    /// cadence".
    pub phi_threshold: f64,
    /// Sliding window of inter-arrival samples kept per peer.
    pub window: usize,
    /// Floor on the inter-arrival standard deviation (ms). Simulated
    /// heartbeats can be metronome-regular; without a floor the
    /// distribution collapses and one millisecond of jitter reads as
    /// certain death.
    pub min_std_ms: f64,
    /// Inter-arrival samples required before phi is trusted; below this
    /// the peer reads Healthy (phi 0).
    pub min_samples: usize,
    /// Sliding window (ms) over which Suspect→Healthy recoveries count as
    /// flapping.
    pub flap_window_ms: u64,
    /// Recoveries inside the flap window that trigger quarantine.
    pub flap_threshold: u32,
    /// How long a quarantined peer is held at
    /// [`SuspicionLevel::Quarantined`] before it may rejoin.
    pub quarantine_ms: u64,
    /// Silence (ms) after which a monitored peer is worth an adaptive
    /// keepalive ping (see [`HealthDetector::stalest`]).
    pub keepalive_after_ms: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            phi_threshold: 8.0,
            window: 32,
            min_std_ms: 100.0,
            min_samples: 3,
            flap_window_ms: 30_000,
            flap_threshold: 3,
            quarantine_ms: 30_000,
            keepalive_after_ms: 3_000,
        }
    }
}

/// Coarse per-peer suspicion state derived from phi + flap damping.
/// Ordered: `Healthy < Suspect < Quarantined`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SuspicionLevel {
    /// Phi below threshold (or not enough history to judge).
    Healthy,
    /// Phi crossed the threshold, or the last tracked exchange to this
    /// peer exhausted its retries.
    Suspect,
    /// The peer flapped Suspect↔Healthy too often and is held suspect for
    /// a fixed period regardless of its acks.
    Quarantined,
}

/// Per-peer detector state.
#[derive(Clone, Debug)]
struct PeerHealth {
    /// Sliding window of heartbeat inter-arrival times (ms).
    intervals: VecDeque<u64>,
    /// Host time of the last heartbeat.
    last_heard_ms: u64,
    level: SuspicionLevel,
    /// Timestamps of recent Suspect→Healthy recoveries (flap evidence).
    recoveries: VecDeque<u64>,
    /// When a quarantine ends (meaningful only while Quarantined).
    quarantined_until_ms: u64,
}

impl PeerHealth {
    fn new(now_ms: u64) -> Self {
        PeerHealth {
            intervals: VecDeque::new(),
            last_heard_ms: now_ms,
            level: SuspicionLevel::Healthy,
            recoveries: VecDeque::new(),
            quarantined_until_ms: 0,
        }
    }
}

/// The phi-accrual failure detector with flap damping.
#[derive(Clone, Debug, Default)]
pub struct HealthDetector {
    cfg: HealthConfig,
    /// `BTreeMap` so every iteration (keepalive target pick, exports) is
    /// deterministic.
    peers: BTreeMap<Id, PeerHealth>,
    /// Transition counters: Healthy→Suspect (`suspects_total`: phi
    /// crossings + final timeouts), Suspect→Quarantined
    /// (`quarantines_total`: flap damping trips) and Quarantined→Healthy
    /// after a served quarantine (`rejoins_total`).
    reg: Registry,
}

impl HealthDetector {
    /// A detector with the given tunables.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthDetector {
            cfg,
            ..HealthDetector::default()
        }
    }

    /// Mutable access to the transition counters (hosts reset them
    /// between measurement windows; per-peer state is kept).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }

    /// Fold the transition counters into a wider registry stamped with
    /// `layer`, every counter present even at zero.
    pub fn export_into(&self, out: &mut Registry, layer: &'static str) {
        out.merge_labeled(&self.reg, "layer", layer);
        for name in COUNTERS {
            out.counter_add(Key::new(name).label("layer", layer), 0);
        }
    }

    /// The tunables in effect.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Mutable access to the tunables (harnesses shorten quarantines).
    pub fn config_mut(&mut self) -> &mut HealthConfig {
        &mut self.cfg
    }

    /// Record a heartbeat: any ack, reply or message that proves `peer`
    /// was alive at `now_ms`.
    pub fn heartbeat(&mut self, peer: Id, now_ms: u64) {
        let window = self.cfg.window;
        let e = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerHealth::new(now_ms));
        if now_ms > e.last_heard_ms {
            // Only a Healthy peer's cadence is learned: the long silence
            // that ends a Suspect episode is exactly the anomaly the
            // detector exists to flag, and absorbing it would train the
            // detector to accept ever-worse degradation (and let flappers
            // walk the threshold out from under the flap damper).
            if e.level == SuspicionLevel::Healthy {
                e.intervals.push_back(now_ms - e.last_heard_ms);
                if e.intervals.len() > window {
                    e.intervals.pop_front();
                }
            }
            e.last_heard_ms = now_ms;
        }
        self.transition(peer, now_ms);
    }

    /// Record hard evidence of failure: a tracked exchange to `peer`
    /// exhausted its retries. Forces Suspect immediately (quarantine is
    /// never overridden downward).
    pub fn miss(&mut self, peer: Id, now_ms: u64) {
        let e = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerHealth::new(now_ms));
        if e.level == SuspicionLevel::Healthy {
            e.level = SuspicionLevel::Suspect;
            self.reg.counter_inc(Key::new("suspects_total"));
        }
    }

    /// Phi for `peer` at `now_ms`: `-log10` of the probability that a
    /// peer with this heartbeat history stays silent this long. 0.0 while
    /// the history is too short to judge.
    pub fn phi(&self, peer: Id, now_ms: u64) -> f64 {
        let Some(e) = self.peers.get(&peer) else {
            return 0.0;
        };
        if e.intervals.len() < self.cfg.min_samples {
            return 0.0;
        }
        let n = e.intervals.len() as f64;
        let mean = e.intervals.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = e
            .intervals
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let std = var.sqrt().max(self.cfg.min_std_ms);
        let t = now_ms.saturating_sub(e.last_heard_ms) as f64;
        // Logistic approximation of the normal tail (as used by Akka's
        // accrual detector): cheap, monotone, and good to a few percent.
        let y = (t - mean) / std;
        let ex = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if t > mean {
            ex / (1.0 + ex)
        } else {
            1.0 - 1.0 / (1.0 + ex)
        };
        -p_later.max(1e-30).log10()
    }

    /// Evaluate and return `peer`'s suspicion level at `now_ms`,
    /// advancing the Healthy↔Suspect↔Quarantined state machine (silence
    /// alone can raise suspicion, so evaluation mutates).
    pub fn level(&mut self, peer: Id, now_ms: u64) -> SuspicionLevel {
        if !self.peers.contains_key(&peer) {
            return SuspicionLevel::Healthy;
        }
        self.transition(peer, now_ms);
        self.peek(peer)
    }

    /// The last evaluated level, without re-evaluating (pure read — used
    /// for cross-transport snapshots).
    pub fn peek(&self, peer: Id) -> SuspicionLevel {
        self.peers
            .get(&peer)
            .map(|e| e.level)
            .unwrap_or(SuspicionLevel::Healthy)
    }

    /// Drop all state for `peer` (evicted / departed / replaced).
    pub fn forget(&mut self, peer: Id) {
        self.peers.remove(&peer);
    }

    /// Among `candidates`, the peer silent the longest — provided its
    /// silence exceeds `keepalive_after_ms` — as the target for one
    /// adaptive keepalive ping. A candidate with no history counts as
    /// silent since time zero (never heard), so fresh links get probed and
    /// a history started, without a ping storm at startup.
    pub fn stalest(&self, candidates: &[Id], now_ms: u64) -> Option<Id> {
        let mut best: Option<(u64, Id)> = None;
        for &c in candidates {
            let silence = match self.peers.get(&c) {
                Some(e) => now_ms.saturating_sub(e.last_heard_ms),
                None => now_ms,
            };
            if silence < self.cfg.keepalive_after_ms {
                continue;
            }
            if best.map(|(s, _)| silence > s).unwrap_or(true) {
                best = Some((silence, c));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Number of peers currently tracked.
    pub fn tracked(&self) -> usize {
        self.peers.len()
    }

    /// Iterate `(peer, level)` in deterministic (id) order.
    pub fn peers(&self) -> impl Iterator<Item = (Id, SuspicionLevel)> + '_ {
        self.peers.iter().map(|(id, e)| (*id, e.level))
    }

    /// Advance the state machine for one peer at `now_ms`.
    fn transition(&mut self, peer: Id, now_ms: u64) {
        let phi = self.phi(peer, now_ms);
        let threshold = self.cfg.phi_threshold;
        let (flap_window, flap_threshold, quarantine) = (
            self.cfg.flap_window_ms,
            self.cfg.flap_threshold,
            self.cfg.quarantine_ms,
        );
        let Some(e) = self.peers.get_mut(&peer) else {
            return;
        };
        match e.level {
            SuspicionLevel::Quarantined => {
                if now_ms >= e.quarantined_until_ms && phi < threshold {
                    // Quarantine served AND the peer is currently talking:
                    // it has stabilized, let it back in with a clean slate.
                    e.level = SuspicionLevel::Healthy;
                    e.recoveries.clear();
                    self.reg.counter_inc(Key::new("rejoins_total"));
                }
            }
            SuspicionLevel::Suspect => {
                if phi < threshold {
                    // Recovery. Count it as flap evidence; too many inside
                    // the window and the peer is quarantined instead.
                    e.recoveries.push_back(now_ms);
                    while e
                        .recoveries
                        .front()
                        .is_some_and(|&t| now_ms.saturating_sub(t) > flap_window)
                    {
                        e.recoveries.pop_front();
                    }
                    if e.recoveries.len() as u32 >= flap_threshold {
                        e.level = SuspicionLevel::Quarantined;
                        e.quarantined_until_ms = now_ms + quarantine;
                        e.recoveries.clear();
                        self.reg.counter_inc(Key::new("quarantines_total"));
                    } else {
                        e.level = SuspicionLevel::Healthy;
                    }
                }
            }
            SuspicionLevel::Healthy => {
                if phi >= threshold {
                    e.level = SuspicionLevel::Suspect;
                    self.reg.counter_inc(Key::new("suspects_total"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u64) -> Id {
        Id(x)
    }

    fn cfg() -> HealthConfig {
        HealthConfig {
            phi_threshold: 4.0,
            min_samples: 3,
            min_std_ms: 50.0,
            flap_window_ms: 20_000,
            flap_threshold: 3,
            quarantine_ms: 5_000,
            ..HealthConfig::default()
        }
    }

    /// Feed a regular cadence and return the detector + last timestamp.
    fn warmed(d: &mut HealthDetector, peer: Id, period: u64, beats: u64) -> u64 {
        let mut t = 0;
        for i in 1..=beats {
            t = i * period;
            d.heartbeat(peer, t);
        }
        t
    }

    #[test]
    fn regular_heartbeats_stay_healthy() {
        let mut d = HealthDetector::new(cfg());
        let t = warmed(&mut d, id(7), 500, 20);
        assert_eq!(d.level(id(7), t + 600), SuspicionLevel::Healthy);
        assert!(d.phi(id(7), t + 600) < 4.0);
        assert_eq!(d.reg.counter_sum("suspects_total"), 0);
    }

    #[test]
    fn unknown_peer_is_healthy_with_zero_phi() {
        let mut d = HealthDetector::new(cfg());
        assert_eq!(d.level(id(1), 10_000), SuspicionLevel::Healthy);
        assert_eq!(d.phi(id(1), 10_000), 0.0);
    }

    #[test]
    fn silence_raises_phi_until_suspect() {
        let mut d = HealthDetector::new(cfg());
        let t = warmed(&mut d, id(7), 500, 20);
        // Growing silence: phi grows monotonically past the bar (sampled
        // close to the mean so the 10⁻³⁰ probability floor is not hit).
        let p1 = d.phi(id(7), t + 550);
        let p2 = d.phi(id(7), t + 650);
        let p3 = d.phi(id(7), t + 900);
        assert!(p1 < p2 && p2 < p3, "phi not monotone: {p1} {p2} {p3}");
        assert_eq!(d.level(id(7), t + 4_000), SuspicionLevel::Suspect);
        assert_eq!(d.reg.counter_sum("suspects_total"), 1);
        // An ack recovers it.
        d.heartbeat(id(7), t + 4_100);
        assert_eq!(d.peek(id(7)), SuspicionLevel::Healthy);
    }

    #[test]
    fn miss_forces_suspect_without_history() {
        let mut d = HealthDetector::new(cfg());
        d.miss(id(9), 1_000);
        assert_eq!(d.peek(id(9)), SuspicionLevel::Suspect);
        assert_eq!(d.reg.counter_sum("suspects_total"), 1);
    }

    #[test]
    fn flapping_peer_is_quarantined_then_rejoins() {
        let mut d = HealthDetector::new(cfg());
        let mut t = warmed(&mut d, id(3), 500, 20);
        // Three suspect/recover cycles inside the flap window.
        for flap in 0..3 {
            t += 4_000; // long silence → Suspect
            assert_eq!(
                d.level(id(3), t),
                SuspicionLevel::Suspect,
                "flap {flap} did not suspect"
            );
            t += 100;
            d.heartbeat(id(3), t); // recovery
        }
        assert_eq!(d.peek(id(3)), SuspicionLevel::Quarantined);
        assert_eq!(d.reg.counter_sum("quarantines_total"), 1);
        // Acks during quarantine do not lift it.
        t += 1_000;
        d.heartbeat(id(3), t);
        assert_eq!(d.peek(id(3)), SuspicionLevel::Quarantined);
        // After it expires AND the peer is talking again, it rejoins.
        t += 6_000;
        d.heartbeat(id(3), t);
        d.heartbeat(id(3), t + 500);
        d.heartbeat(id(3), t + 1_000);
        assert_eq!(d.level(id(3), t + 1_200), SuspicionLevel::Healthy);
        assert_eq!(d.reg.counter_sum("rejoins_total"), 1);
    }

    #[test]
    fn stalest_prefers_longest_silence_and_unknowns() {
        let mut d = HealthDetector::new(cfg());
        d.heartbeat(id(1), 1_000);
        d.heartbeat(id(2), 5_000);
        // Both known peers are past the keepalive bar at t=10s; id(1) is
        // staler. An unknown candidate beats both.
        assert_eq!(d.stalest(&[id(1), id(2)], 10_000), Some(id(1)));
        assert_eq!(d.stalest(&[id(1), id(2), id(4)], 10_000), Some(id(4)));
        // Fresh peers are not pinged.
        d.heartbeat(id(1), 9_500);
        d.heartbeat(id(2), 9_600);
        assert_eq!(d.stalest(&[id(1), id(2)], 10_000), None);
    }

    #[test]
    fn forget_drops_state() {
        let mut d = HealthDetector::new(cfg());
        d.miss(id(5), 100);
        d.forget(id(5));
        assert_eq!(d.peek(id(5)), SuspicionLevel::Healthy);
        assert_eq!(d.tracked(), 0);
    }

    #[test]
    fn determinism_same_schedule_same_trajectory() {
        let run = || {
            let mut d = HealthDetector::new(cfg());
            let mut levels = Vec::new();
            let t = warmed(&mut d, id(8), 400, 16);
            for step in 0..40u64 {
                let now = t + step * 300;
                if step % 7 == 0 {
                    d.heartbeat(id(8), now);
                }
                levels.push(d.level(id(8), now));
            }
            (
                levels,
                d.reg.counter_sum("suspects_total"),
                d.reg.counter_sum("quarantines_total"),
                d.reg.counter_sum("rejoins_total"),
            )
        };
        assert_eq!(run(), run());
    }
}
