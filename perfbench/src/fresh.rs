//! Freshness probes: which leaf value changes a root report includes.
//!
//! Every probe raises one leaf's value of a key by a distinct power of
//! two, `2^(base + 2j)` for slot `j`, above the range the ordinary sensor
//! values of the key can reach (`2^base`). A report's sum then shows bit `2j` set once
//! the raise reached the root; the time from the raise to the first such
//! report is one freshness sample. The confirmed raise is then lowered
//! again, and the slot is reused after two reports show the bit clear.
//! Odd bits stay clear unless a value is counted twice, so they double
//! as a double-count detector.

use dat_chord::NodeAddr;

/// Probe bits stay below this, so even a four-fold double count of
/// every raised slot stays exact in an `f64` (53-bit mantissa).
const TOP_BIT: u32 = 50;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    Free,
    /// Raised on `leaf`; `at` is when the change was applied (ms), unknown
    /// until a real node confirms it ran.
    Raised {
        leaf: NodeAddr,
        at: Option<f64>,
    },
    /// Confirmed and lowered again; waiting for `clear` clean reports.
    Lowering {
        clear: u32,
    },
}

/// A change the benchmark must apply to a leaf: add `delta` to its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Change {
    pub leaf: NodeAddr,
    pub slot: usize,
    pub delta: f64,
}

/// Probe bookkeeping for one key.
#[derive(Clone, Debug)]
pub struct ProbeKey {
    /// Ordinary values of the key sum to less than `2^base`.
    base: u32,
    slots: Vec<Slot>,
    /// Freshness samples, ms from change to the first report including it.
    pub samples: Vec<f64>,
    /// Raises attempted.
    pub raised: u64,
    /// Probes skipped because every slot was busy.
    pub skipped: u64,
    /// Reports whose probe bits contradicted the slot states.
    pub anomalies: u64,
}

impl ProbeKey {
    /// Probes for a key whose ordinary values sum below `2^base`.
    pub fn new(base: u32) -> Self {
        let slots = (TOP_BIT.saturating_sub(base) / 2) as usize;
        ProbeKey {
            base,
            slots: vec![Slot::Free; slots],
            samples: Vec::new(),
            raised: 0,
            skipped: 0,
            anomalies: 0,
        }
    }

    /// Claim a free slot for a raise on `leaf` (lowest free slot first,
    /// so the choice is deterministic). `None` when all are busy.
    pub fn raise(&mut self, leaf: NodeAddr) -> Option<Change> {
        let Some(slot) = self.slots.iter().position(|s| *s == Slot::Free) else {
            self.skipped += 1;
            return None;
        };
        self.slots[slot] = Slot::Raised { leaf, at: None };
        self.raised += 1;
        Some(Change {
            leaf,
            slot,
            delta: self.delta(slot),
        })
    }

    pub fn delta(&self, slot: usize) -> f64 {
        (1u64 << (self.base as usize + 2 * slot)) as f64
    }

    /// The raise in `slot` was applied at `at` ms.
    pub fn applied(&mut self, slot: usize, at: f64) {
        if let Some(Slot::Raised { at: a, .. }) = self.slots.get_mut(slot) {
            *a = Some(at);
        }
    }

    /// Raises not yet seen at the root.
    pub fn pending(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Raised { .. }))
            .count() as u64
    }

    /// Feed one root report of this key emitted at `at` ms. Returns the
    /// lowering changes for raises the report confirmed.
    pub fn on_report(&mut self, sum: f64, at: f64) -> Vec<Change> {
        let mut lowers = Vec::new();
        if !(0.0..9.007_199_254_740_992e15).contains(&sum) {
            self.anomalies += 1;
            return lowers;
        }
        let bits = (sum as u64) >> self.base;
        let n = self.slots.len();
        let odd = (0..n).any(|j| bits >> (2 * j + 1) & 1 == 1);
        if odd || bits >> (2 * n) != 0 {
            self.anomalies += 1;
        }
        let base = self.base;
        for (j, s) in self.slots.iter_mut().enumerate() {
            let set = bits >> (2 * j) & 1 == 1;
            match *s {
                Slot::Raised { leaf, at: Some(t) } if set && at >= t => {
                    self.samples.push(at - t);
                    *s = Slot::Lowering { clear: 0 };
                    lowers.push(Change {
                        leaf,
                        slot: j,
                        delta: -((1u64 << (base as usize + 2 * j)) as f64),
                    });
                }
                Slot::Raised { at: None, .. } if set => self.anomalies += 1,
                Slot::Lowering { ref mut clear } => {
                    if set {
                        *clear = 0;
                    } else {
                        *clear += 1;
                        if *clear >= 2 {
                            *s = Slot::Free;
                        }
                    }
                }
                Slot::Free if set => self.anomalies += 1,
                _ => {}
            }
        }
        lowers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_confirm_lower_cycle() {
        let mut p = ProbeKey::new(20);
        let base = 1234.0;
        let c = p.raise(NodeAddr(7)).unwrap();
        assert_eq!(c.slot, 0);
        p.applied(c.slot, 100.0);
        assert!(p.on_report(base, 150.0).is_empty(), "not yet included");
        let lowers = p.on_report(base + c.delta, 900.0);
        assert_eq!(lowers.len(), 1);
        assert_eq!(lowers[0].delta, -c.delta);
        assert_eq!(p.samples, vec![800.0]);
        // Two clean reports free the slot again.
        p.on_report(base, 1900.0);
        assert_eq!(p.raise(NodeAddr(8)).map(|c| c.slot), Some(1));
        p.on_report(base, 2900.0);
        assert_eq!(p.raise(NodeAddr(9)).map(|c| c.slot), Some(0));
        assert_eq!(p.anomalies, 0);
    }

    #[test]
    fn double_count_and_unknown_bits_are_anomalies() {
        let mut p = ProbeKey::new(20);
        p.on_report(p.delta(3), 10.0);
        assert_eq!(p.anomalies, 1, "bit of a free slot");
        p.on_report(2.0 * p.delta(0), 20.0);
        assert_eq!(p.anomalies, 2, "odd bit = double count");
        p.on_report(-1.0, 30.0);
        assert_eq!(p.anomalies, 3);
    }
}
