//! Fault injection: AS outages and lossy ASes.
//!
//! Real measurement campaigns lose vantage points: probes disconnect,
//! networks have outages, paths brown out. The paper's workflow is
//! designed around this (median-of-6, "at least 3 valid RTTs",
//! responsiveness filtering). A [`FaultPlan`] lets tests and ablations
//! inject exactly these conditions and verify the pipeline stays robust
//! — the measurement analog of smoltcp's `--drop-chance` fault options.

use crate::clock::SimTime;
use shortcuts_topology::Asn;

/// A scheduled full outage of one AS.
#[derive(Debug, Clone, Copy)]
pub struct Outage {
    /// The AS that goes dark.
    pub asn: Asn,
    /// Outage start (inclusive), seconds.
    pub start: SimTime,
    /// Outage end (exclusive), seconds.
    pub end: SimTime,
}

/// Extra per-packet loss applied to any path crossing an AS.
#[derive(Debug, Clone, Copy)]
pub struct LossyAs {
    /// The AS with degraded links.
    pub asn: Asn,
    /// Additional loss probability in `[0, 1]`.
    pub extra_loss: f64,
}

/// A set of scheduled faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    outages: Vec<Outage>,
    lossy: Vec<LossyAs>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a full outage of `asn` during `[start, end)`.
    pub fn with_outage(mut self, asn: Asn, start: SimTime, end: SimTime) -> Self {
        assert!(start.secs() <= end.secs(), "outage ends before it starts");
        self.outages.push(Outage { asn, start, end });
        self
    }

    /// Adds permanent extra loss to any path crossing `asn`.
    pub fn with_lossy_as(mut self, asn: Asn, extra_loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&extra_loss), "loss must be in [0,1]");
        self.lossy.push(LossyAs { asn, extra_loss });
        self
    }

    /// Whether `asn` is down at time `t`.
    pub fn is_down(&self, asn: Asn, t: SimTime) -> bool {
        self.outages
            .iter()
            .any(|o| o.asn == asn && o.start.secs() <= t.secs() && t.secs() < o.end.secs())
    }

    /// Whether any AS of `path` is down at `t`.
    pub fn path_down(&self, path: &[Asn], t: SimTime) -> bool {
        path.iter().any(|&a| self.is_down(a, t))
    }

    /// Combined extra loss over the path (probability that at least one
    /// lossy AS drops the packet).
    pub fn path_extra_loss(&self, path: &[Asn]) -> f64 {
        let mut pass = 1.0;
        for asn in path {
            for l in &self.lossy {
                if l.asn == *asn {
                    pass *= 1.0 - l.extra_loss;
                }
            }
        }
        1.0 - pass
    }

    /// Whether the plan contains any fault at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.lossy.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_window_is_half_open() {
        let plan = FaultPlan::none().with_outage(Asn(5), SimTime(10.0), SimTime(20.0));
        assert!(!plan.is_down(Asn(5), SimTime(9.9)));
        assert!(plan.is_down(Asn(5), SimTime(10.0)));
        assert!(plan.is_down(Asn(5), SimTime(19.9)));
        assert!(!plan.is_down(Asn(5), SimTime(20.0)));
        assert!(!plan.is_down(Asn(6), SimTime(15.0)));
    }

    #[test]
    fn path_down_any_hop() {
        let plan = FaultPlan::none().with_outage(Asn(2), SimTime(0.0), SimTime(100.0));
        assert!(plan.path_down(&[Asn(1), Asn(2), Asn(3)], SimTime(50.0)));
        assert!(!plan.path_down(&[Asn(1), Asn(3)], SimTime(50.0)));
    }

    #[test]
    fn extra_loss_composes() {
        let plan = FaultPlan::none()
            .with_lossy_as(Asn(1), 0.5)
            .with_lossy_as(Asn(2), 0.5);
        let loss = plan.path_extra_loss(&[Asn(1), Asn(2)]);
        assert!((loss - 0.75).abs() < 1e-12);
        assert_eq!(plan.path_extra_loss(&[Asn(3)]), 0.0);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.path_down(&[Asn(1)], SimTime(0.0)));
        assert_eq!(plan.path_extra_loss(&[Asn(1)]), 0.0);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn rejects_invalid_loss() {
        let _ = FaultPlan::none().with_lossy_as(Asn(1), 1.5);
    }
}
