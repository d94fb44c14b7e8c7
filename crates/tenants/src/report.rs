//! Per-tenant and cluster-level run reports.

use std::fmt;

/// FNV-1a offset basis: the seed every digest starts from.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a digest — the deterministic fingerprint
/// used for per-tenant sample and decision streams.
#[must_use]
pub fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
    digest
}

/// One tenant's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id (0-based).
    pub tenant: u32,
    /// Benchmark the tenant ran.
    pub benchmark: String,
    /// Whether the tenant was a noisy neighbor.
    pub noisy: bool,
    /// Core the tenant was pinned to.
    pub core: usize,
    /// Sampling intervals completed (PMIs plus a possible partial tail).
    pub intervals: u64,
    /// Simulated seconds the tenant itself executed (its own slices
    /// only; time spent descheduled does not count).
    pub time_s: f64,
    /// Joules the tenant's execution consumed.
    pub energy_j: f64,
    /// Predictions scored for this tenant.
    pub scored: u64,
    /// Scored predictions that were correct.
    pub correct: u64,
    /// Epochs in which the arbiter granted slower than requested.
    pub denied_epochs: u64,
    /// FNV-1a digest over the tenant's decision stream
    /// (phase, predicted, op-point, confidence per interval).
    pub decision_digest: u64,
    /// FNV-1a digest over the tenant's counter-sample stream
    /// (uops, mem-transactions per interval) — the bit-exactness witness
    /// for counter virtualization.
    pub sample_digest: u64,
}

impl TenantReport {
    /// Energy-delay product of the tenant's own execution, in J·s.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }

    /// Prediction accuracy in `[0, 1]`; `1.0` when nothing was scored.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            1.0
        } else {
            self.correct as f64 / self.scored as f64
        }
    }
}

/// The whole cluster run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Per-tenant outcomes, tenant id order.
    pub tenants: Vec<TenantReport>,
    /// Cores simulated.
    pub cores: usize,
    /// The configured watt budget.
    pub budget_w: f64,
    /// The arbitration policy name.
    pub policy: String,
    /// Scheduling epochs executed.
    pub epochs: u64,
    /// vCPU context switches performed.
    pub context_switches: u64,
    /// Simulated seconds during which measured cluster power exceeded
    /// the budget (the headline cap guarantee: expected 0).
    pub cap_violation_s: f64,
    /// Highest measured per-epoch cluster power, watts.
    pub peak_epoch_power_w: f64,
    /// Whether even the all-slowest grant vector fit the budget; when
    /// false the cap cannot be guaranteed by DVFS alone.
    pub budget_feasible: bool,
    /// The longest per-core simulated clock, seconds.
    pub total_time_s: f64,
}

impl ClusterReport {
    /// One digest over every tenant's decision stream, tenant id order —
    /// what the determinism gate compares across runs.
    #[must_use]
    pub fn decision_digest(&self) -> u64 {
        let mut d = DIGEST_SEED;
        for t in &self.tenants {
            d = fnv1a(d, &t.tenant.to_le_bytes());
            d = fnv1a(d, &t.decision_digest.to_le_bytes());
            d = fnv1a(d, &t.sample_digest.to_le_bytes());
        }
        d
    }

    /// Total epochs in which some tenant was denied, summed per tenant.
    #[must_use]
    pub fn denied_epochs(&self) -> u64 {
        self.tenants.iter().map(|t| t.denied_epochs).sum()
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tenants cluster: M={} K={} budget={:.1} W policy={}",
            self.tenants.len(),
            self.cores,
            self.budget_w,
            self.policy
        )?;
        writeln!(
            f,
            "epochs {}  switches {}  peak {:.2} W  cap-violation {:.6} s  floor-feasible {}",
            self.epochs,
            self.context_switches,
            self.peak_epoch_power_w,
            self.cap_violation_s,
            if self.budget_feasible { "yes" } else { "no" }
        )?;
        writeln!(
            f,
            "{:>6}  {:<16} {:>4} {:>9} {:>10} {:>11} {:>12} {:>6} {:>7}  digest",
            "tenant",
            "benchmark",
            "core",
            "intervals",
            "time(s)",
            "energy(J)",
            "EDP(J*s)",
            "acc%",
            "denied"
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "{:>6}  {:<16} {:>4} {:>9} {:>10.4} {:>11.3} {:>12.4} {:>6.1} {:>7}  {:016x}{}",
                t.tenant,
                t.benchmark,
                t.core,
                t.intervals,
                t.time_s,
                t.energy_j,
                t.edp(),
                t.accuracy() * 100.0,
                t.denied_epochs,
                t.decision_digest,
                if t.noisy { "  (noisy)" } else { "" }
            )?;
        }
        write!(f, "cluster decision digest {:016x}", self.decision_digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive_and_deterministic() {
        let a = fnv1a(DIGEST_SEED, &[1, 2, 3]);
        let b = fnv1a(DIGEST_SEED, &[3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(DIGEST_SEED, &[1, 2, 3]));
    }

    #[test]
    fn empty_accuracy_is_perfect() {
        let t = TenantReport {
            tenant: 0,
            benchmark: "x".into(),
            noisy: false,
            core: 0,
            intervals: 0,
            time_s: 2.0,
            energy_j: 3.0,
            scored: 0,
            correct: 0,
            denied_epochs: 0,
            decision_digest: 0,
            sample_digest: 0,
        };
        assert_eq!(t.accuracy(), 1.0);
        assert_eq!(t.edp(), 6.0);
    }
}
