//! The cluster power-cap arbiter.
//!
//! Once per scheduling epoch the arbiter collects one DVFS request per
//! live tenant (the operating point that tenant's own phase prediction
//! asked for) and hands back a *grant*: the fastest setting the tenant
//! may run at. Grants are floors on the operating-point index — a tenant
//! may always run slower than its grant (power falls monotonically with
//! the index), never faster — so the budget argument is local and
//! airtight:
//!
//! * a grant is costed at the power backend's declared
//!   [`worst_case`](livephase_pmsim::PowerModel::worst_case) for that
//!   setting — an upper bound on anything a tenant can actually draw
//!   there, for *any* backend in the model zoo (the analytic model's
//!   bound is full-activity power; learned models bound their clamped
//!   feature boxes);
//! * tenants are pinned to cores and a core runs one tenant at a time,
//!   so a core's instantaneous draw is bounded by the *maximum* grant
//!   cost among its tenants, not the sum;
//! * the arbiter admits only grant vectors whose summed per-core maxima
//!   fit the budget, so measured cluster power can never exceed it.
//!
//! Two policies are provided. `priority` serves tenants in priority
//! order (ties by tenant id), giving each the fastest still-affordable
//! setting — noisy neighbors, which carry the lowest priority, are
//! throttled first. `waterfill` starts everyone at the slowest setting
//! and repeatedly upgrades the currently worst-off tenant by one step
//! while the budget holds, converging to the most even feasible
//! allocation.
//!
//! Both run in O(n log n + levels·n·cores) per epoch without allocating
//! beyond the returned grant vector. `worst_case` is non-increasing
//! along the operating-point table for every backend, so upgrading a
//! grant can only *raise* its core's maximum: the arbiter keeps the
//! per-core maxima of the current grant vector and prices a candidate
//! by raising one slot, instead of re-costing the whole vector.
//! Water-filling then becomes a level sweep: every tenant starts at the
//! slowest level, and the slowest-first, lowest-id-first pick order of
//! the step-by-step formulation visits level `L` entirely, in tenant-id
//! order, before any tenant reaches `L − 1`.

use livephase_pmsim::{PlatformConfig, PowerModel};
use livephase_telemetry::{Counter, Histogram};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::fmt;
use std::sync::Arc;

/// Slack on the budget comparison, absorbing f64 rounding in the sum.
const BUDGET_SLACK_W: f64 = 1e-9;

/// How the arbiter divides headroom among competing tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArbiterPolicy {
    /// Grant in priority order, fastest affordable setting each.
    Priority,
    /// Upgrade the worst-off tenant one step at a time until the budget
    /// is exhausted.
    WaterFill,
}

impl ArbiterPolicy {
    /// Parses a policy name (`priority` | `waterfill`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "priority" => Some(Self::Priority),
            "waterfill" => Some(Self::WaterFill),
            _ => None,
        }
    }
}

impl fmt::Display for ArbiterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Priority => write!(f, "priority"),
            Self::WaterFill => write!(f, "waterfill"),
        }
    }
}

/// One tenant's per-epoch DVFS request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requesting tenant.
    pub tenant: u32,
    /// Core the tenant is pinned to.
    pub core: usize,
    /// Operating-point index the tenant's prediction asked for
    /// (0 = fastest).
    pub requested_op: usize,
    /// Arbitration priority; higher wins under the `priority` policy.
    pub priority: u8,
}

/// One tenant's per-epoch grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The tenant granted.
    pub tenant: u32,
    /// The fastest operating-point index the tenant may run at this
    /// epoch (a floor: running at a higher index is always allowed).
    pub op: usize,
    /// Whether the grant is slower than what the tenant requested.
    pub denied: bool,
}

/// Per-epoch working vectors, kept across calls so arbitration does not
/// allocate.
#[derive(Debug, Default)]
struct Scratch {
    /// Requested setting per request, clamped to the table.
    want: Vec<usize>,
    /// Current grant per request.
    ops: Vec<usize>,
    /// Request indices in visiting order.
    order: Vec<usize>,
    /// Per-core maximum grant cost of `ops`.
    core_max: Vec<f64>,
}

/// The per-epoch power-cap arbiter.
#[derive(Debug)]
pub struct Arbiter {
    /// `cost_w[op]`: worst-case watts one core can draw at setting `op`.
    cost_w: Vec<f64>,
    budget_w: f64,
    policy: ArbiterPolicy,
    cores: usize,
    grants_total: u64,
    denials_total: u64,
    starvation_us: Arc<Histogram>,
    /// Per-setting outcome counters, registered on first use so the
    /// exposition carries only settings actually granted or denied.
    grant_counters: Vec<Option<Arc<Counter>>>,
    denial_counters: Vec<Option<Arc<Counter>>>,
    scratch: Scratch,
}

/// Raises a core's maximum to `cost` if `cost` exceeds it.
fn raise(slot: &mut f64, cost: f64) {
    if cost > *slot {
        *slot = cost;
    }
}

impl Arbiter {
    /// Builds an arbiter for `cores` cores of `platform` under
    /// `budget_w` watts.
    #[must_use]
    pub fn new(
        platform: &PlatformConfig,
        budget_w: f64,
        policy: ArbiterPolicy,
        cores: usize,
    ) -> Self {
        let cost_w = platform
            .opp_table
            .iter()
            .map(|(_, opp)| platform.power.worst_case(opp))
            .collect();
        let starvation_us = livephase_telemetry::global().histogram(
            "tenants_arbiter_starvation_us",
            "Simulated microseconds tenants spent in denial streaks (granted slower than requested).",
            &[],
        );
        Self {
            cost_w,
            budget_w,
            policy,
            cores,
            grants_total: 0,
            denials_total: 0,
            starvation_us,
            grant_counters: Vec::new(),
            denial_counters: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// The worst-case cost (watts) of running one core at `op`.
    #[must_use]
    pub fn cost_w(&self, op: usize) -> f64 {
        let last = self.cost_w.len().saturating_sub(1);
        self.cost_w.get(op.min(last)).copied().unwrap_or(0.0)
    }

    /// The slowest (highest-index) setting of the platform.
    #[must_use]
    pub fn slowest(&self) -> usize {
        self.cost_w.len().saturating_sub(1)
    }

    /// Whether even the all-slowest grant vector fits the budget for
    /// this request set — if not, the budget is infeasible and the cap
    /// cannot be guaranteed by DVFS alone.
    #[must_use]
    pub fn floor_feasible(&self, requests: &[Request]) -> bool {
        let mut core_max = Vec::new();
        self.floor_core_max(requests, &mut core_max);
        // Slots start at 0 W and only rise, so raising one to 0 W is a
        // no-op: this checks the floor vector itself.
        self.fits(&core_max, 0, 0.0)
    }

    /// The budget slot of a request's core: out-of-range cores share the
    /// last slot.
    fn core_slot(&self, core: usize) -> usize {
        core.min(self.cores.max(1) - 1)
    }

    /// Fills `core_max` with the per-core maxima of the all-slowest
    /// grant vector.
    fn floor_core_max(&self, requests: &[Request], core_max: &mut Vec<f64>) {
        core_max.clear();
        core_max.resize(self.cores.max(1), 0.0);
        let floor = self.cost_w(self.slowest());
        for req in requests {
            if let Some(slot) = core_max.get_mut(self.core_slot(req.core)) {
                raise(slot, floor);
            }
        }
    }

    /// Whether the grant vector with per-core maxima `core_max` still
    /// fits the budget once slot `core` is raised to `cost`. Sums in core
    /// order, so the total is bit-identical to re-costing the vector.
    fn fits(&self, core_max: &[f64], core: usize, cost: f64) -> bool {
        let total: f64 = core_max
            .iter()
            .enumerate()
            .map(|(k, &max)| if k == core && cost > max { cost } else { max })
            .sum();
        total <= self.budget_w + BUDGET_SLACK_W
    }

    /// Arbitrates one epoch: returns one [`Grant`] per request, in
    /// request order. Deterministic: ties break by tenant id.
    pub fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let mut s = std::mem::take(&mut self.scratch);
        let slowest = self.slowest();
        s.want.clear();
        s.want
            .extend(requests.iter().map(|r| r.requested_op.min(slowest)));
        s.ops.clear();
        s.ops.resize(requests.len(), slowest);
        self.floor_core_max(requests, &mut s.core_max);
        s.order.clear();
        s.order.extend(0..requests.len());

        match self.policy {
            ArbiterPolicy::Priority => self.by_priority(requests, &mut s),
            ArbiterPolicy::WaterFill => self.water_fill(requests, &mut s),
        }

        let grants = requests
            .iter()
            .zip(s.ops.iter().zip(&s.want))
            .map(|(req, (&op, &want))| {
                let denied = op > want;
                self.count_outcome(op, denied);
                Grant {
                    tenant: req.tenant,
                    op,
                    denied,
                }
            })
            .collect();
        self.scratch = s;
        grants
    }

    /// `priority`: in (priority desc, tenant id) order, each request
    /// takes the fastest affordable setting no faster than requested.
    fn by_priority(&self, requests: &[Request], s: &mut Scratch) {
        s.order.sort_unstable_by_key(|&i| {
            requests.get(i).map_or((Reverse(0), u32::MAX, i), |r| {
                (Reverse(r.priority), r.tenant, i)
            })
        });
        for &i in &s.order {
            let (Some(req), Some(&target), Some(op)) =
                (requests.get(i), s.want.get(i), s.ops.get_mut(i))
            else {
                continue;
            };
            let core = self.core_slot(req.core);
            let Some(granted) =
                (target..=*op).find(|&c| self.fits(&s.core_max, core, self.cost_w(c)))
            else {
                continue;
            };
            *op = granted;
            if let Some(slot) = s.core_max.get_mut(core) {
                raise(slot, self.cost_w(granted));
            }
        }
    }

    /// `waterfill`: a level sweep from the slowest setting down. At each
    /// level every request still sitting there and wanting faster tries
    /// one step, in tenant-id order: it either moves down a level or
    /// freezes at this one for the rest of the epoch.
    fn water_fill(&self, requests: &[Request], s: &mut Scratch) {
        s.order
            .sort_unstable_by_key(|&i| (requests.get(i).map_or(u32::MAX, |r| r.tenant), i));
        for level in (1..=self.slowest()).rev() {
            let cost = self.cost_w(level - 1);
            for &i in &s.order {
                let (Some(req), Some(&want), Some(op)) =
                    (requests.get(i), s.want.get(i), s.ops.get_mut(i))
                else {
                    continue;
                };
                if *op != level || want >= level {
                    continue;
                }
                let core = self.core_slot(req.core);
                if self.fits(&s.core_max, core, cost) {
                    *op = level - 1;
                    if let Some(slot) = s.core_max.get_mut(core) {
                        raise(slot, cost);
                    }
                }
            }
        }
    }

    /// Counts one grant outcome, by granted setting.
    fn count_outcome(&mut self, op: usize, denied: bool) {
        let cache = if denied {
            self.denials_total += 1;
            &mut self.denial_counters
        } else {
            self.grants_total += 1;
            &mut self.grant_counters
        };
        if cache.len() <= op {
            cache.resize(op + 1, None);
        }
        let Some(slot) = cache.get_mut(op) else {
            return;
        };
        slot.get_or_insert_with(|| {
            let registry = livephase_telemetry::global();
            let op_label = op.to_string();
            if denied {
                registry.counter(
                    "tenants_arbiter_denials_total",
                    "Epoch requests granted slower than requested, by granted setting.",
                    &[("op", &op_label)],
                )
            } else {
                registry.counter(
                    "tenants_arbiter_grants_total",
                    "Epoch requests granted at the requested setting, by granted setting.",
                    &[("op", &op_label)],
                )
            }
        })
        .inc();
    }

    /// Records the simulated length of one completed denial streak.
    pub fn record_starvation(&self, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let us = (seconds * 1e6).min(9.0e18) as u64;
        self.starvation_us.record(us);
    }

    /// Requests granted at the requested setting so far.
    #[must_use]
    pub fn grants_total(&self) -> u64 {
        self.grants_total
    }

    /// Requests granted slower than requested so far.
    #[must_use]
    pub fn denials_total(&self) -> u64 {
        self.denials_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_pmsim::{
        AnalyticModel, LinearModel, OperatingPointTable, PlatformConfig, PowerInput,
        PowerModelKind, TrainingRecord, TreeModel,
    };
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn requests(ops: &[(u32, usize, usize, u8)]) -> Vec<Request> {
        ops.iter()
            .map(|&(tenant, core, requested_op, priority)| Request {
                tenant,
                core,
                requested_op,
                priority,
            })
            .collect()
    }

    fn arbiter(budget_w: f64, policy: ArbiterPolicy, cores: usize) -> Arbiter {
        Arbiter::new(&PlatformConfig::pentium_m(), budget_w, policy, cores)
    }

    #[test]
    fn costs_fall_with_setting() {
        let a = arbiter(100.0, ArbiterPolicy::WaterFill, 1);
        for op in 1..=a.slowest() {
            assert!(a.cost_w(op) < a.cost_w(op - 1));
        }
    }

    #[test]
    fn generous_budget_grants_everything() {
        let mut a = arbiter(1000.0, ArbiterPolicy::Priority, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 2, 1), (2, 0, 1, 0)]);
        let grants = a.arbitrate(&reqs);
        assert!(grants.iter().all(|g| !g.denied));
        assert_eq!(
            grants.iter().map(|g| g.op).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
        assert_eq!(a.grants_total(), 3);
        assert_eq!(a.denials_total(), 0);
    }

    #[test]
    fn grants_never_exceed_budget() {
        for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
            let mut a = arbiter(18.0, policy, 2);
            let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 1), (2, 0, 0, 0), (3, 1, 0, 0)]);
            let grants = a.arbitrate(&reqs);
            assert!(
                admitted_cost(&a, &reqs, &grants) <= 18.0 + 1e-9,
                "{policy}: grant vector exceeds the budget"
            );
            assert!(
                grants.iter().any(|g| g.denied),
                "{policy}: a tight budget must deny someone"
            );
        }
    }

    #[test]
    fn priority_throttles_low_priority_first() {
        // Budget fits one core at full speed plus one throttled core.
        let a_probe = arbiter(100.0, ArbiterPolicy::Priority, 1);
        let budget = a_probe.cost_w(0) + a_probe.cost_w(3);
        let mut a = arbiter(budget, ArbiterPolicy::Priority, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 0)]);
        let grants = a.arbitrate(&reqs);
        assert_eq!(
            grants.first().map(|g| g.op),
            Some(0),
            "high priority runs fast"
        );
        assert!(
            grants.get(1).is_some_and(|g| g.op >= 3),
            "low priority throttled"
        );
    }

    #[test]
    fn waterfill_spreads_the_pain_evenly() {
        let a_probe = arbiter(100.0, ArbiterPolicy::WaterFill, 1);
        let budget = 2.0 * a_probe.cost_w(2);
        let mut a = arbiter(budget, ArbiterPolicy::WaterFill, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 0)]);
        let grants = a.arbitrate(&reqs);
        let ops: Vec<usize> = grants.iter().map(|g| g.op).collect();
        assert_eq!(ops, vec![2, 2], "both tenants settle at the same level");
    }

    #[test]
    fn same_core_tenants_share_a_max_not_a_sum() {
        // Two tenants pinned to one core cost max(), so both can run
        // fast under a budget that could not carry two cores.
        let a_probe = arbiter(100.0, ArbiterPolicy::WaterFill, 1);
        let budget = a_probe.cost_w(0) * 1.1;
        let mut a = arbiter(budget, ArbiterPolicy::WaterFill, 1);
        let reqs = requests(&[(0, 0, 0, 1), (1, 0, 0, 1)]);
        let grants = a.arbitrate(&reqs);
        assert!(grants.iter().all(|g| g.op == 0 && !g.denied));
    }

    #[test]
    fn infeasible_floor_is_detected() {
        let a = arbiter(0.5, ArbiterPolicy::WaterFill, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 1)]);
        assert!(!a.floor_feasible(&reqs));
        let generous = arbiter(100.0, ArbiterPolicy::WaterFill, 2);
        assert!(generous.floor_feasible(&reqs));
    }

    /// The original quadratic arbiter, kept verbatim as the oracle the
    /// level sweep must match grant for grant: every feasibility check
    /// re-costs a copy of the whole grant vector, and water-filling
    /// rescans every request per single-step upgrade.
    mod reference {
        use super::super::{Arbiter, ArbiterPolicy, Grant, Request};

        fn total_cost(a: &Arbiter, requests: &[Request], ops: &[usize]) -> f64 {
            let mut core_max = vec![0.0f64; a.cores.max(1)];
            for (i, req) in requests.iter().enumerate() {
                let op = ops.get(i).copied().unwrap_or_else(|| a.slowest());
                let cost = a.cost_w(op);
                let core = req.core.min(core_max.len() - 1);
                if cost > core_max[core] {
                    core_max[core] = cost;
                }
            }
            core_max.iter().sum()
        }

        fn feasible_with(
            a: &Arbiter,
            requests: &[Request],
            ops: &[usize],
            i: usize,
            candidate: usize,
        ) -> bool {
            let mut trial = ops.to_vec();
            trial[i] = candidate;
            total_cost(a, requests, &trial) <= a.budget_w + 1e-9
        }

        pub(super) fn arbitrate(a: &Arbiter, requests: &[Request]) -> Vec<Grant> {
            let slowest = a.slowest();
            let want: Vec<usize> = requests
                .iter()
                .map(|r| r.requested_op.min(slowest))
                .collect();
            let mut ops = vec![slowest; requests.len()];
            match a.policy {
                ArbiterPolicy::Priority => {
                    let mut order: Vec<usize> = (0..requests.len()).collect();
                    order.sort_by(|&x, &y| {
                        let (rx, ry) = (&requests[x], &requests[y]);
                        ry.priority
                            .cmp(&rx.priority)
                            .then(rx.tenant.cmp(&ry.tenant))
                    });
                    for &i in &order {
                        for candidate in want[i]..=ops[i] {
                            if feasible_with(a, requests, &ops, i, candidate) {
                                ops[i] = candidate;
                                break;
                            }
                        }
                    }
                }
                ArbiterPolicy::WaterFill => {
                    let mut frozen = vec![false; requests.len()];
                    loop {
                        let mut pick: Option<(usize, usize, u32)> = None;
                        for (i, req) in requests.iter().enumerate() {
                            if frozen[i] || ops[i] <= want[i] {
                                continue;
                            }
                            let better = pick.is_none_or(|(_, best_op, best_tenant)| {
                                ops[i] > best_op || (ops[i] == best_op && req.tenant < best_tenant)
                            });
                            if better {
                                pick = Some((i, ops[i], req.tenant));
                            }
                        }
                        let Some((i, current, _)) = pick else {
                            break;
                        };
                        if feasible_with(a, requests, &ops, i, current - 1) {
                            ops[i] = current - 1;
                        } else {
                            frozen[i] = true;
                        }
                    }
                }
            }
            requests
                .iter()
                .zip(ops.iter().zip(&want))
                .map(|(req, (&op, &want))| Grant {
                    tenant: req.tenant,
                    op,
                    denied: op > want,
                })
                .collect()
        }
    }

    /// The pentium-M platform priced by each power backend: analytic,
    /// and linear and tree models fitted to a jittered analytic sweep.
    fn backend_platforms() -> &'static [PlatformConfig] {
        static PLATFORMS: OnceLock<Vec<PlatformConfig>> = OnceLock::new();
        PLATFORMS.get_or_init(|| {
            let truth = AnalyticModel::pentium_m();
            let mut records = Vec::new();
            let mut state = 7u64;
            for (_, opp) in OperatingPointTable::pentium_m().iter() {
                for k in 0..8u32 {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let jitter = (state >> 40) as f64 / (1u64 << 24) as f64;
                    let cf = 0.2 + 0.1 * f64::from(k);
                    let input = PowerInput::new(cf, 0.04 * (1.0 - cf), 1.0 + 2.0 * cf);
                    records.push(TrainingRecord {
                        opp,
                        input,
                        measured_w: truth.power(opp, &input) * (0.97 + 0.06 * jitter),
                    });
                }
            }
            [
                PowerModelKind::default(),
                PowerModelKind::Linear(LinearModel::fit(&records).unwrap()),
                PowerModelKind::Tree(TreeModel::fit(&records).unwrap()),
            ]
            .into_iter()
            .map(|power| PlatformConfig {
                power,
                ..PlatformConfig::pentium_m()
            })
            .collect()
        })
    }

    /// Summed per-core maxima of a grant vector, re-costed from scratch.
    fn admitted_cost(a: &Arbiter, reqs: &[Request], grants: &[Grant]) -> f64 {
        let mut core_max = vec![0.0f64; a.cores.max(1)];
        for (req, grant) in reqs.iter().zip(grants) {
            let core = req.core.min(core_max.len() - 1);
            core_max[core] = core_max[core].max(a.cost_w(grant.op));
        }
        core_max.iter().sum()
    }

    proptest! {
        #[test]
        fn level_sweep_matches_the_reference_arbiter(
            cores in 1usize..=8,
            budget_frac in 0.0f64..1.3,
            epochs in proptest::collection::vec(
                proptest::collection::vec(
                    // Duplicate tenant ids, cores past `cores`, and
                    // requested settings past the table all occur.
                    (0u32..12, 0usize..10, 0usize..9, 0u8..3),
                    0..=24,
                ),
                1..=3,
            ),
        ) {
            for platform in backend_platforms() {
                let probe = Arbiter::new(platform, 0.0, ArbiterPolicy::WaterFill, cores);
                for op in 1..=probe.slowest() {
                    prop_assert!(
                        probe.cost_w(op) <= probe.cost_w(op - 1),
                        "the sweep needs worst_case non-increasing along the table"
                    );
                }
                // From below the all-slowest floor up to every core flat out.
                let budget = budget_frac * cores as f64 * probe.cost_w(0);
                for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
                    // One arbiter across epochs: scratch reuse must not leak.
                    let mut a = Arbiter::new(platform, budget, policy, cores);
                    for epoch in &epochs {
                        let reqs = requests(epoch);
                        let expected = reference::arbitrate(&a, &reqs);
                        let grants = a.arbitrate(&reqs);
                        prop_assert_eq!(
                            &grants,
                            &expected,
                            "{} {}: {:?}",
                            platform.power.kind_name(),
                            policy,
                            reqs
                        );
                        if a.floor_feasible(&reqs) {
                            prop_assert!(
                                admitted_cost(&a, &reqs, &grants) <= budget + 1e-9,
                                "{} {policy}: grants exceed the budget",
                                platform.power.kind_name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_request_sets_grant_nothing() {
        for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
            let mut a = arbiter(0.0, policy, 3);
            assert!(a.arbitrate(&[]).is_empty());
            assert!(a.floor_feasible(&[]), "no tenants draw nothing");
            assert_eq!(a.grants_total() + a.denials_total(), 0);
        }
    }

    #[test]
    fn duplicate_tenants_and_out_of_range_fields_are_clamped() {
        for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
            let mut a = arbiter(1000.0, policy, 2);
            // Tenant 5 twice; core 9 folds onto the last core; op 40 is
            // past the table and means "slowest".
            let reqs = requests(&[(5, 9, 40, 1), (5, 0, 0, 1), (1, 1, 2, 0)]);
            let grants = a.arbitrate(&reqs);
            let ops: Vec<usize> = grants.iter().map(|g| g.op).collect();
            assert_eq!(ops, vec![a.slowest(), 0, 2], "{policy}");
            assert!(grants.iter().all(|g| !g.denied), "{policy}");
            assert_eq!(grants, reference::arbitrate(&a, &reqs), "{policy}");
        }
    }

    #[test]
    fn policy_names_round_trip() {
        assert_eq!(
            ArbiterPolicy::parse("priority"),
            Some(ArbiterPolicy::Priority)
        );
        assert_eq!(
            ArbiterPolicy::parse("waterfill"),
            Some(ArbiterPolicy::WaterFill)
        );
        assert_eq!(ArbiterPolicy::parse("nope"), None);
        assert_eq!(ArbiterPolicy::Priority.to_string(), "priority");
        assert_eq!(ArbiterPolicy::WaterFill.to_string(), "waterfill");
    }
}
