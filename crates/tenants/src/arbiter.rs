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
//! Neither allocates once warm: the grants live in an arbiter-owned
//! buffer that each call refills and lends out. `worst_case` is
//! non-increasing along the operating-point table for every backend, so
//! upgrading a grant can only *raise* its core's maximum: the arbiter
//! keeps the per-core maxima of the current grant vector and prices a
//! candidate by raising one slot (an O(cores) sum), instead of
//! re-costing the whole vector. When the requested settings fit as
//! asked, both policies grant them as asked without running: every
//! check either would make sums slots no higher than the requested
//! vector's, in the same order. Otherwise `priority` tries each
//! request's settings in turn: O(n log n + n·levels·cores) per epoch.
//!
//! Water-filling is a level sweep decided per core, not per tenant. The
//! slowest-first, lowest-id-first pick order of the step-by-step
//! formulation visits level `L` entirely, in tenant-id order, before any
//! tenant reaches `L − 1`, and at `L` every candidate is priced at the
//! same `cost_w(L − 1)`. So a core's *first* candidate at `L` decides
//! for all of that core's candidates: if it fits, its raise already
//! holds the slot at that cost and every later check sums the grant
//! vector last admitted; if it fails, every later one fails too (same
//! raise, other slots only higher, and f64 addition is monotone). A
//! core that fails at `L` *freezes*: its tenants stay at `L`, and since
//! costs only grow toward the fast end, none of them is a candidate
//! again. Hence `grant(t) = max(want(t), F(core(t)))`, with `F(k)` the
//! level at which core `k` froze (0 if it never did). Each level gives
//! every unfrozen core with a request wanting below `L` one budget
//! check, taking the cores in the order of their lowest (tenant id,
//! index) such request — the order that keeps the sweep bit-exact with
//! the per-tenant one. An epoch costs O(n + levels·cores·log cores)
//! bookkeeping plus at most levels·cores budget checks.

use livephase_pmsim::{PlatformConfig, PowerModel};
use livephase_telemetry::{catalogue, Counter, Histogram};
use std::cmp::Reverse;
use std::fmt;
use std::sync::Arc;

/// Slack on the budget comparison, absorbing f64 rounding in the sum.
const BUDGET_SLACK_W: f64 = 1e-9;

/// The empty (tenant id, request index) key: above every real key, whose
/// index is below `usize::MAX`.
const NO_KEY: (u32, usize) = (u32::MAX, usize::MAX);

/// How the arbiter divides headroom among competing tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Per-core maximum grant cost of the current grant vector.
    core_max: Vec<f64>,
    /// Row `k`, column `w`: the lowest (tenant id, index) key among core
    /// `k`'s requests wanting setting `w` (`w` below the slowest).
    /// `waterfill` turns it into "wanting at most `w`".
    first: Vec<(u32, usize)>,
    /// The level each core froze at under `waterfill` (0 = never, and
    /// always 0 under `priority`).
    freeze: Vec<usize>,
    /// `priority`: request indices in visiting order.
    order: Vec<usize>,
    /// `waterfill`: the cores checked at the current level, in order.
    sweep: Vec<usize>,
    /// `[granted, denied]` outcome tallies by granted setting, of the
    /// grants last issued.
    outcomes: Vec<[u64; 2]>,
    /// The grants last issued, one per request, in request order.
    grants: Vec<Grant>,
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

/// What an epoch is priced against: the arbiter's read-only half,
/// borrowed next to its scratch vectors.
#[derive(Debug, Clone, Copy)]
struct Prices<'a> {
    cost_w: &'a [f64],
    budget_w: f64,
    /// Budget slots, one per core (at least one).
    slots: usize,
}

/// Raises a core's maximum to `cost` if `cost` exceeds it.
fn raise(slot: &mut f64, cost: f64) {
    if cost > *slot {
        *slot = cost;
    }
}

impl Prices<'_> {
    fn cost(&self, op: usize) -> f64 {
        let last = self.cost_w.len().saturating_sub(1);
        self.cost_w.get(op.min(last)).copied().unwrap_or(0.0)
    }

    fn slowest(&self) -> usize {
        self.cost_w.len().saturating_sub(1)
    }

    /// The budget slot of a request's core: out-of-range cores share the
    /// last slot.
    fn slot(&self, core: usize) -> usize {
        core.min(self.slots - 1)
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

    /// The one pass over the requests: `grants` at the requested
    /// settings, `s.core_max` at the all-slowest grant vector, `s.first`
    /// keyed by requested setting, and no core frozen.
    fn open(&self, requests: &[Request], s: &mut Scratch, grants: &mut Vec<Grant>) {
        let slowest = self.slowest();
        let floor = self.cost(slowest);
        s.core_max.clear();
        s.core_max.resize(self.slots, 0.0);
        s.first.clear();
        s.first.resize(self.slots * slowest, NO_KEY);
        s.freeze.clear();
        s.freeze.resize(self.slots, 0);
        for (i, req) in requests.iter().enumerate() {
            let want = req.requested_op.min(slowest);
            let slot = self.slot(req.core);
            if let Some(max) = s.core_max.get_mut(slot) {
                *max = floor;
            }
            // Wanting the slowest setting falls outside the table: it
            // makes no candidate at any level.
            if let Some(key) = s
                .first
                .get_mut(slot * slowest + want)
                .filter(|_| want < slowest)
            {
                if (req.tenant, i) < *key {
                    *key = (req.tenant, i);
                }
            }
            grants.push(Grant {
                tenant: req.tenant,
                op: want,
                denied: false,
            });
        }
    }

    /// Whether the grant vector of every requested setting fits. Every
    /// check either policy makes sums slots no higher than this vector's,
    /// in the same order, so then both grant every request as asked.
    fn wants_fit(&self, s: &Scratch) -> bool {
        let slowest = self.slowest();
        let total: f64 = s
            .core_max
            .iter()
            .enumerate()
            .map(|(k, &floor)| {
                // Costs fall along the table, so a core's fastest
                // request prices it.
                s.first
                    .get(k * slowest..(k + 1) * slowest)
                    .and_then(|row| row.iter().position(|&key| key != NO_KEY))
                    .map_or(floor, |want| self.cost(want))
            })
            .sum();
        total <= self.budget_w + BUDGET_SLACK_W
    }

    /// `priority`: in (priority desc, tenant id) order, each request
    /// takes the fastest affordable setting no faster than requested.
    fn by_priority(&self, requests: &[Request], s: &mut Scratch, grants: &mut [Grant]) {
        let slowest = self.slowest();
        s.order.clear();
        s.order.extend(0..requests.len());
        s.order.sort_unstable_by_key(|&i| {
            requests.get(i).map_or((Reverse(0), u32::MAX, i), |r| {
                (Reverse(r.priority), r.tenant, i)
            })
        });
        for &i in &s.order {
            let (Some(req), Some(grant)) = (requests.get(i), grants.get_mut(i)) else {
                continue;
            };
            let core = self.slot(req.core);
            let found = (grant.op..=slowest).find(|&c| self.fits(&s.core_max, core, self.cost(c)));
            grant.op = found.unwrap_or(slowest);
            if let (Some(granted), Some(slot)) = (found, s.core_max.get_mut(core)) {
                raise(slot, self.cost(granted));
            }
        }
    }

    /// `waterfill`: the level sweep from the slowest setting down, one
    /// budget check per core and level (see the module docs). Leaves the
    /// level each core froze at in `s.freeze`; the grants follow as
    /// `max(want, freeze)`.
    fn water_fill(&self, s: &mut Scratch) {
        let slowest = self.slowest();
        let Scratch {
            core_max,
            first,
            freeze,
            sweep,
            ..
        } = s;
        // Column `w` has held "wants exactly w"; make it "wants at most
        // w", the candidates at level `w + 1`.
        for row in first.chunks_mut(slowest.max(1)) {
            let mut lowest = NO_KEY;
            for key in row {
                lowest = lowest.min(*key);
                *key = lowest;
            }
        }
        for level in (1..=slowest).rev() {
            let first_at = |k: usize| first.get(k * slowest + level - 1).copied();
            sweep.clear();
            sweep.extend((0..self.slots).filter(|&k| {
                freeze.get(k) == Some(&0) && first_at(k).is_some_and(|key| key != NO_KEY)
            }));
            sweep.sort_unstable_by_key(|&k| first_at(k));
            let cost = self.cost(level - 1);
            for &k in sweep.iter() {
                if self.fits(core_max, k, cost) {
                    if let Some(slot) = core_max.get_mut(k) {
                        raise(slot, cost);
                    }
                } else if let Some(frozen) = freeze.get_mut(k) {
                    *frozen = level;
                }
            }
        }
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
        let starvation_us =
            livephase_telemetry::global().histogram(&catalogue::TENANTS_ARBITER_STARVATION_US, &[]);
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

    fn prices(&self) -> Prices<'_> {
        Prices {
            cost_w: &self.cost_w,
            budget_w: self.budget_w,
            slots: self.cores.max(1),
        }
    }

    /// The worst-case cost (watts) of running one core at `op`.
    #[must_use]
    pub fn cost_w(&self, op: usize) -> f64 {
        self.prices().cost(op)
    }

    /// The slowest (highest-index) setting of the platform.
    #[must_use]
    pub fn slowest(&self) -> usize {
        self.prices().slowest()
    }

    /// Whether even the all-slowest grant vector fits the budget for
    /// this request set — if not, the budget is infeasible and the cap
    /// cannot be guaranteed by DVFS alone.
    #[must_use]
    pub fn floor_feasible(&self, requests: &[Request]) -> bool {
        let prices = self.prices();
        let mut s = Scratch::default();
        prices.open(requests, &mut s, &mut Vec::new());
        // Raising a slot to 0 W is a no-op: this checks the floor vector
        // itself.
        prices.fits(&s.core_max, 0, 0.0)
    }

    /// Arbitrates one epoch: returns one [`Grant`] per request, in
    /// request order. Deterministic: ties break by tenant id. Every call
    /// arbitrates in full; the grants stay held for [`reissue`](Self::reissue).
    pub fn arbitrate(&mut self, requests: &[Request]) -> &[Grant] {
        // Built from the fields, not `prices()`, so the scratch vectors
        // can be borrowed alongside.
        let prices = Prices {
            cost_w: &self.cost_w,
            budget_w: self.budget_w,
            slots: self.cores.max(1),
        };
        let slowest = prices.slowest();
        let s = &mut self.scratch;
        let mut grants = std::mem::take(&mut s.grants);
        grants.clear();
        prices.open(requests, s, &mut grants);
        if !prices.wants_fit(s) {
            match self.policy {
                ArbiterPolicy::Priority => prices.by_priority(requests, s, &mut grants),
                ArbiterPolicy::WaterFill => prices.water_fill(s),
            }
        }

        s.outcomes.clear();
        s.outcomes.resize(slowest + 1, [0, 0]);
        for (grant, req) in grants.iter_mut().zip(requests) {
            let frozen = s.freeze.get(prices.slot(req.core)).copied().unwrap_or(0);
            grant.op = grant.op.max(frozen);
            grant.denied = grant.op > req.requested_op.min(slowest);
            // Indexed, not branched on: grants and denials interleave
            // unpredictably.
            let tally = s.outcomes.get_mut(grant.op);
            if let Some(n) = tally.and_then(|t| t.get_mut(usize::from(grant.denied))) {
                *n += 1;
            }
        }
        s.grants = grants;
        self.reissue()
    }

    /// Issues the last [`arbitrate`](Self::arbitrate) call's grants again,
    /// for an epoch whose requests equal that call's: they are what it
    /// would return. Counts their outcomes again, so the grant and denial
    /// totals stay per epoch.
    pub fn reissue(&mut self) -> &[Grant] {
        for op in 0..self.scratch.outcomes.len() {
            let [granted, denied] = self.scratch.outcomes.get(op).copied().unwrap_or_default();
            if granted > 0 {
                self.count_outcomes(op, false, granted);
            }
            if denied > 0 {
                self.count_outcomes(op, true, denied);
            }
        }
        &self.scratch.grants
    }

    /// Counts `n` grant outcomes at one granted setting: one labelled
    /// atomic add per (setting, outcome) per epoch, not per request.
    fn count_outcomes(&mut self, op: usize, denied: bool, n: u64) {
        let cache = if denied {
            self.denials_total += n;
            &mut self.denial_counters
        } else {
            self.grants_total += n;
            &mut self.grant_counters
        };
        if cache.len() <= op {
            cache.resize(op + 1, None);
        }
        let Some(slot) = cache.get_mut(op) else {
            return;
        };
        slot.get_or_insert_with(|| {
            let metric = if denied {
                &catalogue::TENANTS_ARBITER_DENIALS_TOTAL
            } else {
                &catalogue::TENANTS_ARBITER_GRANTS_TOTAL
            };
            livephase_telemetry::global().counter(metric, &[&op.to_string()])
        })
        .add(n);
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
            let grants = a.arbitrate(&reqs).to_vec();
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
            // Bit `op − 1` set: setting `op` costs what `op − 1` does.
            plateaus in 0u32..32,
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
                // Each backend as fitted, then with equal-cost steps
                // (a raise to a slot's own cost must still be checked).
                for (policy, flat) in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill]
                    .into_iter()
                    .flat_map(|policy| [(policy, 0), (policy, plateaus)])
                {
                    // One arbiter across epochs: scratch reuse must not leak.
                    let mut a = Arbiter::new(platform, budget, policy, cores);
                    for op in 1..a.cost_w.len() {
                        if flat >> (op - 1) & 1 == 1 {
                            a.cost_w[op] = a.cost_w[op - 1];
                        }
                    }
                    for epoch in &epochs {
                        let reqs = requests(epoch);
                        let expected = reference::arbitrate(&a, &reqs);
                        let grants = a.arbitrate(&reqs).to_vec();
                        prop_assert_eq!(
                            &grants,
                            &expected,
                            "{} {}: {:?}",
                            platform.power.kind_name(),
                            policy,
                            reqs
                        );
                        // Reissuing hands back the same grants and
                        // counts every outcome again.
                        let counted = a.grants_total() + a.denials_total();
                        prop_assert_eq!(a.reissue(), &expected[..]);
                        prop_assert_eq!(
                            a.grants_total() + a.denials_total(),
                            counted + reqs.len() as u64
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
            assert!(a.reissue().is_empty());
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
            let grants = a.arbitrate(&reqs).to_vec();
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
