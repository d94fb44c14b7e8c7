//! The decision engine: Figure 8's classify → update predictor → predict
//! → translate flow, factored into one batch-capable implementation.
//!
//! Three consumers used to carry their own copy of this loop — the
//! governor's PMI handler, the serve shards' session state, and the
//! streaming accuracy evaluation — each with its own per-pid predictor
//! map, scoring and telemetry. A [`DecisionEngine`] is that loop, once:
//!
//! * [`step`](DecisionEngine::step) ingests one counter [`Sample`] and
//!   returns the [`Decision`] for that pid's next interval;
//! * [`step_many`](DecisionEngine::step_many) drains a whole queue of
//!   samples through the same path, amortizing per-pid map lookups
//!   (consecutive samples for one pid resolve their state once) and
//!   output allocation — the serve shard loop's batching win.
//!
//! The module is pure compute plus bulk-published telemetry — no
//! sockets, no threads, no clocks beyond sampled decision-latency
//! timing — so the decision path stays unit-testable and benchmarkable
//! in isolation. Phase
//! classification depends only on the DVFS-invariant
//! `mem_transactions / uops` ratio, which is why an engine fed the
//! counter stream of an in-process run makes **bit-identical** decisions
//! to that run (the equivalence tests pin this down).

use crate::config::EngineConfig;
use livephase_collections::{fnv1a, HashMap, FNV_OFFSET_BASIS};
use livephase_core::{
    predictor_from_spec, MemUopRate, PhaseId, PhaseSample, PredictionStats, Predictor,
    PredictorSpecError, StreamScorer,
};
use livephase_telemetry::{catalogue, Counter, Histogram};
use std::sync::Arc;
use std::time::Instant;

/// One performance-counter reading: what the PMI handler stops and reads
/// at the end of a sampling interval, attributed to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Process the interval belongs to.
    pub pid: u32,
    /// Micro-ops retired in the interval.
    pub uops: u64,
    /// Memory bus transactions in the interval (`BUS_TRAN_MEM`).
    pub mem_transactions: u64,
}

/// One computed decision: the engine's full output for a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Process the decision is for.
    pub pid: u32,
    /// Phase the elapsed interval was classified into.
    pub phase: PhaseId,
    /// Phase predicted for the next interval.
    pub predicted: PhaseId,
    /// Operating-point index to apply next (0 = fastest).
    pub op_point: u8,
    /// Running prediction accuracy of this pid's stream, in basis points
    /// (10 000 = every scored prediction so far was correct).
    pub confidence: u16,
}

/// Decisions between two publishes of the engine's local tallies to the
/// registry — and, on the `step` path, between two decision-latency
/// clock reads.
const PUBLISH_EVERY: u64 = 64;

/// The engine's telemetry: plain local tallies on the decision path,
/// published to the process-global registry in bulk. These are the
/// *governor-level* series — the same names whether decisions come from
/// an in-process run, a serve shard, or a bare engine — so every
/// consumer is instrumented identically.
///
/// A decision, a scored prediction or an eviction is one integer add
/// here. [`publish`](Self::publish) moves the tallies into the registry
/// atomics every [`PUBLISH_EVERY`] `step` decisions, at the end of every
/// `step_many` call, on `flush_metrics`, and on drop, so the registry is
/// exact whenever an engine is idle or gone. The published decisions
/// enter `governor_decision_us` with one weighted `record_n`, keeping
/// its count equal to `governor_decisions_total` after every publish.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    decisions_total: Arc<Counter>,
    decision_us: Arc<Histogram>,
    hits_total: Arc<Counter>,
    misses_total: Arc<Counter>,
    pids_evicted_total: Arc<Counter>,
    /// Decisions since the last publish.
    decisions: u64,
    /// Scored hits, misses and evictions since the last publish.
    hits: u64,
    misses: u64,
    evicted: u64,
    /// Latest sampled per-decision latency in microseconds (0 before
    /// the first sample), attributed to every decision published.
    latency_us: u128,
}

impl EngineMetrics {
    /// Fetches (or creates) the governor-level instrument handles.
    #[must_use]
    pub fn new() -> Self {
        let reg = livephase_telemetry::global();
        Self {
            decisions_total: reg.counter(&catalogue::GOVERNOR_DECISIONS_TOTAL, &[]),
            decision_us: reg.histogram(&catalogue::GOVERNOR_DECISION_US, &[]),
            hits_total: reg.counter(&catalogue::GOVERNOR_PREDICTOR_HITS_TOTAL, &[]),
            misses_total: reg.counter(&catalogue::GOVERNOR_PREDICTOR_MISSES_TOTAL, &[]),
            pids_evicted_total: reg.counter(&catalogue::ENGINE_PIDS_EVICTED_TOTAL, &[]),
            decisions: 0,
            hits: 0,
            misses: 0,
            evicted: 0,
            latency_us: 0,
        }
    }

    /// Records one per-pid state eviction.
    fn record_pid_evicted(&mut self) {
        self.evicted += 1;
    }

    /// Records one scored prediction outcome.
    fn record_scored(&mut self, correct: bool) {
        if correct {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Publishes every pending tally to the registry and clears it, so
    /// publishing twice never double-counts. The pending decisions are
    /// recorded at `sampled_us` (a fresh per-decision latency sample) or,
    /// without one, at the latest sample taken.
    fn publish(&mut self, sampled_us: Option<u128>) {
        if let Some(us) = sampled_us {
            self.latency_us = us;
        }
        let decisions = std::mem::take(&mut self.decisions);
        if decisions > 0 {
            self.decisions_total.add(decisions);
            self.decision_us
                .record_n_saturating(self.latency_us, decisions);
        }
        for (tally, counter) in [
            (&mut self.hits, &self.hits_total),
            (&mut self.misses, &self.misses_total),
            (&mut self.evicted, &self.pids_evicted_total),
        ] {
            let n = std::mem::take(tally);
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

impl Drop for EngineMetrics {
    fn drop(&mut self) {
        self.publish(None);
    }
}

/// Accumulates DVFS transitions by `(from, to)` operating-point pair and
/// flushes them to the process-global registry in one labeled burst —
/// label formatting happens at flush time, never on the decision path.
///
/// Stored as a dense `dim × dim` matrix (operating-point indices are
/// small — six on the Pentium M), so a record is one bounds check and
/// one add: no hashing on the per-decision path. The matrix grows on
/// demand if a platform has more settings.
#[derive(Debug, Default)]
pub(crate) struct TransitionTracker {
    dim: usize,
    counts: Vec<u64>,
}

impl TransitionTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decided operating point against the previous one; a
    /// no-op when the setting is unchanged.
    pub fn record(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let needed = from.max(to) + 1;
        if needed > self.dim {
            self.grow(needed);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "from, to < dim after grow; counts has dim*dim cells"
        )]
        let cell = &mut self.counts[from * self.dim + to];
        *cell += 1;
    }

    /// Count recorded for one `(from, to)` pair since the last flush.
    #[cfg(test)]
    fn count(&self, from: usize, to: usize) -> u64 {
        if from.max(to) < self.dim {
            self.counts[from * self.dim + to]
        } else {
            0
        }
    }

    /// Re-lays the matrix out at a larger dimension, preserving counts.
    #[expect(
        clippy::indexing_slicing,
        reason = "from, to < dim <= new_dim; the buffers have dim² and new_dim² cells"
    )]
    fn grow(&mut self, needed: usize) {
        let new_dim = needed.max(self.dim * 2);
        let mut counts = vec![0u64; new_dim * new_dim];
        for from in 0..self.dim {
            for to in 0..self.dim {
                counts[from * new_dim + to] = self.counts[from * self.dim + to];
            }
        }
        self.dim = new_dim;
        self.counts = counts;
    }

    /// Pushes the accumulated pairs into the registry and clears them,
    /// so flushing twice never double-counts.
    pub fn flush(&mut self) {
        let reg = livephase_telemetry::global();
        let dim = self.dim;
        for (cell, n) in self.counts.iter_mut().enumerate() {
            let n = std::mem::take(n);
            if n == 0 {
                continue;
            }
            let (from, to) = (cell / dim, cell % dim);
            reg.counter(
                &catalogue::GOVERNOR_DVFS_TRANSITIONS_TOTAL,
                &[&from.to_string(), &to.to_string()],
            )
            .add(n);
        }
    }
}

impl Drop for TransitionTracker {
    fn drop(&mut self) {
        self.flush();
    }
}

/// FNV-1a for the pid → slot index: pids are small integers and the
/// index is probed at most once per decision (once per *run* in
/// `step_many`, never for the newest pid), so
/// the default SipHash's DoS hardening buys nothing here and costs a
/// measurable slice of the per-decision budget.
#[derive(Debug, Clone)]
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

#[derive(Debug, Default, Clone)]
struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(FNV_OFFSET_BASIS)
    }
}

type BoxedPredictorFactory = Box<dyn Fn() -> Box<dyn Predictor> + Send>;

/// Everything the engine keeps per process: the predictor instance, the
/// streaming scorer, the operating point last decided for it (for
/// transition accounting), and its slot's links in the recency list.
struct PidState {
    pid: u32,
    predictor: Box<dyn Predictor>,
    scorer: StreamScorer,
    /// Operating point of the previous decision; 0 (the fastest setting)
    /// initially, matching the simulated CPU's starting DVFS index.
    last_op: u8,
    /// Slot of the pid stepped next after this one (`NIL`: the newest).
    newer: u32,
    /// Slot of the pid stepped last before this one (`NIL`: the oldest,
    /// the next eviction victim).
    older: u32,
}

impl PidState {
    fn new(factory: &BoxedPredictorFactory, pid: u32) -> Self {
        Self {
            pid,
            predictor: factory(),
            scorer: StreamScorer::new(),
            last_op: 0,
            newer: NIL,
            older: NIL,
        }
    }
}

/// Default capacity of the per-pid state map: generous enough for every
/// scenario shipped today (the fleet stress tests run 10k+ pids) while
/// still bounding a long-lived serve shard against pid churn.
pub const DEFAULT_MAX_PIDS: usize = 65_536;

/// The end of the recency list: no slot.
const NIL: u32 = u32::MAX;

/// The per-pid states: a slab of slots, a `pid → slot` FNV index, and
/// the recency order, least- to most-recently stepped, doubly linked
/// through the slots by `u32` index (live pids are distinct `u32`s, so
/// an index fits one). A touch probes the index at most once; a freed
/// slot holds no state and is reused, through `free`, before the slab
/// grows.
struct PidTable {
    index: HashMap<u32, u32, FnvBuild>,
    slots: Vec<Option<PidState>>,
    free: Vec<u32>,
    newest: u32,
    oldest: u32,
}

impl PidTable {
    fn new() -> Self {
        Self {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }

    fn slot(&self, i: u32) -> Option<&PidState> {
        self.slots.get(i as usize)?.as_ref()
    }

    fn slot_mut(&mut self, i: u32) -> Option<&mut PidState> {
        self.slots.get_mut(i as usize)?.as_mut()
    }

    fn get(&self, pid: u32) -> Option<&PidState> {
        self.slot(*self.index.get(&pid)?)
    }

    /// Takes slot `i` off the recency list: its former neighbours point
    /// at each other, or the list ends move inward.
    fn unlink(&mut self, i: u32) {
        let Some(&PidState { newer, older, .. }) = self.slot(i) else {
            return;
        };
        match self.slot_mut(newer) {
            Some(s) => s.older = older,
            None => self.newest = older,
        }
        match self.slot_mut(older) {
            Some(s) => s.newer = newer,
            None => self.oldest = newer,
        }
    }

    /// Links slot `i` in at the newest end.
    fn link_newest(&mut self, i: u32) {
        let older = std::mem::replace(&mut self.newest, i);
        match self.slot_mut(older) {
            Some(s) => s.newer = i,
            None => self.oldest = i,
        }
        if let Some(s) = self.slot_mut(i) {
            (s.newer, s.older) = (NIL, older);
        }
    }

    /// Drops `pid`'s state now and frees its slot for the next new pid.
    fn remove(&mut self, pid: u32) -> bool {
        let Some(i) = self.index.remove(&pid) else {
            return false;
        };
        self.unlink(i);
        if let Some(slot) = self.slots.get_mut(i as usize) {
            *slot = None;
        }
        self.free.push(i);
        true
    }

    /// Resolves (creating if needed) `pid`'s state and makes it the
    /// newest; a new pid first evicts the oldest while `max_pids` live.
    fn touch(
        &mut self,
        max_pids: usize,
        factory: &BoxedPredictorFactory,
        metrics: &mut EngineMetrics,
        pid: u32,
    ) -> &mut PidState {
        let i = if self.slot(self.newest).is_some_and(|s| s.pid == pid) {
            self.newest
        } else if let Some(&i) = self.index.get(&pid) {
            self.unlink(i);
            self.link_newest(i);
            i
        } else {
            while self.index.len() >= max_pids.max(1) {
                let Some(victim) = self.slot(self.oldest).map(|s| s.pid) else {
                    break;
                };
                self.remove(victim);
                metrics.record_pid_evicted();
            }
            let i = self.free.pop().unwrap_or_else(|| {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            });
            if let Some(slot) = self.slots.get_mut(i as usize) {
                *slot = Some(PidState::new(factory, pid));
            }
            self.index.insert(pid, i);
            self.link_newest(i);
            i
        };
        match self.slot_mut(i) {
            Some(state) => state,
            None => unreachable!("a touched pid's slot is live"),
        }
    }
}

/// The canonical decision pipeline: per-pid predictor family, prediction
/// scoring, and phase → operating-point translation behind one API.
pub struct DecisionEngine {
    config: EngineConfig,
    factory: BoxedPredictorFactory,
    pids: PidTable,
    /// Capacity bound on `pids`; least-recently-used streams are evicted
    /// (with their predictor history) once it is reached.
    max_pids: usize,
    name: String,
    metrics: EngineMetrics,
    transitions: TransitionTracker,
}

impl std::fmt::Debug for DecisionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionEngine")
            .field("name", &self.name)
            .field("platform", &self.config.platform())
            .field("processes", &self.processes())
            .finish()
    }
}

impl DecisionEngine {
    /// Creates an engine whose per-pid predictors come from `factory`,
    /// one fresh instance per pid stream — any [`Predictor`], including
    /// wrappers and replays the spec grammar does not name. The display
    /// name defaults to `Proactive(<predictor>)`: management driven by the
    /// *predicted* next phase, the paper's proposal.
    #[must_use]
    pub fn new(
        config: EngineConfig,
        factory: impl Fn() -> Box<dyn Predictor> + Send + 'static,
    ) -> Self {
        let name = format!("Proactive({})", factory().name());
        Self {
            config,
            factory: Box::new(factory),
            pids: PidTable::new(),
            max_pids: DEFAULT_MAX_PIDS,
            name,
            metrics: EngineMetrics::new(),
            transitions: TransitionTracker::new(),
        }
    }

    /// Creates an engine whose per-pid predictors are built from
    /// `predictor_spec` (e.g. `gpht:8:128`).
    ///
    /// # Errors
    ///
    /// Returns the spec error if the predictor specification does not
    /// parse — checked here, once, so the per-pid factory cannot fail.
    pub fn from_spec(
        config: EngineConfig,
        predictor_spec: &str,
    ) -> Result<Self, PredictorSpecError> {
        predictor_from_spec(predictor_spec)?;
        let spec = predictor_spec.to_owned();
        Ok(Self::new(config, move || {
            match predictor_from_spec(&spec) {
                Ok(p) => p,
                // The spec parsed when the engine was built and the grammar
                // is deterministic, so a re-parse cannot fail.
                Err(_) => unreachable!("predictor spec validated at engine construction"),
            }
        }))
    }

    /// Bounds the per-pid state map to `max_pids` streams (builder style);
    /// the least-recently-stepped stream is evicted — predictor history
    /// and scoring included — when a new pid arrives at capacity, and
    /// `engine_pids_evicted_total` counts each eviction. A bound of zero
    /// is treated as one (the engine always holds the stream it is
    /// deciding for).
    #[must_use]
    pub fn with_max_pids(mut self, max_pids: usize) -> Self {
        self.max_pids = max_pids.max(1);
        self
    }

    /// The capacity bound on concurrent per-pid streams.
    #[must_use]
    pub fn max_pids(&self) -> usize {
        self.max_pids
    }

    /// Overrides the display name (e.g. `Reactive(LastValue)` for the
    /// prior-work reactive system, which is a last-value engine by
    /// another name, or `Oracle` for a trace replay).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The engine's display name, used as the policy label in reports.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The deployment context decisions are made in.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Ingests one sample and returns the decision for that pid's next
    /// interval — the PMI handler's steps 2–4: classify the observed
    /// rate, score and update the predictor, translate the prediction.
    ///
    /// Telemetry costs plain integer adds here: only the call that
    /// completes a `PUBLISH_EVERY`-decision batch reads the clock, and
    /// its latency is recorded once for the whole batch.
    #[expect(clippy::disallowed_methods, reason = "decision-latency histogram only")]
    pub fn step(&mut self, sample: &Sample) -> Decision {
        let started = (self.metrics.decisions + 1 >= PUBLISH_EVERY).then(Instant::now);
        let Self {
            config,
            factory,
            pids,
            max_pids,
            transitions,
            metrics,
            ..
        } = self;
        let state = pids.touch(*max_pids, factory, metrics, sample.pid);
        let d = step_pid(config, metrics, transitions, state, sample);
        metrics.decisions += 1;
        if let Some(started) = started {
            metrics.publish(Some(started.elapsed().as_micros()));
        }
        d
    }

    /// Drains a batch of samples through the decision path, appending one
    /// decision per sample to `out` in input order.
    ///
    /// Equivalent to calling [`step`](Self::step) per sample — the
    /// equivalence tests assert bit-exactness — but runs of consecutive
    /// samples for the same pid resolve their predictor state with a
    /// single map lookup, and `out` is grown once. This is the shard
    /// loop's hot path: a busy connection's queued samples are decided
    /// in one swing.
    #[expect(clippy::disallowed_methods, reason = "decision-latency histogram only")]
    #[expect(
        clippy::indexing_slicing,
        reason = "i < samples.len() by the outer and the inner loop guards"
    )]
    pub fn step_many(&mut self, samples: &[Sample], out: &mut Vec<Decision>) {
        if samples.is_empty() {
            return;
        }
        let started = Instant::now();
        out.reserve(samples.len());
        let Self {
            config,
            factory,
            pids,
            max_pids,
            transitions,
            metrics,
            ..
        } = self;
        let mut i = 0;
        while i < samples.len() {
            let pid = samples[i].pid;
            let state = pids.touch(*max_pids, factory, metrics, pid);
            while i < samples.len() && samples[i].pid == pid {
                out.push(step_pid(config, metrics, transitions, state, &samples[i]));
                i += 1;
            }
        }
        // One clock pair per call: every pending decision is published
        // at this batch's amortized per-decision cost.
        let per_decision_us = started.elapsed().as_micros() / samples.len() as u128;
        metrics.decisions += samples.len() as u64;
        metrics.publish(Some(per_decision_us));
    }

    /// The prediction currently standing for `pid`, if any — what the
    /// next sample for that pid will be scored against.
    #[must_use]
    pub fn pending(&self, pid: u32) -> Option<PhaseId> {
        self.pids.get(pid).and_then(|s| s.scorer.pending())
    }

    /// Scores the standing prediction for `pid` against an observed
    /// phase **without** stepping the predictor or issuing a decision.
    ///
    /// This is the run-tail case: a workload that ends off the sampling
    /// grid leaves a partial interval whose phase is still meaningful
    /// for accuracy accounting, but execution is over and no decision
    /// will govern anything.
    pub fn score_tail(&mut self, pid: u32, observed: PhaseId) -> Option<bool> {
        let &i = self.pids.index.get(&pid)?;
        let state = self.pids.slot_mut(i)?;
        let (_, correct) = state.scorer.score(observed)?;
        self.metrics.record_scored(correct);
        Some(correct)
    }

    /// Aggregate prediction statistics across every pid stream.
    #[must_use]
    pub fn stats(&self) -> PredictionStats {
        // The fold is a commutative sum, so the slot order cannot
        // change the result.
        self.pids
            .slots
            .iter()
            .flatten()
            .fold(PredictionStats::default(), |acc, s| {
                let st = s.scorer.stats();
                PredictionStats {
                    total: acc.total + st.total,
                    correct: acc.correct + st.correct,
                }
            })
    }

    /// Prediction statistics for one pid stream, if it exists.
    #[must_use]
    pub fn pid_stats(&self, pid: u32) -> Option<PredictionStats> {
        self.pids.get(pid).map(|s| s.scorer.stats())
    }

    /// Number of pid streams with live predictor state.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.pids.index.len()
    }

    /// Drops a terminated pid's state.
    pub fn retire(&mut self, pid: u32) -> bool {
        self.pids.remove(pid)
    }

    /// Clears all per-pid state (predictors, scoring, transition
    /// baselines); accumulated telemetry is left alone.
    pub fn reset(&mut self) {
        self.pids = PidTable::new();
    }

    /// Publishes every pending telemetry tally (decisions, scored
    /// predictions, evictions) and the label-formatted DVFS transition
    /// pairs. Also runs on drop; flushing is idempotent.
    pub fn flush_metrics(&mut self) {
        self.metrics.publish(None);
        self.transitions.flush();
    }
}

/// One pid's classify → score → predict → translate step. Free-standing
/// so `step_many` can hold the pid's state across a run of samples while
/// the engine's other fields stay borrowed.
fn step_pid(
    config: &EngineConfig,
    metrics: &mut EngineMetrics,
    transitions: &mut TransitionTracker,
    state: &mut PidState,
    sample: &Sample,
) -> Decision {
    let rate = MemUopRate::from_counts(sample.mem_transactions, sample.uops);
    let phase = config.phase_map().classify_rate(rate);
    if let Some((_, correct)) = state.scorer.score(phase) {
        metrics.record_scored(correct);
    }
    let predicted = state.predictor.next(PhaseSample { rate, phase });
    state.scorer.predict(predicted);
    let op_point = config.op_point_for(predicted);
    transitions.record(usize::from(state.last_op), usize::from(op_point));
    state.last_op = op_point;
    Decision {
        pid: sample.pid,
        phase,
        predicted,
        op_point,
        confidence: state.scorer.confidence_bp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_core::CONFIDENCE_SCALE;

    fn engine(spec: &str) -> DecisionEngine {
        DecisionEngine::from_spec(EngineConfig::pentium_m(), spec).unwrap()
    }

    /// 100 M uops with these memory-transaction counts land in phases
    /// 1, 3 and 6 of the Table 1 map.
    const P1: Sample = Sample {
        pid: 1,
        uops: 100_000_000,
        mem_transactions: 0,
    };
    const P3: Sample = Sample {
        pid: 1,
        uops: 100_000_000,
        mem_transactions: 1_200_000,
    };
    const P6: Sample = Sample {
        pid: 1,
        uops: 100_000_000,
        mem_transactions: 4_000_000,
    };

    fn with_pid(s: Sample, pid: u32) -> Sample {
        Sample { pid, ..s }
    }

    #[test]
    fn bad_specs_are_rejected_once() {
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:0:128").is_err());
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "frobnicate").is_err());
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").is_ok());
    }

    #[test]
    fn factory_engines_match_their_spec_engines() {
        let mut built = DecisionEngine::new(EngineConfig::pentium_m(), || {
            Box::new(livephase_core::LastValue::new())
        });
        let mut parsed = engine("lastvalue");
        assert_eq!(built.name(), parsed.name());
        for s in [P1, P6, P3, P3, P1] {
            assert_eq!(built.step(&s), parsed.step(&s));
        }
    }

    #[test]
    fn names_follow_the_policy_convention() {
        assert_eq!(engine("gpht:8:128").name(), "Proactive(GPHT_8_128)");
        assert_eq!(
            engine("lastvalue").with_name("Reactive(LastValue)").name(),
            "Reactive(LastValue)"
        );
    }

    #[test]
    fn first_decision_has_full_confidence_and_no_score() {
        let mut e = engine("lastvalue");
        let d = e.step(&P3);
        assert_eq!(d.phase.get(), 3);
        assert_eq!(d.confidence, CONFIDENCE_SCALE, "nothing scored yet");
        assert_eq!(e.stats().total, 0);
        let d2 = e.step(&P3);
        assert_eq!(e.stats().total, 1);
        assert_eq!(e.stats().correct, 1, "last-value repeated the phase");
        assert_eq!(d2.confidence, CONFIDENCE_SCALE);
    }

    #[test]
    fn gpht_engine_anticipates_alternation() {
        let mut e = engine("gpht:8:128");
        for _ in 0..50 {
            let _ = e.step(&P1);
            let _ = e.step(&P6);
        }
        let d = e.step(&P1);
        assert_eq!(d.op_point, 5, "after P1, expects P6 next");
        assert_eq!(d.predicted.get(), 6);
        let d = e.step(&P6);
        assert_eq!(d.op_point, 0, "after P6, expects P1 next");
    }

    #[test]
    fn step_many_is_bit_exact_with_step() {
        // A mixed-pid stream with runs and alternations, so batching
        // exercises both the run-coalescing path and pid switches.
        let mut samples = Vec::new();
        for round in 0u32..40 {
            samples.push(with_pid(P1, 1));
            samples.push(with_pid(P6, 1));
            samples.push(with_pid(P3, 2));
            if round % 3 == 0 {
                samples.push(with_pid(P3, 2));
                samples.push(with_pid(P1, 3));
            }
        }

        let mut one = engine("gpht:8:128");
        let expected: Vec<Decision> = samples.iter().map(|s| one.step(s)).collect();

        let mut batched = engine("gpht:8:128");
        let mut got = Vec::new();
        // Split into uneven chunks to exercise batch boundaries.
        for chunk in samples.chunks(7) {
            batched.step_many(chunk, &mut got);
        }
        assert_eq!(got, expected, "step_many must equal step, bit for bit");
        assert_eq!(batched.stats(), one.stats());
        assert_eq!(batched.processes(), one.processes());
    }

    #[test]
    fn pids_are_isolated() {
        let mut e = engine("gpht:8:128");
        for _ in 0..50 {
            let _ = e.step(&with_pid(P1, 1));
            let _ = e.step(&with_pid(P6, 1));
            let _ = e.step(&with_pid(P3, 2));
        }
        assert_eq!(e.processes(), 2);
        let d1 = e.step(&with_pid(P1, 1));
        assert_eq!(d1.op_point, 5, "pid 1's GPHT anticipates the alternation");
        let d2 = e.step(&with_pid(P3, 2));
        assert_eq!(d2.op_point, 2, "pid 2 stays in P3");
        assert!(d2.confidence > 9_000, "constant stream predicts well");
        assert!(e.pid_stats(2).is_some());
        assert!(e.retire(1));
        assert_eq!(e.processes(), 1);
        assert!(!e.retire(1));
        assert_eq!(e.pending(1), None);
    }

    #[test]
    fn score_tail_scores_without_deciding() {
        let mut e = engine("lastvalue");
        let _ = e.step(&P3);
        assert_eq!(e.pending(1), Some(PhaseId::new(3)));
        assert_eq!(e.score_tail(1, PhaseId::new(3)), Some(true));
        assert_eq!(e.stats().total, 1);
        assert_eq!(e.pending(1), None, "tail scoring consumes the prediction");
        assert_eq!(e.score_tail(1, PhaseId::new(3)), None, "nothing standing");
        assert_eq!(e.score_tail(99, PhaseId::new(3)), None, "unknown pid");
    }

    #[test]
    fn reset_clears_per_pid_state() {
        let mut e = engine("gpht:8:128");
        let _ = e.step(&P3);
        let _ = e.step(&with_pid(P3, 2));
        e.reset();
        assert_eq!(e.processes(), 0);
        assert_eq!(e.stats(), PredictionStats::default());
    }

    #[test]
    fn lru_bound_evicts_least_recently_stepped_pid() {
        let mut e = engine("gpht:8:128").with_max_pids(2);
        assert_eq!(e.max_pids(), 2);
        let _ = e.step(&with_pid(P1, 1));
        let _ = e.step(&with_pid(P1, 2));
        // Touch pid 1 so pid 2 is the LRU victim.
        let _ = e.step(&with_pid(P1, 1));
        let _ = e.step(&with_pid(P1, 3));
        assert_eq!(e.processes(), 2);
        assert!(e.pid_stats(1).is_some(), "recently used pid survives");
        assert!(e.pid_stats(2).is_none(), "LRU pid was evicted");
        assert!(e.pid_stats(3).is_some());
        // A returning evicted pid starts from scratch (fresh predictor).
        let d = e.step(&with_pid(P3, 2));
        assert_eq!(d.confidence, CONFIDENCE_SCALE, "no scored history");
        assert!(e.pid_stats(1).is_none(), "pid 1 evicted in turn");
    }

    #[test]
    fn lru_bound_of_zero_still_holds_the_live_stream() {
        let mut e = engine("lastvalue").with_max_pids(0);
        assert_eq!(e.max_pids(), 1);
        let _ = e.step(&with_pid(P3, 1));
        let _ = e.step(&with_pid(P3, 2));
        assert_eq!(e.processes(), 1);
        assert!(e.pid_stats(2).is_some());
    }

    #[test]
    fn retire_and_reset_keep_the_lru_index_consistent() {
        let mut e = engine("lastvalue").with_max_pids(2);
        let _ = e.step(&with_pid(P3, 1));
        let _ = e.step(&with_pid(P3, 2));
        assert!(e.retire(1));
        // Capacity freed: two more pids fit without evicting pid 2's slot
        // twice (a stale index entry would make this under-count).
        let _ = e.step(&with_pid(P3, 3));
        assert_eq!(e.processes(), 2);
        assert!(e.pid_stats(2).is_some());
        e.reset();
        assert_eq!(e.processes(), 0);
        let _ = e.step(&with_pid(P3, 4));
        let _ = e.step(&with_pid(P3, 5));
        assert_eq!(e.processes(), 2);
    }

    #[test]
    fn pid_churn_stays_within_the_slab_bound() {
        // Driven on the table itself, so the eviction tally is read
        // before any publish moves it to the registry.
        let factory: BoxedPredictorFactory =
            Box::new(|| Box::new(livephase_core::LastValue::new()));
        let mut metrics = EngineMetrics::new();
        let mut t = PidTable::new();
        // 10 000 distinct pids: pid 0 is re-stepped every round, so it
        // survives only if a touch relinks it and eviction takes the
        // oldest end.
        for pid in 1..10_000 {
            let _ = t.touch(8, &factory, &mut metrics, 0);
            let _ = t.touch(8, &factory, &mut metrics, pid);
            assert!(t.slots.len() <= 8, "slab grew to {}", t.slots.len());
        }
        assert_eq!(std::mem::take(&mut metrics.evicted), 10_000 - 8);
        let mut order = Vec::new();
        let mut i = t.newest;
        while let Some(s) = t.slot(i) {
            order.push(s.pid);
            i = s.older;
        }
        assert_eq!(order, [9_999, 0, 9_998, 9_997, 9_996, 9_995, 9_994, 9_993]);
        assert_eq!(t.slot(t.oldest).map(|s| s.pid), Some(9_993));
    }

    #[test]
    fn retired_slots_are_reused_before_the_slab_grows() {
        let mut e = engine("lastvalue");
        for pid in 1..=3 {
            let _ = e.step(&with_pid(P3, pid));
        }
        let slot = *e.pids.index.get(&2).unwrap();
        assert!(e.retire(2));
        assert!(
            e.pids.slot(slot).is_none(),
            "retire drops the state at once"
        );
        let _ = e.step(&with_pid(P3, 4));
        assert_eq!(
            e.pids.index.get(&4),
            Some(&slot),
            "the next new pid takes the freed slot"
        );
        assert_eq!(e.pids.slots.len(), 3);
    }

    #[test]
    fn eviction_is_bit_exact_for_surviving_streams() {
        // Streams for surviving pids must be unaffected by churn evicting
        // other pids around them.
        let mut churned = engine("gpht:8:128").with_max_pids(8);
        let mut solo = engine("gpht:8:128");
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for round in 0u32..60 {
            let s = if round % 2 == 0 {
                with_pid(P1, 7)
            } else {
                with_pid(P6, 7)
            };
            expected.push(solo.step(&s));
            got.push(churned.step(&s));
            // Churn: a parade of one-shot pids that evict each other but
            // never pid 7 (it is re-touched every round).
            let _ = churned.step(&with_pid(P3, 1000 + round));
        }
        assert_eq!(got, expected);
    }

    /// The stamp-indexed LRU the recency list replaced, kept as its
    /// oracle: every touch hands out a fresh monotonic stamp, and the
    /// smallest stamp in the `BTreeMap` index is the eviction victim.
    #[derive(Default)]
    struct StampLru {
        index: std::collections::BTreeMap<u64, u32>,
        stamps: HashMap<u32, u64>,
        next_stamp: u64,
    }

    impl StampLru {
        /// Marks `pid` most-recently-used, first evicting the
        /// least-recently-used pids while a new pid finds `cap` live
        /// ones; returns the victims.
        fn touch(&mut self, pid: u32, cap: usize) -> Vec<u32> {
            let mut victims = Vec::new();
            if self.stamps.get(&pid).is_none() {
                while self.stamps.len() >= cap {
                    let Some((&oldest, &victim)) = self.index.iter().next() else {
                        break;
                    };
                    self.index.remove(&oldest);
                    self.stamps.remove(&victim);
                    victims.push(victim);
                }
            }
            self.next_stamp += 1;
            if let Some(old) = self.stamps.insert(pid, self.next_stamp) {
                self.index.remove(&old);
            }
            self.index.insert(self.next_stamp, pid);
            victims
        }

        fn retire(&mut self, pid: u32) -> bool {
            let stamp = self.stamps.remove(&pid);
            if let Some(stamp) = stamp {
                self.index.remove(&stamp);
            }
            stamp.is_some()
        }
    }

    /// The reference engine: the stamp LRU decides which pids are live,
    /// and one dedicated unbounded engine per live pid decides for it,
    /// so an eviction shows up as a fresh predictor on the pid's return.
    struct OracleEngine {
        lru: StampLru,
        solo: HashMap<u32, DecisionEngine>,
        cap: usize,
    }

    impl OracleEngine {
        fn new(max_pids: usize) -> Self {
            Self {
                lru: StampLru::default(),
                solo: HashMap::new(),
                cap: max_pids.max(1),
            }
        }

        fn step(&mut self, s: &Sample) -> (Decision, Vec<u32>) {
            let victims = self.lru.touch(s.pid, self.cap);
            for v in &victims {
                self.solo.remove(v);
            }
            let solo = self
                .solo
                .entry(s.pid)
                .or_insert_with(|| engine("gpht:8:128"));
            (solo.step(s), victims)
        }

        fn retire(&mut self, pid: u32) -> bool {
            self.solo.remove(&pid);
            self.lru.retire(pid)
        }

        fn reset(&mut self) {
            self.lru = StampLru::default();
            self.solo.clear();
        }
    }

    const MAX_PID: u32 = 12;

    fn live_pids(e: &DecisionEngine) -> Vec<u32> {
        (1..=MAX_PID)
            .filter(|&p| e.pid_stats(p).is_some())
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn recency_list_matches_the_stamp_lru(
            max_pids in 0usize..=4,
            n_pids in 1u32..=MAX_PID,
            ops in proptest::collection::vec(
                (
                    0u8..20,
                    0u32..MAX_PID,
                    0usize..3,
                    proptest::collection::vec((0u32..MAX_PID, 0usize..3), 0..=8),
                ),
                0..=80,
            ),
        ) {
            let sample = |raw: u32, shape: usize| with_pid([P1, P3, P6][shape], raw % n_pids + 1);
            let mut e = engine("gpht:8:128").with_max_pids(max_pids);
            let mut oracle = OracleEngine::new(max_pids);
            for (kind, raw, shape, batch) in &ops {
                match kind {
                    0..=11 => {
                        let s = sample(*raw, *shape);
                        let before = live_pids(&e);
                        let (expected, victims) = oracle.step(&s);
                        proptest::prop_assert_eq!(e.step(&s), expected, "step {:?}", s);
                        let after = live_pids(&e);
                        let evicted: Vec<u32> =
                            before.into_iter().filter(|p| !after.contains(p)).collect();
                        let mut victims = victims;
                        victims.sort_unstable();
                        proptest::prop_assert_eq!(evicted, victims, "victims of {:?}", s);
                    }
                    12..=16 => {
                        let samples: Vec<Sample> =
                            batch.iter().map(|&(raw, shape)| sample(raw, shape)).collect();
                        let expected: Vec<Decision> =
                            samples.iter().map(|s| oracle.step(s).0).collect();
                        let mut got = Vec::new();
                        e.step_many(&samples, &mut got);
                        proptest::prop_assert_eq!(got, expected, "step_many {:?}", samples);
                    }
                    17 | 18 => {
                        let pid = raw % n_pids + 1;
                        proptest::prop_assert_eq!(e.retire(pid), oracle.retire(pid));
                    }
                    _ => {
                        e.reset();
                        oracle.reset();
                    }
                }
                proptest::prop_assert_eq!(e.processes(), oracle.lru.stamps.len());
                for pid in 1..=MAX_PID {
                    let expected = oracle.solo.get(&pid).and_then(|o| o.pid_stats(pid));
                    proptest::prop_assert_eq!(e.pid_stats(pid), expected, "pid {}", pid);
                }
            }
        }
    }

    #[test]
    fn transitions_accumulate_and_flush() {
        let mut t = TransitionTracker::new();
        t.record(0, 0);
        t.record(0, 5);
        t.record(5, 2);
        t.record(0, 5);
        assert_eq!(t.count(0, 5), 2);
        assert_eq!(t.count(0, 0), 0, "no-op transitions dropped");
        assert_eq!(t.count(17, 3), 0, "never-seen pair");
        t.record(9, 2); // grows the matrix, preserving counts
        assert_eq!(t.count(0, 5), 2);
        assert_eq!(t.count(9, 2), 1);
        t.flush();
        assert_eq!(t.count(0, 5), 0, "flush drains");
        t.flush(); // idempotent on empty
    }
}
