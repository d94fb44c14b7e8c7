//! The simulated CPU: timing + power + counters + DVFS glued together.
//!
//! The driving loop mirrors the deployed system of the paper:
//!
//! ```text
//! ┌──────────────┐  push_work   ┌─────┐  run_to_pmi   ┌────────────────┐
//! │ workload gen │ ───────────▶ │ Cpu │ ────────────▶ │ PMI handler    │
//! └──────────────┘              └─────┘  PmiRecord    │ (governor)     │
//!                                  ▲                  └────────────────┘
//!                                  │ set_dvfs / service_pmi_overhead │
//!                                  └─────────────────────────────────┘
//! ```
//!
//! Work is executed at the current operating point; every
//! `pmi_granularity_uops` retired micro-ops the uop counter overflows and a
//! [`PmiRecord`] is produced — exactly the stop/read/clear/restart protocol
//! of the paper's interrupt handler. The caller (the governor) then charges
//! handler overhead and optionally switches the operating point before
//! resuming execution. [`Cpu::run_to_pmi_with`] fuses the left edge of the
//! diagram: instead of a pre-filled queue, work chunks are pulled from a
//! generator callback one at a time, so a whole run needs O(1) workload
//! memory.

use crate::dvfs::{DvfsController, InvalidSetting};
use crate::opp::{OperatingPoint, OperatingPointTable};
use crate::pmc::{CounterFile, EventCounts};
use crate::power::{PowerInput, PowerModel, PowerModelKind};
use crate::timing::{IntervalWork, TimingModel};
use crate::trace::{PowerSegment, PowerTrace};
use livephase_collections::VecDeque;
use livephase_core::IntervalMetrics;
use livephase_telemetry::{catalogue, Counter, Gauge};
use std::sync::Arc;
use std::time::Instant;

/// Static configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Available DVFS settings, fastest first.
    pub opp_table: OperatingPointTable,
    /// Execution-time model.
    pub timing: TimingModel,
    /// Power-model backend (the analytic calibration by default; learned
    /// backends can be swapped in without touching any consumer).
    pub power: PowerModelKind,
    /// Micro-ops per sampling interval (the paper uses 100 M).
    pub pmi_granularity_uops: u64,
    /// Stall charged per actual voltage/frequency switch, in seconds.
    pub dvfs_transition_s: f64,
    /// Whether to record the analog power waveform for the DAQ rig.
    /// Recording costs memory proportional to run length.
    pub record_power_trace: bool,
}

impl PlatformConfig {
    /// The paper's prototype platform: Table 2 settings, 100 M-uop PMI
    /// granularity, 50 µs DVFS transitions, trace recording off.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            opp_table: OperatingPointTable::pentium_m(),
            timing: TimingModel::pentium_m(),
            power: PowerModelKind::default(),
            pmi_granularity_uops: 100_000_000,
            dvfs_transition_s: 50e-6,
            record_power_trace: false,
        }
    }

    /// Enables power-waveform recording (builder style).
    #[must_use]
    pub fn with_power_trace(mut self) -> Self {
        self.record_power_trace = true;
        self
    }

    fn validate(&self) {
        assert!(
            self.pmi_granularity_uops > 0,
            "PMI granularity must be positive"
        );
        assert!(
            self.dvfs_transition_s.is_finite() && self.dvfs_transition_s >= 0.0,
            "DVFS transition latency must be finite and non-negative"
        );
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::pentium_m()
    }
}

/// What the PMI handler sees when the uop counter overflows: the interval's
/// counter readings plus the simulator's ground-truth accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmiRecord {
    /// Counter readings for the elapsed interval (the handler's only real
    /// input on the deployed system).
    pub metrics: IntervalMetrics,
    /// Simulated wall-clock time at the interrupt, in seconds.
    pub timestamp_s: f64,
    /// Wall-clock duration of the elapsed interval, in seconds.
    pub interval_seconds: f64,
    /// Energy consumed during the elapsed interval, in joules
    /// (ground truth; the paper measures this externally with the DAQ).
    pub interval_energy_j: f64,
    /// Operating point in effect when the interrupt fired.
    pub opp: OperatingPoint,
    /// DVFS setting index (0 = fastest) in effect when the interrupt fired.
    pub dvfs_index: usize,
}

/// Whole-run ground-truth totals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunTotals {
    /// Total simulated wall-clock time in seconds.
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Micro-ops retired.
    pub uops: u64,
    /// Memory bus transactions issued.
    pub mem_transactions: u64,
}

impl RunTotals {
    /// Billions of instructions per second over the whole run.
    #[must_use]
    pub fn bips(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.time_s / 1e9
        }
    }

    /// Average power over the whole run, in watts.
    #[must_use]
    pub fn average_power_w(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.energy_j / self.time_s
        }
    }

    /// Energy-delay product in joule-seconds — the paper's headline
    /// power/performance efficiency metric.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }
}

/// Saved per-vCPU counter state for virtualized multiplexing.
///
/// A hypervisor multiplexing several tenants onto one [`Cpu`] stores the
/// outgoing tenant's context on every switch and loads the incoming one:
/// the counter file (PMC deltas, TSC, PMI arm state) plus the partial
/// sampling-interval time/energy the tenant has already accrued. Because
/// the counters travel with the tenant, its per-interval Mem/Uop readings
/// are bit-for-bit identical to a solo run regardless of how execution is
/// sliced — the property the paper's phase classifier depends on.
#[derive(Debug, Clone)]
pub struct VcpuContext {
    counters: CounterFile,
    /// Simulated seconds accrued in the tenant's current partial interval.
    partial_time_s: f64,
    /// Joules accrued in the tenant's current partial interval.
    partial_energy_j: f64,
}

impl VcpuContext {
    /// A fresh context with idle counters armed to overflow every
    /// `pmi_granularity_uops` retired micro-ops.
    ///
    /// # Panics
    ///
    /// Panics if `pmi_granularity_uops` is zero.
    #[must_use]
    pub fn new(pmi_granularity_uops: u64) -> Self {
        Self {
            counters: CounterFile::pentium_m(pmi_granularity_uops),
            partial_time_s: 0.0,
            partial_energy_j: 0.0,
        }
    }

    /// Simulated seconds accrued in the saved partial interval.
    #[must_use]
    pub fn partial_time_s(&self) -> f64 {
        self.partial_time_s
    }

    /// Joules accrued in the saved partial interval.
    #[must_use]
    pub fn partial_energy_j(&self) -> f64 {
        self.partial_energy_j
    }
}

/// PMIs between two publishes of a CPU's PMI tally (and throughput
/// gauge) to the registry.
const PUBLISH_EVERY_PMIS: u64 = 64;

/// Handles into the global telemetry registry, resolved once per CPU so
/// the PMI path never takes the registry lock, plus the CPU's local PMI
/// tally: a PMI is one integer add, published in bulk every
/// [`PUBLISH_EVERY_PMIS`] PMIs and when the CPU is dropped.
#[derive(Debug)]
struct CpuMetrics {
    pmi_total: Arc<Counter>,
    /// Resolved on the CPU's first adaptive re-arm, so runs that never
    /// re-arm leave the series unregistered.
    pmi_rearm_total: Option<Arc<Counter>>,
    sim_cycles_per_wall_second: Arc<Gauge>,
    /// PMIs delivered since the last publish.
    pmis: u64,
    /// Wall-clock construction time, for the throughput gauge.
    wall_start: Instant,
}

impl CpuMetrics {
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall-clock throughput gauge only"
    )]
    fn new() -> Self {
        let reg = livephase_telemetry::global();
        Self {
            pmi_total: reg.counter(&catalogue::PMSIM_PMI_TOTAL, &[]),
            pmi_rearm_total: None,
            sim_cycles_per_wall_second: reg
                .gauge(&catalogue::PMSIM_SIM_CYCLES_PER_WALL_SECOND, &[]),
            pmis: 0,
            wall_start: Instant::now(),
        }
    }

    /// Counts one adaptive re-arm of the PMI threshold.
    fn record_rearm(&mut self) {
        self.pmi_rearm_total
            .get_or_insert_with(|| {
                livephase_telemetry::global().counter(&catalogue::PMSIM_PMI_REARM_TOTAL, &[])
            })
            .inc();
    }

    /// Publishes the pending PMI tally and, with it, the throughput gauge
    /// at `tsc` simulated cycles — the gauge's only clock read.
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall-clock throughput gauge only"
    )]
    fn publish(&mut self, tsc: f64) {
        let pmis = std::mem::take(&mut self.pmis);
        if pmis == 0 {
            return;
        }
        self.pmi_total.add(pmis);
        let wall_s = self.wall_start.elapsed().as_secs_f64();
        if wall_s > 0.0 {
            self.sim_cycles_per_wall_second.set((tsc / wall_s) as i64);
        }
    }
}

/// A cloned CPU shares the registry handles but starts with an empty
/// tally: PMIs the original delivered are the original's to publish.
impl Clone for CpuMetrics {
    fn clone(&self) -> Self {
        Self {
            pmi_total: Arc::clone(&self.pmi_total),
            pmi_rearm_total: self.pmi_rearm_total.clone(),
            sim_cycles_per_wall_second: Arc::clone(&self.sim_cycles_per_wall_second),
            pmis: 0,
            wall_start: self.wall_start,
        }
    }
}

/// The simulated processor.
///
/// Borrows its [`PlatformConfig`] — many CPUs (e.g. a parallel sweep's
/// workers) share one platform description without cloning it per run.
#[derive(Debug, Clone)]
pub struct Cpu<'a> {
    config: &'a PlatformConfig,
    counters: CounterFile,
    dvfs: DvfsController,
    pending: VecDeque<IntervalWork>,
    totals: RunTotals,
    /// Time/energy marks at the start of the current sampling interval.
    interval_start_time_s: f64,
    interval_start_energy_j: f64,
    trace: PowerTrace,
    pport_bits: u8,
    metrics: CpuMetrics,
}

impl<'a> Cpu<'a> {
    /// Creates a CPU at the fastest operating point with idle counters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero PMI granularity or a
    /// negative transition latency).
    #[must_use]
    pub fn new(config: &'a PlatformConfig) -> Self {
        config.validate();
        let counters = CounterFile::pentium_m(config.pmi_granularity_uops);
        let dvfs = DvfsController::new(config.opp_table.clone(), config.dvfs_transition_s);
        Self {
            config,
            counters,
            dvfs,
            pending: VecDeque::new(),
            totals: RunTotals::default(),
            interval_start_time_s: 0.0,
            interval_start_energy_j: 0.0,
            trace: PowerTrace::new(),
            pport_bits: 0,
            metrics: CpuMetrics::new(),
        }
    }

    /// Queues a chunk of work for execution.
    pub fn push_work(&mut self, work: IntervalWork) {
        self.pending.push_back(work);
    }

    /// Executes queued work until the uop counter overflows, then performs
    /// the handler's stop/read/clear/restart protocol and returns the
    /// interval record. Returns `None` when the queue empties before the
    /// overflow threshold — push more work and call again, or finish with
    /// [`flush_partial_interval`](Self::flush_partial_interval).
    pub fn run_to_pmi(&mut self) -> Option<PmiRecord> {
        loop {
            if self.counters.overflow_pending() {
                return Some(self.take_interval_record());
            }
            let work = self.pending.pop_front()?;
            // The uop counter is always armed; treat the impossible
            // unarmed state as an empty queue rather than panicking.
            let remaining = self.counters.uops_until_overflow()?;
            debug_assert!(remaining > 0);
            let (now, rest) = if work.uops > remaining {
                work.split_at_uops(remaining)
            } else {
                (work, None)
            };
            if let Some(rest) = rest {
                self.pending.push_front(rest);
            }
            self.execute_chunk(&now);
        }
    }

    /// Streaming form of [`run_to_pmi`](Self::run_to_pmi): whenever the
    /// work queue empties before the overflow threshold, pulls the next
    /// chunk from `refill` — the fused generator → platform pipeline that
    /// never materializes a workload. Returns `None` only when `refill` is
    /// exhausted (finish with
    /// [`flush_partial_interval`](Self::flush_partial_interval)).
    pub fn run_to_pmi_with(
        &mut self,
        mut refill: impl FnMut() -> Option<IntervalWork>,
    ) -> Option<PmiRecord> {
        loop {
            if let Some(r) = self.run_to_pmi() {
                return Some(r);
            }
            self.push_work(refill()?);
        }
    }

    /// Reads out whatever partial interval has accumulated, if any —
    /// the tail of a run that ends off the sampling grid.
    pub fn flush_partial_interval(&mut self) -> Option<PmiRecord> {
        // Drain any executable leftovers first (callers normally already
        // exhausted `run_to_pmi`); a still-pending full interval is
        // surfaced before the partial tail.
        if let Some(r) = self.run_to_pmi() {
            return Some(r);
        }
        if self.counters.read().uops_retired == 0 {
            return None;
        }
        Some(self.take_interval_record())
    }

    /// Charges the PMI handler's own execution cost: a stall at the current
    /// operating point with the `IN_HANDLER` parallel-port bit raised.
    pub fn service_pmi_overhead(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "overhead must be >= 0"
        );
        if seconds == 0.0 {
            return;
        }
        let bits = self.pport_bits | crate::trace::pport::IN_HANDLER;
        self.stall(seconds, bits);
    }

    /// Requests DVFS setting `index`; a real switch stalls the core for the
    /// configured transition latency.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSetting`] when `index` is out of range.
    pub fn set_dvfs(&mut self, index: usize) -> Result<(), InvalidSetting> {
        let stall_s = self.dvfs.request(index)?;
        if stall_s > 0.0 {
            self.stall(stall_s, self.pport_bits);
        }
        Ok(())
    }

    /// The current DVFS setting index (0 = fastest).
    #[must_use]
    pub fn dvfs_index(&self) -> usize {
        self.dvfs.current_index()
    }

    /// Number of actual DVFS transitions performed so far.
    #[must_use]
    pub fn dvfs_transitions(&self) -> u64 {
        self.dvfs.transitions()
    }

    /// Re-arms the PMI to fire after `uops` further retired micro-ops —
    /// the knob an adaptive-sampling handler turns to skip re-evaluation
    /// through a predicted-long phase. Takes effect for the interval that
    /// is starting (call it right after a PMI).
    ///
    /// # Panics
    ///
    /// Panics if `uops` is zero.
    pub fn set_pmi_granularity(&mut self, uops: u64) {
        self.counters.rearm_overflow(uops);
        self.metrics.record_rearm();
    }

    /// Sets the parallel-port output bits (evaluation support, Section 5.4).
    pub fn set_pport_bits(&mut self, bits: u8) {
        self.pport_bits = bits;
    }

    /// Current parallel-port output bits.
    #[must_use]
    pub fn pport_bits(&self) -> u8 {
        self.pport_bits
    }

    /// Whole-run ground-truth totals.
    #[must_use]
    pub fn totals(&self) -> RunTotals {
        self.totals
    }

    /// The recorded power waveform (empty unless
    /// [`PlatformConfig::record_power_trace`] is set).
    #[must_use]
    pub fn power_trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Consumes the CPU, returning the recorded power waveform.
    #[must_use]
    pub fn into_power_trace(mut self) -> PowerTrace {
        std::mem::take(&mut self.trace)
    }

    /// The platform configuration.
    #[must_use]
    pub fn config(&self) -> &'a PlatformConfig {
        self.config
    }

    /// Installs a saved vCPU context: the tenant's counter file becomes the
    /// live one and the interval time/energy marks are re-based so the
    /// tenant's previously accrued partial interval carries over exactly.
    ///
    /// The caller (the hypervisor) is responsible for having drained or
    /// saved any pending work belonging to the outgoing tenant first; work
    /// still queued on this CPU executes against the newly loaded counters.
    pub fn load_vcpu(&mut self, ctx: &VcpuContext) {
        self.counters = ctx.counters.clone();
        self.interval_start_time_s = self.totals.time_s - ctx.partial_time_s;
        self.interval_start_energy_j = self.totals.energy_j - ctx.partial_energy_j;
    }

    /// Saves the live counter state into `ctx`: the counter file plus the
    /// partial-interval time/energy accrued since the last PMI, ready to be
    /// re-installed later with [`load_vcpu`](Self::load_vcpu).
    pub fn store_vcpu(&self, ctx: &mut VcpuContext) {
        ctx.counters = self.counters.clone();
        ctx.partial_time_s = self.totals.time_s - self.interval_start_time_s;
        ctx.partial_energy_j = self.totals.energy_j - self.interval_start_energy_j;
    }

    /// Executes one chunk entirely at the current operating point.
    fn execute_chunk(&mut self, work: &IntervalWork) {
        let opp = self.dvfs.current();
        let exec = self.config.timing.execute(work, opp.frequency);
        // Counter features ride along for learned backends; the analytic
        // default reads only the core fraction, exactly as before.
        let input = PowerInput {
            core_fraction: exec.core_fraction(),
            mem_uop: if work.uops == 0 {
                0.0
            } else {
                work.mem_transactions as f64 / work.uops as f64
            },
            upc: if exec.cycles > 0.0 {
                work.uops as f64 / exec.cycles
            } else {
                0.0
            },
        };
        let power_w = self.config.power.power(opp, &input);
        let energy_j = power_w * exec.seconds;

        self.counters.record(&EventCounts {
            uops: work.uops,
            instructions: work.instructions,
            mem_transactions: work.mem_transactions,
            cycles: exec.cycles,
        });

        self.totals.time_s += exec.seconds;
        self.totals.energy_j += energy_j;
        self.totals.instructions += work.instructions;
        self.totals.uops += work.uops;
        self.totals.mem_transactions += work.mem_transactions;

        if self.config.record_power_trace {
            self.trace.push(PowerSegment {
                duration_s: exec.seconds,
                power_w,
                voltage_v: opp.voltage.volts(),
                pport_bits: self.pport_bits,
            });
        }
    }

    /// A non-retiring stall at the current operating point (handler
    /// execution, DVFS transition).
    fn stall(&mut self, seconds: f64, bits: u8) {
        let opp = self.dvfs.current();
        let power_w = self.config.power.stall_power(opp);
        self.counters
            .record_stall_cycles(seconds * opp.frequency.hz());
        self.totals.time_s += seconds;
        self.totals.energy_j += power_w * seconds;
        if self.config.record_power_trace {
            self.trace.push(PowerSegment {
                duration_s: seconds,
                power_w,
                voltage_v: opp.voltage.volts(),
                pport_bits: bits,
            });
        }
    }

    /// The handler protocol: stop, read, clear, restart — and re-base the
    /// per-interval time/energy marks.
    fn take_interval_record(&mut self) -> PmiRecord {
        self.counters.stop();
        let metrics = self.counters.read();
        let record = PmiRecord {
            metrics,
            timestamp_s: self.totals.time_s,
            interval_seconds: self.totals.time_s - self.interval_start_time_s,
            interval_energy_j: self.totals.energy_j - self.interval_start_energy_j,
            opp: self.dvfs.current(),
            dvfs_index: self.dvfs.current_index(),
        };
        self.counters.reset_interval();
        self.interval_start_time_s = self.totals.time_s;
        self.interval_start_energy_j = self.totals.energy_j;
        self.metrics.pmis += 1;
        if self.metrics.pmis >= PUBLISH_EVERY_PMIS {
            self.metrics.publish(self.counters.tsc());
        }
        record
    }
}

impl Drop for Cpu<'_> {
    fn drop(&mut self) {
        self.metrics.publish(self.counters.tsc());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PlatformConfig {
        PlatformConfig {
            pmi_granularity_uops: 1_000_000,
            ..PlatformConfig::pentium_m()
        }
    }

    fn work(uops: u64, mem_per_kuop: u64) -> IntervalWork {
        IntervalWork::new(uops, uops * 4 / 5, uops / 1000 * mem_per_kuop, 0.7, 3.0)
    }

    #[test]
    fn pmi_fires_at_granularity() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.push_work(work(2_500_000, 10));
        let r1 = cpu.run_to_pmi().expect("first interval");
        assert_eq!(r1.metrics.uops_retired, 1_000_000);
        let r2 = cpu.run_to_pmi().expect("second interval");
        assert_eq!(r2.metrics.uops_retired, 1_000_000);
        assert!(cpu.run_to_pmi().is_none(), "only half an interval left");
        let tail = cpu.flush_partial_interval().expect("partial tail");
        assert_eq!(tail.metrics.uops_retired, 500_000);
        assert!(cpu.flush_partial_interval().is_none());
    }

    #[test]
    fn mem_uop_is_preserved_across_interval_splits() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.push_work(work(3_000_000, 20)); // Mem/Uop = 0.020
        while let Some(r) = cpu.run_to_pmi() {
            assert!((r.metrics.mem_uop().get() - 0.020).abs() < 1e-4);
        }
    }

    #[test]
    fn time_and_energy_accumulate() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.push_work(work(1_000_000, 10));
        let r = cpu.run_to_pmi().unwrap();
        assert!(r.interval_seconds > 0.0);
        assert!(r.interval_energy_j > 0.0);
        let t = cpu.totals();
        assert!((t.time_s - r.interval_seconds).abs() < 1e-12);
        assert!((t.energy_j - r.interval_energy_j).abs() < 1e-12);
        assert!(t.bips() > 0.0);
        assert!(t.average_power_w() > 1.0);
        assert!(t.edp() > 0.0);
    }

    #[test]
    fn slower_setting_reduces_power_and_stretches_time() {
        let run_at = |idx: usize| {
            let config = small_config();
            let mut cpu = Cpu::new(&config);
            cpu.set_dvfs(idx).unwrap();
            cpu.push_work(work(1_000_000, 10));
            let _ = cpu.run_to_pmi().unwrap();
            cpu.totals()
        };
        let fast = run_at(0);
        let slow = run_at(5);
        assert!(slow.time_s > fast.time_s);
        assert!(slow.average_power_w() < fast.average_power_w());
    }

    #[test]
    fn dvfs_switch_stalls_and_counts() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        let before = cpu.totals().time_s;
        cpu.set_dvfs(5).unwrap();
        assert_eq!(cpu.dvfs_transitions(), 1);
        assert!((cpu.totals().time_s - before - 50e-6).abs() < 1e-12);
        // Re-requesting the same setting is free.
        cpu.set_dvfs(5).unwrap();
        assert_eq!(cpu.dvfs_transitions(), 1);
        assert_eq!(cpu.dvfs_index(), 5);
    }

    #[test]
    fn invalid_dvfs_request_is_an_error() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        assert!(cpu.set_dvfs(17).is_err());
        assert_eq!(cpu.dvfs_index(), 0);
    }

    #[test]
    fn handler_overhead_is_charged() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.service_pmi_overhead(10e-6);
        assert!((cpu.totals().time_s - 10e-6).abs() < 1e-15);
        assert!(cpu.totals().energy_j > 0.0);
        assert_eq!(cpu.totals().uops, 0, "stalls retire nothing");
    }

    #[test]
    fn power_trace_records_segments_with_bits() {
        let config = small_config().with_power_trace();
        let mut cpu = Cpu::new(&config);
        cpu.set_pport_bits(crate::trace::pport::APP_RUNNING);
        cpu.push_work(work(1_000_000, 10));
        let _ = cpu.run_to_pmi().unwrap();
        cpu.service_pmi_overhead(10e-6);
        let trace = cpu.power_trace();
        assert!(trace.len() >= 2);
        assert!(trace
            .segments()
            .iter()
            .any(|s| s.pport_bits & crate::trace::pport::IN_HANDLER != 0));
        // The waveform's energy must agree with the ground truth.
        assert!((trace.total_energy_j() - cpu.totals().energy_j).abs() < 1e-9);
    }

    #[test]
    fn trace_disabled_by_default() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.push_work(work(1_000_000, 10));
        let _ = cpu.run_to_pmi().unwrap();
        assert!(cpu.power_trace().is_empty());
    }

    #[test]
    fn interval_seconds_include_stalls_inside_interval() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.push_work(work(500_000, 10));
        assert!(cpu.run_to_pmi().is_none());
        // Mid-interval DVFS switch: its stall belongs to this interval.
        cpu.set_dvfs(2).unwrap();
        cpu.push_work(work(500_000, 10));
        let r = cpu.run_to_pmi().unwrap();
        let pure: f64 = r.interval_seconds;
        assert!(pure > 0.0);
        assert!(r.metrics.cycles > 0);
    }

    #[test]
    fn pmi_granularity_is_retunable_between_intervals() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        cpu.push_work(work(4_000_000, 10));
        let r1 = cpu.run_to_pmi().unwrap();
        assert_eq!(r1.metrics.uops_retired, 1_000_000);
        // Stretch the next window to 3 M uops.
        cpu.set_pmi_granularity(3_000_000);
        let r2 = cpu.run_to_pmi().unwrap();
        assert_eq!(r2.metrics.uops_retired, 3_000_000);
        // All 4 M uops are accounted for; nothing dangles.
        assert!(cpu.run_to_pmi().is_none());
        assert!(cpu.flush_partial_interval().is_none());
        // The re-armed window persists until re-armed again (the handler
        // re-arms every PMI anyway).
        cpu.push_work(work(3_000_000, 10));
        let r3 = cpu.run_to_pmi().unwrap();
        assert_eq!(r3.metrics.uops_retired, 3_000_000);
    }

    #[test]
    fn vcpu_switch_preserves_partial_interval() {
        let config = small_config();
        let mut cpu = Cpu::new(&config);
        let mut a = VcpuContext::new(config.pmi_granularity_uops);
        let mut b = VcpuContext::new(config.pmi_granularity_uops);

        // Tenant A runs 600 k of its 1 M-uop interval, then is descheduled.
        cpu.load_vcpu(&a);
        cpu.push_work(work(600_000, 10));
        assert!(cpu.run_to_pmi().is_none());
        cpu.store_vcpu(&mut a);
        assert!(a.partial_time_s() > 0.0);
        assert!(a.partial_energy_j() > 0.0);

        // Tenant B runs a full interval in between; its PMI sees only B.
        cpu.load_vcpu(&b);
        cpu.push_work(work(1_000_000, 40));
        let rb = cpu.run_to_pmi().expect("B's interval");
        assert_eq!(rb.metrics.uops_retired, 1_000_000);
        assert_eq!(rb.metrics.mem_transactions, 40_000);
        cpu.store_vcpu(&mut b);
        assert_eq!(b.partial_time_s(), 0.0, "B ended exactly on a PMI");

        // A resumes and completes its interval: exactly 1 M uops, with
        // A's memory counts only, and a duration that excludes B's time.
        cpu.load_vcpu(&a);
        cpu.push_work(work(400_000, 10));
        let ra = cpu.run_to_pmi().expect("A's interval");
        assert_eq!(ra.metrics.uops_retired, 1_000_000);
        assert_eq!(ra.metrics.mem_transactions, 10_000);
        // A's interval duration = its saved partial plus the resumed slice;
        // B's full interval in between contributes nothing.
        let resumed_slice_s = ra.timestamp_s - rb.timestamp_s;
        assert!(
            (ra.interval_seconds - (a.partial_time_s() + resumed_slice_s)).abs() < 1e-12,
            "A's interval must not absorb B's execution time"
        );
    }

    #[test]
    fn vcpu_counters_match_solo_run_bit_for_bit() {
        let config = small_config();

        // Solo: tenant runs 2.5 M uops alone on its own CPU.
        let mut solo = Cpu::new(&config);
        solo.push_work(work(2_500_000, 10));
        let mut solo_records = Vec::new();
        while let Some(r) = solo.run_to_pmi() {
            solo_records.push(r.metrics);
        }

        // Multiplexed: the same work sliced into 500 k quanta, with a
        // noisy neighbor interleaved between every quantum.
        let mut cpu = Cpu::new(&config);
        let mut tenant = VcpuContext::new(config.pmi_granularity_uops);
        let mut noisy = VcpuContext::new(config.pmi_granularity_uops);
        let mut muxed_records = Vec::new();
        for _ in 0..5 {
            cpu.load_vcpu(&tenant);
            cpu.push_work(work(500_000, 10));
            while let Some(r) = cpu.run_to_pmi() {
                muxed_records.push(r.metrics);
            }
            cpu.store_vcpu(&mut tenant);

            cpu.load_vcpu(&noisy);
            cpu.push_work(work(300_000, 90));
            while cpu.run_to_pmi().is_some() {}
            cpu.store_vcpu(&mut noisy);
        }
        assert_eq!(solo_records, muxed_records);
    }

    #[test]
    fn run_totals_empty_run() {
        let t = RunTotals::default();
        assert_eq!(t.bips(), 0.0);
        assert_eq!(t.average_power_w(), 0.0);
        assert_eq!(t.edp(), 0.0);
    }
}
