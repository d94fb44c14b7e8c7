//! Calibrated SPEC CPU2000 stand-ins: one [`BenchmarkSpec`] per run shown
//! in the paper's figures.
//!
//! ## Calibration methodology
//!
//! Each spec is tuned against three published anchors:
//!
//! 1. **Figure 3** — the (average Mem/Uop, sample-variation %) coordinate,
//!    which fixes the level values and the rate of large Mem/Uop moves;
//! 2. **Figure 4** — the last-value prediction accuracy, which fixes the
//!    *phase transition rate* (last-value accuracy ≈ 1 − transition rate),
//!    and the decreasing-accuracy order of the 33 runs;
//! 3. **Figures 11–13** — the DVFS outcome, which fixes how memory-bound
//!    each level is in *time* (its `cpi_core` and `mlp`): e.g. `swim` and
//!    `mcf` barely slow down at low frequency (> 60 % EDP gains), while
//!    the bzip2 runs have little to give (≈ 5 %).
//!
//! The temporal structure follows the paper's narrative: Q1/Q2 runs are
//! flat with sparse excursions; Q3/Q4 runs (`applu`, `equake`, `mgrid`,
//! bzip2) cycle rapidly through short repetitive phase patterns that a
//! pattern-based predictor can learn and statistical predictors cannot
//! (Figure 2).

use crate::level::PhaseLevel;
use crate::pattern::{standard_normal, Movement, Step};
use crate::source::IntervalSource;
use crate::trace::WorkloadTrace;
use livephase_collections::{fnv1a, FNV_OFFSET_BASIS};
use livephase_pmsim::timing::IntervalWork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The stability / power-savings quadrant a benchmark falls into in the
/// paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Stable, little to save (most of SPEC).
    Q1,
    /// Stable, high savings potential (`swim`, `mcf`).
    Q2,
    /// Variable, high savings potential (`applu`, `equake`, `mgrid`) — the
    /// paper's most interesting category.
    Q3,
    /// Variable, lower savings potential (the bzip2 runs, `gcc_166`).
    Q4,
}

impl std::fmt::Display for Quadrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Quadrant::Q1 => "Q1",
            Quadrant::Q2 => "Q2",
            Quadrant::Q3 => "Q3",
            Quadrant::Q4 => "Q4",
        };
        f.write_str(s)
    }
}

/// A calibrated synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    name: String,
    quadrant: Quadrant,
    levels: Vec<PhaseLevel>,
    movements: Vec<Movement>,
    /// Standard deviation of the additive Gaussian noise on Mem/Uop.
    noise_sigma: f64,
    /// Probability that a step instance's dwell stretches or shrinks by one
    /// interval — real loops are only *quasi*-periodic, which is what keeps
    /// pattern predictors below 100 % and populates the PHT with pattern
    /// variants (the Figure 5 sensitivity).
    dwell_jitter: f64,
    /// Trace length in sampling intervals.
    length: usize,
    /// Micro-ops per sampling interval (100 M on the paper's platform).
    uops_per_interval: u64,
    /// Uops retired per architectural instruction.
    uop_per_instr: f64,
}

impl BenchmarkSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if any movement references a level outside the level table,
    /// the level, movement or step lists are empty, `length` is zero, or the
    /// noise/uop parameters are out of range.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        quadrant: Quadrant,
        levels: Vec<PhaseLevel>,
        movements: Vec<Movement>,
        noise_sigma: f64,
        length: usize,
    ) -> Self {
        let name = name.into();
        assert!(!levels.is_empty(), "{name}: need at least one level");
        assert!(!movements.is_empty(), "{name}: need at least one movement");
        assert!(length >= 1, "{name}: trace length must be positive");
        assert!(
            noise_sigma.is_finite() && noise_sigma >= 0.0,
            "{name}: noise sigma must be finite and non-negative"
        );
        for m in &movements {
            assert!(
                !m.steps.is_empty(),
                "{name}: a movement needs at least one step"
            );
            assert!(
                m.max_level() < levels.len(),
                "{name}: movement references level {} but only {} levels exist",
                m.max_level(),
                levels.len()
            );
        }
        Self {
            name,
            quadrant,
            levels,
            movements,
            noise_sigma,
            dwell_jitter: 0.0,
            length,
            uops_per_interval: 100_000_000,
            uop_per_instr: 1.25,
        }
    }

    /// Sets the dwell-jitter probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    #[must_use]
    pub fn with_dwell_jitter(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "jitter must be a probability");
        self.dwell_jitter = p;
        self
    }

    /// The benchmark's name, e.g. `applu_in`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Figure 3 quadrant this benchmark is calibrated to.
    #[must_use]
    pub fn quadrant(&self) -> Quadrant {
        self.quadrant
    }

    /// The behaviour levels this benchmark visits.
    #[must_use]
    pub fn levels(&self) -> &[PhaseLevel] {
        &self.levels
    }

    /// Trace length in sampling intervals.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Overrides the trace length (builder style) — handy for quick tests
    /// and bench areas.
    #[must_use]
    pub fn with_length(mut self, length: usize) -> Self {
        assert!(length >= 1, "trace length must be positive");
        self.length = length;
        self
    }

    /// Generates the workload trace deterministically from `seed`.
    ///
    /// The same `(spec, seed)` pair always yields the identical trace; the
    /// benchmark name is mixed into the seed so different benchmarks
    /// decorrelate even under the same experiment seed.
    ///
    /// This is [`stream`](Self::stream) materialized — buffered and
    /// streaming execution are bit-identical by construction.
    #[must_use]
    pub fn generate(&self, seed: u64) -> WorkloadTrace {
        self.stream(seed).collect_trace()
    }

    /// Opens a lazy interval stream over the benchmark: the same seeded
    /// generation as [`generate`](Self::generate), one interval at a time,
    /// in O(1) memory.
    #[must_use]
    pub fn stream(&self, seed: u64) -> SpecSource<'_> {
        SpecSource {
            spec: self,
            rng: StdRng::seed_from_u64(seed ^ fnv1a(FNV_OFFSET_BASIS, self.name.as_bytes())),
            produced: 0,
            movement: 0,
            repeat: 0,
            step: 0,
            level: 0,
            remaining_dwell: 0,
        }
    }

    /// Applies quasi-periodicity: with probability `dwell_jitter` a step
    /// instance runs one interval longer or shorter (never below one).
    fn jittered_dwell(&self, dwell: u32, rng: &mut StdRng) -> u32 {
        if self.dwell_jitter == 0.0 {
            return dwell;
        }
        let r: f64 = rand::Rng::gen(rng);
        if r < self.dwell_jitter / 2.0 {
            dwell.saturating_sub(1).max(1)
        } else if r < self.dwell_jitter {
            dwell + 1
        } else {
            dwell
        }
    }
}

/// The lazy generation state machine behind [`BenchmarkSpec::stream`]:
/// walks the movement → repeat → step nesting exactly as materialized
/// generation does, drawing the dwell jitter on step entry and the Mem/Uop
/// noise per emitted interval, so the RNG consumption order — and hence
/// the produced stream — is identical.
#[derive(Debug, Clone)]
pub struct SpecSource<'a> {
    spec: &'a BenchmarkSpec,
    rng: StdRng,
    produced: usize,
    /// Index of the movement the *next* step will come from.
    movement: usize,
    /// Repeat iteration within that movement.
    repeat: u32,
    /// Step index within the repeat.
    step: usize,
    /// Level of the step currently being emitted.
    level: usize,
    /// Intervals left in the current step's (jittered) dwell.
    remaining_dwell: u32,
}

impl SpecSource<'_> {
    /// Enters the next step of the movement walk, drawing its jittered
    /// dwell, and advances the walk position.
    #[expect(
        clippy::indexing_slicing,
        reason = "movement and step wrap to 0 at their list's length; `new` rejects empty lists"
    )]
    fn enter_next_step(&mut self) {
        let movement = &self.spec.movements[self.movement];
        let step = movement.steps[self.step];
        self.remaining_dwell = self.spec.jittered_dwell(step.dwell, &mut self.rng);
        self.level = step.level;

        self.step += 1;
        if self.step == movement.steps.len() {
            self.step = 0;
            self.repeat += 1;
            if self.repeat == movement.repeats {
                self.repeat = 0;
                self.movement = (self.movement + 1) % self.spec.movements.len();
            }
        }
    }
}

impl IntervalSource for SpecSource<'_> {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn next_interval(&mut self) -> Option<IntervalWork> {
        if self.produced == self.spec.length {
            return None;
        }
        // Steps always dwell >= 1, so this terminates after one entry.
        while self.remaining_dwell == 0 {
            self.enter_next_step();
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "every step's level is below levels.len(), checked by `new`"
        )]
        let level = &self.spec.levels[self.level];
        let noise = self.spec.noise_sigma * standard_normal(&mut self.rng);
        let w = level.interval(
            self.spec.uops_per_interval,
            self.spec.uop_per_instr,
            level.mem_uop + noise,
        );
        self.remaining_dwell -= 1;
        self.produced += 1;
        Some(w)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.spec.length - self.produced)
    }
}

// ---------------------------------------------------------------------------
// Level constructors shared by the registry.
// ---------------------------------------------------------------------------

/// A CPU-bound level (phase 1 territory).
fn cpu(mem_uop: f64) -> PhaseLevel {
    PhaseLevel::new(mem_uop, 0.55, 2.0)
}

/// A lightly memory-flavoured level (phases 1–2): misses overlap well, the
/// core stays the bottleneck, so slowing the clock costs almost 1:1.
fn light(mem_uop: f64) -> PhaseLevel {
    PhaseLevel::new(mem_uop, 0.70, 2.5)
}

/// A mid-range level (phases 3–4): moderate overlap.
fn mid(mem_uop: f64) -> PhaseLevel {
    PhaseLevel::new(mem_uop, 0.80, 1.6)
}

/// A memory-bound level (phases 5–6): mostly serialized misses dominate
/// wall time, leaving large DVFS slack.
fn heavy(mem_uop: f64) -> PhaseLevel {
    PhaseLevel::new(mem_uop, 0.40, 1.1)
}

/// An extremely memory-bound level (`swim`/`mcf` style): the core is almost
/// idle; frequency hardly matters.
fn extreme(mem_uop: f64) -> PhaseLevel {
    PhaseLevel::new(mem_uop, 0.30, 1.0)
}

// ---------------------------------------------------------------------------
// Registry helpers for the recurring temporal shapes.
// ---------------------------------------------------------------------------

/// A mostly-flat run: dwells on level 0 and briefly visits level 1 once per
/// `period` intervals (`spike` intervals long). Transition rate ≈
/// `2·spike/period`.
fn flat_with_excursions(
    name: &str,
    quadrant: Quadrant,
    base: PhaseLevel,
    excursion: PhaseLevel,
    period: u32,
    spike: u32,
    noise: f64,
) -> BenchmarkSpec {
    assert!(period > spike, "{name}: period must exceed the excursion");
    BenchmarkSpec::new(
        name,
        quadrant,
        vec![base, excursion],
        vec![Movement::new(
            vec![Step::new(0, period - spike), Step::new(1, spike)],
            1,
        )],
        noise,
        DEFAULT_LENGTH,
    )
}

/// Default trace length: 2 000 intervals of 100 M uops ≈ 200 G uops,
/// comparable to a SPEC reference run.
const DEFAULT_LENGTH: usize = 2_000;

// ---------------------------------------------------------------------------
// The registry: all 33 runs of the paper's figures.
// ---------------------------------------------------------------------------

/// The full registry of the 33 SPEC CPU2000 runs the paper evaluates,
/// ordered as in Figure 4 (decreasing last-value accuracy): a copy of
/// the table built once per process.
#[must_use]
pub fn registry() -> Vec<BenchmarkSpec> {
    table().to_vec()
}

/// The registry table, built on first use.
fn table() -> &'static [BenchmarkSpec] {
    static TABLE: OnceLock<Vec<BenchmarkSpec>> = OnceLock::new();
    TABLE.get_or_init(build_registry)
}

#[expect(
    clippy::vec_init_then_push,
    reason = "one documented push per SPEC run"
)]
fn build_registry() -> Vec<BenchmarkSpec> {
    let mut v = Vec::with_capacity(33);

    // -------------------------------------------------- Q1: stable, flat.
    // Last-value accuracy 97–99.5 %; near the Figure 3 origin.
    v.push(flat_with_excursions(
        "crafty_in",
        Quadrant::Q1,
        cpu(0.0008),
        light(0.0060),
        400,
        1,
        0.0002,
    ));
    v.push(flat_with_excursions(
        "eon_cook",
        Quadrant::Q1,
        cpu(0.0004),
        light(0.0058),
        340,
        1,
        0.0002,
    ));
    v.push(flat_with_excursions(
        "eon_kajiya",
        Quadrant::Q1,
        cpu(0.0005),
        light(0.0058),
        300,
        1,
        0.0002,
    ));
    v.push(flat_with_excursions(
        "eon_rushmeier",
        Quadrant::Q1,
        cpu(0.0007),
        light(0.0060),
        210,
        1,
        0.0002,
    ));
    v.push(flat_with_excursions(
        "mesa_ref",
        Quadrant::Q1,
        cpu(0.0012),
        light(0.0062),
        200,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "vortex_lendian2",
        Quadrant::Q1,
        cpu(0.0028),
        light(0.0078),
        140,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "sixtrack_in",
        Quadrant::Q1,
        cpu(0.0003),
        light(0.0056),
        135,
        1,
        0.0002,
    ));

    // swim: Q2 — extremely memory bound and almost perfectly flat (it sits
    // on the x-axis of Figure 3). > 60 % EDP headroom.
    v.push(flat_with_excursions(
        "swim_in",
        Quadrant::Q2,
        extreme(0.0265),
        extreme(0.0330),
        100,
        1,
        0.0004,
    ));

    v.push(flat_with_excursions(
        "vortex_lendian1",
        Quadrant::Q1,
        cpu(0.0030),
        light(0.0080),
        100,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "twolf_ref",
        Quadrant::Q1,
        cpu(0.0022),
        light(0.0072),
        82,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "vortex_lendian3",
        Quadrant::Q1,
        cpu(0.0031),
        light(0.0081),
        68,
        1,
        0.0003,
    ));

    // The gzip family: compression bursts every few dozen intervals.
    v.push(flat_with_excursions(
        "gzip_program",
        Quadrant::Q1,
        cpu(0.0018),
        light(0.0068),
        50,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "gzip_graphic",
        Quadrant::Q1,
        cpu(0.0026),
        light(0.0078),
        45,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "gzip_random",
        Quadrant::Q1,
        cpu(0.0016),
        light(0.0066),
        40,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "gzip_source",
        Quadrant::Q1,
        cpu(0.0020),
        light(0.0070),
        36,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "gzip_log",
        Quadrant::Q1,
        cpu(0.0017),
        light(0.0067),
        33,
        1,
        0.0003,
    ));

    // mcf: Q2 — the most memory-bound program in SPEC (the broken x-axis
    // of Figure 3, ≈ 0.10 Mem/Uop), with occasional pointer-chase lulls.
    v.push(flat_with_excursions(
        "mcf_inp",
        Quadrant::Q2,
        extreme(0.1050),
        heavy(0.0220),
        28,
        1,
        0.0008,
    ));

    v.push(flat_with_excursions(
        "gcc_200",
        Quadrant::Q1,
        cpu(0.0032),
        light(0.0068),
        25,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "gcc_scilab",
        Quadrant::Q1,
        cpu(0.0034),
        light(0.0070),
        22,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "wupwise_ref",
        Quadrant::Q1,
        cpu(0.0040),
        mid(0.0110),
        20,
        1,
        0.0004,
    ));
    v.push(flat_with_excursions(
        "gap_ref",
        Quadrant::Q1,
        cpu(0.0038),
        light(0.0072),
        18,
        1,
        0.0004,
    ));
    v.push(flat_with_excursions(
        "gcc_integrate",
        Quadrant::Q1,
        cpu(0.0033),
        light(0.0069),
        17,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "gcc_expr",
        Quadrant::Q1,
        cpu(0.0031),
        light(0.0067),
        15,
        1,
        0.0003,
    ));
    v.push(flat_with_excursions(
        "ammp_in",
        Quadrant::Q1,
        cpu(0.0040),
        mid(0.0120),
        14,
        1,
        0.0004,
    ));
    v.push(flat_with_excursions(
        "gcc_166",
        Quadrant::Q4,
        cpu(0.0030),
        mid(0.0090),
        12,
        1,
        0.0004,
    ));
    v.push(flat_with_excursions(
        "parser_ref",
        Quadrant::Q1,
        cpu(0.0038),
        light(0.0088),
        11,
        1,
        0.0004,
    ));
    v.push(flat_with_excursions(
        "apsi_ref",
        Quadrant::Q1,
        cpu(0.0040),
        mid(0.0110),
        11,
        1,
        0.0004,
    ));

    // ------------------------------------------- Q3/Q4: the variable six.
    // bzip2: block-sorting compression alternates scan / sort / entropy
    // phases. Lightly memory-flavoured (Q4: modest savings), rapid pattern.
    v.push(
        BenchmarkSpec::new(
            "bzip2_program",
            Quadrant::Q4,
            vec![cpu(0.0030), light(0.0078), mid(0.0128)],
            vec![
                // Scan/sort alternation while compressing a block...
                Movement::new(
                    vec![
                        Step::new(0, 5),
                        Step::new(1, 1),
                        Step::new(0, 6),
                        Step::new(2, 1),
                    ],
                    12,
                ),
                // ...then the entropy-coding tail of the block.
                Movement::new(
                    vec![
                        Step::new(0, 4),
                        Step::new(2, 1),
                        Step::new(0, 7),
                        Step::new(1, 1),
                    ],
                    12,
                ),
            ],
            0.0005,
            DEFAULT_LENGTH,
        )
        .with_dwell_jitter(0.10),
    );

    // mgrid: multigrid V-cycles coarsen down the grid hierarchy —
    // a staircase through phases 2-3-4-5 with an abrupt restart back to
    // the fine grid (Q3). The restart is the big phase jump reactive
    // management keeps paying for.
    v.push(
        BenchmarkSpec::new(
            "mgrid_in",
            Quadrant::Q3,
            vec![cpu(0.0038), mid(0.0140), mid(0.0190), heavy(0.0270)],
            vec![Movement::new(
                vec![
                    Step::new(0, 4),
                    Step::new(1, 2),
                    Step::new(2, 2),
                    Step::new(3, 3),
                ],
                1,
            )],
            0.0006,
            DEFAULT_LENGTH,
        )
        .with_dwell_jitter(0.05),
    );

    v.push(
        BenchmarkSpec::new(
            "bzip2_source",
            Quadrant::Q4,
            vec![cpu(0.0032), light(0.0080), mid(0.0130)],
            vec![
                Movement::new(
                    vec![
                        Step::new(0, 4),
                        Step::new(1, 1),
                        Step::new(0, 5),
                        Step::new(2, 2),
                    ],
                    12,
                ),
                Movement::new(
                    vec![
                        Step::new(0, 3),
                        Step::new(2, 1),
                        Step::new(0, 6),
                        Step::new(1, 2),
                    ],
                    12,
                ),
            ],
            0.0005,
            DEFAULT_LENGTH,
        )
        .with_dwell_jitter(0.10),
    );

    v.push(
        BenchmarkSpec::new(
            "bzip2_graphic",
            Quadrant::Q4,
            vec![cpu(0.0035), light(0.0085), mid(0.0135)],
            vec![
                Movement::new(
                    vec![
                        Step::new(0, 4),
                        Step::new(1, 1),
                        Step::new(0, 4),
                        Step::new(2, 1),
                    ],
                    12,
                ),
                Movement::new(
                    vec![
                        Step::new(0, 3),
                        Step::new(2, 1),
                        Step::new(0, 5),
                        Step::new(1, 1),
                    ],
                    12,
                ),
            ],
            0.0005,
            DEFAULT_LENGTH,
        )
        .with_dwell_jitter(0.10),
    );

    // applu: the paper's running example (Figure 2) — rapid, distinctly
    // repetitive swings between CPU-bound and memory-bound phases, with
    // two alternating outer movements.
    v.push(
        BenchmarkSpec::new(
            "applu_in",
            Quadrant::Q3,
            vec![cpu(0.0015), light(0.0085), mid(0.0135), heavy(0.0280)],
            vec![
                // Main SSOR sweep: 1 1 1 3 6 6 3 …
                Movement::new(
                    vec![
                        Step::new(0, 3),
                        Step::new(2, 1),
                        Step::new(3, 2),
                        Step::new(2, 1),
                    ],
                    30,
                ),
                // Jacobian build: 1 1 1 2 3 3 2 …
                Movement::new(
                    vec![
                        Step::new(0, 3),
                        Step::new(1, 1),
                        Step::new(2, 2),
                        Step::new(1, 1),
                    ],
                    30,
                ),
            ],
            0.0006,
            DEFAULT_LENGTH,
        )
        .with_dwell_jitter(0.05),
    );

    // equake: the most variable run (top of Figure 3) and the best
    // EDP win among Q3 (34 %): heavy phases dominate, punctuated by
    // CPU-bound stretches.
    v.push(
        BenchmarkSpec::new(
            "equake_in",
            Quadrant::Q3,
            vec![cpu(0.0020), mid(0.0160), heavy(0.0330), heavy(0.0240)],
            vec![
                Movement::new(
                    vec![
                        Step::new(2, 2),
                        Step::new(1, 2),
                        Step::new(0, 2),
                        Step::new(1, 1),
                    ],
                    25,
                ),
                Movement::new(
                    vec![
                        Step::new(2, 1),
                        Step::new(3, 2),
                        Step::new(0, 2),
                        Step::new(1, 2),
                    ],
                    25,
                ),
            ],
            0.0007,
            DEFAULT_LENGTH,
        )
        .with_dwell_jitter(0.06),
    );

    v
}

/// Looks a benchmark up by name, cloning it out of the registry table
/// (built once per process, not per lookup).
#[must_use]
pub fn benchmark(name: &str) -> Option<BenchmarkSpec> {
    table().iter().find(|b| b.name() == name).cloned()
}

/// The names of the paper's "variable six" (the rightmost benchmarks of
/// Figure 4, i.e. Q3 + Q4 minus `gcc_166`), in Figure 4 order.
#[must_use]
pub fn variable_six() -> [&'static str; 6] {
    [
        "bzip2_program",
        "mgrid_in",
        "bzip2_source",
        "bzip2_graphic",
        "applu_in",
        "equake_in",
    ]
}

/// The benchmarks of Figure 12: the high-savings Q2 pair plus the variable
/// Q3/Q4 runs.
#[must_use]
pub fn figure12_set() -> [&'static str; 8] {
    [
        "bzip2_program",
        "bzip2_source",
        "bzip2_graphic",
        "mgrid_in",
        "applu_in",
        "equake_in",
        "swim_in",
        "mcf_inp",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_33_runs() {
        let r = registry();
        assert_eq!(r.len(), 33);
        let mut names: Vec<&str> = r.iter().map(BenchmarkSpec::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 33, "names must be unique");
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("applu_in").is_some());
        assert!(benchmark("doom_eternal").is_none());
    }

    /// The pre-streaming materialized generator, kept as an independent
    /// reference: the `SpecSource` state machine must consume the RNG in
    /// exactly this order.
    fn reference_generate(spec: &BenchmarkSpec, seed: u64) -> Vec<IntervalWork> {
        let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(FNV_OFFSET_BASIS, spec.name.as_bytes()));
        let mut intervals = Vec::with_capacity(spec.length);
        'outer: loop {
            for movement in &spec.movements {
                for _ in 0..movement.repeats {
                    for step in &movement.steps {
                        let dwell = spec.jittered_dwell(step.dwell, &mut rng);
                        for _ in 0..dwell {
                            if intervals.len() == spec.length {
                                break 'outer;
                            }
                            let level = &spec.levels[step.level];
                            let noise = spec.noise_sigma * standard_normal(&mut rng);
                            intervals.push(level.interval(
                                spec.uops_per_interval,
                                spec.uop_per_instr,
                                level.mem_uop + noise,
                            ));
                        }
                    }
                }
            }
        }
        intervals
    }

    #[test]
    fn stream_matches_the_materialized_reference_generator() {
        for spec in registry() {
            let spec = spec.with_length(150);
            for seed in [0, 42] {
                assert_eq!(
                    spec.generate(seed).intervals(),
                    reference_generate(&spec, seed).as_slice(),
                    "{} seed {seed}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn stream_len_hint_counts_down() {
        let spec = benchmark("applu_in").unwrap().with_length(5);
        let mut s = spec.stream(1);
        assert_eq!(s.len_hint(), Some(5));
        let _ = s.next_interval();
        assert_eq!(s.len_hint(), Some(4));
        assert_eq!(s.name(), "applu_in");
        while s.next_interval().is_some() {}
        assert_eq!(s.len_hint(), Some(0));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = benchmark("applu_in").unwrap();
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a, b);
        let c = spec.generate(8);
        assert_ne!(a, c, "different seeds decorrelate");
    }

    #[test]
    fn traces_have_requested_length() {
        for spec in registry() {
            let t = spec.generate(1);
            assert_eq!(t.len(), spec.length(), "{}", spec.name());
        }
    }

    #[test]
    fn with_length_shrinks() {
        let spec = benchmark("applu_in").unwrap().with_length(50);
        assert_eq!(spec.generate(1).len(), 50);
    }

    #[test]
    fn quadrant_assignment_matches_figure3() {
        let find = |n: &str| benchmark(n).unwrap().quadrant();
        assert_eq!(find("swim_in"), Quadrant::Q2);
        assert_eq!(find("mcf_inp"), Quadrant::Q2);
        assert_eq!(find("applu_in"), Quadrant::Q3);
        assert_eq!(find("equake_in"), Quadrant::Q3);
        assert_eq!(find("mgrid_in"), Quadrant::Q3);
        assert_eq!(find("bzip2_source"), Quadrant::Q4);
        assert_eq!(find("crafty_in"), Quadrant::Q1);
    }

    #[test]
    fn applu_is_highly_variable_and_equake_more_so() {
        let applu = benchmark("applu_in").unwrap().generate(3).characterize();
        let equake = benchmark("equake_in").unwrap().generate(3).characterize();
        assert!(
            applu.sample_variation_pct > 35.0,
            "applu variation {}",
            applu.sample_variation_pct
        );
        assert!(equake.sample_variation_pct > applu.sample_variation_pct);
    }

    #[test]
    fn q1_benchmarks_are_stable() {
        for name in ["crafty_in", "eon_cook", "mesa_ref", "sixtrack_in"] {
            let s = benchmark(name).unwrap().generate(3).characterize();
            assert!(
                s.sample_variation_pct < 5.0,
                "{name} variation {}",
                s.sample_variation_pct
            );
            assert!(s.mean_mem_uop < 0.005, "{name} mean {}", s.mean_mem_uop);
        }
    }

    #[test]
    fn mcf_is_the_most_memory_bound() {
        let r = registry();
        let mcf = benchmark("mcf_inp").unwrap().generate(3).characterize();
        for spec in &r {
            if spec.name() == "mcf_inp" {
                continue;
            }
            let s = spec.generate(3).characterize();
            assert!(
                s.mean_mem_uop < mcf.mean_mem_uop,
                "{} should be less memory-bound than mcf",
                spec.name()
            );
        }
        assert!(mcf.mean_mem_uop > 0.09, "mcf mean {}", mcf.mean_mem_uop);
    }

    #[test]
    fn swim_sits_on_the_x_axis() {
        let s = benchmark("swim_in").unwrap().generate(3).characterize();
        assert!(s.sample_variation_pct < 5.0);
        assert!(s.mean_mem_uop > 0.02);
    }

    #[test]
    fn figure12_set_is_registered() {
        for name in figure12_set() {
            assert!(benchmark(name).is_some(), "{name} missing");
        }
        for name in variable_six() {
            assert!(benchmark(name).is_some(), "{name} missing");
        }
    }

    #[test]
    #[should_panic(expected = "references level")]
    fn movement_level_bounds_are_validated() {
        let _ = BenchmarkSpec::new(
            "broken",
            Quadrant::Q1,
            vec![cpu(0.001)],
            vec![Movement::constant(3, 10)],
            0.0,
            10,
        );
    }
}
