//! The signal-conditioning stage: measurement noise plus low-pass
//! filtering, standing in for the National Instruments AI05 unit.
//!
//! The real conditioning unit exists to *remove* noise; in simulation the
//! stage both injects the noise a physical channel would carry (additive
//! Gaussian per channel) and applies the single-pole low-pass the unit
//! provides. The net effect on the measurement is a small zero-mean error
//! that averages out over a phase — exactly the behaviour the paper relies
//! on when it attributes DAQ samples to 100 ms phases.

use crate::sampler::DaqSample;
use crate::sense::ChannelVoltages;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::OnceLock;

/// Per-channel noise + single-pole low-pass conditioning. The noise draw
/// and the filter step are separate halves so that several captures can
/// share one draw per sample instant while each keeps its own filter
/// state (`DaqSystem::measure_all`).
#[derive(Debug, Clone)]
pub struct SignalConditioner {
    pub(crate) noise: ChannelNoise,
    pub(crate) filter: LowPass,
}

impl SignalConditioner {
    /// The NI-unit stand-in: 1 mV channel noise, low-pass with a time
    /// constant of ≈ 160 µs (α = 0.2 at the 40 µs sampling period).
    #[must_use]
    pub fn ni_unit(seed: u64) -> Self {
        Self::new(1e-3, 0.2, seed)
    }

    /// A transparent conditioner: no noise, no filtering.
    #[must_use]
    pub fn ideal() -> Self {
        Self::new(0.0, 1.0, 0)
    }

    /// Creates a conditioner.
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma_v` is negative or `alpha` is outside
    /// `(0, 1]`.
    #[must_use]
    pub fn new(noise_sigma_v: f64, alpha: f64, seed: u64) -> Self {
        assert!(
            noise_sigma_v.is_finite() && noise_sigma_v >= 0.0,
            "noise sigma must be finite and non-negative"
        );
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "filter alpha must be in (0, 1], got {alpha}"
        );
        Self {
            noise: ChannelNoise {
                sigma_v: noise_sigma_v,
                rng: StdRng::seed_from_u64(seed),
            },
            filter: LowPass { alpha, state: None },
        }
    }

    /// Conditions one sample: noise in, filter out. Digital bits pass
    /// through untouched (the parallel-port lines are logic-level).
    #[must_use]
    pub fn process(&mut self, sample: DaqSample) -> DaqSample {
        let noise = self.noise.draw();
        self.filter.apply(sample, noise)
    }
}

/// The additive Gaussian channel noise: one draw per channel per sample
/// instant, from a deterministic seeded stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChannelNoise {
    /// Standard deviation of the noise, in volts.
    sigma_v: f64,
    rng: StdRng,
}

impl ChannelNoise {
    /// The noise on `[v1, v2, vcpu]` at the next sample instant.
    pub(crate) fn draw(&mut self) -> [f64; 3] {
        let mut noise = [[0.0; 3]];
        self.fill(&mut noise);
        let [noise] = noise;
        noise
    }

    /// Fills `block` with the noise of the next `block.len()` sample
    /// instants: three standard normals × σ each, in the order v1, v2,
    /// vcpu. A silent stream (σ = 0) draws nothing and leaves its
    /// generator where it was.
    ///
    /// The generator's state is copied into a local for the block and
    /// written back once at the end, so the draws step it in registers
    /// rather than through `self`.
    pub(crate) fn fill(&mut self, block: &mut [[f64; 3]]) {
        let sigma = self.sigma_v;
        if sigma == 0.0 {
            block.fill([0.0; 3]);
            return;
        }
        let zig = Ziggurat::get();
        let mut rng = self.rng.clone();
        for noise in block {
            *noise = [
                sigma * zig.normal(&mut rng),
                sigma * zig.normal(&mut rng),
                sigma * zig.normal(&mut rng),
            ];
        }
        self.rng = rng;
    }

    /// The stream after `normals` more standard normals: what a capture
    /// that draws exactly that many leaves behind.
    #[cfg(test)]
    pub(crate) fn after_normals(&self, normals: u64) -> Self {
        let mut next = self.clone();
        for _ in 0..normals {
            let _ = Ziggurat::get().normal(&mut next.rng);
        }
        next
    }
}

/// Layers of the ziggurat.
const LAYERS: usize = 128;
/// Where the base layer's rectangle ends and the tail begins.
const ZIG_R: f64 = 3.442619855899;
/// The area of every layer under `exp(-x²/2)`, the base's tail included.
const ZIG_V: f64 = 9.91256303526217e-3;

/// The unnormalised normal density `exp(-x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Marsaglia & Tsang's 128-layer ziggurat for the standard normal, with
/// Doornik's ZIGNOR acceptance (one uniform in `(-1, 1)` per attempt,
/// its sign the sample's). Layer `i` is the rectangle of width `x[i]`
/// between the heights `f[i]` and `f[i + 1]`; all have area `ZIG_V`.
/// The base, layer 0, is the rectangle under `f(R)` out to `R` plus the
/// tail beyond it, given the virtual width `x[0] = V / f(R)`.
///
/// A draw lands in the part of its layer that lies under the curve at
/// every height (`|u| < x[i + 1] / x[i]`) about 99 % of the time and
/// costs one `next_u64` and a multiply. The rest test the wedge with
/// one `exp`, or sample the tail (Marsaglia 1964) with two `ln`s an
/// attempt, and retry on rejection, so the draws are exactly normal and
/// use a variable number of `u64`s.
#[derive(Debug)]
struct Ziggurat {
    /// Layer widths: `x[1] = R`, falling to `x[128] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = exp(-x[i]²/2)`, rising to `f[128] = 1`.
    f: [f64; LAYERS + 1],
    /// `x[i + 1] / x[i]`: the share of layer `i` accepted outright.
    inner: [f64; LAYERS],
}

impl Ziggurat {
    /// The table, built on first use.
    fn get() -> &'static Self {
        static TABLE: OnceLock<Ziggurat> = OnceLock::new();
        TABLE.get_or_init(Self::new)
    }

    /// Doornik's `zigNorInit`: each width follows from the one below it
    /// so that the layer between them has area `ZIG_V`.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is below LAYERS + 1 by the loop bounds"
    )]
    fn new() -> Self {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        Self {
            x,
            f: x.map(density),
            inner: std::array::from_fn(|i| x[i + 1] / x[i]),
        }
    }

    /// One standard normal. The low 7 bits of a `u64` pick the layer and
    /// its top 53 bits the uniform, so the two are independent.
    #[expect(
        clippy::indexing_slicing,
        reason = "i < LAYERS by the 7-bit mask, so i + 1 <= LAYERS"
    )]
    #[inline(always)]
    fn normal(&self, rng: &mut StdRng) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & (LAYERS as u64 - 1)) as usize;
            let u = symmetric_unit(bits);
            if u.abs() < self.inner[i] {
                return u * self.x[i];
            }
            if i == 0 {
                // By value, so that no pointer to `rng` escapes the
                // caller's loop.
                let (x, next) = tail(rng.clone(), u < 0.0);
                *rng = next;
                return x;
            }
            let x = u * self.x[i];
            if self.f[i + 1] + unit(rng.next_u64()) * (self.f[i] - self.f[i + 1]) < density(x) {
                return x;
            }
        }
    }
}

/// A normal beyond `±ZIG_R`, `-` if `negative`: Marsaglia's exact tail
/// method, as in Doornik's `DRanNormalTail`. Out of line: about one
/// draw in 1750 lands here.
#[cold]
#[inline(never)]
fn tail(mut rng: StdRng, negative: bool) -> (f64, StdRng) {
    loop {
        // Both uniforms lie in (0, 1], so both logarithms are finite.
        let x = (1.0 - unit(rng.next_u64())).ln() / ZIG_R;
        let y = (1.0 - unit(rng.next_u64())).ln();
        if -2.0 * y >= x * x {
            return (if negative { x - ZIG_R } else { ZIG_R - x }, rng);
        }
    }
}

/// A uniform in `[0, 1)` from the top 53 bits of `bits`.
fn unit(bits: u64) -> f64 {
    #[expect(clippy::cast_precision_loss, reason = "bits >> 11 < 2^53 is exact")]
    let top = (bits >> 11) as f64;
    top * (f64::EPSILON / 2.0)
}

/// A uniform in `(-1, 1)` from the top 53 bits of `bits`: the odd
/// multiples of 2^-53, exact and symmetric about zero, so `-u` is as
/// likely as `u` and no draw is exactly zero or ±1.
fn symmetric_unit(bits: u64) -> f64 {
    const TOP: i64 = 1 << 53;
    #[expect(
        clippy::cast_possible_wrap,
        reason = "(bits >> 11) < 2^53, so the sum fits an i64"
    )]
    let odd = 2 * (bits >> 11) as i64 + 1 - TOP;
    #[expect(clippy::cast_precision_loss, reason = "|odd| < 2^53 is exact")]
    let odd = odd as f64;
    odd * (f64::EPSILON / 2.0)
}

/// The single-pole low-pass over the three analog channels.
#[derive(Debug, Clone)]
pub(crate) struct LowPass {
    /// Smoothing coefficient in `(0, 1]`; 1 = no filtering.
    alpha: f64,
    state: Option<[f64; 3]>,
}

impl LowPass {
    /// Adds `noise` to the sample's channels and filters the result.
    pub(crate) fn apply(&mut self, sample: DaqSample, noise: [f64; 3]) -> DaqSample {
        DaqSample {
            channels: self.step(sample.channels, noise),
            ..sample
        }
    }

    /// Adds `noise` to `channels` and filters the result.
    pub(crate) fn step(
        &mut self,
        channels: ChannelVoltages,
        [n1, n2, n3]: [f64; 3],
    ) -> ChannelVoltages {
        let noisy = [channels.v1 + n1, channels.v2 + n2, channels.vcpu + n3];
        let [v1, v2, vcpu] = match &mut self.state {
            None => *self.state.insert(noisy),
            Some(state) => {
                for (s, n) in state.iter_mut().zip(noisy) {
                    *s += self.alpha * (n - *s);
                }
                *state
            }
        };
        ChannelVoltages { v1, v2, vcpu }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: f64) -> DaqSample {
        DaqSample {
            time_s: 0.0,
            channels: ChannelVoltages {
                v1: v,
                v2: v,
                vcpu: v,
            },
            pport_bits: 0b101,
        }
    }

    #[test]
    fn ideal_is_transparent() {
        let mut c = SignalConditioner::ideal();
        let s = c.process(sample(1.25));
        assert_eq!(s.channels.v1, 1.25);
        assert_eq!(s.channels.vcpu, 1.25);
        assert_eq!(s.pport_bits, 0b101, "digital bits untouched");
    }

    #[test]
    fn noise_averages_out() {
        let mut c = SignalConditioner::new(1e-3, 1.0, 5);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| c.process(sample(1.0)).channels.vcpu)
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 1.0).abs() < 1e-4, "mean {mean}");
    }

    #[test]
    fn filter_converges_to_step_input() {
        let mut c = SignalConditioner::new(0.0, 0.2, 0);
        let _ = c.process(sample(0.0));
        let mut last = 0.0;
        for _ in 0..60 {
            last = c.process(sample(1.0)).channels.vcpu;
        }
        assert!((last - 1.0).abs() < 1e-4, "converged to {last}");
    }

    #[test]
    fn filter_smooths_alternating_input() {
        let mut c = SignalConditioner::new(0.0, 0.2, 0);
        let mut outputs = Vec::new();
        for i in 0..200 {
            let v = if i % 2 == 0 { 0.0 } else { 1.0 };
            outputs.push(c.process(sample(v)).channels.vcpu);
        }
        let tail = &outputs[100..];
        let spread = tail.iter().cloned().fold(f64::MIN, f64::max)
            - tail.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.25, "filtered ripple {spread} << input swing 1.0");
    }

    /// `fill` over a block draws what as many `draw()`s do, in order, and
    /// leaves the generator where they do: `3n` normals on, whatever the
    /// block's size. 4096 instants draw about seven tail normals.
    #[test]
    fn fill_leaves_the_generator_where_as_many_draws_do() {
        let seeded = SignalConditioner::ni_unit(19).noise;
        for n in [1, 3, 1024, 4096] {
            let mut filled = seeded.clone();
            let mut block = vec![[0.0; 3]; n];
            filled.fill(&mut block);
            let mut drawn = seeded.clone();
            let draws: Vec<[f64; 3]> = (0..n).map(|_| drawn.draw()).collect();
            assert_eq!(block, draws, "{n} instants");
            assert_eq!(filled, drawn, "{n} instants");
            assert_eq!(filled, seeded.after_normals(3 * n as u64), "{n} instants");
        }
    }

    /// Normal draws over the whole table: 2^21 of them, from a fixed seed.
    const DRAWS: usize = 1 << 21;

    fn normals() -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(2006);
        (0..DRAWS)
            .map(|_| Ziggurat::get().normal(&mut rng))
            .collect()
    }

    /// `∫ₐᵇ g`, by composite Simpson's rule over 2^16 panels.
    fn integrate(g: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
        let panels = 1u32 << 16;
        let h = (b - a) / f64::from(panels);
        let weighted: f64 = (0..=panels)
            .map(|k| {
                let w = match k {
                    0 => 1.0,
                    k if k == panels => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                w * g(a + f64::from(k) * h)
            })
            .sum();
        weighted * h / 3.0
    }

    /// The standard normal's mass on `[a, b]`.
    fn normal_mass(a: f64, b: f64) -> f64 {
        integrate(density, a, b) / std::f64::consts::TAU.sqrt()
    }

    #[test]
    fn the_mass_integral_is_accurate() {
        // erfc(3/√2) and erfc(4/√2), to 16 digits.
        for (k, two_sided) in [
            (3.0, 2.699_796_063_260_189e-3),
            (4.0, 6.334_248_366_623_984e-5),
        ] {
            let got = 2.0 * normal_mass(k, 40.0);
            assert!(
                (got / two_sided - 1.0).abs() < 1e-12,
                "P(|z| > {k}) = {got}"
            );
        }
    }

    #[test]
    fn every_layer_has_area_v() {
        let zig = Ziggurat::get();
        let base = ZIG_R * density(ZIG_R) + integrate(density, ZIG_R, ZIG_R + 40.0);
        assert!((base / ZIG_V - 1.0).abs() < 1e-12, "base area {base}");
        assert_eq!((zig.x[LAYERS], zig.f[LAYERS]), (0.0, 1.0));
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            // The published R is the exact root 3.442 619 855 896 65… to
            // 13 digits. The recursion carries that rounding up to the top
            // layer, which closes to 1.2e-9 over V rather than 1e-12.
            let tolerance = if i == LAYERS - 1 { 2e-9 } else { 1e-12 };
            assert!(
                (area / ZIG_V - 1.0).abs() < tolerance,
                "layer {i}: area {area}"
            );
        }
    }

    #[test]
    fn ziggurat_moments_and_tails_are_normal() {
        let z = normals();
        let n = DRAWS as f64;
        let mean = z.iter().sum::<f64>() / n;
        let central = |p: i32| z.iter().map(|v| (v - mean).powi(p)).sum::<f64>() / n;
        let var = central(2);
        let skew = central(3) / var.powf(1.5);
        let kurtosis = central(4) / (var * var) - 3.0;
        // Five standard errors: √(1/n), √(2/n), √(6/n), √(24/n).
        let bound = |c: f64| 5.0 * (c / n).sqrt();
        assert!(mean.abs() < bound(1.0), "mean {mean}");
        assert!((var - 1.0).abs() < bound(2.0), "variance {var}");
        assert!(skew.abs() < bound(6.0), "skew {skew}");
        assert!(kurtosis.abs() < bound(24.0), "excess kurtosis {kurtosis}");
        // Tail counts within five binomial standard deviations.
        for k in [3.0, 4.0] {
            let p = 2.0 * normal_mass(k, 40.0);
            let expected = n * p;
            let sd = (n * p * (1.0 - p)).sqrt();
            let count = z.iter().filter(|v| v.abs() > k).count() as f64;
            assert!(
                (count - expected).abs() < 5.0 * sd,
                "P(|z| > {k}): {count} draws, expected {expected:.0} ± {sd:.0}"
            );
        }
    }

    #[test]
    fn ziggurat_passes_a_chi_square_test() {
        // 32 bins of width 1/4 over [-4, 4], plus the two tails.
        let bin = |v: f64| ((v + 4.0) * 4.0).floor().clamp(-1.0, 32.0) as i32 + 1;
        let mut observed = [0u32; 34];
        for v in normals() {
            observed[bin(v) as usize] += 1;
        }
        let edge = |b: i32| match b {
            0 => -40.0,
            34 => 40.0,
            b => -4.0 + f64::from(b - 1) * 0.25,
        };
        let chi2: f64 = (0..34)
            .map(|b| {
                let expected = DRAWS as f64 * normal_mass(edge(b), edge(b + 1));
                (f64::from(observed[b as usize]) - expected).powi(2) / expected
            })
            .sum();
        // The 0.999 quantile of χ² with 33 degrees of freedom.
        assert!(chi2 < 63.87, "χ² = {chi2} over 34 bins");
    }

    #[test]
    #[should_panic(expected = "filter alpha")]
    fn zero_alpha_rejected() {
        let _ = SignalConditioner::new(0.0, 0.0, 0);
    }
}
