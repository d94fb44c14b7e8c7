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
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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
#[derive(Debug, Clone)]
pub(crate) struct ChannelNoise {
    /// Standard deviation of the noise, in volts.
    sigma_v: f64,
    rng: StdRng,
}

impl ChannelNoise {
    /// The noise on `[v1, v2, vcpu]` at the next sample instant.
    pub(crate) fn draw(&mut self) -> [f64; 3] {
        [self.gaussian(), self.gaussian(), self.gaussian()]
    }

    /// Whether every draw is zero (σ = 0): such a stream never advances.
    pub(crate) fn is_silent(&self) -> bool {
        self.sigma_v == 0.0
    }

    /// Advances past `instants` sample instants without computing their
    /// noise: the state afterwards is what `instants` calls to [`draw`]
    /// leave, since each draw consumes exactly six raw `u64`s (two per
    /// channel) and a silent stream consumes none.
    ///
    /// [`draw`]: ChannelNoise::draw
    pub(crate) fn skip(&mut self, instants: usize) {
        if self.is_silent() {
            return;
        }
        for _ in 0..instants * 6 {
            self.rng.next_u64();
        }
    }

    /// One Gaussian draw (Box–Muller).
    fn gaussian(&mut self) -> f64 {
        if self.is_silent() {
            return 0.0;
        }
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        self.sigma_v * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
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
    pub(crate) fn apply(&mut self, sample: DaqSample, [n1, n2, n3]: [f64; 3]) -> DaqSample {
        let noisy = [
            sample.channels.v1 + n1,
            sample.channels.v2 + n2,
            sample.channels.vcpu + n3,
        ];
        let filtered = match &mut self.state {
            None => {
                self.state = Some(noisy);
                noisy
            }
            Some(state) => {
                for (s, n) in state.iter_mut().zip(noisy) {
                    *s += self.alpha * (n - *s);
                }
                *state
            }
        };
        DaqSample {
            channels: crate::sense::ChannelVoltages {
                v1: filtered[0],
                v2: filtered[1],
                vcpu: filtered[2],
            },
            ..sample
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense::ChannelVoltages;

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

    #[test]
    fn skip_lands_where_the_draws_would() {
        let seeded = SignalConditioner::ni_unit(9).noise;
        for n in [0, 1, 2, 7, 4096] {
            let mut skipped = seeded.clone();
            skipped.skip(n);
            let mut drawn = seeded.clone();
            for _ in 0..n {
                let _ = drawn.draw();
            }
            assert_eq!(skipped.rng, drawn.rng, "state after {n} instants");
            assert_eq!(skipped.draw(), drawn.draw(), "draw {}", n + 1);
        }
    }

    #[test]
    fn skip_is_a_no_op_without_noise() {
        let seeded = SignalConditioner::new(0.0, 0.2, 9).noise;
        let mut skipped = seeded.clone();
        skipped.skip(1000);
        assert_eq!(skipped.rng, seeded.rng);
        assert_eq!(skipped.draw(), [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "filter alpha")]
    fn zero_alpha_rejected() {
        let _ = SignalConditioner::new(0.0, 0.0, 0);
    }
}
