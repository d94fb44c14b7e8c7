//! A lumped-parameter thermal model of the processor package.
//!
//! The paper names *dynamic thermal management* as a direct application of
//! its phase-prediction framework (Sections 1 and 8). To exercise that
//! claim the platform needs a thermal substrate: the standard first-order
//! RC model used throughout the DTM literature (e.g. Skadron et al.,
//! reference \[25\] of the paper):
//!
//! ```text
//! C_th · dT/dt = P − (T − T_amb) / R_th
//! ```
//!
//! with the closed-form step response used for piecewise-constant power:
//!
//! ```text
//! T(t) = T_ss + (T_0 − T_ss) · e^(−t/τ),   T_ss = T_amb + P·R_th,  τ = R_th·C_th
//! ```

/// First-order package thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Junction-to-ambient thermal resistance, in °C per watt.
    pub r_th: f64,
    /// Thermal capacitance, in joules per °C.
    pub c_th: f64,
    /// Ambient temperature, in °C.
    pub t_ambient: f64,
}

impl ThermalModel {
    /// A laptop-class Pentium-M package: ≈ 3.2 °C/W junction-to-ambient
    /// (small heat pipe + fan), ≈ 4 J/°C, 35 °C chassis ambient. At the
    /// ≈ 13 W peak this settles near 77 °C; at the 600 MHz floor near
    /// 43 °C — bracketing the ≈ 100 °C junction limit with DTM headroom.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            r_th: 3.2,
            c_th: 4.0,
            t_ambient: 35.0,
        }
    }

    /// The thermal time constant `τ = R·C`, in seconds.
    #[must_use]
    pub fn time_constant_s(&self) -> f64 {
        self.r_th * self.c_th
    }

    /// Steady-state temperature under constant power, in °C.
    #[must_use]
    pub fn steady_state(&self, power_w: f64) -> f64 {
        self.t_ambient + power_w * self.r_th
    }

    /// Evolves a temperature for `seconds` under constant `power_w`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or any argument is non-finite.
    #[must_use]
    pub fn step(&self, t_now: f64, power_w: f64, seconds: f64) -> f64 {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "time step must be finite and non-negative"
        );
        assert!(
            t_now.is_finite() && power_w.is_finite(),
            "non-finite inputs"
        );
        let t_ss = self.steady_state(power_w);
        t_ss + (t_now - t_ss) * (-seconds / self.time_constant_s()).exp()
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::pentium_m()
    }
}

/// A temperature integrator over a sequence of power segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    model: ThermalModel,
    temperature_c: f64,
    peak_c: f64,
}

impl ThermalState {
    /// Starts at ambient temperature.
    #[must_use]
    pub fn new(model: ThermalModel) -> Self {
        Self {
            model,
            temperature_c: model.t_ambient,
            peak_c: model.t_ambient,
        }
    }

    /// Current junction temperature, in °C.
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Highest temperature seen so far, in °C.
    #[must_use]
    pub fn peak_c(&self) -> f64 {
        self.peak_c
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> ThermalModel {
        self.model
    }

    /// Advances the state through a constant-power slice.
    pub fn advance(&mut self, power_w: f64, seconds: f64) {
        // Within a slice the trajectory is monotone toward steady state,
        // so the peak is at whichever end is hotter.
        let t_end = self.model.step(self.temperature_c, power_w, seconds);
        let t_ss = self.model.steady_state(power_w);
        let slice_peak = if t_ss >= self.temperature_c {
            t_end // heating: end of slice is hottest
        } else {
            self.temperature_c // cooling: start was hottest
        };
        self.peak_c = self.peak_c.max(slice_peak);
        self.temperature_c = t_end;
    }

    /// Temperature the package would settle at if the given power
    /// persisted — what a *predictive* thermal manager evaluates before
    /// committing to a setting.
    #[must_use]
    pub fn projected_steady_state(&self, power_w: f64) -> f64 {
        self.model.steady_state(power_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalModel {
        ThermalModel::pentium_m()
    }

    #[test]
    fn steady_states_bracket_the_envelope() {
        let m = model();
        let hot = m.steady_state(13.0);
        let cold = m.steady_state(2.5);
        assert!((70.0..90.0).contains(&hot), "peak steady state {hot}");
        assert!((40.0..50.0).contains(&cold), "floor steady state {cold}");
    }

    #[test]
    fn step_converges_exponentially() {
        let m = model();
        let t_ss = m.steady_state(10.0);
        // One time constant covers ~63% of the gap.
        let t1 = m.step(m.t_ambient, 10.0, m.time_constant_s());
        let covered = (t1 - m.t_ambient) / (t_ss - m.t_ambient);
        assert!((covered - 0.632).abs() < 0.01, "covered {covered}");
        // Many time constants: fully settled.
        let t_inf = m.step(m.t_ambient, 10.0, 50.0 * m.time_constant_s());
        assert!((t_inf - t_ss).abs() < 1e-6);
    }

    #[test]
    fn zero_time_is_identity() {
        let m = model();
        assert_eq!(m.step(55.0, 10.0, 0.0), 55.0);
    }

    #[test]
    fn cooling_works_too() {
        let m = model();
        let t = m.step(90.0, 2.0, 10.0 * m.time_constant_s());
        assert!((t - m.steady_state(2.0)).abs() < 0.1);
        assert!(t < 90.0);
    }

    #[test]
    fn state_tracks_peak_correctly() {
        let mut s = ThermalState::new(model());
        s.advance(13.0, 100.0); // heat to ~steady
        let hot = s.temperature_c();
        s.advance(2.0, 100.0); // cool down
        assert!(s.temperature_c() < hot);
        assert!((s.peak_c() - hot).abs() < 1e-9, "peak was the hot plateau");
    }

    #[test]
    fn peak_during_cooling_is_slice_start() {
        let mut s = ThermalState::new(model());
        s.advance(13.0, 1000.0);
        let before = s.temperature_c();
        s.advance(0.0, 0.001); // brief cooling slice
        assert!((s.peak_c() - before).abs() < 1e-9);
    }

    #[test]
    fn projection_matches_model() {
        let s = ThermalState::new(model());
        assert_eq!(s.projected_steady_state(10.0), model().steady_state(10.0));
    }

    #[test]
    #[should_panic(expected = "time step")]
    fn negative_time_rejected() {
        let _ = model().step(40.0, 5.0, -1.0);
    }
}
