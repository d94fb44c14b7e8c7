//! The sense-resistor network between the voltage regulator and the CPU.
//!
//! The prototype board routes the CPU supply current through two parallel
//! 2 mΩ precision resistors, `R1` and `R2`. The rig observes the upstream
//! voltages `V1`, `V2` and the downstream CPU voltage `VCPU`; currents and
//! power are reconstructed as
//!
//! ```text
//! I1 = (V1 − VCPU) / R1,   I2 = (V2 − VCPU) / R2,   P = VCPU · (I1 + I2).
//! ```

/// The analog voltages present on the three measured channels at one
/// instant, before conditioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelVoltages {
    /// Voltage upstream of R1, in volts.
    pub v1: f64,
    /// Voltage upstream of R2, in volts.
    pub v2: f64,
    /// CPU supply voltage, in volts.
    pub vcpu: f64,
}

/// The two-resistor sense network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseCircuit {
    /// First sense resistor, in ohms.
    pub r1_ohm: f64,
    /// Second sense resistor, in ohms.
    pub r2_ohm: f64,
}

impl SenseCircuit {
    /// The prototype board's two 2 mΩ resistors.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            r1_ohm: 0.002,
            r2_ohm: 0.002,
        }
    }

    /// Forward model: the channel voltages produced when the CPU draws
    /// `power_w` at `vcpu` volts. The supply current splits between the
    /// parallel resistors in inverse proportion to their resistance.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is not positive or `power_w` is negative.
    #[must_use]
    pub fn forward(&self, power_w: f64, vcpu: f64) -> ChannelVoltages {
        assert!(vcpu > 0.0, "CPU voltage must be positive");
        assert!(power_w >= 0.0, "power must be non-negative");
        let total_i = power_w / vcpu;
        // Parallel split: I1/I2 = R2/R1.
        let i1 = total_i * self.r2_ohm / (self.r1_ohm + self.r2_ohm);
        let i2 = total_i - i1;
        ChannelVoltages {
            v1: vcpu + i1 * self.r1_ohm,
            v2: vcpu + i2 * self.r2_ohm,
            vcpu,
        }
    }

    /// Inverse model (what the logging machine computes): reconstructs CPU
    /// power from measured channel voltages. Negative reconstructed drops
    /// (possible under noise at near-zero load) clamp to zero current.
    #[must_use]
    pub fn reconstruct_power(&self, ch: ChannelVoltages) -> f64 {
        let i1 = ((ch.v1 - ch.vcpu) / self.r1_ohm).max(0.0);
        let i2 = ((ch.v2 - ch.vcpu) / self.r2_ohm).max(0.0);
        ch.vcpu * (i1 + i2)
    }
}

impl Default for SenseCircuit {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_reconstruct_is_identity() {
        let c = SenseCircuit::pentium_m();
        for &(p, v) in &[(13.0, 1.484), (3.0, 0.956), (0.0, 1.0)] {
            let ch = c.forward(p, v);
            let p2 = c.reconstruct_power(ch);
            assert!((p - p2).abs() < 1e-9, "{p} W -> {p2} W");
        }
    }

    #[test]
    fn equal_resistors_split_current_evenly() {
        let c = SenseCircuit::pentium_m();
        let ch = c.forward(14.84, 1.484); // 10 A total
        let drop1 = ch.v1 - ch.vcpu;
        let drop2 = ch.v2 - ch.vcpu;
        assert!((drop1 - drop2).abs() < 1e-12);
        // 5 A through 2 mOhm = 10 mV.
        assert!((drop1 - 0.010).abs() < 1e-9);
    }

    #[test]
    fn unequal_resistors_split_inversely() {
        let c = SenseCircuit {
            r1_ohm: 0.002,
            r2_ohm: 0.004,
        };
        let ch = c.forward(6.0, 1.0); // 6 A total
        let i1 = (ch.v1 - ch.vcpu) / c.r1_ohm;
        let i2 = (ch.v2 - ch.vcpu) / c.r2_ohm;
        assert!((i1 - 4.0).abs() < 1e-9);
        assert!((i2 - 2.0).abs() < 1e-9);
        assert!((c.reconstruct_power(ch) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn noise_below_vcpu_clamps_to_zero() {
        let c = SenseCircuit::pentium_m();
        let ch = ChannelVoltages {
            v1: 0.999,
            v2: 1.001,
            vcpu: 1.0,
        };
        let p = c.reconstruct_power(ch);
        assert!((p - 0.5).abs() < 1e-9, "only the positive drop counts");
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_power_rejected() {
        let _ = SenseCircuit::pentium_m().forward(-1.0, 1.0);
    }
}
