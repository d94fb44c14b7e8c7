//! Operating points: frequency/voltage pairs and the SpeedStep table.
//!
//! The paper's prototype (a Pentium-M laptop with Intel SpeedStep) exposes
//! six operating points, reproduced in its Table 2:
//!
//! | Setting | Frequency | Voltage |
//! |---------|-----------|---------|
//! | 0       | 1500 MHz  | 1484 mV |
//! | 1       | 1400 MHz  | 1452 mV |
//! | 2       | 1200 MHz  | 1356 mV |
//! | 3       | 1000 MHz  | 1228 mV |
//! | 4       |  800 MHz  | 1116 mV |
//! | 5       |  600 MHz  |  956 mV |

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A core clock frequency, stored in megahertz.
///
/// ```
/// use livephase_pmsim::Frequency;
/// let f = Frequency::from_mhz(1500);
/// assert_eq!(f.mhz(), 1500);
/// assert_eq!(f.hz(), 1.5e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    #[must_use]
    pub fn from_mhz(mhz: u32) -> Self {
        assert!(mhz > 0, "frequency must be positive");
        Self(mhz)
    }

    /// The frequency in megahertz.
    #[must_use]
    pub fn mhz(self) -> u32 {
        self.0
    }

    /// The frequency in hertz, as a float for timing arithmetic.
    #[must_use]
    pub fn hz(self) -> f64 {
        f64::from(self.0) * 1e6
    }

    /// The frequency in gigahertz.
    #[must_use]
    pub fn ghz(self) -> f64 {
        f64::from(self.0) / 1000.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

/// A core supply voltage, stored in millivolts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Voltage(u32);

impl Voltage {
    /// Creates a voltage from millivolts.
    ///
    /// # Panics
    ///
    /// Panics if `mv` is zero.
    #[must_use]
    pub fn from_mv(mv: u32) -> Self {
        assert!(mv > 0, "voltage must be positive");
        Self(mv)
    }

    /// The voltage in millivolts.
    #[must_use]
    pub fn mv(self) -> u32 {
        self.0
    }

    /// The voltage in volts, as a float for power arithmetic.
    #[must_use]
    pub fn volts(self) -> f64 {
        f64::from(self.0) / 1000.0
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

/// One DVFS setting: a frequency and the matching supply voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core clock frequency.
    pub frequency: Frequency,
    /// Core supply voltage.
    pub voltage: Voltage,
}

impl OperatingPoint {
    /// Creates an operating point.
    #[must_use]
    pub fn new(frequency: Frequency, voltage: Voltage) -> Self {
        Self { frequency, voltage }
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.frequency, self.voltage)
    }
}

/// Error constructing an [`OperatingPointTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OppTableError {
    /// The table must hold at least one operating point.
    Empty,
    /// Points must be strictly decreasing in frequency (and, physically,
    /// voltage should not increase as frequency decreases).
    NotDecreasing {
        /// Index of the first out-of-order entry.
        index: usize,
    },
}

impl fmt::Display for OppTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "operating point table must not be empty"),
            Self::NotDecreasing { index } => write!(
                f,
                "operating points must be strictly decreasing in frequency and \
                 non-increasing in voltage (violated at index {index})"
            ),
        }
    }
}

impl Error for OppTableError {}

/// The set of operating points a platform supports, ordered from fastest
/// (index 0) to slowest.
///
/// ```
/// use livephase_pmsim::OperatingPointTable;
/// let t = OperatingPointTable::pentium_m();
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.fastest().frequency.mhz(), 1500);
/// assert_eq!(t.slowest().frequency.mhz(), 600);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatingPointTable {
    points: Vec<OperatingPoint>,
}

impl OperatingPointTable {
    /// Creates a table from points ordered fastest-first.
    ///
    /// # Errors
    ///
    /// Returns [`OppTableError`] if the list is empty, frequencies are not
    /// strictly decreasing, or voltages increase as frequency decreases.
    pub fn new(points: Vec<OperatingPoint>) -> Result<Self, OppTableError> {
        if points.is_empty() {
            return Err(OppTableError::Empty);
        }
        for (i, (a, b)) in points.iter().zip(points.iter().skip(1)).enumerate() {
            if b.frequency >= a.frequency || b.voltage > a.voltage {
                return Err(OppTableError::NotDecreasing { index: i + 1 });
            }
        }
        Ok(Self { points })
    }

    /// The paper's Table 2: the six SpeedStep settings of the Pentium-M
    /// prototype machine.
    #[must_use]
    pub fn pentium_m() -> Self {
        let mk = |mhz, mv| OperatingPoint::new(Frequency::from_mhz(mhz), Voltage::from_mv(mv));
        let table = Self::new(vec![
            mk(1500, 1484),
            mk(1400, 1452),
            mk(1200, 1356),
            mk(1000, 1228),
            mk(800, 1116),
            mk(600, 956),
        ]);
        match table {
            Ok(table) => table,
            Err(_) => unreachable!("static Table 2 points are valid"),
        }
    }

    /// Number of operating points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A table is never empty; this always returns `false` and exists for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operating point at `index` (0 = fastest).
    ///
    /// Returns `None` when out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<OperatingPoint> {
        self.points.get(index).copied()
    }

    /// The highest-frequency point (index 0). The paper's *baseline
    /// unmanaged system* always runs here.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "`new` rejects empty tables")]
    pub fn fastest(&self) -> OperatingPoint {
        self.points[0]
    }

    /// The lowest-frequency point.
    #[must_use]
    pub fn slowest(&self) -> OperatingPoint {
        self.points
            .last()
            .copied()
            .unwrap_or_else(|| self.fastest())
    }

    /// All points, fastest first.
    #[must_use]
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Iterates over `(index, point)` pairs, fastest first.
    pub fn iter(&self) -> impl Iterator<Item = (usize, OperatingPoint)> + '_ {
        self.points.iter().copied().enumerate()
    }

    /// Index of the point with the given frequency, if present.
    #[must_use]
    pub fn index_of(&self, frequency: Frequency) -> Option<usize> {
        self.points.iter().position(|p| p.frequency == frequency)
    }
}

impl Default for OperatingPointTable {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_matches_table2() {
        let t = OperatingPointTable::pentium_m();
        let expect = [
            (1500, 1484),
            (1400, 1452),
            (1200, 1356),
            (1000, 1228),
            (800, 1116),
            (600, 956),
        ];
        assert_eq!(t.len(), expect.len());
        for (i, (mhz, mv)) in expect.iter().enumerate() {
            let p = t.get(i).unwrap();
            assert_eq!(p.frequency.mhz(), *mhz);
            assert_eq!(p.voltage.mv(), *mv);
        }
    }

    #[test]
    fn unit_conversions() {
        let f = Frequency::from_mhz(800);
        assert_eq!(f.hz(), 8e8);
        assert!((f.ghz() - 0.8).abs() < 1e-12);
        let v = Voltage::from_mv(1116);
        assert!((v.volts() - 1.116).abs() < 1e-12);
    }

    #[test]
    fn rejects_unordered_tables() {
        let mk = |mhz, mv| OperatingPoint::new(Frequency::from_mhz(mhz), Voltage::from_mv(mv));
        assert_eq!(OperatingPointTable::new(vec![]), Err(OppTableError::Empty));
        assert!(matches!(
            OperatingPointTable::new(vec![mk(600, 956), mk(1500, 1484)]),
            Err(OppTableError::NotDecreasing { index: 1 })
        ));
        // Voltage rising while frequency falls is physically wrong.
        assert!(matches!(
            OperatingPointTable::new(vec![mk(1500, 1000), mk(1400, 1100)]),
            Err(OppTableError::NotDecreasing { index: 1 })
        ));
    }

    #[test]
    fn index_of_finds_points() {
        let t = OperatingPointTable::pentium_m();
        assert_eq!(t.index_of(Frequency::from_mhz(1200)), Some(2));
        assert_eq!(t.index_of(Frequency::from_mhz(1234)), None);
    }

    #[test]
    fn displays() {
        let p = OperatingPointTable::pentium_m().fastest();
        assert_eq!(p.to_string(), "(1500 MHz, 1484 mV)");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_mhz(0);
    }

    #[test]
    #[should_panic(expected = "voltage must be positive")]
    fn zero_voltage_rejected() {
        let _ = Voltage::from_mv(0);
    }
}
