//! A single FPGA device type `D_i = (c_i, t_i, d_i, l_i, u_i)`.

use crate::error::FpgaError;
use std::fmt;

/// One device type of the heterogeneous library.
///
/// Fields follow the paper's Table I: `c` elementary circuit units (CLBs),
/// `t` terminals (IOBs), price `d`, and lower/upper bounds `l`, `u` on CLB
/// utilization of a feasible partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    name: String,
    clbs: u32,
    iobs: u32,
    price: u64,
    min_util: f64,
    max_util: f64,
}

impl Device {
    /// Creates a device type.
    ///
    /// # Panics
    ///
    /// Panics if `clbs == 0`, `iobs == 0` or the utilization bounds are not
    /// `0 ≤ min_util ≤ max_util ≤ 1`.
    pub fn new(
        name: impl Into<String>,
        clbs: u32,
        iobs: u32,
        price: u64,
        min_util: f64,
        max_util: f64,
    ) -> Self {
        match Device::try_new(name, clbs, iobs, price, min_util, max_util) {
            Ok(d) => d,
            Err(FpgaError::InvalidDevice { what, .. }) if what.contains("capacities") => {
                panic!("device capacities must be positive")
            }
            Err(_) => panic!("utilization bounds must satisfy 0 ≤ l ≤ u ≤ 1"),
        }
    }

    /// Non-panicking [`Device::new`]: validates the parameters and
    /// returns [`FpgaError::InvalidDevice`] instead of panicking.
    pub fn try_new(
        name: impl Into<String>,
        clbs: u32,
        iobs: u32,
        price: u64,
        min_util: f64,
        max_util: f64,
    ) -> Result<Self, FpgaError> {
        let name = name.into();
        if clbs == 0 || iobs == 0 {
            return Err(FpgaError::InvalidDevice {
                name,
                what: format!("capacities must be positive (c={clbs}, t={iobs})"),
            });
        }
        if !((0.0..=1.0).contains(&min_util)
            && (0.0..=1.0).contains(&max_util)
            && min_util <= max_util)
        {
            return Err(FpgaError::InvalidDevice {
                name,
                what: format!(
                    "utilization bounds must satisfy 0 ≤ l ≤ u ≤ 1 (l={min_util}, u={max_util})"
                ),
            });
        }
        Ok(Device {
            name,
            clbs,
            iobs,
            price,
            min_util,
            max_util,
        })
    }

    /// A copy of this device with the lower utilization bound `l_i`
    /// relaxed to 0, so parts may underfill it. Used by the k-way
    /// escalation ladder when the strict feasibility window admits no
    /// partition.
    pub fn relaxed_floor(&self) -> Device {
        Device {
            min_util: 0.0,
            ..self.clone()
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// CLB capacity `c_i`.
    pub fn clbs(&self) -> u32 {
        self.clbs
    }

    /// Terminal (IOB) count `t_i`.
    pub fn iobs(&self) -> u32 {
        self.iobs
    }

    /// Unit price `d_i`.
    pub fn price(&self) -> u64 {
        self.price
    }

    /// Lower CLB-utilization bound `l_i`.
    pub fn min_util(&self) -> f64 {
        self.min_util
    }

    /// Upper CLB-utilization bound `u_i`.
    pub fn max_util(&self) -> f64 {
        self.max_util
    }

    /// The smallest CLB count a feasible partition may place on this
    /// device (`⌈l_i·c_i⌉`).
    pub fn min_clbs(&self) -> u64 {
        (self.min_util * f64::from(self.clbs())).ceil() as u64
    }

    /// The largest CLB count a feasible partition may place on this
    /// device (`⌊u_i·c_i⌋`).
    pub fn max_clbs(&self) -> u64 {
        (self.max_util * f64::from(self.clbs())).floor() as u64
    }

    /// The paper's feasibility test: `l_i·c_i ≤ clbs ≤ u_i·c_i` and
    /// `terminals ≤ t_i`.
    pub fn fits(&self, clbs: u64, terminals: u64) -> bool {
        clbs >= self.min_clbs() && clbs <= self.max_clbs() && terminals <= u64::from(self.iobs())
    }

    /// Price per CLB, the marginal-cost figure of Table I's last column.
    pub fn cost_per_clb(&self) -> f64 {
        self.price as f64 / f64::from(self.clbs())
    }

    /// CLB utilization of a partition with `clbs` blocks on this device.
    pub fn clb_utilization(&self, clbs: u64) -> f64 {
        clbs as f64 / f64::from(self.clbs())
    }

    /// IOB utilization of a partition with `terminals` used terminals.
    pub fn iob_utilization(&self, terminals: u64) -> f64 {
        terminals as f64 / f64::from(self.iobs())
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (c={}, t={}, d={}, l={:.2}, u={:.2})",
            self.name, self.clbs, self.iobs, self.price, self.min_util, self.max_util
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_window() {
        let d = Device::new("X", 100, 50, 135, 0.5, 0.9);
        assert_eq!(d.min_clbs(), 50);
        assert_eq!(d.max_clbs(), 90);
        assert!(d.fits(50, 50));
        assert!(d.fits(90, 0));
        assert!(!d.fits(49, 10));
        assert!(!d.fits(91, 10));
        assert!(!d.fits(60, 51));
    }

    #[test]
    fn utilizations() {
        let d = Device::new("X", 200, 100, 1, 0.0, 1.0);
        assert!((d.clb_utilization(100) - 0.5).abs() < 1e-12);
        assert!((d.iob_utilization(25) - 0.25).abs() < 1e-12);
        assert!((d.cost_per_clb() - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "utilization bounds")]
    fn bad_bounds_panic() {
        Device::new("X", 10, 10, 1, 0.9, 0.5);
    }

    #[test]
    #[should_panic(expected = "capacities must be positive")]
    fn zero_capacity_panics() {
        Device::new("X", 0, 10, 1, 0.0, 1.0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let d = Device::new("XC3020", 64, 64, 100, 0.0, 0.9);
        let s = d.to_string();
        assert!(s.contains("XC3020") && s.contains("c=64") && s.contains("d=100"));
    }

    #[test]
    fn canonical_device_is_backed_by_the_canonical_vector() {
        // The canonical capacity vector is the paper's two axes: c CLBs, t IOBs.
        let d = Device::new("XC3020", 64, 58, 100, 0.0, 0.9);
        assert_eq!(d.clbs(), 64);
        assert_eq!(d.iobs(), 58);
        // The exact 5-tuple format, byte for byte.
        assert_eq!(d.to_string(), "XC3020 (c=64, t=58, d=100, l=0.00, u=0.90)");
    }
}
