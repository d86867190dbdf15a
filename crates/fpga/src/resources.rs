//! Pluggable per-device resource vectors with named axes.
//!
//! The paper fixes a device at the 5-tuple `(c, t, d, l, u)`; the
//! Multi-Personality generalization replaces the two capacity scalars
//! with a vector of named resource axes (CLBs, IOBs, DSPs, BRAM, …).
//! [`ResourceVec`] is that vector. Two positions carry contract
//! meaning:
//!
//! * **axis 0** is the area axis — the quantity the utilization window
//!   `l_i·c_i ≤ · ≤ u_i·c_i` bounds (the paper's `c`);
//! * **axis 1** is the terminal axis — the quantity capped absolutely
//!   (the paper's `t`).
//!
//! The canonical instance [`ResourceVec::canonical`] has exactly the
//! axes `["clbs", "iobs"]`, and a [`Device`](crate::Device) built from
//! it is observably identical to the historical 5-tuple device — same
//! arithmetic, same `Display`, same certificate bytes (the differential
//! harness in `tests/resourcevec_differential.rs` pins this).

use crate::error::FpgaError;
use std::fmt;

/// The two axis names every canonical device carries, in order.
pub const CANONICAL_AXES: [&str; 2] = ["clbs", "iobs"];

/// A named, ordered resource vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceVec {
    axes: Vec<String>,
    amounts: Vec<u64>,
}

impl ResourceVec {
    /// Builds a resource vector from parallel axis-name / amount lists.
    ///
    /// # Errors
    ///
    /// [`FpgaError::InvalidDevice`] when the lists disagree in length,
    /// fewer than two axes are given (the area and terminal axes are
    /// mandatory), an axis name is empty or duplicated, or the area /
    /// terminal amounts are zero or exceed `u32::MAX` (they must fit
    /// the paper's exact `u32`-based window arithmetic).
    pub fn new(axes: Vec<String>, amounts: Vec<u64>) -> Result<Self, FpgaError> {
        let invalid = |what: String| {
            Err(FpgaError::InvalidDevice {
                name: "<resource-vec>".into(),
                what,
            })
        };
        if axes.len() != amounts.len() {
            return invalid(format!(
                "axis/amount length mismatch ({} vs {})",
                axes.len(),
                amounts.len()
            ));
        }
        if axes.len() < 2 {
            return invalid("a resource vector needs at least the area and terminal axes".into());
        }
        for (i, axis) in axes.iter().enumerate() {
            if axis.is_empty() {
                return invalid("empty axis name".into());
            }
            if axes[..i].contains(axis) {
                return invalid(format!("duplicate axis `{axis}`"));
            }
        }
        for (axis, &amount) in axes.iter().zip(&amounts).take(2) {
            if amount == 0 {
                return invalid(format!("axis `{axis}` must be positive"));
            }
            if amount > u64::from(u32::MAX) {
                return invalid(format!("axis `{axis}` exceeds u32::MAX ({amount})"));
            }
        }
        Ok(ResourceVec { axes, amounts })
    }

    /// The canonical paper instance: axes `["clbs", "iobs"]`.
    ///
    /// # Panics
    ///
    /// Panics if `clbs == 0` or `iobs == 0` (mirrors [`Device::new`]'s
    /// historical contract; use [`ResourceVec::new`] to get an error).
    ///
    /// [`Device::new`]: crate::Device::new
    pub fn canonical(clbs: u32, iobs: u32) -> Self {
        match Self::new(
            CANONICAL_AXES.iter().map(|s| s.to_string()).collect(),
            vec![u64::from(clbs), u64::from(iobs)],
        ) {
            Ok(v) => v,
            Err(_) => panic!("capacities must be positive"),
        }
    }

    /// Axis names, in order.
    pub fn axes(&self) -> &[String] {
        &self.axes
    }

    /// Amounts, parallel to [`axes`](Self::axes).
    pub fn amounts(&self) -> &[u64] {
        &self.amounts
    }

    /// Number of axes.
    pub fn len(&self) -> usize {
        self.axes.len()
    }

    /// Always false — construction requires ≥ 2 axes.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Looks an amount up by axis name.
    pub fn get(&self, axis: &str) -> Option<u64> {
        self.axes
            .iter()
            .position(|a| a == axis)
            .map(|i| self.amounts[i])
    }

    /// The area axis (axis 0) — the paper's `c_i`, bounded by the
    /// utilization window. Fits `u32` by construction.
    pub fn area(&self) -> u32 {
        self.amounts[0] as u32
    }

    /// The terminal axis (axis 1) — the paper's `t_i`. Fits `u32` by
    /// construction.
    pub fn terminals(&self) -> u32 {
        self.amounts[1] as u32
    }

    /// Whether this is the canonical `["clbs", "iobs"]` instance.
    pub fn is_canonical(&self) -> bool {
        self.axes.len() == 2 && self.axes[0] == CANONICAL_AXES[0] && self.axes[1] == CANONICAL_AXES[1]
    }

    /// Component-wise `demand ≤ self` over every axis *beyond* the
    /// area/terminal pair (those two have their own window semantics on
    /// [`Device`](crate::Device)). A demand axis missing from this
    /// vector fails the fit; extra capacity axes with no demand pass.
    pub fn covers_extra(&self, demand: &ResourceVec) -> bool {
        demand
            .axes
            .iter()
            .zip(&demand.amounts)
            .skip(2)
            .all(|(axis, &need)| self.get(axis).is_some_and(|have| need <= have))
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (axis, amount)) in self.axes.iter().zip(&self.amounts).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{axis}={amount}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_has_the_paper_axes() {
        let v = ResourceVec::canonical(64, 58);
        assert!(v.is_canonical());
        assert_eq!(v.area(), 64);
        assert_eq!(v.terminals(), 58);
        assert_eq!(v.get("clbs"), Some(64));
        assert_eq!(v.get("iobs"), Some(58));
        assert_eq!(v.get("dsp"), None);
    }

    #[test]
    fn extra_axes_fit_componentwise() {
        let cap = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into(), "bram".into()],
            vec![100, 50, 8, 4],
        )
        .expect("valid");
        assert!(!cap.is_canonical());
        let need = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into()],
            vec![10, 5, 8],
        )
        .expect("valid");
        assert!(cap.covers_extra(&need));
        let too_much = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into()],
            vec![10, 5, 9],
        )
        .expect("valid");
        assert!(!cap.covers_extra(&too_much));
        let unknown = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "serdes".into()],
            vec![10, 5, 1],
        )
        .expect("valid");
        assert!(!cap.covers_extra(&unknown));
    }

    #[test]
    fn zero_extra_axes_are_allowed() {
        let v = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into()],
            vec![100, 50, 0],
        )
        .expect("a device with zero DSPs is real");
        assert_eq!(v.get("dsp"), Some(0));
    }

    #[test]
    fn invalid_vectors_are_rejected() {
        assert!(ResourceVec::new(vec!["clbs".into()], vec![1]).is_err());
        assert!(ResourceVec::new(vec!["clbs".into(), "iobs".into()], vec![0, 1]).is_err());
        assert!(ResourceVec::new(vec!["clbs".into(), "clbs".into()], vec![1, 1]).is_err());
        assert!(ResourceVec::new(vec!["clbs".into(), "iobs".into()], vec![1]).is_err());
    }

    #[test]
    fn display_lists_axes() {
        let v = ResourceVec::canonical(10, 20);
        assert_eq!(v.to_string(), "[clbs=10, iobs=20]");
    }
}
