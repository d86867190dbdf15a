//! Heterogeneous FPGA device library, feasibility and cost model.
//!
//! Implements the paper's device model: each library entry
//! `D_i = (c_i, t_i, d_i, l_i, u_i)` gives the CLB capacity, terminal
//! (IOB) count, unit price and the lower/upper utilization bounds. A
//! partition is *feasible* on a device iff its CLB count lies in
//! `[l_i·c_i, u_i·c_i]` and its terminal usage is at most `t_i`.
//!
//! The two objective functions of the paper are provided by
//! [`eval::Evaluation`]: total device cost `$_k = Σ d_i n_i` (eq. 1) and
//! average IOB utilization `k̄ = Σ t_Pj / Σ t_i n_i` (eq. 2).
//!
//! # Examples
//!
//! ```
//! use netpart_fpga::DeviceLibrary;
//!
//! let lib = DeviceLibrary::xc3000();
//! let dev = lib.cheapest_fitting(120, 60).expect("a device fits");
//! assert_eq!(dev.name(), "XC3042");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod error;
pub mod eval;
mod library;

pub use device::Device;
pub use error::FpgaError;
pub use eval::{assign_devices, evaluate, try_evaluate, Evaluation, PartEval};
pub use library::DeviceLibrary;
