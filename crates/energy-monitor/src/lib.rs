//! # energy-monitor
//!
//! Power/energy telemetry substrate for the training simulator and the
//! provenance layer.
//!
//! On Frontier the paper's library reads hardware counters (ROCm-SMI per
//! MI250X GCD). Those counters do not exist here, so this crate models
//! them: a [`device::PowerModel`] maps instantaneous utilization to
//! watts using published device envelopes, a [`sampler::PowerSampler`]
//! polls any [`sampler::PowerSource`] on a background thread (or under a
//! virtual clock for deterministic tests), and [`energy`] integrates the
//! sample stream into joules / kWh exactly the way the real tool
//! integrates SMI readings.
//!
//! ```
//! use energy_monitor::device::{PowerModel, mi250x_gcd};
//! use energy_monitor::energy::EnergyAccumulator;
//!
//! let gcd = mi250x_gcd();
//! let mut acc = EnergyAccumulator::new();
//! // One simulated second at 100% utilization, sampled every 100 ms.
//! for i in 0..=10 {
//!     acc.add_sample(i as f64 * 0.1, gcd.power_at(1.0));
//! }
//! let joules = acc.joules();
//! assert!((joules - gcd.power_at(1.0)).abs() < 1e-9);
//! ```

pub mod device;
pub mod energy;
pub mod sampler;

pub use device::{epyc_7a53, mi250x_gcd, PowerModel};
pub use energy::EnergyAccumulator;
pub use sampler::{PowerSample, PowerSampler, PowerSource, VirtualClock};
