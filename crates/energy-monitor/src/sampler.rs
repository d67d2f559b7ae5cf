//! Background power sampling.
//!
//! [`PowerSampler`] polls a [`PowerSource`] the way the paper's library
//! polls ROCm-SMI: on a background thread at a fixed interval, appending
//! `(time, watts)` samples to a shared buffer and integrating energy
//! online. Time comes from a [`VirtualClock`], which either follows the
//! wall clock or is advanced manually — the latter makes sampling fully
//! deterministic for the simulator and for tests.

use crate::energy::EnergyAccumulator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Anything that can report instantaneous power draw in watts.
pub trait PowerSource: Send + Sync {
    /// Current draw in watts.
    fn watts(&self) -> f64;
    /// Device label used in metric names.
    fn label(&self) -> String {
        "device".to_string()
    }
}

impl<F: Fn() -> f64 + Send + Sync> PowerSource for F {
    fn watts(&self) -> f64 {
        self()
    }
}

/// One collected sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Seconds on the sampler's clock.
    pub t_s: f64,
    /// Observed draw.
    pub watts: f64,
}

/// A clock that is either wall-time-based or manually advanced.
///
/// Internally microseconds in an atomic; `advance` makes simulated time
/// visible to the sampling thread without locks.
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at zero, advanced manually.
    pub fn manual() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Current reading in seconds.
    pub fn now_s(&self) -> f64 {
        self.micros.load(Ordering::Acquire) as f64 / 1e6
    }

    /// Advances the clock (manual mode).
    ///
    /// Non-finite `seconds` is a caller bug: it panics under
    /// `debug_assertions` and is dropped (no movement) in release
    /// builds — the previous behaviour cast `NaN as u64` to `0`
    /// silently, and `+inf` wrapped the counter. The reading saturates
    /// at `u64::MAX` microseconds instead of wrapping.
    pub fn advance(&self, seconds: f64) {
        debug_assert!(seconds.is_finite(), "non-finite clock advance: {seconds}");
        if !seconds.is_finite() {
            return;
        }
        assert!(seconds >= 0.0, "clock cannot go backwards");
        let delta = (seconds * 1e6) as u64; // saturating float-to-int cast
        let _ = self
            .micros
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                Some(cur.saturating_add(delta))
            });
    }

    /// Sets an absolute reading, which must not move backwards
    /// (backwards sets are ignored, keeping the clock monotonic).
    ///
    /// Non-finite `seconds` panics under `debug_assertions` and is
    /// dropped in release builds; negative readings clamp to zero and
    /// the conversion saturates at `u64::MAX` microseconds.
    pub fn set_s(&self, seconds: f64) {
        debug_assert!(seconds.is_finite(), "non-finite clock reading: {seconds}");
        if !seconds.is_finite() {
            return;
        }
        let new = (seconds * 1e6) as u64;
        let mut cur = self.micros.load(Ordering::Acquire);
        loop {
            if new < cur {
                return;
            }
            match self
                .micros
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Shared state between the sampler thread and its handle.
struct SamplerShared {
    samples: Mutex<Vec<PowerSample>>,
    energy: Mutex<EnergyAccumulator>,
    stop: AtomicBool,
}

impl SamplerShared {
    fn samples(&self) -> MutexGuard<'_, Vec<PowerSample>> {
        self.samples.lock().expect("sampler samples poisoned")
    }

    fn energy(&self) -> MutexGuard<'_, EnergyAccumulator> {
        self.energy.lock().expect("sampler energy poisoned")
    }

    fn record(&self, sample: PowerSample) {
        self.samples().push(sample);
        self.energy().add_sample(sample.t_s, sample.watts);
    }
}

/// A background power sampler.
///
/// Dropping the sampler stops the thread.
pub struct PowerSampler {
    shared: Arc<SamplerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
    clock: Arc<VirtualClock>,
}

impl PowerSampler {
    /// Spawns a sampling thread polling `source` every `interval`.
    ///
    /// Timestamps are read from `clock`; to sample simulated time,
    /// advance the clock from the simulation loop. The poll cadence
    /// itself is wall-time (`interval`), so with a manual clock the
    /// effective resolution is `interval` polls per wall tick.
    pub fn spawn(
        source: Arc<dyn PowerSource>,
        clock: Arc<VirtualClock>,
        interval: Duration,
    ) -> Self {
        let shared = Arc::new(SamplerShared {
            samples: Mutex::new(Vec::new()),
            energy: Mutex::new(EnergyAccumulator::new()),
            stop: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_clock = Arc::clone(&clock);
        let thread = std::thread::Builder::new()
            .name("power-sampler".into())
            .spawn(move || {
                while !thread_shared.stop.load(Ordering::Acquire) {
                    let sample = PowerSample {
                        t_s: thread_clock.now_s(),
                        watts: source.watts(),
                    };
                    thread_shared.record(sample);
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn sampler thread");
        PowerSampler {
            shared,
            thread: Some(thread),
            clock,
        }
    }

    /// A sampler with no background thread: call [`Self::sample_now`]
    /// from the simulation loop instead. Fully deterministic.
    pub fn manual(clock: Arc<VirtualClock>) -> Self {
        PowerSampler {
            shared: Arc::new(SamplerShared {
                samples: Mutex::new(Vec::new()),
                energy: Mutex::new(EnergyAccumulator::new()),
                stop: AtomicBool::new(true),
            }),
            thread: None,
            clock,
        }
    }

    /// Takes one sample immediately (works in both modes).
    pub fn sample_now(&self, watts: f64) {
        let sample = PowerSample {
            t_s: self.clock.now_s(),
            watts,
        };
        self.shared.record(sample);
    }

    /// Stops the background thread (if any) and returns all samples with
    /// the final energy accumulator.
    pub fn finish(mut self) -> (Vec<PowerSample>, EnergyAccumulator) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let samples = std::mem::take(&mut *self.shared.samples());
        let energy = self.shared.energy().clone();
        (samples, energy)
    }

    /// Snapshot of the integrated energy so far (joules).
    pub fn joules_so_far(&self) -> f64 {
        self.shared.energy().joules()
    }

    /// Number of samples collected so far.
    pub fn sample_count(&self) -> usize {
        self.shared.samples().len()
    }

    /// The sampler's clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }
}

impl Drop for PowerSampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_monotonically() {
        let clock = VirtualClock::manual();
        assert_eq!(clock.now_s(), 0.0);
        clock.advance(1.5);
        assert!((clock.now_s() - 1.5).abs() < 1e-6);
        clock.set_s(1.0); // backwards set is ignored
        assert!((clock.now_s() - 1.5).abs() < 1e-6);
        clock.set_s(3.0);
        assert!((clock.now_s() - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "clock cannot go backwards")]
    fn negative_advance_panics() {
        VirtualClock::manual().advance(-1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite clock advance")]
    fn nan_advance_panics_in_debug() {
        VirtualClock::manual().advance(f64::NAN);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite clock reading")]
    fn infinite_set_panics_in_debug() {
        VirtualClock::manual().set_s(f64::INFINITY);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_finite_input_dropped_in_release() {
        let clock = VirtualClock::manual();
        clock.advance(1.0);
        clock.advance(f64::NAN);
        clock.advance(f64::INFINITY);
        clock.set_s(f64::NAN);
        clock.set_s(f64::NEG_INFINITY);
        assert!((clock.now_s() - 1.0).abs() < 1e-9, "dropped, not applied");
    }

    #[test]
    fn advance_saturates_instead_of_wrapping() {
        let clock = VirtualClock::manual();
        // Two huge finite advances would wrap a fetch_add; the clock
        // must pin at u64::MAX micros instead.
        let huge = (u64::MAX / 2) as f64 / 1e6 * 1.5;
        clock.advance(huge);
        let once = clock.now_s();
        clock.advance(huge);
        assert!(clock.now_s() >= once, "saturation must not go backwards");
        assert!((clock.now_s() - u64::MAX as f64 / 1e6).abs() < 1e6);
    }

    #[test]
    fn manual_sampler_is_deterministic() {
        let clock = VirtualClock::manual();
        let sampler = PowerSampler::manual(Arc::clone(&clock));
        for i in 0..=10 {
            sampler.sample_now(200.0);
            if i < 10 {
                clock.advance(0.5);
            }
        }
        let (samples, energy) = sampler.finish();
        assert_eq!(samples.len(), 11);
        assert!((energy.joules() - 200.0 * 5.0).abs() < 1e-6);
    }

    #[test]
    fn background_sampler_collects_and_stops() {
        let clock = VirtualClock::manual();
        let util = Arc::new(AtomicU64::new(250));
        let src_util = Arc::clone(&util);
        let source: Arc<dyn PowerSource> =
            Arc::new(move || src_util.load(Ordering::Relaxed) as f64);
        let sampler = PowerSampler::spawn(source, Arc::clone(&clock), Duration::from_millis(1));
        // Advance virtual time while the thread polls.
        for _ in 0..50 {
            clock.advance(0.01);
            std::thread::sleep(Duration::from_millis(1));
        }
        let (samples, _) = sampler.finish();
        assert!(samples.len() > 5, "collected {}", samples.len());
        assert!(samples.iter().all(|s| s.watts == 250.0));
        // Timestamps are non-decreasing.
        for w in samples.windows(2) {
            assert!(w[1].t_s >= w[0].t_s);
        }
    }

    #[test]
    fn joules_so_far_grows() {
        let clock = VirtualClock::manual();
        let sampler = PowerSampler::manual(Arc::clone(&clock));
        sampler.sample_now(100.0);
        clock.advance(1.0);
        sampler.sample_now(100.0);
        let early = sampler.joules_so_far();
        clock.advance(1.0);
        sampler.sample_now(100.0);
        assert!(sampler.joules_so_far() > early);
        assert_eq!(sampler.sample_count(), 3);
    }

    #[test]
    fn closure_power_source() {
        let source: Arc<dyn PowerSource> = Arc::new(|| 42.0);
        assert_eq!(source.watts(), 42.0);
        assert_eq!(source.label(), "device");
    }
}
