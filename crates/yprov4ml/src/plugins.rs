//! The plugin system.
//!
//! The paper positions yProv4ML as "flexible and extensible", letting
//! users "integrate additional data collection tools via plugins". A
//! [`ProvPlugin`] hooks three moments of a run — start, periodic tick,
//! end — and emits extra parameters/metrics through a [`PluginSink`].
//!
//! Two plugins ship with the library, mirroring the paper's
//! collection categories:
//!
//! * [`EnergyPlugin`] — power/energy telemetry from an
//!   `energy-monitor` power source;
//! * [`SourceSnapshotPlugin`] — content-addressed source-tree snapshots
//!   for the development-tracking use case (§3.1).

use crate::collector::Collector;
use crate::model::{Context, Direction, LogRecord, ParamValue};
use crate::vcs::Snapshot;
use energy_monitor::energy::EnergyAccumulator;
use energy_monitor::sampler::{PowerSource, VirtualClock};
use std::path::PathBuf;
use std::sync::Arc;

/// The channel through which plugins emit records.
pub struct PluginSink<'a> {
    collector: &'a Collector,
    tick: u64,
}

impl<'a> PluginSink<'a> {
    /// Builds a sink over a collector (normally done by [`crate::Run`],
    /// public so plugins can be driven and benchmarked standalone).
    pub fn new(collector: &'a Collector) -> Self {
        PluginSink { collector, tick: 0 }
    }

    /// Emits a parameter.
    pub fn param(&mut self, name: impl Into<String>, value: impl Into<ParamValue>) {
        let _ = self.collector.log(LogRecord::Param {
            name: name.into(),
            value: value.into(),
            direction: Direction::Output,
        });
    }

    /// Emits a metric sample under a custom context.
    pub fn metric(&mut self, name: impl Into<String>, step: u64, time_us: i64, value: f64) {
        let _ = self.collector.log(LogRecord::Metric {
            name: name.into(),
            context: Context::Custom("telemetry".into()),
            step,
            epoch: 0,
            time_us,
            value,
        });
        self.tick += 1;
    }
}

/// A data-collection plugin.
pub trait ProvPlugin: Send {
    /// Short identifier used in parameter names.
    fn name(&self) -> &str;
    /// Called once when the run starts.
    fn on_run_start(&mut self, _sink: &mut PluginSink) {}
    /// Called on every `Run::plugin_tick` (typically once per step).
    fn on_tick(&mut self, _sink: &mut PluginSink) {}
    /// Called once when the run finishes.
    fn on_run_end(&mut self, _sink: &mut PluginSink) {}
}

// ---------------------------------------------------------------------------
// Energy plugin
// ---------------------------------------------------------------------------

/// Samples a power source on every tick and logs watts plus integrated
/// kWh, the metrics behind the paper's energy trade-off study.
pub struct EnergyPlugin {
    source: Arc<dyn PowerSource>,
    clock: Arc<VirtualClock>,
    acc: EnergyAccumulator,
    ticks: u64,
}

impl EnergyPlugin {
    /// Builds the plugin from a power source and the clock that
    /// timestamps its samples.
    pub fn new(source: Arc<dyn PowerSource>, clock: Arc<VirtualClock>) -> Self {
        EnergyPlugin {
            source,
            clock,
            acc: EnergyAccumulator::new(),
            ticks: 0,
        }
    }

    /// Energy integrated so far, joules.
    pub fn joules(&self) -> f64 {
        self.acc.joules()
    }
}

impl ProvPlugin for EnergyPlugin {
    fn name(&self) -> &str {
        "energy"
    }

    fn on_run_start(&mut self, sink: &mut PluginSink) {
        sink.param("energy.device", self.source.label());
    }

    fn on_tick(&mut self, sink: &mut PluginSink) {
        let t = self.clock.now_s();
        let w = self.source.watts();
        self.acc.add_sample(t, w);
        let time_us = (t * 1e6) as i64;
        sink.metric("power_w", self.ticks, time_us, w);
        sink.metric("energy_kwh", self.ticks, time_us, self.acc.kwh());
        self.ticks += 1;
    }

    fn on_run_end(&mut self, sink: &mut PluginSink) {
        sink.param("energy.total_kwh", self.acc.kwh());
        sink.param("energy.peak_w", self.acc.peak_watts());
        sink.param("energy.mean_w", self.acc.mean_watts());
    }
}

// ---------------------------------------------------------------------------
// Source snapshot plugin
// ---------------------------------------------------------------------------

/// Records a content-addressed snapshot of a source tree at run start
/// and the tree diff at run end — the paper's §3.1 "development graph"
/// with "tracking git differences", without requiring git.
pub struct SourceSnapshotPlugin {
    root: PathBuf,
    start_snapshot: Option<Snapshot>,
}

impl SourceSnapshotPlugin {
    /// Watches the tree rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        SourceSnapshotPlugin {
            root: root.into(),
            start_snapshot: None,
        }
    }
}

impl ProvPlugin for SourceSnapshotPlugin {
    fn name(&self) -> &str {
        "source-snapshot"
    }

    fn on_run_start(&mut self, sink: &mut PluginSink) {
        if let Ok(snap) = Snapshot::take(&self.root) {
            sink.param("source.tree_hash", snap.tree_hash());
            sink.param("source.files", snap.file_count());
            self.start_snapshot = Some(snap);
        }
    }

    fn on_run_end(&mut self, sink: &mut PluginSink) {
        let Some(start) = &self.start_snapshot else {
            return;
        };
        if let Ok(end) = Snapshot::take(&self.root) {
            let diff = start.diff(&end);
            sink.param("source.files_changed_during_run", diff.total_changes());
            if !diff.is_empty() {
                sink.param("source.end_tree_hash", end.tree_hash());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(collector: &Arc<Collector>) -> crate::collector::RunState {
        collector.close().unwrap()
    }

    #[test]
    fn energy_plugin_logs_power_and_totals() {
        let collector = Collector::new();
        let clock = VirtualClock::manual();
        let source: Arc<dyn PowerSource> = Arc::new(|| 300.0);
        let mut plugin = EnergyPlugin::new(source, Arc::clone(&clock));
        let mut sink = PluginSink::new(&collector);
        plugin.on_run_start(&mut sink);
        for _ in 0..5 {
            plugin.on_tick(&mut sink);
            clock.advance(1.0);
        }
        plugin.on_run_end(&mut sink);
        assert!((plugin.joules() - 300.0 * 4.0).abs() < 1e-9);

        let state = drain(&collector);
        assert!(state.params.contains_key("energy.total_kwh"));
        assert!(state.params.contains_key("energy.device"));
        let power = &state.metrics[&("power_w".to_string(), "telemetry".to_string())];
        assert_eq!(power.len(), 5);
        assert!(power.points.iter().all(|p| p.value == 300.0));
    }

    #[test]
    fn source_snapshot_detects_changes() {
        let dir = std::env::temp_dir().join(format!("ysnap_plugin_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("train.py"), "print('v1')").unwrap();

        let collector = Collector::new();
        let mut plugin = SourceSnapshotPlugin::new(&dir);
        let mut sink = PluginSink::new(&collector);
        plugin.on_run_start(&mut sink);
        std::fs::write(dir.join("train.py"), "print('v2 — tweaked mid-run')").unwrap();
        plugin.on_run_end(&mut sink);

        let state = drain(&collector);
        assert!(state.params.contains_key("source.tree_hash"));
        assert_eq!(
            state.params["source.files_changed_during_run"].0,
            ParamValue::Int(1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
