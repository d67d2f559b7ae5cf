//! A bounded in-process time-series ring over the metrics registry.
//!
//! Where the [`Registry`](crate::Registry) answers *what has happened
//! since the process started*, this module keeps *history*: a scraper
//! calls [`Tsdb::tick`] on a fixed cadence with the registry's current
//! [`Snapshot`], the tick diffs it against the previous one with
//! [`Snapshot::delta_since`], and the per-interval values land in
//! fixed-size rings — so an operator can ask "what did the request rate
//! look like over the last five minutes" without an external TSDB.
//!
//! Design points:
//!
//! * **Derived series, not raw samples.** Counters are stored as
//!   per-second rates over the scrape interval; gauges as levels;
//!   histograms fan out into three series — the observation rate under
//!   the metric's own name, plus `<name>:p99_ns` and `<name>:mean_ns`.
//! * **Downsampling tiers.** Each series writes into every configured
//!   tier (default 1 s × 5 min and 10 s × 1 h). A tier is a ring of
//!   aggregate slots (min/max/sum/count) keyed by `floor(t / step)`, so
//!   coarser tiers trade resolution for span at fixed memory.
//! * **Clock-agnostic.** Time is a caller-supplied `f64` seconds value
//!   — wall seconds in production, a manually advanced virtual clock in
//!   tests — so scrape cadence and downsampling boundaries are fully
//!   deterministic under test.
//!
//! The tsdb itself is passive: it never spawns a thread or reads a
//! clock. The owning service drives it (see `yprov-service::ops`).

use crate::registry::Snapshot;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One downsampling tier: `slots` ring slots of `step_s` seconds each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Slot width in seconds.
    pub step_s: f64,
    /// Ring length; the tier spans `step_s * slots` seconds.
    pub slots: usize,
}

/// Tsdb configuration: the downsampling tiers, finest first.
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Downsampling tiers. Order does not matter; queries pick by step
    /// and coverage.
    pub tiers: Vec<TierSpec>,
    /// Upper bound on distinct series before new names are dropped (a
    /// label-cardinality fuse, not a working limit).
    pub max_series: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            tiers: vec![
                TierSpec {
                    step_s: 1.0,
                    slots: 300,
                }, // 1 s × 5 min
                TierSpec {
                    step_s: 10.0,
                    slots: 360,
                }, // 10 s × 1 h
            ],
            max_series: 4096,
        }
    }
}

/// One aggregate slot of a tier ring.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `floor(t / step)` of the samples aggregated here; `i64::MIN`
    /// marks an empty slot.
    bucket: i64,
    min: f64,
    max: f64,
    sum: f64,
    count: u32,
}

const EMPTY: Slot = Slot {
    bucket: i64::MIN,
    min: 0.0,
    max: 0.0,
    sum: 0.0,
    count: 0,
};

/// A ring of aggregate slots for one (series, tier) pair.
#[derive(Debug, Clone)]
struct TierRing {
    step_s: f64,
    slots: Vec<Slot>,
}

impl TierRing {
    fn new(spec: &TierSpec) -> TierRing {
        TierRing {
            step_s: spec.step_s,
            slots: vec![EMPTY; spec.slots.max(1)],
        }
    }

    fn record(&mut self, t_s: f64, value: f64) {
        let bucket = (t_s / self.step_s).floor() as i64;
        let idx = (bucket.rem_euclid(self.slots.len() as i64)) as usize;
        let slot = &mut self.slots[idx];
        if slot.bucket == bucket {
            slot.min = slot.min.min(value);
            slot.max = slot.max.max(value);
            slot.sum += value;
            slot.count += 1;
        } else {
            // A new bucket claims the slot, discarding whatever older
            // wrap-around data lived there — that is the ring's bound.
            *slot = Slot {
                bucket,
                min: value,
                max: value,
                sum: value,
                count: 1,
            };
        }
    }

    /// Aggregated points with `since_s <= t < until_s`, oldest first.
    fn window(&self, since_s: f64, until_s: f64) -> Vec<Point> {
        let lo = (since_s / self.step_s).floor() as i64;
        let hi = (until_s / self.step_s).floor() as i64;
        let mut out = Vec::new();
        for b in lo..=hi {
            let idx = (b.rem_euclid(self.slots.len() as i64)) as usize;
            let slot = self.slots[idx];
            if slot.bucket == b && slot.count > 0 {
                out.push(Point {
                    t_s: b as f64 * self.step_s,
                    avg: slot.sum / slot.count as f64,
                    min: slot.min,
                    max: slot.max,
                    count: slot.count,
                });
            }
        }
        out
    }
}

/// One windowed query result point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Slot start, seconds on the caller's clock.
    pub t_s: f64,
    /// Mean of the samples aggregated into the slot.
    pub avg: f64,
    pub min: f64,
    pub max: f64,
    /// Samples aggregated into the slot.
    pub count: u32,
}

/// A windowed query answer: the series name, the step of the tier that
/// answered, and its points oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub metric: String,
    pub step_s: f64,
    pub points: Vec<Point>,
}

struct SeriesData {
    tiers: Vec<TierRing>,
}

struct Inner {
    /// `(t_s, snapshot)` of the previous tick, diffed against on the
    /// next one.
    last: Option<(f64, Snapshot)>,
    series: BTreeMap<String, SeriesData>,
    ticks: u64,
    dropped_series: u64,
}

/// The time-series store. All methods take `&self`; the single mutex
/// is only ever contended between the scraper tick and queries.
pub struct Tsdb {
    cfg: TsdbConfig,
    inner: Mutex<Inner>,
}

impl Default for Tsdb {
    fn default() -> Self {
        Tsdb::new(TsdbConfig::default())
    }
}

impl Tsdb {
    pub fn new(cfg: TsdbConfig) -> Tsdb {
        assert!(!cfg.tiers.is_empty(), "tsdb needs at least one tier");
        Tsdb {
            cfg,
            inner: Mutex::new(Inner {
                last: None,
                series: BTreeMap::new(),
                ticks: 0,
                dropped_series: 0,
            }),
        }
    }

    /// Scrape ticks absorbed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().expect("tsdb poisoned").ticks
    }

    /// One scrape tick at `now_s` with the registry's current snapshot.
    ///
    /// The first tick only establishes the baseline; every later tick
    /// records the interval since the previous one: counter deltas as
    /// per-second rates, gauges as levels, histograms as an observation
    /// rate plus `:p99_ns` / `:mean_ns` derived series. Ticks whose
    /// clock did not advance are ignored (the rate would divide by
    /// zero); a clock that jumped backwards re-baselines.
    pub fn tick(&self, now_s: f64, snap: &Snapshot) {
        let mut inner = self.inner.lock().expect("tsdb poisoned");
        inner.ticks += 1;
        let prev = inner.last.replace((now_s, snap.clone()));
        let Some((prev_t, prev_snap)) = prev else {
            return;
        };
        let dt = now_s - prev_t;
        if dt <= 0.0 {
            if dt < 0.0 {
                // Keep the new baseline; drop the unusable interval.
                return;
            }
            // Same instant: restore the older baseline so a later tick
            // still measures a real interval.
            inner.last = Some((prev_t, prev_snap));
            return;
        }
        let delta = snap.delta_since(&prev_snap);
        // Borrow-friendly local recording: split the inner borrow.
        let Inner {
            series,
            dropped_series,
            ..
        } = &mut *inner;
        let cfg = &self.cfg;
        let mut record = |name: &str, value: f64| {
            if !value.is_finite() {
                return;
            }
            if !series.contains_key(name) && series.len() >= cfg.max_series {
                *dropped_series += 1;
                return;
            }
            let data = series
                .entry(name.to_string())
                .or_insert_with(|| SeriesData {
                    tiers: cfg.tiers.iter().map(TierRing::new).collect(),
                });
            for tier in &mut data.tiers {
                tier.record(now_s, value);
            }
        };
        for (name, v) in &delta.counters {
            record(name, *v as f64 / dt);
        }
        // Gauges are levels: sample the *current* snapshot, every tick,
        // so an unchanged gauge still draws a flat line.
        for (name, v) in &snap.gauges {
            record(name, *v as f64);
        }
        for (name, h) in &delta.histograms {
            record(name, h.count as f64 / dt);
            record(&format!("{name}:p99_ns"), h.quantile_upper_ns(0.99) as f64);
            record(&format!("{name}:mean_ns"), h.mean_ns());
        }
    }

    /// Series names with at least one recorded sample, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("tsdb poisoned")
            .series
            .keys()
            .cloned()
            .collect()
    }

    /// The latest aggregated value of `metric` no older than
    /// `max_age_s` before `now_s` (judged on the finest tier), or
    /// `None` when the series is missing or stale. This is what alert
    /// rules evaluate against.
    pub fn latest(&self, metric: &str, now_s: f64, max_age_s: f64) -> Option<f64> {
        let inner = self.inner.lock().expect("tsdb poisoned");
        let data = inner.series.get(metric)?;
        // Finest tier = smallest step.
        let finest = data
            .tiers
            .iter()
            .min_by(|a, b| a.step_s.total_cmp(&b.step_s))?;
        finest
            .window(now_s - max_age_s, now_s)
            .last()
            .map(|p| p.avg)
    }

    /// Windowed query: the points of `metric` between `now_s - since_s`
    /// and `now_s`, answered by the finest tier that both covers the
    /// window and has `step >= step_s` — except when even the finest
    /// tier is coarser than requested, which serves the finest
    /// available. `step_s <= 0` means "finest that covers the window".
    pub fn query(&self, metric: &str, since_s: f64, step_s: f64, now_s: f64) -> Series {
        let inner = self.inner.lock().expect("tsdb poisoned");
        let since_abs = now_s - since_s.max(0.0);
        let empty = Series {
            metric: metric.to_string(),
            step_s: 0.0,
            points: Vec::new(),
        };
        let Some(data) = inner.series.get(metric) else {
            return empty;
        };
        // Candidate order: finest first.
        let mut tiers: Vec<&TierRing> = data.tiers.iter().collect();
        tiers.sort_by(|a, b| a.step_s.total_cmp(&b.step_s));
        let covers =
            |t: &TierRing| t.step_s * (t.slots.len() as f64) >= since_s.max(0.0) - t.step_s;
        let chosen = tiers
            .iter()
            .find(|t| t.step_s >= step_s && covers(t))
            .or_else(|| tiers.iter().find(|t| covers(t)))
            .or_else(|| tiers.last())
            .copied();
        match chosen {
            Some(tier) => Series {
                metric: metric.to_string(),
                step_s: tier.step_s,
                points: tier.window(since_abs, now_s),
            },
            None => empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn tiny() -> TsdbConfig {
        TsdbConfig {
            tiers: vec![
                TierSpec {
                    step_s: 1.0,
                    slots: 10,
                },
                TierSpec {
                    step_s: 5.0,
                    slots: 8,
                },
            ],
            max_series: 64,
        }
    }

    #[test]
    fn counter_ticks_become_rates() {
        let r = Registry::new();
        let c = r.counter("requests_total");
        let db = Tsdb::new(tiny());
        db.tick(0.0, &r.snapshot()); // baseline
        c.add(10);
        db.tick(1.0, &r.snapshot());
        c.add(30);
        db.tick(2.0, &r.snapshot());
        let s = db.query("requests_total", 5.0, 1.0, 2.0);
        assert_eq!(s.step_s, 1.0);
        let rates: Vec<f64> = s.points.iter().map(|p| p.avg).collect();
        assert_eq!(rates, vec![10.0, 30.0]);
    }

    #[test]
    fn gauges_sample_levels_even_when_unchanged() {
        let r = Registry::new();
        let g = r.gauge("queue_depth");
        g.set(7);
        let db = Tsdb::new(tiny());
        db.tick(0.0, &r.snapshot());
        db.tick(1.0, &r.snapshot());
        db.tick(2.0, &r.snapshot());
        let s = db.query("queue_depth", 5.0, 1.0, 2.0);
        assert_eq!(s.points.len(), 2, "{s:?}");
        assert!(s.points.iter().all(|p| p.avg == 7.0));
    }

    #[test]
    fn histograms_fan_out_into_rate_p99_and_mean() {
        let r = Registry::new();
        let h = r.histogram("latency_seconds");
        let db = Tsdb::new(tiny());
        db.tick(0.0, &r.snapshot());
        for _ in 0..100 {
            h.record_ns(1_000);
        }
        db.tick(2.0, &r.snapshot());
        let rate = db.query("latency_seconds", 5.0, 1.0, 2.0);
        assert_eq!(rate.points.len(), 1);
        assert_eq!(rate.points[0].avg, 50.0, "100 obs over 2 s");
        let p99 = db.query("latency_seconds:p99_ns", 5.0, 1.0, 2.0);
        assert_eq!(p99.points.len(), 1);
        assert!(p99.points[0].avg >= 1_000.0);
        let mean = db.query("latency_seconds:mean_ns", 5.0, 1.0, 2.0);
        assert!((mean.points[0].avg - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn downsampling_boundary_splits_exactly_at_the_bucket_edge() {
        // Samples at t = 4.999 and t = 5.0 must land in different 5 s
        // buckets; within one bucket min/max/avg aggregate.
        let db = Tsdb::new(TsdbConfig {
            tiers: vec![TierSpec {
                step_s: 5.0,
                slots: 4,
            }],
            max_series: 8,
        });
        let r = Registry::new();
        let g = r.gauge("level");
        db.tick(0.0, &r.snapshot()); // baseline only, records nothing
        g.set(10);
        db.tick(1.0, &r.snapshot());
        g.set(20);
        db.tick(4.999, &r.snapshot());
        g.set(90);
        db.tick(5.0, &r.snapshot());
        let s = db.query("level", 20.0, 5.0, 6.0);
        assert_eq!(s.points.len(), 2, "{s:?}");
        assert_eq!(s.points[0].t_s, 0.0);
        assert_eq!(s.points[0].count, 2);
        assert_eq!(s.points[0].min, 10.0);
        assert_eq!(s.points[0].max, 20.0);
        assert_eq!(s.points[0].avg, 15.0);
        assert_eq!(s.points[1].t_s, 5.0);
        assert_eq!(s.points[1].avg, 90.0);
    }

    #[test]
    fn ring_wraps_and_keeps_only_the_span() {
        let db = Tsdb::new(TsdbConfig {
            tiers: vec![TierSpec {
                step_s: 1.0,
                slots: 3,
            }],
            max_series: 8,
        });
        let r = Registry::new();
        let g = r.gauge("level");
        for t in 0..10 {
            g.set(t);
            db.tick(t as f64, &r.snapshot());
        }
        let s = db.query("level", 100.0, 1.0, 9.0);
        // Only the last 3 slots survive the wrap.
        let ts: Vec<f64> = s.points.iter().map(|p| p.t_s).collect();
        assert_eq!(ts, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn query_picks_the_tier_matching_step_and_coverage() {
        let db = Tsdb::new(tiny()); // 1 s × 10 and 5 s × 8
        let r = Registry::new();
        let g = r.gauge("level");
        for t in 0..=30 {
            g.set(t);
            db.tick(t as f64, &r.snapshot());
        }
        // A short fine window is served by the 1 s tier...
        assert_eq!(db.query("level", 8.0, 1.0, 30.0).step_s, 1.0);
        // ...a window beyond its 10 s span falls to the 5 s tier...
        assert_eq!(db.query("level", 25.0, 1.0, 30.0).step_s, 5.0);
        // ...and an explicitly coarse step goes straight there.
        assert_eq!(db.query("level", 8.0, 5.0, 30.0).step_s, 5.0);
    }

    #[test]
    fn non_advancing_clock_keeps_the_older_baseline() {
        let r = Registry::new();
        let c = r.counter("requests_total");
        let db = Tsdb::new(tiny());
        db.tick(0.0, &r.snapshot());
        c.add(5);
        db.tick(0.0, &r.snapshot()); // zero interval: ignored
        c.add(5);
        db.tick(2.0, &r.snapshot());
        let s = db.query("requests_total", 10.0, 1.0, 2.0);
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].avg, 5.0, "10 over the full 2 s interval");
    }

    #[test]
    fn latest_respects_staleness() {
        let r = Registry::new();
        let g = r.gauge("level");
        g.set(3);
        let db = Tsdb::new(tiny());
        db.tick(0.0, &r.snapshot());
        db.tick(1.0, &r.snapshot());
        assert_eq!(db.latest("level", 1.0, 2.0), Some(3.0));
        assert_eq!(db.latest("level", 100.0, 2.0), None, "stale");
        assert_eq!(db.latest("ghost", 1.0, 2.0), None);
    }

    #[test]
    fn series_cardinality_is_fused() {
        let db = Tsdb::new(TsdbConfig {
            tiers: vec![TierSpec {
                step_s: 1.0,
                slots: 4,
            }],
            max_series: 2,
        });
        let r = Registry::new();
        r.gauge("a").set(1);
        r.gauge("b").set(2);
        r.gauge("c").set(3);
        db.tick(0.0, &r.snapshot());
        db.tick(1.0, &r.snapshot());
        assert_eq!(db.metric_names().len(), 2, "third series dropped");
    }
}
