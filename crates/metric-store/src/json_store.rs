//! The JSON baseline: metrics as human-readable text.
//!
//! This is the paper's *normal* representation (`Original_file.json` in
//! Table 1): every sample spelled out as a JSON object. It is what a
//! provenance file looks like when time-series are kept inline — large,
//! but greppable and self-describing.

use crate::series::{MetricPoint, MetricSeries};
use json::JsonWriter;
use std::io::Write;

/// Opens `series`' object up to its points: `{"context":…,"name":…,
/// "points":[`. Points go in with [`points_to_json`], as many times as
/// needed; [`end_series`] closes both. The three print a series as the
/// inline-JSON representation the provenance layer writes when metrics
/// stay in the PROV file: `context`, `name` and
/// `points[{epoch, step, time_us, value}]`, keys ascending. Nothing is
/// built per sample.
pub fn begin_series<W: Write>(w: &mut JsonWriter<W>, series: &MetricSeries) {
    w.begin_object();
    w.key("context");
    w.str(&series.context);
    w.key("name");
    w.str(&series.name);
    w.key("points");
    w.begin_array();
}

/// Closes what [`begin_series`] opened: `]}`.
pub fn end_series<W: Write>(w: &mut JsonWriter<W>) {
    w.end_array();
    w.end_object();
}

/// `points` as elements of the array open in `w`, comma-joined by the
/// writer: one `{"epoch","step","time_us","value"}` object each, a
/// non-finite value as the string `"NaN"`, `"INF"` or `"-INF"`. The one
/// place a sample's inline text is decided.
pub fn points_to_json<W: Write>(w: &mut JsonWriter<W>, points: &[MetricPoint]) {
    for p in points {
        w.object(|w| {
            w.key("epoch");
            w.u64(p.epoch.into());
            w.key("step");
            w.u64(p.step);
            w.key("time_us");
            w.i64(p.time_us);
            w.key("value");
            if p.value.is_finite() {
                w.f64(p.value);
            } else if p.value.is_nan() {
                w.str("NaN");
            } else if p.value > 0.0 {
                w.str("INF");
            } else {
                w.str("-INF");
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printed(s: &MetricSeries, pretty: bool) -> String {
        let mut w = JsonWriter::in_memory(pretty);
        begin_series(&mut w, s);
        points_to_json(&mut w, &s.points);
        end_series(&mut w);
        w.into_string()
    }

    #[test]
    fn series_view_prints_what_the_value_tree_printed() {
        // The literals are what the `Value` tree builder this
        // writer replaced printed (`to_string` and `to_string_pretty`) for
        // the same series: every non-finite spelling, a negative zero,
        // the smallest and a large double, the integer extremes, and a
        // name that needs escaping and holds non-ASCII text.
        let mut s = MetricSeries::new("lo\"ss\\ü損失", "training");
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            1e21,
            0.1,
        ];
        for (i, value) in values.into_iter().enumerate() {
            s.push(MetricPoint {
                step: if i == 5 { u64::MAX } else { i as u64 },
                epoch: i as u32 / 3,
                time_us: if i == 6 { i64::MIN } else { 1_000 * i as i64 },
                value,
            });
        }
        let compact = r#"{"context":"training","name":"lo\"ss\\ü損失","points":[{"epoch":0,"step":0,"time_us":0,"value":"NaN"},{"epoch":0,"step":1,"time_us":1000,"value":"INF"},{"epoch":0,"step":2,"time_us":2000,"value":"-INF"},{"epoch":1,"step":3,"time_us":3000,"value":-0.0},{"epoch":1,"step":4,"time_us":4000,"value":5e-324},{"epoch":1,"step":18446744073709551615,"time_us":5000,"value":1e21},{"epoch":2,"step":6,"time_us":-9223372036854775808,"value":0.1}]}"#;
        let pretty = r#"{
  "context": "training",
  "name": "lo\"ss\\ü損失",
  "points": [
    {
      "epoch": 0,
      "step": 0,
      "time_us": 0,
      "value": "NaN"
    },
    {
      "epoch": 0,
      "step": 1,
      "time_us": 1000,
      "value": "INF"
    },
    {
      "epoch": 0,
      "step": 2,
      "time_us": 2000,
      "value": "-INF"
    },
    {
      "epoch": 1,
      "step": 3,
      "time_us": 3000,
      "value": -0.0
    },
    {
      "epoch": 1,
      "step": 4,
      "time_us": 4000,
      "value": 5e-324
    },
    {
      "epoch": 1,
      "step": 18446744073709551615,
      "time_us": 5000,
      "value": 1e21
    },
    {
      "epoch": 2,
      "step": 6,
      "time_us": -9223372036854775808,
      "value": 0.1
    }
  ]
}"#;
        assert_eq!(printed(&s, false), compact);
        assert_eq!(printed(&s, true), pretty);

        let empty = MetricSeries::new("empty", "testing");
        assert_eq!(
            printed(&empty, false),
            r#"{"context":"testing","name":"empty","points":[]}"#
        );
        assert_eq!(
            printed(&empty, true),
            "{\n  \"context\": \"testing\",\n  \"name\": \"empty\",\n  \"points\": []\n}"
        );
    }

    #[test]
    fn points_written_in_pieces_print_as_the_whole_series() {
        let mut s = MetricSeries::new("loss", "training");
        let values = [0.5, f64::NAN, f64::INFINITY, -0.0, f64::NEG_INFINITY, 1e300];
        for (i, value) in values.into_iter().enumerate() {
            s.push(MetricPoint {
                step: i as u64,
                epoch: i as u32 / 2,
                time_us: 10 * i as i64,
                value,
            });
        }
        for pretty in [false, true] {
            for split in 0..=s.len() {
                let mut w = JsonWriter::in_memory(pretty);
                begin_series(&mut w, &s);
                points_to_json(&mut w, &s.points[..split]);
                points_to_json(&mut w, &s.points[split..]);
                end_series(&mut w);
                assert_eq!(w.into_string(), printed(&s, pretty), "split at {split}");
            }
        }
    }

    #[test]
    fn json_is_much_larger_than_binary() {
        let mut s = MetricSeries::new("loss", "training");
        for i in 0..10_000 {
            s.push(MetricPoint {
                step: i as u64,
                epoch: (i / 10) as u32,
                time_us: i as i64 * 1_000,
                value: 1.0 / (1.0 + i as f64),
            });
        }
        let json_size = printed(&s, true).len();
        let raw = s.len() * 28;
        assert!(json_size > raw * 2, "json {json_size} vs raw {raw}");
    }
}
