//! The JSON baseline: metrics as human-readable text.
//!
//! This is the paper's *normal* representation (`Original_file.json` in
//! Table 1): every sample spelled out as a JSON object. It is what a
//! provenance file looks like when time-series are kept inline — large,
//! but greppable and self-describing.

use crate::series::{MetricPoint, MetricSeries};
use json::{decimal, JsonWriter};
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
///
/// Each point is one fixed template, filled in a reused buffer and
/// handed to the writer as one raw member: the integers through
/// [`json::decimal`], the value as `{:?}`, the writer's own byte rules,
/// so the text is what writing each key and value in turn prints. A
/// series prints compact; `w` must not be pretty.
pub fn points_to_json<W: Write>(w: &mut JsonWriter<W>, points: &[MetricPoint]) {
    assert!(!w.is_pretty(), "a metric series prints compact");
    let mut text = Vec::with_capacity(128);
    for p in points {
        text.clear();
        point_text(p, &mut text);
        w.raw(std::str::from_utf8(&text).expect("the template is ASCII"));
    }
}

/// `p` as `{"epoch":E,"step":S,"time_us":T,"value":V}`.
fn point_text(p: &MetricPoint, out: &mut Vec<u8>) {
    let mut digits = [0; 20];
    out.extend_from_slice(b"{\"epoch\":");
    out.extend_from_slice(decimal(p.epoch.into(), &mut digits));
    out.extend_from_slice(b",\"step\":");
    out.extend_from_slice(decimal(p.step, &mut digits));
    out.extend_from_slice(b",\"time_us\":");
    if p.time_us < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(decimal(p.time_us.unsigned_abs(), &mut digits));
    out.extend_from_slice(b",\"value\":");
    if p.value.is_finite() {
        write!(out, "{:?}", p.value).expect("a Vec takes every write");
    } else if p.value.is_nan() {
        out.extend_from_slice(b"\"NaN\"");
    } else if p.value > 0.0 {
        out.extend_from_slice(b"\"INF\"");
    } else {
        out.extend_from_slice(b"\"-INF\"");
    }
    out.push(b'}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printed(s: &MetricSeries) -> String {
        let mut w = JsonWriter::in_memory(false);
        begin_series(&mut w, s);
        points_to_json(&mut w, &s.points);
        end_series(&mut w);
        w.into_string()
    }

    #[test]
    fn series_view_prints_what_the_value_tree_printed() {
        // The literal is what the `Value` tree builder this writer
        // replaced printed (`to_string`) for the same series (its pretty
        // text is pinned on the per-member oracle in
        // `tests/series_text.rs`): every non-finite spelling, a negative zero,
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
        assert_eq!(printed(&s), compact);

        let empty = MetricSeries::new("empty", "testing");
        assert_eq!(
            printed(&empty),
            r#"{"context":"testing","name":"empty","points":[]}"#
        );
    }

    #[test]
    #[should_panic(expected = "a metric series prints compact")]
    fn a_pretty_writer_is_refused() {
        let mut w = JsonWriter::in_memory(true);
        w.begin_array();
        let point = MetricPoint {
            step: 0,
            epoch: 0,
            time_us: 0,
            value: 0.5,
        };
        points_to_json(&mut w, &[point]);
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
        for split in 0..=s.len() {
            let mut w = JsonWriter::in_memory(false);
            begin_series(&mut w, &s);
            points_to_json(&mut w, &s.points[..split]);
            points_to_json(&mut w, &s.points[split..]);
            end_series(&mut w);
            assert_eq!(w.into_string(), printed(&s), "split at {split}");
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
        let json_size = printed(&s).len();
        let raw = s.len() * 28;
        assert!(json_size > raw * 2, "json {json_size} vs raw {raw}");
    }
}
