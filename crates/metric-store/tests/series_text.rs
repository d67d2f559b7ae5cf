//! Holds `json_store::points_to_json` to the per-member writer it
//! replaced, byte for byte: the oracle below prints every point through
//! the generic `JsonWriter` calls, one key and one value at a time, and
//! the library's compact template must print exactly what it prints, on
//! generated points and on the values and integers a formatter trips
//! over, whole or appended after a cut.

use json::JsonWriter;
use metric_store::json_store::{begin_series, end_series, points_to_json};
use metric_store::series::{MetricPoint, MetricSeries};
use testkit::{check, Rng};

/// The per-member writer: `points` as `{"epoch","step","time_us",
/// "value"}` objects in the array open in `w`, a non-finite value as
/// the string `"NaN"`, `"INF"` or `"-INF"`. Compact or pretty.
fn oracle_points<W: std::io::Write>(w: &mut JsonWriter<W>, points: &[MetricPoint]) {
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

/// `series` printed whole by the oracle.
fn oracle(series: &MetricSeries, pretty: bool) -> String {
    let mut w = JsonWriter::in_memory(pretty);
    begin_series(&mut w, series);
    oracle_points(&mut w, &series.points);
    end_series(&mut w);
    w.into_string()
}

/// `series` printed by the library, its points appended in the pieces
/// `cuts` ends; at each cut the open text is copied out closed, as a
/// live run's cut does, and must be the oracle's text of the prefix.
fn printed_in_pieces(series: &MetricSeries, cuts: &[usize]) -> String {
    let mut w = JsonWriter::in_memory(false);
    begin_series(&mut w, series);
    let mut done = 0;
    for &cut in cuts {
        points_to_json(&mut w, &series.points[done..cut]);
        done = cut;
        let mut prefix = series.clone();
        prefix.points.truncate(cut);
        assert_eq!(
            format!("{}]}}", w.text()),
            oracle(&prefix, false),
            "cut at {cut}"
        );
    }
    points_to_json(&mut w, &series.points[done..]);
    end_series(&mut w);
    w.into_string()
}

/// The values, steps, times and epochs every case draws from besides
/// random ones: each non-finite spelling, both zeros, the smallest and
/// large doubles, and the integer extremes.
const VALUES: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    5e-324,
    1e21,
    0.1,
    f64::MAX,
    -1e-7,
];
const STEPS: [u64; 4] = [0, 9, u64::MAX, 1 << 53];
const TIMES: [i64; 5] = [i64::MIN, -1, 0, 1_700_000_000_000_000, i64::MAX];
const EPOCHS: [u32; 3] = [0, 7, u32::MAX];

fn point(rng: &mut Rng) -> MetricPoint {
    let edge = rng.below(3) == 0;
    MetricPoint {
        step: if edge {
            *rng.pick(&STEPS)
        } else {
            rng.next_u64() >> rng.below(64)
        },
        epoch: if edge {
            *rng.pick(&EPOCHS)
        } else {
            rng.next_u64() as u32 >> rng.below(32)
        },
        time_us: if edge {
            *rng.pick(&TIMES)
        } else {
            rng.next_u64() as i64 >> rng.below(64)
        },
        value: if edge {
            *rng.pick(&VALUES)
        } else {
            rng.any_f64()
        },
    }
}

#[test]
fn the_template_prints_what_the_member_writer_prints() {
    check(256, |rng, size| {
        let mut series = MetricSeries::new("lo\"ss\\ü損失", "training");
        for _ in 0..rng.len(0..200, size) {
            series.push(point(rng));
        }
        let mut cuts: Vec<usize> = (0..rng.below(4))
            .map(|_| rng.below(series.len() + 1))
            .collect();
        cuts.sort_unstable();
        assert_eq!(printed_in_pieces(&series, &cuts), oracle(&series, false));
    });
}

#[test]
fn every_edge_value_prints_as_the_oracle_prints_it() {
    let mut series = MetricSeries::new("edges", "validation");
    for (i, &value) in VALUES.iter().enumerate() {
        for &step in &STEPS {
            series.push(MetricPoint {
                step,
                epoch: EPOCHS[i % EPOCHS.len()],
                time_us: TIMES[i % TIMES.len()],
                value,
            });
        }
    }
    let whole = oracle(&series, false);
    for cut in [0, 1, series.len() / 2, series.len()] {
        assert_eq!(printed_in_pieces(&series, &[cut]), whole, "cut at {cut}");
    }
    for point in [
        r#"{"epoch":0,"step":0,"time_us":-9223372036854775808,"value":"NaN"}"#,
        r#"{"epoch":4294967295,"step":18446744073709551615,"time_us":-9223372036854775808,"value":5e-324}"#,
        r#"{"epoch":0,"step":9,"time_us":1700000000000000,"value":-0.0}"#,
        r#"{"epoch":7,"step":9007199254740992,"time_us":-1,"value":"INF"}"#,
    ] {
        assert!(whole.contains(point), "{point}");
    }
}

#[test]
fn the_oracle_prints_the_value_trees_pretty_series() {
    // The pretty text the `Value` tree builder printed for a series
    // (`to_string_pretty`): every non-finite spelling, a negative zero,
    // the smallest and a large double, the integer extremes, and a name
    // that needs escaping and holds non-ASCII text. The library prints a
    // series compact only; the per-member writer still prints pretty.
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
    assert_eq!(oracle(&s, true), pretty);
    assert_eq!(
        oracle(&MetricSeries::new("empty", "testing"), true),
        "{\n  \"context\": \"testing\",\n  \"name\": \"empty\",\n  \"points\": []\n}"
    );
}
