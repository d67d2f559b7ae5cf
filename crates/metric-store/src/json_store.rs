//! The JSON baseline: metrics as human-readable text.
//!
//! This is the paper's *normal* representation (`Original_file.json` in
//! Table 1): every sample spelled out as a JSON object. It is what a
//! provenance file looks like when time-series are kept inline — large,
//! but greppable and self-describing.

use crate::error::StoreError;
use crate::series::{MetricPoint, MetricSeries};
use crate::store::{path_size_bytes, MetricStore};
use json::{JsonWriter, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A directory of `<name>@<context>.json` files, one per series.
pub struct JsonStore {
    root: PathBuf,
}

impl JsonStore {
    /// Creates (or opens) a JSON store rooted at `root`.
    pub fn create(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(JsonStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file(&self, name: &str, context: &str) -> PathBuf {
        let safe: String = format!("{name}@{context}")
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '@' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root.join(format!("{safe}.json"))
    }

    /// A series as the inline-JSON representation used both by this store
    /// and by the provenance layer when metrics stay in the PROV file:
    /// `context`, `name` and `points[{epoch, step, time_us, value}]`, keys
    /// ascending, non-finite values as the strings `"NaN"`, `"INF"` and
    /// `"-INF"`. Nothing is built per sample.
    pub fn series_to_json<W: Write>(w: &mut JsonWriter<W>, series: &MetricSeries) {
        w.object(|w| {
            w.key("context");
            w.str(&series.context);
            w.key("name");
            w.str(&series.name);
            w.key("points");
            w.array(|w| {
                for p in &series.points {
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
            });
        })
    }

    /// Parses the representation [`JsonStore::series_to_json`] writes.
    pub fn series_from_json(value: &Value) -> Result<MetricSeries, StoreError> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| StoreError::BadMetadata("series needs a name".into()))?;
        let context = value
            .get("context")
            .and_then(Value::as_str)
            .ok_or_else(|| StoreError::BadMetadata("series needs a context".into()))?;
        let points = value
            .get("points")
            .and_then(Value::as_array)
            .ok_or_else(|| StoreError::BadMetadata("series needs points".into()))?;
        let mut series = MetricSeries::new(name, context);
        for p in points {
            let get_u64 = |k: &str| {
                p.get(k)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| StoreError::BadMetadata(format!("point missing {k}")))
            };
            let time_us = p
                .get("time_us")
                .and_then(Value::as_i64)
                .ok_or_else(|| StoreError::BadMetadata("point missing time_us".into()))?;
            let value = json_to_float(p.get("value").unwrap_or(&Value::Null))
                .ok_or_else(|| StoreError::BadMetadata("point missing value".into()))?;
            let epoch = u32::try_from(get_u64("epoch")?)
                .map_err(|_| StoreError::BadMetadata("point epoch exceeds u32".into()))?;
            series.push(MetricPoint {
                step: get_u64("step")?,
                epoch,
                time_us,
                value,
            });
        }
        Ok(series)
    }
}

fn json_to_float(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        Value::String(s) => crate::series_special_float(s),
        _ => None,
    }
}

impl MetricStore for JsonStore {
    fn write_series(&self, series: &MetricSeries) -> Result<(), StoreError> {
        let file = std::fs::File::create(self.file(&series.name, &series.context))?;
        let mut w = JsonWriter::new(file, true);
        Self::series_to_json(&mut w, series);
        Ok(w.finish()?)
    }

    fn read_series(&self, name: &str, context: &str) -> Result<MetricSeries, StoreError> {
        let path = self.file(name, context);
        if !path.is_file() {
            return Err(StoreError::NotFound(format!("{name}@{context}")));
        }
        Self::series_from_json(&json::parse(&std::fs::read_to_string(path)?)?)
    }

    fn list_series(&self) -> Result<Vec<(String, String)>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                let value = json::parse(&std::fs::read_to_string(&path)?)?;
                if let (Some(n), Some(c)) = (
                    value.get("name").and_then(Value::as_str),
                    value.get("context").and_then(Value::as_str),
                ) {
                    out.push((n.to_string(), c.to_string()));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn size_bytes(&self) -> Result<u64, StoreError> {
        path_size_bytes(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::json;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("yjson_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn series(n: usize) -> MetricSeries {
        let mut s = MetricSeries::new("loss", "training");
        for i in 0..n {
            s.push(MetricPoint {
                step: i as u64,
                epoch: (i / 10) as u32,
                time_us: i as i64 * 1_000,
                value: 1.0 / (1.0 + i as f64),
            });
        }
        s
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = JsonStore::create(&dir).unwrap();
        let s = series(500);
        store.write_series(&s).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), s);
        std::fs::remove_dir_all(&dir).ok();
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
        let printed = |s: &MetricSeries, pretty: bool| {
            let mut w = JsonWriter::in_memory(pretty);
            JsonStore::series_to_json(&mut w, s);
            w.into_string()
        };
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

        // The store's files are the pretty form, byte for byte.
        let dir = tmpdir("parity");
        let store = JsonStore::create(&dir).unwrap();
        store.write_series(&s).unwrap();
        let written = std::fs::read_to_string(store.file(&s.name, &s.context)).unwrap();
        assert_eq!(written, pretty);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn special_floats_roundtrip_as_strings() {
        let dir = tmpdir("specials");
        let store = JsonStore::create(&dir).unwrap();
        let mut s = MetricSeries::new("m", "c");
        for (i, v) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            s.push(MetricPoint {
                step: i as u64,
                epoch: 0,
                time_us: 0,
                value: v,
            });
        }
        store.write_series(&s).unwrap();
        let back = store.read_series("m", "c").unwrap();
        assert!(back.points[0].value.is_nan());
        assert_eq!(back.points[1].value, f64::INFINITY);
        assert_eq!(back.points[2].value, f64::NEG_INFINITY);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_is_much_larger_than_binary() {
        let dir = tmpdir("size");
        let store = JsonStore::create(&dir).unwrap();
        let s = series(10_000);
        store.write_series(&s).unwrap();
        let json_size = store.size_bytes().unwrap();
        let raw = (s.len() * 28) as u64;
        assert!(json_size > raw * 2, "json {json_size} vs raw {raw}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_and_not_found() {
        let dir = tmpdir("list");
        let store = JsonStore::create(&dir).unwrap();
        store.write_series(&series(3)).unwrap();
        assert_eq!(
            store.list_series().unwrap(),
            vec![("loss".to_string(), "training".to_string())]
        );
        assert!(matches!(
            store.read_series("ghost", "x"),
            Err(StoreError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_json_rejected() {
        let dir = tmpdir("malformed");
        let store = JsonStore::create(&dir).unwrap();
        std::fs::write(dir.join("loss@training.json"), "{not json").unwrap();
        assert!(store.read_series("loss", "training").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structurally_wrong_json_rejected() {
        let v = json!({"name": "m", "context": "c", "points": [{"step": 1}]});
        assert!(JsonStore::series_from_json(&v).is_err());
        let v = json!({"points": []});
        assert!(JsonStore::series_from_json(&v).is_err());
        // An epoch past u32 is refused, not wrapped to epoch 0.
        let point = json!({"epoch": 1u64 << 32, "step": 1, "time_us": 0, "value": 0.5});
        let v = json!({"name": "m", "context": "c", "points": [point]});
        assert!(JsonStore::series_from_json(&v).is_err());
    }
}
