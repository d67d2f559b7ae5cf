//! The run-level data model (paper Figure 2).

use crate::error::ProvMLError;
use json::{JsonWriter, Value};
use std::fmt;
use std::io::Write;
use std::path::PathBuf;

/// A stage of the ML process within a run.
///
/// Training and validation are epoch-structured; testing usually runs
/// once; any further stage (data preparation, export, ...) is a custom
/// context, matching the paper's "others can be defined by the user".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Context {
    /// The training loop.
    Training,
    /// Per-epoch validation.
    Validation,
    /// Final testing / evaluation.
    Testing,
    /// A user-defined stage.
    Custom(String),
}

impl Context {
    /// Canonical lowercase name used in keys and PROV identifiers.
    pub fn name(&self) -> String {
        match self {
            Context::Training => "training".into(),
            Context::Validation => "validation".into(),
            Context::Testing => "testing".into(),
            Context::Custom(s) => s.to_ascii_lowercase(),
        }
    }

    /// Parses a canonical name back into a context.
    pub fn from_name(name: &str) -> Context {
        match name {
            "training" => Context::Training,
            "validation" => Context::Validation,
            "testing" => Context::Testing,
            other => Context::Custom(other.to_string()),
        }
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Whether a logged item is consumed or produced by the run.
///
/// Inputs become `used` edges in the provenance graph; outputs become
/// `wasGeneratedBy` edges (§4's relationship rework).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The run required this item (dataset, config, pretrained weights).
    Input,
    /// The run produced this item (checkpoints, metrics, reports).
    Output,
}

/// A parameter value: one-time configuration recorded at log time.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Floating-point parameter.
    Float(f64),
    /// Integer parameter.
    Int(i64),
    /// Textual parameter.
    Text(String),
    /// Boolean flag.
    Bool(bool),
}

impl ParamValue {
    /// The value as `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Lexical rendering used in PROV attributes and reports.
    pub fn render(&self) -> String {
        match self {
            ParamValue::Float(v) => format!("{v:?}"),
            ParamValue::Int(v) => v.to_string(),
            ParamValue::Text(s) => s.clone(),
            ParamValue::Bool(b) => b.to_string(),
        }
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}
impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Text(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Text(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

/// Metadata of a logged artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMeta {
    /// Logical name (`model.ckpt`).
    pub name: String,
    /// Where the artifact was copied inside the run directory.
    pub stored_path: PathBuf,
    /// Content digest (SHA-256, hex).
    pub sha256: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Input or output of the run.
    pub direction: Direction,
    /// Context it was logged under, if any.
    pub context: Option<Context>,
    /// Microseconds since the epoch at log time.
    pub logged_at_us: i64,
}

/// One record flowing from the user API into the collector.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A parameter.
    Param {
        /// Parameter name.
        name: String,
        /// Parameter value.
        value: ParamValue,
        /// Input or output.
        direction: Direction,
    },
    /// One metric sample.
    Metric {
        /// Metric name.
        name: String,
        /// Context logged under.
        context: Context,
        /// Global step.
        step: u64,
        /// Epoch.
        epoch: u32,
        /// Wall time, µs since the Unix epoch.
        time_us: i64,
        /// The value.
        value: f64,
    },
    /// An artifact (already persisted; this is its metadata).
    Artifact(ArtifactMeta),
    /// A context began (carried for epoch/duration bookkeeping).
    ContextStart {
        /// The context.
        context: Context,
        /// µs timestamp.
        time_us: i64,
    },
    /// A context finished.
    ContextEnd {
        /// The context.
        context: Context,
        /// µs timestamp.
        time_us: i64,
    },
}

// The journal's JSON form of a record: a struct's fields in declaration
// order, an enum variant as its name (`"Training"`) or, when it carries
// data, as `{"Name": data}`. Readers give `None` for anything else and
// ignore members they do not name.

impl Context {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        match self {
            Context::Training => w.str("Training"),
            Context::Validation => w.str("Validation"),
            Context::Testing => w.str("Testing"),
            Context::Custom(name) => w.object(|w| {
                w.field("Custom").str(name);
            }),
        }
    }

    fn from_json(v: &Value) -> Option<Context> {
        Some(match v {
            Value::String(s) => match s.as_str() {
                "Training" => Context::Training,
                "Validation" => Context::Validation,
                "Testing" => Context::Testing,
                _ => return None,
            },
            tagged => match tagged.as_variant()? {
                ("Custom", name) => Context::Custom(name.as_str()?.to_string()),
                _ => return None,
            },
        })
    }
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::Input => "Input",
            Direction::Output => "Output",
        }
    }

    fn from_json(v: &Value) -> Option<Direction> {
        match v.as_str()? {
            "Input" => Some(Direction::Input),
            "Output" => Some(Direction::Output),
            _ => None,
        }
    }
}

impl ParamValue {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.object(|w| match self {
            ParamValue::Float(v) => w.field("Float").f64(*v),
            ParamValue::Int(v) => w.field("Int").i64(*v),
            ParamValue::Text(s) => w.field("Text").str(s),
            ParamValue::Bool(b) => w.field("Bool").bool(*b),
        })
    }

    fn from_json(v: &Value) -> Option<ParamValue> {
        Some(match v.as_variant()? {
            ("Float", x) => ParamValue::Float(x.as_f64()?),
            ("Int", x) => ParamValue::Int(x.as_i64()?),
            ("Text", x) => ParamValue::Text(x.as_str()?.to_string()),
            ("Bool", x) => ParamValue::Bool(x.as_bool()?),
            _ => return None,
        })
    }
}

impl ArtifactMeta {
    /// `stored_path` must be UTF-8 ([`LogRecord::to_json`] checks).
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.object(|w| {
            w.field("name").str(&self.name);
            w.field("stored_path")
                .str(&self.stored_path.to_string_lossy());
            w.field("sha256").str(&self.sha256);
            w.field("bytes").u64(self.bytes);
            w.field("direction").str(self.direction.name());
            w.field("context");
            match &self.context {
                Some(context) => context.write_json(w),
                None => w.null(),
            }
            w.field("logged_at_us").i64(self.logged_at_us);
        })
    }

    fn from_json(v: &Value) -> Option<ArtifactMeta> {
        Some(ArtifactMeta {
            name: v.get("name")?.as_str()?.to_string(),
            stored_path: PathBuf::from(v.get("stored_path")?.as_str()?),
            sha256: v.get("sha256")?.as_str()?.to_string(),
            bytes: v.get("bytes")?.as_u64()?,
            direction: Direction::from_json(v.get("direction")?)?,
            context: match v.get("context") {
                None | Some(Value::Null) => None,
                Some(context) => Some(Context::from_json(context)?),
            },
            logged_at_us: v.get("logged_at_us")?.as_i64()?,
        })
    }
}

impl LogRecord {
    /// The record as one line of compact JSON; an error for an artifact
    /// whose stored path is not UTF-8, which JSON cannot carry.
    pub(crate) fn to_json(&self) -> Result<String, ProvMLError> {
        if let LogRecord::Artifact(meta) = self {
            if meta.stored_path.to_str().is_none() {
                return Err(ProvMLError::Journal(format!(
                    "artifact path {} is not UTF-8",
                    meta.stored_path.display()
                )));
            }
        }
        Ok(json::to_string(|w| {
            w.object(|w| match self {
                LogRecord::Param {
                    name,
                    value,
                    direction,
                } => {
                    w.field("Param");
                    w.object(|w| {
                        w.field("name").str(name);
                        w.field("value");
                        value.write_json(w);
                        w.field("direction").str(direction.name());
                    });
                }
                LogRecord::Metric {
                    name,
                    context,
                    step,
                    epoch,
                    time_us,
                    value,
                } => {
                    w.field("Metric");
                    w.object(|w| {
                        w.field("name").str(name);
                        w.field("context");
                        context.write_json(w);
                        w.field("step").u64(*step);
                        w.field("epoch").u64((*epoch).into());
                        w.field("time_us").i64(*time_us);
                        w.field("value").f64(*value);
                    });
                }
                LogRecord::Artifact(meta) => {
                    w.field("Artifact");
                    meta.write_json(w);
                }
                LogRecord::ContextStart { context, time_us }
                | LogRecord::ContextEnd { context, time_us } => {
                    let start = matches!(self, LogRecord::ContextStart { .. });
                    w.field(if start { "ContextStart" } else { "ContextEnd" });
                    w.object(|w| {
                        w.field("context");
                        context.write_json(w);
                        w.field("time_us").i64(*time_us);
                    });
                }
            })
        }))
    }

    /// Reads what [`LogRecord::to_json`] writes.
    pub(crate) fn from_json(v: &Value) -> Option<LogRecord> {
        let (tag, body) = v.as_variant()?;
        let field = |name: &str| body.get(name);
        Some(match tag {
            "Param" => LogRecord::Param {
                name: field("name")?.as_str()?.to_string(),
                value: ParamValue::from_json(field("value")?)?,
                direction: Direction::from_json(field("direction")?)?,
            },
            "Metric" => LogRecord::Metric {
                name: field("name")?.as_str()?.to_string(),
                context: Context::from_json(field("context")?)?,
                step: field("step")?.as_u64()?,
                epoch: u32::try_from(field("epoch")?.as_u64()?).ok()?,
                time_us: field("time_us")?.as_i64()?,
                value: field("value")?.as_f64()?,
            },
            "Artifact" => LogRecord::Artifact(ArtifactMeta::from_json(body)?),
            "ContextStart" => LogRecord::ContextStart {
                context: Context::from_json(field("context")?)?,
                time_us: field("time_us")?.as_i64()?,
            },
            "ContextEnd" => LogRecord::ContextEnd {
                context: Context::from_json(field("context")?)?,
                time_us: field("time_us")?.as_i64()?,
            },
            _ => return None,
        })
    }

    /// Reads one record from JSON bytes.
    pub(crate) fn from_json_bytes(bytes: &[u8]) -> Option<LogRecord> {
        LogRecord::from_json(&json::parse_bytes(bytes).ok()?)
    }
}

/// Lifecycle state of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Accepting log records.
    Active,
    /// Finished successfully; provenance file written.
    Finished,
    /// Finished with a failure marker.
    Failed,
    /// Died without writing provenance (detected, not chosen: a journal
    /// with no `prov.json` next to it).
    Crashed,
    /// Rebuilt from the write-ahead journal after a crash.
    Recovered,
}

/// What `Run::finish` returns: where everything was written.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Experiment name.
    pub experiment: String,
    /// Run name.
    pub run: String,
    /// Final status.
    pub status: RunStatus,
    /// The PROV-JSON provenance file.
    pub prov_json_path: PathBuf,
    /// The PROV-N rendering (human-readable).
    pub provn_path: PathBuf,
    /// Where spilled metrics went, if spilling was enabled.
    pub metric_store_path: Option<PathBuf>,
    /// Number of parameters logged.
    pub params: usize,
    /// Number of metric samples logged.
    pub metric_samples: usize,
    /// Number of artifacts logged.
    pub artifacts: usize,
    /// Total provenance-file size in bytes (PROV-JSON only).
    pub prov_json_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_names_roundtrip() {
        for ctx in [
            Context::Training,
            Context::Validation,
            Context::Testing,
            Context::Custom("preprocessing".into()),
        ] {
            assert_eq!(Context::from_name(&ctx.name()), ctx);
        }
        assert_eq!(Context::Custom("ETL".into()).name(), "etl");
    }

    #[test]
    fn param_conversions() {
        assert_eq!(ParamValue::from(0.5), ParamValue::Float(0.5));
        assert_eq!(ParamValue::from(3i64), ParamValue::Int(3));
        assert_eq!(ParamValue::from(3usize), ParamValue::Int(3));
        assert_eq!(ParamValue::from("adam"), ParamValue::Text("adam".into()));
        assert_eq!(ParamValue::from(true), ParamValue::Bool(true));
    }

    #[test]
    fn param_accessors() {
        assert_eq!(ParamValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(ParamValue::Int(4).as_f64(), Some(4.0));
        assert_eq!(ParamValue::Text("x".into()).as_f64(), None);
        assert_eq!(ParamValue::Float(0.1).render(), "0.1");
        assert_eq!(ParamValue::Bool(false).render(), "false");
    }

    #[test]
    fn context_display() {
        assert_eq!(Context::Training.to_string(), "training");
        assert_eq!(Context::Custom("Export".into()).to_string(), "export");
    }
}
