//! # prov-model
//!
//! A from-scratch implementation of the W3C PROV data model ([PROV-DM]),
//! together with the [PROV-JSON] serialization and a [PROV-N] writer.
//!
//! The crate is the foundation of the `yprov4ml` provenance producer: every
//! experiment run is ultimately expressed as a [`ProvDocument`] containing
//! entities, activities, agents and the standard PROV relations between
//! them.
//!
//! ## Quick tour
//!
//! ```
//! use prov_model::{ProvDocument, QName, AttrValue};
//!
//! let mut doc = ProvDocument::new();
//! doc.namespaces_mut().register("ex", "http://example.org/");
//!
//! let run = QName::new("ex", "training_run");
//! let model = QName::new("ex", "model.ckpt");
//! doc.activity(run.clone())
//!     .attr(QName::prov("label"), AttrValue::from("training"));
//! doc.entity(model.clone());
//! doc.was_generated_by(model, run);
//!
//! let json = doc.to_json_string_pretty().unwrap();
//! let back = ProvDocument::from_json_str(&json).unwrap();
//! assert_eq!(doc, back);
//! ```
//!
//! [PROV-DM]: https://www.w3.org/TR/prov-dm/
//! [PROV-JSON]: https://www.w3.org/Submission/prov-json/
//! [PROV-N]: https://www.w3.org/TR/prov-n/

pub mod datetime;
pub mod document;
pub mod error;
pub mod json;
mod json_read;
pub mod json_stream;
pub mod provn;
pub mod qname;
pub mod query;
pub mod record;
pub mod relation;
pub mod turtle;
pub mod validate;
pub mod value;

// The PROV-N reader, the PROV-N writer's byte oracle and the PROV-JSON
// tree codec are test code, the oracles of the writers and the reader:
// they live under `tests/`, and this test build includes them by the
// crate's public name, so that the PROV-N reader's unit tests run here,
// `provn`'s tests can compare against the oracle, and the unit tests of
// `json`, `json_read` and `json_stream` can compare against the codec.
#[cfg(test)]
extern crate self as prov_model;
#[cfg(test)]
#[path = "../tests/provn_oracle/mod.rs"]
mod provn_oracle;
#[cfg(test)]
#[path = "../tests/provn_parse/mod.rs"]
mod provn_parse;
#[cfg(test)]
#[path = "../tests/tree_codec/mod.rs"]
mod tree_codec;

pub use datetime::XsdDateTime;
pub use document::{DeltaApply, ProvDocument, RecordBuilder};
pub use error::ProvError;
pub use qname::{Namespace, NamespaceRegistry, QName};
pub use query::{ElementFilter, PathQuery, Repeat, Step, StepDirection};
pub use record::{Activity, Agent, Element, ElementKind, Entity};
pub use relation::{Relation, RelationId, RelationKind};
pub use validate::{validate, Severity, ValidationIssue};
pub use value::AttrValue;
