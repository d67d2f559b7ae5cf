//! Local stand-in for `serde`, used only by the `benchmark` package.
//!
//! The growth container has no crate registry, so the benchmark patches
//! `crates-io` with the stand-ins under `benchmark/standins/`. This one
//! keeps serde's serialisation traits (`Serialize`, `Serializer`,
//! `SerializeMap`, `SerializeSeq`) in the shape the repository's
//! hand-written impls use, and replaces the visitor-based
//! deserialisation with a conversion from a parsed JSON [`value::Value`]
//! tree, which is all the repository needs: every `Deserialize` in it is
//! derived and every input is JSON. The JSON reader and writer live here
//! too (module [`json`]) so that `Value` can implement `Display`; the
//! `serde_json` stand-in re-exports them.

pub mod de;
pub mod json;
pub mod ser;
pub mod value;

pub use de::Deserialize;
pub use ser::{Serialize, Serializer};

// The derive macros share their names with the traits, as in serde.
pub use serde_derive::{Deserialize, Serialize};
