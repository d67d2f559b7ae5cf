//! The crate model and its JSON-LD (de)serialization.

use json::{json, Map, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The conformance IRI of RO-Crate 1.1.
pub const CONFORMS_TO: &str = "https://w3id.org/ro/crate/1.1";
/// The JSON-LD context of RO-Crate 1.1.
pub const CONTEXT: &str = "https://w3id.org/ro/crate/1.1/context";
/// File name of the metadata descriptor.
pub const METADATA_FILE: &str = "ro-crate-metadata.json";

/// Errors from reading or writing crates.
#[derive(Debug)]
pub enum RoCrateError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The metadata file is not valid JSON.
    Json(json::Error),
    /// The JSON was readable but not a well-formed RO-Crate.
    Malformed(String),
    /// A data entity references a file missing from the directory.
    MissingFile(String),
}

impl fmt::Display for RoCrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoCrateError::Io(e) => write!(f, "i/o error: {e}"),
            RoCrateError::Json(e) => write!(f, "invalid JSON: {e}"),
            RoCrateError::Malformed(m) => write!(f, "malformed crate: {m}"),
            RoCrateError::MissingFile(p) => write!(f, "data entity missing from crate: {p}"),
        }
    }
}

impl std::error::Error for RoCrateError {}

impl From<std::io::Error> for RoCrateError {
    fn from(e: std::io::Error) -> Self {
        RoCrateError::Io(e)
    }
}
impl From<json::Error> for RoCrateError {
    fn from(e: json::Error) -> Self {
        RoCrateError::Json(e)
    }
}

/// One contextual or data entity in the crate graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EntitySpec {
    /// The entity `@id` (a crate-relative path for files).
    pub id: String,
    /// The entity `@type` (e.g. `File`, `Dataset`, `Person`).
    pub types: Vec<String>,
    /// Flat string properties (`name`, `description`, ...).
    pub properties: BTreeMap<String, String>,
    /// Reference properties: property → target entity ids.
    pub references: BTreeMap<String, Vec<String>>,
}

impl EntitySpec {
    /// A `File` data entity for a crate-relative path.
    pub fn file(path: impl Into<String>) -> Self {
        EntitySpec {
            id: path.into(),
            types: vec!["File".into()],
            properties: BTreeMap::new(),
            references: BTreeMap::new(),
        }
    }

    /// A contextual entity with an explicit id and type.
    pub fn contextual(id: impl Into<String>, ty: impl Into<String>) -> Self {
        EntitySpec {
            id: id.into(),
            types: vec![ty.into()],
            properties: BTreeMap::new(),
            references: BTreeMap::new(),
        }
    }

    /// Sets the `name` property.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.properties.insert("name".into(), name.into());
        self
    }

    /// Sets the `description` property.
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.properties.insert("description".into(), d.into());
        self
    }

    /// Sets an arbitrary string property.
    pub fn with_property(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.properties.insert(key.into(), value.into());
        self
    }

    /// Adds a reference to another entity.
    pub fn with_reference(mut self, key: impl Into<String>, target: impl Into<String>) -> Self {
        self.references
            .entry(key.into())
            .or_default()
            .push(target.into());
        self
    }

    fn is_file(&self) -> bool {
        self.types.iter().any(|t| t == "File")
    }
}

/// An RO-Crate under construction or loaded from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RoCrate {
    name: String,
    description: String,
    entities: Vec<EntitySpec>,
}

impl RoCrate {
    /// Starts an empty crate with root-dataset name and description.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        RoCrate {
            name: name.into(),
            description: description.into(),
            entities: Vec::new(),
        }
    }

    /// The root dataset's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root dataset's description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// All non-root entities.
    pub fn entities(&self) -> &[EntitySpec] {
        &self.entities
    }

    /// Ids of the `File` data entities (the root's `hasPart`).
    pub fn file_ids(&self) -> Vec<&str> {
        self.entities
            .iter()
            .filter(|e| e.is_file())
            .map(|e| e.id.as_str())
            .collect()
    }

    /// Looks up an entity by id.
    pub fn get(&self, id: &str) -> Option<&EntitySpec> {
        self.entities.iter().find(|e| e.id == id)
    }

    /// Adds a data or contextual entity.
    pub fn add_file(&mut self, spec: EntitySpec) -> &mut Self {
        self.entities.push(spec);
        self
    }

    /// Adds a contextual entity (alias of [`Self::add_file`] kept for
    /// call-site readability).
    pub fn add_entity(&mut self, spec: EntitySpec) -> &mut Self {
        self.entities.push(spec);
        self
    }

    /// Serializes the metadata descriptor as JSON-LD.
    pub fn to_metadata_json(&self) -> Value {
        let mut graph = Vec::new();

        graph.push(json!({
            "@id": METADATA_FILE,
            "@type": "CreativeWork",
            "conformsTo": { "@id": CONFORMS_TO },
            "about": { "@id": "./" },
        }));

        let has_part: Vec<Value> = self
            .entities
            .iter()
            .filter(|e| e.is_file())
            .map(|e| json!({ "@id": &e.id }))
            .collect();
        graph.push(json!({
            "@id": "./",
            "@type": "Dataset",
            "name": &self.name,
            "description": &self.description,
            "hasPart": has_part,
        }));

        for e in &self.entities {
            let mut obj = Map::new();
            obj.insert("@id".into(), json!(&e.id));
            obj.insert(
                "@type".into(),
                if e.types.len() == 1 {
                    json!(&e.types[0])
                } else {
                    json!(e.types.clone())
                },
            );
            for (k, v) in &e.properties {
                obj.insert(k.clone(), json!(v));
            }
            for (k, targets) in &e.references {
                let refs: Vec<Value> = targets.iter().map(|t| json!({ "@id": t })).collect();
                obj.insert(
                    k.clone(),
                    if refs.len() == 1 {
                        refs.into_iter().next().expect("len checked")
                    } else {
                        Value::Array(refs)
                    },
                );
            }
            graph.push(Value::Object(obj));
        }

        json!({ "@context": CONTEXT, "@graph": graph })
    }

    /// Writes `ro-crate-metadata.json` into `dir`, verifying that every
    /// `File` entity actually exists there.
    pub fn write(&self, dir: impl AsRef<Path>) -> Result<(), RoCrateError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for e in self.entities.iter().filter(|e| e.is_file()) {
            if !dir.join(&e.id).is_file() {
                return Err(RoCrateError::MissingFile(e.id.clone()));
            }
        }
        let text = format!("{:#}", self.to_metadata_json());
        std::fs::write(dir.join(METADATA_FILE), text)?;
        Ok(())
    }

    /// Reads a crate from a directory containing the descriptor.
    pub fn read(dir: impl AsRef<Path>) -> Result<RoCrate, RoCrateError> {
        let text = std::fs::read_to_string(dir.as_ref().join(METADATA_FILE))?;
        Self::from_metadata_json(&json::parse(&text)?)
    }

    /// Parses the JSON-LD descriptor.
    pub fn from_metadata_json(value: &Value) -> Result<RoCrate, RoCrateError> {
        let graph = value
            .get("@graph")
            .and_then(Value::as_array)
            .ok_or_else(|| RoCrateError::Malformed("missing @graph".into()))?;

        let find = |id: &str| -> Option<&Map> {
            graph
                .iter()
                .filter_map(Value::as_object)
                .find(|o| o.get("@id").and_then(Value::as_str) == Some(id))
        };

        let descriptor = find(METADATA_FILE)
            .ok_or_else(|| RoCrateError::Malformed("missing metadata descriptor".into()))?;
        let root_id = descriptor
            .get("about")
            .and_then(|a| a.get("@id"))
            .and_then(Value::as_str)
            .ok_or_else(|| RoCrateError::Malformed("descriptor lacks 'about'".into()))?;
        let root = find(root_id)
            .ok_or_else(|| RoCrateError::Malformed(format!("missing root dataset {root_id}")))?;

        let name = root
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let description = root
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();

        let mut entities = Vec::new();
        for obj in graph.iter().filter_map(Value::as_object) {
            let id = obj
                .get("@id")
                .and_then(Value::as_str)
                .ok_or_else(|| RoCrateError::Malformed("entity without @id".into()))?;
            if id == METADATA_FILE || id == root_id {
                continue;
            }
            let types = match obj.get("@type") {
                Some(Value::String(s)) => vec![s.clone()],
                Some(Value::Array(a)) => a
                    .iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect(),
                _ => Vec::new(),
            };
            let mut spec = EntitySpec {
                id: id.to_string(),
                types,
                properties: BTreeMap::new(),
                references: BTreeMap::new(),
            };
            for (k, v) in obj {
                if k.starts_with('@') {
                    continue;
                }
                match v {
                    Value::String(s) => {
                        spec.properties.insert(k.clone(), s.clone());
                    }
                    Value::Object(o) => {
                        if let Some(target) = o.get("@id").and_then(Value::as_str) {
                            spec.references
                                .entry(k.clone())
                                .or_default()
                                .push(target.to_string());
                        }
                    }
                    Value::Array(items) => {
                        for item in items {
                            if let Some(target) = item.get("@id").and_then(Value::as_str) {
                                spec.references
                                    .entry(k.clone())
                                    .or_default()
                                    .push(target.to_string());
                            }
                        }
                    }
                    _ => {}
                }
            }
            entities.push(spec);
        }

        Ok(RoCrate {
            name,
            description,
            entities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("rocrate_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> RoCrate {
        let mut c = RoCrate::new("run-0001", "MODIS-FM scaling run");
        c.add_file(
            EntitySpec::file("model.ckpt")
                .with_name("checkpoint")
                .with_property("encodingFormat", "application/octet-stream")
                .with_reference("author", "#researcher"),
        );
        c.add_file(EntitySpec::file("prov.json").with_description("W3C PROV provenance"));
        c.add_entity(EntitySpec::contextual("#researcher", "Person").with_name("A. Researcher"));
        c
    }

    #[test]
    fn metadata_structure() {
        let v = sample().to_metadata_json();
        assert_eq!(v["@context"], CONTEXT);
        let graph = v["@graph"].as_array().unwrap();
        assert_eq!(graph.len(), 5); // descriptor + root + 3 entities
        assert_eq!(graph[0]["conformsTo"]["@id"], CONFORMS_TO);
        let root = &graph[1];
        assert_eq!(root["@id"], "./");
        assert_eq!(root["hasPart"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        std::fs::write(dir.join("model.ckpt"), b"w").unwrap();
        std::fs::write(dir.join("prov.json"), b"{}").unwrap();
        let c = sample();
        c.write(&dir).unwrap();
        let back = RoCrate::read(&dir).unwrap();
        assert_eq!(back, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_refuses_missing_files() {
        let dir = tmpdir("missing");
        // model.ckpt not created.
        let err = sample().write(&dir).unwrap_err();
        assert!(matches!(err, RoCrateError::MissingFile(p) if p == "model.ckpt"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_descriptors_rejected() {
        for bad in [
            json!({}),
            json!({"@graph": []}),
            json!({"@graph": [{"@id": METADATA_FILE, "@type": "CreativeWork"}]}),
        ] {
            assert!(RoCrate::from_metadata_json(&bad).is_err());
        }
    }

    #[test]
    fn file_ids_and_lookup() {
        let c = sample();
        assert_eq!(c.file_ids(), vec!["model.ckpt", "prov.json"]);
        assert!(c.get("#researcher").is_some());
        assert!(c.get("nope").is_none());
        assert_eq!(
            c.get("model.ckpt").unwrap().references["author"],
            vec!["#researcher"]
        );
    }

    #[test]
    fn multi_type_entities_roundtrip() {
        let dir = tmpdir("multitype");
        std::fs::write(dir.join("data.nc"), b"x").unwrap();
        let mut c = RoCrate::new("n", "d");
        let mut spec = EntitySpec::file("data.nc");
        spec.types.push("Dataset".into());
        c.add_file(spec);
        c.write(&dir).unwrap();
        let back = RoCrate::read(&dir).unwrap();
        assert_eq!(back.get("data.nc").unwrap().types, vec!["File", "Dataset"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
