//! Typed intermediate representation (IR) for lineage queries, with its
//! JSON wire form and its reader.
//!
//! A [`PathQuery`] is a path pattern over the provenance graph: a
//! *start* [`ElementFilter`] selecting the anchor nodes, followed by a
//! sequence of [`Step`]s, each of which walks edges of the given
//! [`RelationKind`]s in one [`StepDirection`] under a [`Repeat`]
//! quantifier and lands on nodes matching a *target* filter. The
//! textbook example
//!
//! ```text
//! entity ->(wasDerivedFrom|used)* activity
//! ```
//!
//! is expressed as
//!
//! ```json
//! {
//!   "start": {"kind": "entity"},
//!   "steps": [{
//!     "rels": ["wasDerivedFrom", "used"],
//!     "dir": "backward",
//!     "repeat": "+",
//!     "target": {"kind": "activity"}
//!   }]
//! }
//! ```
//!
//! The IR lives here (not in `prov-graph`) so producers, the service and
//! clients share one serialized form; planning and execution live in
//! `prov-graph::engine`. Identifiers and attribute keys travel as
//! `"prefix:local"` strings and are parsed with [`QName::parse`].
//!
//! Filter objects AND their clauses together; `{}` matches everything.
//! Explicit `anyOf` / `not` clauses provide disjunction and negation.

use crate::error::ProvError;
use crate::qname::QName;
use crate::record::{Element, ElementKind};
use crate::relation::RelationKind;
use json::Value; // reads JSON

/// A predicate over graph nodes (declared elements or dangling
/// references). All clauses of a filter must hold.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElementFilter {
    /// Restrict to one element kind. Dangling references (nodes that
    /// only appear inside relations) have no kind and never match.
    pub kind: Option<ElementKind>,
    /// Exact identifier match.
    pub id: Option<QName>,
    /// Identifier's local part contains this substring.
    pub id_contains: Option<String>,
    /// Element carries this `prov:type`.
    pub type_is: Option<QName>,
    /// Element has at least one value under this attribute key.
    pub has_attr: Option<QName>,
    /// Some value under the key equals the string (lexical comparison,
    /// so `"0.5"` matches `AttrValue::Double(0.5)`).
    pub attr_equals: Option<(QName, String)>,
    /// Some numeric value under the key is strictly below the bound.
    pub attr_lt: Option<(QName, f64)>,
    /// Some numeric value under the key is strictly above the bound.
    pub attr_gt: Option<(QName, f64)>,
    /// At least one sub-filter matches (disjunction).
    pub any_of: Vec<ElementFilter>,
    /// The sub-filter must not match (negation).
    pub not: Option<Box<ElementFilter>>,
}

impl ElementFilter {
    /// The match-everything filter (`{}` on the wire).
    pub fn any() -> Self {
        ElementFilter::default()
    }

    /// Filter matching exactly one identifier.
    pub fn by_id(id: QName) -> Self {
        ElementFilter {
            id: Some(id),
            ..Default::default()
        }
    }

    /// Filter matching one element kind.
    pub fn by_kind(kind: ElementKind) -> Self {
        ElementFilter {
            kind: Some(kind),
            ..Default::default()
        }
    }

    /// Filter matching elements with the given `prov:type`.
    pub fn by_type(ty: QName) -> Self {
        ElementFilter {
            type_is: Some(ty),
            ..Default::default()
        }
    }

    /// Evaluates the filter against a node. `element` is `None` for
    /// dangling references, which match only the unconstrained clauses
    /// (`id` / `id_contains` / `not` / `any_of` that themselves pass).
    pub fn matches(&self, id: &QName, element: Option<&Element>) -> bool {
        if let Some(want) = &self.id {
            if want != id {
                return false;
            }
        }
        if let Some(sub) = &self.id_contains {
            if !id.local().contains(sub.as_str()) {
                return false;
            }
        }
        if let Some(kind) = self.kind {
            if element.map(|e| e.kind) != Some(kind) {
                return false;
            }
        }
        if let Some(ty) = &self.type_is {
            if !element.is_some_and(|e| e.has_type(ty)) {
                return false;
            }
        }
        if let Some(key) = &self.has_attr {
            if element.is_none_or(|e| e.attrs(key).is_empty()) {
                return false;
            }
        }
        if let Some((key, want)) = &self.attr_equals {
            let hit = element.is_some_and(|e| e.attrs(key).iter().any(|v| v.lexical() == *want));
            if !hit {
                return false;
            }
        }
        if let Some((key, bound)) = &self.attr_lt {
            let hit = element.is_some_and(|e| {
                e.attrs(key)
                    .iter()
                    .any(|v| v.as_f64().is_some_and(|x| x < *bound))
            });
            if !hit {
                return false;
            }
        }
        if let Some((key, bound)) = &self.attr_gt {
            let hit = element.is_some_and(|e| {
                e.attrs(key)
                    .iter()
                    .any(|v| v.as_f64().is_some_and(|x| x > *bound))
            });
            if !hit {
                return false;
            }
        }
        if !self.any_of.is_empty() && !self.any_of.iter().any(|f| f.matches(id, element)) {
            return false;
        }
        if let Some(inner) = &self.not {
            if inner.matches(id, element) {
                return false;
            }
        }
        true
    }

    /// Parses the wire form, rejecting unknown clauses so typos fail
    /// loudly instead of silently matching everything.
    pub fn from_json(v: &Value) -> Result<Self, ProvError> {
        let obj = v
            .as_object()
            .ok_or_else(|| ProvError::Structure("element filter must be a JSON object".into()))?;
        let mut filter = ElementFilter::default();
        for (key, value) in obj {
            match key.as_str() {
                "kind" => filter.kind = Some(parse_kind(expect_str(value, "kind")?)?),
                "id" => filter.id = Some(QName::parse(expect_str(value, "id")?)?),
                "idContains" => {
                    filter.id_contains = Some(expect_str(value, "idContains")?.to_string())
                }
                "typeIs" => filter.type_is = Some(QName::parse(expect_str(value, "typeIs")?)?),
                "hasAttr" => filter.has_attr = Some(QName::parse(expect_str(value, "hasAttr")?)?),
                "attrEquals" => {
                    let (k, v) = attr_pair(value)?;
                    let s = v
                        .as_str()
                        .map(str::to_string)
                        .unwrap_or_else(|| v.to_string());
                    filter.attr_equals = Some((k, s));
                }
                "attrLt" => {
                    let (k, v) = attr_pair(value)?;
                    filter.attr_lt = Some((k, expect_f64(&v, "attrLt.value")?));
                }
                "attrGt" => {
                    let (k, v) = attr_pair(value)?;
                    filter.attr_gt = Some((k, expect_f64(&v, "attrGt.value")?));
                }
                "anyOf" => {
                    let arr = value.as_array().ok_or_else(|| {
                        ProvError::Structure("\"anyOf\" must be an array of filters".into())
                    })?;
                    filter.any_of = arr
                        .iter()
                        .map(ElementFilter::from_json)
                        .collect::<Result<_, _>>()?;
                }
                "not" => filter.not = Some(Box::new(ElementFilter::from_json(value)?)),
                other => {
                    return Err(ProvError::Structure(format!(
                        "unknown element-filter clause {other:?}"
                    )))
                }
            }
        }
        Ok(filter)
    }
}

/// Direction of travel along relation edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepDirection {
    /// Subject → object: towards origins / ancestors (e.g. from a model
    /// to the data it was derived from).
    #[default]
    Forward,
    /// Object → subject: towards dependents / descendants (e.g. from a
    /// dataset to everything trained on it).
    Backward,
}

impl StepDirection {
    /// The opposite direction — what a plan executing the pattern from
    /// its far end walks.
    pub fn flipped(self) -> Self {
        match self {
            StepDirection::Forward => StepDirection::Backward,
            StepDirection::Backward => StepDirection::Forward,
        }
    }
}

/// How many times a step's edge walk repeats: `min..=max` hops, with
/// `max = None` meaning unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat {
    /// Minimum number of hops (0 lets the step match its own start).
    pub min: usize,
    /// Maximum number of hops, unbounded when `None`.
    pub max: Option<usize>,
}

impl Repeat {
    /// Exactly one hop — the default when the wire form omits `repeat`.
    pub fn once() -> Self {
        Repeat {
            min: 1,
            max: Some(1),
        }
    }

    /// Zero or more hops (`*`).
    pub fn star() -> Self {
        Repeat { min: 0, max: None }
    }

    /// One or more hops (`+`).
    pub fn plus() -> Self {
        Repeat { min: 1, max: None }
    }
}

impl Default for Repeat {
    fn default() -> Self {
        Repeat::once()
    }
}

/// One step of a path pattern: walk edges of the allowed kinds in one
/// direction, `repeat` times, landing on nodes matching `target`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Step {
    /// Relation kinds the walk may traverse; empty means any kind.
    pub kinds: Vec<RelationKind>,
    /// Direction of travel.
    pub direction: StepDirection,
    /// Hop quantifier.
    pub repeat: Repeat,
    /// Filter the landing nodes must satisfy.
    pub target: ElementFilter,
}

impl Step {
    /// Parses the wire form.
    pub fn from_json(v: &Value) -> Result<Self, ProvError> {
        let obj = v
            .as_object()
            .ok_or_else(|| ProvError::Structure("step must be a JSON object".into()))?;
        let mut step = Step::default();
        for (key, value) in obj {
            match key.as_str() {
                "rels" => {
                    let arr = value.as_array().ok_or_else(|| {
                        ProvError::Structure("\"rels\" must be an array of relation kinds".into())
                    })?;
                    step.kinds = arr
                        .iter()
                        .map(|k| {
                            let name = expect_str(k, "rels entry")?;
                            RelationKind::from_json_key(name).ok_or_else(|| {
                                ProvError::Structure(format!("unknown relation kind {name:?}"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "dir" => {
                    step.direction = match expect_str(value, "dir")? {
                        "forward" => StepDirection::Forward,
                        "backward" => StepDirection::Backward,
                        other => {
                            return Err(ProvError::Structure(format!(
                                "direction must be \"forward\" or \"backward\", got {other:?}"
                            )))
                        }
                    }
                }
                "repeat" => step.repeat = repeat_from_json(value)?,
                "target" => step.target = ElementFilter::from_json(value)?,
                other => {
                    return Err(ProvError::Structure(format!(
                        "unknown step clause {other:?}"
                    )))
                }
            }
        }
        Ok(step)
    }
}

/// A full path pattern: anchor filter plus steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathQuery {
    /// Filter selecting the anchor (start) nodes.
    pub start: ElementFilter,
    /// Steps walked from each anchor, in order.
    pub steps: Vec<Step>,
    /// Cap on the number of `(start, end)` rows returned.
    pub limit: Option<usize>,
}

impl PathQuery {
    /// Parses the wire form.
    pub fn from_json(v: &Value) -> Result<Self, ProvError> {
        let obj = v
            .as_object()
            .ok_or_else(|| ProvError::Structure("query must be a JSON object".into()))?;
        let mut query = PathQuery::default();
        for (key, value) in obj {
            match key.as_str() {
                "start" => query.start = ElementFilter::from_json(value)?,
                "steps" => {
                    let arr = value
                        .as_array()
                        .ok_or_else(|| ProvError::Structure("\"steps\" must be an array".into()))?;
                    query.steps = arr.iter().map(Step::from_json).collect::<Result<_, _>>()?;
                }
                "limit" => {
                    let n = value.as_u64().ok_or_else(|| {
                        ProvError::Structure("\"limit\" must be a non-negative integer".into())
                    })?;
                    query.limit = Some(n as usize);
                }
                other => {
                    return Err(ProvError::Structure(format!(
                        "unknown query clause {other:?}"
                    )))
                }
            }
        }
        Ok(query)
    }

    /// Parses a query from a JSON string.
    pub fn from_json_str(s: &str) -> Result<Self, ProvError> {
        let v: Value = json::parse(s)?;
        PathQuery::from_json(&v)
    }
}

fn parse_kind(s: &str) -> Result<ElementKind, ProvError> {
    match s {
        "entity" => Ok(ElementKind::Entity),
        "activity" => Ok(ElementKind::Activity),
        "agent" => Ok(ElementKind::Agent),
        other => Err(ProvError::Structure(format!(
            "element kind must be entity|activity|agent, got {other:?}"
        ))),
    }
}

fn expect_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, ProvError> {
    v.as_str()
        .ok_or_else(|| ProvError::Structure(format!("{what} must be a JSON string")))
}

fn expect_f64(v: &Value, what: &str) -> Result<f64, ProvError> {
    v.as_f64()
        .ok_or_else(|| ProvError::Structure(format!("{what} must be a JSON number")))
}

fn attr_pair(v: &Value) -> Result<(QName, Value), ProvError> {
    let obj = v
        .as_object()
        .ok_or_else(|| ProvError::Structure("attribute clause must be {key, value}".into()))?;
    let key = obj
        .get("key")
        .and_then(|k| k.as_str())
        .ok_or_else(|| ProvError::Structure("attribute clause is missing \"key\"".into()))?;
    let value = obj
        .get("value")
        .cloned()
        .ok_or_else(|| ProvError::Structure("attribute clause is missing \"value\"".into()))?;
    Ok((QName::parse(key)?, value))
}

/// The largest hop count a wire-form `repeat` may name, as `n`, `min`
/// or `max`. The executor walks a bounded window one level per hop,
/// each level cloning its witness paths one hop longer, so on a cycle
/// its cost grows with the square of the bound; `"+"` and `"*"` reach
/// any depth in one linear closure walk.
const MAX_REPEAT_HOPS: usize = 64;

fn repeat_from_json(v: &Value) -> Result<Repeat, ProvError> {
    let repeat = repeat_form(v)?;
    let bound = repeat.max.unwrap_or(repeat.min);
    if bound > MAX_REPEAT_HOPS {
        return Err(ProvError::Structure(format!(
            "repeat bound {bound} exceeds MAX_REPEAT_HOPS ({MAX_REPEAT_HOPS}); \
             use \"+\" or \"*\" for deeper closures"
        )));
    }
    Ok(repeat)
}

fn repeat_form(v: &Value) -> Result<Repeat, ProvError> {
    match v {
        Value::String(s) => match s.as_str() {
            "1" => Ok(Repeat::once()),
            "*" => Ok(Repeat::star()),
            "+" => Ok(Repeat::plus()),
            "?" => Ok(Repeat {
                min: 0,
                max: Some(1),
            }),
            other => Err(ProvError::Structure(format!(
                "repeat must be \"1\", \"*\", \"+\", \"?\" or {{min,max}}, got {other:?}"
            ))),
        },
        Value::Number(n) => {
            let n = n.as_u64().ok_or_else(|| {
                ProvError::Structure("numeric repeat must be a non-negative integer".into())
            })? as usize;
            Ok(Repeat {
                min: n,
                max: Some(n),
            })
        }
        Value::Object(obj) => {
            let min = match obj.get("min") {
                Some(m) => m.as_u64().ok_or_else(|| {
                    ProvError::Structure("repeat \"min\" must be a non-negative integer".into())
                })? as usize,
                None => 0,
            };
            let max = match obj.get("max") {
                Some(m) => Some(m.as_u64().ok_or_else(|| {
                    ProvError::Structure("repeat \"max\" must be a non-negative integer".into())
                })? as usize),
                None => None,
            };
            if let Some(max) = max {
                if max < min {
                    return Err(ProvError::Structure(format!(
                        "repeat max ({max}) below min ({min})"
                    )));
                }
            }
            Ok(Repeat { min, max })
        }
        _ => Err(ProvError::Structure(
            "repeat must be a string, number or {min,max} object".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::ProvDocument;
    use crate::value::AttrValue;
    use json::{json, Map};

    // The wire form's writer. Only the round-trip tests print a query,
    // so it lives here.

    fn kind_str(kind: ElementKind) -> &'static str {
        match kind {
            ElementKind::Entity => "entity",
            ElementKind::Activity => "activity",
            ElementKind::Agent => "agent",
        }
    }

    impl ElementFilter {
        /// The JSON wire form (object with one key per set clause).
        fn to_json(&self) -> Value {
            let mut obj = Map::new();
            if let Some(kind) = self.kind {
                obj.insert("kind".into(), json!(kind_str(kind)));
            }
            if let Some(id) = &self.id {
                obj.insert("id".into(), json!(id.to_string()));
            }
            if let Some(s) = &self.id_contains {
                obj.insert("idContains".into(), json!(s));
            }
            if let Some(ty) = &self.type_is {
                obj.insert("typeIs".into(), json!(ty.to_string()));
            }
            if let Some(key) = &self.has_attr {
                obj.insert("hasAttr".into(), json!(key.to_string()));
            }
            if let Some((key, value)) = &self.attr_equals {
                obj.insert(
                    "attrEquals".into(),
                    json!({"key": key.to_string(), "value": value}),
                );
            }
            if let Some((key, bound)) = &self.attr_lt {
                obj.insert(
                    "attrLt".into(),
                    json!({"key": key.to_string(), "value": *bound}),
                );
            }
            if let Some((key, bound)) = &self.attr_gt {
                obj.insert(
                    "attrGt".into(),
                    json!({"key": key.to_string(), "value": *bound}),
                );
            }
            if !self.any_of.is_empty() {
                obj.insert(
                    "anyOf".into(),
                    Value::Array(self.any_of.iter().map(|f| f.to_json()).collect()),
                );
            }
            if let Some(inner) = &self.not {
                obj.insert("not".into(), inner.to_json());
            }
            Value::Object(obj)
        }
    }

    impl Step {
        /// The JSON wire form.
        fn to_json(&self) -> Value {
            let mut obj = Map::new();
            if !self.kinds.is_empty() {
                obj.insert(
                    "rels".into(),
                    Value::Array(self.kinds.iter().map(|k| json!(k.json_key())).collect()),
                );
            }
            obj.insert(
                "dir".into(),
                json!(match self.direction {
                    StepDirection::Forward => "forward",
                    StepDirection::Backward => "backward",
                }),
            );
            obj.insert("repeat".into(), repeat_to_json(self.repeat));
            obj.insert("target".into(), self.target.to_json());
            Value::Object(obj)
        }
    }

    impl PathQuery {
        /// The JSON wire form.
        fn to_json(&self) -> Value {
            let mut obj = Map::new();
            obj.insert("start".into(), self.start.to_json());
            obj.insert(
                "steps".into(),
                Value::Array(self.steps.iter().map(|s| s.to_json()).collect()),
            );
            if let Some(limit) = self.limit {
                obj.insert("limit".into(), json!(limit));
            }
            Value::Object(obj)
        }
    }

    fn repeat_to_json(r: Repeat) -> Value {
        match (r.min, r.max) {
            (1, Some(1)) => json!("1"),
            (0, None) => json!("*"),
            (1, None) => json!("+"),
            (0, Some(1)) => json!("?"),
            (min, Some(max)) => json!({"min": min, "max": max}),
            (min, None) => json!({"min": min}),
        }
    }

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    fn doc() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("model"))
            .prov_type(q("Model"))
            .attr(q("loss"), AttrValue::Double(0.25))
            .attr(q("split"), AttrValue::String("test".into()));
        doc.activity(q("train"));
        doc
    }

    #[test]
    fn filter_matches_clauses() {
        let d = doc();
        let model = d.get(&q("model"));
        let f = ElementFilter {
            kind: Some(ElementKind::Entity),
            type_is: Some(q("Model")),
            attr_lt: Some((q("loss"), 0.5)),
            attr_equals: Some((q("split"), "test".into())),
            ..Default::default()
        };
        assert!(f.matches(&q("model"), model));
        assert!(!f.matches(&q("train"), d.get(&q("train"))));
        // Dangling references only match unconstrained clauses.
        assert!(!f.matches(&q("ghost"), None));
        assert!(ElementFilter::any().matches(&q("ghost"), None));
    }

    #[test]
    fn filter_disjunction_and_negation() {
        let d = doc();
        let f = ElementFilter {
            any_of: vec![
                ElementFilter::by_id(q("nope")),
                ElementFilter::by_kind(ElementKind::Activity),
            ],
            ..Default::default()
        };
        assert!(f.matches(&q("train"), d.get(&q("train"))));
        assert!(!f.matches(&q("model"), d.get(&q("model"))));
        let f = ElementFilter {
            not: Some(Box::new(ElementFilter::by_kind(ElementKind::Activity))),
            ..Default::default()
        };
        assert!(f.matches(&q("model"), d.get(&q("model"))));
        assert!(!f.matches(&q("train"), d.get(&q("train"))));
    }

    #[test]
    fn query_round_trips_through_json() {
        let query = PathQuery {
            start: ElementFilter {
                kind: Some(ElementKind::Entity),
                attr_equals: Some((q("split"), "test".into())),
                ..Default::default()
            },
            steps: vec![Step {
                kinds: vec![RelationKind::WasDerivedFrom, RelationKind::Used],
                direction: StepDirection::Backward,
                repeat: Repeat::plus(),
                target: ElementFilter {
                    kind: Some(ElementKind::Activity),
                    id_contains: Some("train".into()),
                    ..Default::default()
                },
            }],
            limit: Some(10),
        };
        let json = query.to_json();
        let back = PathQuery::from_json(&json).unwrap();
        assert_eq!(query, back);
    }

    #[test]
    fn wire_form_parses_the_documented_example() {
        let query = PathQuery::from_json_str(
            r#"{
                "start": {"kind": "entity"},
                "steps": [{
                    "rels": ["wasDerivedFrom", "used"],
                    "dir": "backward",
                    "repeat": "*",
                    "target": {"kind": "activity"}
                }]
            }"#,
        )
        .unwrap();
        assert_eq!(query.steps.len(), 1);
        assert_eq!(query.steps[0].kinds.len(), 2);
        assert_eq!(query.steps[0].repeat, Repeat::star());
        assert_eq!(query.steps[0].direction, StepDirection::Backward);
    }

    #[test]
    fn repeat_forms() {
        for (text, want) in [
            ("\"*\"", Repeat::star()),
            ("\"+\"", Repeat::plus()),
            (
                "\"?\"",
                Repeat {
                    min: 0,
                    max: Some(1),
                },
            ),
            (
                "3",
                Repeat {
                    min: 3,
                    max: Some(3),
                },
            ),
            (
                "{\"min\": 2, \"max\": 5}",
                Repeat {
                    min: 2,
                    max: Some(5),
                },
            ),
            ("{\"min\": 2}", Repeat { min: 2, max: None }),
        ] {
            let v: Value = json::parse(text).unwrap();
            assert_eq!(repeat_from_json(&v).unwrap(), want, "{text}");
            // And back: the rendered form re-parses to the same repeat.
            let rendered = repeat_to_json(want);
            assert_eq!(repeat_from_json(&rendered).unwrap(), want);
        }
        let bad: Value = json::parse("{\"min\": 5, \"max\": 2}").unwrap();
        assert!(repeat_from_json(&bad).is_err());
    }

    #[test]
    fn repeat_bounds_above_the_cap_are_refused() {
        let cap = MAX_REPEAT_HOPS;
        for text in [
            format!("{cap}"),
            format!("{{\"min\": {cap}}}"),
            format!("{{\"min\": 0, \"max\": {cap}}}"),
        ] {
            let v: Value = json::parse(&text).unwrap();
            assert!(repeat_from_json(&v).is_ok(), "{text}");
        }
        for text in [
            format!("{}", cap + 1),
            "1000000".to_string(),
            format!("{{\"min\": {}}}", cap + 1),
            format!("{{\"max\": {}}}", cap + 1),
            format!("{{\"min\": 1, \"max\": {}}}", cap + 1),
        ] {
            let query = format!(r#"{{"start": {{}}, "steps": [{{"repeat": {text}}}]}}"#);
            let err = PathQuery::from_json_str(&query).unwrap_err().to_string();
            assert!(err.contains("MAX_REPEAT_HOPS (64)"), "{text}: {err}");
        }
    }

    #[test]
    fn unknown_clauses_are_rejected() {
        assert!(PathQuery::from_json_str(r#"{"strat": {}}"#).is_err());
        assert!(ElementFilter::from_json(&json::json!({"knid": "entity"})).is_err());
        assert!(Step::from_json(&json::json!({"dir": "sideways"})).is_err());
    }
}
