//! Qualified names and namespace handling.
//!
//! PROV identifies every element and relation with a *qualified name*: a
//! `prefix:local` pair where the prefix is bound to a namespace IRI in the
//! document's [`NamespaceRegistry`]. The well-known `prov:` and `xsd:`
//! prefixes are always available.

use crate::error::ProvError;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// IRI of the W3C PROV namespace (bound to the `prov` prefix).
pub const PROV_NS: &str = "http://www.w3.org/ns/prov#";
/// IRI of the XML Schema datatypes namespace (bound to the `xsd` prefix).
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema#";
/// Default namespace prefix used by yProv4ML-produced documents.
pub const YPROV_PREFIX: &str = "yprov4ml";
/// Namespace IRI used by yProv4ML-produced documents.
pub const YPROV_NS: &str = "https://yprov.example.org/ns/yprov4ml#";

/// A namespace binding: a short prefix and the IRI it expands to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Namespace {
    /// The short prefix, e.g. `prov`.
    pub prefix: String,
    /// The expanded IRI, e.g. `http://www.w3.org/ns/prov#`.
    pub iri: String,
}

/// A qualified name `prefix:local`.
///
/// `QName` is cheap to clone: both components are reference-counted
/// strings, so qualified names can be freely duplicated into indexes,
/// relations and graphs without reallocating.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QName {
    prefix: Arc<str>,
    local: Arc<str>,
}

impl QName {
    /// Builds a qualified name from a prefix and a local part.
    pub fn new(prefix: impl AsRef<str>, local: impl AsRef<str>) -> Self {
        QName {
            prefix: Arc::from(prefix.as_ref()),
            local: Arc::from(local.as_ref()),
        }
    }

    /// Builds a name in the `prov:` namespace (e.g. `prov:type`).
    pub fn prov(local: impl AsRef<str>) -> Self {
        QName::new("prov", local)
    }

    /// Builds a name in the `xsd:` namespace (e.g. `xsd:double`).
    pub fn xsd(local: impl AsRef<str>) -> Self {
        QName::new("xsd", local)
    }

    /// Builds a name in the yProv4ML namespace.
    pub fn yprov(local: impl AsRef<str>) -> Self {
        QName::new(YPROV_PREFIX, local)
    }

    /// Parses a `prefix:local` string.
    ///
    /// The *first* colon splits the prefix from the local part, matching
    /// PROV-N semantics; the local part may itself contain further colons.
    pub fn parse(s: &str) -> Result<Self, ProvError> {
        let (prefix, local) = s
            .split_once(':')
            .ok_or_else(|| ProvError::InvalidQName(s.to_string()))?;
        if prefix.is_empty() || local.is_empty() {
            return Err(ProvError::InvalidQName(s.to_string()));
        }
        if !is_valid_prefix(prefix) {
            return Err(ProvError::InvalidQName(s.to_string()));
        }
        Ok(QName::new(prefix, local))
    }

    /// The namespace prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The local (unqualified) part.
    pub fn local(&self) -> &str {
        &self.local
    }

    /// `prefix`, `:`, `local`: the rendered name in pieces, for a writer
    /// to print without building the string.
    pub fn parts(&self) -> [&str; 3] {
        [&self.prefix, ":", &self.local]
    }

    /// Expands this name against a registry, producing a full IRI.
    pub fn expand(&self, reg: &NamespaceRegistry) -> Result<String, ProvError> {
        let ns = reg
            .lookup(&self.prefix)
            .ok_or_else(|| ProvError::UnknownPrefix(self.prefix.to_string()))?;
        Ok(format!("{}{}", ns, self.local))
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.prefix, self.local)
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QName({}:{})", self.prefix, self.local)
    }
}

fn is_valid_prefix(p: &str) -> bool {
    let mut chars = p.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
}

/// The set of prefix → IRI bindings of a document.
///
/// `prov` and `xsd` are implicitly bound and cannot be rebound to other
/// IRIs. A registry may also carry a *default* namespace, serialized as
/// the `"default"` key in PROV-JSON's `prefix` block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NamespaceRegistry {
    bindings: BTreeMap<String, String>,
    default_ns: Option<String>,
}

impl NamespaceRegistry {
    /// Creates a registry with only the implicit `prov`/`xsd` bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) a prefix.
    ///
    /// Returns an error when attempting to rebind `prov` or `xsd` to a
    /// different IRI than their standard ones.
    pub fn register(
        &mut self,
        prefix: impl Into<String>,
        iri: impl Into<String>,
    ) -> Result<(), ProvError> {
        let prefix = prefix.into();
        let iri = iri.into();
        match prefix.as_str() {
            "prov" if iri != PROV_NS => {
                return Err(ProvError::Conflict(format!(
                    "prefix 'prov' is reserved for {PROV_NS}"
                )))
            }
            "xsd" if iri != XSD_NS => {
                return Err(ProvError::Conflict(format!(
                    "prefix 'xsd' is reserved for {XSD_NS}"
                )))
            }
            _ => {}
        }
        if !is_valid_prefix(&prefix) {
            return Err(ProvError::InvalidQName(prefix));
        }
        self.bindings.insert(prefix, iri);
        Ok(())
    }

    /// Sets the default namespace (PROV-JSON `"default"` prefix entry).
    pub fn set_default(&mut self, iri: impl Into<String>) {
        self.default_ns = Some(iri.into());
    }

    /// The default namespace IRI, if set.
    pub fn default_ns(&self) -> Option<&str> {
        self.default_ns.as_deref()
    }

    /// Resolves a prefix to its IRI, consulting implicit bindings last.
    pub fn lookup(&self, prefix: &str) -> Option<Cow<'_, str>> {
        if let Some(iri) = self.bindings.get(prefix) {
            return Some(Cow::Borrowed(iri));
        }
        match prefix {
            "prov" => Some(Cow::Borrowed(PROV_NS)),
            "xsd" => Some(Cow::Borrowed(XSD_NS)),
            _ => None,
        }
    }

    /// True when the prefix resolves (explicitly or implicitly).
    pub fn contains(&self, prefix: &str) -> bool {
        self.lookup(prefix).is_some()
    }

    /// Iterates over the explicit bindings, in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = Namespace> + '_ {
        self.bindings.iter().map(|(p, i)| Namespace {
            prefix: p.clone(),
            iri: i.clone(),
        })
    }

    /// The explicit bindings as `(prefix, iri)`, in prefix order,
    /// borrowed.
    pub(crate) fn bindings(&self) -> impl Iterator<Item = (&str, &str)> {
        self.bindings.iter().map(|(p, i)| (p.as_str(), i.as_str()))
    }

    /// Number of explicit bindings (implicit `prov`/`xsd` not counted).
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when no explicit bindings exist.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Merges the bindings of `other` into `self`.
    ///
    /// Conflicting bindings (same prefix, different IRI) are an error to
    /// avoid silently changing the meaning of qualified names.
    pub fn merge(&mut self, other: &NamespaceRegistry) -> Result<(), ProvError> {
        for ns in other.iter() {
            if let Some(existing) = self.bindings.get(&ns.prefix) {
                if existing != &ns.iri {
                    return Err(ProvError::Conflict(format!(
                        "prefix {:?} bound to both {:?} and {:?}",
                        ns.prefix, existing, ns.iri
                    )));
                }
            } else {
                self.register(ns.prefix, ns.iri)?;
            }
        }
        if self.default_ns.is_none() {
            self.default_ns = other.default_ns.clone();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_parse_roundtrip() {
        let q = QName::parse("ex:model.ckpt").unwrap();
        assert_eq!(q.prefix(), "ex");
        assert_eq!(q.local(), "model.ckpt");
        assert_eq!(q.to_string(), "ex:model.ckpt");
    }

    #[test]
    fn qname_parse_splits_on_first_colon() {
        let q = QName::parse("ex:urn:thing:1").unwrap();
        assert_eq!(q.prefix(), "ex");
        assert_eq!(q.local(), "urn:thing:1");
    }

    #[test]
    fn qname_parse_rejects_bad_input() {
        assert!(QName::parse("nocolon").is_err());
        assert!(QName::parse(":local").is_err());
        assert!(QName::parse("prefix:").is_err());
        assert!(QName::parse("9bad:x").is_err());
        assert!(QName::parse("has space:x").is_err());
    }

    #[test]
    fn implicit_prefixes_resolve() {
        let reg = NamespaceRegistry::new();
        assert_eq!(reg.lookup("prov").unwrap(), PROV_NS);
        assert_eq!(reg.lookup("xsd").unwrap(), XSD_NS);
        assert!(reg.lookup("ex").is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn expand_uses_registry() {
        let mut reg = NamespaceRegistry::new();
        reg.register("ex", "http://example.org/").unwrap();
        let q = QName::new("ex", "thing");
        assert_eq!(q.expand(&reg).unwrap(), "http://example.org/thing");
        let unknown = QName::new("zz", "thing");
        assert!(unknown.expand(&reg).is_err());
    }

    #[test]
    fn reserved_prefixes_cannot_be_rebound() {
        let mut reg = NamespaceRegistry::new();
        assert!(reg.register("prov", "http://evil.example/").is_err());
        assert!(reg.register("xsd", "http://evil.example/").is_err());
        // Binding them to their canonical IRIs is fine.
        assert!(reg.register("prov", PROV_NS).is_ok());
        assert!(reg.register("xsd", XSD_NS).is_ok());
    }

    #[test]
    fn merge_detects_conflicts() {
        let mut a = NamespaceRegistry::new();
        a.register("ex", "http://a.example/").unwrap();
        let mut b = NamespaceRegistry::new();
        b.register("ex", "http://b.example/").unwrap();
        assert!(a.merge(&b).is_err());

        let mut c = NamespaceRegistry::new();
        c.register("other", "http://c.example/").unwrap();
        c.set_default("http://default.example/");
        a.merge(&c).unwrap();
        assert!(a.contains("other"));
        assert_eq!(a.default_ns(), Some("http://default.example/"));
    }

    #[test]
    fn qname_is_cheap_to_clone_and_hashable() {
        use std::collections::HashSet;
        let q = QName::new("ex", "a");
        let mut set = HashSet::new();
        set.insert(q.clone());
        assert!(set.contains(&QName::new("ex", "a")));
        assert!(!set.contains(&QName::new("ex", "b")));
    }
}
