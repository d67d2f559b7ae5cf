//! PROV-N parser: the oracle the PROV-N writer's tests read its output
//! back with. It is test code, not library: `proptest_roundtrip.rs`
//! includes it, and so does the crate's own test build (`src/lib.rs`),
//! where the unit tests below run.
//!
//! Parses the subset of PROV-N that `prov_model::provn::to_provn` emits,
//! plus tolerant whitespace/comments.
//!
//! Grammar handled:
//!
//! ```text
//! document := 'document' decl* statement* 'endDocument'
//! decl     := 'default' '<' IRI '>' | 'prefix' PREFIX '<' IRI '>'
//! statement:= element | relation | bundle
//! element  := KIND '(' id (',' time | ',' '-')* (',' attrs)? ')'
//! relation := KIND '(' (id ';')? arg ',' arg (',' (arg | '-'))* (',' attrs)? ')'
//!             -- optional args are positional: the kind's extras, then time
//! attrs    := '[' (key '=' value (',' key '=' value)*)? ']'
//! value    := STRING ('%%' QNAME | '@' LANG)? | 'QNAME' | NUMBER
//! bundle   := 'bundle' id statement* 'endBundle'
//! ```

use prov_model::value::parse_double;
use prov_model::{
    AttrValue, ElementKind, ProvDocument, ProvError, QName, Relation, RelationKind, XsdDateTime,
};

/// Parses a PROV-N document.
pub fn from_provn(input: &str) -> Result<ProvDocument, ProvError> {
    let mut parser = Parser::new(input);
    parser.document()
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ProvError {
        let line = self.src[..self.pos.min(self.src.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        ProvError::Structure(format!("PROV-N line {line}: {}", msg.into()))
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // Line comments: // ...
            if self.pos + 1 < self.src.len()
                && self.src[self.pos] == b'/'
                && self.src[self.pos + 1] == b'/'
            {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ProvError> {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {:?}",
                b as char,
                self.src.get(self.pos).map(|&c| c as char)
            )))
        }
    }

    fn try_eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// A bare token: identifier / qname / datetime / number characters.
    fn token(&mut self) -> Result<String, ProvError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_alphanumeric()
                || matches!(b, b':' | b'_' | b'-' | b'.' | b'/' | b'+' | b'Z' | b'T')
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a token"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        let end = self.pos + word.len();
        if end <= self.src.len() && &self.src[self.pos..end] == word.as_bytes() {
            // Must not be a prefix of a longer identifier.
            let next = self.src.get(end).copied();
            if next.is_none_or(|b| !b.is_ascii_alphanumeric() && b != b'_') {
                self.pos = end;
                return true;
            }
        }
        false
    }

    fn iri(&mut self) -> Result<String, ProvError> {
        self.eat(b'<')?;
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'>' {
            self.pos += 1;
        }
        let iri = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.eat(b'>')?;
        Ok(iri)
    }

    fn string_literal(&mut self) -> Result<String, ProvError> {
        self.eat(b'"')?;
        let mut out = String::new();
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.src.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(&other) => out.push(other as char),
                        None => return Err(self.err("unterminated escape")),
                    }
                    self.pos += 1;
                }
                other => {
                    out.push(other as char);
                    self.pos += 1;
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    fn qname(&mut self) -> Result<QName, ProvError> {
        let tok = self.token()?;
        QName::parse(&tok)
    }

    /// Parses one attribute value.
    fn attr_value(&mut self) -> Result<AttrValue, ProvError> {
        match self.peek() {
            Some(b'"') => {
                let s = self.string_literal()?;
                self.skip_ws();
                // Typed literal: "lex" %% xsd:type
                if self.pos + 1 < self.src.len()
                    && self.src[self.pos] == b'%'
                    && self.src[self.pos + 1] == b'%'
                {
                    self.pos += 2;
                    let ty = self.qname()?;
                    return AttrValue::from_lexical(&s, &ty);
                }
                // Language-tagged: "lex"@lang
                if self.try_eat(b'@') {
                    let lang = self.token()?;
                    return Ok(AttrValue::LangString(s, lang));
                }
                Ok(AttrValue::String(s))
            }
            Some(b'\'') => {
                // 'qualified:name'
                self.eat(b'\'')?;
                let q = self.qname()?;
                self.eat(b'\'')?;
                Ok(AttrValue::QualifiedName(q))
            }
            _ => {
                // Bare token: number or qname.
                let tok = self.token()?;
                if let Ok(i) = tok.parse::<i64>() {
                    Ok(AttrValue::Int(i))
                } else if let Some(d) = parse_double(&tok) {
                    Ok(AttrValue::Double(d))
                } else {
                    QName::parse(&tok).map(AttrValue::QualifiedName)
                }
            }
        }
    }

    /// Parses `[k=v, ...]`.
    fn attributes(&mut self) -> Result<Vec<(QName, AttrValue)>, ProvError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.try_eat(b']') {
            return Ok(out);
        }
        loop {
            let key = self.qname()?;
            self.eat(b'=')?;
            let value = self.attr_value()?;
            out.push((key, value));
            if self.try_eat(b']') {
                return Ok(out);
            }
            self.eat(b',')?;
        }
    }

    fn document(&mut self) -> Result<ProvDocument, ProvError> {
        if !self.keyword("document") {
            return Err(self.err("expected 'document'"));
        }
        let doc = self.body(true)?;
        Ok(doc)
    }

    /// Parses declarations + statements until `endDocument`/`endBundle`.
    fn body(&mut self, top_level: bool) -> Result<ProvDocument, ProvError> {
        let mut doc = ProvDocument::new();
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                return Err(self.err("unexpected end of input"));
            }
            if top_level && self.keyword("endDocument") {
                return Ok(doc);
            }
            if !top_level && self.keyword("endBundle") {
                return Ok(doc);
            }
            if self.keyword("default") {
                let iri = self.iri()?;
                doc.namespaces_mut().set_default(iri);
                continue;
            }
            if self.keyword("prefix") {
                let prefix = self.token()?;
                let iri = self.iri()?;
                doc.namespaces_mut().register(prefix, iri)?;
                continue;
            }
            if self.keyword("bundle") {
                let name = self.qname()?;
                let inner = self.body(false)?;
                *doc.bundle(name) = inner;
                continue;
            }
            self.statement(&mut doc)?;
        }
    }

    fn statement(&mut self, doc: &mut ProvDocument) -> Result<(), ProvError> {
        let kind_tok = self.token()?;
        self.eat(b'(')?;

        match kind_tok.as_str() {
            "entity" | "agent" => {
                let kind = if kind_tok == "entity" {
                    ElementKind::Entity
                } else {
                    ElementKind::Agent
                };
                let id = self.qname()?;
                let mut builder_attrs = Vec::new();
                if self.try_eat(b',') {
                    builder_attrs = self.attributes()?;
                }
                self.eat(b')')?;
                let el = doc.element(kind, id).finish();
                for (k, v) in builder_attrs {
                    el.add_attr(k, v);
                }
            }
            "activity" => {
                let id = self.qname()?;
                let mut start = None;
                let mut end = None;
                let mut attrs = Vec::new();
                // Optional: , start, end and/or , [attrs]
                let mut time_slot = 0;
                while self.try_eat(b',') {
                    if self.peek() == Some(b'[') {
                        attrs = self.attributes()?;
                        break;
                    }
                    if self.try_eat(b'-') {
                        time_slot += 1;
                        continue;
                    }
                    let tok = self.token()?;
                    let t = XsdDateTime::parse(&tok)?;
                    if time_slot == 0 {
                        start = Some(t);
                    } else {
                        end = Some(t);
                    }
                    time_slot += 1;
                }
                self.eat(b')')?;
                let el = doc.element(ElementKind::Activity, id).finish();
                if let Some(t) = start {
                    el.set_attr(QName::prov("startTime"), AttrValue::DateTime(t));
                }
                if let Some(t) = end {
                    el.set_attr(QName::prov("endTime"), AttrValue::DateTime(t));
                }
                for (k, v) in attrs {
                    el.add_attr(k, v);
                }
            }
            other => {
                let kind = RelationKind::from_json_key(other)
                    .ok_or_else(|| self.err(format!("unknown statement {other:?}")))?;
                self.relation(doc, kind)?;
            }
        }
        Ok(())
    }

    fn relation(&mut self, doc: &mut ProvDocument, kind: RelationKind) -> Result<(), ProvError> {
        // Optional "id;" marker.
        let first = self.qname()?;
        let (id, subject) = if self.try_eat(b';') {
            (Some(first), self.qname()?)
        } else {
            (None, first)
        };
        self.eat(b',')?;
        let object = self.qname()?;

        let mut rel = Relation::new(kind, subject, object);
        rel.id = id;

        // Remaining positional args: the kind's extras in order, then
        // the time where the kind takes one, then [attrs]. A `-` holds
        // its slot empty.
        let extra_keys = kind.extra_keys();
        let mut slot = 0usize;
        while self.try_eat(b',') {
            if self.peek() == Some(b'[') {
                for (k, v) in self.attributes()? {
                    rel.add_attr(k, v);
                }
                break;
            }
            if self.try_eat(b'-') {
                slot += 1;
                continue;
            }
            let tok = self.token()?;
            if let Some(key) = extra_keys.get(slot) {
                rel.extras.insert(key.to_string(), QName::parse(&tok)?);
            } else if slot == extra_keys.len() && kind.supports_time() {
                rel.time = Some(XsdDateTime::parse(&tok)?);
            } else {
                return Err(self.err(format!("unexpected argument {tok:?}")));
            }
            slot += 1;
        }
        self.eat(b')')?;
        doc.add_relation(rel);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::provn::to_provn;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    #[test]
    fn parses_minimal_document() {
        let doc = from_provn("document\nendDocument\n").unwrap();
        assert!(doc.is_empty());
    }

    #[test]
    fn parses_elements_and_relations() {
        let src = r#"document
  prefix ex <http://ex/>
  entity(ex:data, [prov:label="input data"])
  activity(ex:train, 1970-01-01T00:00:00Z, 1970-01-01T00:01:00Z)
  agent(ex:alice)
  used(ex:train, ex:data)
  wasAssociatedWith(ex:train, ex:alice)
endDocument
"#;
        let doc = from_provn(src).unwrap();
        assert_eq!(doc.element_count(), 3);
        assert_eq!(doc.relation_count(), 2);
        assert_eq!(doc.get(&q("data")).unwrap().label(), Some("input data"));
        let act = doc.get(&q("train")).unwrap();
        assert_eq!(act.start_time().unwrap().epoch_secs, 0);
        assert_eq!(act.end_time().unwrap().epoch_secs, 60);
    }

    #[test]
    fn parses_relation_with_id_and_time() {
        let src = "document\nused(ex:u1; ex:a, ex:e, 1970-01-01T00:00:42Z)\nendDocument";
        let doc = from_provn(src).unwrap();
        let rel = &doc.relations()[0];
        assert_eq!(rel.id, Some(q("u1")));
        assert_eq!(rel.time.unwrap().epoch_secs, 42);
    }

    #[test]
    fn parses_typed_and_qname_values() {
        let src = r#"document
  entity(ex:e, [yprov4ml:loss="0.5" %% xsd:double, prov:type='ex:Model', ex:n=42])
endDocument"#;
        let doc = from_provn(src).unwrap();
        let e = doc.get(&q("e")).unwrap();
        assert_eq!(e.attr(&QName::yprov("loss")), Some(&AttrValue::Double(0.5)));
        assert!(e.has_type(&q("Model")));
        assert_eq!(e.attr(&q("n")), Some(&AttrValue::Int(42)));
    }

    #[test]
    fn parses_bundles() {
        let src = "document\nbundle ex:b\nentity(ex:inner)\nendBundle\nendDocument";
        let doc = from_provn(src).unwrap();
        assert!(doc.get_bundle(&q("b")).unwrap().get(&q("inner")).is_some());
    }

    #[test]
    fn roundtrip_writer_to_parser() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut().set_default("http://default/");
        doc.entity(q("data"))
            .label("in \"quotes\"")
            .attr(q("rows"), AttrValue::Int(800_000))
            .attr(q("ratio"), AttrValue::Double(0.25))
            .prov_type(q("Dataset"));
        doc.activity(q("train"))
            .start_time(XsdDateTime::new(100, 0))
            .end_time(XsdDateTime::new(5_000, 250));
        doc.agent(q("alice"));
        doc.entity(q("model"));
        doc.used(q("train"), q("data"))
            .add_attr(QName::prov("role"), AttrValue::from("training-input"));
        doc.was_generated_by(q("model"), q("train"));
        doc.was_associated_with(q("train"), q("alice"));
        doc.acted_on_behalf_of(q("alice"), q("alice"));
        doc.was_started_by(q("train"), q("data"), Some(XsdDateTime::new(100, 0)));
        doc.bundle(q("meta")).entity(q("note"));

        let text = to_provn(&doc);
        let mut parsed = from_provn(&text).unwrap();
        let mut original = doc.clone();
        original.canonicalize();
        parsed.canonicalize();
        assert_eq!(original, parsed, "PROV-N roundtrip\n{text}");
    }

    #[test]
    fn roundtrip_association_with_plan() {
        let mut doc = ProvDocument::new();
        let rel = Relation::new(RelationKind::WasAssociatedWith, q("run"), q("user"))
            .with_extra("prov:plan", q("script"));
        doc.add_relation(rel);
        let text = to_provn(&doc);
        let parsed = from_provn(&text).unwrap();
        assert_eq!(parsed.relations()[0].extras["prov:plan"], q("script"));
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let src = "document\n  // a comment\n  entity(ex:e)   // trailing\nendDocument";
        let doc = from_provn(src).unwrap();
        assert_eq!(doc.element_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "document\nentity(ex:e)\nbogus(ex:x, ex:y)\nendDocument";
        let err = from_provn(src).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "entity(ex:e)",
            "document entity(ex:e)", // missing endDocument
            "document\nentity(noColon)\nendDocument",
            "document\nused(ex:a)\nendDocument", // missing object
            "document\nentity(ex:e, [k=])\nendDocument",
        ] {
            assert!(from_provn(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn yprov4ml_output_parses() {
        // The exact shape the provenance library emits.
        let mut doc = ProvDocument::new();
        doc.namespaces_mut()
            .register("yprov4ml", prov_model::qname::YPROV_NS)
            .unwrap();
        doc.namespaces_mut()
            .register("exp", "https://yprov.example.org/experiments/t#")
            .unwrap();
        doc.activity(QName::new("exp", "run-1"))
            .prov_type(QName::yprov("RunExecution"))
            .attr(QName::new("exp", "param/lr"), AttrValue::Double(1e-3));
        doc.agent(QName::yprov("yprov4ml-library"))
            .prov_type(QName::prov("SoftwareAgent"));
        doc.was_associated_with(QName::new("exp", "run-1"), QName::yprov("yprov4ml-library"));
        let text = to_provn(&doc);
        let parsed = from_provn(&text).unwrap();
        assert_eq!(parsed.element_count(), 2);
        assert_eq!(parsed.relation_count(), 1);
    }
}
