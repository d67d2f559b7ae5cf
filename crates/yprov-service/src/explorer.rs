//! Explorer-style cross-document summaries.
//!
//! The yProv Explorer's landing view shows, for each stored provenance
//! file, what kind of process it describes and how big it is. This
//! module computes those summaries over a [`DocumentStore`].

use crate::client::encode_id;
use crate::store::DocumentStore;
use prov_model::{AttrValue, ElementKind, QName};

/// One row of the explorer's document listing.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentSummary {
    /// Store handle.
    pub id: String,
    /// Element counts.
    pub entities: usize,
    /// Activity count.
    pub activities: usize,
    /// Agent count.
    pub agents: usize,
    /// Relation count.
    pub relations: usize,
    /// The run activity's label, when the document came from yProv4ML.
    pub run_label: Option<String>,
    /// Number of metric entities.
    pub metrics: usize,
    /// Number of artifact entities.
    pub artifacts: usize,
    /// Nodes in the provenance graph (from the store's cached index).
    pub graph_nodes: usize,
    /// Edges in the provenance graph (from the store's cached index).
    pub graph_edges: usize,
    /// Serialized size of the document in bytes.
    pub json_bytes: usize,
}

/// Summarizes every document in the store, sorted by id.
pub fn summarize(store: &DocumentStore) -> Vec<DocumentSummary> {
    let run_ty = QName::yprov("RunExecution");
    let metric_ty = QName::yprov("Metric");
    let artifact_ty = QName::yprov("Artifact");

    store
        .list()
        .into_iter()
        .filter_map(|id| {
            // Document and index from one record: the counts below
            // describe the same version, and nothing is rebuilt.
            let shared = store.graph(&id).ok()?;
            let (doc, index) = (shared.document(), shared.index());
            let stats = doc.stats();
            let run_label = doc
                .iter_elements()
                .find(|e| e.has_type(&run_ty))
                .and_then(|e| e.label().map(str::to_string));
            let metrics = doc
                .iter_kind(ElementKind::Entity)
                .filter(|e| e.has_type(&metric_ty))
                .count();
            let artifacts = doc
                .iter_kind(ElementKind::Entity)
                .filter(|e| e.has_type(&artifact_ty))
                .count();
            let json_bytes = doc.to_json_string().map(|s| s.len()).unwrap_or(0);
            Some(DocumentSummary {
                id,
                entities: stats.entities,
                activities: stats.activities,
                agents: stats.agents,
                relations: stats.relations,
                run_label,
                metrics,
                artifacts,
                graph_nodes: index.node_count(),
                graph_edges: index.edge_count(),
                json_bytes,
            })
        })
        .collect()
}

/// Documents whose run produced an artifact carrying the given SHA-256
/// digest — "which runs produced this exact model?"
pub fn find_by_artifact_digest(store: &DocumentStore, sha256: &str) -> Vec<String> {
    let artifact_ty = QName::yprov("Artifact");
    let key = QName::yprov("sha256");
    store
        .list()
        .into_iter()
        .filter(|id| {
            store.get(id).is_ok_and(|doc| {
                doc.iter_elements().any(|e| {
                    e.has_type(&artifact_ty)
                        && e.attr(&key)
                            .is_some_and(|v| matches!(v, AttrValue::String(s) if s == sha256))
                })
            })
        })
        .collect()
}

/// A self-contained HTML page listing the stored documents, in the
/// spirit of the yProv Explorer's landing view. Served by the HTTP
/// layer at `GET /explorer`. Links carry the id percent-encoded (an id
/// may hold `?`, `#` or `%`); the cell shows it HTML-escaped.
pub fn render_html(summaries: &[DocumentSummary]) -> String {
    let mut rows = String::new();
    for s in summaries {
        rows.push_str(&format!(
            "<tr><td><a href=\"/api/v0/documents/{path}\">{id}</a></td><td>{run}</td>\
             <td>{entities}</td><td>{activities}</td><td>{agents}</td><td>{relations}</td>\
             <td>{metrics}</td><td>{artifacts}</td><td>{nodes}</td><td>{edges}</td>\
             <td>{bytes}</td>\
             <td><a href=\"/api/v0/documents/{path}/provn\">provn</a> \
                 <a href=\"/api/v0/documents/{path}/turtle\">ttl</a> \
                 <a href=\"/api/v0/documents/{path}/dot\">dot</a></td></tr>\n",
            path = encode_id(&s.id),
            id = html_escape(&s.id),
            run = html_escape(s.run_label.as_deref().unwrap_or("-")),
            entities = s.entities,
            activities = s.activities,
            agents = s.agents,
            relations = s.relations,
            metrics = s.metrics,
            artifacts = s.artifacts,
            nodes = s.graph_nodes,
            edges = s.graph_edges,
            bytes = s.json_bytes,
        ));
    }
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>yProv Explorer</title>\
         <style>body{{font-family:sans-serif;margin:2em}}table{{border-collapse:collapse}}\
         td,th{{border:1px solid #ccc;padding:4px 10px;text-align:left}}\
         th{{background:#f0f0f0}}</style></head><body>\
         <h1>yProv Explorer</h1><p>{n} provenance document(s)</p>\
         <table><tr><th>id</th><th>run</th><th>entities</th><th>activities</th>\
         <th>agents</th><th>relations</th><th>metrics</th><th>artifacts</th>\
         <th>nodes</th><th>edges</th><th>bytes</th><th>exports</th></tr>\n\
         {rows}</table>{panel}{ops}</body></html>",
        n = summaries.len(),
        panel = QUERY_PANEL,
        ops = OPS_PANEL,
    )
}

/// The lineage-query panel appended to the explorer page: a JSON IR
/// textarea posted to `/api/v0/documents/{id}/query`, with the response
/// pretty-printed and — when the body asks for `\"render\": \"dot\"` —
/// the matched subgraph's DOT shown alongside.
const QUERY_PANEL: &str = r#"
<h2>Lineage query</h2>
<p>POSTs the JSON body to <code>/api/v0/documents/{id}/query</code>.
Try <code>{"audit": "leakage"}</code>,
<code>{"audit": "gdpr", "sample": "ex:s", "model": "ex:m"}</code>, or a
path pattern under <code>"query"</code>; add <code>"render": "dot"</code>
for the matched subgraph.</p>
<form id="qform">
  <label>document <input id="qdoc" size="24" placeholder="an id from the table"></label><br>
  <textarea id="qbody" rows="6" cols="70">{"audit": "leakage", "render": "dot"}</textarea><br>
  <button type="submit">Run query</button>
</form>
<pre id="qout" style="background:#f8f8f8;padding:1em"></pre>
<pre id="qdot" style="background:#f0f4ff;padding:1em"></pre>
<script>
document.getElementById('qform').addEventListener('submit', async (ev) => {
  ev.preventDefault();
  const id = encodeURIComponent(document.getElementById('qdoc').value.trim());
  const out = document.getElementById('qout');
  const dot = document.getElementById('qdot');
  out.textContent = '...';
  dot.textContent = '';
  try {
    const resp = await fetch('/api/v0/documents/' + id + '/query', {
      method: 'POST',
      body: document.getElementById('qbody').value,
    });
    const text = await resp.text();
    try {
      const v = JSON.parse(text);
      if (v.dot) { dot.textContent = v.dot; delete v.dot; }
      out.textContent = 'HTTP ' + resp.status + '\n' + JSON.stringify(v, null, 2);
    } catch (_) {
      out.textContent = 'HTTP ' + resp.status + '\n' + text;
    }
  } catch (e) {
    out.textContent = String(e);
  }
});
</script>
"#;

/// The ops tab appended after the query panel: health badge, alert
/// list, the slow-request log, and a sparkline drawn from the
/// in-process tsdb (`/api/v0/obs/timeseries`). Everything is fetched
/// client-side from the `/api/v0/obs/*` endpoints, so the page stays a
/// static string on the server.
const OPS_PANEL: &str = r#"
<h2>Ops</h2>
<p><span id="ohealth">health: ?</span> &mdash;
<label>metric <input id="ometric" size="40"
  value="http_requests_total{method=&quot;GET&quot;,route=&quot;/explorer&quot;,status=&quot;200&quot;}"></label>
<button id="orefresh">Refresh</button></p>
<svg id="ospark" width="600" height="60" style="background:#f8f8f8"></svg>
<pre id="oalerts" style="background:#fff4f0;padding:1em"></pre>
<pre id="oslow" style="background:#f8f8f8;padding:1em"></pre>
<script>
function sparkline(svg, points) {
  while (svg.firstChild) svg.removeChild(svg.firstChild);
  if (!points.length) return;
  const w = svg.width.baseVal.value, h = svg.height.baseVal.value;
  const t0 = points[0].t_s, t1 = points[points.length - 1].t_s || t0 + 1;
  const max = Math.max(...points.map(p => p.max), 1e-9);
  const coords = points.map(p => {
    const x = t1 > t0 ? (p.t_s - t0) / (t1 - t0) * (w - 4) + 2 : w / 2;
    const y = h - 2 - (p.avg / max) * (h - 4);
    return x.toFixed(1) + ',' + y.toFixed(1);
  });
  const line = document.createElementNS('http://www.w3.org/2000/svg', 'polyline');
  line.setAttribute('points', coords.join(' '));
  line.setAttribute('fill', 'none');
  line.setAttribute('stroke', '#36c');
  line.setAttribute('stroke-width', '1.5');
  svg.appendChild(line);
}
async function opsRefresh() {
  const get = async (p) => (await fetch(p)).json();
  try {
    const health = await get('/api/v0/obs/health');
    document.getElementById('ohealth').textContent =
      'health: ' + (health.ready ? 'ready' : 'NOT READY') +
      ' (' + health.backend + ', ledger ' + health.ledger_entries + ')';
    const metric = document.getElementById('ometric').value.trim();
    const ts = await get('/api/v0/obs/timeseries?metric=' +
      encodeURIComponent(metric) + '&since=300');
    sparkline(document.getElementById('ospark'), ts.points || []);
    const alerts = await get('/api/v0/obs/alerts');
    document.getElementById('oalerts').textContent =
      'alerts\n' + (alerts.alerts || []).map(a =>
        a.rule + ' [' + a.phase + '] ' + a.metric + ' ' + a.cmp +
        ' ' + a.threshold + (a.last_value == null ? '' : ' (now ' + a.last_value + ')')
      ).join('\n');
    const slow = await get('/api/v0/obs/slowlog');
    const rows = [];
    for (const r of slow.routes || []) {
      for (const e of r.slowest || []) {
        rows.push((e.latency_ns / 1e6).toFixed(2).padStart(10) + 'ms  ' +
          String(e.status).padStart(3) + '  ' + e.method + ' ' + e.path +
          (e.shed ? '  shed=' + e.shed : '') +
          (e.trace_id ? '  trace=' + e.trace_id : ''));
      }
    }
    document.getElementById('oslow').textContent = 'slowlog\n' + rows.join('\n');
  } catch (e) {
    document.getElementById('ohealth').textContent = 'health: ' + String(e);
  }
}
document.getElementById('orefresh').addEventListener('click', opsRefresh);
opsRefresh();
</script>
"#;

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// A plain-text table of the summaries, explorer style.
pub fn render_table(summaries: &[DocumentSummary]) -> String {
    // The id column fits a content id (`doc-` + 32 hex digits).
    let mut out = String::from(
        "id                                   run                entities  activities  relations  metrics  artifacts  nodes  edges  bytes\n",
    );
    for s in summaries {
        out.push_str(&format!(
            "{:<36} {:<18} {:>8}  {:>10}  {:>9}  {:>7}  {:>9}  {:>5}  {:>5}  {:>5}\n",
            s.id,
            s.run_label.as_deref().unwrap_or("-"),
            s.entities,
            s.activities,
            s.relations,
            s.metrics,
            s.artifacts,
            s.graph_nodes,
            s.graph_edges,
            s.json_bytes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::ProvDocument;

    fn yprov_style_doc(run: &str, digest: &str) -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.activity(QName::new("ex", run))
            .prov_type(QName::yprov("RunExecution"))
            .label(run);
        doc.entity(QName::new("ex", format!("{run}/metric/loss")))
            .prov_type(QName::yprov("Metric"));
        doc.entity(QName::new("ex", format!("{run}/artifact/m.ckpt")))
            .prov_type(QName::yprov("Artifact"))
            .attr(QName::yprov("sha256"), AttrValue::from(digest));
        doc.was_generated_by(
            QName::new("ex", format!("{run}/artifact/m.ckpt")),
            QName::new("ex", run),
        );
        doc
    }

    #[test]
    fn summaries_capture_shape() {
        let store = DocumentStore::new();
        let first = store.upload(yprov_style_doc("run-1", "aa")).unwrap();
        store.upload(yprov_style_doc("run-2", "bb")).unwrap();
        let summaries = summarize(&store);
        assert_eq!(summaries.len(), 2);
        let s = summaries.iter().find(|s| s.id == first).unwrap();
        assert_eq!(s.run_label.as_deref(), Some("run-1"));
        assert_eq!(s.metrics, 1);
        assert_eq!(s.artifacts, 1);
        assert_eq!(s.activities, 1);
        assert_eq!(s.graph_nodes, 3);
        assert_eq!(s.graph_edges, 1);
        assert!(s.json_bytes > 0);
        // The summaries reused the indexes built at upload: no misses.
        assert_eq!(store.graph_cache_stats(), (2, 0));
    }

    #[test]
    fn digest_search_finds_producing_runs() {
        let store = DocumentStore::new();
        let a = store.upload(yprov_style_doc("run-1", "digest-a")).unwrap();
        store.upload(yprov_style_doc("run-2", "digest-b")).unwrap();
        let hits = find_by_artifact_digest(&store, "digest-a");
        assert_eq!(hits, vec![a]);
        assert!(find_by_artifact_digest(&store, "nope").is_empty());
    }

    #[test]
    fn table_renders_rows() {
        let store = DocumentStore::new();
        store.upload(yprov_style_doc("run-1", "aa")).unwrap();
        let table = render_table(&summarize(&store));
        assert!(table.contains("run-1"));
        assert!(table.lines().count() >= 2);
    }

    #[test]
    fn html_page_renders_and_escapes() {
        let store = DocumentStore::new();
        let mut doc = ProvDocument::new();
        doc.activity(QName::new("ex", "run"))
            .prov_type(QName::yprov("RunExecution"))
            .label("<script>alert(1)</script>");
        let id = store.upload(doc).unwrap();
        let html = render_html(&summarize(&store));
        assert!(html.contains("<table>"));
        assert!(html.contains(&id));
        assert!(!html.contains("<script>alert"), "labels must be escaped");
        assert!(html.contains("&lt;script&gt;"));
        assert!(html.contains(&format!("/api/v0/documents/{id}/provn")));
    }

    #[test]
    fn html_links_percent_encode_the_id() {
        let store = DocumentStore::new();
        store
            .upload_as("a?b#c", yprov_style_doc("run-1", "aa"))
            .unwrap();
        let html = render_html(&summarize(&store));
        for path in ["", "/provn", "/turtle", "/dot"] {
            let href = format!("href=\"/api/v0/documents/a%3Fb%23c{path}\"");
            assert!(html.contains(&href), "{href}");
        }
        assert!(!html.contains("/api/v0/documents/a?b"));
        assert!(html.contains(">a?b#c</a>"), "the cell shows the id");
    }

    #[test]
    fn html_page_embeds_query_panel() {
        let store = DocumentStore::new();
        store.upload(yprov_style_doc("run-1", "aa")).unwrap();
        let html = render_html(&summarize(&store));
        assert!(html.contains("Lineage query"));
        assert!(html.contains("id=\"qform\""));
        assert!(html.contains("id=\"qbody\""));
        assert!(html.contains("/query"), "panel posts to the query endpoint");
        assert!(
            html.contains("\"audit\": \"leakage\""),
            "default body is the leakage audit"
        );
    }

    #[test]
    fn html_page_embeds_ops_tab() {
        let store = DocumentStore::new();
        store.upload(yprov_style_doc("run-1", "aa")).unwrap();
        let html = render_html(&summarize(&store));
        assert!(html.contains("<h2>Ops</h2>"));
        assert!(html.contains("id=\"ospark\""), "sparkline svg present");
        assert!(html.contains("/api/v0/obs/timeseries"));
        assert!(html.contains("/api/v0/obs/health"));
        assert!(html.contains("/api/v0/obs/slowlog"));
        assert!(html.contains("/api/v0/obs/alerts"));
    }

    #[test]
    fn plain_documents_summarize_without_run_label() {
        let store = DocumentStore::new();
        let mut doc = ProvDocument::new();
        doc.entity(QName::new("ex", "thing"));
        store.upload(doc).unwrap();
        let summaries = summarize(&store);
        assert_eq!(summaries[0].run_label, None);
        assert_eq!(summaries[0].entities, 1);
    }
}
