//! The server's ops plane: the glue between the `obs` building blocks
//! (tsdb history, alert rules, slow-request log) and the service.
//!
//! A server owns one [`Ops`] handle. A scraper thread (spawned by
//! `Server::bind` unless [`OpsConfig::self_scrape`] is off) snapshots
//! the server's and the store's registries once a second, feeds
//! the merged snapshot to the tsdb, and evaluates the alert rules
//! against the freshly recorded series. The HTTP surface
//! (`/api/v0/obs/*`) renders what this module exposes:
//!
//! * `health` — liveness plus readiness checks (backend writable,
//!   ledger verified, replication sources, server watermarks);
//! * `timeseries` — windowed tsdb queries;
//! * `slowlog` — the per-route slowest/erroring requests;
//! * `alerts` — every rule's lifecycle state;
//! * `cluster` — the federated view: each member's `/metrics` and
//!   health, fetched over the replicator's pooled keep-alive clients
//!   and merged into one per-member-labelled snapshot.
//!
//! Everything here is read-mostly and clock-agnostic: ticks take `f64`
//! seconds, so integration tests drive the whole plane — scrape,
//! downsampling, alert transitions — from a virtual clock.

use crate::cluster::Replicator;
use crate::slowlog::SlowLog;
use crate::store::DocumentStore;
use json::json;
use obs::alerts::{AlertRule, AlertSet};
use obs::tsdb::{Tsdb, TsdbConfig};
use obs::{Registry, Snapshot};
use std::sync::Arc;
use std::time::Duration;

/// Self-scrape cadence. The tsdb keeps its default tiers
/// ([`TsdbConfig::default`]).
pub(crate) const SCRAPE_INTERVAL: Duration = Duration::from_secs(1);
/// Slowlog entries kept per route (slowest + erroring each).
const SLOWLOG_PER_ROUTE: usize = 8;
/// How stale a series may be and still satisfy an alert lookup: two
/// scrape intervals, so one missed tick does not flap rules.
const ALERT_STALENESS_S: f64 = 2.0 * SCRAPE_INTERVAL.as_secs_f64();

/// Ops-plane tunables, carried inside `ServerConfig`.
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Declarative alert rules evaluated on every scrape tick.
    pub alert_rules: Vec<AlertRule>,
    /// Spawn the scraper thread. Turn off to drive ticks manually
    /// (tests) or to run without history.
    pub self_scrape: bool,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            alert_rules: Vec::new(),
            self_scrape: true,
        }
    }
}

/// The assembled ops plane for one server.
pub struct Ops {
    tsdb: Tsdb,
    alerts: Arc<AlertSet>,
    slowlog: SlowLog,
}

impl Ops {
    /// Builds the plane, exporting `alerts_firing{rule}` gauges into
    /// `registry` and installing the alert set as the process-global
    /// one (so run finalization can fold alert state into PROV).
    pub fn new(cfg: &OpsConfig, registry: &Registry) -> Arc<Ops> {
        let alerts = Arc::new(AlertSet::new(cfg.alert_rules.clone()));
        alerts.export_to(registry);
        obs::alerts::set_global(Arc::clone(&alerts));
        Arc::new(Ops {
            tsdb: Tsdb::new(TsdbConfig::default()),
            alerts,
            slowlog: SlowLog::new(SLOWLOG_PER_ROUTE),
        })
    }

    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    pub fn alerts(&self) -> &AlertSet {
        &self.alerts
    }

    pub fn slowlog(&self) -> &SlowLog {
        &self.slowlog
    }

    /// One scrape tick at `now_s`: merges the registries' snapshots
    /// (instrument names are disjoint across the server's and the
    /// store's registries), records them into the tsdb, then evaluates
    /// the alert rules against the fresh series.
    pub fn tick(&self, now_s: f64, registries: &[&Registry]) {
        let mut merged = Snapshot::default();
        for reg in registries {
            let snap = reg.snapshot();
            merged.counters.extend(snap.counters);
            merged.gauges.extend(snap.gauges);
            merged.histograms.extend(snap.histograms);
        }
        self.tsdb.tick(now_s, &merged);
        self.alerts.evaluate(now_s, |metric| {
            self.tsdb.latest(metric, now_s, ALERT_STALENESS_S)
        });
    }

    /// The `/api/v0/obs/alerts` body.
    pub fn alerts_json(&self) -> String {
        let states: Vec<json::Value> = self
            .alerts
            .states()
            .into_iter()
            .map(|s| {
                json!({
                    "rule": s.rule.name,
                    "metric": s.rule.metric,
                    "cmp": s.rule.cmp.symbol(),
                    "threshold": s.rule.threshold,
                    "for_s": s.rule.for_s,
                    "phase": s.phase.as_str(),
                    "pending_since_s": s.pending_since_s,
                    "fired_at_s": s.fired_at_s,
                    "resolved_at_s": s.resolved_at_s,
                    "last_value": s.last_value,
                })
            })
            .collect();
        json!({"alerts": states}).to_string()
    }

    /// The `/api/v0/obs/slowlog` body.
    pub fn slowlog_json(&self) -> String {
        let entry_json = |e: &crate::slowlog::SlowEntry| {
            json!({
                "method": &e.method,
                "path": &e.path,
                "status": e.status,
                "latency_ns": e.latency_ns,
                "shed": e.shed,
                "trace_id": e.trace_id.as_ref(),
                "seq": e.seq,
            })
        };
        let routes: Vec<json::Value> = self
            .slowlog
            .snapshot()
            .into_iter()
            .map(|(route, slowest, errors)| {
                json!({
                    "route": route,
                    "slowest": slowest.iter().map(entry_json).collect::<Vec<_>>(),
                    "errors": errors.iter().map(entry_json).collect::<Vec<_>>(),
                })
            })
            .collect();
        json!({"routes": routes}).to_string()
    }

    /// The `/api/v0/obs/timeseries` body for one query.
    pub fn timeseries_json(&self, metric: &str, since_s: f64, step_s: f64, now_s: f64) -> String {
        let series = self.tsdb.query(metric, since_s, step_s, now_s);
        let points: Vec<json::Value> = series
            .points
            .iter()
            .map(|p| {
                json!({
                    "t_s": p.t_s,
                    "avg": p.avg,
                    "min": p.min,
                    "max": p.max,
                    "count": p.count,
                })
            })
            .collect();
        json!({
            "metric": series.metric,
            "step_s": series.step_s,
            "points": points,
        })
        .to_string()
    }
}

/// Builds the `/api/v0/obs/health` body. Returns `(ready, body)`; the
/// route serves 200 when ready, 503 otherwise (so a load balancer can
/// take the node out on the status code alone).
pub fn health_json(store: &DocumentStore, registry: &Registry) -> (bool, String) {
    let backend = store.flush();
    let ledger = store.verify_all();
    let ready = backend.is_ok() && ledger.is_ok();
    let check = |r: &Result<(), crate::error::ServiceError>| match r {
        Ok(()) => json!({"ok": true}),
        Err(e) => json!({"ok": false, "error": e.to_string()}),
    };
    let sources: Vec<json::Value> = store
        .replication_sources()
        .into_iter()
        .map(|(source, entries)| json!({"source": source, "entries": entries}))
        .collect();
    // The server core publishes its watermarks as gauges; a health probe
    // reads them from the registry rather than reaching into the core.
    let snap = registry.snapshot();
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let body = json!({
        "live": true,
        "ready": ready,
        "checks": {
            "backend_writable": check(&backend),
            "ledger_verified": check(&ledger),
        },
        "backend": store.backend_name(),
        "ledger_entries": store.ledger_entries().len(),
        "replication_sources": sources,
        "reactor": {
            "connections_open": gauge("server_connections_open"),
            "queued_jobs": gauge("reactor_queued_jobs"),
            "queued_bytes": gauge("reactor_queued_bytes"),
        },
    })
    .to_string();
    (ready, body)
}

/// Injects `member="<id>"` as the first label of every sample line of a
/// Prometheus exposition, dropping comment lines (a federated snapshot
/// concatenates many members; repeating `# TYPE` per member would make
/// the merge invalid).
pub(crate) fn label_member(exposition: &str, member: &str) -> String {
    let mut out = String::with_capacity(exposition.len() + exposition.len() / 4);
    for line in exposition.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`.
        let (series, rest) = match line.split_once(' ') {
            Some(parts) => parts,
            None => continue,
        };
        match series.split_once('{') {
            Some((name, labels)) => {
                out.push_str(name);
                out.push_str("{member=\"");
                out.push_str(member);
                out.push_str("\",");
                out.push_str(labels);
            }
            None => {
                out.push_str(series);
                out.push_str("{member=\"");
                out.push_str(member);
                out.push_str("\"}");
            }
        }
        out.push(' ');
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// Builds the `/api/v0/obs/cluster` body: this node's own metrics and
/// health plus every peer's, fetched over the replicator's pooled
/// keep-alive clients. A dead peer degrades its member entry
/// (`ok: false` + error detail) — the endpoint itself stays 200, so a
/// dashboard keeps rendering the surviving members.
pub fn cluster_json(
    store: &DocumentStore,
    registry: &Registry,
    replicator: Option<&Replicator>,
    self_exposition: &str,
) -> String {
    let mut members = Vec::new();
    let mut merged = String::new();
    let mut degraded = false;

    let self_id = replicator.map_or("self", |r| r.node_id()).to_string();
    let (_, own_health) = health_json(store, registry);
    merged.push_str(&label_member(self_exposition, &self_id));
    members.push(json!({
        "id": &self_id,
        "ok": true,
        "health": json::parse(&own_health)
            .unwrap_or(json::Value::Null),
    }));

    if let Some(replicator) = replicator {
        for (peer, client) in replicator.peers() {
            let metrics = client.get("/metrics");
            let health = client.get("/api/v0/obs/health");
            match (metrics, health) {
                (Ok(m), Ok(h)) if m.status == 200 => {
                    merged.push_str(&label_member(&m.body, &peer.id));
                    members.push(json!({
                        "id": &peer.id,
                        "ok": h.status == 200,
                        "health": json::parse(&h.body)
                            .unwrap_or(json::Value::Null),
                    }));
                    if h.status != 200 {
                        degraded = true;
                    }
                }
                (m, h) => {
                    degraded = true;
                    let error = match (&m, &h) {
                        (Err(e), _) => e.to_string(),
                        (_, Err(e)) => e.to_string(),
                        (Ok(m), _) => format!("metrics returned {}", m.status),
                    };
                    members.push(json!({
                        "id": &peer.id,
                        "ok": false,
                        "error": error,
                    }));
                }
            }
        }
    }

    json!({
        "self": members[0]["id"].clone(),
        "ok": !degraded,
        "members": members,
        "metrics": merged,
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_merges_registries_and_drives_alerts() {
        let server_reg = Registry::new();
        let store_reg = Registry::new();
        let cfg = OpsConfig {
            alert_rules: vec![AlertRule::new(
                "busy",
                "requests_total",
                obs::alerts::Cmp::Gt,
                5.0,
                0.0,
            )],
            self_scrape: false,
        };
        let ops = Ops::new(&cfg, &server_reg);
        let c = server_reg.counter("requests_total");
        let g = store_reg.gauge("store_cache_entries");
        g.set(3);
        ops.tick(0.0, &[&server_reg, &store_reg]);
        c.add(100);
        ops.tick(1.0, &[&server_reg, &store_reg]);
        // Both registries' series landed...
        assert!(ops.tsdb().latest("requests_total", 1.0, 2.0).is_some());
        assert_eq!(
            ops.tsdb().latest("store_cache_entries", 1.0, 2.0),
            Some(3.0)
        );
        // ...and the rule fired off the merged view (rate 100/s > 5).
        assert_eq!(
            ops.alerts().states()[0].phase,
            obs::alerts::Phase::Firing,
            "{}",
            ops.alerts_json()
        );
        assert_eq!(
            server_reg.gauge("alerts_firing{rule=\"busy\"}").get(),
            1,
            "firing gauge exported to the server registry"
        );
    }

    #[test]
    fn label_member_rewrites_samples_and_drops_comments() {
        let exposition = "# HELP x y\n# TYPE x counter\nx 3\nhttp_requests_total{route=\"/a\",status=\"200\"} 7\n";
        let out = label_member(exposition, "node-b");
        assert_eq!(
            out,
            "x{member=\"node-b\"} 3\nhttp_requests_total{member=\"node-b\",route=\"/a\",status=\"200\"} 7\n"
        );
    }

    #[test]
    fn health_reports_ready_on_a_fresh_store() {
        let store = DocumentStore::new();
        let registry = Registry::new();
        let (ready, body) = health_json(&store, &registry);
        assert!(ready, "{body}");
        let v: json::Value = json::parse(&body).unwrap();
        assert_eq!(v["live"], json!(true));
        assert_eq!(v["ready"], json!(true));
        assert_eq!(v["checks"]["backend_writable"]["ok"], json!(true));
        assert_eq!(v["checks"]["ledger_verified"]["ok"], json!(true));
    }

    #[test]
    fn single_node_cluster_json_reports_self_only() {
        let store = DocumentStore::new();
        let registry = Registry::new();
        registry.counter("up_total").inc();
        let body = cluster_json(&store, &registry, None, &registry.render_prometheus());
        let v: json::Value = json::parse(&body).unwrap();
        assert_eq!(v["self"], json!("self"));
        assert_eq!(v["ok"], json!(true));
        assert_eq!(v["members"].as_array().unwrap().len(), 1);
        assert!(v["metrics"]
            .as_str()
            .unwrap()
            .contains("up_total{member=\"self\"} 1"));
    }
}
