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
use crate::error::ServiceError;
use crate::slowlog::{SlowEntry, SlowLog};
use crate::store::DocumentStore;
use json::JsonWriter;
use obs::alerts::{AlertRule, AlertSet, AlertState};
use obs::tsdb::{Series, Tsdb, TsdbConfig};
use obs::{Registry, Snapshot};
use std::collections::BTreeMap;
use std::io::Sink;
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
    alerts: AlertSet,
    slowlog: SlowLog,
}

impl Ops {
    /// Builds the plane, exporting `alerts_firing{rule}` gauges into
    /// `registry`.
    pub fn new(cfg: &OpsConfig, registry: &Registry) -> Arc<Ops> {
        let alerts = AlertSet::new(cfg.alert_rules.clone());
        alerts.export_to(registry);
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
        alerts_body(&self.alerts.states())
    }

    /// The `/api/v0/obs/slowlog` body.
    pub fn slowlog_json(&self) -> String {
        slowlog_body(&self.slowlog.snapshot())
    }

    /// The `/api/v0/obs/timeseries` body for one query.
    pub fn timeseries_json(&self, metric: &str, since_s: f64, step_s: f64, now_s: f64) -> String {
        timeseries_body(&self.tsdb.query(metric, since_s, step_s, now_s))
    }
}

fn alerts_body(states: &[AlertState]) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("alerts");
            w.array(|w| {
                for s in states {
                    w.object(|w| {
                        w.key("cmp");
                        w.str(s.rule.cmp.symbol());
                        w.key("fired_at_s");
                        f64_or_null(w, s.fired_at_s);
                        w.key("for_s");
                        w.f64(s.rule.for_s);
                        w.key("last_value");
                        f64_or_null(w, s.last_value);
                        w.key("metric");
                        w.str(&s.rule.metric);
                        w.key("pending_since_s");
                        f64_or_null(w, s.pending_since_s);
                        w.key("phase");
                        w.str(s.phase.as_str());
                        w.key("resolved_at_s");
                        f64_or_null(w, s.resolved_at_s);
                        w.key("rule");
                        w.str(&s.rule.name);
                        w.key("threshold");
                        w.f64(s.rule.threshold);
                    })
                }
            })
        })
    })
}

fn f64_or_null(w: &mut JsonWriter<Sink>, v: Option<f64>) {
    match v {
        Some(v) => w.f64(v),
        None => w.null(),
    }
}

fn str_or_null(w: &mut JsonWriter<Sink>, s: Option<&str>) {
    match s {
        Some(s) => w.str(s),
        None => w.null(),
    }
}

fn slowlog_body(routes: &[(&str, Vec<SlowEntry>, Vec<SlowEntry>)]) -> String {
    let entries = |w: &mut JsonWriter<Sink>, entries: &[SlowEntry]| {
        w.array(|w| {
            for e in entries {
                w.object(|w| {
                    w.key("latency_ns");
                    w.u64(e.latency_ns);
                    w.key("method");
                    w.str(&e.method);
                    w.key("path");
                    w.str(&e.path);
                    w.key("seq");
                    w.u64(e.seq);
                    w.key("shed");
                    str_or_null(w, e.shed);
                    w.key("status");
                    w.u64(e.status.into());
                    w.key("trace_id");
                    str_or_null(w, e.trace_id.as_deref());
                })
            }
        })
    };
    json::to_string(|w| {
        w.object(|w| {
            w.key("routes");
            w.array(|w| {
                for (route, slowest, errors) in routes {
                    w.object(|w| {
                        w.key("errors");
                        entries(w, errors);
                        w.key("route");
                        w.str(route);
                        w.key("slowest");
                        entries(w, slowest);
                    })
                }
            })
        })
    })
}

fn timeseries_body(series: &Series) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("metric");
            w.str(&series.metric);
            w.key("points");
            w.array(|w| {
                for p in &series.points {
                    w.object(|w| {
                        w.key("avg");
                        w.f64(p.avg);
                        w.key("count");
                        w.u64(p.count.into());
                        w.key("max");
                        w.f64(p.max);
                        w.key("min");
                        w.f64(p.min);
                        w.key("t_s");
                        w.f64(p.t_s);
                    })
                }
            });
            w.key("step_s");
            w.f64(series.step_s);
        })
    })
}

/// Builds the `/api/v0/obs/health` body. Returns `(ready, body)`; the
/// route serves 200 when ready, 503 otherwise (so a load balancer can
/// take the node out on the status code alone).
pub fn health_json(store: &DocumentStore, registry: &Registry) -> (bool, String) {
    let backend = store.flush();
    let ledger = store.verify_all();
    let ready = backend.is_ok() && ledger.is_ok();
    // The server core publishes its watermarks as gauges; a health probe
    // reads them from the registry rather than reaching into the core.
    let body = health_body(
        &backend,
        &ledger,
        store.backend_name(),
        store.ledger_entries().len(),
        &store.replication_sources(),
        &registry.snapshot().gauges,
    );
    (ready, body)
}

/// A health body from its parts: the backend and ledger checks, the
/// backend's name, the ledger's length, the replication sources and the
/// registry's gauges.
fn health_body(
    backend: &Result<(), ServiceError>,
    ledger: &Result<(), ServiceError>,
    backend_name: &str,
    ledger_entries: usize,
    sources: &[(String, u64)],
    gauges: &BTreeMap<String, i64>,
) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("backend");
            w.str(backend_name);
            w.key("checks");
            w.object(|w| {
                w.key("backend_writable");
                write_check(w, backend);
                w.key("ledger_verified");
                write_check(w, ledger);
            });
            w.key("ledger_entries");
            w.u64(ledger_entries as u64);
            w.key("live");
            w.bool(true);
            w.key("ready");
            w.bool(backend.is_ok() && ledger.is_ok());
            w.key("replication_sources");
            write_sources(w, sources);
            w.key("server");
            w.object(|w| {
                for (key, gauge) in [
                    ("connections_open", "server_connections_open"),
                    ("queued_bytes", "server_queued_bytes"),
                    ("queued_jobs", "server_queued_jobs"),
                ] {
                    w.key(key);
                    w.i64(gauges.get(gauge).copied().unwrap_or(0));
                }
            });
        })
    })
}

/// `{"ok": true}`, or `{"error": <why>, "ok": false}`: a health check's
/// verdict, and the ledger verification route's body.
pub(crate) fn write_check(w: &mut JsonWriter<Sink>, verdict: &Result<(), ServiceError>) {
    w.object(|w| {
        if let Err(e) = verdict {
            w.key("error");
            w.display(e);
        }
        w.key("ok");
        w.bool(verdict.is_ok());
    })
}

/// Each replication source and the entries its chain holds here.
pub(crate) fn write_sources(w: &mut JsonWriter<Sink>, sources: &[(String, u64)]) {
    w.array(|w| {
        for (source, entries) in sources {
            w.object(|w| {
                w.key("entries");
                w.u64(*entries);
                w.key("source");
                w.str(source);
            })
        }
    })
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

/// One member of the federated view.
enum Member {
    /// It answered `/metrics`; `health` is the body its health route
    /// sent, `ok` whether that route said ready.
    Up {
        id: String,
        ok: bool,
        health: String,
    },
    /// It did not answer, or its `/metrics` failed.
    Down { id: String, error: String },
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

    let self_id = replicator.map_or("self", |r| r.node_id()).to_string();
    let (_, own_health) = health_json(store, registry);
    merged.push_str(&label_member(self_exposition, &self_id));
    members.push(Member::Up {
        id: self_id.clone(),
        ok: true,
        health: own_health,
    });

    if let Some(replicator) = replicator {
        for (peer, client) in replicator.peers() {
            let metrics = client.get("/metrics");
            let health = client.get("/api/v0/obs/health");
            let id = peer.id.clone();
            match (metrics, health) {
                (Ok(m), Ok(h)) if m.status == 200 => {
                    merged.push_str(&label_member(&m.body, &peer.id));
                    let ok = h.status == 200;
                    let health = h.body;
                    members.push(Member::Up { id, ok, health });
                }
                (m, h) => {
                    let error = match (&m, &h) {
                        (Err(e), _) => e.to_string(),
                        (_, Err(e)) => e.to_string(),
                        (Ok(m), _) => format!("metrics returned {}", m.status),
                    };
                    members.push(Member::Down { id, error });
                }
            }
        }
    }
    cluster_body(&self_id, &members, &merged)
}

/// The cluster body: `ok` unless a member is down or not ready. A
/// member's health body is parsed and printed again, keys in order, or
/// `null` when it does not parse.
fn cluster_body(self_id: &str, members: &[Member], metrics: &str) -> String {
    let degraded = members
        .iter()
        .any(|m| matches!(m, Member::Up { ok: false, .. } | Member::Down { .. }));
    json::to_string(|w| {
        w.object(|w| {
            w.key("members");
            w.array(|w| {
                for member in members {
                    w.object(|w| match member {
                        Member::Up { id, ok, health } => {
                            w.key("health");
                            match json::parse(health) {
                                Ok(health) => w.value(&health),
                                Err(_) => w.null(),
                            }
                            w.key("id");
                            w.str(id);
                            w.key("ok");
                            w.bool(*ok);
                        }
                        Member::Down { id, error } => {
                            w.key("error");
                            w.str(error);
                            w.key("id");
                            w.str(id);
                            w.key("ok");
                            w.bool(false);
                        }
                    })
                }
            });
            w.key("metrics");
            w.str(metrics);
            w.key("ok");
            w.bool(!degraded);
            w.key("self");
            w.str(self_id);
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::json;
    use obs::alerts::{Cmp, Phase};
    use obs::tsdb::Point;

    /// The `json!` trees these bodies were printed from: the reference
    /// each body is held to.
    mod reference {
        use super::*;

        pub(super) fn alerts(states: &[AlertState]) -> String {
            let states: Vec<json::Value> = states
                .iter()
                .map(|s| {
                    json!({
                        "rule": &s.rule.name,
                        "metric": &s.rule.metric,
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

        pub(super) fn slowlog(routes: &[(&str, Vec<SlowEntry>, Vec<SlowEntry>)]) -> String {
            let entry_json = |e: &SlowEntry| {
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
            let routes: Vec<json::Value> = routes
                .iter()
                .map(|(route, slowest, errors)| {
                    json!({
                        "route": *route,
                        "slowest": slowest.iter().map(entry_json).collect::<Vec<_>>(),
                        "errors": errors.iter().map(entry_json).collect::<Vec<_>>(),
                    })
                })
                .collect();
            json!({"routes": routes}).to_string()
        }

        pub(super) fn timeseries(series: &Series) -> String {
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
                "metric": &series.metric,
                "step_s": series.step_s,
                "points": points,
            })
            .to_string()
        }

        pub(super) fn health(
            backend: &Result<(), ServiceError>,
            ledger: &Result<(), ServiceError>,
            backend_name: &str,
            ledger_entries: usize,
            sources: &[(String, u64)],
            gauges: &BTreeMap<String, i64>,
        ) -> String {
            let ready = backend.is_ok() && ledger.is_ok();
            let check = |r: &Result<(), ServiceError>| match r {
                Ok(()) => json!({"ok": true}),
                Err(e) => json!({"ok": false, "error": e.to_string()}),
            };
            let sources: Vec<json::Value> = sources
                .iter()
                .map(|(source, entries)| json!({"source": source, "entries": *entries}))
                .collect();
            let gauge = |name: &str| gauges.get(name).copied().unwrap_or(0);
            json!({
                "live": true,
                "ready": ready,
                "checks": {
                    "backend_writable": check(backend),
                    "ledger_verified": check(ledger),
                },
                "backend": backend_name,
                "ledger_entries": ledger_entries,
                "replication_sources": sources,
                "server": {
                    "connections_open": gauge("server_connections_open"),
                    "queued_jobs": gauge("server_queued_jobs"),
                    "queued_bytes": gauge("server_queued_bytes"),
                },
            })
            .to_string()
        }

        pub(super) fn cluster(self_id: &str, members: &[Member], metrics: &str) -> String {
            let mut degraded = false;
            let members: Vec<json::Value> = members
                .iter()
                .map(|m| match m {
                    Member::Up { id, ok, health } => {
                        degraded |= !ok;
                        json!({
                            "id": id,
                            "ok": *ok,
                            "health": json::parse(health).unwrap_or(json::Value::Null),
                        })
                    }
                    Member::Down { id, error } => {
                        degraded = true;
                        json!({"id": id, "ok": false, "error": error})
                    }
                })
                .collect();
            json!({
                "self": self_id,
                "ok": !degraded,
                "members": members,
                "metrics": metrics,
            })
            .to_string()
        }
    }

    /// Strings as a body may carry them: empty, quoted, escaped,
    /// control bytes, non-ASCII.
    fn texts() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        ["", "plain", "a\"b", "back\\slash", &controls, "é\u{2028}😀"]
            .map(String::from)
            .to_vec()
    }

    /// Floats a body may carry, the ones JSON cannot among them.
    const FLOATS: [f64; 9] = [
        0.0,
        -0.0,
        3.0,
        0.1,
        -2.5e-300,
        1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    fn maybe(i: usize) -> Option<f64> {
        (!i.is_multiple_of(3)).then(|| FLOATS[i % FLOATS.len()])
    }

    #[test]
    fn alerts_body_matches_its_tree() {
        let cmps = [Cmp::Gt, Cmp::Ge, Cmp::Lt, Cmp::Le];
        let phases = [
            Phase::Inactive,
            Phase::Pending,
            Phase::Firing,
            Phase::Resolved,
        ];
        let mut states = Vec::new();
        for (i, text) in texts().into_iter().enumerate() {
            for (j, &threshold) in FLOATS.iter().enumerate() {
                let k = i + j;
                states.push(AlertState {
                    rule: AlertRule::new(
                        text.clone(),
                        texts()[k % 6].clone(),
                        cmps[k % 4],
                        threshold,
                        FLOATS[(k + 1) % FLOATS.len()],
                    ),
                    phase: phases[k % 4],
                    pending_since_s: maybe(k),
                    fired_at_s: maybe(k + 1),
                    resolved_at_s: maybe(k + 2),
                    last_value: maybe(k + 4),
                });
            }
        }
        for n in [0, 1, 2, states.len()] {
            assert_eq!(alerts_body(&states[..n]), reference::alerts(&states[..n]));
        }
    }

    #[test]
    fn slowlog_body_matches_its_tree() {
        let entry = |i: usize, text: &str| SlowEntry {
            method: text.to_string(),
            path: texts()[(i + 1) % 6].clone(),
            route: "/x",
            status: [200, 404, 503, u16::MAX][i % 4],
            latency_ns: [0, 1, u64::MAX][i % 3],
            shed: [None, Some("queued_bytes"), Some("\u{1}\"")][i % 3],
            trace_id: i.is_multiple_of(2).then(|| texts()[i % 6].clone()),
            seq: i as u64,
        };
        let entries: Vec<SlowEntry> = texts()
            .iter()
            .enumerate()
            .map(|(i, t)| entry(i, t))
            .collect();
        let routes = [
            ("/api/v0/documents", entries.clone(), Vec::new()),
            ("", Vec::new(), entries[..2].to_vec()),
            ("\u{0}\"\\é", entries[3..].to_vec(), entries.clone()),
            ("/empty", Vec::new(), Vec::new()),
        ];
        for n in 0..=routes.len() {
            assert_eq!(slowlog_body(&routes[..n]), reference::slowlog(&routes[..n]));
        }
    }

    #[test]
    fn timeseries_body_matches_its_tree() {
        for (i, metric) in texts().into_iter().enumerate() {
            let points = (0..i * 3)
                .map(|j| Point {
                    t_s: FLOATS[j % FLOATS.len()],
                    avg: FLOATS[(j + 1) % FLOATS.len()],
                    min: FLOATS[(j + 2) % FLOATS.len()],
                    max: FLOATS[(j + 5) % FLOATS.len()],
                    count: [0, 1, u32::MAX][j % 3],
                })
                .collect();
            let series = Series {
                metric,
                step_s: FLOATS[i],
                points,
            };
            assert_eq!(timeseries_body(&series), reference::timeseries(&series));
        }
    }

    #[test]
    fn health_body_matches_its_tree() {
        let failed = |reason: &str| {
            Err(ServiceError::Conflict {
                reason: reason.to_string(),
            })
        };
        let texts = texts();
        let sources: Vec<(String, u64)> = texts
            .iter()
            .zip([0, 1, 7, u64::MAX, 2, 3])
            .map(|(t, n)| (t.clone(), n))
            .collect();
        let gauges: BTreeMap<String, i64> = [
            ("server_connections_open", 3),
            ("server_queued_jobs", -1),
            ("server_queued_bytes", i64::MAX),
            ("other", 9),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for (i, text) in texts.iter().enumerate() {
            let backend = if i % 2 == 0 { Ok(()) } else { failed(text) };
            let ledger = if i % 3 == 0 {
                Ok(())
            } else {
                failed(&texts[5 - i])
            };
            let gauges = if i % 2 == 0 {
                gauges.clone()
            } else {
                BTreeMap::new()
            };
            for entries in [0, 5, usize::MAX] {
                let sources = &sources[..i];
                assert_eq!(
                    health_body(&backend, &ledger, text, entries, sources, &gauges),
                    reference::health(&backend, &ledger, text, entries, sources, &gauges)
                );
            }
        }
    }

    #[test]
    fn cluster_body_matches_its_tree() {
        let texts = texts();
        let healths = [
            r#"{"live":true,"ready":true}"#,
            // Keys out of order, spaces, a float and an escape.
            "{\"ready\": false, \"live\": true, \"x\": [1.50, -0, \"\\u0001\"]}",
            // Does not parse.
            r#"{"live":"#,
            "",
            "503 Service Unavailable",
        ];
        let mut members = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            members.push(Member::Up {
                id: text.clone(),
                ok: i % 3 != 1,
                health: healths[i % healths.len()].to_string(),
            });
            members.push(Member::Down {
                id: texts[(i + 1) % 6].clone(),
                error: text.clone(),
            });
        }
        for (i, text) in texts.iter().enumerate() {
            for n in [1, 2, i + 2, members.len()] {
                for m in [&members[..n], &members[..1], &members[1..n]] {
                    assert_eq!(
                        cluster_body(text, m, &texts[5 - i]),
                        reference::cluster(text, m, &texts[5 - i])
                    );
                }
            }
        }
    }

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
