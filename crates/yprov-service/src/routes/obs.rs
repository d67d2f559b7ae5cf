//! Liveness, the metrics scrape, the explorer page and the ops plane
//! (`/api/v0/obs/…`).

use crate::http::{error_body, one_member, Request, ServerState};

pub(super) fn healthz(_: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, one_member("status", "ok"))
}

/// One scrape covers both registries: the server's request metrics and
/// the store's cache/backend instruments.
fn exposition(state: &ServerState) -> String {
    let mut exposition = state.registry.render_prometheus();
    exposition.push_str(&state.store.registry().render_prometheus());
    exposition
}

pub(super) fn metrics(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, exposition(state))
}

pub(super) fn explorer(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (
        200,
        crate::explorer::render_html(&crate::explorer::summarize(&state.store)),
    )
}

pub(super) fn health(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    let (ready, body) = crate::ops::health_json(&state.store, &state.registry);
    (if ready { 200 } else { 503 }, body)
}

pub(super) fn timeseries(state: &ServerState, req: &Request, _: &str) -> (u16, String) {
    let Some(metric) = req.param("metric") else {
        return (400, error_body("missing ?metric=<name>"));
    };
    let num = |key: &str, default: f64| {
        req.param(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let since_s = num("since", 300.0).clamp(0.0, 86_400.0);
    let step_s = num("step", 0.0).clamp(0.0, 3_600.0);
    let now_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    (
        200,
        state.ops.timeseries_json(metric, since_s, step_s, now_s),
    )
}

pub(super) fn slowlog(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, state.ops.slowlog_json())
}

pub(super) fn alerts(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, state.ops.alerts_json())
}

/// This node's own exposition, rendered exactly the way `/metrics`
/// does, then the peers'.
pub(super) fn cluster(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (
        200,
        crate::ops::cluster_json(
            &state.store,
            &state.registry,
            state.replicator.as_ref(),
            &exposition(state),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthz_body_matches_its_tree() {
        let tree = json::json!({"status": "ok"}).to_string();
        assert_eq!(one_member("status", "ok"), tree);
    }
}
