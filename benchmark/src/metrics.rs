//! The metric contract: `BENCHMARK.json` in code form. A unit test keeps
//! the two equal.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which gate nothing.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// `(name, why)`; the names are the contract, later issues cite them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "track_run",
        "producer only: collector, spill codec and PROV emission do all the work (log, finish, reload, lineage query), no service is started; the paper's Table 1 path",
    ),
    (
        "serve_docs",
        "consumer only, one durable node holding 128 documents of log-uniform size: parse, serialise, ledger, backend, graph index, query engine and HTTP do all the work, PUT/GET/query 20/50/30",
    ),
    (
        "live_stream",
        "the same layers used differently: snapshot_document not close, merge_delta + GraphIndex::extended not replace, plus the watch long-poll",
    ),
    (
        "cluster_e2e",
        "the ROADMAP budget path, every layer once per iteration: journaled tracked run, finish, replicated put on a 3-node ring, get, leakage audit",
    ),
];

/// What a user of the system sees; every workload reports every one
/// (README.md says what each means on each workload). The bounds come
/// from `--selfcheck` runs on the 2-core reference box (README.md,
/// "Bounds").
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("work_per_s", "1/s", true, 0.25),
    e2e("write_ms_p50", "ms", false, 0.25),
    e2e("stored_bytes_per_user_byte", "B/B", false, 0.01),
    e2e("peak_rss_mb", "MB", false, 0.2),
];

/// One layer each, timed around the named public call in the traced
/// run; 0 on a workload that does not exercise the layer.
pub const PER_LAYER: [Metric; 52] = [
    lower("collector.log_ns", "ns"),
    lower("collector.drain_ms", "ms"),
    lower("collector.snapshot_ms", "ms"),
    lower("journal.append_ns", "ns"),
    lower("journal.bytes_per_sample", "B"),
    lower("spill.encode_ms", "ms"),
    lower("spill.bytes_per_sample", "B"),
    lower("spill.decode_ms", "ms"),
    lower("prov_emit.build_ms", "ms"),
    lower("prov_emit.write_ms", "ms"),
    lower("prov_emit.doc_bytes", "B"),
    lower("prov_model.parse_ms", "ms"),
    higher("prov_model.parse_mb_per_s", "MB/s"),
    lower("prov_model.serialize_ms", "ms"),
    lower("prov_model.apply_delta_ms", "ms"),
    lower("prov_graph.index_build_ms", "ms"),
    lower("prov_graph.index_extend_ms", "ms"),
    lower("prov_graph.plan_us", "us"),
    lower("prov_graph.exec_ms", "ms"),
    lower("prov_graph.rows", "count"),
    lower("ledger.append_us", "us"),
    lower("backend.put_ms", "ms"),
    lower("backend.get_ms", "ms"),
    lower("backend.write_amp", "B/B"),
    lower("store.upload_ms", "ms"),
    lower("store.read_ms", "ms"),
    lower("store.query_ms", "ms"),
    lower("store.merge_delta_ms", "ms"),
    higher("store.incremental_merge_ratio", "ratio"),
    lower("store.apply_replicated_ms", "ms"),
    higher("store.graph_cache_hit_ratio", "ratio"),
    lower("http.roundtrip_us", "us"),
    lower("http.unattributed_write_ms", "ms"),
    lower("http.unattributed_read_ms", "ms"),
    lower("http.unattributed_query_ms", "ms"),
    lower("client.retry_ratio", "ratio"),
    lower("client.read_ms_p50", "ms"),
    lower("client.query_ms_p50", "ms"),
    lower("client.write_ms_p99", "ms"),
    lower("client.read_ms_p99", "ms"),
    lower("client.query_ms_p99", "ms"),
    higher("client.samples_min", "count"),
    lower("client.load_ms", "ms"),
    lower("watch.wake_ms", "ms"),
    lower("cluster.route_us", "us"),
    lower("cluster.replicate_ms", "ms"),
    lower("cluster.frames_per_put", "count"),
    lower("cluster.frame_bytes_per_user_byte", "B/B"),
    lower("reactor.shed_total", "count"),
    lower("ops.tick_us", "us"),
    lower("trace.overhead_pct", "%"),
    lower("reference.kernel_ms", "ms"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

/// The metrics a run in the given mode must print.
pub fn expected(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
