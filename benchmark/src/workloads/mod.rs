//! The four workloads. Names are the contract: later issues cite them.

pub mod cluster_e2e;
pub mod live_stream;
pub mod serve_docs;
pub mod track_run;

use crate::harness::{Config, Outcome};
use crate::trace::Recorder;

pub fn run(workload: &str, cfg: &Config, rec: &Recorder) -> Result<Outcome, String> {
    match workload {
        "track_run" => track_run::run(cfg, rec),
        "serve_docs" => serve_docs::run(cfg, rec),
        "live_stream" => live_stream::run(cfg, rec),
        "cluster_e2e" => cluster_e2e::run(cfg, rec),
        other => Err(format!("unknown workload {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::harness::result_line;
    use crate::metrics;
    use crate::trace::{layer_self_ns, Span};

    /// Layers only the producer side of the program has, and layers
    /// only the service side has; `prov_model` and `prov_graph` serve
    /// both.
    const PRODUCER: [&str; 5] = ["yprov4ml", "collector", "journal", "spill", "prov_emit"];
    const SERVICE: [&str; 8] = [
        "http", "store", "backend", "ledger", "cluster", "watch", "reactor", "ops",
    ];

    /// One workload at a hundredth of its op count and the unit-test
    /// sizes; checks what every run must hold.
    fn smoke(workload: &str, trace: bool) -> Vec<Span> {
        let dir = crate::out_root().join(format!("test-{workload}-{trace}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = Config {
            seed: 5,
            seconds: 0.2,
            trace,
            small: true,
            data_dir: dir.clone(),
            started: Instant::now(),
        };
        let rec = Recorder::new(false);
        let outcome = run(workload, &cfg, &rec);
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = outcome.unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
        assert_eq!(
            outcome.failed, 0,
            "{workload} trace={trace}: {:?}",
            outcome.errors
        );
        assert!(outcome.attempted > 0);
        let line = result_line(&outcome, trace).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        for m in metrics::expected(trace) {
            let field = format!("\"{}\":{{\"value\":", m.name);
            assert_eq!(line.matches(&field).count(), 1, "{workload}: {}", m.name);
            let rest = &line[line.find(&field).unwrap() + field.len()..];
            let (value, rest) = rest.split_once(',').unwrap();
            assert!(value.parse::<f64>().unwrap().is_finite(), "{}", m.name);
            assert!(
                rest.starts_with(&format!("\"unit\":\"{}\"}}", m.unit)),
                "{}",
                m.name
            );
        }
        rec.spans()
    }

    /// Self time of the spans of `layers` as a share of the time of all
    /// operations, and how many such spans there are.
    fn share(spans: &[Span], layers: &[&str]) -> (f64, usize) {
        let ops: u64 = spans
            .iter()
            .filter(|s| s.layer() == "op")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let table = layer_self_ns(spans);
        let (count, ns) = layers
            .iter()
            .filter_map(|l| table.get(l))
            .fold((0, 0), |(c, n), (count, ns)| (c + count, n + ns));
        (ns as f64 / ops.max(1) as f64, count)
    }

    #[test]
    fn track_run_smoke_and_the_producer_layers_do_the_work() {
        smoke("track_run", false);
        let spans = smoke("track_run", true);
        let (producer, _) = share(&spans, &PRODUCER);
        assert!(
            producer >= 0.8,
            "producer layers hold {producer:.2} of op time"
        );
        assert_eq!(share(&spans, &SERVICE).1, 0, "no service span on track_run");
    }

    #[test]
    fn serve_docs_smoke_and_the_service_layers_do_the_work() {
        smoke("serve_docs", false);
        let spans = smoke("serve_docs", true);
        let (service, _) = share(
            &spans,
            &[&SERVICE[..], &["prov_model", "prov_graph"]].concat(),
        );
        assert!(
            service >= 0.8,
            "service layers hold {service:.2} of op time"
        );
        assert_eq!(
            share(&spans, &PRODUCER).1,
            0,
            "no producer span on serve_docs"
        );
    }

    #[test]
    fn live_stream_smoke() {
        smoke("live_stream", false);
        assert!(!smoke("live_stream", true).is_empty());
    }

    #[test]
    fn cluster_e2e_smoke() {
        smoke("cluster_e2e", false);
        assert!(!smoke("cluster_e2e", true).is_empty());
    }

    /// The flat objects of the array under `"key"` in `text`.
    fn objects<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let rest = &text[text.find(&format!("\"{key}\"")).expect(key)..];
        let array = &rest[rest.find('[').unwrap() + 1..rest.find(']').unwrap()];
        array
            .split('}')
            .filter_map(|o| o.split_once('{').map(|(_, body)| body))
            .collect()
    }

    /// The value of `"key"` in a flat object, quotes stripped.
    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let rest = &object[object.find(&format!("\"{key}\"")).expect(key)..];
        let value = rest.split_once(':').unwrap().1.trim_start();
        match value.strip_prefix('"') {
            Some(quoted) => &quoted[..quoted.find('"').unwrap()],
            None => value.split([',', '\n']).next().unwrap().trim(),
        }
    }

    #[test]
    fn benchmark_json_is_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let workloads = objects(&text, "workloads");
        assert_eq!(workloads.len(), metrics::WORKLOADS.len());
        for (object, (name, why)) in workloads.iter().zip(metrics::WORKLOADS) {
            assert_eq!((field(object, "name"), field(object, "why")), (name, why));
            assert!(names_ok(name) && why.len() <= 200, "{name}");
        }
        for (key, table) in [
            ("end_to_end", &metrics::END_TO_END[..]),
            ("per_layer", &metrics::PER_LAYER[..]),
        ] {
            let listed = objects(&text, key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (object, m) in listed.iter().zip(table) {
                assert_eq!(field(object, "name"), m.name);
                assert_eq!(field(object, "unit"), m.unit, "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field(object, "better"), better, "{}", m.name);
                match m.bound {
                    Some(bound) => {
                        assert_eq!(field(object, "bound").parse(), Ok(bound), "{}", m.name);
                        assert!(bound <= 0.25);
                    }
                    None => assert!(!object.contains("\"bound\""), "{}", m.name),
                }
                assert!(names_ok(m.name) && m.unit.len() <= 16, "{}", m.name);
            }
        }
        let run_seconds = field(&text, "run_seconds").parse::<f64>().unwrap();
        assert_eq!(run_seconds, crate::harness::RUN_SECONDS);
        assert!(
            text.contains("\"benchmark/Cargo.toml\"")
                && text.contains("\"paths\": [\"benchmark\"]")
        );
    }
}
