//! The yProv ecosystem round trip: producer → service → explorer.
//!
//! Generates provenance with yProv4ML (the *producer*), uploads it to
//! the yProv-style REST service over real HTTP (the *consumer*), then
//! queries lineage and renders the explorer's document table.
//!
//! ```text
//! cargo run -p integration --example provenance_service
//! ```

use yprov4ml::model::{Context, Direction};
use yprov4ml::Experiment;
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join("yprov4ml_service_demo");
    std::fs::remove_dir_all(&base).ok();

    // Producer side: two runs with different outcomes.
    let experiment = Experiment::new("service-demo", &base)?;
    for (name, lr) in [("run-a", 0.01), ("run-b", 0.001)] {
        let run = experiment.start_run(name)?;
        run.log_param("learning_rate", lr);
        run.log_artifact_bytes("dataset.bin", b"data", Direction::Input)?;
        for step in 0..50u64 {
            run.log_metric(
                "loss",
                Context::Training,
                step,
                0,
                1.0 / (1.0 + step as f64 * lr),
            );
        }
        run.log_model("model.ckpt", format!("weights-{name}").as_bytes())?;
        run.finish()?;
    }

    // Consumer side: the service.
    let store = DocumentStore::new();
    let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default())?;
    let addr = server.addr();
    println!("yProv service listening on http://{addr}");

    // Upload both provenance files over HTTP.
    let mut ids = Vec::new();
    for name in experiment.list_runs()? {
        let json = std::fs::read_to_string(experiment.dir().join(&name).join("prov.json"))?;
        let (status, body) = request(addr, "POST", "/api/v0/documents", Some(&json))?;
        assert_eq!(status, 201, "{body}");
        let v: json::Value = json::parse(&body)?;
        let id = v["id"].as_str().unwrap().to_string();
        println!("uploaded {name} as {id}");
        ids.push((name, id));
    }

    // Lineage query over HTTP: where did run-a's model come from?
    let (name, id) = &ids[0];
    let focus = format!("exp:{name}/artifact/model.ckpt");
    let encoded = focus.replace(':', "%3A").replace('/', "%2F");
    let (status, body) = request(
        addr,
        "GET",
        &format!("/api/v0/documents/{id}/ancestors?focus={encoded}"),
        None,
    )?;
    assert_eq!(status, 200, "{body}");
    println!("\nlineage of {focus}:");
    let v: json::Value = json::parse(&body)?;
    for a in v["ancestors"].as_array().unwrap() {
        println!("  <- {}", a.as_str().unwrap());
    }

    // Explorer view across everything the service holds.
    println!("\n--- explorer ---");
    print!(
        "{}",
        yprov_service::explorer::render_table(&yprov_service::explorer::summarize(&store))
    );

    server.shutdown();
    Ok(())
}
