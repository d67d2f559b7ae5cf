//! Parallel DAG execution with provenance capture.

use crate::workflow::{TaskCtx, TaskDef, TaskOutcome, Workflow};
use prov_model::{AttrValue, ProvDocument, QName, XsdDateTime};
use std::collections::BTreeMap;
use std::sync::mpsc;

/// Why a workflow could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowError(pub String);

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workflow error: {}", self.0)
    }
}
impl std::error::Error for WorkflowError {}

/// Terminal state of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// Ran and returned outputs.
    Succeeded,
    /// Ran and returned an error.
    Failed(String),
    /// Never ran because a dependency failed.
    Skipped,
}

/// The result of executing a workflow.
pub struct WorkflowReport {
    /// Workflow name.
    pub name: String,
    /// Terminal status per task.
    pub statuses: BTreeMap<String, TaskStatus>,
    /// Outputs of the successful tasks.
    pub outcomes: BTreeMap<String, TaskOutcome>,
    /// The provenance document of the execution.
    pub document: ProvDocument,
}

impl WorkflowReport {
    /// True when every task succeeded.
    pub fn succeeded(&self) -> bool {
        self.statuses.values().all(|s| *s == TaskStatus::Succeeded)
    }

    /// Names of failed tasks.
    pub fn failed_tasks(&self) -> Vec<&str> {
        self.statuses
            .iter()
            .filter(|(_, s)| matches!(s, TaskStatus::Failed(_)))
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Executes the workflow, running ready tasks concurrently.
///
/// Scheduling: a task becomes *ready* when all dependencies succeeded;
/// ready tasks each get a thread (workflow widths are small — tasks are
/// coarse pipeline stages, not kernels). When a task fails, its
/// transitive dependents are skipped but independent branches keep
/// running — and the provenance records all three outcomes.
pub fn run(workflow: Workflow) -> Result<WorkflowReport, WorkflowError> {
    workflow.validate().map_err(WorkflowError)?;
    let wf_name = workflow.name.clone();
    let started = XsdDateTime::now();

    let mut pending: BTreeMap<String, TaskDef> = workflow
        .tasks
        .into_iter()
        .map(|t| (t.name.clone(), t))
        .collect();
    let deps_of: BTreeMap<String, Vec<String>> = pending
        .iter()
        .map(|(n, t)| (n.clone(), t.deps.clone()))
        .collect();

    let mut statuses: BTreeMap<String, TaskStatus> = BTreeMap::new();
    let mut outcomes: BTreeMap<String, TaskOutcome> = BTreeMap::new();
    let mut spans: BTreeMap<String, (XsdDateTime, XsdDateTime)> = BTreeMap::new();

    let (tx, rx) = mpsc::channel::<(
        String,
        Result<TaskOutcome, String>,
        XsdDateTime,
        XsdDateTime,
    )>();
    let mut running = 0usize;

    std::thread::scope(|scope| {
        loop {
            // Launch every ready task.
            let ready: Vec<String> = pending
                .keys()
                .filter(|name| {
                    deps_of[*name]
                        .iter()
                        .all(|d| statuses.get(d) == Some(&TaskStatus::Succeeded))
                })
                .cloned()
                .collect();
            for name in ready {
                let task = pending.remove(&name).expect("ready task is pending");
                // Snapshot the dependency outputs this task may read.
                let upstream: BTreeMap<String, TaskOutcome> = task
                    .deps
                    .iter()
                    .filter_map(|d| outcomes.get(d).map(|o| (d.clone(), o.clone())))
                    .collect();
                let tx = tx.clone();
                running += 1;
                scope.spawn(move || {
                    let start = XsdDateTime::now();
                    let ctx = TaskCtx {
                        upstream: &upstream,
                    };
                    let result = (task.body)(&ctx);
                    let end = XsdDateTime::now();
                    let _ = tx.send((task.name, result, start, end));
                });
            }

            // Skip tasks whose dependencies can no longer all succeed —
            // to a fixpoint, since skipping a task dooms its own
            // dependents in turn.
            loop {
                let doomed: Vec<String> = pending
                    .keys()
                    .filter(|name| {
                        deps_of[*name].iter().any(|d| {
                            matches!(
                                statuses.get(d),
                                Some(TaskStatus::Failed(_)) | Some(TaskStatus::Skipped)
                            )
                        })
                    })
                    .cloned()
                    .collect();
                if doomed.is_empty() {
                    break;
                }
                for name in doomed {
                    pending.remove(&name);
                    statuses.insert(name, TaskStatus::Skipped);
                }
            }

            if running == 0 {
                break;
            }
            // Collect one completion, then re-evaluate readiness.
            let (name, result, start, end) = rx.recv().expect("running tasks hold senders");
            running -= 1;
            spans.insert(name.clone(), (start, end));
            match result {
                Ok(outcome) => {
                    outcomes.insert(name.clone(), outcome);
                    statuses.insert(name, TaskStatus::Succeeded);
                }
                Err(msg) => {
                    statuses.insert(name, TaskStatus::Failed(msg));
                }
            }
        }
    });

    let document = build_document(&wf_name, started, &deps_of, &statuses, &outcomes, &spans);
    Ok(WorkflowReport {
        name: wf_name,
        statuses,
        outcomes,
        document,
    })
}

fn build_document(
    wf_name: &str,
    started: XsdDateTime,
    deps_of: &BTreeMap<String, Vec<String>>,
    statuses: &BTreeMap<String, TaskStatus>,
    outcomes: &BTreeMap<String, TaskOutcome>,
    spans: &BTreeMap<String, (XsdDateTime, XsdDateTime)>,
) -> ProvDocument {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .expect("static namespace");
    doc.namespaces_mut()
        .register(
            "wf",
            format!("https://yprov.example.org/workflows/{wf_name}#"),
        )
        .expect("valid prefix");

    let wf_activity = QName::new("wf", wf_name);
    doc.activity(wf_activity.clone())
        .prov_type(QName::yprov("Workflow"))
        .label(wf_name.to_string())
        .start_time(started)
        .end_time(XsdDateTime::now());

    let engine = QName::yprov("yprov4wfs-engine");
    doc.agent(engine.clone())
        .prov_type(QName::prov("SoftwareAgent"))
        .label(format!("yprov4wfs {}", env!("CARGO_PKG_VERSION")));
    doc.was_associated_with(wf_activity.clone(), engine);

    for (name, status) in statuses {
        let task_activity = QName::new("wf", format!("task/{name}"));
        {
            let mut b = doc
                .activity(task_activity.clone())
                .prov_type(QName::yprov("Task"))
                .label(name.clone())
                .attr(
                    QName::yprov("status"),
                    AttrValue::String(match status {
                        TaskStatus::Succeeded => "succeeded".into(),
                        TaskStatus::Failed(m) => format!("failed: {m}"),
                        TaskStatus::Skipped => "skipped".into(),
                    }),
                );
            if let Some((s, e)) = spans.get(name) {
                b = b.start_time(*s).end_time(*e);
            }
            if let Some(outcome) = outcomes.get(name) {
                for (k, v) in &outcome.params {
                    b = b.attr(
                        QName::new("wf", format!("param/{k}")),
                        AttrValue::String(v.clone()),
                    );
                }
            }
        }
        doc.was_informed_by(task_activity.clone(), wf_activity.clone());
        for dep in &deps_of[name] {
            doc.was_informed_by(
                task_activity.clone(),
                QName::new("wf", format!("task/{dep}")),
            );
        }

        // Output artifacts, and `used` edges from dependents.
        if let Some(outcome) = outcomes.get(name) {
            for (out_name, bytes) in &outcome.outputs {
                let entity = QName::new("wf", format!("artifact/{name}/{out_name}"));
                doc.entity(entity.clone())
                    .prov_type(QName::yprov("Artifact"))
                    .label(out_name.clone())
                    .attr(
                        QName::yprov("sha256"),
                        AttrValue::String(yprov4ml::hash::sha256_hex(bytes)),
                    )
                    .attr(QName::yprov("bytes"), AttrValue::Int(bytes.len() as i64));
                doc.was_generated_by(entity, task_activity.clone());
            }
        }
    }

    // used edges: every task uses every output of its dependencies that
    // actually ran.
    for (name, deps) in deps_of {
        if statuses.get(name) != Some(&TaskStatus::Succeeded) {
            continue;
        }
        let task_activity = QName::new("wf", format!("task/{name}"));
        for dep in deps {
            if let Some(outcome) = outcomes.get(dep) {
                for out_name in outcome.outputs.keys() {
                    doc.used(
                        task_activity.clone(),
                        QName::new("wf", format!("artifact/{dep}/{out_name}")),
                    );
                }
            }
        }
    }

    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Workflow;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn diamond_runs_in_dependency_order() {
        let order = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let mut wf = Workflow::new("diamond");
        for (name, deps) in [
            ("a", vec![]),
            ("b", vec!["a"]),
            ("c", vec!["a"]),
            ("d", vec!["b", "c"]),
        ] {
            let order = Arc::clone(&order);
            let name_owned = name.to_string();
            match deps.len() {
                0 => wf.task(name, [], move |_| {
                    order.lock().unwrap().push(name_owned);
                    Ok(TaskOutcome::new().output("o", b"x".to_vec()))
                }),
                1 => wf.task(name, [deps[0]], move |_| {
                    order.lock().unwrap().push(name_owned);
                    Ok(TaskOutcome::new().output("o", b"x".to_vec()))
                }),
                _ => wf.task(name, [deps[0], deps[1]], move |_| {
                    order.lock().unwrap().push(name_owned);
                    Ok(TaskOutcome::new().output("o", b"x".to_vec()))
                }),
            };
        }
        let report = run(wf).unwrap();
        assert!(report.succeeded());
        let order = order.lock().unwrap();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("a") < pos("b"));
        assert!(pos("a") < pos("c"));
        assert!(pos("b") < pos("d"));
        assert!(pos("c") < pos("d"));
    }

    #[test]
    fn data_flows_between_tasks() {
        let mut wf = Workflow::new("flow");
        wf.task("src", [], |_| {
            Ok(TaskOutcome::new().output("nums", b"1,2,3".to_vec()))
        });
        wf.task("sum", ["src"], |ctx| {
            let raw = ctx.input("src", "nums").ok_or("missing input")?;
            let total: i64 = std::str::from_utf8(raw)
                .map_err(|e| e.to_string())?
                .split(',')
                .map(|n| n.parse::<i64>().unwrap_or(0))
                .sum();
            Ok(TaskOutcome::new()
                .output("total", total.to_string().into_bytes())
                .param("total", total))
        });
        let report = run(wf).unwrap();
        assert_eq!(report.outcomes["sum"].outputs["total"], b"6");
        assert_eq!(report.outcomes["sum"].params["total"], "6");
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        // Two tasks that only finish when both have started (barrier):
        // serial execution would deadlock, parallel completes.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let mut wf = Workflow::new("par");
        for name in ["left", "right"] {
            let gate = Arc::clone(&gate);
            wf.task(name, [], move |_| {
                gate.wait();
                Ok(TaskOutcome::new())
            });
        }
        let report = run(wf).unwrap();
        assert!(report.succeeded());
    }

    #[test]
    fn failure_skips_dependents_but_not_siblings() {
        let ran = Arc::new(AtomicUsize::new(0));
        let mut wf = Workflow::new("partial");
        wf.task("boom", [], |_| Err("disk on fire".into()));
        wf.task("after_boom", ["boom"], |_| Ok(TaskOutcome::new()));
        wf.task("deeper", ["after_boom"], |_| Ok(TaskOutcome::new()));
        {
            let ran = Arc::clone(&ran);
            wf.task("independent", [], move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(TaskOutcome::new())
            });
        }
        let report = run(wf).unwrap();
        assert!(!report.succeeded());
        assert_eq!(report.failed_tasks(), vec!["boom"]);
        assert_eq!(report.statuses["after_boom"], TaskStatus::Skipped);
        assert_eq!(report.statuses["deeper"], TaskStatus::Skipped);
        assert_eq!(report.statuses["independent"], TaskStatus::Succeeded);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        // Provenance records all outcomes.
        let doc = &report.document;
        let boom = doc.get(&QName::new("wf", "task/boom")).unwrap();
        assert!(boom
            .attr(&QName::yprov("status"))
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("failed: disk on fire"));
    }

    #[test]
    fn provenance_captures_lineage_across_tasks() {
        let mut wf = Workflow::new("lineage");
        wf.task("prep", [], |_| {
            Ok(TaskOutcome::new().output("clean.bin", b"clean".to_vec()))
        });
        wf.task("train", ["prep"], |ctx| {
            let _ = ctx.input("prep", "clean.bin");
            Ok(TaskOutcome::new().output("model.ckpt", b"weights".to_vec()))
        });
        let report = run(wf).unwrap();
        let doc = &report.document;
        assert!(prov_model::validate::is_valid(doc));

        let graph = prov_graph::ProvGraph::new(doc);
        let model = QName::new("wf", "artifact/train/model.ckpt");
        let ancestors = graph.ancestors(&model);
        assert!(
            ancestors.contains(&QName::new("wf", "artifact/prep/clean.bin")),
            "the model must trace back to prep's output; got {ancestors:?}"
        );
        assert!(
            ancestors.contains(&QName::new("wf", "lineage")),
            "and to the workflow"
        );
    }

    #[test]
    fn invalid_workflows_refused() {
        let mut wf = Workflow::new("bad");
        wf.task("a", ["b"], |_| Ok(TaskOutcome::new()));
        wf.task("b", ["a"], |_| Ok(TaskOutcome::new()));
        assert!(run(wf).is_err());
    }

    #[test]
    fn empty_workflow_succeeds_trivially() {
        let report = run(Workflow::new("empty")).unwrap();
        assert!(report.succeeded());
        assert_eq!(report.document.count(prov_model::ElementKind::Activity), 1);
    }

    #[test]
    fn wide_fanout_executes_fully() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut wf = Workflow::new("wide");
        wf.task("root", [], |_| {
            Ok(TaskOutcome::new().output("seed", vec![7]))
        });
        for i in 0..20 {
            let counter = Arc::clone(&counter);
            wf.task(format!("leaf{i}"), ["root"], move |ctx| {
                assert_eq!(ctx.input("root", "seed"), Some([7u8].as_slice()));
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(TaskOutcome::new())
            });
        }
        let report = run(wf).unwrap();
        assert!(report.succeeded());
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert_eq!(report.statuses.len(), 21);
    }
}
