//! Workflow definition: named tasks with dependencies and typed
//! outputs.

use std::collections::BTreeMap;

/// What a task produced (named artifacts + one-time parameters).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TaskOutcome {
    /// Named output artifacts.
    pub outputs: BTreeMap<String, Vec<u8>>,
    /// Recorded parameters (become PROV attributes of the task).
    pub params: BTreeMap<String, String>,
}

impl TaskOutcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an output artifact.
    pub fn output(mut self, name: impl Into<String>, bytes: Vec<u8>) -> Self {
        self.outputs.insert(name.into(), bytes);
        self
    }

    /// Records a parameter.
    pub fn param(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.params.insert(name.into(), value.to_string());
        self
    }
}

/// What a running task sees: the outputs of its dependencies.
pub struct TaskCtx<'a> {
    pub(crate) upstream: &'a BTreeMap<String, TaskOutcome>,
}

impl TaskCtx<'_> {
    /// The bytes of `output` produced by dependency `task`, if present.
    pub fn input(&self, task: &str, output: &str) -> Option<&[u8]> {
        self.upstream
            .get(task)
            .and_then(|o| o.outputs.get(output))
            .map(Vec::as_slice)
    }
}

type TaskFn = Box<dyn FnOnce(&TaskCtx) -> Result<TaskOutcome, String> + Send>;

pub(crate) struct TaskDef {
    pub name: String,
    pub deps: Vec<String>,
    pub body: TaskFn,
}

/// A DAG of tasks under construction.
pub struct Workflow {
    pub(crate) name: String,
    pub(crate) tasks: Vec<TaskDef>,
}

impl Workflow {
    /// Starts an empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// The workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks defined.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks are defined.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task depending on `deps` (names of earlier tasks).
    pub fn task<const N: usize>(
        &mut self,
        name: impl Into<String>,
        deps: [&str; N],
        body: impl FnOnce(&TaskCtx) -> Result<TaskOutcome, String> + Send + 'static,
    ) -> &mut Self {
        self.tasks.push(TaskDef {
            name: name.into(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            body: Box::new(body),
        });
        self
    }

    /// Validates the DAG: unique names, known dependencies, no cycles.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = std::collections::BTreeSet::new();
        for t in &self.tasks {
            if !names.insert(&t.name) {
                return Err(format!("duplicate task name {:?}", t.name));
            }
        }
        for t in &self.tasks {
            for d in &t.deps {
                if !names.contains(d) {
                    return Err(format!("task {:?} depends on unknown task {d:?}", t.name));
                }
                if d == &t.name {
                    return Err(format!("task {:?} depends on itself", t.name));
                }
            }
        }
        // Cycle check: Kahn's algorithm over the name graph.
        let mut indeg: BTreeMap<&String, usize> =
            self.tasks.iter().map(|t| (&t.name, t.deps.len())).collect();
        let mut ready: Vec<&String> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(n, _)| *n)
            .collect();
        let mut seen = 0usize;
        while let Some(n) = ready.pop() {
            seen += 1;
            for t in &self.tasks {
                if t.deps.contains(n) {
                    let slot = indeg.get_mut(&t.name).expect("known task");
                    *slot -= 1;
                    if *slot == 0 {
                        ready.push(&t.name);
                    }
                }
            }
        }
        if seen != self.tasks.len() {
            return Err("workflow contains a dependency cycle".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_validation() {
        let mut wf = Workflow::new("w");
        wf.task("a", [], |_| Ok(TaskOutcome::new()));
        wf.task("b", ["a"], |_| Ok(TaskOutcome::new()));
        assert_eq!(wf.len(), 2);
        assert!(!wf.is_empty());
        wf.validate().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut wf = Workflow::new("w");
        wf.task("a", [], |_| Ok(TaskOutcome::new()));
        wf.task("a", [], |_| Ok(TaskOutcome::new()));
        assert!(wf.validate().is_err());
    }

    #[test]
    fn unknown_and_self_dependencies_rejected() {
        let mut wf = Workflow::new("w");
        wf.task("a", ["ghost"], |_| Ok(TaskOutcome::new()));
        assert!(wf.validate().unwrap_err().contains("unknown"));

        let mut wf = Workflow::new("w");
        wf.task("a", ["a"], |_| Ok(TaskOutcome::new()));
        assert!(wf.validate().is_err());
    }

    #[test]
    fn cycles_rejected() {
        let mut wf = Workflow::new("w");
        wf.task("a", ["b"], |_| Ok(TaskOutcome::new()));
        wf.task("b", ["a"], |_| Ok(TaskOutcome::new()));
        assert!(wf.validate().unwrap_err().contains("cycle"));
    }

    #[test]
    fn outcome_builder() {
        let o = TaskOutcome::new()
            .output("x.bin", vec![1, 2, 3])
            .param("rows", 3);
        assert_eq!(o.outputs["x.bin"], vec![1, 2, 3]);
        assert_eq!(o.params["rows"], "3");
    }

    #[test]
    fn ctx_exposes_upstream() {
        let mut upstream = BTreeMap::new();
        upstream.insert(
            "prep".to_string(),
            TaskOutcome::new().output("data", b"abc".to_vec()),
        );
        let ctx = TaskCtx {
            upstream: &upstream,
        };
        assert_eq!(ctx.input("prep", "data"), Some(b"abc".as_slice()));
        assert_eq!(ctx.input("prep", "missing"), None);
        assert_eq!(ctx.input("ghost", "data"), None);
    }
}
