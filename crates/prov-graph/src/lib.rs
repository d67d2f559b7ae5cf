//! # prov-graph
//!
//! Graph analysis over W3C PROV documents: adjacency indexing, lineage
//! traversal, sub-graph extraction, document diffing and Graphviz DOT
//! export (used to render provenance pictures like Figure 1 of the
//! yProv4ML paper).
//!
//! The graph borrows the underlying [`prov_model::ProvDocument`]; nodes
//! are element identifiers and edges are the document's relations.
//! PROV relations point *backwards in time* (an entity `wasGeneratedBy`
//! the activity that made it), so following out-edges walks towards the
//! *origins* of a node — exactly what lineage queries want.
//!
//! ```
//! use prov_model::{ProvDocument, QName};
//! use prov_graph::ProvGraph;
//!
//! let mut doc = ProvDocument::new();
//! doc.namespaces_mut().register("ex", "http://ex/").unwrap();
//! let (data, train, model) = (QName::new("ex", "data"),
//!                             QName::new("ex", "train"),
//!                             QName::new("ex", "model"));
//! doc.entity(data.clone());
//! doc.activity(train.clone());
//! doc.entity(model.clone());
//! doc.used(train.clone(), data.clone());
//! doc.was_generated_by(model.clone(), train.clone());
//!
//! let graph = ProvGraph::new(&doc);
//! let origins = graph.ancestors(&model);
//! assert!(origins.contains(&data));
//! ```
//!
//! Lineage questions beyond plain reachability go through the planned
//! [`engine`]: path-pattern IR from `prov-model::query` is planned
//! against the index statistics ([`GraphIndexStats`]) and executed
//! against the adjacency index. The [`audit`] module builds the mlprov
//! ML-audit scenarios (data leakage, GDPR membership, group fairness,
//! cross-run joins) on top of it.

pub mod audit;
pub mod diff;
pub mod dot;
pub mod engine;
pub mod graph;

pub use diff::{diff, DocumentDiff, ElementChange};
pub use dot::{to_dot, DotOptions};
pub use engine::{execute, execute_with_plan, plan, MatchRow, MatchSet, PlanSide, QueryPlan};
pub use graph::{subgraph, Edge, GraphIndex, GraphIndexStats, ProvGraph, SharedGraph};
