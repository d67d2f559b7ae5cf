//! Multi-node clustering: consistent-hash placement, hash-chain
//! streaming replication, and client-arbitrated failover.
//!
//! A cluster is N independent `yprov-service` instances, each running
//! the same store/HTTP stack. Three pieces tie them together:
//!
//! * **[`Ring`]** — a consistent-hash ring with virtual nodes. Both the
//!   client layer and each server derive document placement from the
//!   same node-id set, so no coordination service is needed: the key's
//!   first ring node is its write primary, the next `replication - 1`
//!   distinct nodes hold its copies.
//! * **[`Replicator`]** — the primary side of the streaming protocol.
//!   After a node commits an upload to its own ledger, it ships the
//!   new chain entry *plus the canonical document bytes the entry's
//!   digest commits to* to the key's replica set, in one request per
//!   replica (`POST /api/v0/replication/frames`). A node streams one
//!   chain and a replica accepts only the next index, so the request
//!   is a *batch*: the entries the replica has not seen yet (puts that
//!   went to other peers), then the new one. The primary keeps, per
//!   peer, the next index that peer expects; gap entries carry their
//!   document only when the peer is in the id's placement and the
//!   bytes still exist, otherwise they ship chain-only, marked when a
//!   later entry supersedes them. The replica
//!   verifies every frame against its durable per-source cursor chain
//!   before applying ([`crate::store::DocumentStore::apply_replicated`])
//!   and answers with its new head. A `409` names the index the
//!   replica expects (restart, healed partition, torn request) and the
//!   primary resumes from there through the same batch builder.
//! * **[`ClusterClient`]** — the thin routing layer over the existing
//!   REST verbs. Membership is health-probe-driven: a node that stops
//!   answering `/healthz` (or a request) drops out of the client's
//!   ring, and the key's next surviving ring node takes over.
//!   *Promotion is gated on verification*: before a write fails over,
//!   the candidate must pass `GET /api/v0/ledger/verify` — a replica
//!   with a broken or tampered chain is never promoted.
//!
//! Nothing here injects faults. The cluster tests put a
//! `testkit::FaultProxy` on each peer link and drop, tear, duplicate or
//! delay the pushes on the wire, where a replica sees them exactly as it
//! would see a real network's.

use crate::client::{encode_id, Client, ClientError, Response, RetryPolicy};
use crate::error::ServiceError;
use crate::http::{error_body, error_response};
use crate::ledger::LedgerEntry;
use crate::store::{DocumentStore, Upload};
use crate::sync::lock;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Virtual nodes per member: enough that removing one node moves only
/// ~1/N of the keyspace, small enough that ring construction stays
/// trivially cheap.
const VNODES: usize = 64;

/// A cluster member: stable identity plus where to reach it. The id is
/// what hashes onto the ring and what stamps replication frames, so it
/// must stay the same across restarts even if the address changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Stable node identity (`"node-a"`, ...).
    pub id: String,
    /// The node's HTTP address.
    pub addr: SocketAddr,
}

impl NodeSpec {
    /// A member named `id` at `addr`.
    pub fn new(id: impl Into<String>, addr: SocketAddr) -> NodeSpec {
        NodeSpec {
            id: id.into(),
            addr,
        }
    }
}

fn ring_point(bytes: &[u8]) -> u64 {
    let digest = yprov4ml::hash::sha256(bytes);
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

/// A consistent-hash ring with virtual nodes. Placement depends only
/// on the member-id set, so every participant that agrees on
/// membership agrees on placement.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, index into nodes)`, sorted by point.
    points: Vec<(u64, usize)>,
    nodes: Vec<String>,
}

impl Ring {
    /// A ring over the given member ids (duplicates collapse).
    pub fn new<I, S>(members: I) -> Ring
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut nodes: Vec<String> = members.into_iter().map(Into::into).collect();
        nodes.sort();
        nodes.dedup();
        let mut points = Vec::with_capacity(nodes.len() * VNODES);
        for (i, node) in nodes.iter().enumerate() {
            for v in 0..VNODES {
                points.push((ring_point(format!("{node}\u{0}{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Ring { points, nodes }
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The member ids, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The distinct nodes responsible for `key`, clockwise from its
    /// ring position: the primary first, then the replicas. At most
    /// `n` (clamped to the member count).
    pub fn replicas_for(&self, key: &str, n: usize) -> Vec<&str> {
        self.live_replicas_for(key, n, |_| true)
    }

    /// [`Self::replicas_for`] over the members `live` admits: the order
    /// a ring of those members alone gives, since a member's points
    /// depend on its id only and equal points break ties by sorted id.
    fn live_replicas_for(&self, key: &str, n: usize, live: impl Fn(&str) -> bool) -> Vec<&str> {
        let want = n.min(self.nodes.iter().filter(|node| live(node)).count());
        if want == 0 {
            return Vec::new();
        }
        let target = ring_point(key.as_bytes());
        let start = self.points.partition_point(|(p, _)| *p < target);
        let mut out: Vec<&str> = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            let name = self.nodes[node].as_str();
            if live(name) && !out.contains(&name) {
                out.push(name);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The key's write primary (`None` on an empty ring).
    fn primary_for(&self, key: &str) -> Option<&str> {
        self.replicas_for(key, 1).into_iter().next()
    }
}

// ---------------------------------------------------------------------------
// Frame wire format
// ---------------------------------------------------------------------------

/// One frame: a chain entry from the source's ledger and, unless it
/// ships chain-only, the canonical document bytes its digest commits
/// to.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<'a> {
    /// The entry, verbatim from the source's ledger.
    pub entry: LedgerEntry,
    /// The bytes `entry`'s digest commits to; `None` ships chain-only.
    pub document: Option<Cow<'a, str>>,
    /// A later entry of the source's ledger names the same id, so this
    /// one is not the chain's last word on it. Chain-only and so
    /// marked, a frame only advances the replica's cursor: whether the
    /// replica's copy of the id still stands is the later entry's call,
    /// in this request or in one that has not been sent yet.
    pub superseded: bool,
}

/// A batch is cut once it holds this many bytes, well under
/// [`crate::http::ServerConfig::max_body`]'s default; a single larger
/// frame goes alone.
const BATCH_BYTES: usize = 8 * 1024 * 1024;

/// What a frame adds to a batch's size: its document and (generously)
/// its entry in the header line.
fn frame_bytes(frame: &Frame) -> usize {
    512 + frame.document.as_ref().map_or(0, |d| d.len())
}

/// Encodes the body of one `POST /api/v0/replication/frames`: a JSON
/// header line — the source, and per frame its entry, the byte length
/// of its document (`null` for chain-only) and whether a later entry
/// supersedes it — followed by the documents' bytes, unescaped, in
/// frame order.
fn encode_batch(source: &str, frames: &[Frame]) -> String {
    let mut body = json::to_string(|w| {
        w.object(|w| {
            w.key("frames");
            w.array(|w| {
                for f in frames {
                    w.object(|w| {
                        w.key("document_bytes");
                        match &f.document {
                            Some(d) => w.u64(d.len() as u64),
                            None => w.null(),
                        }
                        w.key("entry");
                        f.entry.write_json(w);
                        w.key("superseded");
                        w.bool(f.superseded);
                    })
                }
            });
            w.key("source");
            w.str(source);
        })
    });
    body.push('\n');
    for f in frames {
        body.push_str(f.document.as_deref().unwrap_or(""));
    }
    body
}

/// Why a request body is not a batch.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BatchError {
    /// No usable header line; nothing is known about the sender.
    Header(String),
    /// The header is sound but the bytes after it are not the documents
    /// it announces (cut or padded in flight).
    Torn {
        /// The sender, from the header.
        source: String,
        /// What does not add up.
        reason: String,
    },
}

/// Decodes [`encode_batch`]'s output into the source and its frames,
/// each document a slice of `body`. All or nothing: the announced
/// lengths must cover the bytes after the header line exactly and fall
/// on character boundaries.
pub(crate) fn decode_batch(body: &str) -> Result<(String, Vec<Frame<'_>>), BatchError> {
    let header = |reason: &str| BatchError::Header(reason.to_string());
    let (line, mut rest) = body
        .split_once('\n')
        .ok_or_else(|| header("no header line"))?;
    let v: json::Value = json::parse(line).map_err(|e| BatchError::Header(e.to_string()))?; // reads JSON
    let source = v.get("source").and_then(|s| s.as_str());
    let source = source.ok_or_else(|| header("missing \"source\""))?;
    let announced = v.get("frames").and_then(|f| f.as_array());
    let announced = announced.ok_or_else(|| header("missing \"frames\""))?;
    let torn = |reason: String| BatchError::Torn {
        source: source.to_string(),
        reason,
    };
    let mut frames = Vec::with_capacity(announced.len());
    for f in announced {
        let entry = f.get("entry").and_then(LedgerEntry::from_json);
        let entry = entry.ok_or_else(|| header("a frame is missing a well-formed \"entry\""))?;
        let superseded = f.get("superseded").and_then(|s| s.as_bool());
        let superseded = superseded.ok_or_else(|| header("a frame is missing \"superseded\""))?;
        let document = match f.get("document_bytes") {
            Some(json::Value::Null) => None, // reads JSON
            Some(n) => {
                let len = n.as_u64().and_then(|n| usize::try_from(n).ok());
                let len = len.ok_or_else(|| header("a \"document_bytes\" is not a length"))?;
                let (doc, after) = rest.split_at_checked(len).ok_or_else(|| {
                    torn(format!(
                        "entry {}: {len} document bytes announced, {} left or cut inside a character",
                        entry.index,
                        rest.len()
                    ))
                })?;
                rest = after;
                Some(Cow::Borrowed(doc))
            }
            None => return Err(header("a frame is missing \"document_bytes\"")),
        };
        frames.push(Frame {
            entry,
            document,
            superseded,
        });
    }
    if !rest.is_empty() {
        return Err(torn(format!(
            "{} bytes after the last document",
            rest.len()
        )));
    }
    Ok((source.to_string(), frames))
}

/// The replica side of `POST /api/v0/replication/frames`: decodes the
/// batch, applies its frames in order through
/// [`DocumentStore::apply_replicated`] (a chain-only frame marked
/// superseded through [`DocumentStore::apply_superseded`]: same checks,
/// no drop), stops at the first refusal, and answers with this
/// replica's new head for the source. A refusal is a `409` naming the
/// index to resume from (when resending can help).
pub(crate) fn apply_batch(
    store: &DocumentStore,
    registry: &obs::Registry,
    body: &[u8],
) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("body is not UTF-8"));
    };
    let refuse = |reason: String, expect_index: Option<u64>| {
        registry.counter("replication_rejects_total").inc();
        (409, refusal_body(&reason, expect_index))
    };
    let (source, frames) = match decode_batch(text) {
        Ok(batch) => batch,
        Err(BatchError::Header(reason)) => {
            return (400, error_body(&format!("bad batch: {reason}")))
        }
        Err(BatchError::Torn { source, reason }) => {
            let next = store.replication_head(&source).0;
            return refuse(format!("torn batch: {reason}"), Some(next));
        }
    };
    registry
        .counter("replication_frames_total")
        .add(frames.len() as u64);
    registry
        .counter("replication_bytes_total")
        .add(body.len() as u64);
    for frame in frames {
        let applied = match (frame.document, frame.superseded) {
            (None, true) => store.apply_superseded(&source, frame.entry),
            (document, _) => store.apply_replicated(&source, frame.entry, document.as_deref()),
        };
        match applied {
            Ok(_) => {}
            Err(ServiceError::Replication {
                reason,
                expect_index,
            }) => return refuse(reason, expect_index),
            Err(e) => return error_response(&e),
        }
    }
    let (next, head) = store.replication_head(&source);
    (200, head_body(&source, next, &head))
}

/// A `409` from [`apply_batch`]: why, and the index to resume from.
fn refusal_body(reason: &str, expect_index: Option<u64>) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("error");
            w.str(reason);
            w.key("expect_index");
            match expect_index {
                Some(index) => w.u64(index),
                None => w.null(),
            }
        })
    })
}

/// A replica's head for `source`: the next index it expects and the
/// hash of its last entry. [`apply_batch`] answers with it, and so does
/// `GET /api/v0/replication/head`.
pub(crate) fn head_body(source: &str, next_index: u64, head_hash: &str) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("head_hash");
            w.str(head_hash);
            w.key("next_index");
            w.u64(next_index);
            w.key("source");
            w.str(source);
        })
    })
}

// ---------------------------------------------------------------------------
// Server-side: cluster config + the primary's replicator
// ---------------------------------------------------------------------------

/// Cluster membership and replication tunables for one server.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's stable identity — the `source` stamped on every
    /// frame it streams and its name on the placement ring.
    pub node_id: String,
    /// The *other* cluster members.
    pub peers: Vec<NodeSpec>,
    /// Total copies of each document, the local one included; clamped
    /// to the cluster size.
    pub replication: usize,
    /// Retry policy for frame pushes. Keep attempts low — a dead peer
    /// is paid for on every upload until the client's ring drops it.
    pub push_policy: RetryPolicy,
}

impl ClusterConfig {
    /// A config for `node_id` with the given peers: replication factor
    /// 2, default push policy.
    pub fn new(node_id: impl Into<String>, peers: Vec<NodeSpec>) -> ClusterConfig {
        ClusterConfig {
            node_id: node_id.into(),
            peers,
            replication: 2,
            push_policy: RetryPolicy::default(),
        }
    }
}

/// Replica confirmations an upload needs; one keeps the cluster writable with a peer down.
const REQUIRED_ACKS: usize = 1;

/// How one upload's replication went.
#[derive(Debug, Clone)]
pub struct ReplicationOutcome {
    /// Replicas that confirmed the frame.
    pub confirmed: usize,
    /// Confirmations required to acknowledge the upload.
    pub required: usize,
    /// Per-peer failure detail, empty when everything confirmed.
    pub errors: Vec<String>,
}

impl ReplicationOutcome {
    /// True when enough replicas confirmed to acknowledge the write.
    pub fn acked(&self) -> bool {
        self.confirmed >= self.required
    }
}

/// How often one push follows a `409` to the index it names before
/// giving up on the peer for this upload.
const MAX_RESUMES: u32 = 3;

/// The primary's view of one peer.
struct Link {
    /// Pooled keep-alive client: pushes ride one connection instead of
    /// paying a TCP connect each. Outside the lock, so the ops plane
    /// can ask a slow peer for its health while a push waits on it.
    client: Client,
    /// The index of this node's chain the peer expects next: read from
    /// the peer's head on first contact, then kept from its answers.
    /// Forgotten after any failed push and relearned (in memory only,
    /// so also after a restart). Frames from this node's chain must
    /// reach a replica in order, and order is a per-replica property,
    /// so each peer has its own lock, held for a whole push.
    next_index: Mutex<Option<u64>>,
}

/// What a peer said to one push request.
enum Reply {
    /// Applied; the peer's chain for this node now ends before this
    /// index.
    Head(u64),
    /// Refused; resending from this index can help.
    Resume(u64),
}

/// The primary side of the streaming protocol: owned by a
/// cluster-configured server, invoked synchronously after every local
/// upload commit.
pub struct Replicator {
    cfg: ClusterConfig,
    ring: Ring,
    pushes: Arc<obs::Counter>,
    push_failures: Arc<obs::Counter>,
    /// One per entry of `cfg.peers`, in that order.
    links: Vec<Link>,
}

impl Replicator {
    /// A replicator for `cfg`, registering its counters in `registry`
    /// (the owning server's, so they surface in `/metrics`).
    pub fn new(cfg: ClusterConfig, registry: &obs::Registry) -> Replicator {
        registry.set_help(
            "replication_pushes_total",
            "Push requests sent to replicas (one batch of frames each), resumed ones included.",
        );
        registry.set_help(
            "replication_push_failures_total",
            "Uploads a peer did not confirm: transport failure, refusal, or resumes exhausted.",
        );
        let mut members: Vec<String> = cfg.peers.iter().map(|p| p.id.clone()).collect();
        members.push(cfg.node_id.clone());
        let links = cfg.peers.iter().map(|p| Link {
            client: Client::new(p.addr, cfg.push_policy),
            next_index: Mutex::new(None),
        });
        Replicator {
            ring: Ring::new(members),
            pushes: registry.counter("replication_pushes_total"),
            push_failures: registry.counter("replication_push_failures_total"),
            links: links.collect(),
            cfg,
        }
    }

    /// This node's identity on the ring.
    pub fn node_id(&self) -> &str {
        &self.cfg.node_id
    }

    /// The other cluster members, as configured, each with its pooled
    /// keep-alive client — the same connection pushes ride, shared with
    /// metrics/health federation so the ops plane adds no sockets of
    /// its own.
    pub fn peers(&self) -> impl Iterator<Item = (&NodeSpec, &Client)> {
        let clients = self.links.iter().map(|link| &link.client);
        self.cfg.peers.iter().zip(clients)
    }

    /// The full-membership placement ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Whether `peer` is one of the nodes document `id` is placed on.
    fn places(&self, peer: &NodeSpec, id: &str) -> bool {
        self.ring
            .replicas_for(id, self.cfg.replication)
            .contains(&peer.id.as_str())
    }

    /// Streams one committed upload to the key's replica set. Walks the
    /// key's full ring order (not just the first `replication` nodes):
    /// when a replica-set member is down, the next surviving successor
    /// takes the copy, so the write can still reach `REQUIRED_ACKS`.
    pub fn replicate(&self, store: &DocumentStore, up: &Upload) -> ReplicationOutcome {
        let candidates: Vec<usize> = self
            .ring
            .replicas_for(&up.id, self.ring.nodes().len())
            .into_iter()
            .filter_map(|id| self.cfg.peers.iter().position(|p| p.id == id))
            .collect();
        let desired = self.cfg.replication.saturating_sub(1).min(candidates.len());
        let required = REQUIRED_ACKS.min(desired);

        let mut confirmed = 0usize;
        let mut errors = Vec::new();
        for at in candidates {
            if confirmed >= desired {
                break;
            }
            match self.push(store, at, up) {
                Ok(()) => confirmed += 1,
                Err(e) => {
                    self.push_failures.inc();
                    errors.push(format!("{}: {e}", self.cfg.peers[at].id));
                }
            }
        }
        ReplicationOutcome {
            confirmed,
            required,
            errors,
        }
    }

    /// Brings peer `at` up to and including `up`'s entry, under the
    /// peer's lock.
    fn push(&self, store: &DocumentStore, at: usize, up: &Upload) -> Result<(), String> {
        let (peer, link) = (&self.cfg.peers[at], &self.links[at]);
        let mut next_index = lock(&link.next_index);
        let mut span = obs::trace::span("replication_push");
        if obs::trace::is_enabled() {
            span.annotate("peer", peer.id.clone());
            span.annotate("index", up.entry.index.to_string());
        }
        let result = self.catch_up(store, peer, &link.client, &mut next_index, up);
        if let Err(e) = &result {
            *next_index = None;
            if obs::trace::is_enabled() {
                span.annotate("error", e.clone());
            }
        }
        result
    }

    /// Ships `[peer's next index, up's entry]` in as few requests as
    /// [`BATCH_BYTES`] allows, following a refusal to the index it
    /// names at most [`MAX_RESUMES`] times.
    fn catch_up(
        &self,
        store: &DocumentStore,
        peer: &NodeSpec,
        client: &Client,
        next_index: &mut Option<u64>,
        up: &Upload,
    ) -> Result<(), String> {
        let mut next = match *next_index {
            Some(next) => next,
            None => self.peer_head(store, client)?,
        };
        if next > up.entry.index {
            // A later upload's push took the lock first and carried this
            // entry in its gap — with its document only if the peer is
            // in the id's placement.
            *next_index = Some(next);
            return match self.places(peer, &up.id) {
                true => Ok(()),
                false => Err(format!(
                    "entry {} already reached the peer chain-only",
                    up.entry.index
                )),
            };
        }
        let mut resumes = 0;
        while next <= up.entry.index {
            let frames = self.next_batch(store, peer, next, up)?;
            match self.post(client, &frames)? {
                Reply::Head(head) if head > next => next = head,
                Reply::Head(head) => {
                    return Err(format!("peer acknowledged {next}.. but stays at {head}"))
                }
                Reply::Resume(from) if resumes < MAX_RESUMES => {
                    resumes += 1;
                    next = from;
                }
                Reply::Resume(from) => {
                    return Err(format!("peer still expects {from} after {resumes} resumes"))
                }
            }
            *next_index = Some(next);
        }
        Ok(())
    }

    /// The index of this node's chain `client`'s server expects next.
    /// What the peer holds must be a prefix of this node's ledger: a
    /// head this ledger does not contain (this node lost a replicated
    /// tail in a crash) is a fork no push can mend.
    fn peer_head(&self, store: &DocumentStore, client: &Client) -> Result<u64, String> {
        let path = format!(
            "/api/v0/replication/head?source={}",
            encode_id(&self.cfg.node_id)
        );
        let resp = client.get(&path).map_err(|e| e.to_string())?;
        let v: json::Value = json::parse(&resp.body).unwrap_or_default(); // reads JSON
        let next = v.get("next_index").and_then(|n| n.as_u64());
        let (200, Some(next)) = (resp.status, next) else {
            return Err(format!("head: HTTP {}: {}", resp.status, resp.body.trim()));
        };
        let ours = match next.checked_sub(1) {
            None => Some(crate::ledger::GENESIS.to_string()),
            Some(last) => store
                .replication_log(last, next)
                .pop()
                .map(|(entry, _)| entry.entry_hash),
        };
        match ours.as_deref() == v.get("head_hash").and_then(|h| h.as_str()) {
            true => Ok(next),
            false => Err(format!(
                "the peer's chain for this node ({next} entries) is not a prefix of this ledger"
            )),
        }
    }

    /// The frames of the next request to `peer`: this node's entries
    /// from `from` on, up to [`BATCH_BYTES`], ending with `up`'s own if
    /// it fits. An entry before `up`'s carries its document only if the
    /// peer is in the id's placement and the bytes still exist;
    /// otherwise it ships chain-only.
    fn next_batch<'a>(
        &self,
        store: &DocumentStore,
        peer: &NodeSpec,
        from: u64,
        up: &'a Upload,
    ) -> Result<Vec<Frame<'a>>, String> {
        let mut frames = Vec::new();
        let mut bytes = 0;
        for (entry, mut superseded) in store.replication_log(from, up.entry.index) {
            let mut document = None;
            if !superseded && self.places(peer, &entry.document_id) {
                document = store
                    .committed_document(&entry)
                    .map_err(|e| e.to_string())?;
                if document.is_none() {
                    // Deleted — or replaced since the log was read, and
                    // then the peer must hear that a later entry
                    // supersedes this one: it keeps its copy for it.
                    let index = entry.index;
                    superseded = store.replication_log(index, index + 1)[0].1;
                }
            }
            let frame = Frame {
                entry,
                document: document.map(Cow::Owned),
                superseded,
            };
            bytes += frame_bytes(&frame);
            if bytes > BATCH_BYTES && !frames.is_empty() {
                return Ok(frames);
            }
            frames.push(frame);
        }
        let own = Frame {
            entry: up.entry.clone(),
            document: Some(Cow::Borrowed(&*up.canonical_json)),
            superseded: false,
        };
        if bytes + frame_bytes(&own) <= BATCH_BYTES || frames.is_empty() {
            frames.push(own);
        }
        Ok(frames)
    }

    /// One push request.
    fn post(&self, client: &Client, frames: &[Frame]) -> Result<Reply, String> {
        let body = encode_batch(&self.cfg.node_id, frames);
        self.pushes.inc();
        let resp = client
            .send("POST", "/api/v0/replication/frames", Some(&body))
            .map_err(|e| e.to_string())?;
        let v: json::Value = json::parse(&resp.body).unwrap_or_default(); // reads JSON
        let field = |name: &str| v.get(name).and_then(|n| n.as_u64());
        match (resp.status, field("next_index"), field("expect_index")) {
            (200, Some(head), _) => Ok(Reply::Head(head)),
            (409, _, Some(from)) => Ok(Reply::Resume(from)),
            (status, ..) => Err(format!("HTTP {status}: {}", resp.body.trim())),
        }
    }
}

// ---------------------------------------------------------------------------
// Client-side: routing, health probes, promotion
// ---------------------------------------------------------------------------

/// Why a routed request failed on every candidate node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No live node could serve the request; `detail` lists what each
    /// candidate said.
    Unavailable {
        /// Per-node failure detail.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Unavailable { detail } => {
                write!(f, "no cluster node could serve the request: {detail}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Single-attempt, short-timeout variant of `policy` for probes and
/// verification gates, so a dead node costs milliseconds, not a full
/// retry schedule.
fn probe_policy(policy: RetryPolicy) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        request_timeout: policy.request_timeout.min(Duration::from_secs(2)),
        ..policy
    }
}

/// The thin client-side routing layer over the REST verbs. Keeps a
/// health view of the membership; routes writes to the key's primary
/// and fails them over — *promotion* — to the next ring node whose
/// chains verify; fails reads over along the same ring order.
pub struct ClusterClient {
    nodes: Vec<NodeSpec>,
    replication: usize,
    policy: RetryPolicy,
    /// The ring over every member, live or not. Requests walk it past
    /// the dead; a key's first node on it is the one primary a write
    /// reaches without a verification gate.
    members: Ring,
    /// Health-probe-driven liveness per node id.
    alive: Mutex<BTreeMap<String, bool>>,
    /// Cached keep-alive clients per node, one set for routed requests
    /// and one (single-attempt, short-timeout) for probes/verification.
    clients: Mutex<BTreeMap<String, Client>>,
    probe_clients: Mutex<BTreeMap<String, Client>>,
}

impl ClusterClient {
    /// A client over `nodes` with the given replication factor. All
    /// nodes start presumed alive; [`Self::probe`] and per-request
    /// transport failures update the view.
    pub fn new(nodes: Vec<NodeSpec>, replication: usize, policy: RetryPolicy) -> ClusterClient {
        let members = Ring::new(nodes.iter().map(|n| n.id.clone()));
        let alive = nodes.iter().map(|n| (n.id.clone(), true)).collect();
        ClusterClient {
            nodes,
            replication,
            policy,
            members,
            alive: Mutex::new(alive),
            clients: Mutex::new(BTreeMap::new()),
            probe_clients: Mutex::new(BTreeMap::new()),
        }
    }

    /// The cached keep-alive client for `node`.
    fn client_for(&self, node: &NodeSpec) -> Client {
        lock(&self.clients)
            .entry(node.id.clone())
            .or_insert_with(|| Client::new(node.addr, self.policy))
            .clone()
    }

    /// The cached probe-policy client for `node`.
    fn probe_client_for(&self, node: &NodeSpec) -> Client {
        lock(&self.probe_clients)
            .entry(node.id.clone())
            .or_insert_with(|| Client::new(node.addr, probe_policy(self.policy)))
            .clone()
    }

    /// Probes every node's `/healthz`, updating ring membership.
    /// Returns the ids that answered.
    pub fn probe(&self) -> Vec<String> {
        let mut live = Vec::new();
        for node in &self.nodes {
            let ok = self
                .probe_client_for(node)
                .health()
                .map(|r| r.status == 200)
                .unwrap_or(false);
            lock(&self.alive).insert(node.id.clone(), ok);
            if ok {
                live.push(node.id.clone());
            }
        }
        live
    }

    /// The ring over currently-live members, built on each call.
    pub fn ring(&self) -> Ring {
        let alive = lock(&self.alive);
        Ring::new(alive.iter().filter(|(_, up)| **up).map(|(id, _)| id))
    }

    /// The first `n` live nodes for `id`, primary first: the
    /// full-membership ring walked past its dead members, the same
    /// order the ring of the live ones gives.
    fn replicas(&self, id: &str, n: usize) -> Vec<String> {
        let alive = lock(&self.alive);
        let nodes = self
            .members
            .live_replicas_for(id, n, |node| alive.get(node) == Some(&true));
        nodes.into_iter().map(String::from).collect()
    }

    /// Where `id` lives on the live ring right now: primary first.
    pub fn placement(&self, id: &str) -> Vec<String> {
        self.replicas(id, self.replication)
    }

    fn mark_dead(&self, id: &str) {
        lock(&self.alive).insert(id.to_string(), false);
    }

    fn spec(&self, id: &str) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The key's candidate nodes in failover order: the live ring
    /// walked clockwise from the key, so when the replica set's members
    /// die the surviving successors still appear.
    fn route_order(&self, id: &str) -> Vec<String> {
        self.replicas(id, self.nodes.len())
    }

    /// Chain-verification gate used before promoting a node: its
    /// ledger and every replication cursor must verify end-to-end.
    pub fn verified(&self, node_id: &str) -> bool {
        let Some(node) = self.spec(node_id) else {
            return false;
        };
        self.probe_client_for(node)
            .get("/api/v0/ledger/verify")
            .map(|r| r.status == 200)
            .unwrap_or(false)
    }

    /// Routed write: `PUT` to the key's primary; on its death the next
    /// ring node that passes [`Self::verified`] is promoted and takes
    /// the write (the promoted node then owns the entry on *its* own
    /// chain and replicates it onward). The primary is the key's first
    /// node on the full-membership ring, so a node a probe moved to the
    /// front of the live ring is still gated.
    pub fn put(&self, id: &str, prov_json: &str) -> Result<Response, ClusterError> {
        let primary = self.members.primary_for(id);
        let mut detail = Vec::new();
        for node_id in &self.route_order(id) {
            let Some(node) = self.spec(node_id) else {
                continue;
            };
            if primary != Some(node_id.as_str()) && !self.verified(node_id) {
                detail.push(format!("{node_id}: not promoted (chain did not verify)"));
                continue;
            }
            let client = self.client_for(node);
            match client.send(
                "PUT",
                &format!("/api/v0/documents/{}", encode_id(id)),
                Some(prov_json),
            ) {
                Ok(resp) if resp.status < 500 => return Ok(resp),
                Ok(resp) => detail.push(format!("{node_id}: HTTP {}", resp.status)),
                Err(e) => {
                    self.mark_dead(node_id);
                    detail.push(format!("{node_id}: {e}"));
                }
            }
        }
        Err(ClusterError::Unavailable {
            detail: detail.join("; "),
        })
    }

    /// Routed read: tries the key's nodes in ring order until one
    /// answers. A 404 is remembered but later replicas are still asked
    /// — only when no replica holds the document is the 404 returned.
    pub fn get(&self, id: &str) -> Result<Response, ClusterError> {
        let path = format!("/api/v0/documents/{}", encode_id(id));
        self.read_any(id, |status| status == 200, |client| client.get(&path))
    }

    /// Runs a lineage query / ML audit against document `id`, failing
    /// over across the document's replica set exactly like [`Self::get`]
    /// — the query endpoint is side-effect free, so replaying it on the
    /// next replica is always safe. A 400 (the query itself is bad) is
    /// the answer, wherever it comes from.
    pub fn query(&self, id: &str, body_json: &str) -> Result<Response, ClusterError> {
        self.read_any(
            id,
            |status| status == 200 || status == 400,
            |client| client.query(id, body_json),
        )
    }

    /// Sends `request` to `id`'s nodes in ring order until a status
    /// `answers`. A 404 means that node does not hold the document: it
    /// is remembered and surfaced only when no node answers; a
    /// transport failure marks the node dead.
    fn read_any(
        &self,
        id: &str,
        answers: impl Fn(u16) -> bool,
        request: impl Fn(&Client) -> Result<Response, ClientError>,
    ) -> Result<Response, ClusterError> {
        let mut detail = Vec::new();
        let mut missing: Option<Response> = None;
        for node_id in &self.route_order(id) {
            let Some(node) = self.spec(node_id) else {
                continue;
            };
            match request(&self.client_for(node)) {
                Ok(resp) if answers(resp.status) => return Ok(resp),
                Ok(resp) if resp.status == 404 => missing = Some(resp),
                Ok(resp) => detail.push(format!("{node_id}: HTTP {}", resp.status)),
                Err(e) => {
                    self.mark_dead(node_id);
                    detail.push(format!("{node_id}: {e}"));
                }
            }
        }
        missing.ok_or(ClusterError::Unavailable {
            detail: detail.join("; "),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Server, ServerConfig};
    use crate::store::DocumentStore;
    use prov_model::{ProvDocument, QName};
    use testkit::{Fault, FaultProxy};

    const FRAMES: &str = "/api/v0/replication/frames";

    #[test]
    fn ring_placement_is_deterministic_and_distinct() {
        let ring = Ring::new(["node-a", "node-b", "node-c"]);
        for key in ["run-1", "run-2", "doc-17", "x"] {
            let one = ring.replicas_for(key, 2);
            let two = ring.replicas_for(key, 2);
            assert_eq!(one, two, "placement must be deterministic");
            assert_eq!(one.len(), 2);
            assert_ne!(one[0], one[1], "replicas must be distinct nodes");
            assert_eq!(ring.primary_for(key), Some(one[0]));
        }
        // Clamped to the member count; empty ring places nowhere.
        assert_eq!(ring.replicas_for("k", 10).len(), 3);
        assert!(Ring::new(Vec::<String>::new())
            .replicas_for("k", 2)
            .is_empty());
    }

    #[test]
    fn ring_spreads_keys_and_survives_member_loss() {
        let full = Ring::new(["node-a", "node-b", "node-c"]);
        let mut owners = std::collections::BTreeMap::new();
        for i in 0..300 {
            let key = format!("run-{i}");
            *owners
                .entry(full.primary_for(&key).unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        assert_eq!(owners.len(), 3, "every node should own some keys");
        for n in owners.values() {
            assert!(*n > 30, "grossly unbalanced ring: {owners:?}");
        }
        // Removing one member only moves the keys it owned.
        let reduced = Ring::new(["node-a", "node-c"]);
        for i in 0..300 {
            let key = format!("run-{i}");
            let before = full.primary_for(&key).unwrap();
            if before != "node-b" {
                assert_eq!(reduced.primary_for(&key), Some(before), "{key}");
            }
        }
    }

    #[test]
    fn routing_past_dead_members_is_the_live_rings_order() {
        testkit::check(64, |rng, size| {
            let members = 1 + rng.len(0..8, size);
            let ids: Vec<String> = (0..members).map(|_| rng.string(b"abc-", 3)).collect();
            let addr: std::net::SocketAddr = "127.0.0.1:9".parse().unwrap();
            let nodes = ids.iter().map(|id| NodeSpec::new(id, addr)).collect();
            let cluster = ClusterClient::new(nodes, 1 + rng.below(3), fast_policy());
            for id in &ids {
                if rng.below(3) == 0 {
                    cluster.mark_dead(id);
                }
            }
            let live = cluster.ring();
            for _ in 0..16 {
                let len = 1 + rng.below(8);
                let key = rng.string(b"run-0123456789", len);
                let all = live.replicas_for(&key, members);
                assert_eq!(cluster.route_order(&key), all, "{ids:?} {key}");
                let placed = live.replicas_for(&key, cluster.replication);
                assert_eq!(cluster.placement(&key), placed, "{ids:?} {key}");
            }
        });
    }

    /// Three frames off one chain: a pretty-printed document (raw
    /// newlines, non-ASCII text), a chain-only entry, a compact one.
    fn sample_frames() -> Vec<Frame<'static>> {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(QName::new("ex", "model"))
            .label("modèle — 模型 🙂\nsecond line");
        let pretty = doc.to_json_string_pretty().unwrap();
        assert!(pretty.contains('\n') && !pretty.is_ascii());
        let compact = doc_json("data");
        let mut ledger = crate::ledger::Ledger::new();
        let first = ledger.append("run-é", pretty.as_bytes()).clone();
        let second = ledger.append("run-2", b"superseded").clone();
        let third = ledger.append("run-2", compact.as_bytes()).clone();
        let frame = |entry, document: Option<String>, superseded| Frame {
            entry,
            document: document.map(Cow::Owned),
            superseded,
        };
        vec![
            frame(first, Some(pretty), false),
            frame(second, None, true),
            frame(third, Some(compact), false),
        ]
    }

    /// The `json!` trees these bodies were printed from: the reference
    /// each body is held to.
    mod reference {
        use super::*;
        use json::json;

        pub(super) fn encode_batch(source: &str, frames: &[Frame]) -> String {
            let header: Vec<json::Value> = frames
                .iter()
                .map(|f| {
                    json!({
                        "entry": crate::ledger::tests::entry_tree(&f.entry),
                        "document_bytes": f.document.as_ref().map(|d| d.len()),
                        "superseded": f.superseded,
                    })
                })
                .collect();
            let mut body = json!({"source": source, "frames": header}).to_string();
            body.push('\n');
            for f in frames {
                body.push_str(f.document.as_deref().unwrap_or(""));
            }
            body
        }

        pub(super) fn refusal(reason: &str, expect_index: Option<u64>) -> String {
            json!({"error": reason, "expect_index": expect_index}).to_string()
        }

        pub(super) fn head(source: &str, next: u64, head: &str) -> String {
            json!({"source": source, "next_index": next, "head_hash": head}).to_string()
        }
    }

    /// Strings as a body may carry them: empty, quoted, escaped,
    /// control bytes, non-ASCII.
    fn texts() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        [
            "",
            "node-a",
            "a\"b",
            "back\\slash",
            &controls,
            "nœud\u{2028}😀",
        ]
        .map(String::from)
        .to_vec()
    }

    #[test]
    fn batch_header_and_replies_match_their_trees() {
        let frames = sample_frames();
        let mut ledger = crate::ledger::Ledger::new();
        let odd: Vec<Frame> = texts()
            .iter()
            .enumerate()
            .map(|(i, text)| Frame {
                entry: ledger.append(text, text.as_bytes()).clone(),
                document: (i % 2 == 0).then(|| Cow::Owned(text.clone())),
                superseded: i % 3 == 0,
            })
            .collect();
        for source in texts() {
            for batch in [&frames[..], &frames[..0], &frames[1..2], &odd[..]] {
                assert_eq!(
                    encode_batch(&source, batch),
                    reference::encode_batch(&source, batch)
                );
            }
            for index in [None, Some(0), Some(u64::MAX)] {
                assert_eq!(
                    refusal_body(&source, index),
                    reference::refusal(&source, index)
                );
            }
            for (next, hash) in [(0, crate::ledger::GENESIS), (u64::MAX, source.as_str())] {
                assert_eq!(
                    head_body(&source, next, hash),
                    reference::head(&source, next, hash)
                );
            }
        }
    }

    #[test]
    fn batch_round_trips_raw_bodies() {
        let frames = sample_frames();
        let body = encode_batch("nœud-a", &frames);
        // The documents ride unescaped behind the header line.
        let pretty = frames[0].document.as_deref().unwrap();
        assert!(body.contains(pretty));
        let (source, back) = decode_batch(&body).unwrap();
        assert_eq!(source, "nœud-a");
        assert_eq!(back, frames);
        // An empty batch is a header line and nothing else.
        let empty = encode_batch("node-a", &[]);
        assert!(decode_batch(&empty).unwrap().1.is_empty());
    }

    #[test]
    fn every_truncation_and_split_of_a_batch_is_refused() {
        let frames = sample_frames();
        let body = encode_batch("node-a", &frames).into_bytes();
        let registry = obs::Registry::new();
        let apply = |bytes: &[u8]| {
            let store = DocumentStore::new();
            let (status, reply) = apply_batch(&store, &registry, bytes);
            (status, reply, store)
        };
        // Cut anywhere — inside the header, inside a character, between
        // or inside documents — neither piece is a batch, and neither
        // leaves anything behind.
        for cut in 0..body.len() {
            for piece in [&body[..cut], &body[cut..]] {
                if piece.len() == body.len() {
                    continue;
                }
                let (status, reply, store) = apply(piece);
                assert!(matches!(status, 400 | 409), "cut {cut}: {status} {reply}");
                assert!(store.is_empty(), "cut {cut}: a document was applied");
                assert_eq!(store.replication_head("node-a").0, 0, "cut {cut}");
            }
        }
        // A cut inside the documents keeps the header: the refusal names
        // the index to resume from.
        let (status, reply, _) = apply(&body[..body.len() - 1]);
        assert_eq!(status, 409, "{reply}");
        let v: json::Value = json::parse(&reply).unwrap();
        assert_eq!(v["expect_index"], 0, "{reply}");
        // Whole, it applies: two documents, three entries.
        let (status, reply, store) = apply(&body);
        assert_eq!(status, 200, "{reply}");
        let v: json::Value = json::parse(&reply).unwrap();
        assert_eq!(v["next_index"], 3, "{reply}");
        assert_eq!(store.list(), vec!["run-2", "run-é"]);
        store.verify_all().unwrap();
        assert_eq!(registry.counter("replication_frames_total").get(), 3);
        assert_eq!(
            registry.counter("replication_bytes_total").get(),
            body.len() as u64
        );
    }

    #[test]
    fn batch_stops_at_the_first_refused_frame() {
        let mut frames = sample_frames();
        // The last frame's bytes no longer hash to its digest.
        frames[2].document = Some(Cow::Borrowed("{}"));
        let body = encode_batch("node-a", &frames);
        let registry = obs::Registry::new();
        let store = DocumentStore::new();
        let (status, reply) = apply_batch(&store, &registry, body.as_bytes());
        assert_eq!(status, 409, "{reply}");
        let v: json::Value = json::parse(&reply).unwrap();
        assert_eq!(v["expect_index"], 2, "{reply}");
        assert_eq!(store.list(), vec!["run-é"], "the frames before it stand");
        assert_eq!(store.replication_head("node-a").0, 2);
        assert_eq!(registry.counter("replication_rejects_total").get(), 1);
        // Resent from the named index with clean bytes, the rest lands;
        // the frames already applied are absorbed as duplicates.
        let clean = encode_batch("node-a", &sample_frames());
        let (status, reply) = apply_batch(&store, &registry, clean.as_bytes());
        assert_eq!(status, 200, "{reply}");
        assert_eq!(store.len(), 2);
        store.verify_all().unwrap();
    }

    #[test]
    fn a_superseded_gap_entry_does_not_cost_the_replica_its_copy() {
        // The replica holds run-2 from entry 0 and missed entry 1; the
        // catch-up is [1 chain-only, superseded by 2; 2 with its bytes].
        let old = doc_json("old");
        let new = doc_json("new");
        let mut ledger = crate::ledger::Ledger::new();
        let frames = [
            (ledger.append("run-2", old.as_bytes()).clone(), Some(&old)),
            (ledger.append("run-2", b"missed").clone(), None),
            (ledger.append("run-2", new.as_bytes()).clone(), Some(&new)),
        ]
        .map(|(entry, document)| Frame {
            superseded: document.is_none(),
            document: document.map(|d| Cow::Borrowed(d.as_str())),
            entry,
        });
        let registry = obs::Registry::new();
        // In one request, and cut between the two (`BATCH_BYTES`).
        for batches in [vec![0..1, 1..3], vec![0..1, 1..2, 2..3]] {
            let store = DocumentStore::new();
            for batch in batches {
                let last = batch.end == frames.len();
                let body = encode_batch("node-a", &frames[batch]);
                let (status, reply) = apply_batch(&store, &registry, body.as_bytes());
                assert_eq!(status, 200, "{reply}");
                // Never a 404, never a watch cursor that starts over.
                let held = store.document_json("run-2").unwrap();
                assert_eq!(held, if last { new.clone() } else { old.clone() });
                assert_eq!(store.document_version("run-2"), Some(1 + last as u64));
            }
            store.verify_all().unwrap();
        }
    }

    #[test]
    fn id_encoding() {
        assert_eq!(encode_id("run-1"), "run-1");
        assert_eq!(encode_id("a b/c"), "a%20b%2Fc");
    }

    fn doc_json(tag: &str) -> String {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(QName::new("ex", tag));
        doc.to_json_string().unwrap()
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
            request_timeout: Duration::from_secs(5),
            jitter_seed: 7,
        }
    }

    /// Every attempt of one push under [`fast_policy`]: what a test arms
    /// to lose one push on the wire.
    const ONE_PUSH: usize = 2;

    /// Starts a 2-node in-memory cluster: B first (peerless, to learn
    /// its ephemeral port), then A configured to replicate to B through
    /// the returned proxy.
    fn two_nodes() -> (Server, Server, FaultProxy) {
        two_nodes_on(DocumentStore::new())
    }

    /// [`two_nodes`] with B serving `store_b`.
    fn two_nodes_on(store_b: DocumentStore) -> (Server, Server, FaultProxy) {
        let store_a = DocumentStore::new();
        let b = Server::bind(
            "127.0.0.1:0",
            store_b,
            ServerConfig {
                cluster: Some(ClusterConfig {
                    push_policy: fast_policy(),
                    ..ClusterConfig::new("node-b", Vec::new())
                }),
                ..Default::default()
            },
        )
        .unwrap();
        // Phase 2: A reaches B through the link's proxy.
        let link = FaultProxy::bind();
        link.forward_to(b.addr());
        let a = Server::bind(
            "127.0.0.1:0",
            store_a,
            ServerConfig {
                cluster: Some(ClusterConfig {
                    push_policy: fast_policy(),
                    ..ClusterConfig::new("node-a", vec![NodeSpec::new("node-b", link.addr())])
                }),
                ..Default::default()
            },
        )
        .unwrap();
        (a, b, link)
    }

    #[test]
    fn upload_streams_to_replica_and_replica_serves_reads() {
        let (a, b, _link) = two_nodes();
        let (status, body) = crate::http::request(
            a.addr(),
            "PUT",
            "/api/v0/documents/run-1",
            Some(&doc_json("model")),
        )
        .unwrap();
        assert_eq!(status, 201, "{body}");

        // The replica holds the document and its cursor chain.
        let (status, fetched) =
            crate::http::request(b.addr(), "GET", "/api/v0/documents/run-1", None).unwrap();
        assert_eq!(status, 200, "{fetched}");
        let (status, head) = crate::http::request(
            b.addr(),
            "GET",
            "/api/v0/replication/head?source=node-a",
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let head: json::Value = json::parse(&head).unwrap();
        assert_eq!(head["next_index"], 1);

        // Both nodes' chains verify end-to-end.
        for s in [&a, &b] {
            let (status, body) =
                crate::http::request(s.addr(), "GET", "/api/v0/ledger/verify", None).unwrap();
            assert_eq!(status, 200, "{body}");
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_missed_push_of_a_streamed_id_heals_in_place() {
        let store_b = DocumentStore::new();
        let (a, b, link) = two_nodes_on(store_b.clone());
        let put = |tag: &str| {
            let body = doc_json(tag);
            crate::http::request(a.addr(), "PUT", "/api/v0/documents/run-1", Some(&body))
                .unwrap()
                .0
        };
        assert_eq!(put("v1"), 201);
        link.fault("POST", FRAMES, Fault::Drop, ONE_PUSH);
        assert_eq!(put("v2"), 503);
        // The next version's push carries entry 1 chain-only, marked
        // superseded: B goes from v1 to v3 without an interval in which
        // it holds nothing, and its watchers see one more version.
        assert_eq!(put("v3"), 201);
        assert!(store_b.document_json("run-1").unwrap().contains("v3"));
        assert_eq!(store_b.document_version("run-1"), Some(2));
        assert_eq!(store_b.replication_head("node-a").0, 3);
        store_b.verify_all().unwrap();
        assert_eq!(b.registry().counter("replication_rejects_total").get(), 0);
        a.shutdown();
        b.shutdown();
    }

    const THREE: [&str; 3] = ["node-a", "node-b", "node-c"];

    /// Starts a 3-node in-memory cluster named [`THREE`], every node
    /// peered with the other two. Returns the members at their servers'
    /// addresses, and the peer links' proxies, which must outlive the
    /// servers' use of them.
    fn three_nodes() -> (
        Vec<NodeSpec>,
        Vec<DocumentStore>,
        Vec<Server>,
        Vec<FaultProxy>,
    ) {
        let ids = THREE;
        // Every member must know its peers' addresses before it binds:
        // each directed link `(from, to)` is a proxy, bound first and
        // held, that learns its server's address once the server is up.
        let links: Vec<(usize, usize, FaultProxy)> = (0..ids.len())
            .flat_map(|from| (0..ids.len()).map(move |to| (from, to)))
            .filter(|(from, to)| from != to)
            .map(|(from, to)| (from, to, FaultProxy::bind()))
            .collect();
        let stores: Vec<DocumentStore> = ids.iter().map(|_| DocumentStore::new()).collect();
        let servers: Vec<Server> = (0..ids.len())
            .map(|i| {
                let peers = links
                    .iter()
                    .filter(|(from, ..)| *from == i)
                    .map(|(_, to, proxy)| NodeSpec::new(ids[*to], proxy.addr()))
                    .collect();
                let cluster = ClusterConfig {
                    push_policy: fast_policy(),
                    ..ClusterConfig::new(ids[i], peers)
                };
                let config = ServerConfig {
                    cluster: Some(cluster),
                    ..Default::default()
                };
                Server::bind("127.0.0.1:0", stores[i].clone(), config).unwrap()
            })
            .collect();
        for (_, to, proxy) in &links {
            proxy.forward_to(servers[*to].addr());
        }
        let specs = ids
            .iter()
            .zip(&servers)
            .map(|(id, server)| NodeSpec::new(*id, server.addr()))
            .collect();
        let proxies = links.into_iter().map(|(.., proxy)| proxy).collect();
        (specs, stores, servers, proxies)
    }

    #[test]
    fn posts_to_two_nodes_get_their_own_ids_on_every_copy() {
        let (_, stores, servers, _links) = three_nodes();
        let mut posted = Vec::new();
        for (at, tag) in [(0, "alpha"), (1, "beta")] {
            let body = doc_json(tag);
            let (status, reply) =
                crate::http::request(servers[at].addr(), "POST", "/api/v0/documents", Some(&body))
                    .unwrap();
            assert_eq!(status, 201, "{reply}");
            let reply: json::Value = json::parse(&reply).unwrap();
            posted.push((reply["id"].as_str().unwrap().to_string(), tag));
        }
        assert_ne!(posted[0].0, posted[1].0);
        for (id, tag) in &posted {
            let mut copies = 0;
            for store in &stores {
                let Ok(json) = store.document_json(id) else {
                    continue;
                };
                copies += 1;
                // The bytes hash to their own id: that POST's document.
                assert_eq!(
                    &format!("doc-{}", &yprov4ml::hash::sha256_hex(json.as_bytes())[..32]),
                    id
                );
                assert!(json.contains(tag), "{id}: {json}");
            }
            assert!(copies >= 2, "{id} has {copies} copies");
        }
        for server in servers {
            let (status, body) =
                crate::http::request(server.addr(), "GET", "/api/v0/ledger/verify", None).unwrap();
            assert_eq!(status, 200, "{body}");
            server.shutdown();
        }
    }

    #[test]
    fn thirty_puts_replicate_each_document_once() {
        let ids = THREE;
        let (specs, stores, servers, _links) = three_nodes();

        const PUTS: u64 = 30;
        const LIVE_IDS: u64 = 8;
        let cluster = ClusterClient::new(specs, 2, fast_policy());
        for i in 0..PUTS {
            let id = format!("run-{}", i % LIVE_IDS);
            let resp = cluster.put(&id, &doc_json(&format!("model-{i}"))).unwrap();
            assert_eq!(resp.status, 201, "{id}: {}", resp.body);
        }

        let ring = Ring::new(ids);
        let counter = |server: &Server, name: &str| server.registry().counter(name).get();
        let mut requests = 0;
        let mut entries = 0;
        for (n, store) in stores.iter().enumerate() {
            // A node holds exactly the ids placed on it, with the bytes
            // the other placement node holds.
            let placed: Vec<String> = (0..LIVE_IDS)
                .map(|k| format!("run-{k}"))
                .filter(|id| ring.replicas_for(id, 2).contains(&ids[n]))
                .collect();
            assert_eq!(store.list(), placed, "{}", ids[n]);
            for id in &placed {
                let primary = ring.primary_for(id).unwrap();
                let at = ids.iter().position(|n| *n == primary).unwrap();
                assert_eq!(
                    store.document_json(id).unwrap(),
                    stores[at].document_json(id).unwrap(),
                    "{id}@{}",
                    ids[n]
                );
            }
            store.verify_all().unwrap();
            // Each cursor is a prefix of its source's ledger: same hash
            // at the same height of a hash chain.
            for (source, next) in store.replication_sources() {
                let at = ids.iter().position(|n| *n == source).unwrap();
                let ledger = stores[at].ledger_entries();
                let head = store.replication_head(&source).1;
                assert_eq!(head, ledger[next as usize - 1].entry_hash, "{source}");
            }
            let server = &servers[n];
            assert_eq!(counter(server, "replication_rejects_total"), 0);
            assert_eq!(counter(server, "replication_push_failures_total"), 0);
            requests += counter(
                server,
                "http_requests_total{method=\"POST\",route=\"/api/v0/replication/frames\",status=\"200\"}",
            );
            entries += counter(server, "replication_frames_total");
        }
        // One request per put; every entry reaches each of its source's
        // two peers at most once.
        assert_eq!(requests, PUTS);
        let pushes: u64 = servers
            .iter()
            .map(|s| counter(s, "replication_pushes_total"))
            .sum();
        assert_eq!(pushes, PUTS);
        assert!((PUTS..=2 * PUTS).contains(&entries), "{entries} entries");
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn catch_up_is_cut_into_batches_and_a_large_frame_goes_alone() {
        // Documents of 3 MiB: two fit a batch, three do not.
        let big = |tag: &str| {
            let mut doc = ProvDocument::new();
            doc.namespaces_mut().register("ex", "http://ex/").unwrap();
            doc.entity(QName::new("ex", tag))
                .label("x".repeat(3 * 1024 * 1024));
            doc.to_json_string().unwrap()
        };
        let (a, b, link) = two_nodes();
        let put = |id: &str, body: &str| {
            let path = format!("/api/v0/documents/{id}");
            crate::http::request(a.addr(), "PUT", &path, Some(body)).unwrap()
        };
        let pushes = || a.registry().counter("replication_pushes_total").get();
        // Three uploads B never hears of, then the partition heals.
        link.fault("POST", FRAMES, Fault::Drop, 3 * ONE_PUSH);
        for i in 0..3 {
            assert_eq!(put(&format!("big-{i}"), &big("m")).0, 503);
        }
        // A dropped push left the sender: it is counted.
        let dropped = pushes();
        assert_eq!(dropped, 3);
        assert_eq!(put("small", &doc_json("model")).0, 201);
        assert_eq!(
            pushes() - dropped,
            2,
            "entries 0-1, then entry 2 with the new one"
        );
        // Larger than a batch on its own: still one request.
        let huge = "y".repeat(BATCH_BYTES);
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(QName::new("ex", "huge")).label(huge);
        assert_eq!(put("huge", &doc.to_json_string().unwrap()).0, 201);
        assert_eq!(pushes() - dropped, 3);
        for id in ["big-0", "big-1", "big-2", "small", "huge"] {
            let path = format!("/api/v0/documents/{id}");
            let at_a = crate::http::request(a.addr(), "GET", &path, None).unwrap();
            let at_b = crate::http::request(b.addr(), "GET", &path, None).unwrap();
            assert_eq!(at_b.0, 200, "{id}");
            assert!(at_a == at_b, "{id} differs between the nodes");
        }
        assert_eq!(b.registry().counter("replication_rejects_total").get(), 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn unreplicated_upload_is_rejected_with_503() {
        // Node A's only peer refuses connections: REQUIRED_ACKS cannot
        // be met, the write is answered 503 (with Retry-After) and the
        // client may retry elsewhere.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let a = Server::bind(
            "127.0.0.1:0",
            DocumentStore::new(),
            ServerConfig {
                cluster: Some(ClusterConfig {
                    push_policy: RetryPolicy {
                        max_attempts: 1,
                        request_timeout: Duration::from_millis(500),
                        ..fast_policy()
                    },
                    ..ClusterConfig::new("node-a", vec![NodeSpec::new("node-b", dead)])
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let (status, body) = crate::http::request(
            a.addr(),
            "PUT",
            "/api/v0/documents/run-1",
            Some(&doc_json("model")),
        )
        .unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("under-replicated"), "{body}");
        a.shutdown();
    }

    #[test]
    fn a_retried_post_lands_on_one_id() {
        // The only peer is down: every attempt commits locally and is
        // answered 503, and the client retries the same POST.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let store = DocumentStore::new();
        let a = Server::bind(
            "127.0.0.1:0",
            store.clone(),
            ServerConfig {
                cluster: Some(ClusterConfig {
                    push_policy: RetryPolicy {
                        max_attempts: 1,
                        ..fast_policy()
                    },
                    ..ClusterConfig::new("node-a", vec![NodeSpec::new("node-b", dead)])
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let client = Client::new(
            a.addr(),
            RetryPolicy {
                max_attempts: 4,
                ..fast_policy()
            },
        );
        let err = client.upload_document(&doc_json("model")).unwrap_err();
        let retried = matches!(err, ClientError::Exhausted { attempts: 4, .. });
        assert!(retried, "{err}");
        assert_eq!(store.len(), 1, "{:?}", store.list());
        assert_eq!(store.ledger_entries().len(), 4);
        a.shutdown();
    }

    #[test]
    fn cluster_client_promotes_past_a_dead_primary() {
        let (a, b, _link) = two_nodes();
        let nodes = vec![
            NodeSpec::new("node-a", a.addr()),
            NodeSpec::new("node-b", b.addr()),
        ];
        let cluster = ClusterClient::new(nodes, 2, fast_policy());

        // Both alive: every document lands and reads back.
        for i in 0..4 {
            let id = format!("run-{i}");
            let resp = cluster.put(&id, &doc_json("model")).unwrap();
            assert_eq!(resp.status, 201, "{}", resp.body);
        }
        // Kill A; probes notice, reads and writes fail over to B.
        assert_eq!(cluster.ring().nodes(), ["node-a", "node-b"]);
        a.shutdown();
        let live = cluster.probe();
        assert_eq!(live, vec!["node-b".to_string()]);
        // The cached ring follows the liveness flip.
        assert_eq!(cluster.ring().nodes(), ["node-b"]);
        assert_eq!(cluster.placement("run-0"), ["node-b"]);
        for i in 0..4 {
            let id = format!("run-{i}");
            let resp = cluster.get(&id).unwrap();
            assert_eq!(resp.status, 200, "{id}: {}", resp.body);
        }
        // Writes promote B (its chains verify) — including for keys A
        // used to own. B was configured with no peers, so its writes
        // commit locally with nothing to replicate to.
        let resp = cluster.put("run-0", &doc_json("model2")).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.body);
        let resp = cluster.get("run-0").unwrap();
        assert!(resp.body.contains("model2"));
        b.shutdown();
    }

    #[test]
    fn promotion_is_gated_even_when_a_probe_put_the_survivor_first() {
        let dir = std::env::temp_dir().join(format!("ycluster_gate_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (a, b, _link) = two_nodes_on(DocumentStore::persistent(&dir).unwrap());
        let nodes = vec![
            NodeSpec::new("node-a", a.addr()),
            NodeSpec::new("node-b", b.addr()),
        ];
        let cluster = ClusterClient::new(nodes, 2, fast_policy());
        let ring = Ring::new(["node-a", "node-b"]);
        let id = (0..)
            .map(|i| format!("run-{i}"))
            .find(|id| ring.primary_for(id) == Some("node-a"))
            .unwrap();
        let resp = cluster.put(&id, &doc_json("model")).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.body);
        // B's copy is edited behind its back: its chains stop verifying.
        let path = dir.join(format!("{id}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("ex:model", "ex:fudged")).unwrap();
        let (status, body) =
            crate::http::request(b.addr(), "GET", "/api/v0/ledger/verify", None).unwrap();
        assert_eq!(status, 500, "{body}");
        // The primary dies and a probe leaves B first on the live ring:
        // B is still not the key's primary, so it is not promoted.
        a.shutdown();
        assert_eq!(cluster.probe(), ["node-b"]);
        let err = cluster.put(&id, &doc_json("model2")).unwrap_err();
        assert!(err.to_string().contains("not promoted"), "{err}");
        b.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
