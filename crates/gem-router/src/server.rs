//! The routing front-end: a gem-proto TCP server that forwards each request to the
//! replica owning its route and streams the responses back, preserving the client's
//! pipeline.
//!
//! ## Forwarding model
//!
//! Each client connection owns its **own** upstream connection to every replica it
//! talks to. Client envelope ids are therefore unique per upstream connection by
//! construction (a client already may not reuse an id it has in flight, exactly as
//! against `gem-served` directly), so ids are forwarded unchanged — no id rewriting.
//! The router decodes a request once, to route it.
//!
//! Routing is key-aware without extra round trips: the router computes `Fit` model
//! keys itself with the same [`gem_store::fit_key`] the replica will use, derives
//! `FitUpdate` keys with [`gem_store::updated_model_key`], and peeks the `key` header
//! of `PushModel` snapshots — so it knows every handle *before* any replica answers.
//!
//! ## Codecs
//!
//! Every upstream speaks the `gem_proto::binary` codec: the router sends the hello on
//! each new upstream, and a replica that declines it counts as a failed connect (it is
//! marked down and the request retries on the next ring node). A binary client's
//! frames therefore forward **verbatim** both ways — streamed `embed_rows` frames pass
//! through without retiring the in-flight entry (the closing `embed_done` does) — and
//! chunked corpus uploads are reassembled here once, **fingerprinted incrementally
//! while the chunks arrive** ([`gem_store::CorpusHasher`] — the routing key is ready
//! the moment the upload completes, no second pass over megabytes of corpus), then
//! re-chunked toward the owning replica.
//!
//! JSON is only the client-edge debug codec. A JSON client's lines are read under the
//! replica's line cap ([`gem_serve::framing::LineReader`]), decoded once, and
//! re-encoded as frames toward the replica; the upstream reader reassembles each
//! response, streamed rows included, and answers with one JSON line.
//!
//! `Stats`, `ListModels`, and `Evict` fan out to every live replica and answer once
//! with a merged body. `Health` is answered by the router itself from the last probe
//! observations (a health probe that depended on the replicas being probed would be
//! useless for deciding whether to route to them).
//!
//! ## Fail-over
//!
//! A connect or write failure against a replica marks it down *immediately* and the
//! request retries against the next live ring node (which, for tracked handles, holds
//! the write-through snapshot copy — see [`Cluster::replicate`]). A replica that dies
//! with requests in flight EOFs its upstream reader, which answers every pending
//! request with the typed `replica_unavailable` error — safe to retry, and the retry
//! re-routes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gem_proto::{
    binary, decode_request, encode_response, merge_models, merge_stats, salvage_request_id,
    ProtoError, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope, WireModelInfo,
    WireStats, PROTOCOL_VERSION,
};
use gem_serve::framing::{is_tick, JsonLine, LineReader};
use gem_serve::sync::lock_or_recover;
use gem_serve::ModelHandle;
use gem_store::fingerprint::Fnv1a;
use gem_store::{corpus_fingerprint, fit_key, updated_model_key_from_fingerprint, CorpusHasher};

use crate::cluster::{Cluster, Transition};
use crate::metrics::ReplicaInstruments;

/// How often blocked client reads wake to check the shutdown flag (mirrors the
/// serving tier's tick).
const READ_TICK: Duration = Duration::from_millis(100);
/// Backoff after a failed `accept` so a transient error cannot spin the loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);
/// The error code for "no live replica can own this route".
pub const NO_REPLICA: &str = "no_replica";
/// The error code for "the owning replica vanished mid-request" (safe to retry; the
/// retry re-routes to the fail-over owner).
pub const REPLICA_UNAVAILABLE: &str = "replica_unavailable";

/// A handle for stopping a running [`RouterServer`] from another thread.
#[derive(Debug, Clone)]
pub struct RouterHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl RouterHandle {
    /// Ask the router to stop: in-flight requests finish, the accept loop exits, and
    /// [`RouterServer::run`] returns.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop so it notices the flag without waiting for a client.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The routing front-end. Bind, grab a [`RouterHandle`], then [`RouterServer::run`].
#[derive(Debug)]
pub struct RouterServer {
    listener: TcpListener,
    cluster: Arc<Cluster>,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
}

impl RouterServer {
    /// Bind the front-end on `addr` (use port 0 to let the OS pick).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(cluster: Arc<Cluster>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(RouterServer {
            listener,
            cluster,
            shutdown: Arc::new(AtomicBool::new(false)),
            local_addr,
        })
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A shutdown handle usable from any thread.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr,
        }
    }

    /// Accept and serve client connections until [`RouterHandle::shutdown`]. Joins
    /// every connection thread before returning.
    ///
    /// # Errors
    /// Propagates only fatal listener errors; per-connection errors end that
    /// connection and are otherwise absorbed.
    pub fn run(self) -> std::io::Result<()> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match incoming {
                Ok(stream) => {
                    let cluster = Arc::clone(&self.cluster);
                    let shutdown = Arc::clone(&self.shutdown);
                    connections.push(std::thread::spawn(move || {
                        serve_connection(stream, cluster, shutdown);
                    }));
                }
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
        for connection in connections {
            let _ = connection.join();
        }
        Ok(())
    }
}

/// One upstream connection's in-flight requests. `closed` flips (under the lock)
/// when the upstream reader EOFs and drains: any forward that raced the death and
/// would have registered *after* the drain is refused instead, so it retries on the
/// fail-over route rather than waiting on a reader that already exited.
#[derive(Default)]
struct PendingMap {
    closed: bool,
    entries: HashMap<u64, Pending>,
}

/// What an in-flight forwarded request is waiting for.
enum Pending {
    /// Relay the response to the client ([`ConnShared::relay`]).
    Forward { started: Instant },
    /// Like `Forward`, but on success first record placement and write-through
    /// replicate `handle` to its ring successor (fit / fit-update / push).
    Tracked { started: Instant, handle: String },
    /// One leg of a fan-out; fold the decoded body into the group.
    Fan { started: Instant, group: u64 },
}

/// Which fan-out request a group merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FanKind {
    Stats,
    Models,
    Evict,
}

/// One fan-out in flight: the client's id, how many legs are still pending, and the
/// successful partial bodies collected so far.
struct FanGroup {
    client_id: u64,
    kind: FanKind,
    remaining: usize,
    ok_legs: usize,
    stats: Vec<WireStats>,
    models: Vec<Vec<WireModelInfo>>,
    existed: bool,
    evict_handle: Option<String>,
}

/// State shared between the client reader and this connection's upstream readers.
///
/// `reply_tx` carries **exact wire blobs**: newline-terminated JSON lines toward a
/// JSON client, complete binary frames toward one that negotiated the binary codec.
/// The writer thread never edits what it is handed — the codec decision is made
/// here, once, by whoever builds the reply.
struct ConnShared {
    cluster: Arc<Cluster>,
    reply_tx: mpsc::Sender<Vec<u8>>,
    groups: Mutex<HashMap<u64, FanGroup>>,
    /// Set during orderly teardown so upstream EOFs stop being treated as replica
    /// deaths.
    closing: AtomicBool,
    /// Whether this client negotiated the binary codec (its hello was the first
    /// line, so the flag is stable before any request can be forwarded).
    client_binary: AtomicBool,
}

impl ConnShared {
    fn client_is_binary(&self) -> bool {
        self.client_binary.load(Ordering::SeqCst)
    }

    fn send_response(&self, in_reply_to: Option<u64>, body: ResponseBody) {
        self.send_envelope(&match in_reply_to {
            Some(id) => ResponseEnvelope::new(id, body),
            None => ResponseEnvelope::uncorrelated(body),
        });
    }

    /// Send a response the router built or decoded, encoded in the client's codec.
    fn send_envelope(&self, envelope: &ResponseEnvelope) {
        let line = encode_response(envelope);
        if self.client_is_binary() {
            if let Ok(frame) = binary::wrap_response_line(envelope.in_reply_to, &line) {
                let _ = self.reply_tx.send(frame);
            }
        } else {
            let _ = self.reply_tx.send(line.into_bytes());
        }
    }

    /// Forward a replica's response frame to the client verbatim (binary clients only:
    /// a JSON client gets the decoded response through [`ConnShared::relay`]).
    fn forward_frame(&self, frame: &binary::Frame) {
        if let Ok(bytes) = binary::frame_bytes(frame.kind, &frame.payload) {
            let _ = self.reply_tx.send(bytes);
        }
    }

    /// Answer request `id` with the replica's completed response: the frame verbatim
    /// toward a binary client, the decoded envelope as one JSON line toward a JSON
    /// client (or the typed error when the frame failed to decode).
    fn relay(&self, id: u64, frame: &binary::Frame, decoded: Option<Decoded>) {
        match decoded {
            _ if self.client_is_binary() => self.forward_frame(frame),
            Some(Ok(Some(envelope))) => self.send_envelope(&envelope),
            Some(Err(e)) => self.send_error(Some(id), e.code(), e.to_string()),
            // JSON clients' replies are always decoded, and a completing frame always
            // decodes to a response: there is nothing else to relay.
            Some(Ok(None)) | None => {}
        }
    }

    fn send_error(&self, in_reply_to: Option<u64>, code: &str, message: String) {
        let retry_after_ms = if code == NO_REPLICA || code == REPLICA_UNAVAILABLE {
            Some(u64::try_from(self.cluster.probe_interval().as_millis()).unwrap_or(1_000))
        } else {
            None
        };
        self.send_response(
            in_reply_to,
            ResponseBody::Error {
                code: code.to_string(),
                message,
                retry_after_ms,
            },
        );
    }

    /// Fold one fan-out leg (decoded success body, or `None` for a failed leg) into
    /// its group; emits the merged response when the last leg lands.
    fn fold_fan_leg(&self, group_id: u64, body: Option<ResponseBody>) {
        let finished = {
            let mut groups = lock_or_recover(&self.groups);
            let Some(group) = groups.get_mut(&group_id) else {
                return;
            };
            match body {
                Some(ResponseBody::Stats(stats)) => {
                    group.stats.push(stats);
                    group.ok_legs += 1;
                }
                Some(ResponseBody::Models(models)) => {
                    group.models.push(models);
                    group.ok_legs += 1;
                }
                Some(ResponseBody::Evicted { existed }) => {
                    group.existed |= existed;
                    group.ok_legs += 1;
                }
                Some(_) | None => {}
            }
            group.remaining = group.remaining.saturating_sub(1);
            if group.remaining == 0 {
                groups.remove(&group_id)
            } else {
                None
            }
        };
        if let Some(group) = finished {
            self.finish_fan(group);
        }
    }

    fn finish_fan(&self, group: FanGroup) {
        if group.ok_legs == 0 {
            self.send_error(
                Some(group.client_id),
                REPLICA_UNAVAILABLE,
                "every fan-out leg failed; no replica answered".to_string(),
            );
            return;
        }
        let body = match group.kind {
            FanKind::Stats => ResponseBody::Stats(merge_stats(&group.stats)),
            FanKind::Models => ResponseBody::Models(merge_models(&group.models)),
            FanKind::Evict => {
                if let Some(handle) = &group.evict_handle {
                    if group.existed {
                        self.cluster.forget_placement(handle);
                    }
                }
                ResponseBody::Evicted {
                    existed: group.existed,
                }
            }
        };
        self.send_response(Some(group.client_id), body);
    }
}

/// What the router has in hand for one request when it forwards it: a binary client's
/// frame goes up verbatim; a JSON client's line, or a reassembled chunked upload, has
/// no verbatim frame and is re-encoded from the decoded envelope.
enum ForwardPayload<'a> {
    /// The client's original binary frame, re-serialized byte-for-byte.
    Frame(&'a [u8]),
    /// Encode frames from the envelope (re-chunking a large corpus).
    Reencode,
}

/// A completing response frame, decoded against the upstream's streamed-row state.
type Decoded = Result<Option<ResponseEnvelope>, ProtoError>;

/// One upstream connection owned by a client connection.
struct Upstream {
    write: TcpStream,
    pending: Arc<Mutex<PendingMap>>,
    reader: Option<JoinHandle<()>>,
    instruments: ReplicaInstruments,
}

impl Upstream {
    /// Send one request on this upstream.
    fn send(
        &mut self,
        payload: &ForwardPayload<'_>,
        envelope: &RequestEnvelope,
    ) -> std::io::Result<()> {
        match payload {
            ForwardPayload::Frame(bytes) => self.write.write_all(bytes)?,
            ForwardPayload::Reencode => {
                let frames = binary::encode_request_frames(envelope, binary::DEFAULT_CHUNK_BYTES)
                    .map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                for frame in &frames {
                    self.write.write_all(frame)?;
                }
            }
        }
        self.write.flush()
    }

    /// Register `entry` under `id` unless the reader already drained and closed this
    /// upstream (a write to a just-died socket can still buffer and "succeed", which
    /// would strand the entry). Returns whether the registration was accepted.
    fn register(&self, id: u64, entry: Pending) -> bool {
        let mut pending = lock_or_recover(&self.pending);
        if pending.closed {
            return false;
        }
        pending.entries.insert(id, entry);
        true
    }

    fn unregister(&self, id: u64) {
        lock_or_recover(&self.pending).entries.remove(&id);
    }
}

/// The per-client-connection forwarding state (owned by the client reader thread).
struct Forwarder {
    shared: Arc<ConnShared>,
    upstreams: HashMap<String, Upstream>,
    next_group: u64,
}

impl Forwarder {
    fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// Get (or open) this connection's upstream to `addr`, spawning its reader. A new
    /// upstream negotiates the binary codec before anything else crosses it; a replica
    /// that declines fails the connect like a refused one.
    fn upstream(&mut self, addr: &str) -> Result<&mut Upstream, ()> {
        if !self.upstreams.contains_key(addr) {
            let timeout = self.cluster().connect_timeout();
            let mut stream = connect_stream(addr, timeout).map_err(|_| ())?;
            let read_half = stream.try_clone().map_err(|_| ())?;
            let mut buffered = BufReader::new(read_half);
            negotiate_upstream(&mut stream, &mut buffered, timeout).map_err(|_| ())?;
            let pending = Arc::new(Mutex::new(PendingMap::default()));
            let instruments = self.cluster().metrics().replica(addr);
            let reader = {
                let shared = Arc::clone(&self.shared);
                let pending = Arc::clone(&pending);
                let instruments = instruments.clone();
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    read_upstream(buffered, &addr, &shared, &pending, &instruments);
                })
            };
            self.upstreams.insert(
                addr.to_string(),
                Upstream {
                    write: stream,
                    pending,
                    reader: Some(reader),
                    instruments,
                },
            );
        }
        self.upstreams.get_mut(addr).ok_or(())
    }

    /// Drop the upstream to `addr` after a failure: close both halves so its reader
    /// drains every pending request to `replica_unavailable`, then join it.
    fn discard_upstream(&mut self, addr: &str) {
        if let Some(mut upstream) = self.upstreams.remove(addr) {
            let _ = upstream.write.shutdown(Shutdown::Both);
            if let Some(reader) = upstream.reader.take() {
                let _ = reader.join();
            }
        }
    }

    /// A forwarding failure against `addr`: count it, mark the replica down, kick a
    /// rebalance on the down edge, and drop the connection.
    fn forward_failed(&mut self, addr: &str) {
        if let Some(upstream) = self.upstreams.get(addr) {
            upstream.instruments.errors.inc();
        } else {
            self.cluster().metrics().replica(addr).errors.inc();
        }
        if self.cluster().mark_down(addr) == Transition::WentDown {
            let cluster = Arc::clone(self.cluster());
            std::thread::spawn(move || {
                let _ = cluster.rebalance();
            });
        }
        self.discard_upstream(addr);
    }

    /// Forward one request to the replica `route` currently resolves to, retrying
    /// across fail-over candidates: every failure marks the replica down, so
    /// re-running `route` yields the next live ring node. Bounded by the membership
    /// size.
    fn forward<R: Fn(&Cluster) -> Option<String>>(
        &mut self,
        id: u64,
        payload: &ForwardPayload<'_>,
        envelope: &RequestEnvelope,
        route: R,
        pending_for: impl Fn() -> Pending,
    ) {
        let attempts = self.cluster().replica_states().len().max(1);
        for _ in 0..attempts {
            let Some(addr) = route(self.cluster()) else {
                break;
            };
            let Ok(upstream) = self.upstream(&addr) else {
                self.forward_failed(&addr);
                continue;
            };
            // Register before writing: the response may race back before this thread
            // regains control. A refused registration means the reader died and
            // drained already — treat it exactly like a failed write.
            if !upstream.register(id, pending_for()) {
                self.forward_failed(&addr);
                continue;
            }
            if upstream.send(payload, envelope).is_ok() {
                upstream.instruments.forwards.inc();
                return;
            }
            upstream.unregister(id);
            self.forward_failed(&addr);
        }
        self.cluster().metrics().inc_no_replica();
        self.shared.send_error(
            Some(id),
            NO_REPLICA,
            "no live replica can serve this request".to_string(),
        );
    }

    /// Send one request to every live replica and answer once with the merged body.
    fn fan_out(
        &mut self,
        id: u64,
        payload: &ForwardPayload<'_>,
        envelope: &RequestEnvelope,
        kind: FanKind,
        evict_handle: Option<String>,
    ) {
        self.cluster().metrics().inc_fanout();
        let live = self.cluster().live_replicas();
        if live.is_empty() {
            self.cluster().metrics().inc_no_replica();
            self.shared.send_error(
                Some(id),
                NO_REPLICA,
                "no live replica can serve this request".to_string(),
            );
            return;
        }
        self.next_group += 1;
        let group_id = self.next_group;
        lock_or_recover(&self.shared.groups).insert(
            group_id,
            FanGroup {
                client_id: id,
                kind,
                remaining: live.len(),
                ok_legs: 0,
                stats: Vec::new(),
                models: Vec::new(),
                existed: false,
                evict_handle,
            },
        );
        for addr in live {
            let sent = match self.upstream(&addr) {
                Ok(upstream) => {
                    let entry = Pending::Fan {
                        started: Instant::now(),
                        group: group_id,
                    };
                    if !upstream.register(id, entry) {
                        false
                    } else if upstream.send(payload, envelope).is_ok() {
                        upstream.instruments.forwards.inc();
                        true
                    } else {
                        upstream.unregister(id);
                        false
                    }
                }
                Err(()) => false,
            };
            if !sent {
                self.forward_failed(&addr);
                self.shared.fold_fan_leg(group_id, None);
            }
        }
    }

    /// Decode, route, and forward one client JSON line (re-encoded as frames upstream).
    fn handle_line(&mut self, raw: &[u8]) {
        let text = match std::str::from_utf8(raw) {
            Ok(text) => text,
            Err(_) => {
                self.shared.send_error(
                    None,
                    "protocol_error",
                    "request line is not valid UTF-8".to_string(),
                );
                return;
            }
        };
        let envelope = match decode_request(text.trim_end_matches(['\r', '\n'])) {
            Ok(envelope) => envelope,
            Err(e) => {
                self.shared
                    .send_error(salvage_request_id(text), e.code(), e.to_string());
                return;
            }
        };
        self.dispatch(envelope, ForwardPayload::Reencode, None);
    }

    /// Route and forward one decoded request, whatever codec it arrived in.
    ///
    /// `corpus_fp` is the incremental corpus fingerprint a chunked upload computed
    /// while its chunks streamed in — passing it here is what makes chunked routing
    /// O(1) instead of a second pass over the reassembled corpus.
    fn dispatch(
        &mut self,
        envelope: RequestEnvelope,
        payload: ForwardPayload<'_>,
        corpus_fp: Option<u64>,
    ) {
        self.cluster().metrics().inc_request();
        let id = envelope.id;
        match &envelope.body {
            RequestBody::Health => {
                let view = self.cluster().health_view();
                self.shared.send_response(
                    Some(id),
                    ResponseBody::Health {
                        state: view.state.to_string(),
                        queue_depth: view.queue_depth,
                        queue_capacity: view.queue_capacity,
                        busy_workers: view.busy_workers,
                        workers: view.workers,
                        retry_after_ms: view.retry_after_ms,
                    },
                );
            }
            RequestBody::Stats => self.fan_out(id, &payload, &envelope, FanKind::Stats, None),
            RequestBody::ListModels => {
                self.fan_out(id, &payload, &envelope, FanKind::Models, None);
            }
            RequestBody::Evict { handle } => {
                let handle = handle.clone();
                self.fan_out(id, &payload, &envelope, FanKind::Evict, Some(handle));
            }
            RequestBody::Fit {
                corpus,
                config,
                features,
                composition,
            } => {
                // Compute the handle exactly as the replica will, so the router can
                // place the model before it exists.
                let corpus_fp = corpus_fp.unwrap_or_else(|| corpus_fingerprint(corpus));
                let (key, _) = fit_key(corpus_fp, config.clone(), *features, *composition);
                let handle = key.to_hex();
                let route_handle = handle.clone();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_handle(&route_handle),
                    || Pending::Tracked {
                        started: Instant::now(),
                        handle: handle.clone(),
                    },
                );
            }
            RequestBody::FitUpdate { handle, corpus } => {
                let parent = match ModelHandle::parse(handle) {
                    Ok(parent) => parent,
                    Err(reason) => {
                        self.shared.send_error(Some(id), "invalid_request", reason);
                        return;
                    }
                };
                // The derived model is created wherever the parent lives (placement
                // first — the parent may itself be a derivative off its ring slot).
                let derived = updated_model_key_from_fingerprint(
                    parent.key(),
                    corpus_fp.unwrap_or_else(|| corpus_fingerprint(corpus)),
                )
                .to_hex();
                let route_handle = handle.clone();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_handle(&route_handle),
                    || Pending::Tracked {
                        started: Instant::now(),
                        handle: derived.clone(),
                    },
                );
            }
            RequestBody::Embed { handle, .. } | RequestBody::PullModel { handle } => {
                if let Err(reason) = ModelHandle::parse(handle) {
                    self.shared.send_error(Some(id), "invalid_request", reason);
                    return;
                }
                let handle = handle.clone();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_handle(&handle),
                    || Pending::Forward {
                        started: Instant::now(),
                    },
                );
            }
            RequestBody::PushModel { snapshot } => {
                // Route by the key the envelope header names; a snapshot too malformed
                // to carry one goes to any live replica, whose store validation owns
                // the canonical rejection.
                let key = snapshot
                    .get("key")
                    .and_then(|k| k.as_str())
                    .map(str::to_owned);
                match key {
                    Some(key) => {
                        let route_key = key.clone();
                        self.forward(
                            id,
                            &payload,
                            &envelope,
                            move |cluster| cluster.route_handle(&route_key),
                            || Pending::Tracked {
                                started: Instant::now(),
                                handle: key.clone(),
                            },
                        );
                    }
                    None => self.forward(
                        id,
                        &payload,
                        &envelope,
                        |cluster| cluster.route_hash(0),
                        || Pending::Forward {
                            started: Instant::now(),
                        },
                    ),
                }
            }
            RequestBody::EmbedCorpus { method, corpus, .. } => {
                // One-shot embeds have no handle; shard them by method + corpus
                // fingerprint so repeated calls hit the same replica's cache.
                let mut h = Fnv1a::new();
                h.write(b"gem-route-embed-corpus:");
                h.write(method.as_bytes());
                h.write_u64(corpus_fingerprint(corpus));
                let hash = h.finish();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_hash(hash),
                    || Pending::Forward {
                        started: Instant::now(),
                    },
                );
            }
        }
    }

    /// Orderly teardown: stop treating upstream EOFs as deaths, close every upstream,
    /// and join their readers.
    fn close(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        let addrs: Vec<String> = self.upstreams.keys().cloned().collect();
        for addr in addrs {
            self.discard_upstream(&addr);
        }
    }
}

/// Resolve and connect with a timeout (mirrors `GemClient::connect_timeout`, but for
/// the raw forwarding stream).
fn connect_stream(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    }))
}

/// Send the binary hello on a fresh upstream and read the replica's one-line verdict.
/// Anything other than a version-matched accept is an error: the upstream is never
/// opened, and the forward fails over like a refused connect.
fn negotiate_upstream(
    write: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    timeout: Duration,
) -> std::io::Result<()> {
    write.write_all(binary::hello_line().as_bytes())?;
    write.flush()?;
    // The verdict read is the one upstream read this thread performs itself; bound it
    // so a stalled replica cannot wedge the client's request.
    reader.get_ref().set_read_timeout(Some(timeout))?;
    let mut verdict = String::new();
    let n = reader.read_line(&mut verdict)?;
    reader.get_ref().set_read_timeout(None)?;
    if n == 0 {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof));
    }
    if binary::parse_accept(&verdict) != Some(PROTOCOL_VERSION) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("replica declined the binary codec: {}", verdict.trim_end()),
        ));
    }
    Ok(())
}

/// One upstream connection's reader: correlate responses with pending requests, run
/// write-through replication for tracked handles, fold fan-out legs, and — if the
/// replica dies with requests in flight — drain them to `replica_unavailable`.
fn read_upstream(
    reader: BufReader<TcpStream>,
    addr: &str,
    shared: &Arc<ConnShared>,
    pending: &Arc<Mutex<PendingMap>>,
    instruments: &ReplicaInstruments,
) {
    read_responses(reader, addr, shared, pending, instruments);
    if shared.closing.load(Ordering::SeqCst) {
        return;
    }
    // The replica died under us. Mark it down, kick a rebalance on the edge, and
    // answer everything still in flight with the retryable typed error.
    instruments.errors.inc();
    if shared.cluster.mark_down(addr) == Transition::WentDown {
        let cluster = Arc::clone(&shared.cluster);
        std::thread::spawn(move || {
            let _ = cluster.rebalance();
        });
    }
    // Close first, drain second, under one lock hold: a forward racing this teardown
    // either lands in `entries` before the drain (answered below) or sees `closed`
    // and retries on the fail-over route. Nothing can be stranded in between.
    let drained: Vec<(u64, Pending)> = {
        let mut pending = lock_or_recover(pending);
        pending.closed = true;
        pending.entries.drain().collect()
    };
    for (id, entry) in drained {
        match entry {
            Pending::Forward { .. } | Pending::Tracked { .. } => {
                shared.send_error(
                    Some(id),
                    REPLICA_UNAVAILABLE,
                    format!("replica {addr} disconnected with the request in flight"),
                );
            }
            Pending::Fan { group, .. } => shared.fold_fan_leg(group, None),
        }
    }
}

/// The upstream frame loop. Streamed `embed_rows` frames pass through to a binary
/// client **without retiring** the in-flight entry (a JSON client's rows accumulate
/// here instead); the closing `embed_done` or `resp_json` frame retires it. Returns
/// when the upstream EOFs, fails, or violates framing (indistinguishable from
/// corruption, so it is treated as a replica death and everything in flight drains to
/// the retryable error).
fn read_responses(
    mut reader: BufReader<TcpStream>,
    addr: &str,
    shared: &Arc<ConnShared>,
    pending: &Arc<Mutex<PendingMap>>,
    instruments: &ReplicaInstruments,
) {
    let mut assembler = binary::FrameAssembler::new();
    let mut partials = binary::EmbedPartials::new();
    let client_binary = shared.client_is_binary();
    loop {
        let frame = match assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => match assembler.fill_from(&mut reader) {
                Ok(0) | Err(_) => return,
                Ok(_) => continue,
            },
            Err(_) => return,
        };
        let Some(id) = frame.correlation_id() else {
            continue; // uncorrelated noise; nothing to answer
        };
        match frame.kind {
            binary::KIND_EMBED_ROWS => {
                // Rows for an id that already drained (the replica raced its own
                // death) vanish — the drain already answered that id.
                if !lock_or_recover(pending).entries.contains_key(&id) {
                    continue;
                }
                if client_binary {
                    shared.forward_frame(&frame);
                } else {
                    // A malformed slice drops the stream's rows, so its `embed_done`
                    // fails to decode and answers the typed error.
                    let _ = binary::decode_response_frame(&frame, &mut partials);
                }
                continue;
            }
            binary::KIND_EMBED_DONE | binary::KIND_RESP_JSON => {}
            _ => continue, // an unknown response kind is uncorrelated noise
        }
        let Some(entry) = lock_or_recover(pending).entries.remove(&id) else {
            continue;
        };
        // Decode only what something reads: write-through needs the verdict, a fan-out
        // the body, a JSON client the whole response. A binary client's plain forwards
        // (embeds, multi-megabyte snapshots) pass through undecoded.
        let decoded = match (&entry, client_binary) {
            (Pending::Forward { .. }, true) => None,
            _ => Some(binary::decode_response_frame(&frame, &mut partials)),
        };
        let (Pending::Forward { started }
        | Pending::Tracked { started, .. }
        | Pending::Fan { started, .. }) = &entry;
        instruments.latency.record(started.elapsed());
        match entry {
            Pending::Forward { .. } => shared.relay(id, &frame, decoded),
            Pending::Tracked { handle, .. } => {
                if success_body(&decoded).is_some() {
                    // Write-through BEFORE the client sees success: once the response
                    // is out, fail-over must already be covered.
                    shared.cluster.record_placement(&handle, addr);
                    if let Err(error) = shared.cluster.replicate(&handle, addr) {
                        shared.cluster.metrics().inc_replication_failure();
                        eprintln!(
                            "gem-routed: write-through replication of {handle} from owner \
                             {addr} failed: {error}"
                        );
                    }
                }
                shared.relay(id, &frame, decoded);
            }
            Pending::Fan { group, .. } => {
                shared.fold_fan_leg(group, success_body(&decoded).cloned());
            }
        }
    }
}

/// The body of a decoded success response; `None` for typed errors, undecodable
/// frames, and responses nobody decoded.
fn success_body(decoded: &Option<Decoded>) -> Option<&ResponseBody> {
    match decoded {
        Some(Ok(Some(envelope))) if !matches!(envelope.body, ResponseBody::Error { .. }) => {
            Some(&envelope.body)
        }
        _ => None,
    }
}

/// Serve one client connection: reader loop here, writer on its own thread, upstream
/// readers spawned on demand.
///
/// A connection starts in JSON line mode, read under the replica's line cap. If the
/// **first** line is a version-matched binary hello the router accepts it and the
/// connection switches to frame mode for its whole remaining life.
fn serve_connection(stream: TcpStream, cluster: Arc<Cluster>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || write_replies(write_half, &reply_rx));
    let shared = Arc::new(ConnShared {
        cluster,
        reply_tx,
        groups: Mutex::new(HashMap::new()),
        closing: AtomicBool::new(false),
        client_binary: AtomicBool::new(false),
    });
    let mut forwarder = Forwarder {
        shared: Arc::clone(&shared),
        upstreams: HashMap::new(),
        next_group: 0,
    };

    let mut reader = BufReader::new(stream);
    let mut lines = LineReader::default();
    let mut awaiting_first_line = true;
    while !shutdown.load(Ordering::SeqCst) {
        let line = match lines.read(&mut reader) {
            Ok((JsonLine::Line(line), _)) => line,
            Ok((JsonLine::Oversized { id, error }, _)) => {
                shared.send_error(id, error.code(), error.to_string());
                awaiting_first_line = false;
                continue;
            }
            Ok((JsonLine::Eof, _)) => break,   // client hung up
            Err(e) if is_tick(&e) => continue, // shutdown tick; the partial line is kept
            Err(_) => break,
        };
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        if std::mem::take(&mut awaiting_first_line) {
            match std::str::from_utf8(&line)
                .ok()
                .and_then(binary::parse_hello)
            {
                Some(version) if version == PROTOCOL_VERSION => {
                    shared.client_binary.store(true, Ordering::SeqCst);
                    let _ = shared.reply_tx.send(binary::accept_line().into_bytes());
                    serve_binary_client(reader, &mut forwarder, &shutdown);
                    break;
                }
                Some(version) => {
                    let error = ProtoError::VersionMismatch {
                        found: version,
                        expected: PROTOCOL_VERSION,
                    };
                    shared.send_error(None, error.code(), error.to_string());
                    continue;
                }
                None => {} // an ordinary request line; fall through
            }
        }
        forwarder.handle_line(&line);
    }
    forwarder.close();
    // Every holder of a reply sender (forwarder's shared clone, ours, and the
    // upstream readers joined in `close`) must be gone before the writer can exit.
    drop(forwarder);
    drop(shared);
    let _ = writer.join();
}

/// The frame-mode client reader loop, entered after an accepted binary hello.
///
/// Chunked uploads are reassembled here exactly once, and — the routing win — the
/// corpus fingerprint is computed **incrementally from the chunk events**, so by the
/// time `end_fit` lands the model key (identical to the replica's [`fit_key`], and to
/// an offline [`gem_store::model_key`]) costs two hash finishes instead of a second multi-
/// megabyte corpus walk.
fn serve_binary_client(
    mut reader: BufReader<TcpStream>,
    forwarder: &mut Forwarder,
    shutdown: &Arc<AtomicBool>,
) {
    let mut assembler = binary::FrameAssembler::new();
    let mut chunks = binary::ChunkAssembler::new();
    let mut hashers: HashMap<u64, CorpusHasher> = HashMap::new();
    while !shutdown.load(Ordering::SeqCst) {
        let frame = match assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => match assembler.fill_from(&mut reader) {
                Ok(0) => return, // client hung up
                Ok(_) => continue,
                Err(e) if is_tick(&e) => continue, // shutdown tick
                Err(_) => return,
            },
            Err(e) => {
                // A framing violation has no resynchronisation point on a byte
                // stream: answer the typed error uncorrelated and drop the link.
                forwarder.shared.send_error(None, e.code(), e.to_string());
                return;
            }
        };
        if binary::ChunkAssembler::is_chunk_kind(frame.kind) {
            let accepted = chunks.accept(&frame, |event| match event {
                binary::ChunkEvent::Begin { id, total_columns } => {
                    hashers.insert(id, CorpusHasher::new(total_columns));
                }
                binary::ChunkEvent::Columns { id, columns } => {
                    if let Some(hasher) = hashers.get_mut(&id) {
                        hasher.push_columns(columns);
                    }
                }
            });
            match accepted {
                Ok(Some(envelope)) => {
                    let corpus_fp = hashers.remove(&envelope.id).map(CorpusHasher::finish);
                    forwarder.dispatch(envelope, ForwardPayload::Reencode, corpus_fp);
                }
                Ok(None) => {}
                Err(e) => {
                    // A chunk-sequence violation costs only that upload: the
                    // assembler already dropped its partial state, we drop the
                    // matching hasher, and the connection (with any interleaved
                    // uploads) lives on.
                    let id = frame.correlation_id();
                    if let Some(id) = id {
                        hashers.remove(&id);
                    }
                    forwarder.shared.send_error(id, e.code(), e.to_string());
                }
            }
        } else {
            match binary::decode_request_frame(&frame) {
                Ok(envelope) => match binary::frame_bytes(frame.kind, &frame.payload) {
                    Ok(raw) => {
                        forwarder.dispatch(envelope, ForwardPayload::Frame(&raw), None);
                    }
                    Err(_) => forwarder.dispatch(envelope, ForwardPayload::Reencode, None),
                },
                Err(e) => {
                    forwarder
                        .shared
                        .send_error(frame.correlation_id(), e.code(), e.to_string());
                }
            }
        }
    }
}

/// The client connection's writer: every queued reply is a complete wire blob in the
/// client's codec (newline-terminated JSON line or binary frame) and is written
/// byte-for-byte — editing here would corrupt binary frames.
fn write_replies(mut stream: TcpStream, replies: &mpsc::Receiver<Vec<u8>>) {
    for reply in replies {
        if stream.write_all(&reply).is_err() {
            return;
        }
        if stream.flush().is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RouterMetrics;
    use gem_core::{Composition, FeatureSet, GemColumn, GemConfig, MethodRegistry};
    use gem_proto::decode_response;
    use gem_serve::client::{ClientError, GemClient};
    use gem_serve::{model_key, EmbedService, GemServer, ServerHandle};

    fn empty_router() -> (RouterHandle, SocketAddr, JoinHandle<std::io::Result<()>>) {
        let metrics = Arc::new(RouterMetrics::new());
        // A member that cannot be reached: connects to it fail instantly, so routing
        // exercises the mark-down + no_replica path without sleeping.
        let cluster = Arc::new(Cluster::with_options(
            &["127.0.0.1:1".to_string()],
            metrics,
            8,
            1,
            Duration::from_millis(50),
            Duration::from_millis(100),
        ));
        let server = RouterServer::bind(cluster, ("127.0.0.1", 0)).expect("bind");
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        (handle, addr, thread)
    }

    #[test]
    fn health_is_answered_by_the_router_itself() {
        let (handle, addr, thread) = empty_router();
        let mut client = GemClient::connect(addr).expect("connect");
        let health = client.health().expect("health");
        // No probe has run and the only member is unreachable but not yet marked
        // down, so the router reports ok with zeroed queue numbers.
        assert_eq!(health.queue_depth, 0);
        handle.shutdown();
        let _ = thread.join();
    }

    #[test]
    fn unroutable_requests_get_the_typed_no_replica_error() {
        let (handle, addr, thread) = empty_router();
        let mut client = GemClient::connect(addr).expect("connect");
        let handle_hex = "00000000000000aa-00000000000000bb";
        let err = client
            .embed(ModelHandle::parse(handle_hex).expect("valid hex"), &[])
            .expect_err("nothing can serve this");
        match err {
            ClientError::Server {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, NO_REPLICA);
                assert!(retry_after_ms.is_some(), "no_replica carries a retry hint");
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
        handle.shutdown();
        let _ = thread.join();
    }

    fn real_replica() -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .expect("bind replica")
            .with_workers(2);
        let handle = server.handle().expect("replica handle");
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    #[allow(clippy::type_complexity)]
    fn router_over(
        replicas: &[String],
    ) -> (
        Arc<Cluster>,
        RouterHandle,
        SocketAddr,
        JoinHandle<std::io::Result<()>>,
    ) {
        let metrics = Arc::new(RouterMetrics::new());
        let cluster = Arc::new(Cluster::with_options(
            replicas,
            metrics,
            8,
            1,
            Duration::from_millis(50),
            Duration::from_millis(500),
        ));
        let server = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).expect("bind");
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        (cluster, handle, addr, thread)
    }

    fn test_corpus() -> Vec<GemColumn> {
        shifted_corpus(4, 0.0)
    }

    fn shifted_corpus(columns: i32, shift: f64) -> Vec<GemColumn> {
        (0..columns)
            .map(|c| {
                GemColumn::new(
                    (0..300)
                        .map(|i| f64::from(i) * 0.25 + f64::from(c) * 40.0 + shift)
                        .collect(),
                    format!("col_{c}"),
                )
            })
            .collect()
    }

    #[test]
    fn binary_clients_chunk_fits_through_the_router_with_incremental_keys() {
        let (replica, replica_join) = real_replica();
        let (cluster, handle, addr, thread) = router_over(&[replica.addr().to_string()]);
        let config = GemConfig::fast();
        let corpus = test_corpus();

        // chunk_bytes(1) clamps to the 1 KiB floor, so this ~10 KiB corpus genuinely
        // travels as a begin_fit / corpus_chunk* / end_fit sequence.
        let mut client = GemClient::connect(addr)
            .expect("connect")
            .with_chunk_bytes(1);
        assert_eq!(client.codec_name(), "binary");
        let fitted = client
            .fit(&corpus, &config, FeatureSet::ds())
            .expect("chunked fit through the router");
        let expected = model_key(&corpus, &config, FeatureSet::ds());
        assert_eq!(fitted.handle, ModelHandle::from(expected));
        // The router keyed its placement from the *incremental* chunk hash — it must
        // land on the same hex as the offline derivation, or fail-over would look the
        // model up under a name nobody else computes.
        assert_eq!(
            cluster.placement_of(&expected.to_hex()),
            Some(replica.addr().to_string()),
            "placement recorded under the incrementally fingerprinted key"
        );

        // Streamed embed rows forward through the router verbatim and match what the
        // replica serves directly.
        let embedded = client.embed(fitted.handle, &corpus).expect("embed");
        assert_eq!(embedded.matrix.rows(), corpus.len());
        let mut direct = GemClient::connect_json(replica.addr()).expect("direct connect");
        let via_direct = direct.embed(fitted.handle, &corpus).expect("direct embed");
        assert_eq!(embedded.matrix, via_direct.matrix);

        handle.shutdown();
        let _ = thread.join();
        replica.shutdown();
        let _ = replica_join.join();
    }

    #[test]
    fn json_clients_get_the_binary_clients_bits_through_the_router() {
        let (replica_a, join_a) = real_replica();
        let (replica_b, join_b) = real_replica();
        let members = [replica_a.addr().to_string(), replica_b.addr().to_string()];
        let (_cluster, handle, addr, thread) = router_over(&members);
        let config = GemConfig::fast();
        let corpus = test_corpus();
        // More than one 32-column transform batch, so the replica streams several
        // `embed_rows` frames that the router must reassemble into one JSON line.
        let queries = shifted_corpus(70, 3.5);

        let mut json = GemClient::connect_json(addr).expect("json connect");
        assert_eq!(json.codec_name(), "json");
        let fitted = json
            .fit(&corpus, &config, FeatureSet::ds())
            .expect("fit over the JSON edge");
        assert_eq!(
            fitted.handle,
            ModelHandle::from(model_key(&corpus, &config, FeatureSet::ds()))
        );
        let via_json = json.embed(fitted.handle, &queries).expect("json embed");
        assert_eq!(via_json.matrix.rows(), queries.len());

        let mut binary = GemClient::connect(addr).expect("binary connect");
        assert_eq!(binary.codec_name(), "binary");
        let via_binary = binary.embed(fitted.handle, &queries).expect("binary embed");
        assert!(
            via_json.matrix == via_binary.matrix,
            "same bits over either codec"
        );

        // Stats fans out to both replicas and merges: the owner holds the fitted
        // model and its ring successor the write-through copy.
        let stats = json.stats().expect("merged stats");
        assert_eq!(stats.resident_models, 2, "{stats:?}");
        assert!(stats.fit_micros > 0);

        handle.shutdown();
        let _ = thread.join();
        replica_a.shutdown();
        replica_b.shutdown();
        let _ = join_a.join();
        let _ = join_b.join();
    }

    #[test]
    fn composition_overrides_place_fits_under_the_replicas_handle() {
        let (replica, replica_join) = real_replica();
        let (cluster, handle, addr, thread) = router_over(&[replica.addr().to_string()]);
        let config = GemConfig::fast();
        let corpus = test_corpus();

        let mut client = GemClient::connect(addr).expect("connect");
        let plain = client
            .fit(&corpus, &config, FeatureSet::ds())
            .expect("plain fit");
        let aggregated = client
            .fit_with_composition(
                &corpus,
                &config,
                FeatureSet::ds(),
                Some(Composition::Aggregation),
            )
            .expect("fit with a composition override");
        assert_ne!(
            aggregated.handle, plain.handle,
            "composition is part of the key"
        );
        assert_eq!(
            cluster.placement_of(&aggregated.handle.to_hex()),
            Some(replica.addr().to_string()),
            "placement recorded under the handle the replica returned"
        );

        handle.shutdown();
        let _ = thread.join();
        replica.shutdown();
        let _ = replica_join.join();
    }

    #[test]
    fn failed_write_through_copies_are_counted() {
        let (replica, replica_join) = real_replica();
        let live = replica.addr().to_string();
        // The successor refuses connections, so every write-through copy fails.
        let (cluster, handle, addr, thread) = router_over(&[live.clone(), "127.0.0.1:1".into()]);
        let config = GemConfig::fast();
        // A corpus the ring places on the live replica.
        let corpus = (0..64)
            .map(|shift| shifted_corpus(4, f64::from(shift)))
            .find(|corpus| {
                let key = model_key(corpus, &config, FeatureSet::ds());
                cluster.route_handle(&key.to_hex()) == Some(live.clone())
            })
            .expect("some corpus lands on the live replica");

        let mut client = GemClient::connect(addr).expect("connect");
        client
            .fit(&corpus, &config, FeatureSet::ds())
            .expect("the fit itself succeeds");
        let exposition = cluster.metrics().render();
        assert!(
            exposition.contains("router_replication_failures_total 1"),
            "{exposition}"
        );

        handle.shutdown();
        let _ = thread.join();
        replica.shutdown();
        let _ = replica_join.join();
    }

    #[test]
    fn replicas_that_decline_the_binary_hello_fail_like_refused_connects() {
        // A peer that answers every hello with a version_mismatch decline.
        let decliner = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let decliner_addr = decliner.local_addr().expect("addr");
        // The router makes one attempt per member, so one connection arrives.
        let declining = std::thread::spawn(move || {
            for stream in decliner.incoming().take(1).flatten() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut hello = String::new();
                let _ = reader.read_line(&mut hello);
                let decline = ResponseEnvelope::uncorrelated(ResponseBody::Error {
                    code: "version_mismatch".to_string(),
                    message: "declined".to_string(),
                    retry_after_ms: None,
                });
                let _ = (&stream).write_all(encode_response(&decline).as_bytes());
            }
        });
        let (cluster, handle, addr, thread) = router_over(&[decliner_addr.to_string()]);

        let mut client = GemClient::connect(addr).expect("connect");
        let err = client
            .embed(
                ModelHandle::parse("00000000000000aa-00000000000000bb").expect("valid hex"),
                &[],
            )
            .expect_err("no replica speaks binary");
        assert_eq!(err.code(), Some(NO_REPLICA), "{err:?}");
        assert!(
            cluster.live_replicas().is_empty(),
            "the decliner is marked down"
        );

        handle.shutdown();
        let _ = thread.join();
        let _ = declining.join();
    }

    #[test]
    fn oversized_json_lines_get_a_typed_error_and_the_connection_lives_on() {
        let (handle, addr, thread) = empty_router();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A valid request padded past the cap: without the cap it would be served.
        let mut line = String::from("{\"id\":42,\"version\":5,\"body\":{\"type\":\"health\"}");
        line.push_str(&" ".repeat(gem_proto::MAX_JSON_LINE_BYTES));
        line.push_str("}\n{\"id\":43,\"version\":5,\"body\":{\"type\":\"health\"}}\n");
        stream.write_all(line.as_bytes()).expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        let envelope = decode_response(&response).expect("decode");
        assert_eq!(envelope.in_reply_to, Some(42), "the id is salvaged");
        assert!(
            matches!(&envelope.body, ResponseBody::Error { code, .. } if code == "protocol_error"),
            "{envelope:?}"
        );
        response.clear();
        reader.read_line(&mut response).expect("read");
        let envelope = decode_response(&response).expect("decode");
        assert_eq!(envelope.in_reply_to, Some(43));
        assert!(
            matches!(envelope.body, ResponseBody::Health { .. }),
            "{envelope:?}"
        );

        handle.shutdown();
        let _ = thread.join();
    }

    #[test]
    fn malformed_lines_answer_protocol_errors_with_salvaged_ids() {
        let (handle, addr, thread) = empty_router();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"{\"id\": 42, \"version\": 999999, \"body\": {\"type\": \"stats\"}}\n")
            .expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let envelope = decode_response(line.trim_end()).expect("decode");
        assert_eq!(envelope.in_reply_to, Some(42), "id salvaged from bad line");
        assert!(
            matches!(envelope.body, ResponseBody::Error { ref code, .. } if code == "version_mismatch"),
            "{envelope:?}"
        );
        handle.shutdown();
        let _ = thread.join();
    }
}
