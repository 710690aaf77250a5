//! The traced replay: a deterministic sample of the run's own generated requests,
//! pushed through each layer's public functions in serving order, with a span around
//! every call. Network layers are timed by issuing the same request straight to the
//! owning replica and through the router; the replica's own phase timings for that
//! one request are read as deltas of its exported `_sum` series.
//!
//! The embed budget for one request, all in its own units:
//!
//! ```text
//! routed round trip = codec.req_encode + net.socket + replica.queue
//!                   + codec.req_decode + cache.lookup + transform + codec.resp_encode
//!                   + codec.resp_decode + router.overhead + residual
//! net.socket        = direct round trip - replica phases - client-side codec
//! router.overhead   = routed round trip - direct round trip
//! ```
//!
//! so the residual is the replica's own decode + execute + encode time that the
//! in-process layer calls do not account for.

use crate::cluster::{connect, Exposition, Topology};
use crate::stats::{mean, median, us};
use crate::trace::Tracer;
use crate::workload::{model_config, EmbedRequest, FitOp, Pools, Spec};
use gem_core::{
    compose, signature_matrix, statistical_feature_matrix, GemColumn, GemEmbedding, GemModel,
};
use gem_proto::binary::{self, EmbedPartials, FrameAssembler};
use gem_proto::{RequestBody, RequestEnvelope};
use gem_router::ring::DEFAULT_VNODES;
use gem_router::HashRing;
use gem_serve::{BatchEngine, CachePolicy, GemClient, ModelHandle, ModelStore};
use gem_store::{decode_snapshot, encode_snapshot, model_key, updated_model_key, ModelKey};
use gem_text::HashEmbedder;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer results, name → value (units are fixed per name in BENCHMARK.json).
pub type Layers = BTreeMap<&'static str, f64>;

/// The fitted handles of a run, with their models as pulled from the cluster.
pub struct Fitted {
    pub handles: Vec<ModelHandle>,
    pub models: Vec<Arc<GemModel>>,
}

/// Which replica serves `handle` and which holds its write-through copy.
pub fn owner_and_successor(
    ring: &HashRing,
    replicas: &[String],
    handle: ModelHandle,
) -> (usize, usize) {
    let hex = handle.to_hex();
    let owner = ring.owner(&hex).unwrap_or(&replicas[0]).to_string();
    let at = replicas.iter().position(|r| *r == owner).unwrap_or(0);
    (at, 1 - at)
}

const PHASES: [&str; 4] = ["queue", "decode", "execute", "encode"];

/// One replayed embed's budget inputs: the in-process layer spans (in serving order:
/// request encode, request decode, cache lookup, transform, response encode,
/// response decode), the owning replica's four phase times for the direct call (µs),
/// and the direct and routed round-trip spans.
struct Budget {
    layers: [u32; 6],
    phase: Vec<f64>,
    direct: u32,
    routed: u32,
}

fn phase_sums_us(expo: &Exposition, shape: &str) -> [f64; 4] {
    PHASES.map(|phase| {
        expo.get(
            "gem_request_phase_seconds_sum",
            &[("shape", shape), ("phase", phase)],
        ) * 1e6
    })
}

/// One embed through the in-process layers in serving order, each call in a span
/// under `parent`: request encode and decode, cache lookup and transform (inside a
/// `replica.execute` span), response encode and decode. Returns those six layer
/// spans, the request's size on the wire and the embedding.
fn serve_in_process(
    tracer: &mut Tracer,
    parent: Option<u32>,
    rid: u64,
    engine: &BatchEngine,
    handle: ModelHandle,
    cols: &[GemColumn],
) -> Result<([u32; 6], usize, GemEmbedding), String> {
    let envelope = RequestEnvelope::new(
        rid,
        RequestBody::Embed {
            handle: handle.to_hex(),
            queries: cols.to_vec(),
        },
    );
    let (frames, req_encode) = tracer.time("codec.req_encode", parent, rid, || {
        binary::encode_request_frames(&envelope, binary::DEFAULT_CHUNK_BYTES)
    });
    let frames = frames.map_err(|e| e.to_string())?;
    let (decoded, req_decode) = tracer.time("codec.req_decode", parent, rid, || {
        let mut assembler = FrameAssembler::new();
        for frame in &frames {
            assembler.push(frame);
        }
        let frame = assembler.next_frame().ok().flatten()?;
        binary::decode_request_frame(&frame).ok()
    });
    if decoded.is_none() {
        return Err("request frame did not decode".to_string());
    }

    let execute = tracer.open("replica.execute", parent, rid);
    let (resolved, lookup) = tracer.time("cache.lookup", Some(execute), rid, || {
        engine.resolve(handle.key())
    });
    let resolved = resolved.ok_or("replay cache lost a model")?.0;
    let (embedding, transform) =
        tracer.time("transform", Some(execute), rid, || resolved.transform(cols));
    tracer.close(execute);
    let embedding = embedding.map_err(|e| e.to_string())?;

    let matrix = &embedding.matrix;
    let (response, resp_encode) = tracer.time("codec.resp_encode", parent, rid, || {
        let mut bytes =
            binary::embed_rows_frame(rid, "memory_cache", matrix.cols(), matrix.as_slice())?;
        bytes.extend(binary::embed_done_frame(
            rid,
            "memory_cache",
            matrix.cols(),
            matrix.rows(),
        )?);
        Ok::<_, gem_proto::ProtoError>(bytes)
    });
    let response = response.map_err(|e| e.to_string())?;
    let (answer, resp_decode) = tracer.time("codec.resp_decode", parent, rid, || {
        let mut assembler = FrameAssembler::new();
        let mut partials = EmbedPartials::new();
        assembler.push(&response);
        let mut done = None;
        while let Ok(Some(frame)) = assembler.next_frame() {
            if let Ok(Some(envelope)) = binary::decode_response_frame(&frame, &mut partials) {
                done = Some(envelope);
            }
        }
        done
    });
    if answer.is_none() {
        return Err("response frames did not decode".to_string());
    }
    let bytes = frames.iter().map(Vec::len).sum();
    Ok((
        [
            req_encode,
            req_decode,
            lookup,
            transform,
            resp_encode,
            resp_decode,
        ],
        bytes,
        embedding,
    ))
}

/// What the embed replay measured per request, for the budget and tracing cost.
pub struct EmbedReplay {
    /// (routed round trip − Σ layer self times) ÷ routed round trip.
    pub residual_fracs: Vec<f64>,
    /// In-process pipeline with spans ÷ the same without spans − 1.
    pub overhead_fracs: Vec<f64>,
}

/// Replay `sample` embeds through every layer. Records into `tracer` and returns the
/// embed-side layer metrics plus the per-request budget residuals and tracing costs.
#[allow(clippy::too_many_arguments)]
pub fn replay_embeds(
    spec: &Spec,
    topo: &Topology,
    fitted: &Fitted,
    sample: &[EmbedRequest],
    queries: &Pools,
    run_dir: &Path,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> Result<EmbedReplay, String> {
    let replicas = topo.replica_addrs();
    let ring = HashRing::build(&replicas, DEFAULT_VNODES);
    let mut direct: Vec<GemClient> = replicas
        .iter()
        .map(|a| connect(a))
        .collect::<Result<_, _>>()?;
    let mut routed = connect(&topo.router.addr)?;

    // The cache as a replica runs it: same policy, a store when the replica has one,
    // every model published in set-up order.
    let store_dir = run_dir.join("replay-store");
    let store = Arc::new(ModelStore::open(&store_dir).map_err(|e| e.to_string())?);
    let mut engine =
        BatchEngine::with_policy(CachePolicy::with_capacity(spec.replica.cache_capacity));
    if spec.replica.store {
        engine = engine.with_store(Arc::clone(&store));
    }
    for (handle, model) in fitted.handles.iter().zip(&fitted.models) {
        engine.publish(handle.key(), Arc::clone(model));
        store.save(handle.key(), model).map_err(|e| e.to_string())?;
    }

    let mut columns = 0usize;
    let mut req_bytes = Vec::new();
    let mut residual_fracs = Vec::new();
    let mut overhead_fracs = Vec::new();
    let mut direct_us = Vec::new();
    let mut socket_us = Vec::new();
    let mut router_us = Vec::new();
    let mut store_load_ms = Vec::new();
    let mut budgets = Vec::new();
    for (i, request) in sample.iter().enumerate() {
        let rid = i as u64;
        let handle = fitted.handles[request.model];
        let model = &fitted.models[request.model];
        let cols: Vec<GemColumn> = queries.columns(&request.queries);
        columns += cols.len();
        let root = tracer.open("replay.embed", None, rid);
        let (layers, bytes, embedding) =
            serve_in_process(tracer, Some(root), rid, &engine, handle, &cols)?;
        req_bytes.push(bytes as f64);

        // What the spans cost: the same pipeline again, now on a resident model, once
        // with spans (kept in a scratch tracer) and once without, taking turns at
        // going first.
        let mut elapsed_ns = [0u64; 2];
        for turn in 0..2 {
            let traced = (turn + i) % 2 == 1;
            let mut scratch = if traced {
                Tracer::new(Instant::now())
            } else {
                Tracer::off()
            };
            let started = Instant::now();
            serve_in_process(&mut scratch, None, rid, &engine, handle, &cols)?;
            elapsed_ns[usize::from(traced)] = started.elapsed().as_nanos() as u64;
        }
        overhead_fracs.push(elapsed_ns[1] as f64 / elapsed_ns[0].max(1) as f64 - 1.0);

        // The kernels transform runs, called one by one (a breakdown of `transform`).
        let kernels = tracer.open("kernels", Some(root), rid);
        let values: Vec<&[f64]> = cols.iter().map(|c| c.values.as_slice()).collect();
        if let Some(gmm) = model.gmm() {
            tracer.time("kernel.signature", Some(kernels), rid, || {
                signature_matrix(gmm, &values, model.config().parallel)
            });
        }
        tracer.time("kernel.statistics", Some(kernels), rid, || {
            statistical_feature_matrix(&values)
        });
        let text = HashEmbedder::new(model.config().text_dim);
        tracer.time("kernel.header", Some(kernels), rid, || {
            cols.iter()
                .map(|c| text.embed_l1(&c.header))
                .collect::<Vec<_>>()
        });
        let blocks: Vec<&gem_numeric::Matrix> = [&embedding.value_block, &embedding.header_block]
            .into_iter()
            .filter(|b| b.cols() > 0)
            .collect();
        tracer.time("kernel.compose", Some(kernels), rid, || {
            compose(&blocks, model.config().composition)
        });
        tracer.close(kernels);

        // The same request over the wire: straight to its owner, then via the router.
        let (owner, _) = owner_and_successor(&ring, &replicas, handle);
        let before = topo.replicas[owner].scrape()?;
        let (outcome, direct_span) = tracer.time("net.direct", Some(root), rid, || {
            direct[owner].embed(handle, &cols)
        });
        let after = topo.replicas[owner].scrape()?;
        outcome.map_err(|e| format!("direct embed: {e}"))?;
        let (outcome, routed_span) = tracer.time("net.routed", Some(root), rid, || {
            routed.embed(handle, &cols)
        });
        outcome.map_err(|e| format!("routed embed: {e}"))?;
        let count = |e: &Exposition| e.get("gem_request_seconds_count", &[("shape", "embed")]);
        if count(&after) - count(&before) != 1.0 {
            return Err(format!(
                "direct embed did not land on replica {owner} alone"
            ));
        }
        let (b, a) = (
            phase_sums_us(&before, "embed"),
            phase_sums_us(&after, "embed"),
        );
        let phase: Vec<f64> = (0..4).map(|p| a[p] - b[p]).collect();
        let (_, load_span) =
            tracer.time("store.load", Some(root), rid, || store.load(handle.key()));
        tracer.close(root);

        store_load_ms.push(us(tracer.span(load_span).duration_ns()) / 1e3);
        budgets.push(Budget {
            layers,
            phase,
            direct: direct_span,
            routed: routed_span,
        });
    }

    // The budget, from each layer span's self time.
    let self_times = tracer.self_times_ns();
    let self_us = |id: u32| us(self_times[id as usize]);
    for budget in &budgets {
        let [req_encode, _, _, _, _, resp_decode] = budget.layers;
        let server: f64 = budget.phase.iter().sum();
        let direct_rtt = self_us(budget.direct);
        let routed_rtt = self_us(budget.routed);
        let socket = direct_rtt - server - self_us(req_encode) - self_us(resp_decode);
        let router = routed_rtt - direct_rtt;
        let in_process: f64 = budget.layers.iter().map(|&id| self_us(id)).sum();
        let layers_sum = in_process + budget.phase[0] + socket + router;
        residual_fracs.push((routed_rtt - layers_sum) / routed_rtt);
        direct_us.push(direct_rtt);
        socket_us.push(socket);
        router_us.push(router);
    }

    let p50_us = |name: &str| -> Result<f64, String> {
        let values: Vec<f64> = tracer.durations_ns(name).into_iter().map(us).collect();
        median(&values)
    };
    let per_col = |name: &str| -> f64 {
        tracer.durations_ns(name).into_iter().map(us).sum::<f64>() / columns.max(1) as f64
    };
    out.insert("codec.req_encode_p50_us", p50_us("codec.req_encode")?);
    out.insert("codec.req_decode_p50_us", p50_us("codec.req_decode")?);
    out.insert("codec.resp_encode_p50_us", p50_us("codec.resp_encode")?);
    out.insert("codec.resp_decode_p50_us", p50_us("codec.resp_decode")?);
    out.insert("codec.bytes_per_req", mean(&req_bytes));
    out.insert("cache.lookup_p50_us", p50_us("cache.lookup")?);
    out.insert("store.load_p50_ms", median(&store_load_ms)?);
    out.insert("signature.us_per_col", per_col("kernel.signature"));
    out.insert("statistics.us_per_col", per_col("kernel.statistics"));
    out.insert("header.us_per_col", per_col("kernel.header"));
    out.insert("compose.us_per_col", per_col("kernel.compose"));
    out.insert("transform.p50_us", p50_us("transform")?);
    out.insert("net.direct_rtt_p50_us", median(&direct_us)?);
    out.insert("net.socket_p50_us", median(&socket_us)?);
    out.insert("router.overhead_p50_us", median(&router_us)?);
    Ok(EmbedReplay {
        residual_fracs,
        overhead_fracs,
    })
}

/// Replay fresh cold fits and `fit_update`s through the fit-path layers: fingerprint,
/// EM, snapshot encode/decode, the routed fit and a pull + push replication of the
/// same snapshot. Returns the per-fit budget residual fractions (routed fit minus
/// two fingerprints, the EM fit and the replication, over the routed fit).
pub fn replay_fits(
    spec: &Spec,
    topo: &Topology,
    ops: &[FitOp],
    fit_pools: &Pools,
    query_pools: &Pools,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> Result<Vec<f64>, String> {
    let config = model_config();
    let replicas = topo.replica_addrs();
    let ring = HashRing::build(&replicas, DEFAULT_VNODES);
    let mut direct: Vec<GemClient> = replicas
        .iter()
        .map(|a| connect(a))
        .collect::<Result<_, _>>()?;
    let mut routed = connect(&topo.router.addr)?;
    let mut fitted: Vec<(ModelKey, GemModel)> = Vec::new();
    let mut residual_fracs = Vec::new();
    let mut iterations = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let base = 1_000_000u64;
    for (i, op) in ops.iter().enumerate() {
        let rid = base + i as u64;
        match op {
            FitOp::Cold { corpus } => {
                let corpus = fit_pools.columns(corpus);
                let root = tracer.open("replay.fit", None, rid);
                let (key, fp) = tracer.time("fingerprint", Some(root), rid, || {
                    model_key(&corpus, &config, spec.features)
                });
                let (model, em) = tracer.time("em.fit", Some(root), rid, || {
                    GemModel::fit(&corpus, &config, spec.features)
                });
                let model = model.map_err(|e| e.to_string())?;
                iterations.push(model.em_iterations() as f64);
                let (json, _) = tracer.time("snapshot.encode", Some(root), rid, || {
                    encode_snapshot(key, &model)
                });
                snapshot_bytes.push(json.to_compact_string().len() as f64);
                let (decoded, _) = tracer.time("snapshot.decode", Some(root), rid, || {
                    decode_snapshot(&json, Some(key))
                });
                decoded.map_err(|e| e.to_string())?;
                let (outcome, fit_span) = tracer.time("net.routed_fit", Some(root), rid, || {
                    routed.fit(&corpus, &config, spec.features)
                });
                let outcome = outcome.map_err(|e| format!("routed fit: {e}"))?;
                if outcome.handle.key() != key {
                    return Err("routed fit answered a handle other than the model key".to_string());
                }
                let (owner, successor) = owner_and_successor(&ring, &replicas, outcome.handle);
                let (shipped, replicate) = tracer.time("router.replicate", Some(root), rid, || {
                    let snapshot = direct[owner].pull_model(outcome.handle)?;
                    direct[successor].push_model(&snapshot.snapshot)
                });
                shipped.map_err(|e| format!("replicate: {e}"))?;
                tracer.close(root);
                let dur = |id: u32| us(tracer.span(id).duration_ns());
                let e2e = dur(fit_span);
                residual_fracs.push((e2e - 2.0 * dur(fp) - dur(em) - dur(replicate)) / e2e);
                fitted.push((key, model));
            }
            FitOp::Update { parent, columns } => {
                let Some((parent_key, parent_model)) = fitted.get(*parent % fitted.len().max(1))
                else {
                    continue;
                };
                let columns = query_pools.columns(columns);
                let root = tracer.open("replay.fit_update", None, rid);
                tracer.time("fingerprint", Some(root), rid, || {
                    updated_model_key(*parent_key, &columns)
                });
                let (grown, _) = tracer.time("fit_update", Some(root), rid, || {
                    parent_model.fit_update(&columns)
                });
                grown.map_err(|e| e.to_string())?;
                tracer.close(root);
            }
        }
    }
    let p50_us = |name: &str| -> Result<f64, String> {
        let values: Vec<f64> = tracer.durations_ns(name).into_iter().map(us).collect();
        median(&values)
    };
    out.insert("fingerprint.p50_us", p50_us("fingerprint")?);
    out.insert("em.fit_p50_ms", p50_us("em.fit")? / 1e3);
    out.insert("em.iterations_mean", mean(&iterations));
    out.insert("fit_update.p50_us", p50_us("fit_update")?);
    out.insert("snapshot.encode_p50_us", p50_us("snapshot.encode")?);
    out.insert("snapshot.decode_p50_us", p50_us("snapshot.decode")?);
    out.insert("snapshot.bytes", mean(&snapshot_bytes));
    out.insert("router.replicate_p50_ms", p50_us("router.replicate")? / 1e3);
    Ok(residual_fracs)
}

/// Daemon-side layer metrics from two scrapes bracketing the measured window. Times
/// are window means from the exported `_sum` / `_count` series: the daemons' quantile
/// readouts are log-bucket upper bounds (four per octave), which repeat exactly from
/// run to run and so cannot be reported as measured times.
pub fn scraped(
    before: &[Exposition],
    after: &[Exposition],
    router: (&Exposition, &Exposition),
    out: &mut Layers,
) {
    let delta = |name: &str, labels: &[(&str, &str)]| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| a.get(name, labels) - b.get(name, labels))
            .sum()
    };
    let embeds = delta("gem_request_seconds_count", &[("shape", "embed")]).max(1.0);
    for (metric, phase) in [
        ("replica.queue_mean_us", "queue"),
        ("replica.decode_mean_us", "decode"),
        ("replica.execute_mean_us", "execute"),
        ("replica.encode_mean_us", "encode"),
    ] {
        let seconds = delta(
            "gem_request_phase_seconds_sum",
            &[("shape", "embed"), ("phase", phase)],
        );
        out.insert(metric, seconds / embeds * 1e6);
    }
    let delta = |name: &str| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| a.sum(name) - b.sum(name))
            .sum()
    };
    out.insert("replica.shed", delta("gem_requests_shed_total"));
    out.insert(
        "replica.queue_depth_peak",
        after
            .iter()
            .map(|a| a.get("gem_queue_depth_high_water", &[]))
            .fold(0.0, f64::max),
    );

    let (rb, ra) = router;
    let router_delta = |name: &str| ra.sum(name) - rb.sum(name);
    out.insert(
        "router.forward_mean_us",
        router_delta("router_replica_request_seconds_sum")
            / router_delta("router_replica_request_seconds_count").max(1.0)
            * 1e6,
    );
    out.insert(
        "router.replications",
        ra.get("router_replications_total", &[]) - rb.get("router_replications_total", &[]),
    );
    out.insert(
        "router.forward_errors",
        ra.sum("router_replica_errors_total") - rb.sum("router_replica_errors_total"),
    );
}
