//! The serving front-end: a typed, handle-based request protocol over the model cache.
//!
//! [`EmbedService`] wraps a [`MethodRegistry`] and a [`BatchEngine`] and answers
//! [`ServeRequest`]s — the same six-shape protocol `gem-proto` carries over a wire:
//!
//! * [`ServeRequest::Fit`] — fit (or reuse) the model for a corpus and return its
//!   [`ModelHandle`]. Fitting is idempotent: an identical corpus + configuration yields
//!   an identical handle, served from whichever cache tier already holds it.
//! * [`ServeRequest::Embed`] — embed query columns against the model a handle names.
//!   Handles are **resolved, never refitted**: the memory tier is consulted, then the
//!   store tier, and a miss is the typed [`ServeError::UnknownModel`] — the corpus is
//!   not on the wire, so a silent refit is impossible by construction.
//! * [`ServeRequest::EmbedCorpus`] — the one-shot path: embed a corpus (or queries
//!   against it) with any registry method by name. Gem pipeline variants registered via
//!   [`EmbedService::register_gem_family`] are served through the model cache; methods
//!   without a fit/transform seam compute fresh.
//! * [`ServeRequest::PushModel`] / [`ServeRequest::PullModel`] — snapshot shipping: a
//!   pulled model is the bit-exact `gem-store` envelope, and pushing it to another
//!   replica makes the same handle resolvable there **without refitting and without the
//!   corpus on the wire** (models travel as pre-verified artifacts).
//! * [`ServeRequest::Stats`], [`ServeRequest::ListModels`], [`ServeRequest::Evict`] —
//!   introspection and lifecycle control.
//!
//! Every outcome is a [`ServeResult`]: a typed [`ServeResponse`] or a [`ServeError`]
//! from the stable-coded taxonomy. Within one batch, control requests (including
//! push/pull) are applied first (in request order), then all fits, then all embeds — so
//! a `Fit` (or a `PushModel`) and an `Embed` of the resulting handle can share a batch.

use crate::cache::CachePolicy;
use crate::engine::{BatchEngine, EngineRequest, FitJob, ServedFrom};
use crate::error::ServeError;
use crate::fingerprint::{corpus_fingerprint, fit_key};
use crate::handle::ModelHandle;
use crate::CacheTier;
use gem_core::{
    gem_family_variants, Composition, FeatureSet, GemColumn, GemConfig, GemVariant, MethodRegistry,
};
use gem_numeric::Matrix;
use gem_store::ModelStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One serving request. See the [module docs](self) for the protocol shape; construct
/// variants with the [`ServeRequest::fit`], [`ServeRequest::fit_update`],
/// [`ServeRequest::embed`], [`ServeRequest::embed_corpus`] and [`ServeRequest::evict`]
/// conveniences.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Fit (or reuse) the model for `corpus` and return its handle.
    Fit {
        /// The corpus defining the model.
        corpus: Arc<Vec<GemColumn>>,
        /// Pipeline configuration to fit with.
        config: GemConfig,
        /// Which evidence types the model uses.
        features: FeatureSet,
        /// Optional composition override applied on top of `config`.
        composition: Option<Composition>,
    },
    /// Fold new corpus columns into the fitted model `handle` names, producing a
    /// derived model under a new handle without a from-scratch EM run. `corpus` holds
    /// the *new* columns only; the parent's components are frozen and reused, so every
    /// old-column embedding is bit-identical under the derived handle and the cost is
    /// proportional to corpus growth, not corpus size. The parent handle is recorded
    /// as lineage in the store tier. An unknown parent is `UnknownModel`, never a
    /// silent full fit.
    FitUpdate {
        /// Handle of the fitted model to grow from.
        handle: ModelHandle,
        /// The new columns only (not the full grown corpus).
        corpus: Arc<Vec<GemColumn>>,
    },
    /// Embed `queries` against the fitted model `handle` names.
    Embed {
        /// Handle returned by an earlier `Fit`.
        handle: ModelHandle,
        /// Columns to embed against the model.
        queries: Vec<GemColumn>,
    },
    /// One-shot: embed `queries` (or the corpus itself) with the registry method
    /// `method`, against the model fitted on `corpus` when the method has a
    /// fit/transform seam.
    EmbedCorpus {
        /// Registry name of the method to run (e.g. `"Gem (D+S)"`, `"PLE"`).
        method: String,
        /// The corpus defining the model (and the embedding input when `queries` is
        /// `None`).
        corpus: Arc<Vec<GemColumn>>,
        /// Columns to embed; `None` embeds the corpus itself.
        queries: Option<Vec<GemColumn>>,
        /// Training labels for supervised methods.
        labels: Option<Vec<String>>,
    },
    /// Install an externally produced model (a shipped snapshot) under `handle`,
    /// making the handle resolvable exactly as if this service had fitted it. The
    /// snapshot's header integrity is validated at the wire layer; the key is trusted
    /// like a store file's filename — snapshot shipping moves *pre-verified* artifacts
    /// between replicas.
    PushModel {
        /// Handle the snapshot's header names.
        handle: ModelHandle,
        /// The rehydrated model.
        model: Arc<gem_core::GemModel>,
    },
    /// Fetch the serialized snapshot of the model `handle` names (resolved, never
    /// fitted), for shipping to another replica or filing into a store directory.
    PullModel {
        /// Handle of the model to ship.
        handle: ModelHandle,
    },
    /// Report cumulative service statistics.
    Stats,
    /// List every model the service can currently resolve, across both cache tiers.
    ListModels,
    /// Remove the model `handle` names from both cache tiers.
    Evict {
        /// Handle of the model to remove.
        handle: ModelHandle,
    },
}

impl ServeRequest {
    /// A `Fit` request (no composition override).
    pub fn fit(corpus: Arc<Vec<GemColumn>>, config: GemConfig, features: FeatureSet) -> Self {
        ServeRequest::Fit {
            corpus,
            config,
            features,
            composition: None,
        }
    }

    /// A `FitUpdate` request: grow the model `handle` names by `corpus` (the new
    /// columns only).
    pub fn fit_update(handle: ModelHandle, corpus: Arc<Vec<GemColumn>>) -> Self {
        ServeRequest::FitUpdate { handle, corpus }
    }

    /// An `Embed` request.
    pub fn embed(handle: ModelHandle, queries: Vec<GemColumn>) -> Self {
        ServeRequest::Embed { handle, queries }
    }

    /// An `EmbedCorpus` request that embeds the corpus itself with `method`.
    pub fn embed_corpus(method: impl Into<String>, corpus: Arc<Vec<GemColumn>>) -> Self {
        ServeRequest::EmbedCorpus {
            method: method.into(),
            corpus,
            queries: None,
            labels: None,
        }
    }

    /// An `Evict` request.
    pub fn evict(handle: ModelHandle) -> Self {
        ServeRequest::Evict { handle }
    }

    /// Builder-style query columns (meaningful on `EmbedCorpus`; no-op otherwise).
    pub fn with_queries(mut self, new_queries: Vec<GemColumn>) -> Self {
        if let ServeRequest::EmbedCorpus { queries, .. } = &mut self {
            *queries = Some(new_queries);
        }
        self
    }

    /// Builder-style supervised labels (meaningful on `EmbedCorpus`; no-op otherwise).
    pub fn with_labels(mut self, new_labels: Vec<String>) -> Self {
        if let ServeRequest::EmbedCorpus { labels, .. } = &mut self {
            *labels = Some(new_labels);
        }
        self
    }

    /// Builder-style composition override (meaningful on `Fit`; no-op otherwise).
    pub fn with_composition(mut self, new_composition: Composition) -> Self {
        if let ServeRequest::Fit { composition, .. } = &mut self {
            *composition = Some(new_composition);
        }
        self
    }
}

/// Cumulative service statistics: the model-cache counters plus resident/store sizing
/// and the number of requests this service instance has processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Model-cache counters (hits, warm starts, spills, …).
    pub cache: crate::CacheStats,
    /// Models resident in the memory tier.
    pub resident_models: usize,
    /// Approximate bytes of the resident models.
    pub resident_bytes: u64,
    /// Snapshots in the store tier (`None` without a store, or when listing it failed).
    pub store_entries: Option<u64>,
    /// Total bytes of the store tier (`None` without a store, or on listing failure).
    pub store_bytes: Option<u64>,
    /// Requests processed by this service (every [`ServeRequest`] counts one).
    pub requests: u64,
}

/// One resolvable model, as listed by [`ServeRequest::ListModels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model's handle.
    pub handle: ModelHandle,
    /// The *closest* tier holding it (memory shadows disk).
    pub tier: CacheTier,
    /// Embedding dimensionality — known for resident models, `None` for disk-only
    /// snapshots (reporting it would require deserialising every file).
    pub dim: Option<usize>,
    /// Approximate resident bytes (memory tier) or snapshot file size (disk tier).
    pub bytes: u64,
}

/// A successful serving response; one variant per request shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// Outcome of a `Fit`: the model's handle, its embedding dimensionality, and which
    /// tier produced it ([`ServedFrom::ColdFit`] when this request paid the EM fit).
    Fitted {
        /// Handle addressing the fitted model in every later request.
        handle: ModelHandle,
        /// Embedding dimensionality of the model.
        dim: usize,
        /// Where the model came from.
        served_from: ServedFrom,
    },
    /// Outcome of an `Embed` or `EmbedCorpus`: one embedding row per requested column.
    Embedded {
        /// The embedding matrix.
        matrix: Matrix,
        /// Where the model came from ([`ServedFrom::ColdFit`] for one-shot methods).
        served_from: ServedFrom,
    },
    /// Outcome of a `PushModel`: the snapshot is installed and its handle resolves.
    Pushed {
        /// The handle the snapshot named, now resolvable on this service.
        handle: ModelHandle,
        /// Embedding dimensionality of the installed model.
        dim: usize,
    },
    /// Outcome of a `PullModel`: the model's serialized snapshot (the bit-exact
    /// `gem-store` envelope, interchangeable with a store file's contents).
    Snapshot {
        /// The handle the snapshot names.
        handle: ModelHandle,
        /// The snapshot envelope.
        snapshot: gem_json::Json,
        /// Which tier produced the model.
        served_from: ServedFrom,
    },
    /// Outcome of a `Stats` request.
    Stats(ServiceStats),
    /// Outcome of a `ListModels` request, memory tier first.
    Models(Vec<ModelInfo>),
    /// Outcome of an `Evict`: whether the handle existed in either tier.
    Evicted {
        /// `true` when a model was actually removed.
        existed: bool,
    },
}

impl ServeResponse {
    /// The embedding matrix, when this is an `Embedded` response.
    pub fn matrix(&self) -> Option<&Matrix> {
        match self {
            ServeResponse::Embedded { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    /// Consume into the embedding matrix, when this is an `Embedded` response.
    pub fn into_matrix(self) -> Option<Matrix> {
        match self {
            ServeResponse::Embedded { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    /// The model handle, when this is a `Fitted` or `Pushed` response.
    pub fn handle(&self) -> Option<ModelHandle> {
        match self {
            ServeResponse::Fitted { handle, .. } | ServeResponse::Pushed { handle, .. } => {
                Some(*handle)
            }
            _ => None,
        }
    }

    /// The model provenance, when this response carries one.
    pub fn served_from(&self) -> Option<ServedFrom> {
        match self {
            ServeResponse::Fitted { served_from, .. }
            | ServeResponse::Embedded { served_from, .. }
            | ServeResponse::Snapshot { served_from, .. } => Some(*served_from),
            _ => None,
        }
    }

    /// Whether a fit was avoided (the model came from either cache tier).
    pub fn cache_hit(&self) -> bool {
        !matches!(self.served_from(), Some(ServedFrom::ColdFit) | None)
    }
}

/// The outcome of one serving request.
pub type ServeResult = Result<ServeResponse, ServeError>;

/// Serves the handle-based protocol for any registered method, accelerating Gem
/// variants with the fingerprint-keyed model cache.
#[derive(Debug)]
pub struct EmbedService {
    registry: MethodRegistry,
    engine: BatchEngine,
    variants: Vec<GemVariant>,
    parallel: bool,
    requests: AtomicU64,
}

impl EmbedService {
    /// A service over `registry` whose model cache holds at most `cache_capacity` fitted
    /// models. Register Gem variants with [`EmbedService::register_gem_family`] (or
    /// [`EmbedService::register_gem_variant`]) to serve them through the cache.
    ///
    /// # Panics
    /// Panics when `cache_capacity` is zero.
    pub fn new(registry: MethodRegistry, cache_capacity: usize) -> Self {
        Self::with_policy(registry, CachePolicy::with_capacity(cache_capacity))
    }

    /// A service with a full cache eviction policy (capacity, TTL, memory bound).
    ///
    /// # Panics
    /// Panics when `policy.capacity` is zero.
    pub fn with_policy(registry: MethodRegistry, policy: CachePolicy) -> Self {
        EmbedService {
            registry,
            engine: BatchEngine::with_policy(policy),
            variants: Vec::new(),
            parallel: true,
            requests: AtomicU64::new(0),
        }
    }

    /// Attach an on-disk model store as the cache's second tier: models evicted from
    /// memory spill to it, cache misses warm-start from it, and handles resolve through
    /// it — so a handle survives both eviction and a process restart.
    pub fn with_store(mut self, store: Arc<ModelStore>) -> Self {
        self.engine = self.engine.with_store(store);
        self
    }

    /// Disable (or re-enable) thread fan-out; results are identical either way.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.engine = self.engine.with_parallel(parallel);
        self.parallel = parallel;
        self
    }

    /// Register one Gem pipeline variant as cache-servable under `name`. Replaces an
    /// earlier variant with the same name.
    pub fn register_gem_variant(
        &mut self,
        name: impl Into<String>,
        config: GemConfig,
        features: FeatureSet,
    ) {
        let variant = GemVariant {
            name: name.into(),
            config,
            features,
            tags: &[],
        };
        match self.variants.iter_mut().find(|v| v.name == variant.name) {
            Some(existing) => *existing = variant,
            None => self.variants.push(variant),
        }
    }

    /// Register the whole Gem method family derived from `config` as cache-servable.
    /// The name → pipeline table comes from [`gem_core::gem_family_variants`] — the same
    /// single source of truth [`MethodRegistry::register_gem_family`] registers from —
    /// so the service and the registry can never disagree about what a name runs.
    pub fn register_gem_family(&mut self, config: &GemConfig) {
        for variant in gem_family_variants(config) {
            self.register_gem_variant(variant.name, variant.config, variant.features);
        }
    }

    /// All method names the service can run, in registry order.
    pub fn methods(&self) -> Vec<&str> {
        self.registry.names()
    }

    /// Whether `method` is served through the model cache.
    pub fn is_cache_served(&self, method: &str) -> bool {
        self.variants.iter().any(|v| v.name == method)
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MethodRegistry {
        &self.registry
    }

    /// Cumulative model-cache counters.
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.engine.cache_stats()
    }

    /// Cumulative service statistics (cache counters, tier sizes, request count). The
    /// memory-tier numbers come from one consistent cache snapshot; the store listing
    /// (filesystem I/O) happens outside the cache lock and degrades to "unknown" on
    /// failure — stats are best-effort, never an error.
    pub fn stats(&self) -> ServiceStats {
        let (cache, resident_models, resident_bytes) = self.engine.cache_snapshot();
        let (store_entries, store_bytes) = match self.engine.store().map(|s| s.stats()) {
            Some(Ok(stats)) => (Some(stats.entries as u64), Some(stats.total_bytes)),
            Some(Err(_)) | None => (None, None),
        };
        ServiceStats {
            cache,
            resident_models,
            resident_bytes,
            store_entries,
            store_bytes,
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// Every model the service can currently resolve: resident models first (most
    /// recently used first), then disk-only snapshots.
    ///
    /// # Errors
    /// Returns [`ServeError::Store`] when the store tier exists but cannot be listed.
    pub fn models(&self) -> Result<Vec<ModelInfo>, ServeError> {
        let resident = self.engine.resident_models();
        let mut infos: Vec<ModelInfo> = resident
            .iter()
            .map(|(key, model)| ModelInfo {
                handle: ModelHandle::from(*key),
                tier: CacheTier::Memory,
                dim: Some(model.dim()),
                bytes: model.approx_mem_bytes(),
            })
            .collect();
        if let Some(store) = self.engine.store() {
            let entries = store.list().map_err(|e| ServeError::Store {
                message: e.to_string(),
            })?;
            for entry in entries {
                if !resident.iter().any(|(key, _)| *key == entry.key) {
                    infos.push(ModelInfo {
                        handle: ModelHandle::from(entry.key),
                        tier: CacheTier::Disk,
                        dim: None,
                        bytes: entry.bytes,
                    });
                }
            }
        }
        Ok(infos)
    }

    /// Process a batch of requests, returning one result per request in input order.
    ///
    /// Execution order within a batch: control requests (`Stats`, `ListModels`,
    /// `Evict`) apply first, in request order; then every `Fit` (one EM fit per
    /// *distinct* key, distinct fits in parallel); then every `FitUpdate` in request
    /// order (so a batch can fit a model and grow it, or chain two updates); then
    /// every embed — so an `Embed` may use a handle `Fit` or `FitUpdate` earlier in
    /// the same batch. Engine-served and one-shot embeds run side by side, each fanned
    /// out across threads.
    pub fn serve(&self, requests: Vec<ServeRequest>) -> Vec<ServeResult> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let n = requests.len();
        let mut results: Vec<Option<ServeResult>> = (0..n).map(|_| None).collect();

        // Side jobs: one-shot registry methods and embed-by-handle transforms, fanned
        // out together opposite the engine batch.
        enum SideJob {
            Registry {
                index: usize,
                method: String,
                corpus: Arc<Vec<GemColumn>>,
                queries: Option<Vec<GemColumn>>,
                labels: Option<Vec<String>>,
            },
            Transform {
                index: usize,
                model: Arc<gem_core::GemModel>,
                served_from: ServedFrom,
                queries: Vec<GemColumn>,
            },
        }

        // Pass 1: plan. Control requests answer immediately; fit and embed work is
        // collected for the batched passes below.
        let mut fit_slots: Vec<usize> = Vec::new();
        let mut fit_jobs: Vec<FitJob> = Vec::new();
        let mut update_jobs: Vec<(usize, ModelHandle, Arc<Vec<GemColumn>>)> = Vec::new();
        let mut embed_jobs: Vec<(usize, ModelHandle, Vec<GemColumn>)> = Vec::new();
        let mut engine_slots: Vec<usize> = Vec::new();
        let mut engine_requests: Vec<EngineRequest> = Vec::new();
        let mut side_jobs: Vec<SideJob> = Vec::new();
        for (i, request) in requests.into_iter().enumerate() {
            match request {
                ServeRequest::Fit {
                    corpus,
                    config,
                    features,
                    composition,
                } => {
                    let (key, config) =
                        fit_key(corpus_fingerprint(&corpus), config, features, composition);
                    fit_slots.push(i);
                    fit_jobs.push(FitJob {
                        key,
                        corpus,
                        config,
                        features,
                    });
                }
                ServeRequest::FitUpdate { handle, corpus } => {
                    update_jobs.push((i, handle, corpus));
                }
                ServeRequest::Embed { handle, queries } => embed_jobs.push((i, handle, queries)),
                ServeRequest::EmbedCorpus {
                    method,
                    corpus,
                    queries,
                    labels,
                } => {
                    if let Some(variant) = self.variants.iter().find(|v| v.name == method) {
                        engine_slots.push(i);
                        engine_requests.push(EngineRequest {
                            config: variant.config.clone(),
                            features: variant.features,
                            corpus,
                            queries,
                        });
                    } else if self.registry.get(&method).is_some() {
                        side_jobs.push(SideJob::Registry {
                            index: i,
                            method,
                            corpus,
                            queries,
                            labels,
                        });
                    } else {
                        results[i] = Some(Err(ServeError::UnknownMethod { method }));
                    }
                }
                ServeRequest::PushModel { handle, model } => {
                    let dim = model.dim();
                    self.engine.publish(handle.key(), model);
                    results[i] = Some(Ok(ServeResponse::Pushed { handle, dim }));
                }
                ServeRequest::PullModel { handle } => {
                    results[i] = Some(match self.engine.resolve(handle.key()) {
                        Some((model, tier)) => Ok(ServeResponse::Snapshot {
                            handle,
                            snapshot: gem_store::encode_snapshot(handle.key(), &model),
                            served_from: ServedFrom::from(tier),
                        }),
                        None => Err(ServeError::UnknownModel { handle }),
                    });
                }
                ServeRequest::Stats => {
                    results[i] = Some(Ok(ServeResponse::Stats(self.stats())));
                }
                ServeRequest::ListModels => {
                    results[i] = Some(self.models().map(ServeResponse::Models));
                }
                ServeRequest::Evict { handle } => {
                    results[i] = Some(Ok(ServeResponse::Evicted {
                        existed: self.engine.evict(handle.key()),
                    }));
                }
            }
        }

        // Pass 2: fits (before embeds, so a batch can fit and embed the same handle).
        for ((slot, job), (outcome, served_from)) in fit_slots
            .iter()
            .zip(&fit_jobs)
            .zip(self.engine.fit_models(&fit_jobs))
        {
            results[*slot] = Some(match outcome {
                Ok(model) => Ok(ServeResponse::Fitted {
                    handle: ModelHandle::from(job.key),
                    dim: model.dim(),
                    served_from,
                }),
                Err(e) => Err(ServeError::Fit(e)),
            });
        }

        // Pass 2.5: incremental updates, after the fits so a batch can fit a model and
        // grow it in one round trip. Sequential in request order: chained updates
        // (grow, then grow again) within a batch each see the handle the previous one
        // derived.
        for (index, handle, new_columns) in update_jobs {
            results[index] = Some(match self.engine.fit_update(handle.key(), &new_columns) {
                None => Err(ServeError::UnknownModel { handle }),
                Some((key, Ok(model), served_from)) => Ok(ServeResponse::Fitted {
                    handle: ModelHandle::from(key),
                    dim: model.dim(),
                    served_from,
                }),
                Some((_, Err(e), _)) => Err(ServeError::Fit(e)),
            });
        }

        // Pass 3: resolve embed handles (never fitting — a miss is UnknownModel).
        for (index, handle, queries) in embed_jobs {
            match self.engine.resolve(handle.key()) {
                Some((model, tier)) => side_jobs.push(SideJob::Transform {
                    index,
                    model,
                    served_from: ServedFrom::from(tier),
                    queries,
                }),
                None => results[index] = Some(Err(ServeError::UnknownModel { handle })),
            }
        }

        // Pass 4: the engine batch (grouped fits + transforms) and the side jobs are
        // independent, so a mixed batch pays max(engine, side), not their sum.
        let (engine_out, side_out): (_, Vec<(usize, ServeResult)>) = gem_parallel::join(
            || self.engine.run(&engine_requests),
            || {
                gem_parallel::par_map(&side_jobs, self.parallel, |job| match job {
                    SideJob::Registry {
                        index,
                        method,
                        corpus,
                        queries,
                        labels,
                    } => {
                        let columns: &[GemColumn] = match queries {
                            Some(queries) => queries,
                            None => corpus,
                        };
                        let result = self
                            .registry
                            .require(method)
                            .and_then(|m| m.embed(columns, labels.as_deref()))
                            .map(|matrix| ServeResponse::Embedded {
                                matrix,
                                served_from: ServedFrom::ColdFit,
                            })
                            .map_err(ServeError::from_method_error);
                        (*index, result)
                    }
                    SideJob::Transform {
                        index,
                        model,
                        served_from,
                        queries,
                    } => {
                        let result = model
                            .transform(queries)
                            .map(|embedding| ServeResponse::Embedded {
                                matrix: embedding.matrix,
                                served_from: *served_from,
                            })
                            .map_err(ServeError::Transform);
                        (*index, result)
                    }
                })
            },
        );
        for (slot, response) in engine_slots.iter().zip(engine_out) {
            let served_from = response.served_from;
            results[*slot] = Some(match response.embedding {
                Ok(embedding) => Ok(ServeResponse::Embedded {
                    matrix: embedding.matrix,
                    served_from,
                }),
                // The engine conflates fit and transform failures; a cold model means
                // the fit itself (or the fused pipeline) failed.
                Err(e) => Err(match served_from {
                    ServedFrom::ColdFit => ServeError::Fit(e),
                    _ => ServeError::Transform(e),
                }),
            });
        }
        for (index, result) in side_out {
            results[index] = Some(result);
        }

        results
            .into_iter()
            .map(|r| r.expect("every request slot was answered"))
            .collect()
    }

    /// Convenience: serve a single request.
    pub fn serve_one(&self, request: ServeRequest) -> ServeResult {
        self.serve(vec![request])
            .into_iter()
            .next()
            .expect("one response per request")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::model_key;
    use gem_core::{ColumnEmbedder, GemEmbedder, GemError, GemModel};

    fn corpus() -> Arc<Vec<GemColumn>> {
        Arc::new(
            (0..6)
                .map(|c| {
                    GemColumn::new(
                        (0..50)
                            .map(|i| (c * 80) as f64 + (i % 14) as f64 * 1.5)
                            .collect(),
                        format!("col_{c}"),
                    )
                })
                .collect(),
        )
    }

    struct Identity;

    impl ColumnEmbedder for Identity {
        fn name(&self) -> &str {
            "Identity"
        }

        fn embed_columns(&self, columns: &[GemColumn]) -> Result<Matrix, GemError> {
            Ok(Matrix::filled(columns.len(), 2, 1.0))
        }
    }

    fn service() -> EmbedService {
        let config = GemConfig::fast();
        let mut registry = MethodRegistry::with_gem(&config);
        registry.register_unsupervised(Identity, &[]);
        let mut service = EmbedService::new(registry, 4);
        service.register_gem_family(&config);
        service
    }

    #[test]
    fn fit_returns_a_handle_and_is_idempotent() {
        let service = service();
        let cols = corpus();
        let cold = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap();
        let handle = cold.handle().expect("fit returns a handle");
        assert_eq!(cold.served_from(), Some(ServedFrom::ColdFit));
        // Same corpus + config: same handle, no second EM fit.
        let warm = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap();
        assert_eq!(warm.handle(), Some(handle));
        assert_eq!(warm.served_from(), Some(ServedFrom::MemoryCache));
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn embed_by_handle_matches_in_process_fit_transform_exactly() {
        let service = service();
        let cols = corpus();
        let handle = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let queries = vec![GemColumn::new(
            (0..25).map(|i| 100.0 + (i % 7) as f64).collect(),
            "unseen",
        )];
        let served = service
            .serve_one(ServeRequest::embed(handle, queries.clone()))
            .unwrap();
        assert!(served.cache_hit());
        let direct = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::ds())
            .unwrap()
            .transform(&queries)
            .unwrap();
        assert_eq!(served.into_matrix().unwrap(), direct.matrix);
    }

    #[test]
    fn fit_update_grows_a_model_and_keeps_old_embeddings_bit_identical() {
        let service = service();
        let cols = corpus();
        let parent = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let growth = Arc::new(vec![GemColumn::new(
            (0..50).map(|i| 700.0 + (i % 9) as f64 * 3.0).collect(),
            "col_new",
        )]);

        let grown = service
            .serve_one(ServeRequest::fit_update(parent, Arc::clone(&growth)))
            .unwrap();
        let derived = grown.handle().expect("fit_update returns a handle");
        assert_ne!(derived, parent);
        assert_eq!(grown.served_from(), Some(ServedFrom::ColdFit));

        // The derived model froze the parent's components, so the old columns embed
        // bit-identically under either handle, and the new column resolves too.
        let via_parent = service
            .serve_one(ServeRequest::embed(parent, (*cols).clone()))
            .unwrap()
            .into_matrix()
            .unwrap();
        let via_derived = service
            .serve_one(ServeRequest::embed(derived, (*cols).clone()))
            .unwrap()
            .into_matrix()
            .unwrap();
        assert_eq!(via_parent, via_derived);
        let new_embed = service
            .serve_one(ServeRequest::embed(derived, (*growth).clone()))
            .unwrap()
            .into_matrix()
            .unwrap();
        assert_eq!(new_embed.rows(), 1);

        // Growing an unknown handle is a typed error, never a silent full fit.
        let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
        let err = service
            .serve_one(ServeRequest::fit_update(bogus, growth))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));

        // The one EM run is visible in the fit-cost stats; the update added nothing.
        let stats = service.stats();
        assert!(stats.cache.fit_micros > 0);
        assert!(stats.cache.em_iterations > 0);
    }

    #[test]
    fn unknown_handles_error_instead_of_refitting() {
        let service = service();
        let bogus = ModelHandle::from_hex("0000000000000001-0000000000000002").unwrap();
        let err = service
            .serve_one(ServeRequest::embed(bogus, corpus().to_vec()))
            .unwrap_err();
        assert_eq!(err.code(), "unknown_model");
        assert!(matches!(err, ServeError::UnknownModel { handle } if handle == bogus));
        // Nothing was fitted on our behalf.
        assert_eq!(service.stats().resident_models, 0);
    }

    #[test]
    fn fit_and_embed_compose_within_one_batch() {
        let service = service();
        let cols = corpus();
        // The handle is deterministic, so a client that knows the fingerprint can pair
        // a Fit and an Embed in a single batch.
        let handle = ModelHandle::from(model_key(&cols, &GemConfig::fast(), FeatureSet::ds()));
        let results = service.serve(vec![
            ServeRequest::fit(Arc::clone(&cols), GemConfig::fast(), FeatureSet::ds()),
            ServeRequest::embed(handle, cols.to_vec()),
        ]);
        assert_eq!(results[0].as_ref().unwrap().handle(), Some(handle));
        let direct = GemEmbedder::new(GemConfig::fast())
            .embed(&cols, FeatureSet::ds())
            .unwrap();
        assert_eq!(
            results[1].as_ref().unwrap().matrix().unwrap(),
            &direct.matrix
        );
    }

    #[test]
    fn evict_invalidates_a_handle() {
        let service = service();
        let cols = corpus();
        let handle = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let evicted = service.serve_one(ServeRequest::evict(handle)).unwrap();
        assert_eq!(evicted, ServeResponse::Evicted { existed: true });
        let err = service
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap_err();
        assert_eq!(err.code(), "unknown_model");
        // Evicting again reports the truth.
        let again = service.serve_one(ServeRequest::evict(handle)).unwrap();
        assert_eq!(again, ServeResponse::Evicted { existed: false });
    }

    #[test]
    fn gem_methods_are_cache_served_and_exact() {
        let service = service();
        assert!(service.is_cache_served("Gem (D+S)"));
        assert!(!service.is_cache_served("Identity"));
        let cold = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap();
        assert!(!cold.cache_hit());
        let warm = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap();
        assert!(warm.cache_hit());
        let direct = GemEmbedder::new(GemConfig::fast())
            .embed(&corpus(), FeatureSet::ds())
            .unwrap();
        assert_eq!(cold.into_matrix().unwrap(), direct.matrix);
        assert_eq!(warm.into_matrix().unwrap(), direct.matrix);
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn non_gem_methods_dispatch_to_the_registry() {
        let service = service();
        let response = service
            .serve_one(ServeRequest::embed_corpus("Identity", corpus()))
            .unwrap();
        assert!(!response.cache_hit());
        let m = response.into_matrix().unwrap();
        assert_eq!(m.shape(), (corpus().len(), 2));
    }

    #[test]
    fn unknown_methods_error_without_disturbing_the_batch() {
        let service = service();
        let results = service.serve(vec![
            ServeRequest::embed_corpus("Gem (D+S)", corpus()),
            ServeRequest::embed_corpus("no-such-method", corpus()),
            ServeRequest::embed_corpus("Identity", corpus()),
        ]);
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.code(), "unknown_method");
        assert!(results[2].is_ok());
    }

    #[test]
    fn queries_are_embedded_against_the_cached_corpus_model() {
        let service = service();
        service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap();
        let queries = vec![GemColumn::new(
            (0..25).map(|i| 100.0 + (i % 7) as f64).collect(),
            "unseen",
        )];
        let response = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()).with_queries(queries))
            .unwrap();
        assert!(response.cache_hit());
        let corpus_emb = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap()
            .into_matrix()
            .unwrap();
        let m = response.into_matrix().unwrap();
        assert_eq!(m.rows(), 1);
        assert!(m.all_finite());
        assert_eq!(m.cols(), corpus_emb.cols());
    }

    #[test]
    fn supervised_methods_run_with_labels_through_the_service() {
        let config = GemConfig::fast();
        let mut registry = MethodRegistry::with_gem(&config);
        gem_baselines_stub(&mut registry);
        let service = EmbedService::new(registry, 2);
        let cols = corpus();
        let labels: Vec<String> = (0..cols.len()).map(|i| format!("t{}", i % 2)).collect();
        let ok = service.serve_one(
            ServeRequest::embed_corpus("StubSupervised", Arc::clone(&cols)).with_labels(labels),
        );
        assert!(ok.is_ok());
        // Missing labels are the request's fault: a typed invalid_request, not a crash.
        let missing = service
            .serve_one(ServeRequest::embed_corpus("StubSupervised", cols))
            .unwrap_err();
        assert_eq!(missing.code(), "invalid_request");
    }

    fn gem_baselines_stub(registry: &mut MethodRegistry) {
        struct Stub;
        impl gem_core::SupervisedColumnEmbedder for Stub {
            fn name(&self) -> &str {
                "StubSupervised"
            }

            fn fit_embed(
                &self,
                columns: &[GemColumn],
                _labels: &[String],
            ) -> Result<Matrix, GemError> {
                Ok(Matrix::zeros(columns.len(), 3))
            }
        }
        registry.register_supervised(Stub, &["supervised"]);
    }

    #[test]
    fn every_registry_gem_method_is_cache_served() {
        let service = service();
        for variant in gem_family_variants(&GemConfig::fast()) {
            assert!(service.is_cache_served(&variant.name), "{}", variant.name);
            assert!(
                service.methods().contains(&variant.name.as_str()),
                "{} not in registry",
                variant.name
            );
        }
    }

    #[test]
    fn stats_and_list_models_report_both_tiers() {
        let service = service();
        let cols = corpus();
        let handle = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let stats = match service.serve_one(ServeRequest::Stats).unwrap() {
            ServeResponse::Stats(stats) => stats,
            other => panic!("expected Stats, got {other:?}"),
        };
        assert_eq!(stats.resident_models, 1);
        assert!(stats.resident_bytes > 0);
        assert_eq!(stats.store_entries, None, "no store attached");
        assert_eq!(stats.requests, 2);
        let models = match service.serve_one(ServeRequest::ListModels).unwrap() {
            ServeResponse::Models(models) => models,
            other => panic!("expected Models, got {other:?}"),
        };
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].handle, handle);
        assert_eq!(models[0].tier, CacheTier::Memory);
        assert!(models[0].dim.is_some());
    }

    /// Removes the wrapped directory even when the test's assertions fail.
    struct DirGuard(std::path::PathBuf);

    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn handles_survive_eviction_and_restart_through_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "gem-serve-service-test-{}-warm-start",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _guard = DirGuard(dir.clone());
        let store = Arc::new(ModelStore::open(&dir).unwrap());
        let config = GemConfig::fast();
        let cols = corpus();

        // Incarnation 1: fit and spill by overflowing a capacity-1 cache.
        let mut service = EmbedService::with_policy(
            MethodRegistry::with_gem(&config),
            CachePolicy::with_capacity(1),
        )
        .with_store(Arc::clone(&store));
        service.register_gem_family(&config);
        let fitted = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                config.clone(),
                FeatureSet::ds(),
            ))
            .unwrap();
        let handle = fitted.handle().unwrap();
        let cold = service
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap();
        service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                config.clone(),
                FeatureSet::dsc(),
            ))
            .unwrap(); // evicts + spills the D+S model
        assert!(service.cache_stats().spills >= 1);

        // Incarnation 2: a fresh service over the same store. The *handle* still
        // resolves — via a disk warm start — with bit-identical output.
        let mut restarted =
            EmbedService::new(MethodRegistry::with_gem(&config), 4).with_store(Arc::clone(&store));
        restarted.register_gem_family(&config);
        let warm = restarted
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap();
        assert_eq!(warm.served_from(), Some(ServedFrom::DiskStore));
        assert_eq!(warm.into_matrix(), cold.into_matrix());
        assert_eq!(restarted.cache_stats().warm_starts, 1);
        // ListModels sees the disk-only snapshots too.
        let models = restarted.models().unwrap();
        assert!(models.iter().any(|m| m.handle == handle));
    }

    #[test]
    fn push_and_pull_ship_models_between_services() {
        let origin = service();
        let cols = corpus();
        let handle = origin
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let pulled = match origin
            .serve_one(ServeRequest::PullModel { handle })
            .unwrap()
        {
            ServeResponse::Snapshot {
                handle: h,
                snapshot,
                served_from,
            } => {
                assert_eq!(h, handle);
                assert_eq!(served_from, ServedFrom::MemoryCache);
                snapshot
            }
            other => panic!("expected Snapshot, got {other:?}"),
        };
        // The snapshot is the store envelope: it validates exactly like a store file.
        let (key, model) = gem_store::decode_snapshot(&pulled, Some(handle.key())).unwrap();
        assert_eq!(key, handle.key());

        // A fresh service that has never seen the corpus acquires the handle by push
        // and embeds bit-identically — no corpus, no refit.
        let replica = service();
        let pushed = replica
            .serve_one(ServeRequest::PushModel {
                handle,
                model: Arc::new(model),
            })
            .unwrap();
        assert_eq!(pushed.handle(), Some(handle));
        let from_origin = origin
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap()
            .into_matrix()
            .unwrap();
        let from_replica = replica
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap()
            .into_matrix()
            .unwrap();
        assert_eq!(from_origin, from_replica);
        // The replica never fitted: its only miss-path activity was the push insert.
        assert_eq!(replica.cache_stats().misses, 0);

        // Pulling an unresolvable handle is the typed unknown_model — never a fit.
        let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
        let err = replica
            .serve_one(ServeRequest::PullModel { handle: bogus })
            .unwrap_err();
        assert_eq!(err.code(), "unknown_model");
    }

    #[test]
    fn replacing_a_variant_updates_in_place() {
        let mut service = service();
        let n = service.methods().len();
        service.register_gem_variant("Gem (D+S)", GemConfig::fast(), FeatureSet::d());
        assert_eq!(service.methods().len(), n);
        assert!(service.is_cache_served("Gem (D+S)"));
    }

    #[test]
    fn fit_composition_override_changes_the_handle() {
        let service = service();
        let cols = corpus();
        let plain = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let agg = service
            .serve_one(
                ServeRequest::fit(Arc::clone(&cols), GemConfig::fast(), FeatureSet::ds())
                    .with_composition(Composition::Aggregation),
            )
            .unwrap()
            .handle()
            .unwrap();
        assert_ne!(plain, agg, "composition participates in the fingerprint");
    }
}
