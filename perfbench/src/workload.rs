//! The three workloads and their seeded inputs.
//!
//! Every column comes from the `gem-data` corpus generators (GDS, WDC, Sato Tables,
//! GitTables). A workload's rates and latency limits are constants fixed once from
//! measurements of the serving stack (see README.md); the seed only chooses *which*
//! columns, handles and sizes a run sends.

use crate::cluster::ReplicaOptions;
use crate::rng::{Rng, Zipf};
use gem_core::{FeatureSet, GemColumn, GemConfig};
use gem_data::{build_corpus, CorpusConfig, CorpusKind};

pub const KINDS: [CorpusKind; 4] = [
    CorpusKind::Gds,
    CorpusKind::Wdc,
    CorpusKind::SatoTables,
    CorpusKind::GitTables,
];

/// Columns in a cold-fit corpus (`fit_mixed` and the fit probe).
pub const FIT_COLUMNS: (usize, usize) = (100, 300);
/// Values per column of fit corpora (pre-fitted and cold).
pub const FIT_VALUES: (usize, usize) = (40, 120);
/// Columns folded in by one `fit_update`.
pub const UPDATE_COLUMNS: (usize, usize) = (10, 50);
/// Every `FIT_UPDATE_EVERY`-th writer op is a `fit_update` (the rest are cold fits).
pub const FIT_UPDATE_EVERY: usize = 4;
/// A `fit_update` grows one of this many most recent cold fits. Two keeps the parent
/// resident even in `embed_bulk`'s four-model cache, so the update latency measures
/// one path; with a wider window some parents warm-start from disk first and the
/// median flips between the two paths from run to run.
pub const UPDATE_PARENT_WINDOW: usize = 2;
/// Cold fits the post-window fit probe issues on the embed workloads.
pub const PROBE_COLD_FITS: usize = 300;

/// `embed_hot`'s open-loop rate, requests per second: a quarter of the closed-loop
/// capacity of the routed stack on this request shape (~2200/s with two connections
/// on a 2-vCPU VM). At half capacity, bursts of CPU steal on a shared host pushed the
/// replicas past saturation and into shedding (see README.md).
pub const HOT_RATE: f64 = 550.0;
/// Latency limits for `embed_slo_frac`, set from each workload's p99 on a quiet host
/// (little CPU steal): 1.4–4.9 ms on `embed_hot`, 29–42 ms on `embed_bulk` and 5 ms
/// for the `fit_mixed` reads, which can wait behind a whole EM fit. The limits leave
/// about 1.5–3× headroom, so the share falls when the embed tail slows, without
/// falling whenever the neighbours on the host get busy.
pub const HOT_SLO_MS: f64 = 10.0;
pub const BULK_SLO_MS: f64 = 60.0;
pub const MIXED_SLO_MS: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EmbedHot,
    EmbedBulk,
    FitMixed,
}

/// Everything that defines a workload apart from its seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Handles fitted during set-up.
    pub n_models: usize,
    pub features: FeatureSet,
    pub query_columns: (usize, usize),
    pub query_values: (usize, usize),
    /// Zipf exponent of handle popularity; `None` is uniform.
    pub zipf: Option<f64>,
    pub replica: ReplicaOptions,
    /// Open-loop embed rate (requests per second), when embeds run open loop.
    pub open_rate: Option<f64>,
    /// Closed-loop embed connections, when embeds run closed loop.
    pub closed_connections: usize,
    pub slo_ms: f64,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let hot_replica = ReplicaOptions {
            cache_capacity: 1024,
            store: false,
        };
        let spec = match name {
            "embed_hot" => Spec {
                kind: Kind::EmbedHot,
                name: "embed_hot",
                n_models: 16,
                features: FeatureSet::ds(),
                query_columns: (1, 16),
                query_values: (20, 200),
                zipf: Some(1.0),
                replica: hot_replica,
                open_rate: Some(HOT_RATE),
                closed_connections: 0,
                slo_ms: HOT_SLO_MS,
            },
            "embed_bulk" => Spec {
                kind: Kind::EmbedBulk,
                name: "embed_bulk",
                n_models: 24,
                features: FeatureSet::dsc(),
                query_columns: (64, 256),
                query_values: (50, 500),
                zipf: None,
                // Each replica owns ~12 of the 24 handles (and holds the write-through
                // copies of the rest); 4 resident slots force warm starts from disk.
                replica: ReplicaOptions {
                    cache_capacity: 4,
                    store: true,
                },
                open_rate: None,
                closed_connections: 2,
                slo_ms: BULK_SLO_MS,
            },
            "fit_mixed" => Spec {
                kind: Kind::FitMixed,
                name: "fit_mixed",
                n_models: 1,
                features: FeatureSet::ds(),
                query_columns: (1, 16),
                query_values: (20, 200),
                zipf: None,
                replica: hot_replica,
                open_rate: Some(HOT_RATE / 4.0),
                closed_connections: 0,
                slo_ms: MIXED_SLO_MS,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn is_embed_workload(&self) -> bool {
        self.kind != Kind::FitMixed
    }
}

/// The pipeline configuration every model is fitted with: 10 components, 3 EM
/// restarts, fixed EM seed (so an in-process fit reproduces a served one bit for bit).
pub fn model_config() -> GemConfig {
    let mut config = GemConfig::with_components(10);
    config.gmm = config.gmm.restarts(3).with_seed(17);
    config
}

/// A pool of generated columns of one corpus kind.
fn pool(kind: CorpusKind, seed: u64, columns: usize, values: (usize, usize)) -> Vec<GemColumn> {
    let scale = columns as f64 / kind.paper_columns() as f64 * 1.15;
    let dataset = build_corpus(
        kind,
        &CorpusConfig {
            scale,
            min_values: values.0,
            max_values: values.1,
            seed,
        },
    );
    dataset
        .columns
        .iter()
        .map(|c| GemColumn::new(c.values.clone(), c.header.clone()))
        .collect()
}

/// Pools per corpus kind, for one purpose of one seed.
pub struct Pools {
    pub by_kind: Vec<Vec<GemColumn>>,
}

impl Pools {
    pub fn generate(seed: u64, salt: u64, per_kind: usize, values: (usize, usize)) -> Pools {
        let by_kind = KINDS
            .iter()
            .enumerate()
            .map(|(k, kind)| {
                let kind_seed = Rng::derive(seed, salt * 16 + k as u64).next_u64();
                pool(*kind, kind_seed, per_kind, values)
            })
            .collect();
        Pools { by_kind }
    }

    /// A column picked by `(kind, index)`.
    pub fn column(&self, at: (usize, usize)) -> &GemColumn {
        &self.by_kind[at.0][at.1]
    }

    pub fn columns(&self, picks: &[(usize, usize)]) -> Vec<GemColumn> {
        picks.iter().map(|&at| self.column(at).clone()).collect()
    }

    /// `n` distinct columns of kind `kind`.
    pub fn pick_corpus(&self, rng: &mut Rng, kind: usize, n: usize) -> Vec<(usize, usize)> {
        rng.sample_indices(self.by_kind[kind].len(), n)
            .into_iter()
            .map(|i| (kind, i))
            .collect()
    }

    /// `n` columns of any kind (repeats allowed across requests, not within one).
    pub fn pick_any(&self, rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
        let mut picks = Vec::with_capacity(n);
        while picks.len() < n {
            let kind = rng.range(0, KINDS.len() - 1);
            let at = (kind, rng.range(0, self.by_kind[kind].len() - 1));
            if !picks.contains(&at) {
                picks.push(at);
            }
        }
        picks
    }
}

/// One embed request: a handle (by set-up index) and its query columns.
#[derive(Debug, Clone)]
pub struct EmbedRequest {
    pub model: usize,
    pub queries: Vec<(usize, usize)>,
}

/// A deterministic stream of embed requests for one connection.
pub struct EmbedStream {
    rng: Rng,
    zipf: Option<Zipf>,
    n_models: usize,
    columns: (usize, usize),
}

impl EmbedStream {
    pub fn new(spec: &Spec, seed: u64, stream: u64) -> Self {
        EmbedStream {
            rng: Rng::derive(seed, 1000 + stream),
            zipf: spec.zipf.map(|s| Zipf::new(spec.n_models, s)),
            n_models: spec.n_models,
            columns: spec.query_columns,
        }
    }

    pub fn next(&mut self, queries: &Pools) -> EmbedRequest {
        let model = match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.range(0, self.n_models - 1),
        };
        let n = self.rng.range(self.columns.0, self.columns.1);
        EmbedRequest {
            model,
            queries: queries.pick_any(&mut self.rng, n),
        }
    }
}

/// One writer op of `fit_mixed` (and of the fit probe).
#[derive(Debug, Clone)]
pub enum FitOp {
    /// A cold fit of a fresh corpus.
    Cold { corpus: Vec<(usize, usize)> },
    /// Grow the `parent`-th cold fit of this stream by some unseen columns.
    Update {
        parent: usize,
        columns: Vec<(usize, usize)>,
    },
}

/// A deterministic stream of writer ops: cold fits of fresh corpora with kinds
/// rotated by seed, every [`FIT_UPDATE_EVERY`]-th op a `fit_update` of a recent fit.
pub struct FitStream {
    rng: Rng,
    kind_offset: usize,
    ops: usize,
    cold: usize,
}

impl FitStream {
    pub fn new(seed: u64, stream: u64) -> Self {
        FitStream {
            rng: Rng::derive(seed, 2000 + stream),
            kind_offset: (seed % KINDS.len() as u64) as usize,
            ops: 0,
            cold: 0,
        }
    }

    pub fn next(&mut self, fit_pools: &Pools, query_pools: &Pools) -> FitOp {
        self.ops += 1;
        if self.ops.is_multiple_of(FIT_UPDATE_EVERY) && self.cold > 0 {
            let window = self.cold.min(UPDATE_PARENT_WINDOW);
            let parent = self.cold - 1 - self.rng.range(0, window - 1);
            let n = self.rng.range(UPDATE_COLUMNS.0, UPDATE_COLUMNS.1);
            return FitOp::Update {
                parent,
                columns: query_pools.pick_any(&mut self.rng, n),
            };
        }
        let kind = (self.kind_offset + self.cold) % KINDS.len();
        self.cold += 1;
        let n = self.rng.range(FIT_COLUMNS.0, FIT_COLUMNS.1);
        FitOp::Cold {
            corpus: fit_pools.pick_corpus(&mut self.rng, kind, n),
        }
    }
}

/// The corpora of the handles fitted at set-up: disjoint column draws, kinds rotated.
pub fn setup_corpora(spec: &Spec, seed: u64, fit_pools: &Pools) -> Vec<Vec<(usize, usize)>> {
    let mut rng = Rng::derive(seed, 3000);
    (0..spec.n_models)
        .map(|m| {
            let kind = (seed as usize + m) % KINDS.len();
            let n = rng.range(FIT_COLUMNS.0, FIT_COLUMNS.1);
            fit_pools.pick_corpus(&mut rng, kind, n)
        })
        .collect()
}
