//! Configuration of the Gem pipeline.

use crate::compose::Composition;
use gem_gmm::GmmConfig;
use gem_json::{number, object, FromJson, Json, JsonError, ToJson};

/// Which of Gem's three evidence types participate in an embedding.
///
/// Figure 3 of the paper ablates all seven non-empty combinations of
/// distributional (D), statistical (S) and contextual (C) features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet {
    /// Include the GMM signature (distributional) block.
    pub distributional: bool,
    /// Include the statistical feature block.
    pub statistical: bool,
    /// Include the header (contextual) block.
    pub contextual: bool,
}

impl FeatureSet {
    /// Distributional only (D).
    pub fn d() -> Self {
        FeatureSet {
            distributional: true,
            statistical: false,
            contextual: false,
        }
    }

    /// Statistical only (S).
    pub fn s() -> Self {
        FeatureSet {
            distributional: false,
            statistical: true,
            contextual: false,
        }
    }

    /// Contextual only (C).
    pub fn c() -> Self {
        FeatureSet {
            distributional: false,
            statistical: false,
            contextual: true,
        }
    }

    /// Distributional + statistical (D+S) — the numeric-only Gem of Table 2.
    pub fn ds() -> Self {
        FeatureSet {
            distributional: true,
            statistical: true,
            contextual: false,
        }
    }

    /// Contextual + statistical (C+S).
    pub fn cs() -> Self {
        FeatureSet {
            distributional: false,
            statistical: true,
            contextual: true,
        }
    }

    /// Distributional + contextual (D+C).
    pub fn dc() -> Self {
        FeatureSet {
            distributional: true,
            statistical: false,
            contextual: true,
        }
    }

    /// All three (D+S+C) — the full Gem of Table 3.
    pub fn dsc() -> Self {
        FeatureSet {
            distributional: true,
            statistical: true,
            contextual: true,
        }
    }

    /// Short label used in tables and figures ("D", "D+S", "D+C+S", ...). The ordering of
    /// the letters follows Figure 3 of the paper.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.distributional {
            parts.push("D");
        }
        if self.contextual && !self.statistical {
            // Figure 3 writes the two-way contextual combinations as C+S and D+C.
            parts.push("C");
        }
        if self.statistical {
            parts.push("S");
        }
        if self.contextual && self.statistical {
            if self.distributional {
                return "D+C+S".to_string();
            }
            return "C+S".to_string();
        }
        if parts.is_empty() {
            return "none".to_string();
        }
        parts.join("+")
    }

    /// Whether at least one evidence type is selected.
    pub fn is_non_empty(&self) -> bool {
        self.distributional || self.statistical || self.contextual
    }
}

/// Full configuration of the Gem pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct GemConfig {
    /// Configuration of the shared GMM fitted over the stacked values (paper default:
    /// 50 components, tolerance 1e-3, 10 restarts).
    pub gmm: GmmConfig,
    /// Dimensionality of the header (contextual) embeddings.
    pub text_dim: usize,
    /// How the selected feature blocks are merged into the final embedding.
    pub composition: Composition,
    /// Compute per-column signatures on multiple threads. The signature step is
    /// embarrassingly parallel over columns; this is what keeps Gem's runtime growth
    /// sub-linear in practice (Figure 5). The fan-out only starts when one call's columns
    /// hold at least 4096 values in total; smaller calls run serially either way, because
    /// spawning the workers would cost more than it saves. Output bits never depend on
    /// this flag.
    pub parallel: bool,
}

impl Default for GemConfig {
    fn default() -> Self {
        GemConfig {
            gmm: GmmConfig::default(),
            text_dim: gem_text::DEFAULT_TEXT_DIM,
            composition: Composition::Concatenation,
            parallel: true,
        }
    }
}

impl GemConfig {
    /// Default configuration with a custom number of Gaussian components.
    pub fn with_components(n_components: usize) -> Self {
        GemConfig {
            gmm: GmmConfig::with_components(n_components),
            ..GemConfig::default()
        }
    }

    /// A light configuration for tests: few components, few restarts.
    pub fn fast() -> Self {
        GemConfig {
            gmm: GmmConfig::with_components(8).restarts(2),
            text_dim: 64,
            composition: Composition::Concatenation,
            parallel: false,
        }
    }

    /// Builder-style composition override.
    pub fn with_composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Builder-style parallelism override.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }
}

impl ToJson for FeatureSet {
    fn to_json(&self) -> Json {
        object(vec![
            ("distributional", Json::Bool(self.distributional)),
            ("statistical", Json::Bool(self.statistical)),
            ("contextual", Json::Bool(self.contextual)),
        ])
    }
}

impl FromJson for FeatureSet {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let flag = |key: &str| -> Result<bool, JsonError> {
            value
                .field(key)?
                .as_bool()
                .ok_or_else(|| JsonError::conversion(format!("field `{key}` is not a bool")))
        };
        Ok(FeatureSet {
            distributional: flag("distributional")?,
            statistical: flag("statistical")?,
            contextual: flag("contextual")?,
        })
    }
}

/// Persistence of the full pipeline configuration — stored inside every saved
/// [`crate::GemModel`] so a reloaded model carries exactly the configuration it was
/// fitted with (and therefore fingerprints to the same cache key).
impl ToJson for GemConfig {
    fn to_json(&self) -> Json {
        object(vec![
            ("gmm", self.gmm.to_json()),
            ("text_dim", number(self.text_dim as f64)),
            ("composition", self.composition.to_json()),
            ("parallel", Json::Bool(self.parallel)),
        ])
    }
}

impl FromJson for GemConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(GemConfig {
            gmm: GmmConfig::from_json(value.field("gmm")?)?,
            text_dim: value.num_field("text_dim")? as usize,
            composition: Composition::from_json(value.field("composition")?)?,
            parallel: value
                .field("parallel")?
                .as_bool()
                .ok_or_else(|| JsonError::conversion("field `parallel` is not a bool"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = GemConfig::default();
        assert_eq!(c.gmm.n_components, 50);
        assert_eq!(c.gmm.n_restarts, 10);
        assert_eq!(c.gmm.tolerance, 1e-3);
        assert_eq!(c.composition, Composition::Concatenation);
    }

    #[test]
    fn feature_set_constructors_and_labels() {
        assert_eq!(FeatureSet::d().label(), "D");
        assert_eq!(FeatureSet::s().label(), "S");
        assert_eq!(FeatureSet::c().label(), "C");
        assert_eq!(FeatureSet::ds().label(), "D+S");
        assert_eq!(FeatureSet::cs().label(), "C+S");
        assert_eq!(FeatureSet::dc().label(), "D+C");
        assert_eq!(FeatureSet::dsc().label(), "D+C+S");
        assert!(FeatureSet::d().is_non_empty());
        let empty = FeatureSet {
            distributional: false,
            statistical: false,
            contextual: false,
        };
        assert!(!empty.is_non_empty());
        assert_eq!(empty.label(), "none");
    }

    #[test]
    fn builders() {
        let c = GemConfig::with_components(10)
            .with_composition(Composition::Aggregation)
            .with_parallel(false);
        assert_eq!(c.gmm.n_components, 10);
        assert_eq!(c.composition, Composition::Aggregation);
        assert!(!c.parallel);
        assert!(GemConfig::fast().gmm.n_components < 20);
    }

    #[test]
    fn feature_set_and_config_round_trip_through_json() {
        for features in crate::ablation_feature_sets() {
            let text = features.to_json().to_compact_string();
            let back = FeatureSet::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, features);
        }
        for config in [
            GemConfig::default(),
            GemConfig::fast(),
            GemConfig::with_components(12)
                .with_composition(Composition::autoencoder())
                .with_parallel(false),
        ] {
            let text = config.to_json().to_pretty_string();
            let back = GemConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, config);
        }
    }

    #[test]
    fn config_decoding_reports_missing_and_mistyped_fields() {
        let mut pairs = match GemConfig::fast().to_json() {
            Json::Object(pairs) => pairs,
            _ => unreachable!(),
        };
        pairs.retain(|(k, _)| k != "parallel");
        assert!(GemConfig::from_json(&Json::Object(pairs.clone())).is_err());
        pairs.push(("parallel".into(), number(1.0)));
        assert!(GemConfig::from_json(&Json::Object(pairs)).is_err());
    }
}
