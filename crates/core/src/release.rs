//! The portable release format.
//!
//! A differentially private synopsis is meant to be *published*. This
//! module defines the method-agnostic interchange format: the domain,
//! the consumed ε, typed [`ReleaseMetadata`] describing how the
//! release was produced, and the leaf cells with their noisy counts.
//! Any [`Synopsis`] can be exported ([`Release::from_synopsis`]) and
//! the result is itself a queryable `Synopsis`, so consumers do not
//! need the producing method's code (or its Rust types) at all.
//!
//! Everything in a `Release` is ε-DP output; saving, sharing and
//! re-loading are privacy-free post-processing.
//!
//! # Metadata and backwards compatibility
//!
//! A release built through [`crate::Pipeline`] carries the producing
//! [`Method`] as a typed enum, its guideline-**resolved** twin (every
//! `None` size filled in against the dataset), the paper-notation
//! label, ε, and — for reproducible experiment releases only — the
//! build seed. Releases serialised by earlier versions carried a
//! free-form `"method"` string instead; those still load: the
//! `metadata` field accepts the legacy key via a serde alias, and a
//! bare string deserialises into label-only metadata
//! ([`ReleaseMetadata::legacy`]).
//!
//! # Query architecture
//!
//! A release stores its cells as a flat list (that is the interchange
//! format), but it never *answers* from that list: on the first call to
//! [`Release::answer`] / [`Release::answer_all`] the cells are compiled
//! — once, lazily — into a [`CompiledSurface`], and every query
//! afterwards runs against that surface (a dense lattice + summed-area
//! table when the cells are grid-shaped, a coarse lattice of per-cell
//! sub-lattices for two-level partitions such as AG, a tree of the cuts
//! no cell straddles otherwise; see [`crate::surface`]). The compiled
//! index is a cache, never serialised: a release loaded from JSON
//! recompiles on first use. [`Release::answer_linear_scan`] keeps the
//! naive O(cells) reference semantics available for verification and
//! benchmarking.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use dpgrid_geo::{Domain, GeoError, Rect};

use crate::{CompiledSurface, CoreError, Method, Result, Synopsis};

/// Typed provenance of a [`Release`]: what was built, how the
/// guidelines resolved, and under which budget.
///
/// The seed travels as a decimal *string* on the wire: the JSON number
/// carrier is `f64` (the vendored interchange stub's lossy mode, and
/// real `serde_json` readers in other languages behave the same), and
/// a seed rounded to the nearest representable double would silently
/// break the recorded-reproducibility guarantee for values ≥ 2⁵³.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseMetadata {
    /// The declarative registry entry the release was built from, with
    /// guideline sizes still unresolved (`None` where a guideline was
    /// requested). `None` for legacy or externally produced releases
    /// that only carry a label.
    pub method: Option<Method>,
    /// [`Method::resolved`] against the dataset: the parameters the
    /// build actually used (e.g. the concrete Guideline-1 grid size).
    pub resolved: Option<Method>,
    /// Human-readable method tag in the paper's notation (or the
    /// free-form string of a legacy release).
    pub label: String,
    /// Privacy budget consumed; kept equal to [`Release::epsilon`].
    pub epsilon: f64,
    /// RNG seed of the build, recorded **only** for explicitly seeded
    /// [`crate::Pipeline`] publishes. A recorded seed makes the noise
    /// reproducible — and therefore removable — by anyone holding the
    /// dataset schema, so seeded releases are for reproducible
    /// experiments, not for production publication.
    pub seed: Option<u64>,
    /// Which trust model produced the surface — see [`TrustModel`].
    /// Defaults to [`TrustModel::Central`] (including for all legacy
    /// JSON, which predates the local model).
    pub trust: TrustModel,
}

/// Where the privacy barrier sat when a release's counts were made.
///
/// The distinction matters to consumers: central-model counts are the
/// true histogram plus curator-added noise, while local-model counts
/// are *statistical estimates* debiased out of per-user randomized
/// reports — unbiased, but with sampling variance that depends on the
/// population size, and individually meaningless at low counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrustModel {
    /// A trusted curator saw the raw points and added noise once,
    /// server-side (the paper's setting).
    #[default]
    Central,
    /// No trusted curator: every user randomized their own report
    /// on-device (ε-LDP) and the release is the debiased aggregate.
    Local,
}

impl TrustModel {
    /// Stable wire tag (`"central"` / `"local"`).
    pub fn as_str(self) -> &'static str {
        match self {
            TrustModel::Central => "central",
            TrustModel::Local => "local",
        }
    }
}

impl std::fmt::Display for TrustModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ReleaseMetadata {
    /// Label-only metadata, as produced for legacy string-tagged
    /// releases and direct [`Release::from_synopsis`] exports.
    pub fn legacy(label: impl Into<String>, epsilon: f64) -> Self {
        ReleaseMetadata {
            method: None,
            resolved: None,
            label: label.into(),
            epsilon,
            seed: None,
            trust: TrustModel::Central,
        }
    }

    /// The same metadata with the trust model set to
    /// [`TrustModel::Local`] — for releases whose counts are LDP
    /// estimates rather than curator-noised tallies.
    pub fn local(mut self) -> Self {
        self.trust = TrustModel::Local;
        self
    }
}

/// Hand-written (not derived) so the seed can cross the wire as a
/// lossless decimal string instead of a rounding `f64` number.
impl Serialize for ReleaseMetadata {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("method".into(), self.method.serialize_value()),
            ("resolved".into(), self.resolved.serialize_value()),
            ("label".into(), self.label.serialize_value()),
            ("epsilon".into(), self.epsilon.serialize_value()),
            (
                "seed".into(),
                match self.seed {
                    Some(seed) => serde::Value::Str(seed.to_string()),
                    None => serde::Value::Null,
                },
            ),
            (
                "trust".into(),
                serde::Value::Str(self.trust.as_str().into()),
            ),
        ])
    }
}

/// Untagged fallback: current releases carry a metadata *object*,
/// PR-1-era releases a bare method *string* (reached through the
/// `#[serde(alias = "method")]` on [`Release`]'s field). A string
/// becomes label-only metadata whose ε is patched from the release's
/// top-level field during validation. The seed field accepts both the
/// canonical decimal string and a plain (2⁵³-bounded) number.
impl Deserialize for ReleaseMetadata {
    fn deserialize_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v {
            serde::Value::Str(label) => Ok(ReleaseMetadata::legacy(label.clone(), f64::NAN)),
            serde::Value::Obj(obj) => {
                let seed = match obj.iter().find(|(k, _)| k == "seed").map(|(_, v)| v) {
                    None | Some(serde::Value::Null) => None,
                    Some(serde::Value::Str(s)) => Some(s.parse::<u64>().map_err(|e| {
                        serde::Error::msg(format!("ReleaseMetadata.seed: `{s}` is not a u64: {e}"))
                    })?),
                    Some(num) => Some(
                        u64::deserialize_value(num)
                            .map_err(|e| serde::Error::msg(format!("ReleaseMetadata.seed: {e}")))?,
                    ),
                };
                // Absent / null means central: every release written
                // before the local model existed was curator-noised.
                let trust = match obj.iter().find(|(k, _)| k == "trust").map(|(_, v)| v) {
                    None | Some(serde::Value::Null) => TrustModel::Central,
                    Some(serde::Value::Str(s)) if s == "central" => TrustModel::Central,
                    Some(serde::Value::Str(s)) if s == "local" => TrustModel::Local,
                    Some(other) => {
                        return Err(serde::Error::msg(format!(
                            "ReleaseMetadata.trust: expected \"central\" or \"local\", got {}",
                            match other {
                                serde::Value::Str(s) => format!("{s:?}"),
                                v => v.kind().to_string(),
                            }
                        )))
                    }
                };
                Ok(ReleaseMetadata {
                    method: serde::field_aliased_or_default(obj, &["method"], "ReleaseMetadata")?,
                    resolved: serde::field_aliased_or_default(
                        obj,
                        &["resolved"],
                        "ReleaseMetadata",
                    )?,
                    label: serde::field(obj, "label", "ReleaseMetadata")?,
                    epsilon: serde::field(obj, "epsilon", "ReleaseMetadata")?,
                    seed,
                    trust,
                })
            }
            other => Err(serde::Error::msg(format!(
                "ReleaseMetadata: expected object or legacy method string, got {}",
                other.kind()
            ))),
        }
    }
}

/// A serialisable, method-agnostic DP release.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Release {
    /// Typed provenance. The alias accepts PR-1-era JSON, where this
    /// slot was a free-form `"method"` string.
    #[serde(alias = "method")]
    metadata: ReleaseMetadata,
    /// Privacy budget consumed.
    epsilon: f64,
    /// The public domain.
    domain: Domain,
    /// Leaf cells and their released counts; the rectangles partition
    /// the domain.
    cells: Vec<(Rect, f64)>,
    /// Query index compiled from `cells` on first answer; pure cache
    /// (derived data), so it is skipped by serialisation and reset by
    /// deserialisation. Held behind an [`Arc`] so clones of the release
    /// — and serving-side containers such as a release catalog — share
    /// one compilation instead of each recompiling (or deep-copying)
    /// the index.
    #[serde(skip)]
    surface: OnceLock<Arc<CompiledSurface>>,
}

impl Release {
    /// Exports any synopsis into the interchange format with a
    /// free-form label. Pipeline-published releases carry full typed
    /// metadata instead — see [`Release::from_synopsis_with_metadata`].
    pub fn from_synopsis(method: impl Into<String>, synopsis: &impl Synopsis) -> Self {
        let metadata = ReleaseMetadata::legacy(method, synopsis.epsilon());
        Release::from_synopsis_with_metadata(metadata, synopsis)
    }

    /// Exports any synopsis with explicit typed metadata (the
    /// [`crate::Pipeline::publish`] path). The metadata's ε is forced
    /// to the synopsis's ε, which is authoritative.
    pub fn from_synopsis_with_metadata(
        mut metadata: ReleaseMetadata,
        synopsis: &impl Synopsis,
    ) -> Self {
        metadata.epsilon = synopsis.epsilon();
        Release {
            metadata,
            epsilon: synopsis.epsilon(),
            domain: *synopsis.domain(),
            cells: synopsis.cells(),
            surface: OnceLock::new(),
        }
    }

    /// Builds a release from raw parts, validating that the cells are
    /// sane (finite counts, non-empty rectangles inside the domain, and
    /// total area matching the domain to within 0.1 %).
    pub fn from_parts(
        method: impl Into<String>,
        epsilon: f64,
        domain: Domain,
        cells: Vec<(Rect, f64)>,
    ) -> Result<Self> {
        Release::from_parts_with_metadata(
            ReleaseMetadata::legacy(method, epsilon),
            epsilon,
            domain,
            cells,
        )
    }

    /// [`Release::from_parts`] with full typed metadata.
    pub fn from_parts_with_metadata(
        mut metadata: ReleaseMetadata,
        epsilon: f64,
        domain: Domain,
        cells: Vec<(Rect, f64)>,
    ) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "release epsilon must be positive, got {epsilon}"
            )));
        }
        if cells.is_empty() {
            return Err(CoreError::InvalidConfig(
                "release needs at least one cell".into(),
            ));
        }
        let mut area = 0.0;
        for (rect, v) in &cells {
            if !v.is_finite() {
                return Err(CoreError::InvalidConfig(format!(
                    "cell count must be finite, got {v}"
                )));
            }
            if rect.is_empty() || !domain.rect().contains_rect(rect) {
                return Err(CoreError::InvalidConfig(format!(
                    "cell {rect:?} is empty or escapes the domain"
                )));
            }
            area += rect.area();
        }
        if (area - domain.area()).abs() > domain.area() * 1e-3 {
            return Err(CoreError::InvalidConfig(format!(
                "cells cover area {area}, domain has {}",
                domain.area()
            )));
        }
        // The top-level ε is authoritative; legacy metadata arrives
        // with a NaN placeholder to be patched here.
        metadata.epsilon = epsilon;
        Ok(Release {
            metadata,
            epsilon,
            domain,
            cells,
            surface: OnceLock::new(),
        })
    }

    /// The producing method tag (the metadata label) — for legacy
    /// releases, exactly the string they were published with.
    pub fn method(&self) -> &str {
        &self.metadata.label
    }

    /// The full typed provenance of the release.
    pub fn metadata(&self) -> &ReleaseMetadata {
        &self.metadata
    }

    /// The typed registry entry the release was built from, when the
    /// release was published through the registry ([`crate::Pipeline`]).
    pub fn method_kind(&self) -> Option<&Method> {
        self.metadata.method.as_ref()
    }

    /// Number of leaf cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The compiled query surface, building it on first use.
    ///
    /// Compilation is pure post-processing of already-released values;
    /// it costs O(cells·log cells) once and makes every subsequent
    /// [`Release::answer`] O(log cells). The compilation is shared:
    /// clones of this release (and every [`Release::shared_surface`]
    /// handle) reuse the same index — a release is compiled at most
    /// once for its lifetime in memory.
    pub fn surface(&self) -> &CompiledSurface {
        self.init_surface()
    }

    /// A shared, reference-counted handle to the compiled surface,
    /// building it on first use.
    ///
    /// This is the serving-side seam: a catalog or query engine can
    /// hand the `Arc` to worker threads (the surface is `Send + Sync`)
    /// without cloning cell lists, and [`Arc::ptr_eq`] witnesses that
    /// no path recompiled an already-compiled release.
    pub fn shared_surface(&self) -> Arc<CompiledSurface> {
        Arc::clone(self.init_surface())
    }

    /// Whether the surface cache is currently populated (compilation
    /// already happened and was not evicted).
    pub fn surface_is_compiled(&self) -> bool {
        self.surface.get().is_some()
    }

    /// Drops the cached compiled surface, returning the evicted handle
    /// if one was resident.
    ///
    /// Existing [`Release::shared_surface`] handles stay valid — the
    /// index is reference-counted — but the *next* answer through this
    /// release recompiles. Capacity-bounded serving caches use this to
    /// bound the number of resident compiled indexes; it never touches
    /// the released cells, so it is pure cache management.
    pub fn evict_surface(&mut self) -> Option<Arc<CompiledSurface>> {
        self.surface.take()
    }

    fn init_surface(&self) -> &Arc<CompiledSurface> {
        self.surface
            .get_or_init(|| Arc::new(CompiledSurface::compile(self.domain, &self.cells)))
    }

    /// Reference implementation of [`Release::answer`]: the naive
    /// O(cells) scan over the stored cell list.
    ///
    /// Kept public so equivalence tests and benchmarks can compare the
    /// compiled surface against the semantics it must reproduce; never
    /// use this on a serving path.
    pub fn answer_linear_scan(&self, query: &Rect) -> f64 {
        let Some(q) = self.domain.clip(query) else {
            return 0.0;
        };
        self.cells
            .iter()
            .map(|(rect, v)| v * rect.overlap_fraction(&q))
            .sum()
    }

    /// Serialises to JSON.
    pub fn write_json<W: Write>(&self, w: W) -> Result<()> {
        let w = BufWriter::new(w);
        serde_json::to_writer(w, self).map_err(|e| CoreError::Geo(GeoError::Io(e.to_string())))?;
        Ok(())
    }

    /// Deserialises from JSON, re-validating the invariants (a release
    /// from an untrusted source must not bypass [`Release::from_parts`]).
    /// Accepts both the current typed-metadata format and PR-1-era
    /// string-tagged releases.
    pub fn read_json<R: Read>(r: R) -> Result<Self> {
        let r = BufReader::new(r);
        let raw: Release =
            serde_json::from_reader(r).map_err(|e| CoreError::Geo(GeoError::Io(e.to_string())))?;
        Release::from_parts_with_metadata(raw.metadata, raw.epsilon, raw.domain, raw.cells)
    }

    /// Saves to a JSON file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let f = std::fs::File::create(path).map_err(|e| CoreError::Geo(e.into()))?;
        self.write_json(f)
    }

    /// Loads from a JSON file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let f = std::fs::File::open(path).map_err(|e| CoreError::Geo(e.into()))?;
        Release::read_json(f)
    }
}

impl Synopsis for Release {
    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Answers through the lazily compiled surface: O(log cells) per
    /// query after a one-time O(cells·log cells) compilation.
    fn answer(&self, query: &Rect) -> f64 {
        self.surface().answer(query)
    }

    fn cells(&self) -> Vec<(Rect, f64)> {
        self.cells.clone()
    }

    /// Batch answering through the compiled surface, chunked across
    /// scoped threads for large batches.
    fn answer_all(&self, queries: &[Rect]) -> Vec<f64> {
        self.surface().answer_all(queries)
    }

    /// Reads the stored cells directly — no `cells()` clone, no
    /// recompilation.
    fn total_estimate(&self) -> f64 {
        self.cells.iter().map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveGrid, AgConfig, UgConfig, UniformGrid};
    use dpgrid_geo::generators;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn dataset() -> dpgrid_geo::GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
        generators::uniform(domain, 1_000, &mut rng(1))
    }

    #[test]
    fn export_preserves_answers() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(2)).unwrap();
        let rel = Release::from_synopsis("UG", &ug);
        assert_eq!(rel.method(), "UG");
        assert_eq!(rel.epsilon(), 1.0);
        assert_eq!(rel.metadata().epsilon, 1.0);
        assert_eq!(rel.method_kind(), None);
        assert_eq!(rel.cell_count(), 64);
        for q in [
            Rect::new(0.0, 0.0, 8.0, 8.0).unwrap(),
            Rect::new(1.3, 2.7, 5.9, 6.1).unwrap(),
        ] {
            assert!((rel.answer(&q) - ug.answer(&q)).abs() < 1e-9);
        }
    }

    #[test]
    fn ag_export_roundtrips_through_json() {
        let ds = dataset();
        let ag =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(0.5).with_m1(4), &mut rng(3)).unwrap();
        let rel = Release::from_synopsis("AG", &ag);
        let mut buf = Vec::new();
        rel.write_json(&mut buf).unwrap();
        let back = Release::read_json(&buf[..]).unwrap();
        let q = Rect::new(0.5, 0.5, 7.5, 3.5).unwrap();
        assert!((back.answer(&q) - ag.answer(&q)).abs() < 1e-9);
        assert_eq!(back.cell_count(), rel.cell_count());
    }

    #[test]
    fn typed_metadata_roundtrips_through_json() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(7)).unwrap();
        let metadata = ReleaseMetadata {
            method: Some(Method::ug_suggested()),
            resolved: Some(Method::ug(8)),
            label: "U8*".into(),
            epsilon: 1.0,
            seed: Some(7),
            trust: TrustModel::Central,
        };
        let rel = Release::from_synopsis_with_metadata(metadata.clone(), &ug);
        let mut buf = Vec::new();
        rel.write_json(&mut buf).unwrap();
        let back = Release::read_json(&buf[..]).unwrap();
        assert_eq!(back.metadata(), &metadata);
        assert_eq!(back.method_kind(), Some(&Method::ug_suggested()));
        assert_eq!(back.method(), "U8*");
    }

    #[test]
    fn trust_model_roundtrips_and_defaults_to_central() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 4), &mut rng(11)).unwrap();
        // Local-model tag survives the wire.
        let metadata = ReleaseMetadata::legacy("LDP-OUE", 1.0).local();
        let rel = Release::from_synopsis_with_metadata(metadata, &ug);
        let mut buf = Vec::new();
        rel.write_json(&mut buf).unwrap();
        let back = Release::read_json(&buf[..]).unwrap();
        assert_eq!(back.metadata().trust, TrustModel::Local);
        // JSON written before the field existed deserializes central.
        let stripped = String::from_utf8(buf.clone())
            .unwrap()
            .replace("\"trust\":\"local\"", "\"trust\":null");
        assert_ne!(stripped, String::from_utf8(buf).unwrap());
        let legacy = Release::read_json(stripped.as_bytes()).unwrap();
        assert_eq!(legacy.metadata().trust, TrustModel::Central);
        // An unknown tag fails typed instead of silently centralizing.
        let hostile = stripped.replace("\"trust\":null", "\"trust\":\"psychic\"");
        assert!(Release::read_json(hostile.as_bytes()).is_err());
    }

    #[test]
    fn huge_seeds_roundtrip_losslessly() {
        // Seeds ≥ 2⁵³ are not representable as f64; the string wire
        // encoding must carry them exactly.
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 4), &mut rng(9)).unwrap();
        for seed in [u64::MAX, (1 << 53) + 1, 0] {
            let metadata = ReleaseMetadata {
                seed: Some(seed),
                ..ReleaseMetadata::legacy("U4", 1.0)
            };
            let rel = Release::from_synopsis_with_metadata(metadata, &ug);
            let mut buf = Vec::new();
            rel.write_json(&mut buf).unwrap();
            let back = Release::read_json(&buf[..]).unwrap();
            assert_eq!(back.metadata().seed, Some(seed));
        }
        // A numeric seed (hand-written JSON) is accepted too.
        let json = r#"{
            "metadata": {"method": null, "resolved": null, "label": "x",
                         "epsilon": 1.0, "seed": 41},
            "epsilon": 1.0,
            "domain": {"rect": {"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0}},
            "cells": [[{"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0}, 2.0]]
        }"#;
        let rel = Release::read_json(json.as_bytes()).unwrap();
        assert_eq!(rel.metadata().seed, Some(41));
    }

    #[test]
    fn legacy_string_method_json_still_loads() {
        // The exact shape PR-1 wrote: a top-level string "method".
        let json = r#"{
            "method": "AG(eps=1, m1=4)",
            "epsilon": 1.0,
            "domain": {"rect": {"x0": 0.0, "y0": 0.0, "x1": 2.0, "y1": 1.0}},
            "cells": [
                [{"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0}, 3.0],
                [{"x0": 1.0, "y0": 0.0, "x1": 2.0, "y1": 1.0}, 4.0]
            ]
        }"#;
        let rel = Release::read_json(json.as_bytes()).unwrap();
        assert_eq!(rel.method(), "AG(eps=1, m1=4)");
        assert_eq!(rel.method_kind(), None);
        // Legacy metadata inherits the top-level ε.
        assert_eq!(rel.metadata().epsilon, 1.0);
        assert_eq!(rel.metadata().seed, None);
        let q = Rect::new(0.0, 0.0, 2.0, 1.0).unwrap();
        assert!((rel.answer(&q) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_validates() {
        let domain = Domain::from_corners(0.0, 0.0, 2.0, 1.0).unwrap();
        let good = vec![
            (Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 3.0),
            (Rect::new(1.0, 0.0, 2.0, 1.0).unwrap(), 4.0),
        ];
        assert!(Release::from_parts("x", 1.0, domain, good.clone()).is_ok());
        // Bad epsilon.
        assert!(Release::from_parts("x", 0.0, domain, good.clone()).is_err());
        // Empty cells.
        assert!(Release::from_parts("x", 1.0, domain, vec![]).is_err());
        // Non-finite count.
        let nan = vec![(Rect::new(0.0, 0.0, 2.0, 1.0).unwrap(), f64::NAN)];
        assert!(Release::from_parts("x", 1.0, domain, nan).is_err());
        // Escaping cell.
        let out = vec![(Rect::new(0.0, 0.0, 3.0, 1.0).unwrap(), 1.0)];
        assert!(Release::from_parts("x", 1.0, domain, out).is_err());
        // Under-covering cells.
        let hole = vec![(Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 1.0)];
        assert!(Release::from_parts("x", 1.0, domain, hole).is_err());
    }

    #[test]
    fn untrusted_json_is_revalidated() {
        // A hand-crafted JSON with a cell escaping the domain must be
        // rejected at load time.
        let json = r#"{
            "method": "evil",
            "epsilon": 1.0,
            "domain": {"rect": {"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0}},
            "cells": [[{"x0": 0.0, "y0": 0.0, "x1": 5.0, "y1": 5.0}, 1.0]]
        }"#;
        assert!(Release::read_json(json.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 4), &mut rng(4)).unwrap();
        let rel = Release::from_synopsis("UG-file", &ug);
        let path = std::env::temp_dir().join("dpgrid_release_test.json");
        rel.save(&path).unwrap();
        let back = Release::load(&path).unwrap();
        assert_eq!(back.method(), "UG-file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clones_share_one_compiled_surface() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(11)).unwrap();
        let rel = Release::from_synopsis("UG", &ug);
        assert!(!rel.surface_is_compiled());
        let s1 = rel.shared_surface();
        assert!(rel.surface_is_compiled());
        // A clone taken after compilation carries the same Arc — no
        // recompilation, no deep copy of the index.
        let cloned = rel.clone();
        assert!(cloned.surface_is_compiled());
        assert!(Arc::ptr_eq(&s1, &cloned.shared_surface()));
        assert!(Arc::ptr_eq(&s1, &rel.shared_surface()));
    }

    #[test]
    fn evicted_surface_recompiles_fresh() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(12)).unwrap();
        let mut rel = Release::from_synopsis("UG", &ug);
        let q = Rect::new(1.0, 1.0, 5.0, 5.0).unwrap();
        let before = rel.answer(&q);
        let s1 = rel.shared_surface();
        let evicted = rel.evict_surface().expect("surface was resident");
        assert!(Arc::ptr_eq(&s1, &evicted));
        assert!(!rel.surface_is_compiled());
        assert!(rel.evict_surface().is_none());
        // The evicted handle still answers; the release recompiles to a
        // distinct but equivalent index.
        let s2 = rel.shared_surface();
        assert!(!Arc::ptr_eq(&s1, &s2));
        assert_eq!(s1.answer(&q), before);
        assert_eq!(rel.answer(&q), before);
    }

    #[test]
    fn synthetic_from_release() {
        let ds = dataset();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(5.0, 4), &mut rng(5)).unwrap();
        let rel = Release::from_synopsis("UG", &ug);
        let synth = crate::synthetic::synthesize(&rel, 500, &mut rng(6)).unwrap();
        assert_eq!(synth.len(), 500);
    }
}
