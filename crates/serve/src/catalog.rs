//! The release catalog: keyed, versioned releases plus a
//! memory-budgeted LRU of compiled surfaces.
//!
//! A [`Catalog`] owns [`Release`]s under string keys. Releases arrive
//! from memory ([`Catalog::insert`], or zero-copy from a publishing
//! pipeline via [`dpgrid_core::Pipeline::publish_into`]) or from a
//! directory of release JSON files ([`Catalog::load_dir`]). Inserting
//! under an existing key *re-versions* it: the version counter bumps
//! and the stale compiled surface is dropped.
//!
//! Compiled surfaces — the O(cells) indexes releases answer through —
//! are the memory-heavy part, so the catalog bounds **their total
//! resident bytes** ([`Catalog::with_memory_budget`], accounted through
//! [`dpgrid_core::CompiledSurface::memory_bytes`]): when a compile
//! pushes the resident sum past the budget, least-recently-used
//! surfaces are evicted ([`Release::evict_surface`]) until it fits.
//! Surfaces vary by orders of magnitude across releases, which is why
//! the budget is in bytes and there is no count bound. Eviction is
//! pure cache management: leased [`SurfaceHandle`]s stay valid (the
//! index is
//! reference-counted), and a later lookup of an evicted key recompiles
//! from the retained cells. A resident surface is never recompiled —
//! lookups lease clones of the same `Arc`.
//!
//! Lookups are two-phase so a catalog behind a lock never compiles
//! while holding it: [`Catalog::lease`] resolves warm hits or hands
//! out a [`ColdLease`], the caller runs [`ColdLease::compile`] outside
//! the lock (per-release `OnceLock` serialisation keeps it
//! exactly-once), and [`Catalog::note_compiled`] folds the new
//! resident surface into the LRU. [`Catalog::surface`] bundles both
//! phases for direct (unlocked) owners.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use dpgrid_core::{CompiledSurface, Release, ReleaseSink};
use serde::{Deserialize, Serialize};

use crate::error::{Result, ServeError};

/// Default resident-surface memory budget (256 MiB) used by
/// [`Catalog::new`]. Production catalogs should size this explicitly
/// with [`Catalog::with_memory_budget`].
pub const DEFAULT_MEMORY_BUDGET_BYTES: usize = 256 << 20;

/// Whether a surface lookup was served from the resident cache or had
/// to compile.
///
/// Serialisable so the cache state travels on the wire protocol (as
/// the strings `"Warm"` / `"Cold"`), making staleness and cache
/// behaviour observable by remote clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheState {
    /// The compiled surface was already resident.
    Warm,
    /// The surface was compiled (first touch, or refetch after
    /// eviction / re-versioning) during this lookup.
    Cold,
}

/// A leased compiled surface plus the lookup's provenance, as returned
/// by [`Catalog::surface`].
#[derive(Debug, Clone)]
pub struct SurfaceHandle {
    /// The shared compiled surface; valid even after the catalog
    /// evicts or replaces the release.
    pub surface: Arc<CompiledSurface>,
    /// Whether this lookup hit the resident cache.
    pub cache: CacheState,
    /// Version of the release answered (1 on first insert, bumped by
    /// every re-insert of the key).
    pub version: u64,
}

/// Point-in-time catalog counters (see [`Catalog::stats`]).
///
/// Serialisable: the serving layer exposes these over the wire
/// protocol's `Stats` request so operators can watch warm/cold ratios,
/// evictions and the resident-byte budget over the same connection
/// they query through. Unbounded limits serialise as `usize::MAX`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogStats {
    /// Releases currently held.
    pub releases: usize,
    /// Compiled surfaces currently resident.
    pub warm: usize,
    /// Always `usize::MAX`: catalogs have no residency count bound.
    /// The field stays because the binary `Stats` layout carries it,
    /// and dropping it would need a protocol version bump.
    pub capacity: usize,
    /// Resident-surface byte budget (`usize::MAX` when the catalog
    /// was built with that budget, i.e. unbounded).
    pub budget_bytes: usize,
    /// Bytes of compiled surface currently resident, as accounted by
    /// [`dpgrid_core::CompiledSurface::memory_bytes`].
    pub resident_bytes: usize,
    /// Surface lookups served since creation.
    pub lookups: u64,
    /// Lookups that found the surface resident.
    pub warm_hits: u64,
    /// Surface compilations performed.
    pub compilations: u64,
    /// Surfaces evicted by the byte budget.
    pub evictions: u64,
}

impl CatalogStats {
    /// All-zero counters: the identity of [`CatalogStats::merge`].
    pub fn zeroed() -> Self {
        CatalogStats::default()
    }

    /// Element-wise aggregation of two catalogs' counters — the exact
    /// stats of a tier holding both (a shard router sums its backends'
    /// catalogs this way). Counts and traffic add; the bounds
    /// (`capacity`, `budget_bytes`) add **saturating**, so one
    /// unbounded (`usize::MAX`) member keeps the aggregate unbounded
    /// instead of wrapping.
    #[must_use]
    pub fn merge(&self, other: &CatalogStats) -> CatalogStats {
        CatalogStats {
            releases: self.releases + other.releases,
            warm: self.warm + other.warm,
            capacity: self.capacity.saturating_add(other.capacity),
            budget_bytes: self.budget_bytes.saturating_add(other.budget_bytes),
            resident_bytes: self.resident_bytes + other.resident_bytes,
            lookups: self.lookups + other.lookups,
            warm_hits: self.warm_hits + other.warm_hits,
            compilations: self.compilations + other.compilations,
            evictions: self.evictions + other.evictions,
        }
    }
}

impl std::iter::Sum for CatalogStats {
    fn sum<I: Iterator<Item = CatalogStats>>(iter: I) -> Self {
        iter.fold(CatalogStats::zeroed(), |acc, s| acc.merge(&s))
    }
}

impl<'a> std::iter::Sum<&'a CatalogStats> for CatalogStats {
    fn sum<I: Iterator<Item = &'a CatalogStats>>(iter: I) -> Self {
        iter.fold(CatalogStats::zeroed(), |acc, s| acc.merge(s))
    }
}

/// A leased release awaiting its surface compilation — phase one of
/// the two-phase cold lookup (see [`Catalog::lease`]).
///
/// The holder compiles **outside** the catalog lock via
/// [`ColdLease::compile`] (the release's own `OnceLock` serialises
/// concurrent compiles of the same release), then reports back with
/// [`Catalog::note_compiled`] so the LRU can account for the new
/// resident surface.
#[derive(Debug, Clone)]
pub struct ColdLease {
    release: Arc<Release>,
    version: u64,
}

impl ColdLease {
    /// Compiles (or joins an in-flight compilation of) the release's
    /// surface. Run this without holding any catalog lock.
    pub fn compile(&self) -> SurfaceHandle {
        SurfaceHandle {
            surface: self.release.shared_surface(),
            cache: CacheState::Cold,
            version: self.version,
        }
    }

    /// Version of the leased release.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// One [`Catalog::lease`] outcome: resident surface or a cold lease to
/// compile outside the lock.
#[derive(Debug, Clone)]
pub enum Lease {
    /// The surface was resident; the handle is ready.
    Warm(SurfaceHandle),
    /// The surface must be compiled; see [`ColdLease`].
    Cold(ColdLease),
}

#[derive(Debug)]
struct CatalogEntry {
    /// Shared so cold compilations can run outside the catalog lock;
    /// the catalog itself holds the only long-lived reference (leases
    /// hold a second one just for the duration of a compile).
    release: Arc<Release>,
    version: u64,
    hits: u64,
    /// Version whose compilation was last counted (0 = none since the
    /// last insert/eviction) — keeps `compilations` exact when racing
    /// reporters or late `note_compiled` calls arrive for work the
    /// counter already recorded.
    counted_version: u64,
    /// Bytes this entry's resident surface contributes to the
    /// catalog-wide sum (0 = not currently accounted as resident).
    resident_bytes: usize,
}

/// Keyed, versioned releases with a memory-budgeted LRU of compiled
/// surfaces.
#[derive(Debug)]
pub struct Catalog {
    entries: HashMap<String, CatalogEntry>,
    /// Keys whose surfaces are resident, least-recently-used first.
    /// Catalogs hold few enough releases that the O(warm) touch is
    /// noise next to one surface compilation.
    lru: Vec<String>,
    /// Resident-surface byte budget (`usize::MAX` = unbounded).
    budget_bytes: usize,
    /// Current resident-surface byte total.
    resident_bytes: usize,
    /// Set whenever [`Catalog::release`] hands out a shared reference:
    /// the holder may compile a surface the catalog cannot observe, so
    /// the next bounds enforcement must sweep for unaccounted
    /// residency. `Cell` so the `&self` accessor can raise it; the
    /// catalog lives behind the engine's mutex, never shared `&self`
    /// across threads.
    escaped_release: std::cell::Cell<bool>,
    lookups: u64,
    warm_hits: u64,
    compilations: u64,
    evictions: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog with the [`DEFAULT_MEMORY_BUDGET_BYTES`]
    /// resident-surface byte budget.
    pub fn new() -> Self {
        Catalog::with_memory_budget(DEFAULT_MEMORY_BUDGET_BYTES)
    }

    /// An empty catalog keeping at most `budget_bytes` (≥ 1) of
    /// compiled surface resident, as accounted by
    /// [`dpgrid_core::CompiledSurface::memory_bytes`].
    ///
    /// The budget is enforced at every catalog operation, with one
    /// documented exception: the most-recently-used surface is never
    /// evicted (its lease is live — evicting it would free nothing
    /// while making the next lookup recompile), so a *single* surface
    /// larger than the whole budget stays resident alone.
    pub fn with_memory_budget(budget_bytes: usize) -> Self {
        Catalog {
            entries: HashMap::new(),
            lru: Vec::new(),
            budget_bytes: budget_bytes.max(1),
            resident_bytes: 0,
            escaped_release: std::cell::Cell::new(false),
            lookups: 0,
            warm_hits: 0,
            compilations: 0,
            evictions: 0,
        }
    }

    /// Loads every `*.json` release in `dir` into a fresh catalog,
    /// keyed by file stem (see [`Catalog::load_dir`]).
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<Self> {
        let mut catalog = Catalog::new();
        catalog.load_dir(dir)?;
        Ok(catalog)
    }

    /// Loads every `*.json` file in `dir` as a release keyed by its
    /// file stem, in lexicographic order (so re-versioned dumps load
    /// deterministically). Returns the keys inserted.
    ///
    /// Each file goes through [`Release::load`], which re-validates the
    /// release invariants — a directory of untrusted dumps cannot
    /// smuggle malformed cells into the serving path.
    pub fn load_dir(&mut self, dir: impl AsRef<Path>) -> Result<Vec<String>> {
        let dir = dir.as_ref();
        let io_err = |e: std::io::Error| ServeError::Io {
            path: dir.to_path_buf(),
            source: e,
        };
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(io_err)?
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(io_err)?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        let mut keys = Vec::with_capacity(paths.len());
        for path in paths {
            let stem = path.file_stem().and_then(|s| s.to_str()).ok_or_else(|| {
                ServeError::InvalidKey(format!(
                    "release file {} has a non-UTF-8 stem",
                    path.display()
                ))
            })?;
            // Name the offending file: a directory of dumps can hold
            // dozens of releases, and a bare serde error does not say
            // which one is bad.
            let release = Release::load(&path).map_err(|source| ServeError::Load {
                path: path.clone(),
                source,
            })?;
            self.insert(stem, release);
            keys.push(stem.to_string());
        }
        Ok(keys)
    }

    /// Inserts (or re-versions) `release` under `key`, returning the
    /// assigned version: 1 for a new key, previous + 1 when replacing.
    /// Replacing drops the stale compiled surface from the LRU. A
    /// release arriving *already compiled* (e.g. a clone of a warm
    /// release — clones share their surface) counts against the
    /// byte budget immediately, so inserts cannot smuggle resident
    /// surfaces past the budget.
    pub fn insert(&mut self, key: impl Into<String>, release: Release) -> u64 {
        let key = key.into();
        let version = match self.entries.get(&key) {
            Some(old) => old.version + 1,
            None => 1,
        };
        self.lru.retain(|k| k != &key);
        let compiled = release.surface_is_compiled();
        if let Some(old) = self.entries.insert(
            key.clone(),
            CatalogEntry {
                release: Arc::new(release),
                version,
                hits: 0,
                counted_version: 0,
                resident_bytes: 0,
            },
        ) {
            // The replaced entry's surface (if resident) is gone with it.
            self.resident_bytes -= old.resident_bytes;
        }
        if compiled {
            self.mark_resident(&key);
        } else {
            // Inserts are also collection points for overflow left by
            // eviction attempts that had to defer (victims mid-compile
            // elsewhere) — the bounds must not wait for the next lookup.
            self.enforce_bounds();
        }
        version
    }

    /// Removes `key` and returns its release, if held.
    pub fn remove(&mut self, key: &str) -> Option<Release> {
        self.lru.retain(|k| k != key);
        self.entries.remove(key).map(|e| {
            self.resident_bytes -= e.resident_bytes;
            // Unshared in the common case; a clone (sharing the
            // compiled surface, copying cells) covers a remove racing
            // an in-flight cold lease.
            Arc::try_unwrap(e.release).unwrap_or_else(|arc| (*arc).clone())
        })
    }

    /// The release under `key`, if held. Does not touch the LRU.
    ///
    /// The returned reference can compile the release's surface behind
    /// the catalog's back (answering through it fills the shared
    /// `OnceLock`); the next catalog operation sweeps such surfaces
    /// into the byte budget, so the escape hatch cannot smuggle
    /// residency past the bound.
    pub fn release(&self, key: &str) -> Option<&Release> {
        let entry = self.entries.get(key)?;
        self.escaped_release.set(true);
        Some(entry.release.as_ref())
    }

    /// The current version of `key`, if held.
    pub fn version(&self, key: &str) -> Option<u64> {
        self.entries.get(key).map(|e| e.version)
    }

    /// Surface lookups served for `key` since it was (re-)inserted.
    pub fn hits(&self, key: &str) -> Option<u64> {
        self.entries.get(key).map(|e| e.hits)
    }

    /// Phase one of a surface lookup: lease without compiling.
    ///
    /// A warm key returns its resident surface (and becomes most
    /// recently used); a cold key returns a [`ColdLease`] for the
    /// caller to [`ColdLease::compile`] **after releasing any lock
    /// around this catalog** — compilation is O(cells·log cells) and
    /// must not serialise unrelated lookups — and then report back
    /// through [`Catalog::note_compiled`]. [`Catalog::surface`] wraps
    /// the two phases for callers that hold the catalog directly.
    pub fn lease(&mut self, key: &str) -> Result<Lease> {
        let entry = self
            .entries
            .get_mut(key)
            .ok_or_else(|| ServeError::UnknownRelease(key.to_string()))?;
        entry.hits += 1;
        self.lookups += 1;
        if entry.release.surface_is_compiled() {
            let handle = SurfaceHandle {
                surface: entry.release.shared_surface(),
                cache: CacheState::Warm,
                version: entry.version,
            };
            self.warm_hits += 1;
            self.mark_resident(key);
            Ok(Lease::Warm(handle))
        } else {
            Ok(Lease::Cold(ColdLease {
                release: Arc::clone(&entry.release),
                version: entry.version,
            }))
        }
    }

    /// Phase two of a cold lookup: accounts for a surface compiled
    /// outside the lock (resident bytes, LRU order, eviction
    /// pressure).
    ///
    /// No-op when the key was meanwhile removed or re-versioned — the
    /// compiled surface then lives only as long as its leases. When
    /// several lookups raced on the same cold key, the release's
    /// `OnceLock` compiled once and exactly one reporter counts the
    /// compilation (tracked per version, so a warm lease slipping in
    /// between the compile and this report cannot suppress the count).
    pub fn note_compiled(&mut self, key: &str, version: u64) {
        let Some(entry) = self.entries.get_mut(key) else {
            return;
        };
        if entry.version != version || !entry.release.surface_is_compiled() {
            return;
        }
        if entry.counted_version != version {
            entry.counted_version = version;
            self.compilations += 1;
        }
        self.mark_resident(key);
    }

    /// Leases the compiled surface for `key`, compiling inline if it
    /// is not resident — both lookup phases in one call, for callers
    /// that own the catalog directly (no lock to hold open).
    pub fn surface(&mut self, key: &str) -> Result<SurfaceHandle> {
        match self.lease(key)? {
            Lease::Warm(handle) => Ok(handle),
            Lease::Cold(lease) => {
                let handle = lease.compile();
                self.note_compiled(key, handle.version);
                Ok(handle)
            }
        }
    }

    /// Accounts `key`'s resident surface bytes (once per residency),
    /// marks it most recently used and enforces the byte budget.
    fn mark_resident(&mut self, key: &str) {
        if let Some(entry) = self.entries.get_mut(key) {
            if entry.resident_bytes == 0 && entry.release.surface_is_compiled() {
                let bytes = entry.release.shared_surface().memory_bytes();
                entry.resident_bytes = bytes;
                self.resident_bytes += bytes;
            }
        }
        if self.lru.last().map(String::as_str) != Some(key) {
            self.lru.retain(|k| k != key);
            self.lru.push(key.to_string());
        }
        self.enforce_bounds();
    }

    /// Accounts surfaces compiled *out of band* — through the shared
    /// reference [`Catalog::release`] hands out, whose `OnceLock`
    /// compile the catalog cannot intercept — so no code path smuggles
    /// resident bytes past the budget. Collected keys enter the LRU at
    /// the least-recently-used end: the catalog never served a lookup
    /// for them, so they are the first legitimate victims.
    ///
    /// The O(releases) scan runs only when a [`Catalog::release`]
    /// reference actually escaped since the last sweep, so the serving
    /// hot path (pure lease traffic) never pays it. Entries with an
    /// outstanding lease `Arc` (a [`ColdLease`] between compile and
    /// [`Catalog::note_compiled`]) are skipped: that compile is
    /// in-band and its own report will account it as most recently
    /// used.
    fn collect_out_of_band(&mut self) {
        if !self.escaped_release.replace(false) {
            return;
        }
        let resident_bytes = &mut self.resident_bytes;
        let mut collected: Vec<String> = Vec::new();
        for (key, entry) in &mut self.entries {
            if entry.resident_bytes == 0
                && Arc::strong_count(&entry.release) == 1
                && entry.release.surface_is_compiled()
            {
                let bytes = entry.release.shared_surface().memory_bytes();
                entry.resident_bytes = bytes;
                *resident_bytes += bytes;
                collected.push(key.clone());
            }
        }
        collected.retain(|key| !self.lru.contains(key));
        self.lru.splice(0..0, collected);
    }

    /// Evicts least-recently-used surfaces until the byte budget
    /// holds, sparing the most-recently-used key — it
    /// is the surface a live lease is answering through, so evicting
    /// it would free nothing. A victim whose release is mid-compile
    /// elsewhere (its `Arc` is leased) is skipped for the same reason;
    /// deferred victims leave transient overflow, and every caller —
    /// lookups *and* inserts — retries the sweep, so the bounds are
    /// restored by whichever catalog operation comes next.
    fn enforce_bounds(&mut self) {
        self.collect_out_of_band();
        let mut victim = 0;
        while self.resident_bytes > self.budget_bytes && victim + 1 < self.lru.len() {
            let evicted = match self.entries.get_mut(&self.lru[victim]) {
                Some(entry) => match Arc::get_mut(&mut entry.release) {
                    Some(release) => {
                        release.evict_surface();
                        self.resident_bytes -= entry.resident_bytes;
                        entry.resident_bytes = 0;
                        // A later recompile of this same version is new
                        // work; let it count again.
                        entry.counted_version = 0;
                        true
                    }
                    None => false,
                },
                // LRU keys always have entries; stay safe if not.
                None => true,
            };
            if evicted {
                self.lru.remove(victim);
                self.evictions += 1;
            } else {
                victim += 1;
            }
        }
    }

    /// Number of releases held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog holds no releases.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is held.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.entries.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Number of compiled surfaces currently resident.
    pub fn warm_len(&self) -> usize {
        self.lru.len()
    }

    /// The resident-surface byte budget (`usize::MAX` when unbounded).
    pub fn memory_budget(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes of compiled surface currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Sweeps any out-of-band compiles (surfaces filled through
    /// [`Catalog::release`] references) into the byte budget and
    /// enforces the byte budget — without waiting for the next
    /// lookup or insert to do it. Call before reading
    /// [`Catalog::stats`] when the counters must reflect escape-hatch
    /// activity; the query engine does this on every stats read.
    pub fn reconcile(&mut self) {
        self.enforce_bounds();
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CatalogStats {
        CatalogStats {
            releases: self.entries.len(),
            warm: self.lru.len(),
            capacity: usize::MAX,
            budget_bytes: self.budget_bytes,
            resident_bytes: self.resident_bytes,
            lookups: self.lookups,
            warm_hits: self.warm_hits,
            compilations: self.compilations,
            evictions: self.evictions,
        }
    }
}

/// Zero-copy handoff from [`dpgrid_core::Pipeline::publish_into`].
impl ReleaseSink for Catalog {
    fn accept_release(&mut self, key: String, release: Release) {
        self.insert(key, release);
    }

    /// Removes `key` (and de-accounts its resident surface) — the
    /// retention seam compactors evict expired epoch releases through.
    fn evict_release(&mut self, key: &str) -> bool {
        self.remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgrid_core::{Method, Pipeline, Synopsis};
    use dpgrid_geo::generators::PaperDataset;
    use dpgrid_geo::Rect;

    fn release(seed: u64, m: usize) -> Release {
        let ds = PaperDataset::Storage.generate_n(seed, 1_500).unwrap();
        Pipeline::new(&ds)
            .method(Method::ug(m))
            .seed(seed)
            .publish()
            .unwrap()
    }

    /// Resident bytes of one freshly compiled m×m release surface.
    fn surface_bytes(seed: u64, m: usize) -> usize {
        let rel = release(seed, m);
        rel.shared_surface().memory_bytes()
    }

    #[test]
    fn insert_versions_and_lookup() {
        let mut catalog = Catalog::new();
        assert!(catalog.is_empty());
        assert_eq!(catalog.insert("a", release(1, 8)), 1);
        assert_eq!(catalog.insert("b", release(2, 8)), 1);
        assert_eq!(catalog.insert("a", release(3, 8)), 2);
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.keys(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(catalog.version("a"), Some(2));
        assert_eq!(catalog.version("c"), None);
        assert!(matches!(
            catalog.surface("missing"),
            Err(ServeError::UnknownRelease(_))
        ));
    }

    #[test]
    fn warm_surfaces_are_shared_not_recompiled() {
        let mut catalog = Catalog::new();
        catalog.insert("a", release(1, 16));
        let first = catalog.surface("a").unwrap();
        assert_eq!(first.cache, CacheState::Cold);
        let second = catalog.surface("a").unwrap();
        assert_eq!(second.cache, CacheState::Warm);
        assert!(Arc::ptr_eq(&first.surface, &second.surface));
        assert_eq!(catalog.hits("a"), Some(2));
        let stats = catalog.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.compilations, 1);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_bytes, first.surface.memory_bytes());
    }

    #[test]
    fn memory_budget_evicts_lru_first_and_leases_stay_valid() {
        // Budget sized to hold two 8×8 surfaces but not three.
        let one = surface_bytes(1, 8);
        let mut catalog = Catalog::with_memory_budget(one * 2 + one / 2);
        for (key, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
            catalog.insert(key, release(seed, 8));
        }
        let a = catalog.surface("a").unwrap();
        catalog.surface("b").unwrap();
        assert_eq!(catalog.warm_len(), 2);
        // Touch "a" so "b" is the LRU victim when "c" compiles.
        catalog.surface("a").unwrap();
        catalog.surface("c").unwrap();
        assert_eq!(catalog.warm_len(), 2);
        assert_eq!(catalog.stats().evictions, 1);
        assert!(catalog
            .release("b")
            .is_some_and(|r| !r.surface_is_compiled()));
        assert!(catalog
            .release("a")
            .is_some_and(Release::surface_is_compiled));
        // "a" is still resident: a new lookup leases the same index.
        assert!(Arc::ptr_eq(
            &a.surface,
            &catalog.surface("a").unwrap().surface
        ));
        // The evicted key recompiles on next touch (evicting "c", the
        // new LRU victim, in turn); the old lease answers regardless.
        assert_eq!(catalog.surface("b").unwrap().cache, CacheState::Cold);
        assert_eq!(catalog.stats().evictions, 2);
        assert!(catalog
            .release("c")
            .is_some_and(|r| !r.surface_is_compiled()));
        let q = Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap();
        assert!(a.surface.answer(&q).is_finite());
    }

    #[test]
    fn memory_budget_bounds_resident_bytes() {
        // Budget sized to hold two 8×8 surfaces but not three.
        let one = surface_bytes(1, 8);
        let budget = one * 2 + one / 2;
        let mut catalog = Catalog::with_memory_budget(budget);
        for (key, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
            catalog.insert(key, release(seed, 8));
        }
        for key in ["a", "b", "c", "a", "c", "b"] {
            catalog.surface(key).unwrap();
            let stats = catalog.stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
        }
        assert!(catalog.stats().evictions >= 2, "budget had to evict");
        assert_eq!(catalog.memory_budget(), budget);
        // Evicted keys recompile on demand and answer identically.
        let q = Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap();
        let direct = catalog.release("a").unwrap().answer_linear_scan(&q);
        let served = catalog.surface("a").unwrap().surface.answer(&q);
        assert!((served - direct).abs() <= 1e-9 * (1.0 + direct.abs()));
    }

    #[test]
    fn oversized_surface_stays_resident_alone() {
        // One surface larger than the whole budget: the MRU exemption
        // keeps it resident (evicting it frees nothing — the lease
        // holds the Arc), but everything else is evicted around it.
        let mut catalog = Catalog::with_memory_budget(1);
        catalog.insert("big", release(1, 16));
        catalog.insert("small", release(2, 8));
        catalog.surface("small").unwrap();
        catalog.surface("big").unwrap();
        assert_eq!(catalog.warm_len(), 1);
        assert!(catalog
            .release("big")
            .is_some_and(Release::surface_is_compiled));
        assert!(catalog
            .release("small")
            .is_some_and(|r| !r.surface_is_compiled()));
    }

    #[test]
    fn out_of_band_compiles_are_collected_into_the_budget() {
        // `Catalog::release` hands out a shared reference whose
        // `OnceLock` compile the catalog cannot see happen; the next
        // catalog operation must collect those surfaces into the
        // budget instead of letting them stay resident unaccounted.
        let one = surface_bytes(1, 8);
        let budget = one * 2 + one / 2;
        let mut catalog = Catalog::with_memory_budget(budget);
        for (key, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
            catalog.insert(key, release(seed, 8));
        }
        let q = Rect::new(-100.0, 20.0, -90.0, 30.0).unwrap();
        for key in ["a", "b", "c"] {
            catalog.release(key).unwrap().answer(&q);
        }
        // Any budget-relevant operation sweeps the smuggled surfaces
        // in and enforces the bound.
        catalog.surface("c").unwrap();
        let stats = catalog.stats();
        assert!(
            stats.resident_bytes <= budget,
            "resident {} exceeds budget {budget}",
            stats.resident_bytes
        );
        assert!(stats.evictions >= 1, "collection had to evict");
        // The never-leased keys were the victims, not the one the
        // catalog actually served.
        assert!(catalog
            .release("c")
            .is_some_and(Release::surface_is_compiled));
    }

    #[test]
    fn precompiled_inserts_count_against_the_budget() {
        // A release can arrive already compiled (clones share their
        // surface); the budget must account for it at insert time, not
        // let it bypass the bound until first lookup.
        let one = surface_bytes(1, 8);
        let mut catalog = Catalog::with_memory_budget(one * 2 + one / 2);
        for (key, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
            let rel = release(seed, 8);
            rel.answer(&Rect::new(-100.0, 20.0, -90.0, 30.0).unwrap());
            assert!(rel.surface_is_compiled());
            catalog.insert(key, rel);
        }
        assert_eq!(catalog.warm_len(), 2, "budget enforced at insert");
        assert_eq!(catalog.stats().evictions, 1);
        assert!(catalog
            .release("a")
            .is_some_and(|r| !r.surface_is_compiled()));
        // The registered surfaces really are warm on first lookup.
        assert_eq!(catalog.surface("c").unwrap().cache, CacheState::Warm);
        assert_eq!(catalog.surface("a").unwrap().cache, CacheState::Cold);
    }

    #[test]
    fn two_phase_lease_compiles_outside_and_reports_back() {
        let mut catalog = Catalog::new();
        catalog.insert("a", release(1, 16));
        let Lease::Cold(cold) = catalog.lease("a").unwrap() else {
            panic!("first lookup must be cold");
        };
        // Nothing resident until the compile is reported back.
        assert_eq!(catalog.warm_len(), 0);
        assert_eq!(catalog.resident_bytes(), 0);
        let handle = cold.compile();
        assert_eq!(handle.cache, CacheState::Cold);
        assert_eq!(handle.version, 1);
        catalog.note_compiled("a", handle.version);
        assert_eq!(catalog.warm_len(), 1);
        assert_eq!(catalog.resident_bytes(), handle.surface.memory_bytes());
        assert_eq!(catalog.stats().compilations, 1);
        // A racing second reporter does not double-count.
        catalog.note_compiled("a", handle.version);
        assert_eq!(catalog.stats().compilations, 1);
        assert_eq!(catalog.resident_bytes(), handle.surface.memory_bytes());
        assert!(matches!(catalog.lease("a").unwrap(), Lease::Warm(_)));
        // A stale report (key re-versioned meanwhile) is a no-op.
        catalog.insert("a", release(9, 16));
        catalog.note_compiled("a", handle.version);
        assert_eq!(catalog.warm_len(), 0);
        assert_eq!(catalog.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_drops_stale_surface_and_bumps_version() {
        let mut catalog = Catalog::new();
        catalog.insert("a", release(1, 8));
        let v1 = catalog.surface("a").unwrap();
        assert_eq!(v1.version, 1);
        catalog.insert("a", release(9, 8));
        assert_eq!(catalog.resident_bytes(), 0, "stale surface deaccounted");
        let v2 = catalog.surface("a").unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(v2.cache, CacheState::Cold);
        assert!(!Arc::ptr_eq(&v1.surface, &v2.surface));
        // Per-key hit counters reset with the new version.
        assert_eq!(catalog.hits("a"), Some(1));
    }

    #[test]
    fn remove_deaccounts_resident_bytes() {
        let mut catalog = Catalog::new();
        catalog.insert("a", release(1, 8));
        catalog.insert("b", release(2, 8));
        catalog.surface("a").unwrap();
        catalog.surface("b").unwrap();
        let before = catalog.resident_bytes();
        let removed = catalog.remove("a").unwrap();
        assert!(removed.surface_is_compiled());
        assert!(catalog.resident_bytes() < before);
        assert_eq!(catalog.warm_len(), 1);
        assert!(catalog.remove("a").is_none());
    }

    #[test]
    fn publish_into_lands_in_catalog() {
        let ds = PaperDataset::Storage.generate_n(7, 1_500).unwrap();
        let mut catalog = Catalog::new();
        Pipeline::new(&ds)
            .method(Method::ug(8))
            .seed(7)
            .publish_into(&mut catalog, "storage")
            .unwrap();
        assert!(catalog.contains("storage"));
        assert_eq!(catalog.version("storage"), Some(1));
        let handle = catalog.surface("storage").unwrap();
        let q = Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap();
        let direct = catalog.release("storage").unwrap().answer(&q);
        assert_eq!(handle.surface.answer(&q), direct);
    }

    #[test]
    fn load_dir_roundtrips_releases() {
        let dir = std::env::temp_dir().join("dpgrid_catalog_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rel_a = release(1, 8);
        let rel_b = release(2, 16);
        rel_a.save(dir.join("alpha.json")).unwrap();
        rel_b.save(dir.join("beta.json")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let mut catalog = Catalog::from_dir(&dir).unwrap();
        assert_eq!(
            catalog.keys(),
            vec!["alpha".to_string(), "beta".to_string()]
        );
        let q = Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap();
        let handle = catalog.surface("alpha").unwrap();
        assert!((handle.surface.answer(&q) - rel_a.answer(&q)).abs() <= 1e-9);

        // A malformed file fails the load loudly — and the error names
        // the offending path, not just the serde failure.
        std::fs::write(dir.join("zz_bad.json"), "{not json").unwrap();
        let err = Catalog::from_dir(&dir).unwrap_err();
        assert!(matches!(err, ServeError::Load { ref path, .. } if path.ends_with("zz_bad.json")));
        assert!(
            err.to_string().contains("zz_bad.json"),
            "message must name the file: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
