//! The release-format traits: [`Synopsis`] (query a published
//! decomposition) and [`Build`] (construct one under a privacy budget).
//!
//! These two traits are the seam every crate in the workspace plugs
//! into: `dpgrid-core` and `dpgrid-baselines` implement them for their
//! synopsis types, `dpgrid-core`'s method registry erases them behind
//! `Box<dyn Synopsis>`, and the evaluation harness and serving surface
//! consume them without knowing the producing method. They live in the
//! substrate crate so that implementors only need `dpgrid-geo` (and the
//! mechanisms), not each other.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rand::Rng;

use crate::{Domain, DpError, GeoDataset, Rect};

/// Minimum batch size per worker thread before
/// [`answer_all_batched`] (and therefore the default
/// [`Synopsis::answer_all`]) fans out; below this the spawn overhead
/// outweighs the per-query work. A batch shorter than twice this is
/// answered inline on the calling thread whatever the host offers.
pub const MIN_QUERIES_PER_THREAD: usize = 256;

/// The host's parallelism (at least 1), read once per process.
///
/// [`std::thread::available_parallelism`] re-reads the process's CPU
/// affinity and cgroup quota on every call, which costs tens of
/// microseconds — more than answering a whole 64-rect batch. Every
/// thread fan-out in the workspace sizes itself through this cached
/// read instead. The price: affinity or cgroup changes made after the
/// first call are not seen by this process.
#[allow(clippy::disallowed_methods)] // The one sanctioned probe; see clippy.toml.
pub fn available_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A differentially private synopsis of a two-dimensional dataset.
///
/// Per §II-B of the paper, a synopsis is a partition of the domain into
/// cells plus a noisy count for each cell. It supports rectangle count
/// queries: fully covered cells contribute their whole noisy count,
/// partially covered cells contribute proportionally to the overlapped
/// area (the *uniformity assumption*).
///
/// Everything reachable through this trait is safe to publish: the
/// implementations only store noisy (ε-differentially-private) values,
/// never the raw data.
///
/// `Sync` is a supertrait so that synopses can be queried from many
/// threads at once: the default [`Synopsis::answer_all`] chunks large
/// batches across scoped threads, and the evaluation runner shares
/// synopses across its method threads the same way.
pub trait Synopsis: Sync {
    /// The domain the synopsis covers.
    fn domain(&self) -> &Domain;

    /// Total privacy budget ε consumed building the synopsis.
    fn epsilon(&self) -> f64;

    /// Estimated number of points inside `query`.
    ///
    /// Queries are clipped to the domain; a query that misses the domain
    /// answers `0`. Estimates can be negative because cell counts are
    /// noisy — callers that need non-negative answers may clamp.
    fn answer(&self, query: &Rect) -> f64;

    /// The synopsis's leaf cells and their (post-processed) noisy counts.
    ///
    /// The rectangles partition the domain. Used for synthetic-data
    /// regeneration, for serialising releases, and as the input of
    /// compiled-surface construction (`dpgrid_core::CompiledSurface`).
    ///
    /// **Allocates a fresh `Vec` on every call** — never call it on the
    /// per-query hot path. Implementations that hold their cells should
    /// override [`Synopsis::total_estimate`] (and any similar
    /// aggregate) to read the stored cells directly instead of going
    /// through this method.
    fn cells(&self) -> Vec<(Rect, f64)>;

    /// Answers a batch of queries.
    ///
    /// The default implementation evaluates [`Synopsis::answer`] per
    /// query, chunking the batch across `std::thread::scope` threads
    /// once it is large enough to amortise the spawns (mirroring the
    /// evaluation runner's method-level parallelism). Implementations
    /// with a cheaper batch path — e.g. `dpgrid_core::Release`, which
    /// answers through its compiled surface — may override.
    fn answer_all(&self, queries: &[Rect]) -> Vec<f64> {
        answer_all_batched(queries, |q| self.answer(q))
    }

    /// Sum of all leaf-cell counts — the synopsis's estimate of the
    /// dataset cardinality.
    ///
    /// The default goes through [`Synopsis::cells`] and therefore
    /// allocates; implementations that store their cells (or a prefix
    /// sum) should override with a direct read.
    fn total_estimate(&self) -> f64 {
        self.cells().iter().map(|(_, v)| v).sum()
    }
}

/// A synopsis type that can be constructed from a dataset under a
/// privacy budget: the uniform construction seam of the workspace.
///
/// Every method — UG, AG, the baselines — exposes the same shape:
/// a configuration type carrying ε plus the method's distinguishing
/// parameters, and a build function spending that budget over a
/// dataset with caller-supplied randomness. The per-type inherent
/// `build` functions are thin delegations to this trait, and
/// `dpgrid_core::Method::build_boxed` erases it into a boxed
/// [`Synopsis`] for registry-driven construction.
pub trait Build: Synopsis + Sized {
    /// Method configuration: ε plus the method's parameters.
    type Config;

    /// Builds the synopsis, consuming the configured privacy budget.
    ///
    /// Determinism contract: the same dataset, configuration and RNG
    /// state must produce an identical synopsis, so that seeded
    /// publishes are reproducible.
    fn build(
        dataset: &GeoDataset,
        config: &Self::Config,
        rng: &mut impl Rng,
    ) -> Result<Self, DpError>;
}

/// Object-safe helpers for boxed synopses. `answer_all` and
/// `total_estimate` forward too, so implementation overrides (like
/// `dpgrid_core::Release`'s surface-backed batch path) survive
/// indirection.
impl<S: Synopsis + ?Sized> Synopsis for &S {
    fn domain(&self) -> &Domain {
        (**self).domain()
    }
    fn epsilon(&self) -> f64 {
        (**self).epsilon()
    }
    fn answer(&self, query: &Rect) -> f64 {
        (**self).answer(query)
    }
    fn cells(&self) -> Vec<(Rect, f64)> {
        (**self).cells()
    }
    fn answer_all(&self, queries: &[Rect]) -> Vec<f64> {
        (**self).answer_all(queries)
    }
    fn total_estimate(&self) -> f64 {
        (**self).total_estimate()
    }
}

impl<S: Synopsis + ?Sized> Synopsis for Box<S> {
    fn domain(&self) -> &Domain {
        (**self).domain()
    }
    fn epsilon(&self) -> f64 {
        (**self).epsilon()
    }
    fn answer(&self, query: &Rect) -> f64 {
        (**self).answer(query)
    }
    fn cells(&self) -> Vec<(Rect, f64)> {
        (**self).cells()
    }
    fn answer_all(&self, queries: &[Rect]) -> Vec<f64> {
        (**self).answer_all(queries)
    }
    fn total_estimate(&self) -> f64 {
        (**self).total_estimate()
    }
}

/// Count of batched fan-outs currently inside their thread scope.
/// Callers like the evaluation runner already parallelise one level up
/// (a thread per method); dividing the worker budget by the number of
/// concurrently active fan-outs keeps the total CPU-bound thread count
/// near [`available_parallelism`] instead of multiplying the two levels.
/// Batches too small to fan out are answered inline and never counted,
/// so they cannot narrow a large batch running beside them.
static ACTIVE_FANOUTS: AtomicUsize = AtomicUsize::new(0);

/// Shared batched-answering driver: evaluates `answer` over `queries`,
/// fanning out across `std::thread::scope` when the batch holds at
/// least two [`MIN_QUERIES_PER_THREAD`] chunks (mirroring
/// `dpgrid-eval`'s runner, which parallelises at the method level the
/// same way). The width is [`available_parallelism`] — read once per
/// process — divided among the fan-outs active at the same time.
pub fn answer_all_batched<F>(queries: &[Rect], answer: F) -> Vec<f64>
where
    F: Fn(&Rect) -> f64 + Sync,
{
    let max_workers = queries.len() / MIN_QUERIES_PER_THREAD;
    if max_workers <= 1 {
        return queries.iter().map(&answer).collect();
    }
    // Drop guard so every exit path (including a panicking answer
    // closure) releases this call's slot in the counter.
    struct FanoutGuard;
    impl Drop for FanoutGuard {
        fn drop(&mut self) {
            ACTIVE_FANOUTS.fetch_sub(1, Ordering::Relaxed);
        }
    }
    // Increment BEFORE reading the concurrency level: simultaneous
    // callers (the eval runner's method threads) must see each other,
    // which a load-then-add would miss.
    let concurrent = ACTIVE_FANOUTS.fetch_add(1, Ordering::Relaxed) + 1;
    let _guard = FanoutGuard;
    let workers = (available_parallelism() / concurrent).min(max_workers);
    answer_all_with_workers(queries, answer, workers)
}

/// The worker-count-explicit core of [`answer_all_batched`], public so
/// callers that manage their own thread budget (and tests exercising
/// the scoped-thread path on any machine) can pin the fan-out width.
pub fn answer_all_with_workers<F>(queries: &[Rect], answer: F, workers: usize) -> Vec<f64>
where
    F: Fn(&Rect) -> f64 + Sync,
{
    if workers <= 1 {
        return queries.iter().map(&answer).collect();
    }
    let chunk = queries.len().div_ceil(workers);
    let mut out = vec![0.0; queries.len()];
    std::thread::scope(|scope| {
        for (q_chunk, out_chunk) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let answer = &answer;
            scope.spawn(move || {
                for (q, slot) in q_chunk.iter().zip(out_chunk) {
                    *slot = answer(q);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    /// Minimal synopsis for exercising the provided methods: one cell
    /// holding a fixed count.
    struct OneCell {
        domain: Domain,
        count: f64,
    }

    impl Synopsis for OneCell {
        fn domain(&self) -> &Domain {
            &self.domain
        }
        fn epsilon(&self) -> f64 {
            1.0
        }
        fn answer(&self, query: &Rect) -> f64 {
            self.count * self.domain.coverage(query)
        }
        fn cells(&self) -> Vec<(Rect, f64)> {
            vec![(*self.domain.rect(), self.count)]
        }
    }

    #[test]
    fn provided_methods_work() {
        let s = OneCell {
            domain: Domain::from_corners(0.0, 0.0, 2.0, 2.0).unwrap(),
            count: 8.0,
        };
        assert_eq!(s.total_estimate(), 8.0);
        let qs = [
            Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
            Rect::new(0.0, 0.0, 2.0, 2.0).unwrap(),
        ];
        let answers = s.answer_all(&qs);
        assert_eq!(answers, vec![2.0, 8.0]);
    }

    #[test]
    fn trait_objects_and_references_delegate() {
        let s = OneCell {
            domain: Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap(),
            count: 4.0,
        };
        let by_ref: &dyn Synopsis = &s;
        assert_eq!(by_ref.total_estimate(), 4.0);
        let boxed: Box<dyn Synopsis> = Box::new(s);
        assert_eq!(boxed.epsilon(), 1.0);
        assert_eq!(boxed.cells().len(), 1);
    }

    #[test]
    fn threaded_fanout_matches_sequential() {
        let s = OneCell {
            domain: Domain::from_corners(0.0, 0.0, 4.0, 4.0).unwrap(),
            count: 16.0,
        };
        let queries: Vec<Rect> = (0..1001)
            .map(|i| {
                let x = (i % 16) as f64 * 0.25;
                let y = (i % 13) as f64 * 0.25;
                Rect::new(x, y, x + 0.5, y + 0.5).unwrap()
            })
            .collect();
        let sequential: Vec<f64> = queries.iter().map(|q| s.answer(q)).collect();
        let threaded = answer_all_with_workers(&queries, |q| s.answer(q), 3);
        assert_eq!(threaded, sequential);
    }

    #[test]
    fn batches_too_small_to_fan_out_are_not_counted_as_fanouts() {
        // No other test here sends 2 * MIN_QUERIES_PER_THREAD queries
        // through the driver, so nothing else can hold a slot.
        let queries: Vec<Rect> = (0..64)
            .map(|i| {
                let x = (i % 8) as f64 * 0.25;
                Rect::new(x, 0.0, x + 0.5, 0.5).unwrap()
            })
            .collect();
        let seen = answer_all_batched(&queries, |_| ACTIVE_FANOUTS.load(Ordering::Relaxed) as f64);
        assert_eq!(seen, vec![0.0; queries.len()]);
    }
}
