//! The trace recorder: an in-memory span store, the wrappers that time
//! each layer from outside through dpgrid's public seams, and the
//! self-time computation.
//!
//! A span is a name, a start, an end, its parent and a request id. The
//! benchmark opens a *root* span around every request it makes; spans
//! opened on the same thread nest under the innermost open span, and a
//! span opened on another thread (a server worker answering the
//! request) hangs under the current root. That is sound because client
//! and server share this process and only one request or train is in
//! flight at a time: the client publishes the root and its request id
//! in shared atomics, and the service wrapper reads them from there.
//!
//! Recording is off unless [`set_enabled`] turned it on; while off,
//! every wrapper only forwards its call.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dpgrid_core::{Release, ReleaseSink};
use dpgrid_serve::{
    resolve_window_via_keys, EngineStats, QueryEngine, QueryRequest, QueryResponse, QueryService,
    ReportAck, ReportBatch, ReportPayload, ReportService, WindowAnswer, WindowQuery,
};

/// Index value meaning "no span".
const NONE: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ROOT: AtomicU32 = AtomicU32::new(NONE);
static REQUEST: AtomicU64 = AtomicU64::new(0);
static CLOCK: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now() -> u64 {
    CLOCK.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    CLOCK.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// An open span; closing it (drop) stamps its end.
pub struct Guard {
    index: u32,
    root: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now();
        // A poisoned store only loses this span's end; never panic here.
        if let Ok(mut spans) = SPANS.lock() {
            spans[self.index as usize].end = end;
        }
        OPEN.with(|open| open.borrow_mut().pop());
        if self.root {
            ROOT.store(NONE, Ordering::SeqCst);
        }
    }
}

fn open(name: &'static str, parent: u32, root: bool) -> Guard {
    let start = now();
    let request = REQUEST.load(Ordering::SeqCst);
    let index = {
        let mut spans = SPANS.lock().expect("span store");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (spans.len() - 1) as u32
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard { index, root }
}

/// Opens the root span of one request, publishing its id and index for
/// spans opened on other threads. `None` while recording is off.
pub fn root(name: &'static str, request: u64) -> Option<Guard> {
    if !ENABLED.load(Ordering::SeqCst) {
        return None;
    }
    REQUEST.store(request, Ordering::SeqCst);
    let guard = open(name, NONE, true);
    ROOT.store(guard.index, Ordering::SeqCst);
    Some(guard)
}

/// Opens a span under the innermost open span of this thread, or under
/// the current root. `None` while recording is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !ENABLED.load(Ordering::SeqCst) {
        return None;
    }
    let parent = OPEN
        .with(|open| open.borrow().last().copied())
        .unwrap_or_else(|| ROOT.load(Ordering::SeqCst));
    Some(open(name, parent, false))
}

/// Takes every recorded span out of the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store"))
}

/// Writes spans as tab-separated lines: index, name, start, end,
/// parent (-1 for none), request.
pub fn dump(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.request
        )?;
    }
    out.flush()
}

/// Recorded spans with their child lists, for self-time queries.
pub struct Tree {
    pub spans: Vec<Span>,
    children: Vec<Vec<u32>>,
}

impl Tree {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.parent != NONE {
                children[s.parent as usize].push(i as u32);
            }
        }
        Tree { spans, children }
    }

    /// Indices of the spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(i, _)| i)
    }

    /// Durations of the spans called `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|i| self.spans[i].duration() as f64)
            .collect()
    }

    pub fn has_children(&self, i: usize) -> bool {
        !self.children[i].is_empty()
    }

    /// Part of span `i` that its children cover, ns (overlapping
    /// children counted once, clipped to the parent).
    pub fn children_ns(&self, i: usize) -> u64 {
        let parent = &self.spans[i];
        let mut intervals: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| {
                let s = &self.spans[c as usize];
                (s.start.max(parent.start), s.end.min(parent.end))
            })
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        covered
    }

    /// Span duration minus the part its children cover, ns.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].duration().saturating_sub(self.children_ns(i))
    }
}

/// The read and report path as dpgrid's transport sees it: forwards
/// every call to `inner`, recording one span per call.
pub struct TracedService<S> {
    inner: S,
}

impl<S> TracedService<S> {
    pub fn new(inner: S) -> Self {
        TracedService { inner }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: QueryService> QueryService for TracedService<S> {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<dpgrid_serve::Result<QueryResponse>> {
        let _span = span("serve.answer_batch");
        self.inner.answer_batch(requests)
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn keys(&self) -> Vec<String> {
        let _span = span("serve.keys");
        self.inner.keys()
    }

    /// Runs the default window resolution against this wrapper, so the
    /// `keys` and `answer_batch` calls a window makes show up as child
    /// spans. That is the path every service here takes: neither
    /// `QueryEngine` nor `CollectingService` (which forwards to its
    /// engine) overrides `window`.
    fn window(&self, query: &WindowQuery) -> dpgrid_serve::Result<WindowAnswer> {
        let _span = span("serve.window");
        resolve_window_via_keys(self, query)
    }

    fn reports(&self) -> Option<&dyn ReportService> {
        self.inner.reports().map(|_| self as &dyn ReportService)
    }
}

impl<S: QueryService> ReportService for TracedService<S> {
    fn submit_reports(&self, batch: &ReportBatch) -> dpgrid_serve::Result<ReportAck> {
        let _span = span(match batch.payload {
            ReportPayload::Grr(_) => "ldp.submit.grr",
            ReportPayload::Oue { .. } => "ldp.submit.oue",
        });
        self.inner
            .reports()
            .expect("reports() is Some only when the inner service has a write path")
            .submit_reports(batch)
    }
}

/// The publish seam into a serving engine, timed: the same calls
/// `QueryEngine`'s own `ReleaseSink` impl makes, through `&self`.
pub struct TracedSink<'a> {
    pub engine: &'a QueryEngine,
}

impl ReleaseSink for TracedSink<'_> {
    fn accept_release(&mut self, key: String, release: Release) {
        let _span = span("serve.catalog.insert");
        self.engine.insert(key, release);
    }

    fn evict_release(&mut self, key: &str) -> bool {
        let _span = span("serve.catalog.evict");
        self.engine
            .with_catalog(|catalog| catalog.remove(key).is_some())
    }
}
