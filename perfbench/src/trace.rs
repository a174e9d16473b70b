//! The traced run's instruments: an in-memory span recorder placed around
//! the benchmark's calls into each layer's public functions, and a
//! counting global allocator.
//!
//! Spans are kept in memory and written out when the run ends. Every op
//! has one `op` root span whose children are the public calls the op
//! makes; per-program layer probes hang off a separate `probe` root with
//! the same op id, so they never inflate the op's own time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function`, or a root name (`op`, `probe`, `setup`).
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

/// The span recorder. When off, `begin`/`end` do nothing, so the timed
/// and traced runs execute the same op code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    stack: Vec<u32>,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id of subsequently opened spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id` (which must be the innermost open span).
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Writes every span as one tab-separated line
    /// (`op id parent name start_ns end_ns`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{}\t{i}\t{parent}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }

    /// Per-name totals split by root: `(root name, span name) → (µs
    /// total, self µs total, count)`. A span's self time is its duration
    /// minus the time its direct children cover.
    #[must_use]
    pub fn ledger(&self) -> BTreeMap<(&'static str, &'static str), (f64, f64, u64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.us();
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), (f64, f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p as usize;
            }
            let e = out.entry((self.spans[root].name, s.name)).or_default();
            e.0 += s.us();
            e.1 += s.us() - child_us[i];
            e.2 += 1;
        }
        out
    }
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Whether [`CountingAlloc`] counts. Only traced runs turn it on, so the
/// timed runs' allocations skip the thread-local write.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on (traced runs) or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) made by the calling thread
/// while counting was on.
#[must_use]
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting allocation calls per thread while
/// [`count_allocs`] has it on. Counting per thread keeps a measured
/// call's count exact even while other threads allocate.
pub struct CountingAlloc;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only during thread teardown, when nothing we
        // measure runs.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
