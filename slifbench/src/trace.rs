//! The traced run's machinery: a span recorder kept in memory and a
//! counting global allocator.
//!
//! Spans are recorded by the benchmark around each call into a layer.
//! A span's self time (and self allocations) is its own minus what its
//! child spans cover. Allocations are counted process-wide, so work a
//! server thread does while the client waits inside a span is charged
//! to that span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Passes every call to the system allocator; while counting is on,
/// also counts allocations and their bytes (a `realloc` counts as one
/// allocation of its new size).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn alloc_totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// A closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<u32>,
    start: u64,
    end: u64,
    allocs: u64,
    bytes: u64,
}

/// An open span's token; close it with [`Recorder::close`].
#[must_use]
#[derive(Debug)]
pub struct Open {
    index: u32,
}

/// Records spans in memory. When off, every call is a no-op.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    /// Open spans: index into `spans`, allocation totals at open.
    stack: Vec<(u32, u64, u64)>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            op: 0,
            // Reserved up front so span pushes rarely allocate mid-op.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    /// Sets the op id later spans carry.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its name is given when it closes.
    pub fn open(&mut self) -> Open {
        if !self.on {
            return Open { index: u32::MAX };
        }
        let index = self.spans.len() as u32;
        let (allocs, bytes) = alloc_totals();
        self.spans.push(Span {
            name: "",
            op: self.op,
            parent: self.stack.last().map(|s| s.0),
            start: self.now(),
            end: 0,
            allocs: 0,
            bytes: 0,
        });
        self.stack.push((index, allocs, bytes));
        Open { index }
    }

    /// Closes the innermost open span under `name`.
    pub fn close(&mut self, open: Open, name: &'static str) {
        if !self.on {
            return;
        }
        let end = self.now();
        let (index, a0, b0) = self.stack.pop().expect("span closed without open");
        assert_eq!(index, open.index, "spans must close innermost first");
        let (a1, b1) = alloc_totals();
        let span = &mut self.spans[index as usize];
        span.name = name;
        span.end = end;
        span.allocs = a1 - a0;
        span.bytes = b1 - b0;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name);
        out
    }

    /// Per op, per span name: summed self time (ns), self allocations
    /// and self bytes; plus each op's covered time (top-level spans).
    pub fn self_totals(&self) -> BTreeMap<u32, OpSpans> {
        let mut child: Vec<(u64, u64, u64)> = vec![(0, 0, 0); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let c = &mut child[p as usize];
                c.0 += s.end - s.start;
                c.1 += s.allocs;
                c.2 += s.bytes;
            }
        }
        let mut out: BTreeMap<u32, OpSpans> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let op = out.entry(s.op).or_default();
            let e = op.by_name.entry(s.name).or_default();
            e.0 += (s.end - s.start) - c.0;
            e.1 += s.allocs.saturating_sub(c.1);
            e.2 += s.bytes.saturating_sub(c.2);
            if s.parent.is_none() {
                op.covered_ns += s.end - s.start;
            }
        }
        out
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tparent\tstart_ns\tend_ns\tallocs\tbytes")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start, s.end, s.allocs, s.bytes
            )?;
        }
        w.flush()
    }
}

/// One op's spans, reduced.
#[derive(Debug, Default, Clone)]
pub struct OpSpans {
    /// name → (self ns, self allocs, self bytes)
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Time covered by the op's top-level spans.
    pub covered_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.set_op(3);
        let outer = r.open();
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        r.close(outer, "outer");
        let totals = r.self_totals();
        let op = &totals[&3];
        let (outer_ns, inner_ns) = (op.by_name["outer"].0, op.by_name["inner"].0);
        assert!(inner_ns >= 4_000_000, "{inner_ns}");
        assert!(outer_ns >= 2_000_000, "{outer_ns}");
        assert_eq!(op.covered_ns, outer_ns + inner_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false);
        r.span("x", || ());
        assert!(r.self_totals().is_empty());
    }
}
