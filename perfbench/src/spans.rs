//! In-memory span recording for the traced runs.
//!
//! A span is one timed call into a layer: its name, the name of the span
//! that caused it (or none for a root), its start and end in nanoseconds
//! since the recorder was created, and the id it shares with every other
//! span of the same reference (simulator) or batch (service). Spans stay
//! in memory while the workload runs; [`Spans::write_csv`] writes them out
//! once at exit, and [`Spans::total`] folds them into per-name totals.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Marker for a root span's parent.
const ROOT: u16 = u16::MAX;

#[derive(Clone, Copy)]
struct Span {
    id: u64,
    name: u16,
    parent: u16,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over all recorded spans.
#[derive(Clone, Copy, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
}

impl NameTotal {
    /// Mean nanoseconds per span, 0 when none were recorded.
    pub fn mean_ns(&self) -> f64 {
        crate::report::ratio(self.total_ns as f64, self.count as f64)
    }
}

/// A copyable handle on a recorder's time origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The span store of one traced run.
pub struct Spans {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Measured cost of one [`Spans::now`] call, in nanoseconds.
    clock_ns: f64,
}

impl Spans {
    pub fn new() -> Self {
        let mut spans =
            Spans { origin: Instant::now(), names: Vec::new(), spans: Vec::new(), clock_ns: 0.0 };
        const READS: u64 = 100_000;
        let t0 = spans.now();
        let mut last = t0;
        for _ in 0..READS {
            last = std::hint::black_box(spans.now());
        }
        spans.clock_ns = (last - t0) as f64 / READS as f64;
        spans
    }

    /// Measured cost of one clock read, in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock().now()
    }

    /// The recorder's clock, for timing while the store is borrowed.
    pub fn clock(&self) -> Clock {
        Clock(self.origin)
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Record a span named `name`, caused by the span named `parent`
    /// (`None` for a root), sharing `id` with its reference or batch.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let name = self.intern(name);
        let parent = parent.map_or(ROOT, |p| self.intern(p));
        self.spans.push(Span { id, name, parent, start_ns, end_ns });
    }

    /// Totals for spans named `name`.
    pub fn total(&self, name: &str) -> NameTotal {
        let mut t = NameTotal::default();
        if let Some(idx) = self.names.iter().position(|n| *n == name) {
            for s in self.spans.iter().filter(|s| s.name as usize == idx) {
                t.count += 1;
                t.total_ns += s.end_ns - s.start_ns;
            }
        }
        t
    }

    /// Share of the time in root spans named `root` that no child span
    /// covers. Children of one root run one after another, never
    /// overlapping, so covered time is the sum of their durations; each
    /// child also costs the root one clock read between spans, which is
    /// counted as covered (it is the recorder's time, not the program's).
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let Some(idx) = self.names.iter().position(|n| *n == root) else { return 0.0 };
        let idx = idx as u16;
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        let mut children = 0u64;
        for s in &self.spans {
            if s.name == idx && s.parent == ROOT {
                root_ns += s.end_ns - s.start_ns;
            } else if s.parent == idx {
                child_ns += s.end_ns - s.start_ns;
                children += 1;
            }
        }
        let covered = child_ns as f64 + children as f64 * self.clock_ns;
        crate::report::ratio((root_ns as f64 - covered).max(0.0), root_ns as f64)
    }

    /// Write every span as `id,name,parent,start_ns,end_ns` CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "id,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT { "" } else { self.names[s.parent as usize] };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.id, self.names[s.name as usize], parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
