//! The traced run's span ledger.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions — nothing inside the program is
//! instrumented. Spans live in memory until the run ends, then fold into
//! self time per layer: a span's duration minus the part covered by its
//! child spans on the same thread.
//!
//! A disabled ledger hands out inert guards and never reads the clock, so
//! the untraced run pays one branch per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are attributed to: the repository's crates, plus
/// `bench` for the benchmark's own driving code.
pub const LAYERS: [&str; 10] = [
    "bench", "serve", "graph", "models", "kernels", "nn", "core", "distrib", "trace", "gpusim",
];

#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    thread: u64,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store shared by every thread of one run.
pub struct Ledger {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    live: Option<(&'a Ledger, u64, Option<u64>, &'static str, u64)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((ledger, id, parent, layer, start_ns)) = self.live.take() {
            let end_ns = ledger.now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            let rec = SpanRec {
                id,
                parent,
                thread: THREAD_ID.with(|t| *t),
                layer,
                start_ns,
                end_ns,
            };
            ledger
                .spans
                .lock()
                .expect("ledger lock poisoned by a panicking span")
                .push(rec);
        }
    }
}

/// Self time per layer and how much of the main thread's wall time the
/// spans cover.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    pub self_ms: BTreeMap<&'static str, f64>,
    pub unattributed_frac: f64,
}

impl Ledger {
    pub fn new(enabled: bool) -> Self {
        Ledger {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span attributed to `layer`, nested under the innermost open
    /// span of the calling thread.
    pub fn span(&self, layer: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { live: None };
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            live: Some((self, id, parent, layer, self.now_ns())),
        }
    }

    /// Folds the recorded spans. `main_wall_ms` is the wall time of the
    /// traced section on the calling (main) thread; root spans of that
    /// thread count toward coverage.
    pub fn fold(&self, main_wall_ms: f64) -> Fold {
        let spans = self
            .spans
            .lock()
            .expect("ledger lock poisoned by a panicking span");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let main_thread = THREAD_ID.with(|t| *t);
        let mut fold = Fold::default();
        for layer in LAYERS {
            fold.self_ms.insert(layer, 0.0);
        }
        let mut covered_ns = 0u64;
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *fold.self_ms.entry(s.layer).or_default() += own as f64 / 1e6;
            if s.parent.is_none() && s.thread == main_thread {
                covered_ns += dur;
            }
        }
        fold.unattributed_frac = if main_wall_ms > 0.0 {
            (1.0 - covered_ns as f64 / 1e6 / main_wall_ms).max(0.0)
        } else {
            0.0
        };
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_roots() {
        let ledger = Ledger::new(true);
        let t0 = Instant::now();
        {
            let _outer = ledger.span("core");
            std::thread::sleep(std::time::Duration::from_millis(4));
            let _inner = ledger.span("kernels");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let fold = ledger.fold(wall_ms);
        let core = fold.self_ms["core"];
        let kernels = fold.self_ms["kernels"];
        assert!(
            core >= 3.5 && kernels >= 3.5,
            "core {core}, kernels {kernels}"
        );
        assert!(core + kernels <= wall_ms, "self times exceed the wall time");
        assert!(fold.unattributed_frac < 0.2, "{}", fold.unattributed_frac);
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let ledger = Ledger::new(false);
        drop(ledger.span("core"));
        assert!(ledger.fold(1.0).self_ms.values().all(|&v| v == 0.0));
    }
}
