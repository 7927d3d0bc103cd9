//! RAII timing spans with same-thread nesting.
//!
//! [`SpanGuard::enter`] (usually via the [`crate::span!`] macro) starts
//! the clock and pushes the span onto a thread-local stack; the guard's
//! `Drop` pops the stack and folds the elapsed time into the current
//! handle's registry (see [`crate::current`]), recording the enclosing
//! span (if any) as parent.
//!
//! Every live span also carries a process-unique id. When the handle's
//! timeline is on (see [`crate::timeline`]), entering and dropping
//! a guard records individual Begin/End events carrying that id and the
//! parent's — this is what the Chrome trace exporter replays.
//!
//! The stack is per thread, so nesting is tracked within a thread only:
//! a span opened inside a rayon worker closure sees whatever is active
//! *on that worker*, not the span that spawned the parallel region.
//! The rayon shim installs the caller's handle in its workers, so their
//! spans still aggregate into the caller's registry — any thread may
//! open any span name concurrently, and the per-name totals fold under
//! the registry lock.

use std::cell::RefCell;
use std::time::Instant;

use crate::timeline::{self, EventKind};

#[derive(Debug)]
struct StackEntry {
    name: String,
    span_id: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// An open span. Created by [`SpanGuard::enter`] / [`crate::span!`];
/// records its elapsed wall time when dropped.
///
/// When telemetry is disabled at entry the guard is inert: no clock
/// read, no stack push, nothing recorded on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when telemetry was disabled at entry.
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    name: String,
    span_id: u64,
    parent: Option<String>,
    parent_id: Option<u64>,
    /// Allocation slot to restore on drop, when the allocation gate
    /// was on at entry (see [`crate::alloc`]).
    prev_alloc_slot: Option<u32>,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name`, started now.
    ///
    /// Entering a span also feeds the watchdog heartbeat when one is
    /// armed (see [`crate::watchdog`]) — independent of whether
    /// telemetry is enabled, so supervised runs prove liveness even
    /// with metrics collection off.
    pub fn enter(name: &str) -> SpanGuard {
        crate::watchdog::beat_if_armed();
        let obs = crate::current();
        if obs.metrics().is_none() {
            return SpanGuard { live: None };
        }
        let span_id = timeline::next_span_id();
        let (parent, parent_id) = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().map(|e| (e.name.clone(), e.span_id));
            stack.push(StackEntry {
                name: name.to_string(),
                span_id,
            });
            match parent {
                Some((name, id)) => (Some(name), Some(id)),
                None => (None, None),
            }
        });
        if let Some(t) = obs.events() {
            t.record(EventKind::Begin, name, span_id, parent_id);
        }
        // With the allocation gate on, this span becomes the innermost
        // attribution scope until it drops.
        let prev_alloc_slot = if crate::alloc::recording() {
            Some(crate::alloc::enter_scope(name))
        } else {
            None
        };
        SpanGuard {
            live: Some(LiveSpan {
                name: name.to_string(),
                span_id,
                parent,
                parent_id,
                prev_alloc_slot,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let elapsed_ns = live.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if let Some(prev) = live.prev_alloc_slot {
            crate::alloc::restore_scope(prev);
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in LIFO order within a thread, so the top of
            // the stack is this span; pop defensively anyway in case a
            // guard was moved across an unwind boundary.
            if stack.last().is_some_and(|e| e.span_id == live.span_id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|e| e.span_id == live.span_id) {
                stack.remove(pos);
            }
        });
        // Gated again at drop: if telemetry was turned off while the
        // span was open, nothing is written.
        let obs = crate::current();
        if let Some(t) = obs.events() {
            t.record(EventKind::End, &live.name, live.span_id, live.parent_id);
        }
        if let Some(r) = obs.metrics() {
            r.record_span(&live.name, live.parent.as_deref(), elapsed_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span nesting and parents are covered by the handle tests in
    // `crate::tests`; here we pin the stack discipline.

    #[test]
    fn stack_is_balanced_after_guard_drop() {
        // A live guard pops what it pushed, an inert guard pushes
        // nothing.
        for config in [crate::ObsConfig::OFF, crate::ObsConfig::METRICS] {
            let _obs = crate::scoped(config);
            {
                let _g = SpanGuard::enter("span.test.balance");
            }
            let depth = SPAN_STACK.with(|s| s.borrow().len());
            assert_eq!(depth, 0, "guard must pop exactly what it pushed");
        }
    }
}
