//! Host wall-clock span profiling: the simulator's *second* clock domain.
//!
//! The [`crate::Tracer`] records what the **simulated machine** did, in
//! simulated cycles; this module records what the **host** did to produce
//! those cycles, in wall-clock nanoseconds. The two domains never mix:
//! nothing recorded here may feed [`crate::Stats`], metrics windows, or
//! any fingerprinted output, because host wall time depends on the host
//! scheduler and would break the bit-identical-across-thread-counts
//! invariant the whole workspace is built on.
//!
//! Design constraints, in the same spirit as [`crate::trace`]:
//!
//! 1. **Recording is per-thread and lock-free.** A [`ThreadProf`] owns
//!    its span stack, phase totals, and event buffer outright; the only
//!    shared state is a mutex touched once, when the thread's profile is
//!    flushed (on drop). Worker threads never contend while recording.
//! 2. **Profiling never changes simulated behavior.** Instrumented code
//!    only reads the host clock; it never branches on what was read.
//! 3. **Disabled profiling costs (almost) nothing.** A disabled handle
//!    holds no recorder and is one branch per call.
//!
//! Spans nest: [`ThreadProf::enter`]/[`ThreadProf::exit`] maintain a
//! stack, and phase totals are **exclusive** (self) time — a parent's
//! total excludes the time its children accounted for, so a thread's
//! phase totals sum to at most its busy wall time and a top-phases
//! table reads as a true breakdown.
//!
//! # Examples
//!
//! ```
//! use vta_sim::{ProfConfig, Profiler};
//!
//! let p = Profiler::new(ProfConfig::default());
//! let mut t = p.thread("worker0");
//! t.enter("translate");
//! t.enter("snapshot");
//! t.exit();
//! t.exit();
//! drop(t); // flushes the thread's profile
//! let report = p.report();
//! assert_eq!(report.threads.len(), 1);
//! assert_eq!(report.threads[0].name, "worker0");
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for a [`Profiler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfConfig {
    /// Per-thread timeline event capacity. Phase *totals* are always
    /// exact; when a thread has recorded this many events, further ones
    /// are dropped (and counted in [`ThreadProfile::dropped`]).
    pub max_events_per_thread: usize,
    /// Minimum span duration, in nanoseconds, for a timeline event to
    /// be recorded. Totals still include shorter spans exactly; the
    /// floor only keeps per-block micro-spans from flooding the event
    /// buffer.
    pub event_min_nanos: u64,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig {
            max_events_per_thread: 1 << 14,
            event_min_nanos: 1_000,
        }
    }
}

/// Exclusive (self) wall time one thread spent in one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Phase name as passed to [`ThreadProf::enter`].
    pub phase: &'static str,
    /// Exclusive nanoseconds: time inside this phase minus time inside
    /// nested child phases.
    pub nanos: u64,
    /// Number of times the phase was entered.
    pub count: u64,
}

/// One recorded timeline span (inclusive duration, unlike the totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfEvent {
    /// Phase name.
    pub phase: &'static str,
    /// Start, in nanoseconds since the profiler was created.
    pub start_nanos: u64,
    /// Inclusive duration in nanoseconds (children not subtracted —
    /// the timeline shows nesting; the totals show the breakdown).
    pub dur_nanos: u64,
}

/// Everything one thread recorded, flushed when its [`ThreadProf`]
/// dropped.
#[derive(Debug, Clone, Default)]
pub struct ThreadProfile {
    /// Thread name as passed to [`Profiler::thread`].
    pub name: String,
    /// Exclusive per-phase totals, largest first.
    pub phases: Vec<PhaseTotal>,
    /// Timeline events in start order (recording order).
    pub events: Vec<ProfEvent>,
    /// Events lost to the per-thread capacity limit.
    pub dropped: u64,
}

impl ThreadProfile {
    /// Sum of exclusive phase nanoseconds — the thread's attributed
    /// busy time.
    pub fn busy_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }
}

/// A host wall-time profile: every flushed thread, plus the wall time
/// the profiler itself has been alive (the denominator for "% of
/// wall" columns).
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Nanoseconds from profiler creation to [`Profiler::report`].
    pub wall_nanos: u64,
    /// Flushed thread profiles, sorted by thread name.
    pub threads: Vec<ThreadProfile>,
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    cfg: ProfConfig,
    profiles: Mutex<Vec<ThreadProfile>>,
}

/// Cloneable handle to one profiling session; see the
/// [module docs](self).
///
/// Obtain one with [`Profiler::new`] (recording) or
/// [`Profiler::disabled`]; hand each thread a [`ThreadProf`] via
/// [`Profiler::thread`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    shared: Option<Arc<Shared>>,
}

impl Profiler {
    /// A recording profiler; its creation instant is the timeline's
    /// time zero.
    pub fn new(cfg: ProfConfig) -> Self {
        Profiler {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                cfg,
                profiles: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A profiler that records nothing; every call is one branch.
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// True when spans are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A per-thread recorder named `name`. The recorder flushes its
    /// profile back to this profiler when dropped; dropping it on the
    /// recording thread (worker exit, pool join) is the only
    /// synchronization point.
    pub fn thread(&self, name: &str) -> ThreadProf {
        ThreadProf {
            inner: self.shared.as_ref().map(|s| {
                Box::new(ThreadInner {
                    shared: Arc::clone(s),
                    name: name.to_string(),
                    stack: Vec::with_capacity(8),
                    totals: Vec::new(),
                    events: Vec::new(),
                    dropped: 0,
                })
            }),
        }
    }

    /// Collects every thread profile flushed so far (threads whose
    /// [`ThreadProf`] is still alive are not included — drop or join
    /// them first). Threads are sorted by name so the report is stable
    /// regardless of flush order.
    pub fn report(&self) -> ProfileReport {
        let Some(s) = self.shared.as_ref() else {
            return ProfileReport::default();
        };
        let mut threads = s.profiles.lock().expect("profiler poisoned").clone();
        threads.sort_by(|a, b| a.name.cmp(&b.name));
        ProfileReport {
            wall_nanos: s.epoch.elapsed().as_nanos() as u64,
            threads,
        }
    }
}

#[derive(Debug)]
struct Frame {
    phase: &'static str,
    start: Instant,
    /// Inclusive nanoseconds already attributed to nested children.
    child_nanos: u64,
}

#[derive(Debug)]
struct ThreadInner {
    shared: Arc<Shared>,
    name: String,
    stack: Vec<Frame>,
    /// Linear-scan map: phase name -> (exclusive nanos, count). Phase
    /// vocabularies are tiny (tens), so a scan beats hashing.
    totals: Vec<(&'static str, u64, u64)>,
    events: Vec<ProfEvent>,
    dropped: u64,
}

impl ThreadInner {
    /// Closes the innermost open frame; see [`ThreadProf::exit`].
    fn close_top(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let inclusive = frame.start.elapsed().as_nanos() as u64;
        let exclusive = inclusive.saturating_sub(frame.child_nanos);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_nanos += inclusive;
        }
        match self.totals.iter_mut().find(|(p, _, _)| *p == frame.phase) {
            Some((_, nanos, count)) => {
                *nanos += exclusive;
                *count += 1;
            }
            None => self.totals.push((frame.phase, exclusive, 1)),
        }
        if inclusive >= self.shared.cfg.event_min_nanos {
            if self.events.len() < self.shared.cfg.max_events_per_thread {
                self.events.push(ProfEvent {
                    phase: frame.phase,
                    start_nanos: frame.start.duration_since(self.shared.epoch).as_nanos() as u64,
                    dur_nanos: inclusive,
                });
            } else {
                self.dropped += 1;
            }
        }
    }
}

/// Per-thread span recorder; obtained from [`Profiler::thread`], owned
/// by exactly one thread, flushed on drop.
///
/// Calls on a disabled recorder are one branch each.
#[derive(Debug, Default)]
pub struct ThreadProf {
    inner: Option<Box<ThreadInner>>,
}

impl ThreadProf {
    /// A recorder that records nothing (for call sites that need a
    /// recorder before any profiler exists).
    pub fn disabled() -> Self {
        ThreadProf::default()
    }

    /// True when spans are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span for `phase`, nested inside the current span if one
    /// is open. Must be balanced by [`ThreadProf::exit`].
    #[inline]
    pub fn enter(&mut self, phase: &'static str) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.stack.push(Frame {
                phase,
                start: Instant::now(),
                child_nanos: 0,
            });
        }
    }

    /// Closes the innermost open span, attributing its exclusive time
    /// to its phase total and its inclusive time to the parent's child
    /// accounting. No-op if nothing is open.
    #[inline]
    pub fn exit(&mut self) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.close_top();
        }
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        let Some(mut t) = self.inner.take() else {
            return;
        };
        // Close anything left open (a panicking worker, an early
        // return) so the totals stay meaningful.
        while !t.stack.is_empty() {
            t.close_top();
        }
        let mut phases: Vec<PhaseTotal> = t
            .totals
            .iter()
            .map(|&(phase, nanos, count)| PhaseTotal {
                phase,
                nanos,
                count,
            })
            .collect();
        phases.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.phase.cmp(b.phase)));
        let profile = ThreadProfile {
            name: std::mem::take(&mut t.name),
            phases,
            events: std::mem::take(&mut t.events),
            dropped: t.dropped,
        };
        t.shared
            .profiles
            .lock()
            .expect("profiler poisoned")
            .push(profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_exclusive_and_counted() {
        let p = Profiler::new(ProfConfig::default());
        let mut t = p.thread("w");
        t.enter("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        drop(t);
        let r = p.report();
        assert_eq!(r.threads.len(), 1);
        let th = &r.threads[0];
        let get = |name: &str| {
            th.phases
                .iter()
                .find(|p| p.phase == name)
                .expect("phase recorded")
                .clone()
        };
        let outer = get("outer");
        let inner = get("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.nanos >= 1_000_000, "inner slept ~2ms");
        // Exclusive: outer's total must not include inner's sleep
        // twice — the sum of phases can't exceed the wall time.
        assert!(th.busy_nanos() <= r.wall_nanos);
    }

    #[test]
    fn event_floor_and_capacity() {
        let p = Profiler::new(ProfConfig {
            max_events_per_thread: 2,
            event_min_nanos: 0,
        });
        let mut t = p.thread("w");
        for _ in 0..5 {
            t.enter("tick");
            t.exit();
        }
        drop(t);
        let r = p.report();
        assert_eq!(r.threads[0].events.len(), 2);
        assert_eq!(r.threads[0].dropped, 3);
        assert_eq!(r.threads[0].phases[0].count, 5, "totals are exact");

        // A high floor keeps micro-spans out of the buffer entirely.
        let p = Profiler::new(ProfConfig {
            max_events_per_thread: 2,
            event_min_nanos: u64::MAX,
        });
        let mut t = p.thread("w");
        t.enter("tick");
        t.exit();
        drop(t);
        let r = p.report();
        assert!(r.threads[0].events.is_empty());
        assert_eq!(r.threads[0].dropped, 0, "below-floor spans are not drops");
    }

    #[test]
    fn report_sorts_threads_by_name() {
        let p = Profiler::new(ProfConfig::default());
        for name in ["zeta", "alpha", "mid"] {
            let mut t = p.thread(name);
            t.enter("x");
            t.exit();
            drop(t);
        }
        let names: Vec<_> = p.report().threads.iter().map(|t| t.name.clone()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn drop_closes_open_spans() {
        let p = Profiler::new(ProfConfig::default());
        let mut t = p.thread("w");
        t.enter("outer");
        t.enter("inner");
        drop(t); // both frames still open
        let th = &p.report().threads[0];
        assert_eq!(th.phases.len(), 2, "open frames were closed and counted");
    }

    #[test]
    fn unbalanced_exit_is_harmless() {
        let p = Profiler::new(ProfConfig::default());
        let mut t = p.thread("w");
        t.exit();
        t.enter("x");
        t.exit();
        t.exit();
        drop(t);
        assert_eq!(p.report().threads[0].phases.len(), 1);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let mut t = p.thread("w");
        assert!(!t.is_enabled());
        t.enter("x");
        t.exit();
        drop(t);
        let r = p.report();
        assert_eq!(r.wall_nanos, 0);
        assert!(r.threads.is_empty());
    }

    #[test]
    fn handles_are_cloneable_and_share_the_session() {
        let p = Profiler::new(ProfConfig::default());
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            let mut t = p2.thread("spawned");
            t.enter("x");
            t.exit();
        });
        h.join().expect("worker ran");
        assert_eq!(p.report().threads.len(), 1);
    }
}
