//! Dynamic virtual-architecture reconfiguration ("morphing", §2.3, §4.4).
//!
//! The morph manager introspects the translation work queues at a fixed
//! sampling interval and trades L2 data-cache tiles for translation tiles
//! when translation pressure is high, and back when the queues drain.
//! Reconfiguration has real costs (cache flush write-backs, role reload)
//! and hysteresis prevents thrashing, exactly as the paper prescribes.
//!
//! The implementation morphs between the paper's two poles:
//! 4 mem / 6 translators ↔ 1 mem / 9 translators.

use vta_sim::{Cycle, Tracer, TrackId};

use crate::config::MorphConfig;

/// Which way to reconfigure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphAction {
    /// Convert one L2 data bank tile into a translation slave.
    CacheToTranslator,
    /// Convert one translation slave back into an L2 data bank tile.
    TranslatorToCache,
}

/// The reconfiguration decision engine.
#[derive(Debug, Clone)]
pub struct MorphManager {
    cfg: MorphConfig,
    next_check: Cycle,
    last_reconfig: Cycle,
    /// Number of reconfigurations performed.
    pub reconfigs: u64,
    /// Bank-tile budget limits (min mem tiles, max translators added).
    min_banks: usize,
    max_banks: usize,
    /// First grid sample (since the last calm one) that saw the queue over
    /// threshold; measures how long pressure persisted before a switch.
    pressure_since: Option<Cycle>,
    /// First grid sample (since the last busy one) that saw the queue
    /// empty; the analogue for the switch back.
    calm_since: Option<Cycle>,
    /// Cycles between the triggering condition first being observed and
    /// the most recent reconfiguration ("morph lag": hysteresis holds plus
    /// sampling-grid latency).
    last_lag: u64,
}

impl MorphManager {
    /// Creates a manager morphing between `min_banks` and `max_banks`
    /// L2 data tiles.
    pub fn new(cfg: MorphConfig, min_banks: usize, max_banks: usize) -> MorphManager {
        MorphManager {
            cfg,
            next_check: Cycle(cfg.check_interval),
            last_reconfig: Cycle::ZERO,
            reconfigs: 0,
            min_banks,
            max_banks,
            pressure_since: None,
            calm_since: None,
            last_lag: 0,
        }
    }

    /// Lag of the most recent decision: cycles between the first grid
    /// sample that observed the triggering condition (queue over threshold
    /// for a to-translator switch, queue empty for a to-cache switch) and
    /// the switch itself. Zero when the first observation triggered
    /// immediately, or before any decision was made.
    pub fn last_lag(&self) -> u64 {
        self.last_lag
    }

    /// Samples the queue length; returns a reconfiguration decision.
    /// Decisions are recorded as instants on `track` in `tracer`.
    ///
    /// Sampling only happens every `check_interval` cycles, so the
    /// monitoring cost is negligible (§2.3); hysteresis enforces a
    /// minimum gap between reconfigurations. Sample points sit on a fixed
    /// grid (multiples of `check_interval`): the run loop only polls
    /// between blocks, so calls arrive late, and advancing from `now`
    /// instead of the grid would let caller cadence drift every later
    /// sample point.
    pub fn decide(
        &mut self,
        now: Cycle,
        queue_len: usize,
        cur_banks: usize,
        tracer: &mut Tracer,
        track: TrackId,
    ) -> Option<MorphAction> {
        if now < self.next_check {
            return None;
        }
        let interval = self.cfg.check_interval;
        let missed = now.saturating_since(self.next_check) / interval;
        self.next_check += interval * (missed + 1);
        // Track when the triggering conditions were FIRST observed, before
        // the hysteresis gate: the lag being measured is precisely the
        // time a condition persists while hysteresis (or a bank budget)
        // holds the switch back.
        if queue_len > self.cfg.threshold {
            self.pressure_since.get_or_insert(now);
        } else {
            self.pressure_since = None;
        }
        if queue_len == 0 {
            self.calm_since.get_or_insert(now);
        } else {
            self.calm_since = None;
        }
        if now.saturating_since(self.last_reconfig) < self.cfg.hysteresis {
            return None;
        }
        if queue_len > self.cfg.threshold && cur_banks > self.min_banks {
            self.last_reconfig = now;
            self.reconfigs += 1;
            self.last_lag = now.saturating_since(self.pressure_since.take().unwrap_or(now));
            tracer.instant(now, track, "morph.to_translator", queue_len as u64);
            return Some(MorphAction::CacheToTranslator);
        }
        if queue_len == 0 && cur_banks < self.max_banks {
            self.last_reconfig = now;
            self.reconfigs += 1;
            self.last_lag = now.saturating_since(self.calm_since.take().unwrap_or(now));
            tracer.instant(now, track, "morph.to_cache", cur_banks as u64);
            return Some(MorphAction::TranslatorToCache);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::{TraceConfig, TraceEvent};

    fn mgr(threshold: usize) -> MorphManager {
        MorphManager::new(
            MorphConfig {
                threshold,
                check_interval: 1000,
                hysteresis: 5000,
            },
            1,
            4,
        )
    }

    /// `decide` with an inert tracer, to keep the timing tests readable.
    fn decide(m: &mut MorphManager, now: u64, q: usize, banks: usize) -> Option<MorphAction> {
        m.decide(
            Cycle(now),
            q,
            banks,
            &mut Tracer::disabled(),
            TrackId::default(),
        )
    }

    #[test]
    fn no_decision_between_samples() {
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, 10, 100, 4), None, "before first sample");
        assert_eq!(
            decide(&mut m, 6000, 100, 4),
            Some(MorphAction::CacheToTranslator)
        );
    }

    #[test]
    fn hysteresis_blocks_rapid_flapping() {
        let mut m = mgr(5);
        assert!(decide(&mut m, 6000, 100, 4).is_some());
        // Queue drains immediately, but hysteresis holds.
        assert_eq!(decide(&mut m, 7000, 0, 3), None);
        assert_eq!(
            decide(&mut m, 12_000, 0, 3),
            Some(MorphAction::TranslatorToCache)
        );
    }

    #[test]
    fn respects_bank_budget() {
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, 6000, 100, 1), None, "min banks reached");
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, 6000, 0, 4), None, "max banks reached");
    }

    #[test]
    fn threshold_zero_morphs_on_any_queue() {
        let mut m = mgr(0);
        assert_eq!(
            decide(&mut m, 6000, 1, 4),
            Some(MorphAction::CacheToTranslator)
        );
    }

    #[test]
    fn counts_reconfigs() {
        let mut m = mgr(0);
        decide(&mut m, 6000, 1, 4);
        decide(&mut m, 20_000, 0, 3);
        assert_eq!(m.reconfigs, 2);
    }

    /// Regression test for sampling-grid drift: `next_check` used to be
    /// set to `now + check_interval`, so a call that arrived late (the run
    /// loop only polls between blocks) pushed every subsequent sample
    /// point later by the lateness.
    #[test]
    fn late_sample_does_not_shift_the_grid() {
        let mut m = mgr(5);
        // The sample due at 6000 is taken late, at 6500. Queue is calm so
        // nothing reconfigures (and hysteresis state is untouched).
        assert_eq!(decide(&mut m, 6500, 0, 4), None);
        // The next sample point is still 7000 on the fixed grid. The old
        // code had moved it to 7500 and returned None here.
        assert_eq!(
            decide(&mut m, 7000, 100, 4),
            Some(MorphAction::CacheToTranslator),
            "sample due at 7000 must fire despite the previous late call"
        );
    }

    #[test]
    fn skips_entirely_missed_sample_points() {
        let mut m = mgr(5);
        // First poll ever arrives at 10_300: the grid points 1000..=10_000
        // are all in the past; one sample fires, and the next is 11_000.
        assert!(decide(&mut m, 10_300, 100, 4).is_some());
        assert_eq!(decide(&mut m, 10_900, 100, 3), None, "before 11_000");
        // Sample at 11_000 happens (hysteresis silently holds the action).
        assert_eq!(decide(&mut m, 11_000, 100, 3), None);
    }

    #[test]
    fn lag_measures_hysteresis_hold() {
        let mut m = mgr(5);
        assert!(decide(&mut m, 6000, 100, 4).is_some());
        assert_eq!(m.last_lag(), 0, "first observation triggered immediately");
        // Pressure returns at 7000 but hysteresis (5000 from cycle 6000)
        // holds until the 11_000 grid sample.
        assert_eq!(decide(&mut m, 7000, 100, 3), None);
        assert_eq!(decide(&mut m, 8000, 100, 3), None);
        assert!(decide(&mut m, 11_000, 100, 3).is_some());
        assert_eq!(m.last_lag(), 4000, "pressure first seen at 7000");
    }

    #[test]
    fn lag_resets_when_pressure_clears() {
        let mut m = mgr(5);
        assert!(decide(&mut m, 6000, 100, 4).is_some());
        assert_eq!(decide(&mut m, 7000, 100, 3), None, "hysteresis holds");
        assert_eq!(decide(&mut m, 8000, 2, 3), None, "pressure cleared");
        assert_eq!(decide(&mut m, 10_000, 100, 3), None, "re-crossed at 10_000");
        assert!(decide(&mut m, 11_000, 100, 3).is_some());
        assert_eq!(m.last_lag(), 1000, "measured from the re-crossing");
    }

    #[test]
    fn lag_for_the_switch_back_uses_calm_time() {
        let mut m = mgr(5);
        assert!(decide(&mut m, 6000, 100, 4).is_some());
        assert_eq!(decide(&mut m, 7000, 0, 3), None, "calm but hysteresis");
        assert!(decide(&mut m, 11_000, 0, 3).is_some());
        assert_eq!(m.last_lag(), 4000, "queue first seen empty at 7000");
    }

    #[test]
    fn decisions_emit_trace_instants() {
        let mut m = mgr(0);
        let mut tr = Tracer::new(TraceConfig::default());
        let track = tr.track("morph");
        m.decide(Cycle(6000), 3, 4, &mut tr, track);
        m.decide(Cycle(20_000), 0, 3, &mut tr, track);
        let evs: Vec<_> = tr.events().collect();
        assert_eq!(evs.len(), 2);
        match *evs[0] {
            TraceEvent::Instant { ts, name, arg, .. } => {
                assert_eq!((ts, name, arg), (6000, "morph.to_translator", 3));
            }
            ref other => panic!("expected Instant, got {other:?}"),
        }
        match *evs[1] {
            TraceEvent::Instant { name, .. } => assert_eq!(name, "morph.to_cache"),
            ref other => panic!("expected Instant, got {other:?}"),
        }
    }
}
