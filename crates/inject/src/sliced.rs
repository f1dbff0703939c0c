//! Word-parallel (bit-sliced) trial execution.
//!
//! The snapshot-ladder path ([`StartPoint::run_trials`]) pays one
//! `Pipeline::clone` plus a full monitored replay per trial. Most trials
//! do not need any of that: a single-bit fault is a *difference* δ against
//! the golden run, and as long as no computation consumes the faulted
//! word, the trial's observable behaviour — its retire stream, its halt,
//! its per-cycle retirement pattern — is the golden run's, already
//! precomputed by [`StartPoint::prepare`].
//!
//! This module exploits that with a *golden access footprint*: one tracked
//! replay of the fault-free run per batch (see `crate::footprint`) finds,
//! for every lane whose fault sits in a word of the audited core structures
//! (load/store queues, physical register file, miss handling registers),
//! the first cycle after injection at which the machine reads or writes
//! that word. A batch of trials is then processed as words of up to 64
//! *lanes*, one trial per lane, all sharing the single golden evaluation:
//!
//! * **Ride** — the faulted word is never accessed in the monitoring
//!   window. The lane never needs a machine: its outcome follows
//!   analytically from the golden aggregates (the δ keeps the fingerprint
//!   diverged, so the trial grays out — or matches trivially when the
//!   golden run already halted).
//! * **Heal** — the first access is a full-word overwrite whose value
//!   cannot depend on the word's prior content. From that cycle on the
//!   lane's state *is* the golden state; the first fingerprint check at or
//!   after the heal declares µArch Match, exactly as the ladder would.
//! * **Peel** — the first access is a read: the fault is consumed and the
//!   lane's future genuinely diverges from golden. The lane peels off to
//!   the scalar path — the same monotonic fault-free walker and the same
//!   [`StartPoint::classify`] the snapshot ladder uses — so peeled
//!   records are the ladder's records by construction.
//!
//! Targets outside the core structures (front-end latches, scheduler, ROB,
//! rename, …) and targets outside any unit always peel. Equivalence with
//! the ladder and the naive path is pinned by
//! `tests/fastpath_equivalence.rs`.
//!
//! # Soundness contract
//!
//! The analytic shortcut is sound because the access log obeys (and the
//! `access_ordinals` pipeline tests plus the differential suite enforce):
//!
//! * **Reads may be over-logged, never under-logged.** A spurious logged
//!   read only demotes a ride/heal to a peel — the scalar path is always
//!   correct. A *missing* read would let a consumed fault ride, so every
//!   step-path accessor of tracked words logs.
//! * **Writes are logged only for full-word overwrites whose value cannot
//!   depend on the word's prior content.** Read-modify-write sites log the
//!   read first; per-cycle dedup keeps the first event, so the cell shows
//!   read-first and the lane peels.
//! * **Observers never log.** Fingerprint walks, state dumps, invariant
//!   checks and census visitors read state without consuming it
//!   architecturally; logging them would only cost throughput, but they
//!   are also run on machines whose tracking is off.
//! * δ ≠ 0 in a tracked word keeps that unit's 128-bit subhash diverged —
//!   the same collision exposure the root-fingerprint equality check
//!   always had.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use tfsim_bitstate::{InjectionMask, Loggability, UnitId};

use tfsim_obs::DeepTrace;

use crate::footprint::{disposition, Disposition, Footprint, Resolver, Span};
use crate::trial::{
    install_containment_hook, keep_classified, panic_message, FailureMode, Outcome, Rows,
    StartPoint, TracedBatch, TrialFault, TrialObservers, TrialRecord, TrialSpec, TrialTrace,
    CONTAINED, DENSE, SPARSE,
};

/// Lanes per word: one trial per bit of a 64-bit bookkeeping word.
pub const LANE_WIDTH: usize = 64;

/// How a lane was dispatched, for the per-word bookkeeping masks.
#[derive(Clone, Copy)]
enum Plan<'a> {
    /// Ride or heal: share the golden evaluation analytically.
    Share(&'a Span, Option<u64>),
    /// Peel (or untracked / out-of-range / forced-panic): scalar path.
    Scalar,
}

impl StartPoint {
    /// [`StartPoint::run_trials`] semantics on the word-parallel path:
    /// bit-identical records, radically fewer machine replays. See the
    /// module docs for the ride/heal/peel protocol.
    pub fn run_trials_sliced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> Vec<TrialRecord> {
        self.run_trials_sliced_core::<false>(mask, specs, monitor, LANE_WIDTH, None, false, None)
            .records
    }

    /// [`StartPoint::run_trials_traced`] semantics on the word-parallel
    /// path: identical records and traces; `advance_ns`/`monitor_ns`
    /// reflect this path's actual phase split (wall-clock is the only
    /// field allowed to differ from the ladder).
    pub fn run_trials_sliced_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> TracedBatch {
        self.run_trials_sliced_core::<true>(mask, specs, monitor, LANE_WIDTH, None, false, None)
    }

    /// [`StartPoint::run_trials_deep_traced`] semantics on the
    /// word-parallel path: identical records, traces, *and* divergence
    /// timelines. Riding/healing lanes synthesize their timelines
    /// analytically (the δ diverges exactly its own unit until healed);
    /// peeled lanes sample through the scalar classifier.
    pub fn run_trials_sliced_deep_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> TracedBatch {
        self.run_trials_sliced_core::<true>(mask, specs, monitor, LANE_WIDTH, None, true, None)
    }

    /// [`StartPoint::run_trials_sliced`] with an explicit lane width in
    /// `1..=64`. Results are provably width-independent (each lane is
    /// decided from the shared footprint alone); the equivalence suite
    /// exercises every width including partial final words.
    pub fn run_trials_sliced_with_width(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        lane_width: usize,
    ) -> Vec<TrialRecord> {
        self.run_trials_sliced_core::<false>(mask, specs, monitor, lane_width, None, false, None)
            .records
    }

    /// The shared word-parallel ladder. Mirrors `run_trials_core`'s
    /// contract exactly: input-order records, quarantined panics, sorted
    /// monotonic walker for everything scalar.
    ///
    /// `footprint` is the batch's access footprint when the caller already
    /// built one covering every core-word site of `specs` (the pruner
    /// does); otherwise the batch builds its own.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_trials_sliced_core<const TRACED: bool>(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        lane_width: usize,
        panic_shim: Option<usize>,
        deep: bool,
        footprint: Option<&Footprint>,
    ) -> TracedBatch {
        let deep = TRACED && deep;
        assert!((1..=LANE_WIDTH).contains(&lane_width), "lane width must be 1..=64");
        install_containment_hook();
        let resolver = Resolver::build(&self.checkpoint, mask);
        // Lanes faulting a tracked word of the core structures can share
        // the golden evaluation; everything else is scalar.
        let core_site = |i: usize| -> Option<(&Span, UnitId)> {
            let spec = specs[i];
            if panic_shim == Some(i) || spec.inject_cycle > self.horizon {
                return None;
            }
            let span = resolver.resolve(spec.target)?;
            let unit = span.unit.filter(|&u| {
                u.loggability() == Loggability::Core
                    && self.checkpoint.access_tracked(u, span.unit_ord)
            })?;
            Some((span, unit))
        };
        let footprint_t0 = TRACED.then(Instant::now);
        let built;
        let fp = match footprint {
            Some(fp) => fp,
            None => {
                let sites: Vec<(UnitId, u32, u64)> = (0..specs.len())
                    .filter_map(|i| {
                        core_site(i).map(|(s, u)| (u, s.unit_ord, specs[i].inject_cycle))
                    })
                    .collect();
                built = Footprint::build(self, &sites, monitor);
                &built
            }
        };
        let footprint_ns = footprint_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let plans: Vec<Plan> = (0..specs.len())
            .map(|i| match core_site(i) {
                Some((span, unit)) => {
                    match disposition(fp.first_access(unit, span.unit_ord, specs[i].inject_cycle)) {
                        Disposition::Ride => Plan::Share(span, None),
                        Disposition::Heal(hc) => Plan::Share(span, Some(hc)),
                        Disposition::Peel => Plan::Scalar,
                    }
                }
                None => Plan::Scalar,
            })
            .collect();
        let rows_t0 = TRACED.then(Instant::now);
        let mut rows = Rows::new(
            self,
            (0..specs.len())
                .filter(|&i| matches!(plans[i], Plan::Scalar))
                .map(|i| specs[i].inject_cycle),
        );
        let rows_ns = rows_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| specs[i].inject_cycle);

        let mut walker = self.checkpoint.clone();
        let mut walked = 0u64;
        let mut out: Vec<Option<TrialRecord>> = vec![None; specs.len()];
        let mut traces = vec![TrialTrace::default(); if TRACED { specs.len() } else { 0 }];
        let mut deeps = vec![DeepTrace::new(); if deep { specs.len() } else { 0 }];
        let mut closings = Vec::new();
        let mut faults = Vec::new();
        let mut advance_ns = 0u64;
        let mut monitor_ns = 0u64;
        let mut ride_ns = 0u64;
        let mut classify_ns = 0u64;

        for word in order.chunks(lane_width) {
            // Per-word lane masks: bookkeeping plus the invariant that
            // every lane is dispatched exactly one way.
            let mut riding = 0u64;
            let mut healed = 0u64;
            let mut peeled = 0u64;
            for (lane, &i) in word.iter().enumerate() {
                let spec = specs[i];
                let lane_bit = 1u64 << lane;
                let t0 = TRACED.then(Instant::now);
                match plans[i] {
                    Plan::Share(span, heal) => {
                        match heal {
                            Some(_) => healed |= lane_bit,
                            None => riding |= lane_bit,
                        }
                        let trace_slot = if TRACED { Some(&mut traces[i]) } else { None };
                        let deep_slot = if deep { Some(&mut deeps[i]) } else { None };
                        let obs = TrialObservers { trace: trace_slot, deep: deep_slot };
                        out[i] = Some(self.ride_lane(span, heal, spec, monitor, obs));
                        if let Some(t0) = t0 {
                            let dt = t0.elapsed().as_nanos() as u64;
                            monitor_ns += dt;
                            ride_ns += dt;
                        }
                    }
                    Plan::Scalar => {
                        peeled |= lane_bit;
                        while walked < spec.inject_cycle && walker.running() {
                            walker.step();
                            walked += 1;
                        }
                        let t1 = TRACED.then(Instant::now);
                        if let (Some(t0), Some(t1)) = (t0, t1) {
                            advance_ns += t1.duration_since(t0).as_nanos() as u64;
                        }
                        let trace_slot = if TRACED { Some(&mut traces[i]) } else { None };
                        let deep_slot = if deep { Some(&mut deeps[i]) } else { None };
                        CONTAINED.with(|c| c.set(true));
                        let classified = panic::catch_unwind(AssertUnwindSafe(|| {
                            if panic_shim == Some(i) {
                                panic!(
                                    "forced mid-trial panic (test shim, target {} cycle {})",
                                    spec.target, spec.inject_cycle
                                );
                            }
                            self.classify(
                                mask,
                                &rows,
                                walker.clone(),
                                spec,
                                monitor,
                                true,
                                TrialObservers { trace: trace_slot, deep: deep_slot },
                            )
                        }));
                        CONTAINED.with(|c| c.set(false));
                        match classified {
                            Ok((rec, closing)) => {
                                out[i] = Some(rec);
                                closings.extend(closing.map(|c| (i, c)));
                            }
                            Err(payload) => faults.push(TrialFault {
                                index: i,
                                spec,
                                panic_msg: panic_message(payload),
                            }),
                        }
                        if let Some(t1) = t1 {
                            let dt = t1.elapsed().as_nanos() as u64;
                            monitor_ns += dt;
                            classify_ns += dt;
                        }
                    }
                }
            }
            let full = if word.len() == LANE_WIDTH { u64::MAX } else { (1 << word.len()) - 1 };
            debug_assert_eq!(riding | healed | peeled, full, "every lane dispatched");
            debug_assert_eq!(
                (riding & healed) | (riding & peeled) | (healed & peeled),
                0,
                "lane dispositions are exclusive"
            );
        }
        let attribute_t0 = TRACED.then(Instant::now);
        rows.close(closings, &mut traces, &mut deeps);
        let attribute_ns = attribute_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let mut batch = keep_classified(out, traces, deeps, faults, TRACED, deep);
        batch.advance_ns = advance_ns;
        batch.monitor_ns = monitor_ns;
        batch.ride_ns = ride_ns;
        batch.classify_ns = classify_ns;
        batch.rows_ns = rows_ns;
        batch.footprint_ns = footprint_ns;
        batch.attribute_ns = attribute_ns;
        batch.rows_hashed = rows.hashed();
        batch.footprint_events = if footprint.is_none() { fp.kept() } else { 0 };
        batch
    }

    /// The analytic classifier for a riding/healing lane: a literal mirror
    /// of `classify`'s decision loop, evaluated against the golden
    /// aggregates instead of a stepped machine. Valid because the lane's
    /// machine, were it stepped, would replay the golden run exactly — the
    /// δ sits in a word nothing reads before it is (possibly) overwritten.
    pub(crate) fn ride_lane(
        &self,
        span: &Span,
        heal_cycle: Option<u64>,
        spec: TrialSpec,
        monitor: u64,
        obs: TrialObservers<'_>,
    ) -> TrialRecord {
        let TrialObservers { trace, mut deep } = obs;
        let inject_cycle = spec.inject_cycle;
        let traced = trace.is_some();
        // Deep-trace mirror: a riding/healing lane's state differs from
        // golden in exactly its own unit until healed, so the diverged-unit
        // set the scalar walk would sample is `{span.unit}` (or empty once
        // healed). Change-only pushes at the same check cycles make the
        // synthesized timeline byte-equal to the scalar one.
        let unit_mask = span.unit.map(|u| 1u16 << u.index()).unwrap_or(0);
        // Whether the machine is still running after `c` steps: the golden
        // run raises no exceptions (prepare forbids it), so only the halt
        // ends it — and the lane replays golden.
        let running_at = |c: u64| self.halted_at.is_none_or(|(hc, _)| c < hc);

        let make = |outcome| TrialRecord {
            outcome,
            category: span.category,
            kind: span.kind,
            unit: span.unit,
            inject_cycle,
            valid_instructions: self.valid_at(inject_cycle),
        };

        let mut divergence: Option<(u64, Option<UnitId>)> = None;
        let mut last_step = inject_cycle;

        let (outcome, decided_at) = 'decide: {
            if !running_at(inject_cycle) {
                break 'decide (Outcome::MicroArchMatch, inject_cycle);
            }

            let mut matched = self.instret[inject_cycle as usize] as usize;
            let mut last_retire_cycle = inject_cycle;
            let mut flushes_without_retire = 0u32;
            let horizon = self.horizon.min(inject_cycle + monitor);

            for step in (inject_cycle + 1)..=horizon {
                last_step = step;
                let retired = self.retired_at(step);
                if retired > 0 {
                    last_retire_cycle = step;
                    flushes_without_retire = 0;
                }
                if self.pflush_at(step) {
                    flushes_without_retire += 1;
                    if flushes_without_retire >= 3 {
                        break 'decide (Outcome::Failure(FailureMode::Locked), step);
                    }
                    last_retire_cycle = step;
                }
                for _ in 0..retired {
                    // A golden-replaying lane retires the golden records
                    // verbatim: the per-record architectural comparisons
                    // pass by identity, and the ran-ahead guard below is
                    // provably dead (kept for literal parity).
                    if matched >= self.records.len() {
                        break 'decide (Outcome::GrayArea, step);
                    }
                    matched += 1;
                }
                if let Some((hc, _code)) = self.halted_at {
                    if hc == step {
                        // The lane halts with the golden exit code; correct
                        // iff the full golden stream was retired.
                        let outcome = if matched == self.records.len() {
                            Outcome::MicroArchMatch
                        } else {
                            Outcome::Failure(FailureMode::Ctrl)
                        };
                        break 'decide (outcome, step);
                    }
                }
                if running_at(step) && step - last_retire_cycle >= 100 {
                    break 'decide (Outcome::Failure(FailureMode::Locked), step);
                }
                let dense = step - inject_cycle <= DENSE;
                if (dense || step % SPARSE == 0) && self.instret[step as usize] == matched as u64 {
                    // Fingerprint check: the lane equals golden except for
                    // the δ, so equality holds exactly once healed.
                    if heal_cycle.is_some_and(|hc| step >= hc) {
                        if let Some(d) = deep.as_deref_mut() {
                            d.push(step, 0);
                        }
                        break 'decide (Outcome::MicroArchMatch, step);
                    }
                    if traced && divergence.is_none() {
                        divergence = Some((step, span.unit));
                    }
                    if let Some(d) = deep.as_deref_mut() {
                        // Mirror of `classify`'s deep-sampling cadence:
                        // dense window, then every eighth check.
                        if dense || step % 64 == 0 {
                            d.push(step, unit_mask);
                        }
                    }
                }
                if !running_at(step) {
                    break;
                }
            }
            (Outcome::GrayArea, last_step)
        };

        if outcome != Outcome::MicroArchMatch && (traced || deep.is_some()) {
            // Mirror of `classify`'s post-decision attribution walk:
            // at the decision state the lane differs from golden iff
            // the δ is still unhealed, and then exactly in its unit.
            let at = last_step.min(self.horizon);
            let unhealed = heal_cycle.is_none_or(|hc| last_step < hc);
            if traced && divergence.is_none() && unhealed {
                divergence = Some((at, span.unit));
            }
            if let Some(d) = deep {
                d.push(at, if unhealed { unit_mask } else { 0 });
            }
        }
        if let Some(tr) = trace {
            tr.detect_cycle = decided_at;
            if let Some((cycle, unit)) = divergence {
                tr.divergence_cycle = Some(cycle);
                tr.diverged_unit = unit;
            }
        }
        make(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::warm_pipeline;
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    fn start_point(config: PipelineConfig) -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R10, 0x9e3779b97f4a7c15u64);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 60_000);
        a.li(Reg::R9, 0);
        let top = a.here_label();
        a.mulq_i(Reg::R10, 33, Reg::R10);
        a.addq_i(Reg::R10, 7, Reg::R10);
        a.srl_i(Reg::R10, 20, Reg::R4);
        a.and_i(Reg::R4, 0xf8, Reg::R5);
        a.addq(Reg::R1, Reg::R5, Reg::R5);
        a.stq(Reg::R4, Reg::R5, 0);
        a.ldq(Reg::R6, Reg::R5, 0);
        a.addq(Reg::R9, Reg::R6, Reg::R9);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let p = tfsim_isa::Program::new("sliced-bed", a).with_data(0x10_0000, vec![0u8; 256]);
        let warmed = warm_pipeline(&p, config, 500);
        StartPoint::prepare(&warmed, 3_000, InjectionMask::LatchesAndRams)
    }

    #[test]
    fn sliced_matches_the_ladder_on_a_dense_sweep() {
        let sp = start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..96u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: [40, 3, 117, 3, 0, 249, 60, 117][t as usize % 8] + (t / 8),
            })
            .collect();
        let ladder = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 1_200);
        let sliced = sp.run_trials_sliced(InjectionMask::LatchesAndRams, &specs, 1_200);
        assert_eq!(sliced.len(), ladder.len());
        for (i, (s, l)) in sliced.iter().zip(ladder.iter()).enumerate() {
            assert_eq!(s, l, "spec {i} ({:?}) diverged", specs[i]);
        }
    }

    #[test]
    fn sliced_traced_matches_the_ladder_traced() {
        let sp = start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..40u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let ladder = sp.run_trials_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        let sliced = sp.run_trials_sliced_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        assert_eq!(sliced.records, ladder.records);
        assert_eq!(sliced.traces, ladder.traces, "traces must match cycle-for-cycle");
        assert_eq!(sliced.faults, ladder.faults);
    }

    #[test]
    fn sliced_deep_traced_matches_the_ladder_deep_traced() {
        let sp = start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..40u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let ladder = sp.run_trials_deep_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        let sliced = sp.run_trials_sliced_deep_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        assert_eq!(sliced.records, ladder.records);
        assert_eq!(sliced.traces, ladder.traces);
        assert_eq!(sliced.deeps, ladder.deeps, "timelines must match sample-for-sample");
        assert!(sliced.deeps.iter().any(|d| !d.is_empty()), "sweep should see divergence");
        // Deep mode must not perturb what the plain traced path records.
        let plain = sp.run_trials_sliced_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        assert_eq!(plain.records, sliced.records);
        assert_eq!(plain.traces, sliced.traces);
        assert!(plain.deeps.is_empty());
    }

    #[test]
    fn sliced_is_width_independent() {
        let sp = start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..70u64)
            .map(|t| TrialSpec {
                target: (t * 7_919) % sp.bit_count(),
                inject_cycle: (t * 17) % 200,
            })
            .collect();
        let full = sp.run_trials_sliced(InjectionMask::LatchesAndRams, &specs, 1_000);
        for width in [1usize, 2, 7, 63, 64] {
            let w = sp.run_trials_sliced_with_width(
                InjectionMask::LatchesAndRams,
                &specs,
                1_000,
                width,
            );
            assert_eq!(w, full, "lane width {width} changed results");
        }
    }

    #[test]
    fn sliced_matches_under_the_protected_config() {
        let sp = start_point(PipelineConfig::protected());
        let specs: Vec<TrialSpec> = (0..60u64)
            .map(|t| TrialSpec {
                target: (t * 11_003) % sp.bit_count(),
                inject_cycle: (t * 13) % 150,
            })
            .collect();
        let ladder = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 1_000);
        let sliced = sp.run_trials_sliced(InjectionMask::LatchesAndRams, &specs, 1_000);
        assert_eq!(sliced, ladder);
    }
}
