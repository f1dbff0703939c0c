//! The analytic masking pruner: dead-window proofs and site equivalence
//! classes over the batch's golden access footprint.
//!
//! The sliced engine (`crate::sliced`) already discharges rides and heals
//! analytically, but only for the core structures (LSQ, register file,
//! MHRs). Everything else — fetch queue, rename, scheduler, reorder
//! buffer — peels to a scalar replay even when the faulted word is plainly
//! dead. On campaign-shaped batches those peels dominate the wall
//! clock: most land in idle entries of the big untracked RAMs and grind a
//! full monitoring window to conclude nothing happened.
//!
//! The pruner runs once per batch, before any trial, on the batch's access
//! footprint (`crate::footprint`: one tracked golden replay that finds
//! each site's first access to its word after injection, for every
//! loggable structure). It hands the same footprint to the sliced engine
//! it delegates to. Every site gets exactly one of three dispositions:
//!
//! * **Proved dead** — the fault provably never alters the classification
//!   relative to the analytic rider:
//!   - no access to the word in `(inject, horizon]` (a *dead window*: the
//!     word is never read again before the window closes),
//!   - the first access is a content-independent full-word overwrite (the
//!     word dies by being rewritten before its next read), or
//!   - the first access is a read, but the golden aggregates decide the
//!     trial (lock, halt) strictly before that read consumes the fault.
//!
//!   These sites produce their records through the same analytic
//!   classifier the sliced engine uses ([`StartPoint::ride_lane`]) and
//!   never occupy a lane.
//! * **Class-collapsed** — surviving sites that share a word, the same
//!   first read after injection, and the same decision-loop state at it
//!   are grouped into an *equivalence class*: their machines are
//!   bit-identical at the moment the fault is consumed, so one
//!   representative trial determines every member's outcome. The
//!   representative simulates; members multiply its outcome into the
//!   census.
//! * **Simulated** — everything else (plus class representatives and
//!   singleton classes) delegates to the sliced engine unchanged.
//!
//! # Proof obligations
//!
//! The dispositions are sound because (enforced by the `access_ordinals`
//! pipeline tests and the `prop_pruned_*` property suite):
//!
//! 1. *Reads are never under-logged* in any structure: a word with no read
//!    event in a window really was not consumed there, so the machine
//!    replays the golden run and the analytic rider's record is exact.
//! 2. *Logged writes are full-word and content-independent*: a heal event
//!    restores the golden value no matter the δ. Structures outside the
//!    core set may under-claim a write by logging a read instead (the ROB
//!    does), which only demotes a site to `simulated` — never the reverse.
//! 3. *Class members are state-identical at consumption.* Two faults in
//!    the same word with the same first read build the same machine: golden
//!    state plus the same δ, untouched since injection. The class key adds
//!    the classifier's loop state (last retire cycle, protective-flush
//!    streak) at the first read, and membership requires the dense
//!    fingerprint-check cadence to have elapsed (`inject + 64 < read`), so
//!    the decision walk from the read onward is step-for-step identical
//!    for every member. The only member-dependent outputs are the
//!    injection cycle, the valid-instruction count (both taken from the
//!    member's own spec), and the window horizon — a member whose shorter
//!    window expires before the representative's decision cycle grays out
//!    at its own horizon, exactly as its scalar run would.
//!
//! The one knowing deviation: a member whose scalar run would *panic*
//! (quarantine) is instead derived from its non-panicking representative.
//! Panics are harness escapes, not outcomes; a representative that panics
//! falls back to simulating every member individually, so the census only
//! ever differs where the unpruned path had no census entry at all.

use std::collections::BTreeMap;

use tfsim_bitstate::{InjectionMask, UnitId};
use tfsim_obs::{DeepTrace, PruneDispositions};

use crate::footprint::{Footprint, Resolver, Span};
use crate::trial::{
    keep_classified, Outcome, StartPoint, TracedBatch, TrialFault, TrialObservers, TrialRecord,
    TrialSpec, TrialTrace, DENSE,
};
use crate::sliced::LANE_WIDTH;

/// Identity of an equivalence class: same word and bit, same first read
/// after injection (one access per word and cycle, so the same
/// inter-access gap), and the same analytic decision-loop state carried
/// into that read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ClassKey {
    target: u64,
    /// Cycle of the first post-injection access, a read.
    read: u64,
    /// `last_retire_cycle` at the start of the first-read step.
    last_retire: u64,
    /// `flushes_without_retire` at the start of the first-read step.
    flushes: u32,
}

/// Per-site pruning decision.
#[derive(Clone, Copy)]
enum Plan {
    /// Proved dead: the analytic rider produces the record.
    Analytic { span: Span, heal: Option<u64> },
    /// Delegate to the sliced engine (residuals, representatives,
    /// singletons, and the forced-panic shim).
    Simulate,
    /// Derive the record from the class representative's trial.
    Derived { rep: usize, span: Span },
}

/// Result of walking the golden aggregates from `inject` through `end`.
enum Prefix {
    /// A decision fires at or before `end`: the analytic classifier fully
    /// determines the record without the fault ever being consumed.
    Decided,
    /// No decision: the loop state at the start of step `end + 1`.
    Pending { last_retire: u64, flushes: u32 },
}

impl StartPoint {
    /// Mirrors the decision loop of [`StartPoint::ride_lane`] over the
    /// steps `(inject, end]`, reporting whether any golden-aggregate
    /// decision (lock, halt, ran-ahead) fires in that prefix. Fingerprint
    /// checks cannot decide here — the δ is still latent — so they are
    /// irrelevant to the walk.
    fn walk_prefix(&self, inject: u64, end: u64) -> Prefix {
        let running_at = |c: u64| self.halted_at.is_none_or(|(hc, _)| c < hc);
        if !running_at(inject) {
            return Prefix::Decided;
        }
        let mut matched = self.instret[inject as usize] as usize;
        let mut last_retire = inject;
        let mut flushes = 0u32;
        for step in (inject + 1)..=end {
            let retired = self.retired_at(step);
            if retired > 0 {
                last_retire = step;
                flushes = 0;
            }
            if self.pflush_at(step) {
                flushes += 1;
                if flushes >= 3 {
                    return Prefix::Decided;
                }
                last_retire = step;
            }
            for _ in 0..retired {
                if matched >= self.records.len() {
                    return Prefix::Decided;
                }
                matched += 1;
            }
            if let Some((hc, _)) = self.halted_at {
                if hc == step {
                    return Prefix::Decided;
                }
            }
            if running_at(step) && step - last_retire >= 100 {
                return Prefix::Decided;
            }
            if !running_at(step) {
                break;
            }
        }
        Prefix::Pending { last_retire, flushes }
    }

    /// [`StartPoint::run_trials`] semantics with analytic pruning: the
    /// records are the sliced engine's records for every site the pruner
    /// could not discharge, and the analytically derived equivalents
    /// everywhere else. Returns the per-site disposition tally alongside.
    pub fn run_trials_pruned(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (Vec<TrialRecord>, PruneDispositions) {
        let (batch, dispo) =
            self.run_trials_pruned_core::<false>(mask, specs, monitor, LANE_WIDTH, None, false);
        (batch.records, dispo)
    }

    /// [`StartPoint::run_trials_pruned`] with an explicit delegate lane
    /// width in `1..=64`. Pruning decisions depend only on the golden
    /// footprint, so the records (and the disposition tally) are provably
    /// width-independent; the equivalence suite pins both.
    pub fn run_trials_pruned_with_width(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        lane_width: usize,
    ) -> (Vec<TrialRecord>, PruneDispositions) {
        let (batch, dispo) =
            self.run_trials_pruned_core::<false>(mask, specs, monitor, lane_width, None, false);
        (batch.records, dispo)
    }

    /// [`StartPoint::run_trials_traced`] semantics with analytic pruning.
    pub fn run_trials_pruned_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_trials_pruned_core::<true>(mask, specs, monitor, LANE_WIDTH, None, false)
    }

    /// [`StartPoint::run_trials_deep_traced`] semantics with analytic
    /// pruning: class members derive their divergence timelines from the
    /// representative's ([`DeepTrace::derive`] — head cycle pinned to the
    /// member's own injection, horizon clipped to its window).
    pub fn run_trials_pruned_deep_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_trials_pruned_core::<true>(mask, specs, monitor, LANE_WIDTH, None, true)
    }

    /// The pruning pass plus delegation. Mirrors the contracts of
    /// `run_trials_core`: input-order records, quarantined panics under
    /// their original spec indices.
    pub(crate) fn run_trials_pruned_core<const TRACED: bool>(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        lane_width: usize,
        panic_shim: Option<usize>,
        deep: bool,
    ) -> (TracedBatch, PruneDispositions) {
        let deep = TRACED && deep;
        let resolver = Resolver::build(&self.checkpoint, mask);
        let horizon_of = |c: u64| self.horizon.min(c + monitor);
        // Sites on a tracked word, the ones the footprint can speak for.
        let sites: Vec<Option<(Span, UnitId)>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                if panic_shim == Some(i) || spec.inject_cycle > self.horizon {
                    return None;
                }
                let span = *resolver.resolve(spec.target)?;
                let unit =
                    span.unit.filter(|&u| self.checkpoint.access_tracked(u, span.unit_ord))?;
                Some((span, unit))
            })
            .collect();
        let footprint_t0 = TRACED.then(std::time::Instant::now);
        let watched: Vec<(UnitId, u32, u64)> = sites
            .iter()
            .zip(specs)
            .filter_map(|(site, spec)| site.map(|(s, u)| (u, s.unit_ord, spec.inject_cycle)))
            .collect();
        let fp = Footprint::build(self, &watched, monitor);
        let footprint_ns = footprint_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

        // Passes 1 and 2 are the pruner's own analysis time, attributed to
        // `prune_ns` — they run before any trial, outside the monitor
        // bracket.
        let prune_t0 = TRACED.then(std::time::Instant::now);
        // Pass 1: per-site disposition from the footprint.
        let mut plan: Vec<Plan> = Vec::with_capacity(specs.len());
        let mut classes: BTreeMap<ClassKey, Vec<usize>> = BTreeMap::new();
        for (i, (spec, site)) in specs.iter().zip(&sites).enumerate() {
            let Some((span, unit)) = *site else {
                plan.push(Plan::Simulate);
                continue;
            };
            let c = spec.inject_cycle;
            plan.push(match fp.first_access(unit, span.unit_ord, c) {
                // Dead window: never accessed again inside the window.
                None => Plan::Analytic { span, heal: None },
                // Dead window: overwritten before its next read.
                Some((hc, true)) => Plan::Analytic { span, heal: Some(hc) },
                Some((r, false)) => match self.walk_prefix(c, r - 1) {
                    // Locked/halted before the read: the analytic rider
                    // reaches the identical decision.
                    Prefix::Decided => Plan::Analytic { span, heal: None },
                    // Class membership requires the dense check cadence to
                    // have fully elapsed before the read, so every member
                    // checks on the same steps from the read onward.
                    Prefix::Pending { last_retire, flushes } if c + DENSE < r => {
                        let key = ClassKey { target: spec.target, read: r, last_retire, flushes };
                        classes.entry(key).or_default().push(i);
                        // Provisional: singletons demote below, and the
                        // representative is picked per class.
                        Plan::Derived { rep: i, span }
                    }
                    Prefix::Pending { .. } => Plan::Simulate,
                },
            });
        }

        // Pass 2: pick representatives. The member with the longest window
        // simulates (ties to the lowest index), so every other member's
        // horizon is covered by the representative's decision walk.
        for members in classes.values() {
            if members.len() == 1 {
                plan[members[0]] = Plan::Simulate;
                continue;
            }
            let rep = *members
                .iter()
                .max_by_key(|&&j| (horizon_of(specs[j].inject_cycle), std::cmp::Reverse(j)))
                .expect("class is non-empty");
            for &j in members {
                if j == rep {
                    plan[j] = Plan::Simulate;
                } else if let Plan::Derived { span, .. } = plan[j] {
                    plan[j] = Plan::Derived { rep, span };
                }
            }
        }

        let prune_ns = prune_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);

        // Delegate everything simulated to the sliced engine in one batch,
        // on the same footprint. Always traced internally: representative
        // detect cycles drive the member derivation, and records are
        // trace-independent.
        let delegate_idx: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Plan::Simulate))
            .map(|(i, _)| i)
            .collect();
        let delegate_shim = panic_shim.and_then(|s| delegate_idx.binary_search(&s).ok());
        let (sub, sub_out, mut faults) = self.delegate(
            mask,
            specs,
            &delegate_idx,
            monitor,
            lane_width,
            delegate_shim,
            deep,
            &fp,
        );
        let mut costs = sub;

        // A quarantined representative cannot vouch for its members: fall
        // back to simulating each of them individually.
        let rep_result = |rep: usize| {
            let k = delegate_idx.binary_search(&rep).expect("representatives are delegated");
            sub_out[k].clone()
        };
        let retry_idx: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Plan::Derived { rep, .. } if rep_result(*rep).is_none()))
            .map(|(i, _)| i)
            .collect();
        let mut retry_out = Vec::new();
        if !retry_idx.is_empty() {
            let (sub2, out2, faults2) =
                self.delegate(mask, specs, &retry_idx, monitor, lane_width, None, deep, &fp);
            costs.add_costs(&sub2);
            retry_out = out2;
            faults.extend(faults2);
        }

        // Pass 3: assemble records in input order.
        let mut dispo = PruneDispositions::default();
        let mut out: Vec<Option<TrialRecord>> = vec![None; specs.len()];
        let mut traces = vec![TrialTrace::default(); if TRACED { specs.len() } else { 0 }];
        let mut deeps = vec![DeepTrace::new(); if deep { specs.len() } else { 0 }];
        let mut put = |i: usize, result: Option<(TrialRecord, TrialTrace, DeepTrace)>| {
            if let Some((rec, tr, dp)) = result {
                out[i] = Some(rec);
                if TRACED {
                    traces[i] = tr;
                }
                if deep {
                    deeps[i] = dp;
                }
            }
        };
        let t0 = TRACED.then(std::time::Instant::now);
        for (i, p) in plan.iter().enumerate() {
            let spec = specs[i];
            match p {
                Plan::Analytic { span, heal } => {
                    dispo.proved_dead += 1;
                    let mut tr = TrialTrace::default();
                    let mut dp = DeepTrace::new();
                    let obs = TrialObservers {
                        trace: TRACED.then_some(&mut tr),
                        deep: deep.then_some(&mut dp),
                    };
                    let rec = self.ride_lane(span, *heal, spec, monitor, obs);
                    put(i, Some((rec, tr, dp)));
                }
                Plan::Simulate => {
                    dispo.simulated += 1;
                    let k = delegate_idx.binary_search(&i).expect("simulated sites delegate");
                    put(i, sub_out[k].clone());
                }
                Plan::Derived { rep, span } => match rep_result(*rep) {
                    Some((rrec, rtr, rdeep)) => {
                        dispo.class_collapsed += 1;
                        let horizon = horizon_of(spec.inject_cycle);
                        // The representative's window covers this one; a
                        // decision past this member's horizon means the
                        // member's own walk ends undecided.
                        let outcome = if rtr.detect_cycle <= horizon {
                            rrec.outcome
                        } else {
                            Outcome::GrayArea
                        };
                        let rec = TrialRecord {
                            outcome,
                            category: span.category,
                            kind: span.kind,
                            unit: span.unit,
                            inject_cycle: spec.inject_cycle,
                            valid_instructions: self.valid_at(spec.inject_cycle),
                        };
                        // The first fingerprint check after injection
                        // always sees the latent δ: divergence is immediate
                        // and attributed to the site's unit.
                        let tr = TrialTrace {
                            detect_cycle: rtr.detect_cycle.min(horizon),
                            divergence_cycle: Some(spec.inject_cycle + 1),
                            diverged_unit: span.unit,
                        };
                        // Rep and member are state-identical from the
                        // shared read on, and before it both timelines hold
                        // the single sample {injected unit}: the member's
                        // timeline is the rep's with the head pinned to its
                        // own injection and the tail clipped to its own
                        // window.
                        let dp = rdeep.derive(spec.inject_cycle + 1, horizon);
                        put(i, Some((rec, tr, dp)));
                    }
                    None => {
                        dispo.simulated += 1;
                        let k = retry_idx.binary_search(&i).expect("orphaned members retry");
                        put(i, retry_out[k].clone());
                    }
                },
            }
        }
        let mut batch = keep_classified(out, traces, deeps, faults, TRACED, deep);
        costs.prune_ns += prune_ns;
        costs.footprint_ns += footprint_ns;
        costs.footprint_events += fp.kept();
        if let Some(t0) = t0 {
            // Pass 3 is dominated by the analytic riders: monitor time on
            // the ride side of the split.
            let dt = t0.elapsed().as_nanos() as u64;
            costs.monitor_ns += dt;
            costs.ride_ns += dt;
        }
        batch.add_costs(&costs);
        (batch, dispo)
    }

    /// Runs the specs at `idx` on the sliced engine over the pruner's
    /// footprint, always traced. Returns the sub-batch (for its costs),
    /// its outputs aligned with `idx` (`None` where quarantined), and its
    /// faults re-indexed to the original specs.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn delegate(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        idx: &[usize],
        monitor: u64,
        lane_width: usize,
        panic_shim: Option<usize>,
        deep: bool,
        fp: &Footprint,
    ) -> (TracedBatch, Vec<Option<(TrialRecord, TrialTrace, DeepTrace)>>, Vec<TrialFault>) {
        let sub_specs: Vec<TrialSpec> = idx.iter().map(|&i| specs[i]).collect();
        let mut sub = self.run_trials_sliced_core::<true>(
            mask,
            &sub_specs,
            monitor,
            lane_width,
            panic_shim,
            deep,
            Some(fp),
        );
        let records = std::mem::take(&mut sub.records);
        let traces = std::mem::take(&mut sub.traces);
        let deeps = if deep {
            std::mem::take(&mut sub.deeps)
        } else {
            vec![DeepTrace::new(); records.len()]
        };
        let faults = std::mem::take(&mut sub.faults);
        let mut classified =
            records.into_iter().zip(traces).zip(deeps).map(|((r, t), d)| (r, t, d));
        let mut faulted = faults.iter().map(|f| f.index).peekable();
        let out = (0..idx.len())
            .map(|k| match faulted.peek() {
                Some(&f) if f == k => {
                    faulted.next();
                    None
                }
                _ => classified.next(),
            })
            .collect();
        let faults = faults
            .into_iter()
            .map(|f| TrialFault { index: idx[f.index], spec: f.spec, panic_msg: f.panic_msg })
            .collect();
        (sub, out, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::warm_pipeline;
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    const MASK: InjectionMask = InjectionMask::LatchesAndRams;

    /// The sliced test bed: a memory-heavy hash loop touching every
    /// loggable structure at a brisk cadence.
    fn hash_start_point(config: PipelineConfig) -> StartPoint {
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
        let p = tfsim_isa::Program::new("pruner-bed", a).with_data(0x10_0000, vec![0u8; 256]);
        let warmed = warm_pipeline(&p, config, 500);
        StartPoint::prepare(&warmed, 3_000, MASK)
    }

    /// A bed with a long serial multiply chain per iteration (~90+ cycles
    /// at 4-cycle mulq latency), so per-word access gaps comfortably clear
    /// the 64-cycle dense-check cadence and equivalence classes can form.
    fn gapped_start_point(config: PipelineConfig) -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R10, 0x9e3779b97f4a7c15u64);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 40_000);
        a.li(Reg::R9, 0);
        let top = a.here_label();
        a.stq(Reg::R10, Reg::R1, 0);
        for _ in 0..18 {
            a.mulq_i(Reg::R10, 33, Reg::R10);
        }
        a.ldq(Reg::R6, Reg::R1, 0);
        a.addq(Reg::R9, Reg::R6, Reg::R9);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let p = tfsim_isa::Program::new("pruner-gap-bed", a).with_data(0x10_0000, vec![0u8; 64]);
        let warmed = warm_pipeline(&p, config, 500);
        StartPoint::prepare(&warmed, 3_000, MASK)
    }

    #[test]
    fn pruned_matches_the_ladder_on_a_dense_sweep() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..96u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: [40, 3, 117, 3, 0, 249, 60, 117][t as usize % 8] + (t / 8),
            })
            .collect();
        let ladder = sp.run_trials(MASK, &specs, 1_200);
        let (pruned, dispo) = sp.run_trials_pruned(MASK, &specs, 1_200);
        assert_eq!(pruned.len(), ladder.len());
        for (i, (p, l)) in pruned.iter().zip(ladder.iter()).enumerate() {
            assert_eq!(p, l, "spec {i} ({:?}) diverged", specs[i]);
        }
        assert_eq!(dispo.total(), specs.len() as u64, "every site gets one disposition");
        assert!(dispo.proved_dead > 0, "the sweep should prove some sites dead: {dispo:?}");
    }

    #[test]
    fn pruned_traced_matches_the_ladder_traced() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..40u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let ladder = sp.run_trials_traced(MASK, &specs, 1_500);
        let (pruned, dispo) = sp.run_trials_pruned_traced(MASK, &specs, 1_500);
        assert_eq!(pruned.records, ladder.records);
        assert_eq!(pruned.traces, ladder.traces, "traces must match cycle-for-cycle");
        assert_eq!(pruned.faults, ladder.faults);
        assert_eq!(dispo.total(), specs.len() as u64);
    }

    #[test]
    fn pruned_is_width_independent() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..70u64)
            .map(|t| TrialSpec {
                target: (t * 7_919) % sp.bit_count(),
                inject_cycle: (t * 17) % 200,
            })
            .collect();
        let (full, full_dispo) = sp.run_trials_pruned(MASK, &specs, 1_000);
        for width in [1usize, 2, 7, 63, 64] {
            let (batch, dispo) =
                sp.run_trials_pruned_core::<false>(MASK, &specs, 1_000, width, None, false);
            assert_eq!(batch.records, full, "lane width {width} changed results");
            assert_eq!(dispo, full_dispo, "lane width {width} changed dispositions");
        }
    }

    #[test]
    fn pruned_matches_under_the_protected_config() {
        let sp = hash_start_point(PipelineConfig::protected());
        let specs: Vec<TrialSpec> = (0..60u64)
            .map(|t| TrialSpec {
                target: (t * 11_003) % sp.bit_count(),
                inject_cycle: (t * 13) % 150,
            })
            .collect();
        let ladder = sp.run_trials(MASK, &specs, 1_000);
        let (pruned, dispo) = sp.run_trials_pruned(MASK, &specs, 1_000);
        assert_eq!(pruned, ladder);
        assert_eq!(dispo.total(), specs.len() as u64);
    }

    /// Scans the golden access timelines for words whose first read sits
    /// more than 70 cycles past the previous access, then aims multiple
    /// trials into each gap: the pruner must collapse them into classes
    /// while the records stay identical to the scalar ladder's.
    #[test]
    fn pruned_collapses_classes_and_matches_the_ladder() {
        let sp = gapped_start_point(PipelineConfig::baseline());
        let timelines = crate::footprint::timelines(&sp);
        let resolver = Resolver::build(&sp.checkpoint, MASK);

        let mut specs: Vec<TrialSpec> = Vec::new();
        for span in resolver.spans() {
            let Some(unit) = span.unit else { continue };
            let Some(tl) = timelines.get(&(unit, span.unit_ord)) else { continue };
            let mut prev = 0u64;
            for &(c, is_write) in tl {
                // A read at `c` with no access since `prev`, and a gap wide
                // enough that injections at `prev` and `prev + 1` both sit
                // 64+ cycles clear of the read.
                if !is_write && c > prev + 70 {
                    specs.push(TrialSpec { target: span.start, inject_cycle: prev });
                    specs.push(TrialSpec { target: span.start, inject_cycle: prev + 1 });
                    break;
                }
                prev = c;
            }
            if specs.len() >= 16 {
                break;
            }
        }
        assert!(
            specs.len() >= 4,
            "the gapped bed should expose read-after-gap words, found {}",
            specs.len() / 2
        );

        let ladder = sp.run_trials_traced(MASK, &specs, 1_200);
        let (pruned, dispo) = sp.run_trials_pruned_traced(MASK, &specs, 1_200);
        assert_eq!(pruned.records, ladder.records);
        assert_eq!(pruned.traces, ladder.traces, "derived traces must match the scalar walk");
        assert_eq!(dispo.total(), specs.len() as u64);
        assert!(dispo.class_collapsed > 0, "gap-aimed pairs should form classes: {dispo:?}");

        // Deep mode on the same bed: derived timelines must equal the
        // scalar walk's sample-for-sample, through the class collapse.
        let deep_ladder = sp.run_trials_deep_traced(MASK, &specs, 1_200);
        let (deep_pruned, deep_dispo) = sp.run_trials_pruned_deep_traced(MASK, &specs, 1_200);
        assert_eq!(deep_pruned.records, ladder.records);
        assert_eq!(deep_pruned.traces, ladder.traces);
        assert_eq!(deep_pruned.deeps, deep_ladder.deeps, "derived timelines must match");
        assert_eq!(deep_dispo, dispo, "deep mode must not change dispositions");
    }

    #[test]
    fn pruned_deep_traced_matches_the_ladder_deep_traced() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..40u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let ladder = sp.run_trials_deep_traced(MASK, &specs, 1_500);
        let (pruned, dispo) = sp.run_trials_pruned_deep_traced(MASK, &specs, 1_500);
        assert_eq!(pruned.records, ladder.records);
        assert_eq!(pruned.traces, ladder.traces);
        assert_eq!(pruned.deeps, ladder.deeps, "timelines must match sample-for-sample");
        assert!(pruned.deeps.iter().any(|d| !d.is_empty()), "sweep should see divergence");
        assert_eq!(dispo.total(), specs.len() as u64);
    }

    /// The forced-panic shim flows through the delegate remapping: the
    /// quarantined fault surfaces under its original spec index and every
    /// other record is unperturbed.
    #[test]
    fn pruned_panic_shim_quarantines_the_original_index() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..24u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: (t * 19) % 160,
            })
            .collect();
        let shim = 13usize;
        let (batch, dispo) =
            sp.run_trials_pruned_core::<false>(MASK, &specs, 1_000, 64, Some(shim), false);
        assert_eq!(batch.faults.len(), 1);
        assert_eq!(batch.faults[0].index, shim);
        assert_eq!(batch.faults[0].spec, specs[shim]);
        assert_eq!(batch.records.len(), specs.len() - 1);
        assert_eq!(dispo.total(), specs.len() as u64);

        let clean = sp.run_trials(MASK, &specs, 1_000);
        let mut expected = clean.clone();
        expected.remove(shim);
        assert_eq!(batch.records, expected, "surviving records are unperturbed by the shim");
    }
}

