//! The analytic masking pruner: dead-window proofs over the batch's golden
//! access footprint, and the golden view that lets the trial engine
//! (`StartPoint::batch`) classify the proved-dead sites without stepping
//! them.
//!
//! A single-bit fault is a difference δ against the golden run. As long as
//! no computation consumes the faulted word, the trial's observable
//! behaviour — its retire stream, its halt, its per-cycle retirement
//! pattern — is the golden run's, already recorded by the golden walk
//! (`crate::trial::walk`). On campaign-shaped batches most sites land in
//! idle words of the big RAMs, and simulating them grinds a full
//! monitoring window to conclude nothing happened.
//!
//! The pruner runs once per batch, before any trial, on the access
//! footprint of the batch's sites (`crate::footprint`: each site's first
//! access to its word after injection, for every loggable structure). The
//! footprint is resolved inside the golden walk that hashes the batch's
//! rows: a campaign's walk resolves the footprints of all its start points
//! on one benchmark, and a standalone batch walks its start point once
//! more with its plan. Every site gets exactly one of two dispositions:
//!
//! * **Proved dead** — the site's machine would replay the golden run
//!   until the trial is decided or the fault heals:
//!   - no access to the word in `(inject, horizon]` (a *dead window*: the
//!     word is never read again before the window closes),
//!   - the first access is a content-independent full-word overwrite (the
//!     word dies by being rewritten before its next read), or
//!   - the first access is a read, but the decision loop over the site's
//!     golden view decides the trial (lock, halt) strictly before that
//!     read consumes the fault.
//!
//!   These sites are classified by the decision loop that steps the others
//!   (`StartPoint::decide`), run over their [`Golden`] view: the golden
//!   run's retirements and halt (it never flushes protectively), and µArch
//!   checks that match from the heal on. No machine is built.
//! * **Simulated** — everything else (sites on untracked words, targets
//!   outside any unit, faults the golden run reads before any decision)
//!   is stepped on the snapshot ladder in the same batch, at the same
//!   trace level.
//!
//! # Proof obligations
//!
//! The dispositions are sound because (enforced by the `access_ordinals`
//! pipeline tests and the engine's property tests):
//!
//! 1. *Reads are never under-logged* in any structure: a word with no read
//!    event in a window really was not consumed there, so the machine
//!    replays the golden run and the golden view's record is exact. A
//!    spurious logged read only demotes a site to simulated.
//! 2. *Logged writes are full-word and content-independent*: a heal event
//!    restores the golden value no matter the δ. Read-modify-write sites
//!    log the read first (per-cycle dedup keeps the first event), and
//!    structures outside the core set may under-claim a write by logging a
//!    read instead (the ROB does) — both only demote a site to simulated,
//!    never the reverse.
//! 3. *Observers never log.* Fingerprint walks, state dumps, invariant
//!    checks and census visitors read state without consuming it
//!    architecturally.
//! 4. δ ≠ 0 in a tracked word keeps that unit's 128-bit subhash diverged —
//!    the same collision exposure the root-fingerprint equality check
//!    always had.

use tfsim_bitstate::{Category, InjectionMask, StorageKind, UnitId};
use tfsim_uarch::Pipeline;

use crate::footprint::{resolve_spans, Footprint, Span};
use crate::trial::{window_end, Run, Seen, StartPoint, Step, TrialSpec};

/// A batch's fault sites, one per spec: the span the target lands in and
/// the unit whose tracked word the footprint speaks for, or `None` for a
/// site the footprint cannot speak for (it is simulated).
pub(crate) type Sites = Vec<Option<(Span, UnitId)>>;

/// The sites of `specs` against a start point of `horizon` cycles, from
/// one state walk of `machine` (any machine of the campaign's pipeline
/// config: the walk reads the layout, never the contents). Excluded, and
/// so simulated: the `panic_shim` trial, injections past the horizon,
/// targets outside any unit, and untracked words.
pub(crate) fn fault_sites(
    machine: &mut Pipeline,
    horizon: u64,
    mask: InjectionMask,
    specs: &[TrialSpec],
    panic_shim: Option<usize>,
) -> Sites {
    let targets: Vec<u64> = specs.iter().map(|s| s.target).collect();
    resolve_spans(machine, mask, &targets)
        .into_iter()
        .zip(specs)
        .enumerate()
        .map(|(i, (span, spec))| {
            if panic_shim == Some(i) || spec.inject_cycle > horizon {
                return None;
            }
            let span = span?;
            let unit = span.unit.filter(|&u| machine.access_tracked(u, span.unit_ord))?;
            Some((span, unit))
        })
        .collect()
}

/// A site's disposition: `Some((span, heal))` when proved dead (with the
/// cycle an overwrite heals it, if any), `None` when it must be simulated.
pub(crate) type Proof = Option<(Span, Option<u64>)>;

/// What the footprint must watch for `sites` of a start point `offset`
/// steps into the walk: `(unit, ord, inject, end)` in walk steps, where
/// `end` closes the site's window at the start point's horizon.
pub(crate) fn watch_list<'a>(
    sites: &'a Sites,
    specs: &'a [TrialSpec],
    offset: u64,
    horizon: u64,
    monitor: u64,
) -> impl Iterator<Item = (UnitId, u32, u64, u64)> + 'a {
    sites.iter().zip(specs).filter_map(move |(site, spec)| {
        let (span, unit) = (*site)?;
        let c = spec.inject_cycle;
        Some((unit, span.unit_ord, offset + c, offset + window_end(horizon, c, monitor)))
    })
}

/// The golden view of a proved-dead site: the decision loop's view of a
/// trial read off the golden run's aggregates instead of a stepped machine.
/// Valid because the site's machine, were it stepped, would replay the
/// golden run exactly (the δ sits in a word nothing reads before it is
/// possibly overwritten at `heal`), so it retires the golden records
/// verbatim and halts with the golden exit code, and its state differs from
/// golden in the site's unit alone until it heals.
pub(crate) struct Golden<'a> {
    sp: &'a StartPoint,
    span: &'a Span,
    /// Steps since the checkpoint.
    at: u64,
    /// The step at which an overwrite heals the site, if one does.
    heal: Option<u64>,
}

impl<'a> Golden<'a> {
    /// The site at `span` injected at step `inject`, healed at `heal`.
    pub(crate) fn new(sp: &'a StartPoint, span: &'a Span, inject: u64, heal: Option<u64>) -> Self {
        Golden { sp, span, at: inject, heal }
    }

    /// The units the site differs from golden in: its own until healed.
    fn unit(&self) -> u16 {
        match self.span.unit {
            Some(u) if self.heal.is_none_or(|hc| self.at < hc) => 1 << u.index(),
            _ => 0,
        }
    }
}

impl Run for Golden<'_> {
    fn site(&self) -> (Category, StorageKind, Option<UnitId>) {
        (self.span.category, self.span.kind, self.span.unit)
    }

    fn running(&self) -> bool {
        // The golden run raises no exceptions (the walk forbids them), so
        // only the halt ends it.
        self.sp.halted_at.is_none_or(|(hc, _)| self.at < hc)
    }

    fn step(&mut self) -> Step<'_> {
        let sp = self.sp;
        let retired = sp.instret(self.at) as usize..sp.instret(self.at + 1) as usize;
        self.at += 1;
        Step {
            retired: &sp.records()[retired],
            // The golden run never flushes protectively (the walk forbids
            // it).
            protective_flush: false,
            stop: sp.halted_at.filter(|&(hc, _)| hc == self.at).map(|(_, code)| Ok(code)),
        }
    }

    fn matches(&mut self, _step: u64) -> bool {
        self.heal.is_some_and(|hc| self.at >= hc)
    }

    fn suspect(&self) -> Option<UnitId> {
        self.span.unit
    }

    fn diverged(&mut self, _step: u64) -> u16 {
        self.unit()
    }

    fn seen(&mut self) -> Seen {
        Seen::Diverged(self.unit())
    }
}

impl StartPoint {
    /// The disposition of each spec's site. `footprint` holds the sites'
    /// first accesses in walk steps, from the walk that produced this start
    /// point. Also returns the number of distinct first accesses the
    /// footprint kept.
    pub(crate) fn prove(
        &self,
        specs: &[TrialSpec],
        sites: &Sites,
        footprint: &Footprint,
        monitor: u64,
    ) -> (Vec<Proof>, u64) {
        let offset = self.offset;
        let mut kept = Vec::new();
        let proved = specs
            .iter()
            .zip(sites)
            .map(|(spec, site)| {
                let (span, unit) = (*site)?;
                let c = spec.inject_cycle;
                let end = offset + window_end(self.horizon, c, monitor);
                let first = footprint
                    .first_access(unit, span.unit_ord, offset + c, end)
                    .map(|(a, w)| (a - offset, w));
                if first.is_some() {
                    kept.push((unit.index(), span.unit_ord, c));
                }
                match first {
                    // Dead window: never accessed again inside the window.
                    None => Some((span, None)),
                    // Dead window: overwritten before its next read.
                    Some((hc, true)) => Some((span, Some(hc))),
                    // Decided (locked or halted) strictly before the read
                    // consumes the fault: the golden view's decision loop,
                    // run up to the read, reaches it. Its checks cannot
                    // decide there, since the δ is still latent.
                    Some((r, false)) => {
                        let mut golden = Golden::new(self, &span, c, None);
                        let decided = self.decide(&mut golden, c, r - 1, None, None).decided;
                        decided.then_some((span, None))
                    }
                }
            })
            .collect();
        kept.sort_unstable();
        kept.dedup();
        (proved, kept.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{walk, warm_pipeline, Stops, Trace, TracedBatch};
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    const MASK: InjectionMask = InjectionMask::LatchesAndRams;

    /// A memory-heavy hash loop touching every loggable structure at a
    /// brisk cadence.
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

    /// The batch with every site simulated: the snapshot ladder alone, which
    /// the analytic rider must reproduce.
    fn ladder(sp: &StartPoint, specs: &[TrialSpec], monitor: u64, trace: Trace) -> TracedBatch {
        let none: Sites = vec![None; specs.len()];
        let stops = Stops { points: &[(0, specs)], horizon: sp.horizon, mask: MASK };
        let walked = walk(sp.checkpoint.clone(), stops, &mut Footprint::default());
        let sp = &walked.points[0];
        let (batch, dispo) =
            sp.batch(MASK, specs, monitor, trace, None, (&none, &Footprint::default()));
        assert_eq!(dispo.simulated, specs.len() as u64, "no site is provable");
        batch
    }

    /// The engine against its ladder alone at `trace`: records, traces,
    /// timelines and quarantines equal, with some sites proved dead.
    fn assert_rider_equals_ladder(sp: &StartPoint, specs: &[TrialSpec], monitor: u64, trace: Trace) {
        let (engine, dispo) = sp.run_batch(MASK, specs, monitor, trace);
        let ladder = ladder(sp, specs, monitor, trace);
        for (i, (e, l)) in engine.records.iter().zip(&ladder.records).enumerate() {
            assert_eq!(e, l, "spec {i} ({:?}) diverged", specs[i]);
        }
        assert_eq!(engine.records, ladder.records);
        for (i, (e, l)) in engine.traces.iter().zip(&ladder.traces).enumerate() {
            assert_eq!(e, l, "spec {i} ({:?}): traces must match cycle-for-cycle", specs[i]);
        }
        assert_eq!(engine.traces, ladder.traces);
        for (i, (e, l)) in engine.deeps.iter().zip(&ladder.deeps).enumerate() {
            assert_eq!(e, l, "spec {i} ({:?}): timelines must match sample-for-sample", specs[i]);
        }
        assert_eq!(engine.deeps, ladder.deeps);
        assert_eq!(engine.faults, ladder.faults);
        assert_eq!(dispo.total(), specs.len() as u64, "every site gets one disposition");
        assert!(dispo.proved_dead > 0, "the sweep should prove some sites dead: {dispo:?}");
    }


    /// The rider against stepping on every workload under both pipeline
    /// configs, traced and deep-traced: 16 sites striding across the
    /// eligible bits (a different phase per workload), injected over the
    /// first 100 cycles, each ridden or stepped for up to 400.
    #[test]
    fn rider_matches_stepping_on_every_workload() {
        const MONITOR: u64 = 400;
        for (k, (_, _, warmed)) in crate::trial::tests::warmed_workloads().iter().enumerate() {
            let sp = StartPoint::prepare(warmed, 100 + MONITOR, MASK);
            let bits = sp.bit_count();
            let specs: Vec<TrialSpec> = (0..16u64)
                .map(|t| TrialSpec {
                    target: (t * bits + k as u64 * 7_919) / 16 % bits,
                    inject_cycle: (t * 37 + k as u64) % 100,
                })
                .collect();
            for trace in [Trace::On, Trace::Deep] {
                assert_rider_equals_ladder(&sp, &specs, MONITOR, trace);
            }
        }
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
        assert_rider_equals_ladder(&sp, &specs, 1_200, Trace::Off);
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
        assert_rider_equals_ladder(&sp, &specs, 1_500, Trace::On);
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
        assert_rider_equals_ladder(&sp, &specs, 1_000, Trace::Off);
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
        assert_rider_equals_ladder(&sp, &specs, 1_500, Trace::Deep);
        let (deep, _) = sp.run_batch(MASK, &specs, 1_500, Trace::Deep);
        assert!(deep.deeps.iter().any(|d| !d.is_empty()), "sweep should see divergence");
    }

    /// Every eligible field of `cpu` in visit order: `(unit, ordinal within
    /// the unit, first eligible bit, category, value)`.
    fn eligible_fields(
        cpu: &mut tfsim_uarch::Pipeline,
    ) -> Vec<(Option<UnitId>, u32, u64, tfsim_bitstate::Category, u64)> {
        use tfsim_bitstate::{FieldMeta, StateVisitor, VisitState};
        #[derive(Default)]
        struct Fields {
            pos: u64,
            unit: Option<UnitId>,
            ord: u32,
            out: Vec<(Option<UnitId>, u32, u64, tfsim_bitstate::Category, u64)>,
        }
        impl StateVisitor for Fields {
            fn field(&mut self, meta: FieldMeta, width: u32, bits: &mut u64) {
                if MASK.eligible(meta) {
                    self.out.push((self.unit, self.ord, self.pos, meta.category, *bits));
                    self.pos += width as u64;
                }
                self.ord += 1;
            }
            fn enter_unit(&mut self, unit: UnitId, _digest: Option<u128>) -> bool {
                (self.unit, self.ord) = (Some(unit), 0);
                true
            }
            fn exit_unit(&mut self, _unit: UnitId) {
                self.unit = None;
            }
        }
        let mut f = Fields::default();
        cpu.visit_state(&mut f);
        f.out
    }

    /// Faults in miss handling register addresses: the load scan for an
    /// outstanding fill compares an entry's address only while the entry is
    /// valid, so a flipped address in an idle entry is dead until the next
    /// allocation overwrites it, while a live entry's address is read by
    /// the next load that scans it.
    #[test]
    fn idle_mhr_address_faults_are_proved_dead() {
        // A load stream striding one cache line per iteration through 256
        // KiB: every load misses, so fills overlap while most entries idle.
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 4_000);
        let top = a.here_label();
        a.ldq(Reg::R6, Reg::R1, 0);
        a.addq(Reg::R9, Reg::R6, Reg::R9);
        a.addq_i(Reg::R1, 64, Reg::R1);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.halt();
        let p = tfsim_isa::Program::new("mhr-bed", a).with_data(0x10_0000, vec![0u8; 4_000 * 64]);
        let warmed = warm_pipeline(&p, PipelineConfig::baseline(), 300);
        let sp = StartPoint::prepare(&warmed, 1_500, MASK);

        // MHR entries as (valid, first eligible bit of the address): each
        // entry's address field follows its valid bit in the ArchCtrl walk.
        let mhrs = |cpu: &mut tfsim_uarch::Pipeline| -> Vec<(bool, u64)> {
            let fields = eligible_fields(cpu);
            let arch: Vec<_> = fields.iter().filter(|f| f.0 == Some(UnitId::ArchCtrl)).collect();
            (1..arch.len())
                .filter(|&k| arch[k].3 == tfsim_bitstate::Category::Addr)
                .map(|k| (arch[k - 1].4 == 1, arch[k].2))
                .collect()
        };
        // The first cycle at which an entry has just allocated.
        let mut golden = sp.checkpoint.clone();
        let mut before = mhrs(&mut golden);
        assert_eq!(before.len(), 16, "sixteen MHR entries");
        let (inject, live, idle) = (1..200u64)
            .find_map(|c| {
                golden.step();
                let now = mhrs(&mut golden);
                let fresh = (0..now.len()).find(|&e| now[e].0 && !before[e].0);
                let idle: Vec<u64> = now.iter().filter(|e| !e.0).map(|e| e.1).collect();
                before = now.clone();
                fresh.map(|e| (c, now[e].1, idle))
            })
            .expect("the load stream allocates an MHR");
        assert!(idle.len() >= 4, "most entries idle: {idle:?}");

        let classify = |target: u64, monitor: u64| {
            let spec = TrialSpec { target, inject_cycle: inject };
            let (pruned, dispo) = sp.run_batch(MASK, &[spec], monitor, Trace::Off);
            let alone = ladder(&sp, &[spec], monitor, Trace::Off);
            assert_eq!(pruned.records, alone.records, "target {target}");
            let naive = sp.run_trial(MASK, target, inject, monitor);
            assert_eq!(pruned.records, [naive], "target {target}");
            dispo
        };
        // The live entry's address is read by the next load's scan, before
        // its fill completes (a window shorter than the miss latency).
        for monitor in [6, 1_000] {
            let dispo = classify(live, monitor);
            assert_eq!(dispo.simulated, 1, "live entry address, monitor {monitor}");
        }
        // Idle entries' addresses are never read: proved dead, whether
        // a later allocation heals them or the window closes first.
        for &target in idle.iter().step_by(3) {
            for monitor in [6, 1_000] {
                let dispo = classify(target, monitor);
                assert_eq!(dispo.proved_dead, 1, "idle entry address, monitor {monitor}");
            }
        }
    }

    /// The forced-panic shim's spec is stepped, never proved: its fault
    /// surfaces under its input index and every other record is
    /// unperturbed.
    #[test]
    fn pruned_panic_shim_quarantines_the_original_index() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..24u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: (t * 19) % 160,
            })
            .collect();
        // The campaign's path: sites and footprint from the walk that
        // hashes the plan's rows.
        let shim = 13usize;
        let mut golden = sp.checkpoint.clone();
        let sites = fault_sites(&mut golden, sp.horizon, MASK, &specs, Some(shim));
        let watched: Vec<_> = watch_list(&sites, &specs, 0, sp.horizon, 1_000).collect();
        let mut footprint = Footprint::new(&watched);
        let stops = Stops { points: &[(0, &specs)], horizon: sp.horizon, mask: MASK };
        let alone = walk(golden, stops, &mut footprint).points.remove(0);
        let walked = (&sites, &footprint);
        let (batch, dispo) = alone.batch(MASK, &specs, 1_000, Trace::Off, Some(shim), walked);
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

