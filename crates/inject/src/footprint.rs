//! The golden access footprint the analytic masking pruner reads, resolved
//! inside the golden walk (`crate::trial::walk`).
//!
//! The pruner asks one question per fault site: what is the first access
//! to the faulted word strictly after the injection cycle, inside the
//! site's monitoring window? A read consumes the fault, a
//! content-independent overwrite erases it, and no access at all leaves the
//! word dead for the whole window. A campaign task holds a few hundred
//! sites per start point, so the walk keeps exactly those answers rather
//! than whole-run timelines of every word: it watches only the words the
//! sites hit, resolves each site at the first access after its injection
//! cycle, and tracks no further than the last site's window.
//!
//! Words of the units declaring [`Loggability::Core`] (load/store queues,
//! physical register file, miss handling registers) obey an exact write
//! contract: every content-independent full-word overwrite logs as a
//! write. The other loggable units (fetch queue and front-end latches,
//! rename maps and free lists, scheduler, reorder buffer, functional units)
//! obey a deliberately weaker one: a structure may under-claim a write by
//! logging a read instead (the ROB's `entry_mut` does), which can only
//! demote a proved-dead site to a simulated one — never the reverse. What
//! would be unsound, and what the `access_ordinals` pipeline tests rule
//! out, is a tracked word changing with no event at all.
//!
//! [`Loggability::Core`]: tfsim_bitstate::Loggability::Core

use tfsim_bitstate::{
    Category, FieldMeta, InjectionMask, StateVisitor, StorageKind, UnitId, VisitState,
};
use tfsim_uarch::Pipeline;

/// Marks an unwatched word in [`Footprint`]'s lookup tables.
const UNWATCHED: u32 = u32::MAX;

/// One watched word and its sites.
#[derive(Debug)]
struct Word {
    unit: UnitId,
    ord: u32,
    /// `(inject step, first access)` per distinct injection step,
    /// ascending; the access is `(step, is_write)`.
    sites: Vec<(u64, Option<(u64, bool)>)>,
}

/// The first golden access to each fault site's word after its injection,
/// resolved by the walk that [`Footprint::observe`]s each step.
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// Ascending by `(unit, ord)`.
    words: Vec<Word>,
    /// Per unit, the word index of each watched ordinal.
    watch: [Vec<u32>; UnitId::COUNT],
    /// Per word, the first site not yet resolved.
    next: Vec<usize>,
    /// Per unit, the words with sites still open. A unit whose words are
    /// all resolved stops logging.
    open: [usize; UnitId::COUNT],
    /// The last step any site's window reaches.
    last: u64,
}

impl Footprint {
    /// Watches `sites`, each `(unit, ord, inject, end)`: the word
    /// `(unit, ord)` faulted after walk step `inject`, monitored through
    /// step `end`.
    pub(crate) fn new(sites: &[(UnitId, u32, u64, u64)]) -> Footprint {
        let mut keyed: Vec<(usize, u32, u64)> =
            sites.iter().map(|&(unit, ord, c, _)| (unit.index(), ord, c)).collect();
        keyed.sort_unstable();
        keyed.dedup();
        let mut words: Vec<Word> = Vec::new();
        for (u, ord, c) in keyed {
            match words.last_mut() {
                Some(w) if w.unit.index() == u && w.ord == ord => w.sites.push((c, None)),
                _ => words.push(Word { unit: UnitId::ALL[u], ord, sites: vec![(c, None)] }),
            }
        }
        let mut watch: [Vec<u32>; UnitId::COUNT] = Default::default();
        let mut open = [0usize; UnitId::COUNT];
        for (w, word) in words.iter().enumerate() {
            let table = &mut watch[word.unit.index()];
            if table.len() <= word.ord as usize {
                table.resize(word.ord as usize + 1, UNWATCHED);
            }
            table[word.ord as usize] = w as u32;
            open[word.unit.index()] += 1;
        }
        let last = sites.iter().map(|s| s.3).max().unwrap_or(0);
        Footprint { next: vec![0; words.len()], words, watch, open, last }
    }

    /// The units a walk must track: those with sites still open.
    pub(crate) fn tracked(&self) -> impl Iterator<Item = UnitId> + '_ {
        UnitId::ALL.into_iter().filter(|u| self.open[u.index()] > 0)
    }

    /// Whether every site is resolved (or its window is over).
    pub(crate) fn done(&self) -> bool {
        self.open.iter().all(|&n| n == 0)
    }

    /// Resolves the sites that the accesses of walk step `step` reach:
    /// every site injected before the step whose word it accesses. The
    /// first access of a step decides, so read-before-write inside one
    /// step counts as a read. Retunes `golden`'s tracking as units close,
    /// and turns it off once the last window is over.
    pub(crate) fn observe(&mut self, golden: &mut Pipeline, step: u64) {
        if self.done() {
            return;
        }
        let Footprint { words, watch, next, open, last } = self;
        let mut closed = false;
        golden.drain_accesses(|unit: UnitId, ord: u32, is_write: bool| {
            let Some(&w) = watch[unit.index()].get(ord as usize) else { return };
            if w == UNWATCHED {
                return;
            }
            let (word, n) = (&mut words[w as usize], &mut next[w as usize]);
            // Every site injected before this step sees this as its first
            // access; later accesses in the same step find no such site
            // left.
            while let Some((_, first)) = word.sites.get_mut(*n).filter(|s| s.0 < step) {
                *first = Some((step, is_write));
                *n += 1;
            }
            if *n == word.sites.len() {
                watch[unit.index()][ord as usize] = UNWATCHED;
                open[unit.index()] -= 1;
                closed |= open[unit.index()] == 0;
            }
        });
        if step >= *last {
            *open = [0; UnitId::COUNT];
            closed = true;
        }
        if closed {
            golden.set_access_tracking(self.tracked());
        }
    }

    /// The first access to `(unit, ord)` in `(inject, end]`, the window of
    /// a site injected at walk step `inject`, as `(step, is_write)`; `None`
    /// when the word is dead for the whole window.
    ///
    /// # Panics
    ///
    /// Panics if the site was not among those the footprint watched.
    pub(crate) fn first_access(
        &self,
        unit: UnitId,
        ord: u32,
        inject: u64,
        end: u64,
    ) -> Option<(u64, bool)> {
        let w = self
            .words
            .binary_search_by_key(&(unit.index(), ord), |w| (w.unit.index(), w.ord))
            .expect("site word watched by the footprint");
        let sites = &self.words[w].sites;
        let k = sites
            .binary_search_by_key(&inject, |s| s.0)
            .expect("site cycle watched by the footprint");
        sites[k].1.filter(|&(c, _)| c <= end)
    }
}

/// Where an eligible bit lives: enough to rebuild a `TrialRecord`'s site
/// attribution and to look the word up in the footprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) category: Category,
    pub(crate) kind: StorageKind,
    /// Enclosing fingerprint unit, if any.
    pub(crate) unit: Option<UnitId>,
    /// Visit-order field ordinal within the unit (what the drain callbacks
    /// report and the footprint is indexed by).
    pub(crate) unit_ord: u32,
}

/// Finds the eligible-bit spans holding a set of targets in one walk of a
/// machine, in visit order. The within-unit ordinal counts *every* visited
/// field (eligible or not), matching the drain ordinal space — pinned by
/// the `access_ordinals` tests in the pipeline crate.
struct SpanCollector<'a> {
    mask: InjectionMask,
    pos: u64,
    unit: Option<UnitId>,
    ord: u32,
    targets: &'a [u64],
    /// Indices into `targets`, ascending by target; `next` is the first
    /// one not yet resolved.
    order: Vec<usize>,
    next: usize,
    spans: Vec<Option<Span>>,
}

impl StateVisitor for SpanCollector<'_> {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        if self.mask.eligible(meta) {
            let end = self.pos + width as u64;
            while let Some(&i) = self.order.get(self.next).filter(|&&i| self.targets[i] < end) {
                self.spans[i] = Some(Span {
                    category: meta.category,
                    kind: meta.kind,
                    unit: self.unit,
                    unit_ord: self.ord,
                });
                self.next += 1;
            }
            self.pos = end;
        }
        self.ord += 1;
    }

    // The default `array` forwards entry-by-entry to `field`, which is
    // exactly the per-word granularity the footprint uses. Do not override.

    fn enter_unit(&mut self, unit: UnitId, _digest: Option<u128>) -> bool {
        self.unit = Some(unit);
        self.ord = 0;
        true
    }

    fn exit_unit(&mut self, _unit: UnitId) {
        self.unit = None;
    }
}

/// The spans holding eligible bits `targets` under `mask`, from one walk of
/// `machine`: entry `i` is the span containing `targets[i]`, or `None` when
/// that target is out of range (the scalar path then reproduces the naive
/// path's behaviour for such targets). The walk only observes: it leaves
/// the machine as it found it.
pub(crate) fn resolve_spans(
    machine: &mut Pipeline,
    mask: InjectionMask,
    targets: &[u64],
) -> Vec<Option<Span>> {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_unstable_by_key(|&i| targets[i]);
    let mut c = SpanCollector {
        mask,
        pos: 0,
        unit: None,
        ord: 0,
        targets,
        order,
        next: 0,
        spans: vec![None; targets.len()],
    };
    machine.visit_state(&mut c);
    c.spans
}

/// Reference for tests: every word's whole-run access timeline (first
/// access per cycle, `(cycle, is_write)`), from a plain tracked replay.
#[cfg(test)]
pub(crate) fn timelines(
    sp: &crate::trial::StartPoint,
) -> std::collections::BTreeMap<(UnitId, u32), Vec<(u64, bool)>> {
    let mut golden = sp.checkpoint.clone();
    golden.set_access_tracking(UnitId::ALL);
    let mut out = std::collections::BTreeMap::<_, Vec<(u64, bool)>>::new();
    for step in 1..=sp.horizon {
        golden.step();
        golden.drain_accesses(|unit: UnitId, ord: u32, w: bool| {
            let tl = out.entry((unit, ord)).or_default();
            if tl.last().is_none_or(|&(c, _)| c != step) {
                tl.push((step, w));
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{walk, warm_pipeline, StartPoint, Stops};
    use tfsim_bitstate::Loggability;
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    fn start_point(config: PipelineConfig) -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 4_000);
        let top = a.here_label();
        a.stq(Reg::R7, Reg::R1, 0);
        a.ldq(Reg::R6, Reg::R1, 0);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.halt();
        let p = tfsim_isa::Program::new("footprint-bed", a)
            .with_data(0x10_0000, vec![0u8; 64]);
        let warmed = warm_pipeline(&p, config, 200);
        StartPoint::prepare(&warmed, 1_000, InjectionMask::LatchesAndRams)
    }

    #[test]
    fn first_access_is_the_first_event_inside_the_window() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let sp = start_point(config);
            let reference = timelines(&sp);
            let monitor = 300;
            // Sites on a spread of logged words (every unit that logs) at
            // injection cycles straddling their accesses, plus a
            // never-accessed tracked word.
            let mut sites = Vec::new();
            for (i, (&(unit, ord), tl)) in reference.iter().enumerate().step_by(7) {
                let c = tl[i % tl.len()].0;
                for inject in [c.saturating_sub(1), c, c + 3, 0, sp.horizon - 5] {
                    sites.push((unit, ord, inject));
                }
            }
            let idle = (0..4096)
                .find(|&o| {
                    sp.checkpoint.access_tracked(UnitId::Regfile, o)
                        && !reference.contains_key(&(UnitId::Regfile, o))
                })
                .expect("an idle register-file word");
            sites.push((UnitId::Regfile, idle, 10));
            let window_end = |inject: u64| sp.horizon.min(inject + monitor);
            let watched: Vec<_> =
                sites.iter().map(|&(u, o, c)| (u, o, c, window_end(c))).collect();
            let mut fp = Footprint::new(&watched);
            let mask = InjectionMask::LatchesAndRams;
            let stops = Stops { points: &[(0, &[])], horizon: sp.horizon, mask };
            walk(sp.checkpoint.clone(), stops, &mut fp);
            for &(unit, ord, inject) in &sites {
                let expected = reference.get(&(unit, ord)).and_then(|tl| {
                    tl.iter()
                        .copied()
                        .find(|&(c, _)| c > inject)
                        .filter(|&(c, _)| c <= window_end(inject))
                });
                assert_eq!(
                    fp.first_access(unit, ord, inject, window_end(inject)),
                    expected,
                    "{unit:?} ord {ord} inject {inject} ({config:?})"
                );
            }
            let mut distinct = sites.clone();
            distinct.sort_by_key(|&(u, o, c)| (u.index(), o, c));
            distinct.dedup();
            let kept = distinct
                .iter()
                .filter(|&&(u, o, c)| fp.first_access(u, o, c, window_end(c)).is_some())
                .count();
            assert!(kept > 0 && kept < distinct.len(), "{kept} of {}", distinct.len());
        }
    }

    #[test]
    fn spans_resolve_every_target_in_one_walk() {
        let sp = start_point(PipelineConfig::baseline());
        // Each target, in any order and repeated, resolves to the field the
        // flip lands in; the bit one past the end resolves to nothing.
        let bits = sp.bit_count();
        let mut targets: Vec<u64> = (0..bits).step_by(331).flat_map(|t| [t + 1, t]).collect();
        targets.push(targets[3]);
        targets.push(bits);
        let mask = InjectionMask::LatchesAndRams;
        let spans = resolve_spans(&mut sp.checkpoint.clone(), mask, &targets);
        for (&target, span) in targets.iter().zip(&spans) {
            let mut flip = tfsim_bitstate::FlipBit::new(mask, target);
            sp.checkpoint.clone().visit_state(&mut flip);
            assert_eq!(
                span.map(|s| (s.category, s.kind, s.unit)),
                flip.flipped.map(|h| (h.category, h.kind, h.unit)),
                "target {target} of {bits}"
            );
        }
        assert!(spans.last().is_some_and(Option::is_none));
    }

    #[test]
    fn logged_words_are_tracked_and_every_loggable_unit_logs() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let sp = start_point(config);
            let reference = timelines(&sp);
            // Any word with events must be claimed trackable (the converse
            // does not hold: a tracked word the run never touches has no
            // events).
            for &(unit, ord) in reference.keys() {
                assert!(sp.checkpoint.access_tracked(unit, ord), "{unit:?} ord {ord} untracked");
            }
            for unit in UnitId::ALL {
                let logged = reference.keys().any(|&(u, _)| u == unit);
                match unit.loggability() {
                    Loggability::Core | Loggability::Extended => {
                        assert!(logged, "{unit:?} never logged")
                    }
                    Loggability::Shadow => {
                        assert!(!logged, "{unit:?} must not log")
                    }
                }
            }
        }
    }
}
