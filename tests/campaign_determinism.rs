//! Campaign determinism: a campaign's outcome counts must be a pure
//! function of its `CampaignConfig` — in particular of the seed — and
//! must not depend on the worker-thread count or on work-stealing order.
//! This is the classic parallel-RNG partitioning bug: if trial randomness
//! were drawn from a shared (or scheduling-dependent) generator, the
//! paper's tables would change from run to run and machine to machine.
//!
//! The campaign framework avoids it by giving every
//! `(benchmark, start point)` task its own PRNG substream of the campaign
//! seed (`tfsim_check::Rng::from_seed_stream`); these tests pin that
//! contract.

use std::collections::BTreeMap;

use tfsim::bitstate::{Category, StorageKind};
use tfsim::inject::{run_campaign_on, CampaignConfig, CampaignResult, OutcomeCounts};
use tfsim::workloads::{self, Workload};

fn config(threads: usize) -> CampaignConfig {
    let mut config = CampaignConfig::quick(0xD5_2004);
    config.start_points = 2;
    config.trials_per_start_point = 12;
    config.monitor_cycles = 800;
    config.scale = 1;
    config.threads = threads;
    config
}

fn run_with(threads: usize) -> CampaignResult {
    // Two workloads x two start points = four tasks, so 2 and N threads
    // genuinely contend for the work list.
    let workloads: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "vpr-like")
        .collect();
    run_campaign_on(&config(threads), &workloads)
}

/// Every per-outcome counter a campaign reports, flattened.
type Census = (
    Vec<(String, OutcomeCounts)>,
    BTreeMap<Category, OutcomeCounts>,
    BTreeMap<(Category, StorageKind), OutcomeCounts>,
);

/// Flattens every per-outcome counter a campaign reports, so equality
/// means *byte-identical counts everywhere*, not just equal totals.
fn outcome_census(r: &CampaignResult) -> Census {
    (
        r.benchmarks.iter().map(|b| (b.name.clone(), b.counts)).collect(),
        r.by_category.clone(),
        r.by_category_kind.clone(),
    )
}

#[test]
fn outcome_counts_identical_across_1_2_and_n_threads() {
    let one = run_with(1);
    let two = run_with(2);
    let all = run_with(0); // 0 = available_parallelism()

    let c1 = outcome_census(&one);
    let c2 = outcome_census(&two);
    let cn = outcome_census(&all);
    assert_eq!(c1, c2, "1-thread vs 2-thread campaigns diverged");
    assert_eq!(c1, cn, "1-thread vs available_parallelism() campaigns diverged");

    // The scatter points (sorted by the framework) must agree too.
    assert_eq!(one.scatter.len(), two.scatter.len());
    for (a, b) in one.scatter.iter().zip(two.scatter.iter()) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.valid_instructions.to_bits(), b.valid_instructions.to_bits());
        assert_eq!(a.benign_fraction.to_bits(), b.benign_fraction.to_bits());
    }
    assert_eq!(one.eligible_bits, two.eligible_bits);
    assert_eq!(one.eligible_bits, all.eligible_bits);

    // Sanity: the campaign actually ran trials.
    assert_eq!(one.totals().total(), 2 * 2 * 12);
}

/// The campaign engine against the per-trial oracle: each task's plan,
/// redrawn from its PRNG substream and run spec by spec through the naive
/// `StartPoint::run_trial` on a start point prepared on its own, must give
/// the campaign's census, its journaled per-trial records, and its
/// quarantine of the shimmed trial, if any. Returns how many start points
/// open on a machine that has already halted.
fn assert_engine_equals_oracle(cfg: &CampaignConfig, workloads: &[Workload]) -> usize {
    use tfsim::arch::FuncSim;
    use tfsim::check::Rng;
    use tfsim::inject::{
        run_campaign_journaled, CampaignJournal, CampaignObs, JournalMeta, StartPoint, TrialSpec,
    };
    use tfsim::uarch::Pipeline;

    // The engine, untraced, and journaled (which traces) so that its
    // per-trial records can be read back.
    let untraced = run_campaign_on(cfg, workloads);
    let path = std::env::temp_dir()
        .join(format!("tfsim-oracle-journal-{}-{}.jsonl", std::process::id(), workloads[0].name));
    let meta = JournalMeta::new(cfg, workloads);
    let journaled = {
        let j = CampaignJournal::create(&path, &meta).unwrap();
        run_campaign_journaled(cfg, workloads, &CampaignObs::disabled(), Some(&j))
    };
    let mut tasks = CampaignJournal::resume(&path, &meta).unwrap().completed().to_vec();
    std::fs::remove_file(&path).unwrap();
    tasks.sort_by_key(|t| (t.bench, t.start_point));
    let mut tasks = tasks.into_iter();

    let mut census: Census = (
        workloads.iter().map(|w| (w.name.to_string(), OutcomeCounts::default())).collect(),
        BTreeMap::new(),
        BTreeMap::new(),
    );
    let mut quarantined = Vec::new();
    let mut opened_halted = 0;
    for (b, w) in workloads.iter().enumerate() {
        let program = w.build(cfg.scale);
        let mut probe = FuncSim::new(&program);
        probe.run(50_000_000);
        for s in 0..cfg.start_points {
            // The campaign's warm-up, golden continuation and plan draw.
            let mut cpu = Pipeline::new(&program, cfg.pipeline);
            cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
            for _ in 0..cfg.warmup_cycles + cfg.spacing_cycles * s as u64 {
                if !cpu.running() {
                    break;
                }
                cpu.step();
            }
            opened_halted += !cpu.running() as usize;
            let sp = StartPoint::prepare(&cpu, cfg.inject_window + cfg.monitor_cycles, cfg.mask);
            let mut rng = Rng::from_seed_stream(cfg.seed, (b as u64) << 32 | s as u64);
            let specs: Vec<TrialSpec> = (0..cfg.trials_per_start_point)
                .map(|_| TrialSpec {
                    target: rng.gen_range(0..sp.bit_count()),
                    inject_cycle: rng.gen_range(0..cfg.inject_window),
                })
                .collect();

            let mut records = Vec::new();
            for (t, spec) in specs.iter().enumerate() {
                if cfg.panic_shim == Some((b, s, t as u32)) {
                    quarantined.push((b, s, t, *spec));
                    continue;
                }
                let rec =
                    sp.run_trial(cfg.mask, spec.target, spec.inject_cycle, cfg.monitor_cycles);
                census.0[b].1.add(rec.outcome);
                census.1.entry(rec.category).or_default().add(rec.outcome);
                census.2.entry((rec.category, rec.kind)).or_default().add(rec.outcome);
                records.push(rec);
            }
            let task = tasks.next().expect("a journaled task per start point");
            assert_eq!((task.bench, task.start_point), (b, s));
            assert_eq!(task.specs, specs, "task ({b}, {s}) drew another plan");
            assert_eq!(task.eligible_bits, sp.bit_count());
            assert_eq!(task.records, records, "task ({b}, {s}) records diverged from the oracle");
        }
    }
    assert!(tasks.next().is_none());

    assert_eq!(quarantined.len(), cfg.panic_shim.is_some() as usize);
    for result in [&untraced, &journaled] {
        assert_eq!(outcome_census(result), census, "census diverged from the oracle");
        let q: Vec<_> = result
            .quarantined
            .iter()
            .map(|q| (q.benchmark, q.start_point, q.trial, q.spec))
            .collect();
        assert_eq!(q, quarantined, "exactly the shimmed trial is quarantined");
    }
    opened_halted
}

/// Three start points at spacing 500 make the campaign serve an interior
/// start point from a shared golden walk whose row grids fall on two
/// residues modulo 8, with one trial shimmed to panic. bzip2-like halts at
/// cycle 8,703 at scale 1, so start points at 8,200, 8,700 and 9,200 see
/// the halt late in the first window, three cycles into the second, and
/// before the third opens: its trials land in a halted machine.
#[test]
fn campaign_engine_equals_the_per_trial_oracle() {
    let two: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "vpr-like")
        .collect();
    let mut cfg = config(2);
    cfg.start_points = 3;
    cfg.spacing_cycles = 500;
    cfg.panic_shim = Some((1, 1, 5)); // (benchmark, start point, trial)
    assert_eq!(assert_engine_equals_oracle(&cfg, &two), 0);

    let bzip2: Vec<_> = workloads::all().into_iter().filter(|w| w.name == "bzip2-like").collect();
    cfg.warmup_cycles = 8_200;
    cfg.panic_shim = None;
    assert_eq!(assert_engine_equals_oracle(&cfg, &bzip2), 1, "one start point opens halted");
}

#[test]
fn different_seeds_change_the_trial_mix() {
    // Guards against the degenerate "deterministic because the seed is
    // ignored" failure mode: two seeds must draw different trial sets.
    let workloads: Vec<_> =
        workloads::all().into_iter().filter(|w| w.name == "gzip-like").collect();
    let mut a_cfg = config(1);
    a_cfg.seed = 1;
    let mut b_cfg = config(1);
    b_cfg.seed = 2;
    let a = run_campaign_on(&a_cfg, &workloads);
    let b = run_campaign_on(&b_cfg, &workloads);
    let a_cat: Vec<_> = a.by_category.iter().map(|(c, o)| (*c, o.total())).collect();
    let b_cat: Vec<_> = b.by_category.iter().map(|(c, o)| (*c, o.total())).collect();
    assert_ne!(a_cat, b_cat, "seed must influence which bits are hit");
}

#[test]
fn forced_panic_is_quarantined_without_disturbing_other_trials() {
    use tfsim::inject::{run_campaign_journaled, CampaignObs};
    use tfsim::obs::{strip_wall_clock, Event, RingSink};

    let workloads: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "vpr-like")
        .collect();
    let shim = (1usize, 1u32, 5u32); // (benchmark, start point, trial)

    // The quarantined census must itself be thread-count-deterministic.
    let shimmed: Vec<CampaignResult> = [1usize, 2, 0]
        .into_iter()
        .map(|threads| {
            let mut cfg = config(threads);
            cfg.panic_shim = Some(shim);
            run_campaign_on(&cfg, &workloads)
        })
        .collect();
    for r in &shimmed {
        assert_eq!(r.quarantined.len(), 1, "exactly the shimmed trial is quarantined");
        let q = &r.quarantined[0];
        assert_eq!((q.benchmark, q.start_point, q.trial), (1, 1, 5));
        assert!(q.panic_msg.contains("forced mid-trial panic"), "got: {}", q.panic_msg);
    }
    assert_eq!(outcome_census(&shimmed[0]), outcome_census(&shimmed[1]));
    assert_eq!(outcome_census(&shimmed[0]), outcome_census(&shimmed[2]));
    assert_eq!(shimmed[0].quarantined, shimmed[1].quarantined);
    assert_eq!(shimmed[0].quarantined, shimmed[2].quarantined);

    // Against the clean run: one trial left the census, none moved.
    let clean = run_campaign_on(&config(1), &workloads);
    assert!(clean.quarantined.is_empty());
    assert_eq!(shimmed[0].totals().total() + 1, clean.totals().total());

    // Event-stream comparison pins "remaining trial records unchanged"
    // exactly: the traces differ in the one Trial that became a
    // Quarantine, plus the CampaignEnd footer. Every other event —
    // numbering included — is identical.
    let run_traced = |panic_shim| {
        let mut cfg = config(1);
        cfg.panic_shim = panic_shim;
        let sink = RingSink::new(1 << 16);
        let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
        run_campaign_journaled(&cfg, &workloads, &obs, None);
        strip_wall_clock(&sink.events())
    };
    let clean_events = run_traced(None);
    let shim_events = run_traced(Some(shim));
    assert_eq!(clean_events.len(), shim_events.len());
    let mut diffs = Vec::new();
    for (i, (a, b)) in clean_events.iter().zip(shim_events.iter()).enumerate() {
        if a != b {
            diffs.push(i);
        }
    }
    assert_eq!(diffs.len(), 2, "expected exactly Trial→Quarantine + footer, got {diffs:?}");
    match (&clean_events[diffs[0]], &shim_events[diffs[0]]) {
        (
            Event::Trial { benchmark: cb, start_point: cs, trial: ct, target: ctg, .. },
            Event::Quarantine { benchmark, start_point, trial, target, inject_cycle: _, panic_msg },
        ) => {
            assert_eq!((*benchmark, *start_point, *trial), (1, 1, 5));
            assert_eq!((cb, cs, ct), (benchmark, start_point, trial));
            assert_eq!(ctg, target, "quarantine must name the spec the trial would have run");
            assert!(panic_msg.contains("forced mid-trial panic"));
        }
        other => panic!("first diff is not Trial→Quarantine: {other:?}"),
    }
    match (&clean_events[diffs[1]], &shim_events[diffs[1]]) {
        (
            Event::CampaignEnd { trials: ct, quarantined: cq, .. },
            Event::CampaignEnd { trials, quarantined, .. },
        ) => {
            assert_eq!((*cq, *quarantined), (0, 1));
            assert_eq!(*trials + 1, *ct);
        }
        other => panic!("second diff is not the footer: {other:?}"),
    }
}
