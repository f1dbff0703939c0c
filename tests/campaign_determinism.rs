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
use tfsim::workloads;

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

#[test]
fn pruned_campaign_is_byte_identical_to_the_unpruned_engines() {
    use tfsim::inject::{
        run_campaign_journaled, run_campaign_observed, CampaignJournal, CampaignObs, JournalMeta,
    };
    use tfsim::obs::{strip_wall_clock, Event, RingSink};

    let workloads: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "vpr-like")
        .collect();

    // The full per-trial event stream must agree with the ladder's
    // everywhere except the footer, which additionally carries the
    // pruner's disposition tally.
    let run_traced = |pruned: bool| {
        let mut cfg = config(2);
        cfg.pruned = pruned;
        let sink = RingSink::new(1 << 16);
        let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
        let r = run_campaign_observed(&cfg, &workloads, &obs);
        (outcome_census(&r), strip_wall_clock(&sink.events()), r.prune)
    };
    let (ladder_census, ladder_events, ladder_prune) = run_traced(false);
    let (pruned_census, pruned_events, pruned_prune) = run_traced(true);

    assert_eq!(ladder_census, pruned_census, "pruned campaign census diverged");
    assert!(ladder_prune.is_none(), "unpruned runs carry no tally");

    let (pruned_footer, pruned_rest) = pruned_events.split_last().unwrap();
    let (ladder_footer, ladder_rest) = ladder_events.split_last().unwrap();
    assert_eq!(ladder_rest, pruned_rest, "pruned campaign event stream diverged");
    match (ladder_footer, pruned_footer) {
        (
            Event::CampaignEnd {
                trials,
                matched,
                gray,
                failed,
                quarantined,
                eligible_bits,
                wall_ns,
                prune: None,
            },
            Event::CampaignEnd {
                trials: pt,
                matched: pm,
                gray: pg,
                failed: pf,
                quarantined: pq,
                eligible_bits: pe,
                wall_ns: pw,
                prune: Some(p),
            },
        ) => {
            assert_eq!(
                (trials, matched, gray, failed, quarantined, eligible_bits, wall_ns),
                (pt, pm, pg, pf, pq, pe, pw),
                "footer counts diverged"
            );
            assert_eq!(p.total(), *pt, "every trial gets exactly one disposition");
            assert_eq!(Some(*p), pruned_prune, "footer tally must match the result's");
        }
        other => panic!("footers have the wrong shape: {other:?}"),
    }

    // Journal files: `pruned` is an execution strategy, not experiment
    // identity — a journal written by the pruner resumes under any engine,
    // byte for byte.
    let journal_bytes = |pruned: bool| {
        let mut cfg = config(1);
        cfg.pruned = pruned;
        let path = std::env::temp_dir()
            .join(format!("tfsim-pruned-journal-{}-{pruned}.jsonl", std::process::id()));
        let meta = JournalMeta::new(&cfg, &workloads);
        let j = CampaignJournal::create(&path, &meta).unwrap();
        run_campaign_journaled(&cfg, &workloads, &CampaignObs::disabled(), Some(&j));
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    };
    assert_eq!(
        journal_bytes(false),
        journal_bytes(true),
        "pruned campaign journal diverged from the ladder"
    );

    // A forced mid-trial panic flows through the pruner's delegate
    // remapping into the same quarantine record.
    let shim = (1usize, 1u32, 5u32);
    let run_shimmed = |pruned: bool| {
        let mut cfg = config(2);
        cfg.pruned = pruned;
        cfg.panic_shim = Some(shim);
        run_campaign_on(&cfg, &workloads)
    };
    let ladder_q = run_shimmed(false);
    let pruned_q = run_shimmed(true);
    assert_eq!(outcome_census(&ladder_q), outcome_census(&pruned_q));
    assert_eq!(ladder_q.quarantined, pruned_q.quarantined);
    assert_eq!(pruned_q.quarantined.len(), 1);
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
    use tfsim::inject::{run_campaign_observed, CampaignObs};
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
        run_campaign_observed(&cfg, &workloads, &obs);
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
