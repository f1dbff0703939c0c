//! Performance benchmarks for the simulation substrate: these measure the
//! *harness* (how fast the reproduction runs), complementing the `figures`
//! binary (which regenerates the paper's exhibits).
//!
//! Runs as a plain binary on the in-tree `tfsim-check` bench runner:
//!
//! ```text
//! cargo run --release -p tfsim-bench --bin perf [-- [FILTER] [--json]]
//! ```
//!
//! `FILTER` keeps only benchmarks whose name contains the substring;
//! `--json` appends one JSON object per benchmark after the table.
//! `TFSIM_BENCH_SAMPLES` / `TFSIM_BENCH_SAMPLE_MS` tune the measurement.

use std::net::TcpListener;

use tfsim_arch::swinject::{self, FaultModel, SwTally};
use tfsim_arch::FuncSim;
use tfsim_bitstate::{
    fingerprint_of, CachedFingerprint, FieldMeta, InjectionMask, StateVisitor, UnitId, VisitState,
};
use tfsim_check::{Bench, Rng};
use tfsim_inject::{
    run_campaign_journaled, run_campaign_with_tasks, run_worker, serve_campaign, CampaignConfig,
    CampaignJournal, CampaignObs, JournalMeta, ServeConfig, StartPoint, Trace, TrialSpec,
    WorkerConfig,
};
use tfsim_isa::decode;
use tfsim_obs::NoopSink;
use tfsim_protect::{regfile_code, Decoded};
use tfsim_uarch::{Pipeline, PipelineConfig};
use tfsim_workloads::Workload;

/// Whether `name` survives the bench filter. `Bench` itself skips filtered
/// benchmarks, but expensive setup (warm-up + golden precomputation) should
/// be skipped too when nothing downstream will run.
fn wants(b: &Bench, name: &str) -> bool {
    b.filter.as_ref().is_none_or(|f| name.contains(f))
}

fn warmed_pipeline(name: &str, cycles: u64) -> Pipeline {
    let w = tfsim_workloads::by_name(name).expect("workload");
    let p = w.build(4);
    let mut probe = FuncSim::new(&p);
    probe.run(50_000_000);
    let mut cpu = Pipeline::new(&p, PipelineConfig::baseline());
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    for _ in 0..cycles {
        cpu.step();
    }
    cpu
}

fn bench_pipeline_step(b: &mut Bench) {
    for name in ["gzip-like", "mcf-like", "twolf-like"] {
        let cpu = warmed_pipeline(name, 500);
        b.bench_with_setup(
            &format!("pipeline/step-1k/{name}"),
            || cpu.clone(),
            |mut cpu| {
                for _ in 0..1_000 {
                    cpu.step();
                }
                cpu.cycles()
            },
        );
    }
}

fn bench_funcsim(b: &mut Bench) {
    let w = tfsim_workloads::by_name("gzip-like").expect("workload");
    let p = w.build(4);
    b.bench_with_setup("funcsim/step-10k", || FuncSim::new(&p), |mut sim| sim.run(10_000));
}

fn bench_fingerprint(b: &mut Bench) {
    if wants(b, "fingerprint/full-machine") {
        let mut cpu = warmed_pipeline("gzip-like", 500);
        b.bench("fingerprint/full-machine", || fingerprint_of(&mut cpu));
    }
    // What every full µArch check pays: the engine rehashes each latch
    // unit and reads each shadow unit's maintained digest.
    if wants(b, "fingerprint/cached-cold") {
        let mut cpu = warmed_pipeline("mcf-like", 500);
        b.bench("fingerprint/cached-cold", || CachedFingerprint::new().fingerprint(&mut cpu));
    }
}

fn bench_trial(b: &mut Bench) {
    let cpu = warmed_pipeline("gzip-like", 1_000);
    let sp = StartPoint::prepare(&cpu, 2_000, InjectionMask::LatchesAndRams);
    let mut target = 0u64;
    b.bench("inject/one-trial-2k-window", || {
        target = (target + 7_919) % sp.bit_count();
        sp.run_trial(InjectionMask::LatchesAndRams, target, 50, 1_500)
    });
}

/// A deterministic trial plan shaped like one `default_scale` start point:
/// targets strided across the eligible-bit space, injection cycles strided
/// (unsorted, with repeats) across the injection window.
fn campaign_plan(sp: &StartPoint, trials: u64, window: u64) -> Vec<TrialSpec> {
    (0..trials)
        .map(|i| TrialSpec {
            target: i.wrapping_mul(7_919) % sp.bit_count(),
            inject_cycle: i.wrapping_mul(97) % window,
        })
        .collect()
}

/// Every eligible field's first bit index, with the fingerprint unit it
/// sits in and its visit ordinal inside that unit (the ordinal space
/// `Pipeline::drain_accesses` reports). Fields outside any unit are left
/// out.
struct UnitFields {
    mask: InjectionMask,
    pos: u64,
    unit: Option<UnitId>,
    ord: u32,
    fields: Vec<(u64, UnitId, u32)>,
}

impl StateVisitor for UnitFields {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        if self.mask.eligible(meta) {
            if let Some(unit) = self.unit {
                self.fields.push((self.pos, unit, self.ord));
            }
            self.pos += width as u64;
        }
        self.ord += 1;
    }

    fn enter_unit(&mut self, unit: UnitId, _digest: Option<u128>) -> bool {
        self.unit = Some(unit);
        self.ord = 0;
        true
    }

    fn exit_unit(&mut self, _unit: UnitId) {
        self.unit = None;
    }
}

/// Eligible bits of `cpu` whose word is tracked but never accessed in
/// `cycles` fault-free steps: a flip there is dead for any window inside
/// them, the pruner's first dead-window rule. One tracked replay screens
/// every site at once.
fn untouched_bits(cpu: &Pipeline, mask: InjectionMask, cycles: u64) -> Vec<u64> {
    let mut golden = cpu.clone();
    golden.set_access_tracking(UnitId::ALL);
    let mut touched = vec![Vec::<bool>::new(); UnitId::COUNT];
    for _ in 0..cycles {
        golden.step();
        golden.drain_accesses(|unit: UnitId, ord: u32, _| {
            let seen = &mut touched[unit.index()];
            if seen.len() <= ord as usize {
                seen.resize(ord as usize + 1, false);
            }
            seen[ord as usize] = true;
        });
    }
    let mut fields = UnitFields { mask, pos: 0, unit: None, ord: 0, fields: Vec::new() };
    cpu.clone().visit_state(&mut fields);
    fields
        .fields
        .into_iter()
        .filter(|&(_, unit, ord)| {
            cpu.access_tracked(unit, ord)
                && !touched[unit.index()].get(ord as usize).copied().unwrap_or(false)
        })
        .map(|(bit, _, _)| bit)
        .collect()
}

/// Campaign-throughput benches at the `default_scale` shape (warm-up 2,000
/// cycles, injection window 250, monitor 10,000). Every standalone batch
/// pays its own golden walk of the 10,250-cycle continuation, which hashes
/// its sparse grid and its plan's dense window and resolves its access
/// footprint (a campaign start point shares its benchmark's walk instead):
///
/// * `inject/prepare` — one cold `StartPoint::prepare` of the 10,250-cycle
///   golden continuation (stepping and retirement aggregates; it hashes no
///   golden row, since no plan is checked against it); ns per golden
///   cycle = median_ns / 10,250.
/// * `inject/trials-per-sec` — one full start-point batch (100 trials)
///   through the engine (`run_trials`: its golden walk, then dead-window
///   proofs discharge most sites without a trial and the rest step on the
///   snapshot ladder against the walk's rows); trials/sec = 100e9 /
///   median_ns.
/// * `inject/trials-per-sec-traced` — the identical batch at `Trace::On`
///   (per-trial traces, batch timings, and the closings of trials decided
///   before a check saw their divergence: rows from the walk's table, or
///   off the ladder's walker past the plan's dense window). The median
///   ratio to the untraced bench is the telemetry overhead; the untraced
///   bench itself must not move, which is the zero-overhead-when-disabled
///   contract pinned by `BENCH_campaign.json`.
/// * `inject/trials-per-sec-deep-traced` — the identical batch at
///   `Trace::Deep`: on top of tracing, µArch-divergent checks sample the
///   per-unit diverged set into the trial's divergence timeline (dense
///   just after injection, every eighth check once sparse), and every
///   trial that does not match closes its timeline, most of them at the
///   window's end, off the walker. The deep/traced median ratio is the
///   timeline cost; it is bounded even for faults that stay diverged
///   across the whole monitor window.
/// * `inject/pruner-overhead` — a 100-site batch the pruner proves dead
///   in its entirety (sites in words the golden run never accesses,
///   screened by one tracked replay beforehand): no trial ever simulates,
///   so the median is the pure per-batch cost of the pruning analysis
///   (the golden walk that resolves the footprint, analytic
///   classification).
/// * `inject/engine-vs-naive/{naive,engine}` — the same 25-trial plan
///   through per-trial `run_trial` (a replay, then the trial stepped in
///   lockstep with a fault-free clone, checked with flat fingerprints) and
///   the batched engine `run_trials`. The naive/engine median ratio is the
///   fast-path speedup.
fn bench_campaign(b: &mut Bench) {
    const WINDOW: u64 = 250;
    const MONITOR: u64 = 10_000;
    const MASK: InjectionMask = InjectionMask::LatchesAndRams;
    if !wants(b, "inject/prepare")
        && !wants(b, "inject/trials-per-sec")
        && !wants(b, "inject/trials-per-sec-traced")
        && !wants(b, "inject/trials-per-sec-deep-traced")
        && !wants(b, "inject/pruner-overhead")
        && !wants(b, "inject/engine-vs-naive")
    {
        return;
    }
    let cpu = warmed_pipeline("gzip-like", 2_000);
    b.bench("inject/prepare", || StartPoint::prepare(&cpu, WINDOW + MONITOR, MASK));
    let sp = StartPoint::prepare(&cpu, WINDOW + MONITOR, MASK);

    let plan = campaign_plan(&sp, 100, WINDOW);
    b.bench("inject/trials-per-sec", || sp.run_trials(MASK, &plan, MONITOR));
    b.bench("inject/trials-per-sec-traced", || sp.run_batch(MASK, &plan, MONITOR, Trace::On));
    b.bench("inject/trials-per-sec-deep-traced", || {
        sp.run_batch(MASK, &plan, MONITOR, Trace::Deep)
    });
    if wants(b, "inject/pruner-overhead") {
        let untouched = untouched_bits(&cpu, MASK, WINDOW + MONITOR);
        assert!(untouched.len() >= 100, "only {} untouched sites", untouched.len());
        let stride = untouched.len() / 100;
        let dead: Vec<TrialSpec> = (0..100u64)
            .map(|i| TrialSpec {
                target: untouched[i as usize * stride],
                inject_cycle: i.wrapping_mul(53) % WINDOW,
            })
            .collect();
        let (_, dispositions) = sp.run_batch(MASK, &dead, MONITOR, Trace::Off);
        assert_eq!(dispositions.proved_dead, 100, "the pruner must prove every site dead");
        b.bench("inject/pruner-overhead", || sp.run_trials(MASK, &dead, MONITOR));
    }

    let duel = campaign_plan(&sp, 25, WINDOW);
    b.bench("inject/engine-vs-naive/naive", || {
        duel.iter()
            .map(|s| sp.run_trial(MASK, s.target, s.inject_cycle, MONITOR))
            .collect::<Vec<_>>()
    });
    b.bench("inject/engine-vs-naive/engine", || sp.run_trials(MASK, &duel, MONITOR));
}

/// `arch/sw-ladder-vs-naive/{naive,ladder}` — the same 40-trial
/// `reg-bit-64` Figure 11 plan on `mcf-like` (the workload with the
/// largest memory image, so the ladder's memory compares are in the
/// number) through per-trial `swinject::run_trial`, each re-running the
/// program from reset, and through `swinject::run_campaign`,
/// which runs the fault-free prefix once and stops trials at exact
/// reconvergence. The golden reference is built outside the timed region.
/// The ladder/naive median ratio is the Section-5 engine's speedup.
fn bench_sw_campaign(b: &mut Bench) {
    const TRIALS: u64 = 40;
    const SEED: u64 = 42;
    const MODEL: FaultModel = FaultModel::ResultBit64;
    if !wants(b, "arch/sw-ladder-vs-naive") {
        return;
    }
    let program = tfsim_workloads::by_name("mcf-like").expect("workload").build(1);
    let golden = swinject::golden_ref(&program, 10_000_000);
    b.bench("arch/sw-ladder-vs-naive/naive", || {
        let mut rng = Rng::from_seed_stream(SEED, MODEL as u64);
        let mut tally = SwTally::default();
        for _ in 0..TRIALS {
            tally.record(swinject::run_trial(&program, &golden, MODEL, &mut rng));
        }
        tally
    });
    b.bench("arch/sw-ladder-vs-naive/ladder", || {
        swinject::run_campaign(&program, &golden, MODEL, TRIALS, SEED)
    });
}

/// `inject/distributed-overhead/{in-process,two-workers}` — the same
/// journaled campaign (2 workloads x 2 start points) run by the
/// in-process pool at 2 threads and by a coordinator with 2 localhost TCP
/// workers. Both arms execute the traced engine and fsync-append every
/// task (journaled runs always do; workers ship the same records over the
/// wire), so the two-workers/in-process median ratio isolates the cost of
/// distribution itself — lease protocol round-trips, heartbeats, and the
/// coordinator-side replay — gated <= 1.15x in bench.sh because task
/// compute dominates any real campaign shape.
fn bench_distributed(b: &mut Bench) {
    if !wants(b, "inject/distributed-overhead") {
        return;
    }
    // Big enough that task compute dominates the protocol's fixed tick
    // latencies (connection setup, heartbeat-thread shutdown, tail polls)
    // the way any real campaign shape does.
    let mut cfg = CampaignConfig::quick(0xD157_2004);
    cfg.start_points = 2;
    cfg.trials_per_start_point = 24;
    cfg.monitor_cycles = 6_000;
    cfg.scale = 1;
    cfg.threads = 2;
    let wl: Vec<Workload> = tfsim_workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "mcf-like")
        .collect();
    let meta = JournalMeta::new(&cfg, &wl);
    let journal_path =
        std::env::temp_dir().join(format!("tfsim-bench-dist-{}.jsonl", std::process::id()));
    b.bench("inject/distributed-overhead/in-process", || {
        let _ = std::fs::remove_file(&journal_path);
        let journal = CampaignJournal::create(&journal_path, &meta).expect("journal");
        run_campaign_journaled(&cfg, &wl, &CampaignObs::disabled(), Some(&journal))
    });
    b.bench("inject/distributed-overhead/two-workers", || {
        let _ = std::fs::remove_file(&journal_path);
        let journal = CampaignJournal::create(&journal_path, &meta).expect("journal");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let serve =
                ServeConfig { lease_ms: 5_000, heartbeat_ms: 500, idle_timeout_ms: 60_000 };
            let (cfg, wl, journal) = (&cfg, &wl, &journal);
            let coordinator = scope.spawn(move || {
                serve_campaign(listener, cfg, wl, Some(journal), &NoopSink, &serve)
                    .expect("serve")
            });
            for _ in 0..2 {
                let addr = addr.clone();
                scope.spawn(move || run_worker(&WorkerConfig::new(addr)).expect("worker"));
            }
            let report = coordinator.join().expect("coordinator thread");
            run_campaign_with_tasks(cfg, wl, &CampaignObs::disabled(), report.tasks)
        })
    });
    let _ = std::fs::remove_file(&journal_path);
}

fn bench_codecs(b: &mut Bench) {
    let code = regfile_code();
    let mut v = 0x0123_4567_89ab_cdefu128;
    b.bench("protect/secded65/encode", || {
        v = v.rotate_left(7) & ((1 << 65) - 1);
        code.encode(v)
    });
    let data = 0xdead_beef_cafe_f00du128;
    let check = code.encode(data);
    let mut bit = 0;
    b.bench("protect/secded65/decode-corrupted", || {
        bit = (bit + 1) % 65;
        match code.decode(data ^ (1u128 << bit), check) {
            Decoded::CorrectedData(d) => d,
            _ => 0,
        }
    });
}

fn bench_decoder(b: &mut Bench) {
    b.bench("isa/decode-1k", || {
        let mut acc = 0u64;
        for i in 0..1_000u32 {
            let w = i.wrapping_mul(0x9e37_79b9);
            acc = acc.wrapping_add(decode(w).exec_latency() as u64);
        }
        acc
    });
}

fn main() {
    let mut json = false;
    let mut bench = Bench::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: perf [FILTER] [--json]");
                return;
            }
            f => bench.filter = Some(f.to_string()),
        }
    }

    bench_pipeline_step(&mut bench);
    bench_funcsim(&mut bench);
    bench_fingerprint(&mut bench);
    bench_trial(&mut bench);
    bench_campaign(&mut bench);
    bench_sw_campaign(&mut bench);
    bench_distributed(&mut bench);
    bench_codecs(&mut bench);
    bench_decoder(&mut bench);

    if bench.results().is_empty() {
        if let Some(f) = &bench.filter {
            eprintln!("perf: no benchmark name contains `{f}`");
            std::process::exit(2);
        }
    }
    print!("{}", bench.render_table());
    if json {
        print!("{}", bench.render_json());
    }
}
