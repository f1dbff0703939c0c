//! Run an assembly file (or a named built-in workload) on the simulators,
//! drive an injection campaign, or render a report from a campaign trace.
//!
//! ```text
//! tfsim-run <file.s | workload-name> [--config baseline|protected]
//!           [--max-cycles N] [--disasm] [--trace N] [--dump N] [--arch-only]
//! tfsim-run campaign [--quick|--default-scale|--paper] [--seed N]
//!           [--threads N] [--scale N] [--start-points N] [--trials N]
//!           [--monitor N] [--workloads a,b,...]
//!           [--trace PATH [--deep-trace]] [--profile PATH]
//!           [--journal PATH [--resume]]
//! tfsim-run report PATH [--top N] [--propagation]
//! tfsim-run serve [campaign flags] [--addr HOST] [--port N]
//!           [--lease-ms N] [--heartbeat-ms N] [--idle-timeout-ms N]
//!           [--ops-trace PATH]
//! tfsim-run worker --connect HOST:PORT
//!           [--shard PATH] [--chaos SPEC] [--max-retries N]
//! tfsim-run merge SHARD.jsonl... [--trace PATH]
//! ```
//!
//! `--disasm` prints the program listing; `--trace N` prints a per-cycle
//! pipeline trace for the first N cycles; otherwise the program runs to
//! completion and a summary (exit code, output, IPC, stats) is printed.
//!
//! `campaign` runs a fault-injection campaign and prints the outcome
//! census. Every campaign runs the analytic masking pruner in front of the
//! snapshot ladder: dead-window proofs discharge most sites without
//! simulating them, and the rest run on the ladder. With `--trace PATH` it
//! streams the per-trial JSONL event stream to `PATH`, with the span
//! profile and, in the trace's footer event, the pruner's per-site
//! disposition tally; it shows a live progress meter on stderr and prints
//! the five exact work counters above the census and the span profile
//! below it. Without it the campaign takes the untraced zero-overhead
//! path. The census is rendered through the same
//! `tfsim_stats::census_rows` builder either way, so traced and untraced
//! runs of the same seed print byte-identical censuses.
//!
//! With `--journal PATH` every completed (benchmark, start-point) task is
//! durably appended to a crash-safe JSONL journal as it finishes;
//! `--journal PATH --resume` reopens an interrupted journal (recovering a
//! torn tail), skips the completed tasks, and prints the byte-identical
//! census of an uninterrupted run. Trials the harness had to quarantine
//! (contained panics) are listed after the census, never inside it.
//!
//! `--trace PATH --deep-trace` additionally records each trial's full
//! divergence timeline (which units disagreed with the golden run, cycle
//! by cycle) as `propagation` events in the trace — the census and
//! journal stay byte-identical to the shallower runs. `--profile PATH`
//! (or `--trace`) turns on the hierarchical span profiler and prints a
//! wall-time footer (campaign → benchmark → {spine → {warmup, walk}, spN →
//! {trials → engine steps, journal}}) with the coverage of every depth that
//! has children; `--profile` also writes a collapsed-stack file flamegraph
//! tooling reads directly.
//!
//! `serve` runs the distributed coordinator: it binds a TCP listener
//! (port 0 picks an ephemeral port, printed to stderr), hands (benchmark,
//! start-point) leases to connecting `worker` processes, and — once every
//! task has an accepted completion — prints the byte-identical census a
//! single-process run of the same flags prints. Worker-lifecycle and
//! lease events stream to `--ops-trace` (never into a campaign trace).
//! `worker` executes tasks for a coordinator, optionally journaling them
//! to a private `--shard` file; `--chaos` injects a deterministic failure
//! schedule (see `tfsim_check::Chaos`) for robustness testing. `merge`
//! rebuilds a census directly from shard files: the first shard's header
//! fixes the campaign identity, duplicate tasks are dropped (counted on
//! stderr), and any missing tasks are executed in-process.
//!
//! Exit codes: 0 success; 1 I/O, protocol, or runtime failure (including
//! an incomplete distributed campaign); 2 usage or configuration errors.
//!
//! `report` parses a JSONL trace back and renders the full
//! fault-propagation report (census, per-category/per-unit vulnerability,
//! propagation pairs, latency histograms, span profile).
//! `report PATH --propagation` renders the deep-trace aggregation
//! instead: propagation chains, a per-unit residency heatmap over cycle
//! offsets, per-unit detection latencies, and a machine-readable JSON
//! line of the same aggregates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tfsim_arch::FuncSim;
use tfsim_check::Chaos;
use tfsim_inject::{
    merge_shards, run_campaign_journaled, run_campaign_with_tasks, run_worker, serve_campaign,
    CampaignConfig, CampaignJournal, CampaignMetrics, CampaignObs, CampaignResult, FailureMode,
    JournalMeta, OutcomeCounts, ServeConfig, WorkerConfig,
};
use tfsim_isa::{text, Program};
use tfsim_obs::{parse_trace, EventSink, JsonlSink, NoopSink, Progress, SpanProfiler};
use tfsim_stats::{census_rows, render_census, TelemetryReport};
use tfsim_uarch::{Pipeline, PipelineConfig};
use tfsim_workloads::Workload;

/// Exit code for usage / configuration errors.
const EXIT_USAGE: i32 = 2;
/// Exit code for I/O, protocol, and runtime failures.
const EXIT_RUNTIME: i32 = 1;

/// Prints a one-line diagnosis to stderr and exits with `code`. Every
/// failure path in this binary funnels through here so a crashed or
/// misconfigured run can never exit 0 (the ci.sh smokes depend on it).
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("tfsim-run: {msg}");
    std::process::exit(code);
}

/// Sets its flag when dropped, whether on return or on unwind.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Renders campaign outcome totals through the canonical census builder.
fn census(counts: &OutcomeCounts) -> String {
    let rows = census_rows(
        counts.matched,
        counts.gray,
        FailureMode::ALL.iter().map(|m| (m.label(), counts.failure(*m))),
    );
    render_census(&rows)
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i + 1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(EXIT_USAGE, format!("{flag} needs a numeric argument")))
}

fn path_arg(args: &[String], i: usize, flag: &str) -> PathBuf {
    PathBuf::from(
        args.get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| die(EXIT_USAGE, format!("{flag} needs a file path"))),
    )
}

/// Campaign-shaped flags shared by the `campaign` and `serve` commands.
struct CampaignFlags {
    config: CampaignConfig,
    workloads: Vec<Workload>,
    trace: Option<PathBuf>,
    journal_path: Option<PathBuf>,
    resume: bool,
}

/// Parses the flag set both `campaign` and `serve` accept (presets, seed,
/// scale knobs, workload list, journal, trace). `extra` gets first shot
/// at each flag the shared set does not know, returning the index past
/// what it consumed; anything neither knows is a usage error.
fn parse_campaign_flags(
    cmd: &str,
    args: &[String],
    mut extra: impl FnMut(&[String], usize) -> Option<usize>,
) -> CampaignFlags {
    let mut preset: fn(u64) -> CampaignConfig = CampaignConfig::quick;
    let mut seed = 2004u64;
    let mut scale = None::<u32>;
    let mut start_points = None::<u32>;
    let mut trials = None::<u32>;
    let mut monitor = None::<u64>;
    let mut trace = None::<PathBuf>;
    let mut workload_list = None::<String>;
    let mut journal_path = None::<PathBuf>;
    let mut resume = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                preset = CampaignConfig::quick;
                i += 1;
            }
            "--default-scale" => {
                preset = CampaignConfig::default_scale;
                i += 1;
            }
            "--paper" => {
                preset = CampaignConfig::paper_scale;
                i += 1;
            }
            "--seed" => {
                seed = parse_num(args, i, "--seed");
                i += 2;
            }
            "--scale" => {
                scale = Some(parse_num(args, i, "--scale"));
                i += 2;
            }
            "--start-points" => {
                start_points = Some(parse_num(args, i, "--start-points"));
                i += 2;
            }
            "--trials" => {
                trials = Some(parse_num(args, i, "--trials"));
                i += 2;
            }
            "--monitor" => {
                monitor = Some(parse_num(args, i, "--monitor"));
                i += 2;
            }
            "--trace" => {
                trace = Some(path_arg(args, i, "--trace"));
                i += 2;
            }
            "--journal" => {
                journal_path = Some(path_arg(args, i, "--journal"));
                i += 2;
            }
            "--resume" => {
                resume = true;
                i += 1;
            }
            "--workloads" => {
                workload_list = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    die(EXIT_USAGE, "--workloads needs a comma-separated list")
                }));
                i += 2;
            }
            other => match extra(args, i) {
                Some(next) => i = next,
                None => die(EXIT_USAGE, format!("{cmd}: unknown argument {other:?}")),
            },
        }
    }
    let mut config = preset(seed);
    if let Some(n) = scale {
        config.scale = n;
    }
    if let Some(n) = start_points {
        config.start_points = n;
    }
    if let Some(n) = trials {
        config.trials_per_start_point = n;
    }
    if let Some(n) = monitor {
        config.monitor_cycles = n;
    }
    let workloads = match &workload_list {
        None => tfsim_workloads::all(),
        Some(csv) => csv
            .split(',')
            .map(|name| {
                tfsim_workloads::by_name(name.trim())
                    .unwrap_or_else(|| die(EXIT_USAGE, format!("unknown workload {name:?}")))
            })
            .collect(),
    };
    if resume && journal_path.is_none() {
        die(EXIT_USAGE, "--resume needs --journal PATH");
    }
    config.validate().unwrap_or_else(|e| die(EXIT_USAGE, e));
    CampaignFlags { config, workloads, trace, journal_path, resume }
}

/// Opens (or resumes) the campaign journal named by the shared flags.
/// Header mismatches and I/O failures are runtime errors: the campaign
/// cannot safely proceed against that file.
fn open_journal(flags: &CampaignFlags) -> Option<CampaignJournal> {
    flags.journal_path.as_ref().map(|path| {
        let meta = JournalMeta::new(&flags.config, &flags.workloads);
        let opened = if flags.resume {
            CampaignJournal::resume(path, &meta)
        } else {
            CampaignJournal::create(path, &meta)
        };
        opened.unwrap_or_else(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                die(EXIT_RUNTIME, e); // already names the journal path
            }
            die(EXIT_RUNTIME, format!("journal {}: {e}", path.display()));
        })
    })
}

fn cmd_campaign(args: &[String]) {
    let mut threads = None::<usize>;
    let mut deep_trace = false;
    let mut profile = None::<PathBuf>;
    let mut flags = parse_campaign_flags("campaign", args, |args, i| match args[i].as_str() {
        "--threads" => {
            threads = Some(parse_num(args, i, "--threads"));
            Some(i + 2)
        }
        "--deep-trace" => {
            deep_trace = true;
            Some(i + 1)
        }
        "--profile" => {
            profile = Some(path_arg(args, i, "--profile"));
            Some(i + 2)
        }
        _ => None,
    });
    if let Some(n) = threads {
        flags.config.threads = n;
    }
    flags.config.deep_trace = deep_trace;
    if deep_trace && flags.trace.is_none() {
        die(EXIT_USAGE, "--deep-trace needs --trace PATH (timelines stream into the trace)");
    }
    let config = flags.config.clone();
    let workloads = flags.workloads.clone();
    let trace = flags.trace.clone();
    // The journal header pins the telemetry decision too: a traced run's
    // journal carries traces an untraced resume must not mix with.
    let journal = open_journal(&flags);
    let journal = journal.as_ref();

    // The span profiler rides along whenever someone will read it: the
    // `--profile` dump, or the trace (span events land in the JSONL
    // stream). The plain untraced path keeps `spans: None` and stays on
    // the zero-overhead machine code.
    let profiler = (profile.is_some() || trace.is_some()).then(SpanProfiler::new);
    let result = match &trace {
        Some(path) => {
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                die(EXIT_RUNTIME, format!("cannot create {}: {e}", path.display()))
            });
            let metrics = CampaignMetrics::new();
            let progress = Progress::new();
            let finished = AtomicBool::new(false);
            let result = std::thread::scope(|scope| {
                let meter = scope.spawn(|| {
                    while !finished.load(Ordering::Relaxed) {
                        eprint!("\r{}", progress.render());
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    eprintln!("\r{}", progress.render());
                });
                let obs = CampaignObs {
                    sink: &sink,
                    metrics: Some(&metrics),
                    progress: Some(&progress),
                    spans: profiler.as_ref(),
                };
                // Stops the meter on unwind too, or the scope would wait
                // forever to join it.
                let stop = SetOnDrop(&finished);
                let result = run_campaign_journaled(&config, &workloads, &obs, journal);
                drop(stop);
                let _ = meter.join();
                result
            });
            sink.flush();
            eprintln!("trace written to {}", path.display());
            print!("{}", metrics.render());
            println!();
            result
        }
        None => {
            let noop = NoopSink;
            let obs = CampaignObs {
                sink: &noop,
                metrics: None,
                progress: None,
                spans: profiler.as_ref(),
            };
            run_campaign_journaled(&config, &workloads, &obs, journal)
        }
    };
    print!("{}", census(&result.totals()));
    println!("eligible bits: {}", result.eligible_bits);
    print_quarantine_footer(&result);
    if let Some(p) = &profiler {
        let tree = p.snapshot();
        println!("\nspan profile (wall time, summed across workers)");
        print!("{}", tree.render());
        // campaign → benchmark → {spine → {warmup, walk}, spN → {trials →
        // engine phases, journal}}: at every depth, the spans that are
        // broken down must be broken down (nearly) completely, down to the
        // engine's own counters.
        for (depth, cov) in (0..).map_while(|d| tree.child_coverage_at_depth(d).map(|c| (d, c))) {
            println!(
                "span coverage at depth {depth}: {:.1}% of its spans' wall time attributed to \
                 their children",
                100.0 * cov
            );
        }
        if let Some(path) = &profile {
            std::fs::write(path, tree.collapsed()).unwrap_or_else(|e| {
                die(EXIT_RUNTIME, format!("cannot write {}: {e}", path.display()))
            });
            eprintln!("collapsed-stack profile written to {}", path.display());
        }
    }
}

/// Prints the quarantine footer *after* the census and eligible-bits
/// lines, so the census block stays byte-identical whether or not the
/// harness had to contain anything (and silent when it did not).
fn print_quarantine_footer(result: &CampaignResult) {
    if result.quarantined.is_empty() {
        return;
    }
    println!(
        "quarantined trials: {} (harness escapes, excluded from the census above)",
        result.quarantined.len()
    );
    for q in &result.quarantined {
        println!(
            "  bench {} sp {} trial {} target {} cycle {}: {}",
            q.benchmark, q.start_point, q.trial, q.spec.target, q.spec.inject_cycle, q.panic_msg
        );
    }
}

fn cmd_report(args: &[String]) {
    let Some(path) = args.first() else {
        die(EXIT_USAGE, "usage: tfsim-run report PATH [--top N] [--propagation]");
    };
    let mut top = 10usize;
    let mut propagation = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                top = parse_num(args, i, "--top");
                i += 2;
            }
            "--propagation" => {
                propagation = true;
                i += 1;
            }
            other => die(EXIT_USAGE, format!("report: unknown argument {other:?}")),
        }
    }
    // A missing or damaged trace is a runtime failure, not misuse.
    let text = std::fs::read_to_string(Path::new(path))
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("cannot read {path}: {e}")));
    let events =
        parse_trace(&text).unwrap_or_else(|e| die(EXIT_RUNTIME, format!("{path}: {e}")));
    let report = TelemetryReport::from_events(&events)
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("{path}: {e}")));
    if propagation {
        print!("{}", report.render_propagation(top));
        if report.deep_trials() > 0 {
            println!("\nmachine-readable aggregates (one JSON object):");
            println!("{}", report.propagation_json().render());
        }
    } else {
        print!("{}", report.render(top));
    }
}

/// Finalizes a distributed campaign: folds the accepted task results
/// through the same aggregation path an in-process run uses (first
/// completion per task wins; any uncovered tasks execute locally) and
/// prints the census block byte-identically to `campaign`.
fn print_census_from_tasks(
    flags: &CampaignFlags,
    tasks: Vec<tfsim_inject::JournaledTask>,
) {
    let result = match &flags.trace {
        Some(path) => {
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                die(EXIT_RUNTIME, format!("cannot create {}: {e}", path.display()))
            });
            let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
            let result = run_campaign_with_tasks(&flags.config, &flags.workloads, &obs, tasks);
            sink.flush();
            eprintln!("trace written to {}", path.display());
            result
        }
        None => {
            let noop = NoopSink;
            let obs = CampaignObs { sink: &noop, metrics: None, progress: None, spans: None };
            run_campaign_with_tasks(&flags.config, &flags.workloads, &obs, tasks)
        }
    };
    print!("{}", census(&result.totals()));
    println!("eligible bits: {}", result.eligible_bits);
    print_quarantine_footer(&result);
}

fn cmd_serve(args: &[String]) {
    let mut addr = String::from("127.0.0.1");
    let mut port = 0u16;
    // A coordinator nobody ever connects to should not hang forever by
    // default; --idle-timeout-ms 0 restores the wait-forever behavior.
    let mut serve = ServeConfig { idle_timeout_ms: 60_000, ..ServeConfig::default() };
    let mut ops_trace = None::<PathBuf>;
    let flags = parse_campaign_flags("serve", args, |args, i| match args[i].as_str() {
        "--addr" => {
            addr = args
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| die(EXIT_USAGE, "--addr needs a host"));
            Some(i + 2)
        }
        "--port" => {
            port = parse_num(args, i, "--port");
            Some(i + 2)
        }
        "--lease-ms" => {
            serve.lease_ms = parse_num(args, i, "--lease-ms");
            Some(i + 2)
        }
        "--heartbeat-ms" => {
            serve.heartbeat_ms = parse_num(args, i, "--heartbeat-ms");
            Some(i + 2)
        }
        "--idle-timeout-ms" => {
            serve.idle_timeout_ms = parse_num(args, i, "--idle-timeout-ms");
            Some(i + 2)
        }
        "--ops-trace" => {
            ops_trace = Some(path_arg(args, i, "--ops-trace"));
            Some(i + 2)
        }
        _ => None,
    });
    let journal = open_journal(&flags);
    let listener = std::net::TcpListener::bind((addr.as_str(), port))
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("cannot bind {addr}:{port}: {e}")));
    let local = listener
        .local_addr()
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("cannot resolve listen address: {e}")));
    // The ci.sh smoke discovers the ephemeral port from this line.
    eprintln!("listening on {local}");
    let report = match &ops_trace {
        Some(path) => {
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                die(EXIT_RUNTIME, format!("cannot create {}: {e}", path.display()))
            });
            let report =
                serve_campaign(listener, &flags.config, &flags.workloads, journal.as_ref(), &sink, &serve);
            sink.flush();
            report
        }
        None => {
            serve_campaign(listener, &flags.config, &flags.workloads, journal.as_ref(), &NoopSink, &serve)
        }
    }
    .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("serve: {e}")));
    let s = report.stats;
    eprintln!(
        "lease accounting: {} granted ({} regrants), {} renewed, {} expired, \
         {} completed, {} duplicates dropped; {} workers",
        s.granted, s.regranted, s.renewed, s.expired, s.completed, s.duplicates,
        report.workers_seen
    );
    if !report.complete {
        die(
            EXIT_RUNTIME,
            format!(
                "campaign incomplete: {} tasks accepted; rerun with --journal PATH --resume to finish",
                report.tasks.len()
            ),
        );
    }
    print_census_from_tasks(&flags, report.tasks);
}

fn cmd_worker(args: &[String]) {
    let mut connect = None::<String>;
    let mut shard = None::<PathBuf>;
    let mut chaos = Chaos::off();
    let mut backoff_base_ms = None::<u64>;
    let mut backoff_cap_ms = None::<u64>;
    let mut max_retries = None::<u32>;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => {
                connect = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die(EXIT_USAGE, "--connect needs HOST:PORT")),
                );
                i += 2;
            }
            "--shard" => {
                shard = Some(path_arg(args, i, "--shard"));
                i += 2;
            }
            "--chaos" => {
                let spec = args
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| die(EXIT_USAGE, "--chaos needs a schedule spec"));
                chaos = Chaos::parse(&spec)
                    .unwrap_or_else(|e| die(EXIT_USAGE, format!("--chaos {spec:?}: {e}")));
                i += 2;
            }
            "--backoff-base-ms" => {
                backoff_base_ms = Some(parse_num(args, i, "--backoff-base-ms"));
                i += 2;
            }
            "--backoff-cap-ms" => {
                backoff_cap_ms = Some(parse_num(args, i, "--backoff-cap-ms"));
                i += 2;
            }
            "--max-retries" => {
                max_retries = Some(parse_num(args, i, "--max-retries"));
                i += 2;
            }
            other => die(EXIT_USAGE, format!("worker: unknown argument {other:?}")),
        }
    }
    let addr =
        connect.unwrap_or_else(|| die(EXIT_USAGE, "worker: --connect HOST:PORT is required"));
    let mut wc = WorkerConfig::new(addr);
    wc.shard = shard;
    wc.chaos = chaos;
    if let Some(n) = backoff_base_ms {
        wc.backoff_base_ms = n;
    }
    if let Some(n) = backoff_cap_ms {
        wc.backoff_cap_ms = n;
    }
    if let Some(n) = max_retries {
        wc.max_retries = n;
    }
    match run_worker(&wc) {
        Ok(rep) => eprintln!(
            "worker done: {} tasks accepted, {} duplicates, {} reconnects, {} spines walked",
            rep.accepted, rep.duplicates, rep.reconnects, rep.spines
        ),
        Err(e) => die(EXIT_RUNTIME, format!("worker: {e}")),
    }
}

fn cmd_merge(args: &[String]) {
    let mut shards = Vec::<PathBuf>::new();
    let mut trace = None::<PathBuf>;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                trace = Some(path_arg(args, i, "--trace"));
                i += 2;
            }
            other if other.starts_with("--") => {
                die(EXIT_USAGE, format!("merge: unknown argument {other:?}"))
            }
            path => {
                shards.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    if shards.is_empty() {
        die(EXIT_USAGE, "usage: tfsim-run merge SHARD.jsonl... [--trace PATH]");
    }
    // The first shard's header fixes the campaign identity; merge_shards
    // re-validates every other shard against it.
    let text = std::fs::read_to_string(&shards[0])
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("cannot read {}: {e}", shards[0].display())));
    let header = text
        .lines()
        .next()
        .unwrap_or_else(|| die(EXIT_RUNTIME, format!("{}: empty shard", shards[0].display())));
    let meta = JournalMeta::parse(header)
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("{}: {e}", shards[0].display())));
    let (config, workloads) = meta
        .to_campaign()
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("{}: {e}", shards[0].display())));
    let (tasks, stats) = merge_shards(&meta, &shards)
        .unwrap_or_else(|e| die(EXIT_RUNTIME, format!("merge: {e}")));
    eprintln!(
        "merged {} shards: {} tasks, {} duplicates dropped",
        shards.len(),
        stats.tasks,
        stats.duplicates_dropped
    );
    let flags = CampaignFlags { config, workloads, trace, journal_path: None, resume: false };
    print_census_from_tasks(&flags, tasks);
}

fn load_program(spec: &str) -> Program {
    if let Some(w) = tfsim_workloads::by_name(spec) {
        return w.build(1);
    }
    let source = std::fs::read_to_string(spec).unwrap_or_else(|e| {
        die(EXIT_RUNTIME, format!("cannot read {spec}: {e} (and {spec:?} is not a built-in workload)"))
    });
    match text::parse_program(spec, &source) {
        Ok(p) => p,
        Err(e) => die(EXIT_RUNTIME, format!("{spec}: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        die(
            EXIT_USAGE,
            "usage: tfsim-run <file.s | workload> [--config baseline|protected] \
             [--max-cycles N] [--disasm] [--trace N] [--dump N] [--arch-only]",
        );
    }
    let spec = &args[0];
    if spec == "campaign" {
        cmd_campaign(&args[1..]);
        return;
    }
    if spec == "report" {
        cmd_report(&args[1..]);
        return;
    }
    if spec == "serve" {
        cmd_serve(&args[1..]);
        return;
    }
    if spec == "worker" {
        cmd_worker(&args[1..]);
        return;
    }
    if spec == "merge" {
        cmd_merge(&args[1..]);
        return;
    }
    let mut config = PipelineConfig::baseline();
    let mut max_cycles = 10_000_000u64;
    let mut disasm = false;
    let mut trace = 0u64;
    let mut dump_at = None::<u64>;
    let mut arch_only = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                config = match args.get(i + 1).map(String::as_str) {
                    Some("baseline") => PipelineConfig::baseline(),
                    Some("protected") => PipelineConfig::protected(),
                    other => die(EXIT_USAGE, format!("unknown config {other:?}")),
                };
                i += 2;
            }
            "--max-cycles" => {
                max_cycles = parse_num(&args, i, "--max-cycles");
                i += 2;
            }
            "--disasm" => {
                disasm = true;
                i += 1;
            }
            "--trace" => {
                trace = parse_num(&args, i, "--trace");
                i += 2;
            }
            "--dump" => {
                dump_at = Some(parse_num(&args, i, "--dump"));
                i += 2;
            }
            "--arch-only" => {
                arch_only = true;
                i += 1;
            }
            other => die(EXIT_USAGE, format!("unknown argument {other:?}")),
        }
    }

    let program = load_program(spec);

    if disasm {
        for s in &program.sections {
            if s.addr == program.entry {
                let words: Vec<u32> = s
                    .bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("chunk")))
                    .collect();
                print!("{}", text::disassemble(&words, s.addr));
            } else {
                println!(".data {:#x}  ({} bytes)", s.addr, s.bytes.len());
            }
        }
        return;
    }

    // Architectural run (also supplies the pipeline's TLB preload).
    let mut func = FuncSim::new(&program);
    let ar = func.run(max_cycles.saturating_mul(8));
    println!(
        "architectural: {} instructions, exit {:?}, exception {:?}, {} output bytes",
        func.instret(),
        ar.exit_code,
        ar.exception,
        func.output().len()
    );
    if !func.output().is_empty() {
        println!("output: {:02x?}", &func.output()[..func.output().len().min(64)]);
    }
    if arch_only {
        return;
    }

    let mut cpu = Pipeline::new(&program, config);
    cpu.set_tlbs(func.code_pages().clone(), func.data_pages().clone());
    if let Some(cycle) = dump_at {
        for _ in 0..cycle {
            if !cpu.running() {
                break;
            }
            cpu.step();
        }
        print!("
{}", cpu.render_state());
        return;
    }
    if trace > 0 {
        println!("\n{:>7}  {:>5} {:>5} {:>4}  events", "cycle", "infl", "ret", "IPC");
        for _ in 0..trace {
            if !cpu.running() {
                break;
            }
            let report = cpu.step();
            let events: Vec<String> = report
                .events
                .iter()
                .map(|e| match e {
                    tfsim_uarch::RetireEvent::Retired(r) => format!("{:#x}", r.pc),
                    tfsim_uarch::RetireEvent::Halted { code } => format!("HALT({code})"),
                    tfsim_uarch::RetireEvent::Exception(x) => format!("EXC({x:?})"),
                })
                .collect();
            println!(
                "{:>7}  {:>5} {:>5} {:>4.2}  {}",
                cpu.cycles(),
                cpu.in_flight(),
                report.retired,
                cpu.instret() as f64 / cpu.cycles() as f64,
                events.join(" ")
            );
        }
        return;
    }

    cpu.run(max_cycles);
    let s = cpu.stats();
    println!(
        "pipeline:      {} instructions in {} cycles (IPC {:.2}), exit {:?}, exception {:?}",
        cpu.instret(),
        cpu.cycles(),
        cpu.instret() as f64 / cpu.cycles().max(1) as f64,
        cpu.halted(),
        cpu.exception()
    );
    println!(
        "stats:         bpred {:.1}%  dcache hit {:.1}%  icache misses {}  replays {}  violations {}  flushes {}",
        100.0 * s.branch_prediction_rate(),
        100.0 * s.dcache_hit_rate(),
        s.icache_misses,
        s.replays,
        s.violations,
        s.full_flushes
    );
    match (func.exit_code(), cpu.halted()) {
        (a, b) if a == b && func.output() == cpu.output() => {
            println!("models agree: identical exit code and output")
        }
        _ => println!("WARNING: the two models disagree!"),
    }
}
