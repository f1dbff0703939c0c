//! End-to-end tests of the campaign telemetry layer: histogram bucket
//! algebra (property-based), JSONL trace round-tripping through the
//! report builder, event-stream determinism across thread counts, the
//! traced/untraced census byte-identity contract, the deep-trace layer
//! (propagation timelines, span profile, journal identity across trace
//! levels), and the exact work counters.

use tfsim::check::prop::any_u64;
use tfsim_check::{prop_assert, prop_assert_eq, prop_check};

use tfsim::inject::{
    run_campaign_journaled, run_campaign_on, CampaignConfig,
    CampaignJournal, CampaignMetrics, CampaignObs, FailureMode, JournalMeta, OutcomeCounts,
};
use tfsim::obs::{
    parse_trace, strip_wall_clock, Event, Histogram, JsonlSink, Progress, RingSink, SpanProfiler,
    SCHEMA_VERSION,
};
use tfsim::stats::{census_rows, render_census, TelemetryReport};
use tfsim::workloads;

prop_check! {
    /// Every value lands in exactly the bucket whose bounds contain it.
    fn histogram_buckets_contain_their_values(v in any_u64()) {
        let i = Histogram::bucket_of(v);
        let (lo, hi) = Histogram::bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
        // Buckets tile the axis: the next bucket starts right after this one.
        if i + 1 < 65 {
            let (next_lo, _) = Histogram::bucket_bounds(i + 1);
            prop_assert_eq!(next_lo, hi + 1);
        }
    }
}

/// A small two-benchmark campaign: big enough to produce failures and
/// unit attributions, small enough to run several times in one test.
fn tiny_config(seed: u64, threads: usize) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed);
    config.scale = 1;
    config.start_points = 1;
    config.trials_per_start_point = 16;
    config.monitor_cycles = 1_500;
    config.threads = threads;
    config
}

fn tiny_workloads() -> Vec<workloads::Workload> {
    ["gzip-like", "twolf-like"]
        .iter()
        .map(|n| workloads::by_name(n).expect("workload"))
        .collect()
}

fn campaign_events(seed: u64, threads: usize) -> (OutcomeCounts, Vec<Event>) {
    let sink = RingSink::new(1 << 16);
    let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
    let result = run_campaign_journaled(&tiny_config(seed, threads), &tiny_workloads(), &obs, None);
    (result.totals(), sink.events())
}

fn census_of(counts: &OutcomeCounts) -> String {
    let rows = census_rows(
        counts.matched,
        counts.gray,
        FailureMode::ALL.iter().map(|m| (m.label(), counts.failure(*m))),
    );
    render_census(&rows)
}

/// A trace written as JSONL and parsed back yields the identical event
/// stream and the identical rendered report.
#[test]
fn jsonl_trace_round_trips_through_the_report() {
    let sink = JsonlSink::new(Vec::new());
    let progress = Progress::new();
    let obs = CampaignObs { sink: &sink, metrics: None, progress: Some(&progress), spans: None };
    let result = run_campaign_journaled(&tiny_config(3, 0), &tiny_workloads(), &obs, None);
    let text = String::from_utf8(sink.into_inner()).expect("utf8 trace");

    let parsed = parse_trace(&text).expect("parseable trace");
    let (_, direct) = campaign_events(3, 0);
    assert_eq!(
        strip_wall_clock(&parsed),
        strip_wall_clock(&direct),
        "JSONL round trip must preserve the stream exactly (modulo wall clock)"
    );

    let report = TelemetryReport::from_events(&parsed).expect("consistent trace");
    assert_eq!(report.trials(), 32);
    assert_eq!(report.trials(), result.totals().total());
    let rendered = report.render(10);
    let stripped_render = |events: &[Event]| {
        TelemetryReport::from_events(&strip_wall_clock(events)).expect("consistent").render(10)
    };
    assert_eq!(
        stripped_render(&parsed),
        stripped_render(&direct),
        "identical streams must render identically"
    );
    assert!(rendered.contains(&census_of(&result.totals())));
    assert_eq!(progress.snapshot(), (2, 2));
}

/// Two identical-seed campaigns produce identical event streams modulo
/// wall-clock, regardless of worker-thread count.
#[test]
fn event_stream_is_deterministic_across_thread_counts() {
    let (totals_a, events_a) = campaign_events(11, 1);
    let (totals_b, events_b) = campaign_events(11, 2);
    assert_eq!(totals_a, totals_b);
    assert_eq!(strip_wall_clock(&events_a), strip_wall_clock(&events_b));
}

/// The untraced census, the traced census, and the census reconstructed
/// from the event stream are byte-identical.
#[test]
fn traced_and_untraced_census_are_byte_identical() {
    let untraced = run_campaign_on(&tiny_config(7, 0), &tiny_workloads());
    let (traced_totals, events) = campaign_events(7, 0);
    assert_eq!(untraced.totals(), traced_totals);

    let direct = census_of(&untraced.totals());
    let from_trace = TelemetryReport::from_events(&events).expect("consistent trace");
    assert_eq!(direct, render_census(&from_trace.census()));
}

/// A deep-traced campaign with a span profiler attached: the full
/// schema-v2 stream (trials + propagation timelines + span profile).
fn deep_campaign_events(seed: u64, threads: usize) -> (OutcomeCounts, Vec<Event>) {
    let sink = RingSink::new(1 << 18);
    let profiler = SpanProfiler::new();
    let obs =
        CampaignObs { sink: &sink, metrics: None, progress: None, spans: Some(&profiler) };
    let mut config = tiny_config(seed, threads);
    config.deep_trace = true;
    let result = run_campaign_journaled(&config, &tiny_workloads(), &obs, None);
    (result.totals(), sink.events())
}

/// Deep-traced, traced, and untraced campaigns of the same seed produce
/// byte-identical censuses; the deep stream is a strict superset of the
/// trial stream (propagation + span events added, nothing else changed).
#[test]
fn deep_traced_census_is_byte_identical_and_stream_is_a_superset() {
    let untraced = run_campaign_on(&tiny_config(7, 0), &tiny_workloads());
    let (traced_totals, shallow) = campaign_events(7, 0);
    let (deep_totals, deep) = deep_campaign_events(7, 0);
    assert_eq!(untraced.totals(), traced_totals);
    assert_eq!(untraced.totals(), deep_totals);
    assert_eq!(
        census_of(&untraced.totals()),
        render_census(&TelemetryReport::from_events(&deep).expect("consistent").census())
    );

    // Dropping the new v2 event kinds from the deep stream recovers the
    // shallow stream exactly: deep tracing is pure observation.
    let filtered: Vec<Event> = deep
        .iter()
        .filter(|e| !matches!(e, Event::Propagation { .. } | Event::Span { .. }))
        .cloned()
        .collect();
    assert_eq!(strip_wall_clock(&filtered), strip_wall_clock(&shallow));
    assert!(
        deep.iter().any(|e| matches!(e, Event::Propagation { .. })),
        "deep stream carries propagation timelines"
    );
    assert!(
        deep.iter().any(|e| matches!(e, Event::Span { .. })),
        "deep stream carries the span profile"
    );
}

/// Deep-trace streams (propagation timelines, span node set) are
/// deterministic across worker-thread counts, modulo wall clock.
#[test]
fn deep_trace_stream_is_deterministic_across_thread_counts() {
    let (totals_a, events_a) = deep_campaign_events(11, 1);
    let (totals_b, events_b) = deep_campaign_events(11, 2);
    assert_eq!(totals_a, totals_b);
    assert_eq!(strip_wall_clock(&events_a), strip_wall_clock(&events_b));
}

/// A deep-traced JSONL trace round-trips: parsing the file back yields
/// the identical stream, and the propagation report renders non-empty
/// chains and a residency heatmap from it.
#[test]
fn deep_jsonl_trace_round_trips_and_renders_propagation() {
    let sink = JsonlSink::new(Vec::new());
    let profiler = SpanProfiler::new();
    let obs =
        CampaignObs { sink: &sink, metrics: None, progress: None, spans: Some(&profiler) };
    let mut config = tiny_config(3, 0);
    config.deep_trace = true;
    run_campaign_journaled(&config, &tiny_workloads(), &obs, None);
    let text = String::from_utf8(sink.into_inner()).expect("utf8 trace");

    let parsed = parse_trace(&text).expect("parseable deep trace");
    let (_, direct) = deep_campaign_events(3, 0);
    assert_eq!(strip_wall_clock(&parsed), strip_wall_clock(&direct));

    let report = TelemetryReport::from_events(&parsed).expect("consistent trace");
    assert!(report.deep_trials() > 0, "quick campaign must produce diverging timelines");
    let rendered = report.render_propagation(10);
    assert!(rendered.contains("propagation chains"), "missing chains:\n{rendered}");
    assert!(rendered.contains("residency heatmap"), "missing heatmap:\n{rendered}");
    assert!(rendered.contains("ttd p50"), "missing per-unit latencies:\n{rendered}");
    let json = report.propagation_json().render();
    assert!(json.contains("\"chains\":[{\"chain\":["), "machine aggregates missing:\n{json}");
}

/// Traces from a future (or prehistoric) schema version are rejected at
/// parse time, for the new v2 event kinds like everything else.
#[test]
fn deep_trace_schema_version_gates_parsing() {
    let sink = JsonlSink::new(Vec::new());
    let profiler = SpanProfiler::new();
    let obs =
        CampaignObs { sink: &sink, metrics: None, progress: None, spans: Some(&profiler) };
    let mut config = tiny_config(3, 0);
    config.deep_trace = true;
    run_campaign_journaled(&config, &tiny_workloads(), &obs, None);
    let text = String::from_utf8(sink.into_inner()).expect("utf8 trace");
    assert!(text.contains("\"ev\":\"propagation\""), "deep trace must carry v2 events");

    let current = format!("\"schema\":{SCHEMA_VERSION}");
    assert!(text.contains(&current), "header pins the schema version");
    let future = text.replacen(&current, &format!("\"schema\":{}", SCHEMA_VERSION + 1), 1);
    assert!(parse_trace(&future).is_err(), "future schema must be rejected");
    let ancient = text.replacen(&current, "\"schema\":0", 1);
    assert!(parse_trace(&ancient).is_err(), "pre-v1 schema must be rejected");
}

/// Untraced, traced, and deep-traced journaled runs write byte-identical
/// journal files: trace level is an observation channel, not experiment
/// identity, and journaled runs always journal their traces.
#[test]
fn journal_bytes_are_identical_across_trace_levels() {
    let journal_bytes = |tag: &str, deep: bool, with_sink: bool| {
        // One worker: tasks append journal lines in completion order.
        let mut cfg = tiny_config(5, 1);
        cfg.deep_trace = deep;
        let workloads = tiny_workloads();
        let path = std::env::temp_dir()
            .join(format!("tfsim-tracelevel-journal-{}-{tag}.jsonl", std::process::id()));
        let meta = JournalMeta::new(&cfg, &workloads);
        let j = CampaignJournal::create(&path, &meta).unwrap();
        let sink = RingSink::new(1 << 18);
        let profiler = SpanProfiler::new();
        let obs = if with_sink {
            CampaignObs {
                sink: &sink,
                metrics: None,
                progress: None,
                spans: Some(&profiler),
            }
        } else {
            CampaignObs::disabled()
        };
        run_campaign_journaled(&cfg, &workloads, &obs, Some(&j));
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    };
    let untraced = journal_bytes("untraced", false, false);
    let traced = journal_bytes("traced", false, true);
    let deep = journal_bytes("deep", true, true);
    assert_eq!(untraced, traced, "traced journal diverged from untraced");
    assert_eq!(untraced, deep, "deep-traced journal diverged from untraced");
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Pins what the engine journals and streams — traces, divergence cycles,
/// attributed units, deep timelines and the footer's disposition tally,
/// not just the census — to fixed digests, so an engine change that moves
/// any of them shows here. The injection window and monitor are not
/// multiples of 8, so decision cycles fall off the sparse golden-row grid;
/// the campaign is journaled (journals carry traces) and deep-traced
/// (every non-matching trial closes its timeline at its decision cycle).
/// Re-pin only for a change that alters the science on purpose, for a
/// change of task order shown to leave the journal's header and its set of
/// task lines unchanged (one worker appends a benchmark's start points
/// together, since they share one golden walk), or for a change of the
/// trace schema shown to leave every other event unchanged (schema v4
/// dropped the `phase` events: the stream is the v3 stream without its
/// `phase` lines, its header stamped 4).
#[test]
fn trace_and_journal_bytes_are_pinned() {
    let mut cfg = tiny_config(9, 1);
    cfg.start_points = 2;
    cfg.trials_per_start_point = 32;
    cfg.inject_window = 203;
    cfg.monitor_cycles = 1_203;
    cfg.deep_trace = true;
    let workloads = tiny_workloads();
    let path = std::env::temp_dir()
        .join(format!("tfsim-pinned-journal-{}.jsonl", std::process::id()));
    let j = CampaignJournal::create(&path, &JournalMeta::new(&cfg, &workloads)).unwrap();
    let sink = RingSink::new(1 << 18);
    let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
    run_campaign_journaled(&cfg, &workloads, &obs, Some(&j));
    drop(j);
    let journal = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let stream: String =
        strip_wall_clock(&sink.events()).iter().map(|e| e.to_json() + "\n").collect();
    const JOURNAL: u64 = 0x379f_4a36_d66b_be17;
    const PRUNED_STREAM: u64 = 0x43d7_5807_d454_64f1;
    assert_eq!((fnv1a(&journal), fnv1a(stream.as_bytes())), (JOURNAL, PRUNED_STREAM));
}

/// The telemetry footer's work counters are exact: a fixed campaign hashes
/// the same golden rows, mixes the same words into them, keeps the same
/// access-footprint events, steps its simulated trials through the same
/// cycles, and steps its fault-free machines (warm-ups, golden walks, and
/// walkers past their last injection to closings) through the same cycles
/// at any worker count.
#[test]
fn work_counters_are_exact_for_a_fixed_campaign() {
    let counters = |threads: usize| {
        let cfg = tiny_config(13, threads);
        let sink = RingSink::new(1 << 12);
        let metrics = CampaignMetrics::new();
        let obs = CampaignObs { sink: &sink, metrics: Some(&metrics), progress: None, spans: None };
        run_campaign_journaled(&cfg, &tiny_workloads(), &obs, None);
        let footer = metrics.render();
        assert_eq!(footer.lines().count(), 5, "five counters, nothing else:\n{footer}");
        let counter = |name: &str| -> u64 {
            footer
                .lines()
                .find_map(|l| l.trim_start().strip_prefix(name))
                .unwrap_or_else(|| panic!("{name} missing from the footer:\n{footer}"))
                .trim()
                .parse()
                .expect("counter value")
        };
        let printed = (
            counter("golden/rows_hashed"),
            counter("golden/words_hashed"),
            counter("footprint/events_kept"),
            counter("trials/cycles_stepped"),
            counter("golden/cycles_stepped"),
        );
        let w = metrics.work();
        let held =
            (w.rows_hashed, w.words_hashed, w.footprint_events, w.trial_cycles, w.golden_cycles);
        assert_eq!(printed, held, "the footer prints the counters it holds");
        printed
    };
    let pinned = (839, 2_732_623, 25, 519, 6_400);
    assert_eq!(counters(1), pinned, "one worker");
    assert_eq!(counters(2), pinned, "two workers");
}
