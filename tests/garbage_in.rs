//! Garbage in gives a diagnosis, never a panic. Every parser of a file or
//! wire input is fed seeded mutations of valid inputs: a deep-traced
//! campaign's JSONL trace, its journal, one event line, an assembly listing
//! and a chaos spec. Each mutated input goes to every parser, so each one
//! also sees the other formats' bytes. A parser may refuse an input with an
//! error; it may not panic (`tfsim_check::prop` reports the seed and case
//! of any panic, shrunk to the fewest mutations that still cause it).

use std::path::PathBuf;
use std::sync::OnceLock;

use tfsim::check::prop::{self, any_u64, ints, vecs, Config};
use tfsim::check::Chaos;
use tfsim::inject::{
    run_campaign_journaled, CampaignConfig, CampaignJournal, CampaignObs, JournalMeta,
};
use tfsim::isa::text::parse_program;
use tfsim::obs::{json, parse_trace, Event, JsonlSink, SpanProfiler};
use tfsim::stats::TelemetryReport;
use tfsim::workloads;

/// A listing short enough that mutations often land in its directives.
const LISTING: &str = "\
.org 65536
start: li r1, 3
loop:  subq r1, #1, r1
       stq r1, 8(r30)
       bne r1, loop
       exit 0
.data 131072
.quad 7, 0x10
.zero 64
";

/// The valid inputs and the journal's campaign identity.
struct Inputs {
    texts: [String; 5],
    meta: JournalMeta,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut config = CampaignConfig::quick(7);
        config.scale = 1;
        config.start_points = 1;
        config.trials_per_start_point = 4;
        config.monitor_cycles = 400;
        config.threads = 1;
        config.deep_trace = true;
        let workloads = [workloads::by_name("gzip-like").expect("workload")];
        let meta = JournalMeta::new(&config, &workloads);
        let path = scratch("journal");
        let journal = CampaignJournal::create(&path, &meta).expect("create journal");
        let sink = JsonlSink::new(Vec::new());
        let spans = SpanProfiler::new();
        let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: Some(&spans) };
        run_campaign_journaled(&config, &workloads, &obs, Some(&journal));
        drop(journal);
        let trace = String::from_utf8(sink.into_inner()).expect("utf8 trace");
        let journal = std::fs::read_to_string(&path).expect("read journal");
        std::fs::remove_file(&path).expect("remove journal");
        let event = trace.lines().find(|l| l.contains("\"propagation\"")).expect("a timeline");
        let chaos = "seed=11,kill=n2,stall=p250".to_string();
        Inputs { texts: [trace.clone(), journal, event.to_string(), LISTING.into(), chaos], meta }
    })
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tfsim-garbage-in-{}-{name}", std::process::id()))
}

/// Applies one mutation to `bytes`: `kind` picks it, `a` and `b` place it.
fn mutate(bytes: &mut Vec<u8>, kind: u8, a: u64, b: u64) {
    let at = |n: usize| (a % (n as u64 + 1)) as usize;
    match kind {
        // Flip one bit.
        0 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            bytes[i] ^= 1 << (b % 8);
        }
        // Insert a byte.
        1 => bytes.insert(at(bytes.len()), b as u8),
        // Delete a byte.
        2 if !bytes.is_empty() => {
            bytes.remove(at(bytes.len() - 1));
        }
        // Splice a 20-digit number over one of the input's numbers (at any
        // position when it has none).
        3 => {
            let mut runs = Vec::new();
            for (i, c) in bytes.iter().enumerate() {
                match (c.is_ascii_digit(), runs.last_mut()) {
                    (true, Some((_, end))) if *end == i => *end = i + 1,
                    (true, _) => runs.push((i, i + 1)),
                    (false, _) => {}
                }
            }
            let i = at(bytes.len());
            let (i, j) = runs.get(a as usize % runs.len().max(1)).copied().unwrap_or((i, i));
            bytes.splice(i..j, format!("{b:020}").into_bytes());
        }
        // Duplicate a span of up to 64 bytes.
        4 => {
            let i = at(bytes.len());
            let j = (i + (b % 64) as usize).min(bytes.len());
            let span = bytes[i..j].to_vec();
            bytes.splice(j..j, span);
        }
        // Swap two lines.
        5 => {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let mut lines: Vec<&str> = text.split('\n').collect();
            let n = lines.len() as u64;
            lines.swap((a % n) as usize, (b % n) as usize);
            *bytes = lines.join("\n").into_bytes();
        }
        _ => {}
    }
}

/// Feeds `text` to every parser, and what parses on to what consumes it.
fn digest(text: &str, meta: &JournalMeta, journal: &PathBuf) {
    if let Ok(events) = parse_trace(text) {
        if let Ok(report) = TelemetryReport::from_events(&events) {
            report.render(5);
            report.render_propagation(5);
        }
    }
    let _ = Event::from_json(text);
    let _ = json::parse(text);
    if let Ok(parsed) = JournalMeta::parse(text.lines().next().unwrap_or("")) {
        let _ = parsed.to_campaign();
    }
    std::fs::write(journal, text).expect("write journal");
    let _ = CampaignJournal::resume(journal, meta);
    let _ = parse_program("garbage", text);
    let _ = Chaos::parse(text);
}

/// Seeded mutations of each valid input never make a parser panic.
#[test]
fn mutated_inputs_are_refused_not_a_crash() {
    // More cases than the harness's default: most mutations leave an input
    // valid, or break it the way many others do. `TFSIM_PROP_CASES` still
    // sets the count.
    let mut cfg = Config::from_env();
    if std::env::var_os("TFSIM_PROP_CASES").is_none() {
        cfg.cases = 2_000;
    }
    let gen = (ints(0usize..5), vecs((ints(0u8..6), any_u64(), any_u64()), 1..5));
    prop::run(&cfg, "mutated_inputs_are_refused_not_a_crash", &gen, |(input, mutations)| {
        let Inputs { texts, meta } = inputs();
        let mut bytes = texts[*input].clone().into_bytes();
        for &(kind, a, b) in mutations {
            mutate(&mut bytes, kind, a, b);
        }
        let text = String::from_utf8_lossy(&bytes);
        let journal = scratch(&format!("case-{input}"));
        digest(&text, meta, &journal);
        let _ = std::fs::remove_file(&journal);
        Ok(())
    });
}

/// The unmutated inputs parse: the mutations start from valid bytes.
#[test]
fn the_seed_inputs_are_valid() {
    let Inputs { texts, meta } = inputs();
    let events = parse_trace(&texts[0]).expect("trace");
    let report = TelemetryReport::from_events(&events).expect("consistent trace");
    assert!(report.render_propagation(5).contains("propagation chains"));
    let path = scratch("valid");
    std::fs::write(&path, &texts[1]).expect("write journal");
    let resumed = CampaignJournal::resume(&path, meta).expect("journal");
    assert_eq!(resumed.completed().len(), 1);
    std::fs::remove_file(&path).expect("remove journal");
    Event::from_json(&texts[2]).expect("event line");
    parse_program("listing", &texts[3]).expect("listing");
    Chaos::parse(&texts[4]).expect("chaos spec");
}
