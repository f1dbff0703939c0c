//! `tfsim-run` and `figures` refuse what they cannot use: a malformed
//! argument or input ends the run with one line on stderr, prefixed with
//! the binary's name, and a nonzero exit (2 for usage, 1 for damaged
//! files), never a silent default or a crash. A traced campaign prints one
//! record of each measurement.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tfsim_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tfsim-run")).args(args).output().expect("start tfsim-run")
}

/// Checks a refused run's exit code and its single diagnostic line.
fn assert_refused_by(bin: &str, args: &[&str], out: Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: one line expected, got {stderr}");
    assert!(stderr.starts_with(&format!("{bin}: ")), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr:?} lacks {needle:?}");
}

/// Runs `tfsim-run args` and checks that it refuses them.
fn assert_refused(args: &[&str], code: i32, needle: &str) {
    assert_refused_by("tfsim-run", args, tfsim_run(args), code, needle);
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tfsim-cli-{}-{name}", std::process::id()))
}

#[test]
fn run_mode_rejects_malformed_arguments() {
    assert_refused(&["gzip-like", "--max-cycles", "abc"], 2, "--max-cycles needs a numeric");
    assert_refused(&["gzip-like", "--trace", "abc"], 2, "--trace needs a numeric");
    assert_refused(&["gzip-like", "--dump"], 2, "--dump needs a numeric");
    assert_refused(&["gzip-like", "--config", "fast"], 2, "unknown config");
    assert_refused(&["gzip-like", "--bogus"], 2, "unknown argument");
    assert_refused(&[], 2, "usage");
}

/// The functional run's instruction budget, eight per cycle, saturates:
/// the largest cycle budget runs the program to its halt.
#[test]
fn run_mode_takes_the_largest_cycle_budget() {
    let max = u64::MAX.to_string();
    let out = tfsim_run(&["gzip-like", "--max-cycles", &max, "--arch-only"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().any(|l| l.starts_with("architectural: ")), "{stdout}");
}

#[test]
fn figures_rejects_malformed_arguments() {
    // Each is refused before any campaign runs.
    let cases: [(&[&str], &str); 5] = [
        (&["--seed", "notanumber"], "--seed needs a numeric"),
        (&["--seed"], "--seed needs a numeric"),
        (&["--scale", "huge"], "unknown scale"),
        (&["--fig", "fig99"], "unknown figure id"),
        (&["--bogus"], "unknown argument"),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("start");
        assert_refused_by("figures", args, out, 2, needle);
    }
}

#[test]
fn campaigns_reject_scale_zero() {
    // Every program halts within about 50 cycles at scale 0, inside the
    // warm-up, so no start point would see a running machine.
    assert_refused(&["campaign", "--scale", "0"], 2, "scale must be at least 1");
    assert_refused(&["serve", "--scale", "0"], 2, "scale must be at least 1");
}

/// A schedule that cannot run is refused where it enters: on the command
/// line (exit 2), and in a journal header, which `merge`, `--resume` and a
/// worker's welcome all parse (exit 1). It is not drawn from an empty
/// window, run on programs that halt in their warm-up, wrapped past the
/// last cycle count into windows that end before their injections, or
/// walked past the cycles a golden walk can index.
#[test]
fn campaigns_reject_schedules_that_cannot_run() {
    let campaign = |monitor| {
        vec![
            "campaign", "--quick", "--seed", "7", "--start-points", "1", "--trials", "4",
            "--monitor", monitor, "--scale", "1", "--workloads", "gzip-like", "--threads", "1",
        ]
    };
    assert_refused(&campaign("18446744073709551615"), 2, "exceeds");

    let journal = tmp("schedule-journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let mut journaled = campaign("50");
    journaled.extend(["--journal", journal.to_str().unwrap()]);
    let out = tfsim_run(&journaled);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&journal).unwrap();
    let damage: [(&[(&str, &str)], &str); 3] = [
        (&[("\"inject_window\":200", "\"inject_window\":0")], "inject_window must be"),
        (&[("\"scale\":1", "\"scale\":0")], "scale must be at least 1"),
        (
            &[
                ("\"spacing_cycles\":600", "\"spacing_cycles\":9000000000000000000"),
                ("\"start_points\":1", "\"start_points\":2"),
            ],
            "exceeds",
        ),
    ];
    let shard = tmp("schedule-shard.jsonl");
    for (edits, needle) in damage {
        let damaged = edits.iter().fold(text.clone(), |t, (from, to)| t.replacen(from, to, 1));
        assert_ne!(damaged, text, "{edits:?}");
        std::fs::write(&shard, damaged).unwrap();
        assert_refused(&["merge", shard.to_str().unwrap()], 1, needle);
    }
    std::fs::remove_file(&shard).unwrap();
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn deeply_nested_json_is_refused_not_a_crash() {
    let nested = "[".repeat(200_000);

    let trace = tmp("nested-trace.jsonl");
    std::fs::write(&trace, format!("{nested}\n")).unwrap();
    assert_refused(&["report", trace.to_str().unwrap()], 1, "nested deeper than");
    std::fs::remove_file(&trace).unwrap();

    // A real journal with the line spliced in after its header, so the
    // damage sits mid-file rather than in a torn tail.
    let journal = tmp("nested-journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let campaign = [
        "campaign", "--quick", "--seed", "7", "--start-points", "1", "--trials", "1",
        "--monitor", "50", "--scale", "1", "--workloads", "gzip-like", "--threads", "1",
        "--journal", journal.to_str().unwrap(),
    ];
    let out = tfsim_run(&campaign);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&journal).unwrap();
    let (header, tasks) = text.split_once('\n').unwrap();
    std::fs::write(&journal, format!("{header}\n{nested}\n{tasks}")).unwrap();
    let resume: Vec<&str> = campaign.iter().copied().chain(["--resume"]).collect();
    assert_refused(&resume, 1, "nested deeper than");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn malformed_assembly_is_refused_not_a_crash() {
    let listings = [
        ("misaligned.s", ".org 0x10001\n halt\n", "line 1: code base 0x10001 is not 4-byte"),
        ("huge-zero.s", " halt\n.data 0x20000\n.zero 0x1000000000000\n", "line 3: .zero"),
        ("label-twice.s", "x: halt\nx: halt\n", "line 2: label \"x\" defined twice"),
    ];
    for (name, source, needle) in listings {
        let path = tmp(name);
        std::fs::write(&path, source).unwrap();
        assert_refused(&[path.to_str().unwrap()], 1, needle);
        std::fs::remove_file(&path).unwrap();
    }
}

/// A traced campaign records each measurement once. Its footer prints the
/// five exact work counters above the census, and no outcome counts, phase
/// timings or latency histograms of its own; the report on its trace
/// renders the span profile and no phase table. A trace of an older
/// schema, which may carry `phase` events, is refused.
#[test]
fn traced_campaign_footer_prints_only_the_work_counters() {
    let trace = tmp("footer-trace.jsonl");
    let campaign = [
        "campaign", "--quick", "--seed", "7", "--start-points", "1", "--trials", "4",
        "--monitor", "300", "--scale", "1", "--workloads", "gzip-like", "--threads", "1",
        "--trace", trace.to_str().unwrap(),
    ];
    let out = tfsim_run(&campaign);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (footer, rest) = stdout.split_once("\n\n").expect("a blank line ends the footer");
    let names: Vec<&str> = footer
        .lines()
        .map(|l| {
            let (name, value) = l.trim().split_once(' ').expect("name and value");
            assert!(value.trim().parse::<u64>().is_ok(), "{l:?} is no counter");
            name
        })
        .collect();
    let counters = [
        "golden/rows_hashed",
        "golden/words_hashed",
        "footprint/events_kept",
        "trials/cycles_stepped",
        "golden/cycles_stepped",
    ];
    assert_eq!(names, counters, "{stdout}");
    assert!(rest.starts_with("outcome census (4 trials)"), "{stdout}");
    assert!(rest.contains("\nspan profile (wall time, summed across workers)\n"), "{stdout}");

    let out = tfsim_run(&["report", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("\nspan profile ("), "{report}");
    assert!(report.contains("  spine"), "{report}");
    assert!(!report.contains("phase"), "{report}");

    let text = std::fs::read_to_string(&trace).unwrap();
    let v3 = tmp("footer-trace-v3.jsonl");
    std::fs::write(&v3, text.replacen("\"schema\":4,", "\"schema\":3,", 1)).unwrap();
    assert_refused(&["report", v3.to_str().unwrap()], 1, "unsupported schema version 3");
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&v3).unwrap();
}
