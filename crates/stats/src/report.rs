//! Fault-propagation reports rebuilt from campaign telemetry traces.
//!
//! The `tfsim-run report` subcommand feeds a parsed JSONL event stream
//! (`tfsim_obs::Event`) into [`TelemetryReport::from_events`] and renders
//! the result: outcome census, per-category and per-unit vulnerability
//! with Wilson confidence intervals, injected-unit → first-diverging-unit
//! propagation pairs, latency histograms, and the span profile.
//!
//! The census block is also used by the *untraced* campaign path: both
//! renderers build their rows through [`census_rows`], which is what
//! guarantees a traced campaign's census is byte-identical to the
//! untraced one for the same seed and configuration.

use std::collections::BTreeMap;

use tfsim_obs::json::{obj, Json};
use tfsim_obs::{Event, Histogram, PruneDispositions};

use crate::{pct, wilson_ci, Confidence, Table};

/// Canonical outcome-census rows: `match`, `gray`, then one `fail:<mode>`
/// row per *observed* failure mode in alphabetical mode order (which is
/// also the paper's Table 2 order). Zero-count modes are omitted.
pub fn census_rows<'a>(
    matched: u64,
    gray: u64,
    failures: impl IntoIterator<Item = (&'a str, u64)>,
) -> Vec<(String, u64)> {
    let mut rows = vec![("match".to_string(), matched), ("gray".to_string(), gray)];
    let mut modes: Vec<(&str, u64)> = failures.into_iter().collect();
    modes.sort_by(|a, b| a.0.cmp(b.0));
    for (mode, n) in modes {
        if n > 0 {
            rows.push((format!("fail:{mode}"), n));
        }
    }
    rows
}

/// Renders census rows (from [`census_rows`]) as the outcome-census table.
pub fn render_census(rows: &[(String, u64)]) -> String {
    let total: u64 = rows.iter().map(|(_, n)| *n).sum();
    let mut t = Table::new(&["outcome", "trials", "%"]);
    for (label, n) in rows {
        t.row_owned(vec![label.clone(), n.to_string(), pct(*n, total)]);
    }
    format!("outcome census ({total} trials)\n{}", t.render())
}

/// Trials and failures for one slice (a category or a unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slice {
    trials: u64,
    failed: u64,
}

/// Cycle-offset buckets in the residency heatmap. Few enough to render in
/// an 80-column terminal, enough to show front-loaded vs. lingering faults.
const RESIDENCY_BUCKETS: usize = 16;

/// Intensity ramp for heatmap cells, blank through densest.
const HEATMAP_RAMP: &[u8] = b" .:-=+*#%@";

/// Per-unit divergence-episode statistics from deep-trace timelines.
///
/// One *episode* is one deep-traced trial whose timeline contained the
/// unit at least once; `ttd` holds, per episode, the cycles from the
/// unit's first appearance to the trial's detection cycle.
#[derive(Debug, Clone, Default)]
struct UnitPropagation {
    episodes: u64,
    failed: u64,
    ttd: Vec<u64>,
}

/// Aggregated view of a campaign trace, ready for rendering.
///
/// Build with [`TelemetryReport::from_events`] from a stream already
/// validated by `tfsim_obs::parse_trace` (header first, known schema).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    seed: u64,
    benchmarks: Vec<String>,
    start_points: u64,
    trials_per_start_point: u64,
    inject_window: u64,
    monitor_cycles: u64,
    trials: u64,
    matched: u64,
    gray: u64,
    quarantined: u64,
    modes: BTreeMap<String, u64>,
    by_category: BTreeMap<String, Slice>,
    by_unit: BTreeMap<String, Slice>,
    propagation: BTreeMap<(String, String), u64>,
    /// Deep-trace aggregation: distinct propagation chains (units in
    /// first-appearance order) and how many timelines followed each.
    chains: BTreeMap<Vec<String>, u64>,
    /// Deep-trace aggregation: per-unit diverged-cycle weight in each of
    /// [`RESIDENCY_BUCKETS`] equal cycle-offset buckets after injection.
    residency: BTreeMap<String, [u64; RESIDENCY_BUCKETS]>,
    /// Deep-trace aggregation: per-unit divergence episodes and TTDs.
    unit_propagation: BTreeMap<String, UnitPropagation>,
    /// Trials that carried a propagation timeline.
    deep_trials: u64,
    /// Span profile: `;`-separated path → (total wall ns, calls).
    spans: BTreeMap<String, (u64, u64)>,
    fail_latency: Histogram,
    match_latency: Histogram,
    divergence_latency: Histogram,
    eligible_bits: Option<u64>,
    wall_ns: Option<u64>,
    prune: Option<PruneDispositions>,
}

impl TelemetryReport {
    /// Aggregates an event stream into a report.
    ///
    /// Returns an error if the stream lacks a `CampaignStart` header, if
    /// an event names a benchmark, start point or trial off the header's
    /// grid, if a trial is decided before its injection, or if the
    /// `CampaignEnd` footer's totals disagree with the trial events — a
    /// truncated or corrupted trace fails loudly instead of producing a
    /// quietly wrong report.
    pub fn from_events(events: &[Event]) -> Result<TelemetryReport, String> {
        let header = match events.first() {
            Some(Event::CampaignStart {
                seed,
                benchmarks,
                start_points,
                trials_per_start_point,
                inject_window,
                monitor_cycles,
                ..
            }) => (
                *seed,
                benchmarks.clone(),
                *start_points,
                *trials_per_start_point,
                *inject_window,
                *monitor_cycles,
            ),
            _ => return Err("trace does not begin with a campaign_start event".to_string()),
        };
        let mut report = TelemetryReport {
            seed: header.0,
            benchmarks: header.1,
            start_points: header.2,
            trials_per_start_point: header.3,
            inject_window: header.4,
            monitor_cycles: header.5,
            trials: 0,
            matched: 0,
            gray: 0,
            quarantined: 0,
            modes: BTreeMap::new(),
            by_category: BTreeMap::new(),
            by_unit: BTreeMap::new(),
            propagation: BTreeMap::new(),
            chains: BTreeMap::new(),
            residency: BTreeMap::new(),
            unit_propagation: BTreeMap::new(),
            deep_trials: 0,
            spans: BTreeMap::new(),
            fail_latency: Histogram::new(),
            match_latency: Histogram::new(),
            divergence_latency: Histogram::new(),
            eligible_bits: None,
            wall_ns: None,
            prune: None,
        };
        // Propagation events are only meaningful relative to the trial
        // they follow (its injection cycle anchors the timeline, its
        // outcome labels the episode), so the last trial's context —
        // (identity key, inject cycle, detect cycle, failed) — rides
        // along between events.
        type TrialContext = ((u64, u64, u64), u64, u64, bool);
        let mut last_trial: Option<TrialContext> = None;
        for (i, ev) in events.iter().enumerate().skip(1) {
            report.check_grid(i + 1, ev)?;
            match ev {
                Event::Trial {
                    benchmark,
                    start_point,
                    trial,
                    inject_cycle,
                    category,
                    unit,
                    outcome,
                    mode,
                    detect_cycle,
                    divergence_cycle,
                    diverged_unit,
                    ..
                } => {
                    if detect_cycle < inject_cycle {
                        return Err(format!(
                            "event {}: trial ({benchmark}, {start_point}, {trial}) is decided at \
                             cycle {detect_cycle}, before its injection at cycle {inject_cycle}",
                            i + 1
                        ));
                    }
                    report.trials += 1;
                    let failed = outcome == "fail";
                    match outcome.as_str() {
                        "match" => report.matched += 1,
                        "gray" => report.gray += 1,
                        "fail" => {
                            let label = mode.clone().unwrap_or_else(|| "?".to_string());
                            *report.modes.entry(label).or_insert(0) += 1;
                        }
                        other => return Err(format!("unknown trial outcome {other:?}")),
                    }
                    let cat = report.by_category.entry(category.clone()).or_default();
                    cat.trials += 1;
                    cat.failed += failed as u64;
                    let unit_label = unit.clone().unwrap_or_else(|| "(shared)".to_string());
                    let u = report.by_unit.entry(unit_label.clone()).or_default();
                    u.trials += 1;
                    u.failed += failed as u64;
                    let latency = detect_cycle.saturating_sub(*inject_cycle);
                    match outcome.as_str() {
                        "fail" => report.fail_latency.record(latency),
                        "match" => report.match_latency.record(latency),
                        _ => {}
                    }
                    if let Some(div) = divergence_cycle {
                        report.divergence_latency.record(div.saturating_sub(*inject_cycle));
                        let to = diverged_unit.clone().unwrap_or_else(|| "(global)".to_string());
                        *report.propagation.entry((unit_label, to)).or_insert(0) += 1;
                    }
                    last_trial = Some((
                        (*benchmark, *start_point, *trial),
                        *inject_cycle,
                        *detect_cycle,
                        failed,
                    ));
                }
                Event::Propagation { benchmark, start_point, trial, samples } => {
                    let Some((key, inject, detect, failed)) = last_trial else {
                        return Err("propagation event before any trial event".to_string());
                    };
                    if key != (*benchmark, *start_point, *trial) {
                        return Err(format!(
                            "propagation event for trial ({benchmark}, {start_point}, {trial}) \
                             does not follow its trial event"
                        ));
                    }
                    report.absorb_timeline(samples, inject, detect, failed);
                }
                Event::Span { path, wall_ns, calls } => {
                    let s = report.spans.entry(path.clone()).or_insert((0, 0));
                    s.0 += wall_ns;
                    s.1 += calls;
                }
                Event::Quarantine { .. } => {
                    report.quarantined += 1;
                }
                // Coordinator ops events (worker lifecycle, lease accounting)
                // live in a separate operational trace; tolerate them here so
                // a concatenated trace still reports.
                Event::Worker { .. } | Event::Lease { .. } => {}
                Event::CampaignEnd {
                    trials,
                    matched,
                    gray,
                    failed,
                    eligible_bits,
                    wall_ns,
                    quarantined,
                    prune,
                } => {
                    let failed_seen: u64 = report.modes.values().sum();
                    if (*trials, *matched, *gray, *failed)
                        != (report.trials, report.matched, report.gray, failed_seen)
                    {
                        return Err(format!(
                            "campaign_end totals ({trials} trials, {matched}/{gray}/{failed}) \
                             disagree with the {} trial events seen ({}/{}/{}) — truncated trace?",
                            report.trials, report.matched, report.gray, failed_seen
                        ));
                    }
                    if *quarantined != report.quarantined {
                        return Err(format!(
                            "campaign_end claims {quarantined} quarantined trials but the \
                             trace carries {} quarantine events — truncated trace?",
                            report.quarantined
                        ));
                    }
                    report.eligible_bits = Some(*eligible_bits);
                    report.wall_ns = Some(*wall_ns);
                    report.prune = *prune;
                }
                Event::CampaignStart { .. } => {
                    return Err("duplicate campaign_start event".to_string());
                }
            }
        }
        Ok(report)
    }

    /// Checks that event number `n` (1-based), if it names a benchmark,
    /// start point or trial, names one on the `campaign_start` header's
    /// grid.
    fn check_grid(&self, n: usize, ev: &Event) -> Result<(), String> {
        let (kind, benchmark, start_point, trial) = match ev {
            Event::Trial { benchmark, start_point, trial, .. } => {
                ("trial", *benchmark, *start_point, Some(*trial))
            }
            Event::Propagation { benchmark, start_point, trial, .. } => {
                ("propagation", *benchmark, *start_point, Some(*trial))
            }
            Event::Quarantine { benchmark, start_point, trial, .. } => {
                ("quarantine", *benchmark, *start_point, Some(*trial))
            }
            Event::Lease { benchmark, start_point, .. } => {
                ("lease", *benchmark, *start_point, None)
            }
            _ => return Ok(()),
        };
        let benchmarks = self.benchmarks.len() as u64;
        let off = if benchmark >= benchmarks {
            Some(format!("benchmark {benchmark} of {benchmarks}"))
        } else if start_point >= self.start_points {
            Some(format!("start point {start_point} of {}", self.start_points))
        } else {
            trial
                .filter(|&t| t >= self.trials_per_start_point)
                .map(|t| format!("trial {t} of {}", self.trials_per_start_point))
        };
        match off {
            Some(off) => Err(format!("event {n} ({kind}) names {off} in the campaign_start grid")),
            None => Ok(()),
        }
    }

    /// Folds one trial's divergence timeline into the chain, residency,
    /// and time-to-detection aggregates.
    ///
    /// Each change-only sample `(cycle, units)` holds until the next
    /// sample's cycle; the last sample holds until the trial's detection
    /// cycle. Residency weight is therefore *cycles spent diverged*, not
    /// sample counts, so a fault that settles into one unit for 1000
    /// cycles outweighs one that flickers through it for 2.
    fn absorb_timeline(
        &mut self,
        samples: &[(u64, Vec<String>)],
        inject: u64,
        detect: u64,
        failed: bool,
    ) {
        if samples.is_empty() {
            return;
        }
        self.deep_trials += 1;

        // Chain: units in order of first appearance across the timeline.
        let mut chain: Vec<String> = Vec::new();
        let mut first_seen: BTreeMap<&str, u64> = BTreeMap::new();
        for (cycle, units) in samples {
            for u in units {
                if !first_seen.contains_key(u.as_str()) {
                    first_seen.insert(u, *cycle);
                    chain.push(u.clone());
                }
            }
        }
        if !chain.is_empty() {
            *self.chains.entry(chain).or_insert(0) += 1;
        }
        for (u, first) in first_seen {
            let up = self.unit_propagation.entry(u.to_string()).or_default();
            up.episodes += 1;
            up.failed += failed as u64;
            up.ttd.push(detect.saturating_sub(first));
        }

        // Residency: distribute each sample's hold interval (in cycle
        // offsets after injection) over the fixed bucket grid.
        let bucket_cycles = self.bucket_cycles();
        let horizon = bucket_cycles * RESIDENCY_BUCKETS as u64;
        for (i, (cycle, units)) in samples.iter().enumerate() {
            if units.is_empty() {
                continue;
            }
            let start = cycle.saturating_sub(inject).min(horizon);
            let end = samples
                .get(i + 1)
                .map_or(detect.max(*cycle), |(next, _)| *next)
                .saturating_sub(inject)
                .clamp(start + 1, horizon.max(start + 1));
            for b in 0..RESIDENCY_BUCKETS {
                let lo = (b as u64 * bucket_cycles).max(start);
                let hi = ((b as u64 + 1) * bucket_cycles).min(end);
                if lo < hi {
                    for u in units {
                        self.residency.entry(u.clone()).or_insert([0; RESIDENCY_BUCKETS])[b] +=
                            hi - lo;
                    }
                }
            }
        }
    }

    /// Width of one residency-heatmap bucket in cycles.
    fn bucket_cycles(&self) -> u64 {
        (self.monitor_cycles.max(1)).div_ceil(RESIDENCY_BUCKETS as u64)
    }

    /// Total trials aggregated.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Trials that carried a deep-trace propagation timeline.
    pub fn deep_trials(&self) -> u64 {
        self.deep_trials
    }

    /// The outcome census rows (shared shape with the untraced path).
    pub fn census(&self) -> Vec<(String, u64)> {
        census_rows(self.matched, self.gray, self.modes.iter().map(|(m, n)| (m.as_str(), *n)))
    }

    /// Renders the full report; `top_n` bounds the unit and propagation
    /// tables.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        out.push_str("campaign telemetry report\n");
        out.push_str(&format!(
            "  seed {} · {} benchmarks · {} start points × {} trials · inject window {} · monitor {} cycles\n",
            self.seed,
            self.benchmarks.len(),
            self.start_points,
            self.trials_per_start_point,
            self.inject_window,
            self.monitor_cycles,
        ));
        if let Some(bits) = self.eligible_bits {
            out.push_str(&format!("  eligible bits: {bits}\n"));
        }
        if let Some(ns) = self.wall_ns {
            if ns > 0 {
                out.push_str(&format!("  campaign wall clock: {:.2}s\n", ns as f64 / 1e9));
            }
        }
        out.push('\n');
        out.push_str(&render_census(&self.census()));

        out.push_str("\nvulnerability by category (95% Wilson CI)\n");
        out.push_str(&render_slices(&self.by_category, usize::MAX));

        out.push_str(&format!("\ntop {} vulnerable units (95% Wilson CI)\n", top_n));
        out.push_str(&render_slices(&self.by_unit, top_n));

        if !self.propagation.is_empty() {
            out.push_str("\nfault propagation (injected unit → first diverging unit)\n");
            let mut pairs: Vec<(&(String, String), &u64)> = self.propagation.iter().collect();
            pairs.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            let dropped = pairs.len().saturating_sub(top_n);
            let mut t = Table::new(&["injected", "diverged", "trials"]);
            for ((from, to), n) in pairs.into_iter().take(top_n) {
                t.row_owned(vec![from.clone(), to.clone(), n.to_string()]);
            }
            out.push_str(&t.render());
            out.push_str(&truncation_note(dropped, "pairs"));
        }

        if self.deep_trials > 0 {
            out.push_str(&format!(
                "\n{} deep-traced timelines aggregated — render with --propagation for \
                 chains, residency heatmap, and per-unit detection latencies\n",
                self.deep_trials
            ));
        }

        out.push('\n');
        out.push_str(&self.fail_latency.render("cycles to failure detection"));
        out.push('\n');
        out.push_str(&self.match_latency.render("cycles to reconvergence (µarch match)"));
        out.push('\n');
        out.push_str(&self.divergence_latency.render("cycles to first µarch divergence"));

        if !self.spans.is_empty() {
            out.push_str("\nspan profile (wall time per span, summed across workers)\n");
            let mut t = Table::new(&["span", "calls", "total ms"]);
            for (path, (ns, calls)) in &self.spans {
                // Indent by depth so the `;`-separated paths read as a tree.
                let depth = path.matches(';').count();
                let leaf = path.rsplit(';').next().unwrap_or(path);
                t.row_owned(vec![
                    format!("{}{leaf}", "  ".repeat(depth)),
                    calls.to_string(),
                    format!("{:.1}", *ns as f64 / 1e6),
                ]);
            }
            out.push_str(&t.render());
        }
        if let Some(p) = &self.prune {
            // Pruner accounting: how the planned census volume was
            // discharged. Only simulated sites ran the pipeline; the rest
            // were proved masked from the golden access footprint.
            let total = p.total();
            out.push_str(&format!(
                "\npruner dispositions: {} proved dead ({}), {} class-collapsed ({}), \
                 {} simulated ({}) of {} sites\n",
                p.proved_dead,
                pct(p.proved_dead, total),
                p.class_collapsed,
                pct(p.class_collapsed, total),
                p.simulated,
                pct(p.simulated, total),
                total,
            ));
        }
        if self.quarantined > 0 {
            // Harness health, not an outcome: quarantined trials are
            // panics the containment backstop caught, kept out of the
            // census above (see DESIGN.md on corrupted-state hardening).
            let planned = self.trials + self.quarantined;
            out.push_str(&format!(
                "\nquarantined trials: {} of {} planned ({}) — harness escapes, not outcomes\n",
                self.quarantined,
                planned,
                pct(self.quarantined, planned),
            ));
        }
        out
    }

    /// Renders the deep-trace propagation report: chains, the per-unit
    /// residency heatmap, and per-unit detection-latency distributions.
    ///
    /// Empty (with a pointer at `--deep-trace`) when the stream carried no
    /// propagation timelines.
    pub fn render_propagation(&self, top_n: usize) -> String {
        if self.deep_trials == 0 {
            return "no propagation timelines in this trace — record one with \
                    `tfsim-run campaign --trace … --deep-trace`\n"
                .to_string();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "fault propagation report · {} deep-traced timelines of {} trials\n",
            self.deep_trials, self.trials,
        ));

        out.push_str("\npropagation chains (units in first-divergence order)\n");
        let mut chains: Vec<(&Vec<String>, &u64)> = self.chains.iter().collect();
        chains.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let dropped = chains.len().saturating_sub(top_n);
        let mut t = Table::new(&["chain", "trials", "%"]);
        for (chain, n) in chains.into_iter().take(top_n) {
            t.row_owned(vec![chain.join(" → "), n.to_string(), pct(*n, self.deep_trials)]);
        }
        out.push_str(&t.render());
        out.push_str(&truncation_note(dropped, "chains"));

        out.push_str(&self.render_residency_heatmap());

        out.push_str("\nper-unit divergence episodes (95% Wilson CI on failure rate)\n");
        let mut t = Table::new(&[
            "unit",
            "timelines",
            "failed",
            "fail %",
            "ci ±",
            "ttd p50",
            "ttd p90",
            "ttd max",
        ]);
        let mut units: Vec<(&String, &UnitPropagation)> = self.unit_propagation.iter().collect();
        units.sort_by(|a, b| b.1.episodes.cmp(&a.1.episodes).then_with(|| a.0.cmp(b.0)));
        for (unit, up) in units {
            let ci = wilson_ci(up.failed, up.episodes, Confidence::P95);
            let mut ttd = up.ttd.clone();
            ttd.sort_unstable();
            let q = |f: f64| ttd[((ttd.len() - 1) as f64 * f) as usize];
            t.row_owned(vec![
                unit.clone(),
                up.episodes.to_string(),
                up.failed.to_string(),
                pct(up.failed, up.episodes),
                format!("{:.1}", 100.0 * ci.half_width),
                q(0.5).to_string(),
                q(0.9).to_string(),
                ttd[ttd.len() - 1].to_string(),
            ]);
        }
        out.push_str(&t.render());
        out
    }

    /// ASCII heatmap: one row per unit, one column per cycle-offset
    /// bucket, cell intensity ∝ diverged-cycle weight (row-normalized so
    /// a rarely-hit unit's shape is still visible).
    fn render_residency_heatmap(&self) -> String {
        let bucket = self.bucket_cycles();
        let mut out = format!(
            "\nresidency heatmap (diverged cycles per unit × {RESIDENCY_BUCKETS} buckets of \
             {bucket} cycles after injection)\n"
        );
        let width = self.residency.keys().map(|u| u.len()).max().unwrap_or(4).max(4);
        let mut rows: Vec<(&String, &[u64; RESIDENCY_BUCKETS])> = self.residency.iter().collect();
        rows.sort_by(|a, b| {
            let (sa, sb) = (a.1.iter().sum::<u64>(), b.1.iter().sum::<u64>());
            sb.cmp(&sa).then_with(|| a.0.cmp(b.0))
        });
        for (unit, buckets) in rows {
            let max = *buckets.iter().max().expect("fixed-size row");
            let mut cells = String::new();
            for &v in buckets {
                let idx = if v == 0 || max == 0 {
                    0
                } else {
                    // Nonzero weight always gets at least the faintest ink.
                    (v * (HEATMAP_RAMP.len() as u64 - 2)).div_ceil(max) as usize
                };
                cells.push(HEATMAP_RAMP[idx] as char);
            }
            out.push_str(&format!(
                "  {unit:<width$} |{cells}|  {} cycles\n",
                buckets.iter().sum::<u64>()
            ));
        }
        out.push_str(&format!(
            "  {:<width$} |{}|  ramp: '{}' = 0 → '{}' = row max\n",
            "",
            " ".repeat(RESIDENCY_BUCKETS),
            HEATMAP_RAMP[0] as char,
            *HEATMAP_RAMP.last().expect("non-empty ramp") as char,
        ));
        out
    }

    /// The propagation aggregates as one machine-readable JSON object
    /// (chains, residency matrix, per-unit episode stats) for downstream
    /// tooling; the schema mirrors [`TelemetryReport::render_propagation`].
    pub fn propagation_json(&self) -> Json {
        let chains = Json::Arr(
            self.chains
                .iter()
                .map(|(chain, n)| {
                    Json::Obj(BTreeMap::from([
                        (
                            "chain".to_string(),
                            Json::Arr(chain.iter().map(|u| Json::Str(u.clone())).collect()),
                        ),
                        ("trials".to_string(), Json::Int(*n as i128)),
                    ]))
                })
                .collect(),
        );
        let residency = Json::Obj(
            self.residency
                .iter()
                .map(|(unit, buckets)| {
                    (
                        unit.clone(),
                        Json::Arr(buckets.iter().map(|&v| Json::Int(v as i128)).collect()),
                    )
                })
                .collect(),
        );
        let units = Json::Obj(
            self.unit_propagation
                .iter()
                .map(|(unit, up)| {
                    (
                        unit.clone(),
                        Json::Obj(BTreeMap::from([
                            ("timelines".to_string(), Json::Int(up.episodes as i128)),
                            ("failed".to_string(), Json::Int(up.failed as i128)),
                            (
                                "ttd".to_string(),
                                Json::Arr(up.ttd.iter().map(|&v| Json::Int(v as i128)).collect()),
                            ),
                        ])),
                    )
                })
                .collect(),
        );
        obj([
            ("deep_trials", Json::Int(self.deep_trials as i128)),
            ("bucket_cycles", Json::Int(self.bucket_cycles() as i128)),
            ("residency_buckets", Json::Int(RESIDENCY_BUCKETS as i128)),
            ("chains", chains),
            ("residency", residency),
            ("units", units),
        ])
    }
}

/// Renders a vulnerability table for named slices, most vulnerable first.
fn render_slices(slices: &BTreeMap<String, Slice>, top_n: usize) -> String {
    let mut rows: Vec<(&String, &Slice)> = slices.iter().collect();
    rows.sort_by(|a, b| {
        let ra = rate(a.1);
        let rb = rate(b.1);
        rb.total_cmp(&ra).then_with(|| a.0.cmp(b.0))
    });
    let dropped = rows.len().saturating_sub(top_n);
    let mut t = Table::new(&["slice", "trials", "failed", "fail %", "ci ±"]);
    for (name, s) in rows.into_iter().take(top_n) {
        let ci = wilson_ci(s.failed, s.trials, Confidence::P95);
        t.row_owned(vec![
            name.clone(),
            s.trials.to_string(),
            s.failed.to_string(),
            pct(s.failed, s.trials),
            format!("{:.1}", 100.0 * ci.half_width),
        ]);
    }
    format!("{}{}", t.render(), truncation_note(dropped, "rows"))
}

/// A one-line `… N more <what> not shown` marker, or nothing when the
/// table was complete — truncated tables must say so instead of passing
/// as exhaustive.
fn truncation_note(dropped: usize, what: &str) -> String {
    if dropped == 0 {
        String::new()
    } else {
        format!("  … {dropped} more {what} not shown\n")
    }
}

fn rate(s: &Slice) -> f64 {
    if s.trials == 0 {
        0.0
    } else {
        s.failed as f64 / s.trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_obs::SCHEMA_VERSION;

    fn trial(
        category: &str,
        unit: Option<&str>,
        outcome: &str,
        mode: Option<&str>,
        inject: u64,
        detect: u64,
        div: Option<(u64, &str)>,
    ) -> Event {
        Event::Trial {
            benchmark: 0,
            start_point: 0,
            trial: 0,
            target: 0,
            inject_cycle: inject,
            category: category.to_string(),
            kind: "latch".to_string(),
            unit: unit.map(str::to_string),
            outcome: outcome.to_string(),
            mode: mode.map(str::to_string),
            detect_cycle: detect,
            divergence_cycle: div.map(|(c, _)| c),
            diverged_unit: div.map(|(_, u)| u.to_string()),
            valid_instructions: 0,
        }
    }

    fn sample_stream() -> Vec<Event> {
        vec![
            Event::CampaignStart {
                schema: SCHEMA_VERSION,
                seed: 11,
                benchmarks: vec!["gzip-like".to_string()],
                start_points: 1,
                trials_per_start_point: 4,
                inject_window: 100,
                monitor_cycles: 2000,
            },
            Event::Span { path: "campaign".to_string(), wall_ns: 2_000_000, calls: 1 },
            trial("rob", Some("rob"), "fail", Some("regfile"), 10, 90, Some((12, "rename"))),
            trial("rob", Some("rob"), "match", None, 5, 40, Some((7, "rob"))),
            trial("bpred", Some("bpred"), "gray", None, 0, 2000, None),
            trial("rob", Some("rob"), "fail", Some("ctrl"), 3, 50, Some((4, "rename"))),
            Event::CampaignEnd {
                trials: 4,
                matched: 1,
                gray: 1,
                failed: 2,
                quarantined: 0,
                eligible_bits: 512,
                wall_ns: 9_000_000,
                prune: None,
            },
        ]
    }

    #[test]
    fn census_rows_omit_zero_modes_in_alphabetical_order() {
        let rows = census_rows(10, 3, [("regfile", 2), ("ctrl", 1), ("mem", 0)]);
        let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["match", "gray", "fail:ctrl", "fail:regfile"]);
        assert_eq!(rows[2].1, 1);
        assert_eq!(rows[3].1, 2);
    }

    #[test]
    fn report_aggregates_the_stream() {
        let report = TelemetryReport::from_events(&sample_stream()).unwrap();
        assert_eq!(report.trials(), 4);
        assert_eq!(
            report.census(),
            vec![
                ("match".to_string(), 1),
                ("gray".to_string(), 1),
                ("fail:ctrl".to_string(), 1),
                ("fail:regfile".to_string(), 1),
            ]
        );
        let rendered = report.render(10);
        assert!(rendered.contains("outcome census (4 trials)"));
        assert!(rendered.contains("fail:regfile"));
        assert!(rendered.contains("rename"), "propagation target missing:\n{rendered}");
        assert!(rendered.contains("cycles to failure detection"));
        assert!(rendered.contains("span profile"));
        assert!(rendered.contains("eligible bits: 512"));
    }

    #[test]
    fn quarantine_events_reach_the_footer_not_the_census() {
        let mut events = sample_stream();
        let end = events.pop().unwrap();
        events.push(Event::Quarantine {
            benchmark: 0,
            start_point: 0,
            trial: 3,
            target: 77,
            inject_cycle: 9,
            panic_msg: "forced mid-trial panic".to_string(),
        });
        let Event::CampaignEnd { trials, matched, gray, failed, eligible_bits, wall_ns, .. } = end
        else {
            unreachable!()
        };
        events.push(Event::CampaignEnd {
            trials,
            matched,
            gray,
            failed,
            quarantined: 1,
            eligible_bits,
            wall_ns,
            prune: None,
        });
        let report = TelemetryReport::from_events(&events).unwrap();
        // The census counts only classified trials.
        assert_eq!(report.trials(), 4);
        let rendered = report.render(10);
        assert!(rendered.contains("outcome census (4 trials)"));
        assert!(
            rendered.contains("quarantined trials: 1 of 5 planned"),
            "missing quarantine footer:\n{rendered}"
        );

        // And the footer cross-check catches a count mismatch.
        if let Some(Event::CampaignEnd { quarantined, .. }) = events.last_mut() {
            *quarantined = 2;
        }
        let err = TelemetryReport::from_events(&events).unwrap_err();
        assert!(err.contains("quarantine"), "got: {err}");
    }

    #[test]
    fn pruned_footer_renders_disposition_line() {
        let mut events = sample_stream();
        if let Some(Event::CampaignEnd { prune, .. }) = events.last_mut() {
            *prune =
                Some(PruneDispositions { proved_dead: 90, class_collapsed: 6, simulated: 4 });
        }
        let report = TelemetryReport::from_events(&events).unwrap();
        let rendered = report.render(10);
        assert!(
            rendered.contains("pruner dispositions: 90 proved dead"),
            "missing pruner footer:\n{rendered}"
        );
        // Unpruned streams keep the pre-pruner layout.
        let plain = TelemetryReport::from_events(&sample_stream()).unwrap().render(10);
        assert!(!plain.contains("pruner dispositions"), "{plain}");
    }

    #[test]
    fn footer_mismatch_is_rejected() {
        let mut events = sample_stream();
        if let Some(Event::CampaignEnd { matched, .. }) = events.last_mut() {
            *matched = 99;
        }
        let err = TelemetryReport::from_events(&events).unwrap_err();
        assert!(err.contains("disagree"), "got: {err}");
    }

    #[test]
    fn events_off_the_header_grid_are_rejected() {
        let corrupt = |edit: &dyn Fn(&mut Event)| {
            let mut events = sample_stream();
            edit(&mut events[2]);
            TelemetryReport::from_events(&events).unwrap_err()
        };
        let err = corrupt(&|ev| {
            if let Event::Trial { benchmark, .. } = ev {
                *benchmark = 5;
            }
        });
        assert_eq!(err, "event 3 (trial) names benchmark 5 of 1 in the campaign_start grid");
        let err = corrupt(&|ev| {
            if let Event::Trial { start_point, .. } = ev {
                *start_point = 1;
            }
        });
        assert!(err.contains("start point 1 of 1"), "got: {err}");
        let err = corrupt(&|ev| {
            if let Event::Trial { trial, .. } = ev {
                *trial = 4;
            }
        });
        assert!(err.contains("trial 4 of 4"), "got: {err}");

        let mut events = sample_stream();
        events.insert(
            2,
            Event::Quarantine {
                benchmark: 0,
                start_point: 9,
                trial: 0,
                target: 77,
                inject_cycle: 9,
                panic_msg: "forced mid-trial panic".to_string(),
            },
        );
        let err = TelemetryReport::from_events(&events).unwrap_err();
        assert!(err.starts_with("event 3 (quarantine) names start point 9"), "got: {err}");
    }

    #[test]
    fn a_trial_decided_before_its_injection_is_rejected() {
        let mut events = sample_stream();
        if let Event::Trial { inject_cycle, detect_cycle, .. } = &mut events[2] {
            (*inject_cycle, *detect_cycle) = (50, 0);
        }
        let err = TelemetryReport::from_events(&events).unwrap_err();
        assert_eq!(
            err,
            "event 3: trial (0, 0, 0) is decided at cycle 0, before its injection at cycle 50"
        );
        assert!(!err.contains('\n'));
    }

    #[test]
    fn headerless_stream_is_rejected() {
        let events = vec![trial("rob", None, "gray", None, 0, 1, None)];
        assert!(TelemetryReport::from_events(&events).is_err());
    }
}
