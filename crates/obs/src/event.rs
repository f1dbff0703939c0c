//! The versioned trial-event schema for campaign traces.
//!
//! A trace is a JSONL stream: one event per line, first line always a
//! `CampaignStart` carrying [`SCHEMA_VERSION`]. Readers reject traces whose
//! version they do not understand, so the format can evolve without silent
//! misinterpretation.
//!
//! Determinism contract: for a fixed campaign seed and configuration the
//! event stream is identical across runs and thread counts *except* for the
//! `wall_ns` fields, which carry real elapsed time. [`strip_wall_clock`]
//! normalizes those away for stream comparison.

use crate::json::{obj, parse, Json};

/// Version stamp written into every `CampaignStart` event.
///
/// History: v1 — trial/phase/quarantine/footer events (PR 3, extended with
/// quarantine and prune keys in PRs 4/8 without a bump, since old readers
/// parse those traces correctly). v2 — adds the deep-trace `propagation`
/// event (per-trial divergence timelines) and the `span` event (hierarchical
/// wall-time profile). v3 — adds the distributed-execution ops events:
/// `worker` (worker lifecycle) and `lease` (grant / renew / expiry /
/// reassignment / completion accounting). Ops events appear only in a
/// coordinator's operational trace, never in campaign traces. v4 — drops
/// the per-task `phase` event: a campaign's wall time is recorded once, as
/// `span` events.
pub const SCHEMA_VERSION: u64 = 4;

/// Oldest schema version this reader still understands. v1–v3 traces carry
/// `phase` events, which this reader no longer knows, so they are refused
/// at the header.
pub const MIN_SCHEMA_VERSION: u64 = 4;

/// Per-site disposition counts from the analytic masking pruner: how each
/// planned trial of the campaign's live-executed tasks was discharged.
/// Carried as `None` when no task ran live (every task replayed from a
/// journal or worker shards) — the fields are then absent from the
/// serialized footer, as in traces written before the pruner existed (and
/// such older readers simply ignore the extra keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneDispositions {
    /// Sites proved masked analytically from the golden access footprint
    /// (dead-window proofs: the faulted word is overwritten before its
    /// next read, or never read again inside the detection window).
    pub proved_dead: u64,
    /// Sites whose outcome was multiplied out from an equivalence-class
    /// representative's simulated trial. The pruner no longer forms
    /// classes and always writes 0; the field stays so traces that carry
    /// it keep parsing and reporting.
    pub class_collapsed: u64,
    /// Sites actually simulated: everything the pruner could not
    /// discharge analytically.
    pub simulated: u64,
}

impl PruneDispositions {
    /// Total sites the pruner dispatched.
    pub fn total(&self) -> u64 {
        self.proved_dead + self.class_collapsed + self.simulated
    }

    /// Accumulates another disposition tally.
    pub fn merge(&mut self, other: &PruneDispositions) {
        self.proved_dead += other.proved_dead;
        self.class_collapsed += other.class_collapsed;
        self.simulated += other.simulated;
    }
}

/// One telemetry event in a campaign trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Campaign header: configuration needed to interpret the rest.
    CampaignStart {
        /// Trace schema version ([`SCHEMA_VERSION`] at write time).
        schema: u64,
        /// Campaign master seed.
        seed: u64,
        /// Workload names, in campaign order.
        benchmarks: Vec<String>,
        /// Start points sampled per benchmark.
        start_points: u64,
        /// Trials injected per start point.
        trials_per_start_point: u64,
        /// Width of the injection window, in cycles.
        inject_window: u64,
        /// Post-injection monitoring horizon, in cycles.
        monitor_cycles: u64,
    },
    /// One completed injection trial.
    Trial {
        /// Benchmark index into the `CampaignStart` workload list.
        benchmark: u64,
        /// Start-point index within the benchmark.
        start_point: u64,
        /// Trial index within the start point.
        trial: u64,
        /// Injected bit index in the eligible-bit enumeration.
        target: u64,
        /// Cycle (relative to the start point) at which the bit was flipped.
        inject_cycle: u64,
        /// `Category` label of the injected field.
        category: String,
        /// `StorageKind` label of the injected field (`latch` or `ram`).
        kind: String,
        /// Pipeline unit owning the injected field, when attributable.
        unit: Option<String>,
        /// Outcome class: `match`, `gray`, or `fail`.
        outcome: String,
        /// Failure mode label when `outcome == "fail"`.
        mode: Option<String>,
        /// Cycle at which the outcome was decided.
        detect_cycle: u64,
        /// Cycle of the first microarchitectural divergence, if observed.
        divergence_cycle: Option<u64>,
        /// Unit whose fingerprint first diverged, if observed.
        diverged_unit: Option<String>,
        /// Architecturally valid instructions retired before the outcome.
        valid_instructions: u64,
    },
    /// Full divergence timeline of one deep-traced trial (schema v2).
    ///
    /// Each sample is `(cycle, diverged unit labels)`: the set of pipeline
    /// units whose fingerprints differed from the golden run at that cycle.
    /// Samples are change-only — one entry per *distinct* diverged set, at
    /// the first cycle it was observed — so a fault that settles into one
    /// unit costs one sample regardless of how long it survives. Emitted
    /// immediately after the matching `Trial` event; trials whose timeline
    /// is empty (no divergence ever observed) emit no propagation event.
    Propagation {
        /// Benchmark index into the `CampaignStart` workload list.
        benchmark: u64,
        /// Start-point index within the benchmark.
        start_point: u64,
        /// Trial index within the start point.
        trial: u64,
        /// `(cycle, unit labels)` change-only divergence samples, in
        /// cycle order. Labels within a sample are in `UnitId` order.
        samples: Vec<(u64, Vec<String>)>,
    },
    /// One node of the hierarchical span profile (schema v2).
    ///
    /// Emitted once per distinct span path at campaign end, sorted by
    /// path, before `CampaignEnd`. Paths are `;`-separated from the root
    /// (e.g. `campaign;task;trials;classify`), the collapsed-stack
    /// convention flamegraph tooling consumes directly.
    Span {
        /// Root-to-leaf span path, `;`-separated.
        path: String,
        /// Total wall-clock nanoseconds spent in this span, summed across
        /// all workers (zeroed by [`strip_wall_clock`]).
        wall_ns: u64,
        /// Number of times the span was entered.
        calls: u64,
    },
    /// A trial whose faulted run panicked and was contained by the
    /// harness supervisor. Harness bookkeeping, not an outcome: these
    /// never count toward the census totals in `CampaignEnd`.
    Quarantine {
        /// Benchmark index into the `CampaignStart` workload list.
        benchmark: u64,
        /// Start-point index within the benchmark.
        start_point: u64,
        /// Trial index within the start point (the slot the trial would
        /// have occupied in the census).
        trial: u64,
        /// Injected bit index in the eligible-bit enumeration.
        target: u64,
        /// Cycle at which the bit would have been flipped.
        inject_cycle: u64,
        /// The contained panic's message.
        panic_msg: String,
    },
    /// Worker lifecycle in a distributed campaign (schema v3).
    ///
    /// Operational telemetry from the coordinator — appears only in a
    /// coordinator's ops trace, never in campaign traces (which stay
    /// byte-identical to single-process runs).
    Worker {
        /// Milliseconds since the coordinator started (zeroed by
        /// [`strip_wall_clock`]).
        at_ms: u64,
        /// Coordinator-assigned worker id (1-based, in connection order).
        worker: u64,
        /// Lifecycle step: `connected`, `disconnected`, or `done`.
        action: String,
    },
    /// Lease accounting in a distributed campaign (schema v3).
    ///
    /// Operational telemetry from the coordinator — appears only in a
    /// coordinator's ops trace. Actions: `granted` (task handed to a
    /// worker), `regranted` (handed out again after an expiry), `renewed`
    /// (heartbeat), `expired` (heartbeats stopped; task reassignable),
    /// `completed` (first completion accepted into the census), and
    /// `duplicate` (a re-executed expired lease's completion, dropped by
    /// the at-most-once merge).
    Lease {
        /// Milliseconds since the coordinator started (zeroed by
        /// [`strip_wall_clock`]).
        at_ms: u64,
        /// Worker id the action involves.
        worker: u64,
        /// Benchmark index of the leased task.
        benchmark: u64,
        /// Start-point index of the leased task.
        start_point: u64,
        /// Lease token (unique per grant; 0 when not applicable).
        token: u64,
        /// Lease action (see type docs).
        action: String,
    },
    /// Campaign footer: aggregate counts for cheap sanity checks.
    CampaignEnd {
        /// Total trials recorded.
        trials: u64,
        /// Trials classified microarchitectural match.
        matched: u64,
        /// Trials classified gray area.
        gray: u64,
        /// Trials classified failure (any mode).
        failed: u64,
        /// Trials quarantined by the containment supervisor (not part of
        /// `trials`; absent in pre-quarantine traces, which parse as 0).
        quarantined: u64,
        /// Eligible bits in the injection mask.
        eligible_bits: u64,
        /// Campaign wall-clock nanoseconds (zeroed by [`strip_wall_clock`]).
        wall_ns: u64,
        /// Pruner disposition counts; `None` when no task ran live (the
        /// keys are then absent from the serialized footer, as in
        /// pre-pruner traces).
        prune: Option<PruneDispositions>,
    },
}

fn opt_str(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

fn opt_u64(v: &Option<u64>) -> Json {
    match v {
        Some(n) => Json::Int(*n as i128),
        None => Json::Null,
    }
}

impl Event {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let int = |n: u64| Json::Int(n as i128);
        let value = match self {
            Event::CampaignStart {
                schema,
                seed,
                benchmarks,
                start_points,
                trials_per_start_point,
                inject_window,
                monitor_cycles,
            } => obj([
                ("ev", Json::Str("campaign_start".to_string())),
                ("schema", int(*schema)),
                ("seed", int(*seed)),
                (
                    "benchmarks",
                    Json::Arr(benchmarks.iter().map(|b| Json::Str(b.clone())).collect()),
                ),
                ("start_points", int(*start_points)),
                ("trials_per_start_point", int(*trials_per_start_point)),
                ("inject_window", int(*inject_window)),
                ("monitor_cycles", int(*monitor_cycles)),
            ]),
            Event::Trial {
                benchmark,
                start_point,
                trial,
                target,
                inject_cycle,
                category,
                kind,
                unit,
                outcome,
                mode,
                detect_cycle,
                divergence_cycle,
                diverged_unit,
                valid_instructions,
            } => obj([
                ("ev", Json::Str("trial".to_string())),
                ("benchmark", int(*benchmark)),
                ("start_point", int(*start_point)),
                ("trial", int(*trial)),
                ("target", int(*target)),
                ("inject_cycle", int(*inject_cycle)),
                ("category", Json::Str(category.clone())),
                ("kind", Json::Str(kind.clone())),
                ("unit", opt_str(unit)),
                ("outcome", Json::Str(outcome.clone())),
                ("mode", opt_str(mode)),
                ("detect_cycle", int(*detect_cycle)),
                ("divergence_cycle", opt_u64(divergence_cycle)),
                ("diverged_unit", opt_str(diverged_unit)),
                ("valid_instructions", int(*valid_instructions)),
            ]),
            Event::Propagation { benchmark, start_point, trial, samples } => obj([
                ("ev", Json::Str("propagation".to_string())),
                ("benchmark", int(*benchmark)),
                ("start_point", int(*start_point)),
                ("trial", int(*trial)),
                (
                    "samples",
                    Json::Arr(
                        samples
                            .iter()
                            .map(|(cycle, units)| {
                                Json::Arr(vec![
                                    int(*cycle),
                                    Json::Arr(
                                        units.iter().map(|u| Json::Str(u.clone())).collect(),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Event::Span { path, wall_ns, calls } => obj([
                ("ev", Json::Str("span".to_string())),
                ("path", Json::Str(path.clone())),
                ("wall_ns", int(*wall_ns)),
                ("calls", int(*calls)),
            ]),
            Event::Worker { at_ms, worker, action } => obj([
                ("ev", Json::Str("worker".to_string())),
                ("at_ms", int(*at_ms)),
                ("worker", int(*worker)),
                ("action", Json::Str(action.clone())),
            ]),
            Event::Lease { at_ms, worker, benchmark, start_point, token, action } => obj([
                ("ev", Json::Str("lease".to_string())),
                ("at_ms", int(*at_ms)),
                ("worker", int(*worker)),
                ("benchmark", int(*benchmark)),
                ("start_point", int(*start_point)),
                ("token", int(*token)),
                ("action", Json::Str(action.clone())),
            ]),
            Event::Quarantine { benchmark, start_point, trial, target, inject_cycle, panic_msg } => {
                obj([
                    ("ev", Json::Str("quarantine".to_string())),
                    ("benchmark", int(*benchmark)),
                    ("start_point", int(*start_point)),
                    ("trial", int(*trial)),
                    ("target", int(*target)),
                    ("inject_cycle", int(*inject_cycle)),
                    ("panic_msg", Json::Str(panic_msg.clone())),
                ])
            }
            Event::CampaignEnd {
                trials,
                matched,
                gray,
                failed,
                quarantined,
                eligible_bits,
                wall_ns,
                prune,
            } => {
                let mut fields = vec![
                    ("ev", Json::Str("campaign_end".to_string())),
                    ("trials", int(*trials)),
                    ("matched", int(*matched)),
                    ("gray", int(*gray)),
                    ("failed", int(*failed)),
                    ("quarantined", int(*quarantined)),
                    ("eligible_bits", int(*eligible_bits)),
                    ("wall_ns", int(*wall_ns)),
                ];
                if let Some(p) = prune {
                    fields.push(("proved_dead", int(p.proved_dead)));
                    fields.push(("class_collapsed", int(p.class_collapsed)));
                    fields.push(("simulated", int(p.simulated)));
                }
                obj(fields)
            }
        };
        value.render()
    }

    /// Parses one JSON line back into an event.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let v = parse(line)?;
        let kind = v.get("ev").and_then(Json::as_str).ok_or("missing \"ev\" tag")?;
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind}: missing or non-integer {name:?}"))
        };
        let text = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind}: missing or non-string {name:?}"))
        };
        let opt_text = |name: &str| -> Result<Option<String>, String> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("{kind}: non-string {name:?}")),
            }
        };
        let opt_field = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => {
                    x.as_u64().map(Some).ok_or_else(|| format!("{kind}: non-integer {name:?}"))
                }
            }
        };
        match kind {
            "campaign_start" => {
                let benchmarks = match v.get("benchmarks") {
                    Some(Json::Arr(xs)) => xs
                        .iter()
                        .map(|x| x.as_str().map(str::to_string))
                        .collect::<Option<Vec<_>>>()
                        .ok_or("campaign_start: non-string benchmark name")?,
                    _ => return Err("campaign_start: missing \"benchmarks\" array".to_string()),
                };
                Ok(Event::CampaignStart {
                    schema: field("schema")?,
                    seed: field("seed")?,
                    benchmarks,
                    start_points: field("start_points")?,
                    trials_per_start_point: field("trials_per_start_point")?,
                    inject_window: field("inject_window")?,
                    monitor_cycles: field("monitor_cycles")?,
                })
            }
            "trial" => Ok(Event::Trial {
                benchmark: field("benchmark")?,
                start_point: field("start_point")?,
                trial: field("trial")?,
                target: field("target")?,
                inject_cycle: field("inject_cycle")?,
                category: text("category")?,
                kind: text("kind")?,
                unit: opt_text("unit")?,
                outcome: text("outcome")?,
                mode: opt_text("mode")?,
                detect_cycle: field("detect_cycle")?,
                divergence_cycle: opt_field("divergence_cycle")?,
                diverged_unit: opt_text("diverged_unit")?,
                valid_instructions: field("valid_instructions")?,
            }),
            "propagation" => {
                let samples = match v.get("samples") {
                    Some(Json::Arr(xs)) => xs
                        .iter()
                        .map(|x| match x {
                            Json::Arr(pair) if pair.len() == 2 => {
                                let cycle = pair[0].as_u64()?;
                                let units = match &pair[1] {
                                    Json::Arr(us) => us
                                        .iter()
                                        .map(|u| u.as_str().map(str::to_string))
                                        .collect::<Option<Vec<_>>>()?,
                                    _ => return None,
                                };
                                Some((cycle, units))
                            }
                            _ => None,
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("propagation: malformed \"samples\" entry")?,
                    _ => return Err("propagation: missing \"samples\" array".to_string()),
                };
                Ok(Event::Propagation {
                    benchmark: field("benchmark")?,
                    start_point: field("start_point")?,
                    trial: field("trial")?,
                    samples,
                })
            }
            "span" => Ok(Event::Span {
                path: text("path")?,
                wall_ns: field("wall_ns")?,
                calls: field("calls")?,
            }),
            "worker" => Ok(Event::Worker {
                at_ms: field("at_ms")?,
                worker: field("worker")?,
                action: text("action")?,
            }),
            "lease" => Ok(Event::Lease {
                at_ms: field("at_ms")?,
                worker: field("worker")?,
                benchmark: field("benchmark")?,
                start_point: field("start_point")?,
                token: field("token")?,
                action: text("action")?,
            }),
            "quarantine" => Ok(Event::Quarantine {
                benchmark: field("benchmark")?,
                start_point: field("start_point")?,
                trial: field("trial")?,
                target: field("target")?,
                inject_cycle: field("inject_cycle")?,
                panic_msg: text("panic_msg")?,
            }),
            "campaign_end" => Ok(Event::CampaignEnd {
                trials: field("trials")?,
                matched: field("matched")?,
                gray: field("gray")?,
                failed: field("failed")?,
                // Absent in traces written before quarantine existed:
                // schema-compatible default of 0.
                quarantined: opt_field("quarantined")?.unwrap_or(0),
                eligible_bits: field("eligible_bits")?,
                wall_ns: field("wall_ns")?,
                // All three keys absent when no task ran live and in
                // pre-pruner traces; any present key implies a tally.
                prune: match (
                    opt_field("proved_dead")?,
                    opt_field("class_collapsed")?,
                    opt_field("simulated")?,
                ) {
                    (None, None, None) => None,
                    (pd, cc, sim) => Some(PruneDispositions {
                        proved_dead: pd.unwrap_or(0),
                        class_collapsed: cc.unwrap_or(0),
                        simulated: sim.unwrap_or(0),
                    }),
                },
            }),
            other => Err(format!("unknown event tag {other:?}")),
        }
    }
}

/// Parses a whole JSONL trace, validating the header.
///
/// The first non-empty line must be a `CampaignStart` with a schema version
/// this reader understands.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = Event::from_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if events.is_empty() {
            match ev {
                Event::CampaignStart { schema, .. }
                    if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) => {}
                Event::CampaignStart { schema, .. } => {
                    return Err(format!(
                        "unsupported schema version {schema} (reader understands \
                         {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
                    ));
                }
                _ => return Err("trace does not begin with a campaign_start event".to_string()),
            }
        }
        events.push(ev);
    }
    if events.is_empty() {
        return Err("empty trace".to_string());
    }
    Ok(events)
}

/// Returns the events with all wall-clock fields zeroed.
///
/// Two identical-seed campaigns must produce equal streams after this
/// normalization, regardless of thread count or machine speed.
pub fn strip_wall_clock(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .cloned()
        .map(|ev| match ev {
            Event::Span { path, calls, .. } => Event::Span { path, wall_ns: 0, calls },
            Event::Worker { worker, action, .. } => Event::Worker { at_ms: 0, worker, action },
            Event::Lease { worker, benchmark, start_point, token, action, .. } => {
                Event::Lease { at_ms: 0, worker, benchmark, start_point, token, action }
            }
            Event::CampaignEnd {
                trials,
                matched,
                gray,
                failed,
                quarantined,
                eligible_bits,
                prune,
                ..
            } => Event::CampaignEnd {
                trials,
                matched,
                gray,
                failed,
                quarantined,
                eligible_bits,
                wall_ns: 0,
                prune,
            },
            other => other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CampaignStart {
                schema: SCHEMA_VERSION,
                seed: 7,
                benchmarks: vec!["gzip-like".to_string(), "twolf-like".to_string()],
                start_points: 2,
                trials_per_start_point: 40,
                inject_window: 200,
                monitor_cycles: 3000,
            },
            Event::Trial {
                benchmark: 0,
                start_point: 0,
                trial: 3,
                target: 991,
                inject_cycle: 57,
                category: "rob".to_string(),
                kind: "latch".to_string(),
                unit: Some("rob".to_string()),
                outcome: "fail".to_string(),
                mode: Some("ctrl".to_string()),
                detect_cycle: 99,
                divergence_cycle: Some(60),
                diverged_unit: Some("rename".to_string()),
                valid_instructions: 14,
            },
            Event::Trial {
                benchmark: 1,
                start_point: 1,
                trial: 0,
                target: 4,
                inject_cycle: 0,
                category: "bpred".to_string(),
                kind: "ram".to_string(),
                unit: None,
                outcome: "match".to_string(),
                mode: None,
                detect_cycle: 31,
                divergence_cycle: None,
                diverged_unit: None,
                valid_instructions: 8,
            },
            Event::Quarantine {
                benchmark: 1,
                start_point: 0,
                trial: 7,
                target: 123,
                inject_cycle: 42,
                panic_msg: "index out of bounds: the len is 64 but the index is 91".to_string(),
            },
            Event::CampaignEnd {
                trials: 2,
                matched: 1,
                gray: 0,
                failed: 1,
                quarantined: 1,
                eligible_bits: 4096,
                wall_ns: 1_000_000,
                prune: None,
            },
            Event::CampaignEnd {
                trials: 100,
                matched: 80,
                gray: 15,
                failed: 5,
                quarantined: 0,
                eligible_bits: 4096,
                wall_ns: 2_000_000,
                prune: Some(PruneDispositions {
                    proved_dead: 70,
                    class_collapsed: 20,
                    simulated: 10,
                }),
            },
            Event::Propagation {
                benchmark: 0,
                start_point: 0,
                trial: 3,
                samples: vec![
                    (58, vec!["rob".to_string()]),
                    (60, vec!["rename".to_string(), "rob".to_string()]),
                    (64, vec![]),
                ],
            },
            Event::Span {
                path: "campaign;task;trials;classify".to_string(),
                wall_ns: 98765,
                calls: 40,
            },
            Event::Worker { at_ms: 1234, worker: 2, action: "connected".to_string() },
            Event::Lease {
                at_ms: 1300,
                worker: 2,
                benchmark: 1,
                start_point: 0,
                token: 17,
                action: "granted".to_string(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in sample_events() {
            let line = ev.to_json();
            assert_eq!(Event::from_json(&line).unwrap(), ev, "line: {line}");
        }
    }

    #[test]
    fn trace_round_trips() {
        let events = sample_events();
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(parse_trace(&text).unwrap(), events);
    }

    #[test]
    fn header_is_enforced() {
        assert!(parse_trace("").is_err());
        let trial_first = sample_events()[1].to_json();
        assert!(parse_trace(&trial_first).is_err());
        let bad_version = Event::CampaignStart {
            schema: SCHEMA_VERSION + 1,
            seed: 0,
            benchmarks: vec![],
            start_points: 0,
            trials_per_start_point: 0,
            inject_window: 0,
            monitor_cycles: 0,
        };
        assert!(parse_trace(&bad_version.to_json()).unwrap_err().contains("schema version"));
    }

    #[test]
    fn accepts_older_schema_versions_back_to_min() {
        // Anything below MIN (a v1–v3 trace, which may carry `phase`
        // events) or above current is rejected.
        for schema in MIN_SCHEMA_VERSION..=SCHEMA_VERSION {
            let header = Event::CampaignStart {
                schema,
                seed: 0,
                benchmarks: vec![],
                start_points: 0,
                trials_per_start_point: 0,
                inject_window: 0,
                monitor_cycles: 0,
            };
            assert!(parse_trace(&header.to_json()).is_ok(), "schema {schema} rejected");
        }
        let too_old = Event::CampaignStart {
            schema: MIN_SCHEMA_VERSION - 1,
            seed: 0,
            benchmarks: vec![],
            start_points: 0,
            trials_per_start_point: 0,
            inject_window: 0,
            monitor_cycles: 0,
        };
        assert!(parse_trace(&too_old.to_json()).unwrap_err().contains("schema version"));
    }

    #[test]
    fn strip_wall_clock_zeroes_only_timing() {
        let events = sample_events();
        let stripped = strip_wall_clock(&events);
        assert_eq!(stripped.len(), events.len());
        assert_eq!(stripped[1], events[1]); // trials untouched
        assert_eq!(stripped[3], events[3]); // quarantines untouched
        match &stripped[4] {
            Event::CampaignEnd { wall_ns, trials, quarantined, .. } => {
                assert_eq!(*wall_ns, 0);
                assert_eq!(*trials, 2);
                assert_eq!(*quarantined, 1);
            }
            _ => panic!("expected campaign_end"),
        }
        assert_eq!(stripped[6], events[6]); // propagation carries no wall clock
        match &stripped[7] {
            Event::Span { path, wall_ns, calls } => {
                assert_eq!(*wall_ns, 0);
                assert_eq!(*calls, 40);
                assert_eq!(path, "campaign;task;trials;classify");
            }
            _ => panic!("expected span"),
        }
        match &stripped[8] {
            Event::Worker { at_ms, worker, action } => {
                assert_eq!(*at_ms, 0);
                assert_eq!(*worker, 2);
                assert_eq!(action, "connected");
            }
            _ => panic!("expected worker"),
        }
        match &stripped[9] {
            Event::Lease { at_ms, token, action, .. } => {
                assert_eq!(*at_ms, 0);
                assert_eq!(*token, 17);
                assert_eq!(action, "granted");
            }
            _ => panic!("expected lease"),
        }
    }

    #[test]
    fn unpruned_footer_serializes_without_prune_keys() {
        let footer = Event::CampaignEnd {
            trials: 2,
            matched: 1,
            gray: 0,
            failed: 1,
            quarantined: 0,
            eligible_bits: 64,
            wall_ns: 7,
            prune: None,
        };
        let line = footer.to_json();
        assert!(!line.contains("proved_dead"), "{line}");
        assert!(!line.contains("class_collapsed"), "{line}");
        assert!(!line.contains("simulated"), "{line}");
        assert_eq!(Event::from_json(&line).unwrap(), footer);
    }

    #[test]
    fn pruned_footer_round_trips_dispositions() {
        let prune = PruneDispositions { proved_dead: 3, class_collapsed: 2, simulated: 1 };
        assert_eq!(prune.total(), 6);
        let footer = Event::CampaignEnd {
            trials: 6,
            matched: 5,
            gray: 1,
            failed: 0,
            quarantined: 0,
            eligible_bits: 64,
            wall_ns: 7,
            prune: Some(prune),
        };
        let line = footer.to_json();
        assert!(line.contains("\"proved_dead\":3"), "{line}");
        match Event::from_json(&line).unwrap() {
            Event::CampaignEnd { prune: Some(p), .. } => assert_eq!(p, prune),
            other => panic!("expected pruned campaign_end, got {other:?}"),
        }
    }

    #[test]
    fn campaign_end_without_quarantined_parses_as_zero() {
        // Traces written before the quarantine field existed stay readable.
        let old = "{\"ev\":\"campaign_end\",\"trials\":2,\"matched\":1,\"gray\":0,\
                   \"failed\":1,\"eligible_bits\":4096,\"wall_ns\":5}";
        match Event::from_json(old).unwrap() {
            Event::CampaignEnd { quarantined, trials, .. } => {
                assert_eq!(quarantined, 0);
                assert_eq!(trials, 2);
            }
            other => panic!("expected campaign_end, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_events() {
        assert!(Event::from_json("{}").is_err());
        assert!(Event::from_json("{\"ev\":\"mystery\"}").is_err());
        // v4 dropped `phase`: a v3 phase line is an unknown event.
        assert!(Event::from_json(
            "{\"ev\":\"phase\",\"benchmark\":0,\"start_point\":0,\
             \"phase\":\"warmup\",\"wall_ns\":1}"
        )
        .is_err());
        assert!(Event::from_json(
            "{\"ev\":\"campaign_end\",\"trials\":\"three\",\"matched\":0,\"gray\":0,\"failed\":0,\"eligible_bits\":0,\"wall_ns\":0}"
        )
        .is_err());
        // v2 event kinds reject missing or malformed payloads too.
        assert!(Event::from_json(
            "{\"ev\":\"propagation\",\"benchmark\":0,\"start_point\":0,\"trial\":0}"
        )
        .is_err());
        assert!(Event::from_json(
            "{\"ev\":\"propagation\",\"benchmark\":0,\"start_point\":0,\"trial\":0,\
             \"samples\":[[1]]}"
        )
        .is_err());
        assert!(Event::from_json(
            "{\"ev\":\"propagation\",\"benchmark\":0,\"start_point\":0,\"trial\":0,\
             \"samples\":[[1,[2]]]}"
        )
        .is_err());
        assert!(Event::from_json("{\"ev\":\"span\",\"path\":\"campaign\"}").is_err());
        assert!(Event::from_json("{\"ev\":\"span\",\"path\":7,\"wall_ns\":0,\"calls\":0}").is_err());
        // v3 ops events reject missing fields too.
        assert!(Event::from_json("{\"ev\":\"worker\",\"at_ms\":0}").is_err());
        assert!(Event::from_json(
            "{\"ev\":\"lease\",\"at_ms\":0,\"worker\":1,\"benchmark\":0,\"start_point\":0}"
        )
        .is_err());
    }
}
