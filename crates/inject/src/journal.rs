//! Crash-safe, append-only campaign journal.
//!
//! One JSONL file per campaign: a header line pinning the campaign's
//! [`CampaignConfig`] and workload set ([`JournalMeta`]), then one line per
//! completed `(benchmark, start point)` task carrying everything needed to
//! replay that task's contribution to the census without re-running it.
//! Every append is flushed and `sync_data`'d before the task becomes
//! visible to the in-memory aggregation, so the journal never claims work
//! the disk has not seen ("durability before visibility").
//!
//! Recovery rule for a file cut short by a crash (or by the resume
//! property test, which truncates at *every* byte boundary):
//!
//! * an unterminated final line is the torn tail of an interrupted
//!   append — dropped silently;
//! * a newline-terminated final line that fails to parse, or names a task
//!   the header's campaign cannot hold (`JournalMeta::check_task`), is
//!   treated the same way (the line plus its `\n` can still land in
//!   separate disk sectors) — dropped with a warning;
//! * such a failure *before* the final line is not a torn append and is
//!   a hard error: the file is damaged, not merely interrupted;
//! * the file is physically truncated ([`File::set_len`]) to the valid
//!   prefix, so subsequent appends extend a clean journal.
//!
//! Because each task's trial plan is a pure function of the campaign seed
//! and aggregation happens in canonical task order, replaying journaled
//! tasks and re-running the rest reproduces the byte-identical census of
//! an uninterrupted run (see `tests/campaign_resume.rs`).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

use tfsim_bitstate::{Category, InjectionMask, StorageKind, UnitId};
use tfsim_obs::json::{self, obj, Json};
use tfsim_uarch::PipelineConfig;
use tfsim_workloads::Workload;

use crate::campaign::CampaignConfig;
use crate::trial::{
    eligible_bits, FailureMode, Outcome, TrialFault, TrialRecord, TrialSpec, TrialTrace,
};

/// Format marker on the header line.
const MAGIC: &str = "tfsim-campaign";
/// Journal format version.
///
/// History: v1 carried a `traced` flag in the header; v2 dropped it —
/// trace *level* (untraced / traced / deep-traced) is an observation
/// choice, not part of the experiment identity, so journals are
/// byte-identical across it and any run can resume any journal.
const VERSION: u64 = 2;

/// The campaign a journal belongs to, pinned on the header line and
/// validated on [`CampaignJournal::resume`]: replaying a task into a
/// campaign with a different seed, mask, scale, workload set, or
/// protection config would silently corrupt the census.
///
/// The identity is the [`CampaignConfig`] less the fields that are not
/// experiment parameters, which [`JournalMeta::new`] resets: `threads` (an
/// execution strategy), `deep_trace` (an observation level), the inert
/// `pruned` and the hidden `panic_shim` test hook. Results are
/// byte-identical across them, and across the trace level of the run.
/// Divergence timelines are likewise not journaled: a deep-traced campaign
/// resumed from a journal emits no `propagation` events for the replayed
/// tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalMeta {
    config: CampaignConfig,
    benchmarks: Vec<String>,
    /// The eligible-bit count every task of the campaign must carry,
    /// derived from the pipeline config and mask (not rendered).
    eligible_bits: u64,
}

impl JournalMeta {
    /// Captures the identity of a campaign over `workloads`. Trace level
    /// is not part of it: a journaled run always computes and journals
    /// per-trial traces (they are a deterministic observation of the same
    /// trials), so untraced, traced, and deep-traced runs write
    /// byte-identical journals and share them freely.
    pub fn new(config: &CampaignConfig, workloads: &[Workload]) -> JournalMeta {
        let config = CampaignConfig {
            threads: 0,
            pruned: false,
            deep_trace: false,
            panic_shim: None,
            ..config.clone()
        };
        JournalMeta {
            eligible_bits: eligible_bits(config.pipeline, config.mask),
            config,
            benchmarks: workloads.iter().map(|w| w.name.to_string()).collect(),
        }
    }

    /// Renders the header line (no trailing newline). Doubles as the wire
    /// campaign-identity payload of the distributed protocol: a worker
    /// receives this string in the coordinator's `Welcome`, reconstructs
    /// the campaign with [`JournalMeta::parse`] + [`JournalMeta::to_campaign`],
    /// and writes it as its shard's header — so shard headers are
    /// byte-identical to the coordinator's and merge validation is the
    /// ordinary resume header check.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a header line produced by [`JournalMeta::render`], refusing
    /// a campaign [`CampaignConfig::validate`] refuses.
    pub fn parse(line: &str) -> Result<JournalMeta, String> {
        let v = json::parse(line.trim_end())?;
        if v.get("journal").and_then(Json::as_str) != Some(MAGIC) {
            return Err("not a campaign identity header".to_string());
        }
        if v.get("version").and_then(Json::as_u64) != Some(VERSION) {
            return Err(format!(
                "unsupported journal version (want {VERSION}): {:?}",
                v.get("version")
            ));
        }
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("header missing integer {key:?}"))
        };
        let narrow = |key: &str| -> Result<u32, String> {
            u32::try_from(num(key)?).map_err(|_| format!("{key} out of range"))
        };
        let flag = |key: &str| -> Result<bool, String> {
            match v.get(key) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("header missing bool {key:?}")),
            }
        };
        let mask = match v.get("mask").and_then(Json::as_str) {
            Some("latches+rams") => InjectionMask::LatchesAndRams,
            Some("latches") => InjectionMask::LatchesOnly,
            other => return Err(format!("unknown mask {other:?}")),
        };
        let benchmarks = match v.get("benchmarks") {
            Some(Json::Arr(xs)) => xs
                .iter()
                .map(|b| b.as_str().map(str::to_string).ok_or("benchmark name not a string"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("header missing array \"benchmarks\"".to_string()),
        };
        let config = CampaignConfig {
            mask,
            pipeline: PipelineConfig {
                timeout_counter: flag("timeout_counter")?,
                timeout_threshold: narrow("timeout_threshold")?,
                regfile_ecc: flag("regfile_ecc")?,
                pointer_ecc: flag("pointer_ecc")?,
                insn_parity: flag("insn_parity")?,
            },
            scale: narrow("scale")?,
            start_points: narrow("start_points")?,
            trials_per_start_point: narrow("trials_per_start_point")?,
            warmup_cycles: num("warmup_cycles")?,
            spacing_cycles: num("spacing_cycles")?,
            inject_window: num("inject_window")?,
            monitor_cycles: num("monitor_cycles")?,
            ..CampaignConfig::quick(num("seed")?)
        };
        config.validate()?;
        Ok(JournalMeta {
            eligible_bits: eligible_bits(config.pipeline, config.mask),
            config,
            benchmarks,
        })
    }

    /// Reconstructs the campaign this identity describes: the config
    /// (`threads` and `deep_trace` at their defaults, for the caller to
    /// choose) and the workload list, resolved by name against the
    /// standard set. Round-trips with [`JournalMeta::new`]: the rebuilt
    /// pair produces an equal `JournalMeta`.
    pub fn to_campaign(&self) -> Result<(CampaignConfig, Vec<Workload>), String> {
        let all = tfsim_workloads::all();
        let workloads = self
            .benchmarks
            .iter()
            .map(|name| {
                all.iter()
                    .find(|w| w.name == name)
                    .copied()
                    .ok_or_else(|| format!("unknown workload {name:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((self.config.clone(), workloads))
    }

    /// Checks that a parsed task means something in this campaign, so
    /// replaying it cannot index past the campaign's tables or its own:
    ///
    /// * its benchmark and start point lie inside the campaign grid;
    /// * it carries the campaign's number of drawn specs;
    /// * its quarantined trials name distinct specs, in ascending order;
    /// * no trace decides before its trial's injection;
    /// * it counts the campaign's eligible bits.
    pub(crate) fn check_task(&self, task: &JournaledTask) -> Result<(), String> {
        let (bench, sp) = (task.bench, task.start_point);
        if bench >= self.benchmarks.len() || sp >= self.config.start_points {
            return Err(format!("task ({bench}, {sp}) is outside the campaign grid"));
        }
        if task.specs.len() != self.config.trials_per_start_point as usize {
            return Err(format!(
                "task ({bench}, {sp}) has {} specs, the campaign draws {}",
                task.specs.len(),
                self.config.trials_per_start_point
            ));
        }
        let mut next = 0;
        for f in &task.faults {
            if f.index < next || f.index >= task.specs.len() {
                return Err(format!(
                    "task ({bench}, {sp}) quarantines spec {} out of order or range",
                    f.index
                ));
            }
            next = f.index + 1;
        }
        for (rec, tr) in task.records.iter().zip(&task.traces) {
            if tr.detect_cycle < rec.inject_cycle {
                return Err(format!(
                    "task ({bench}, {sp}) has a trial decided at cycle {} before its \
                     injection at {}",
                    tr.detect_cycle, rec.inject_cycle
                ));
            }
        }
        if task.eligible_bits != self.eligible_bits {
            return Err(format!(
                "task ({bench}, {sp}) counts {} eligible bits, the campaign's machine has {}",
                task.eligible_bits, self.eligible_bits
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let (c, p) = (&self.config, self.config.pipeline);
        obj([
            ("journal", Json::Str(MAGIC.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("seed", Json::Int(c.seed as i128)),
            (
                "mask",
                Json::Str(
                    match c.mask {
                        InjectionMask::LatchesAndRams => "latches+rams",
                        InjectionMask::LatchesOnly => "latches",
                    }
                    .to_string(),
                ),
            ),
            ("timeout_counter", Json::Bool(p.timeout_counter)),
            ("timeout_threshold", Json::Int(p.timeout_threshold as i128)),
            ("regfile_ecc", Json::Bool(p.regfile_ecc)),
            ("pointer_ecc", Json::Bool(p.pointer_ecc)),
            ("insn_parity", Json::Bool(p.insn_parity)),
            ("scale", Json::Int(c.scale as i128)),
            ("start_points", Json::Int(c.start_points as i128)),
            ("trials_per_start_point", Json::Int(c.trials_per_start_point as i128)),
            ("warmup_cycles", Json::Int(c.warmup_cycles as i128)),
            ("spacing_cycles", Json::Int(c.spacing_cycles as i128)),
            ("inject_window", Json::Int(c.inject_window as i128)),
            ("monitor_cycles", Json::Int(c.monitor_cycles as i128)),
            (
                "benchmarks",
                Json::Arr(self.benchmarks.iter().map(|b| Json::Str(b.clone())).collect()),
            ),
        ])
    }
}

/// One completed `(benchmark, start point)` task, as journaled: the drawn
/// trial plan, the classified records (aligned with the surviving specs),
/// the per-trial traces when the run was traced, and any quarantined
/// trials.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledTask {
    /// Benchmark index into the campaign's workload list.
    pub bench: usize,
    /// Start-point index within the benchmark.
    pub start_point: u32,
    /// Eligible-bit count of the start point (constant per config, but
    /// journaled so replay needs no pipeline).
    pub eligible_bits: u64,
    /// The drawn trial plan, in draw order.
    pub specs: Vec<TrialSpec>,
    /// One record per classified spec, in spec order.
    pub records: Vec<TrialRecord>,
    /// Aligned with `records` on the traced path; empty otherwise.
    pub traces: Vec<TrialTrace>,
    /// Quarantined trials (panics contained by the harness), if any.
    pub faults: Vec<TrialFault>,
}

fn category_from_label(s: &str) -> Option<Category> {
    Category::ALL.into_iter().find(|c| c.label() == s)
}

fn unit_from_label(s: &str) -> Option<UnitId> {
    UnitId::ALL.into_iter().find(|u| u.label() == s)
}

fn kind_from_label(s: &str) -> Option<StorageKind> {
    [StorageKind::Latch, StorageKind::Ram]
        .into_iter()
        .find(|k| k.label() == s)
}

fn mode_from_label(s: &str) -> Option<FailureMode> {
    FailureMode::ALL.into_iter().find(|m| m.label() == s)
}

fn spec_to_json(s: &TrialSpec) -> Json {
    Json::Arr(vec![
        Json::Int(s.target as i128),
        Json::Int(s.inject_cycle as i128),
    ])
}

fn spec_from_json(v: &Json) -> Result<TrialSpec, String> {
    match v {
        Json::Arr(xs) if xs.len() == 2 => Ok(TrialSpec {
            target: xs[0].as_u64().ok_or("spec target not a u64")?,
            inject_cycle: xs[1].as_u64().ok_or("spec cycle not a u64")?,
        }),
        _ => Err("spec is not a 2-element array".to_string()),
    }
}

fn record_to_json(r: &TrialRecord) -> Json {
    let (o, fm) = match r.outcome {
        Outcome::MicroArchMatch => ("match", None),
        Outcome::GrayArea => ("gray", None),
        Outcome::Failure(m) => ("fail", Some(m)),
    };
    let mut fields = vec![
        ("o", Json::Str(o.to_string())),
        ("cat", Json::Str(r.category.label().to_string())),
        ("kind", Json::Str(r.kind.label().to_string())),
        ("ic", Json::Int(r.inject_cycle as i128)),
        ("vi", Json::Int(r.valid_instructions as i128)),
    ];
    if let Some(m) = fm {
        fields.push(("fm", Json::Str(m.label().to_string())));
    }
    if let Some(u) = r.unit {
        fields.push(("unit", Json::Str(u.label().to_string())));
    }
    obj(fields)
}

fn record_from_json(v: &Json) -> Result<TrialRecord, String> {
    let text = |key: &str| -> Result<&str, String> {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record missing string {key:?}"))
    };
    let num = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record missing integer {key:?}"))
    };
    let outcome = match text("o")? {
        "match" => Outcome::MicroArchMatch,
        "gray" => Outcome::GrayArea,
        "fail" => {
            let label = text("fm")?;
            Outcome::Failure(
                mode_from_label(label).ok_or_else(|| format!("unknown failure mode {label:?}"))?,
            )
        }
        other => return Err(format!("unknown outcome {other:?}")),
    };
    let unit = match v.get("unit") {
        None => None,
        Some(u) => {
            let label = u.as_str().ok_or("record unit is not a string")?;
            Some(unit_from_label(label).ok_or_else(|| format!("unknown unit {label:?}"))?)
        }
    };
    let cat_label = text("cat")?;
    let kind_label = text("kind")?;
    Ok(TrialRecord {
        outcome,
        category: category_from_label(cat_label)
            .ok_or_else(|| format!("unknown category {cat_label:?}"))?,
        kind: kind_from_label(kind_label)
            .ok_or_else(|| format!("unknown storage kind {kind_label:?}"))?,
        unit,
        inject_cycle: num("ic")?,
        valid_instructions: u32::try_from(num("vi")?).map_err(|_| "vi out of range")?,
    })
}

fn trace_to_json(t: &TrialTrace) -> Json {
    Json::Arr(vec![
        Json::Int(t.detect_cycle as i128),
        t.divergence_cycle.map_or(Json::Null, |c| Json::Int(c as i128)),
        t.diverged_unit
            .map_or(Json::Null, |u| Json::Str(u.label().to_string())),
    ])
}

fn trace_from_json(v: &Json) -> Result<TrialTrace, String> {
    let Json::Arr(xs) = v else {
        return Err("trace is not an array".to_string());
    };
    if xs.len() != 3 {
        return Err("trace is not a 3-element array".to_string());
    }
    let divergence_cycle = match &xs[1] {
        Json::Null => None,
        other => Some(other.as_u64().ok_or("trace divergence cycle not a u64")?),
    };
    let diverged_unit = match &xs[2] {
        Json::Null => None,
        other => {
            let label = other.as_str().ok_or("trace unit is not a string")?;
            Some(unit_from_label(label).ok_or_else(|| format!("unknown unit {label:?}"))?)
        }
    };
    Ok(TrialTrace {
        detect_cycle: xs[0].as_u64().ok_or("trace detect cycle not a u64")?,
        divergence_cycle,
        diverged_unit,
    })
}

fn fault_to_json(f: &TrialFault) -> Json {
    obj([
        ("i", Json::Int(f.index as i128)),
        ("target", Json::Int(f.spec.target as i128)),
        ("ic", Json::Int(f.spec.inject_cycle as i128)),
        ("msg", Json::Str(f.panic_msg.clone())),
    ])
}

fn fault_from_json(v: &Json) -> Result<TrialFault, String> {
    let num = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fault missing integer {key:?}"))
    };
    Ok(TrialFault {
        index: num("i")? as usize,
        spec: TrialSpec {
            target: num("target")?,
            inject_cycle: num("ic")?,
        },
        panic_msg: v
            .get("msg")
            .and_then(Json::as_str)
            .ok_or("fault missing string \"msg\"")?
            .to_string(),
    })
}

pub(crate) fn task_to_json(t: &JournaledTask) -> Json {
    obj([
        ("t", Json::Str("task".to_string())),
        ("bench", Json::Int(t.bench as i128)),
        ("sp", Json::Int(t.start_point as i128)),
        ("bits", Json::Int(t.eligible_bits as i128)),
        ("specs", Json::Arr(t.specs.iter().map(spec_to_json).collect())),
        ("recs", Json::Arr(t.records.iter().map(record_to_json).collect())),
        ("traces", Json::Arr(t.traces.iter().map(trace_to_json).collect())),
        ("faults", Json::Arr(t.faults.iter().map(fault_to_json).collect())),
    ])
}

pub(crate) fn task_from_json(v: &Json) -> Result<JournaledTask, String> {
    if v.get("t").and_then(Json::as_str) != Some("task") {
        return Err("line is not a task record".to_string());
    }
    let num = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("task missing integer {key:?}"))
    };
    let arr = |key: &str| -> Result<&[Json], String> {
        match v.get(key) {
            Some(Json::Arr(xs)) => Ok(xs),
            _ => Err(format!("task missing array {key:?}")),
        }
    };
    let task = JournaledTask {
        bench: num("bench")? as usize,
        start_point: u32::try_from(num("sp")?).map_err(|_| "sp out of range")?,
        eligible_bits: num("bits")?,
        specs: arr("specs")?.iter().map(spec_from_json).collect::<Result<_, _>>()?,
        records: arr("recs")?.iter().map(record_from_json).collect::<Result<_, _>>()?,
        traces: arr("traces")?.iter().map(trace_from_json).collect::<Result<_, _>>()?,
        faults: arr("faults")?.iter().map(fault_from_json).collect::<Result<_, _>>()?,
    };
    if task.records.len() + task.faults.len() != task.specs.len() {
        return Err(format!(
            "task ({}, {}) accounts for {} of {} specs",
            task.bench,
            task.start_point,
            task.records.len() + task.faults.len(),
            task.specs.len()
        ));
    }
    if !task.traces.is_empty() && task.traces.len() != task.records.len() {
        return Err("task traces not aligned with records".to_string());
    }
    Ok(task)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A durable campaign journal: a header-validated JSONL file whose
/// already-completed tasks are replayed by
/// [`run_campaign_journaled`](crate::run_campaign_journaled) and to which
/// workers append (fsync'd) as tasks finish.
#[derive(Debug)]
pub struct CampaignJournal {
    file: Mutex<File>,
    completed: Vec<JournaledTask>,
}

impl CampaignJournal {
    /// Starts a fresh journal at `path` (truncating any existing file)
    /// and durably writes the header line.
    pub fn create(path: &Path, meta: &JournalMeta) -> io::Result<CampaignJournal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        write_line(&mut file, &meta.to_json())?;
        Ok(CampaignJournal { file: Mutex::new(file), completed: Vec::new() })
    }

    /// Reopens the journal at `path`, applying the torn-tail recovery
    /// rule (see the module docs), validating the header against `meta`,
    /// and physically truncating the file to its valid prefix. A file so
    /// short that even the header was torn resumes as an empty journal.
    pub fn resume(path: &Path, meta: &JournalMeta) -> io::Result<CampaignJournal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // Newline-terminated line ranges; anything after the last `\n` is
        // a torn tail by definition.
        let mut lines: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push((start, i));
                start = i + 1;
            }
        }
        if start < bytes.len() {
            eprintln!(
                "warning: journal {}: dropping {}-byte torn tail",
                path.display(),
                bytes.len() - start
            );
        }

        let header_json = meta.to_json();
        let mut completed: Vec<JournaledTask> = Vec::new();
        let mut valid_end = 0usize;
        for (idx, &(lo, hi)) in lines.iter().enumerate() {
            let tail = idx == lines.len() - 1 && start == bytes.len();
            let parsed = std::str::from_utf8(&bytes[lo..hi])
                .map_err(|e| e.to_string())
                .and_then(json::parse);
            let value = match parsed {
                Ok(v) => v,
                Err(e) if tail => {
                    // A terminated-but-unparseable final line is still a
                    // torn append: the line body and its newline can land
                    // in different sectors.
                    eprintln!(
                        "warning: journal {}: dropping unparseable tail line: {e}",
                        path.display()
                    );
                    break;
                }
                Err(e) => {
                    return Err(invalid(format!(
                        "journal {}: line {} is unparseable mid-file: {e}",
                        path.display(),
                        idx + 1
                    )));
                }
            };
            if idx == 0 {
                if value.get("journal").and_then(Json::as_str) != Some(MAGIC) {
                    return Err(invalid(format!(
                        "journal {}: not a campaign journal",
                        path.display()
                    )));
                }
                if value != header_json {
                    return Err(invalid(format!(
                        "journal {}: header does not match this campaign \
                         configuration (different seed, mask, scale, workloads, \
                         or protection)",
                        path.display()
                    )));
                }
            } else {
                match task_from_json(&value).and_then(|t| meta.check_task(&t).map(|()| t)) {
                    Ok(task) => {
                        // A crash window exists between a task's fsync'd
                        // append and the harness observing it; the same
                        // task can then be re-run and re-appended on a
                        // later resume. First occurrence wins.
                        if completed
                            .iter()
                            .any(|t| (t.bench, t.start_point) == (task.bench, task.start_point))
                        {
                            eprintln!(
                                "warning: journal {}: duplicate task ({}, {}) ignored",
                                path.display(),
                                task.bench,
                                task.start_point
                            );
                        } else {
                            completed.push(task);
                        }
                    }
                    Err(e) if tail => {
                        eprintln!(
                            "warning: journal {}: dropping malformed tail task: {e}",
                            path.display()
                        );
                        break;
                    }
                    Err(e) => {
                        return Err(invalid(format!(
                            "journal {}: line {}: {e}",
                            path.display(),
                            idx + 1
                        )));
                    }
                }
            }
            valid_end = hi + 1;
        }

        file.set_len(valid_end as u64)?;
        file.seek(SeekFrom::Start(valid_end as u64))?;
        if valid_end == 0 {
            // Even the header was torn away: start over.
            write_line(&mut file, &header_json)?;
        }
        Ok(CampaignJournal { file: Mutex::new(file), completed })
    }

    /// The tasks recovered by [`CampaignJournal::resume`] (empty for a
    /// fresh journal).
    pub fn completed(&self) -> &[JournaledTask] {
        &self.completed
    }

    /// Durably appends one completed task: the line is written, flushed,
    /// and `sync_data`'d before this returns, so a caller that orders the
    /// append before exposing the task's results gets
    /// durability-before-visibility.
    pub fn append_task(&self, task: &JournaledTask) -> io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        write_line(&mut file, &task_to_json(task))
    }

    /// Chaos hook: rips `bytes` off the end of the file through the
    /// journal's own handle, simulating a crash between `write` and
    /// `sync`. The torn tail is exactly what [`CampaignJournal::resume`]'s
    /// recovery rule repairs.
    #[doc(hidden)]
    pub fn tear_tail(&self, bytes: u64) -> io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let len = file.metadata()?.len();
        let keep = len.saturating_sub(bytes);
        file.set_len(keep)?;
        file.seek(SeekFrom::Start(keep))?;
        Ok(())
    }
}

fn write_line(file: &mut File, value: &Json) -> io::Result<()> {
    let mut line = value.render();
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tfsim_check::Rng;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tfsim-journal-{}-{name}", std::process::id()))
    }

    /// The campaign the sample tasks belong to: three start points of
    /// three trials each.
    fn meta() -> JournalMeta {
        let mut config = CampaignConfig::quick(0xD5_2004);
        config.start_points = 3;
        config.trials_per_start_point = 3;
        JournalMeta::new(&config, &tfsim_workloads::all())
    }

    fn sample_task(sp: u32) -> JournaledTask {
        static BITS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        JournaledTask {
            bench: 1,
            start_point: sp,
            eligible_bits: *BITS.get_or_init(|| meta().eligible_bits),
            specs: vec![
                TrialSpec { target: 4_242, inject_cycle: 17 },
                TrialSpec { target: 99, inject_cycle: 180 },
                TrialSpec { target: 7, inject_cycle: 3 },
            ],
            records: vec![
                TrialRecord {
                    outcome: Outcome::MicroArchMatch,
                    category: Category::ALL[3],
                    kind: StorageKind::Latch,
                    unit: Some(UnitId::ALL[5]),
                    inject_cycle: 17,
                    valid_instructions: 31,
                },
                TrialRecord {
                    outcome: Outcome::Failure(FailureMode::Regfile),
                    category: Category::ALL[9],
                    kind: StorageKind::Ram,
                    unit: None,
                    inject_cycle: 180,
                    valid_instructions: 2,
                },
            ],
            traces: vec![],
            faults: vec![TrialFault {
                index: 2,
                spec: TrialSpec { target: 7, inject_cycle: 3 },
                panic_msg: "forced \"panic\"\nwith newline".to_string(),
            }],
        }
    }

    /// Log-uniform below `2^bits`, so small and large values both occur.
    fn below(rng: &mut Rng, bits: u32) -> u64 {
        rng.next_u64() >> rng.gen_range(64 - bits..64)
    }

    /// Campaigns over non-empty workload subsets, inside
    /// `CampaignConfig::validate`'s bound, with every field drawn (the ones
    /// the identity leaves out too). The literal names every field, so a
    /// new one must be drawn here before this compiles.
    struct Campaigns;

    impl tfsim_check::Gen for Campaigns {
        type Value = (CampaignConfig, Vec<Workload>);

        fn generate(&self, rng: &mut Rng) -> Self::Value {
            let all = tfsim_workloads::all();
            let keep = rng.gen_range(1..1u32 << all.len());
            let workloads = (0..all.len()).filter(|i| keep >> i & 1 == 1).map(|i| all[i]);
            let config = CampaignConfig {
                mask: [InjectionMask::LatchesAndRams, InjectionMask::LatchesOnly]
                    [rng.gen_range(0..2)],
                pipeline: PipelineConfig {
                    timeout_counter: rng.gen_bool(0.5),
                    timeout_threshold: rng.gen_range(100..1024),
                    regfile_ecc: rng.gen_bool(0.5),
                    pointer_ecc: rng.gen_bool(0.5),
                    insn_parity: rng.gen_bool(0.5),
                },
                scale: below(rng, 32).max(1) as u32,
                start_points: below(rng, 32) as u32,
                trials_per_start_point: below(rng, 32) as u32,
                // A horizon under validate's 2^60 cycles: 2^56 + 2^24 × 2^32 + 2^56 + 2^56.
                warmup_cycles: below(rng, 56),
                spacing_cycles: below(rng, 24),
                inject_window: below(rng, 56).max(1),
                monitor_cycles: below(rng, 56),
                seed: rng.next_u64(),
                threads: below(rng, 16) as usize,
                pruned: rng.gen_bool(0.5),
                deep_trace: rng.gen_bool(0.5),
                panic_shim: rng.gen_bool(0.5).then(|| {
                    (below(rng, 8) as usize, below(rng, 8) as u32, below(rng, 8) as u32)
                }),
            };
            (config, workloads.collect())
        }
    }

    tfsim_check::prop_check! {
        /// The header keeps every identity field: rendered and parsed back,
        /// or rebuilt as a campaign and pinned again, it is the same meta.
        fn meta_round_trips_through_the_wire_form(campaign in Campaigns) {
            let (config, workloads) = campaign;
            let m = JournalMeta::new(&config, &workloads);
            tfsim_check::prop_assert_eq!(JournalMeta::parse(&m.render()), Ok(m.clone()));
            let (config, workloads) = m.to_campaign().expect("standard workloads");
            tfsim_check::prop_assert_eq!(config.threads, 0, "strategy fields reset to defaults");
            tfsim_check::prop_assert_eq!(JournalMeta::new(&config, &workloads), m);
        }
    }

    #[test]
    fn meta_parse_rejects_damage() {
        let m = meta();
        assert!(JournalMeta::parse("{\"journal\":\"other\"}").is_err());
        assert!(JournalMeta::parse("not json").is_err());
        let wrong_version = m.render().replace("\"version\":2", "\"version\":99");
        assert!(JournalMeta::parse(&wrong_version).is_err());
        // A watchdog threshold the 10-bit counter cannot hold is refused,
        // not handed to the pipeline it would fail to build, and so is one
        // below the lock rule, which would flush the golden walk.
        for t in [0, 1, 19, 99, 1024] {
            let field = format!("\"timeout_threshold\":{t}");
            let header = m.render().replace("\"timeout_threshold\":100", &field);
            assert_ne!(header, m.render());
            assert!(JournalMeta::parse(&header).unwrap_err().contains("timeout_threshold"));
        }
        // A campaign that cannot run is refused, not drawn from an empty
        // window, run on programs that halt in their warm-up, or scheduled
        // past the cycles a golden walk can index.
        let cases = [
            ("\"inject_window\":200", "\"inject_window\":0", "inject_window"),
            ("\"scale\":2", "\"scale\":0", "scale"),
            ("\"spacing_cycles\":600", "\"spacing_cycles\":9000000000000000000", "exceeds"),
            ("\"monitor_cycles\":3000", "\"monitor_cycles\":18446744073709551615", "exceeds"),
            ("\"warmup_cycles\":1500", "\"warmup_cycles\":18446744073709551000", "exceeds"),
        ];
        for (field, damaged, needle) in cases {
            let header = m.render().replace(field, damaged);
            assert_ne!(header, m.render());
            let err = JournalMeta::parse(&header).unwrap_err();
            assert!(err.contains(needle), "{damaged}: {err}");
        }
    }

    #[test]
    fn tear_tail_is_repaired_by_resume() {
        let path = tmp("tear.jsonl");
        let m = meta();
        {
            let j = CampaignJournal::create(&path, &m).unwrap();
            j.append_task(&sample_task(0)).unwrap();
            j.append_task(&sample_task(1)).unwrap();
            j.tear_tail(7).unwrap();
            // Appends after a tear land cleanly at the new end.
            j.append_task(&sample_task(2)).unwrap();
        }
        let j = CampaignJournal::resume(&path, &m).unwrap();
        // Task 1's line lost its tail; 0 survives, and 2's append after
        // the tear glued onto the torn line — recovery drops both damaged
        // lines at worst but must keep the clean prefix.
        assert_eq!(j.completed()[0], sample_task(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn task_round_trips_through_json() {
        let task = sample_task(0);
        let line = task_to_json(&task).render();
        let back = task_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, task);
    }

    #[test]
    fn traced_task_round_trips() {
        let mut task = sample_task(0);
        task.traces = vec![
            TrialTrace { detect_cycle: 40, divergence_cycle: Some(21), diverged_unit: Some(UnitId::ALL[0]) },
            TrialTrace { detect_cycle: 200, divergence_cycle: None, diverged_unit: None },
        ];
        let line = task_to_json(&task).render();
        let back = task_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, task);
    }

    #[test]
    fn create_append_resume_round_trips() {
        let path = tmp("roundtrip.jsonl");
        let m = meta();
        {
            let j = CampaignJournal::create(&path, &m).unwrap();
            j.append_task(&sample_task(0)).unwrap();
            j.append_task(&sample_task(1)).unwrap();
        }
        let j = CampaignJournal::resume(&path, &m).unwrap();
        assert_eq!(j.completed(), &[sample_task(0), sample_task(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let path = tmp("mismatch.jsonl");
        let m = meta();
        CampaignJournal::create(&path, &m).unwrap();
        let mut other = CampaignConfig::quick(0xD5_2004);
        other.seed ^= 1;
        let err = CampaignJournal::resume(
            &path,
            &JournalMeta::new(&other, &tfsim_workloads::all()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_every_boundary_recovers_a_prefix() {
        let path = tmp("truncate.jsonl");
        let m = meta();
        {
            let j = CampaignJournal::create(&path, &m).unwrap();
            j.append_task(&sample_task(0)).unwrap();
            j.append_task(&sample_task(1)).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let j = CampaignJournal::resume(&path, &m).unwrap();
            let n = j.completed().len();
            assert!(n <= 2, "cut {cut}: recovered {n} tasks");
            for (i, t) in j.completed().iter().enumerate() {
                assert_eq!(*t, sample_task(i as u32), "cut {cut}");
            }
            drop(j);
            // The file must have been truncated back to a clean prefix:
            // resuming again recovers the same tasks with no warnings.
            let again = CampaignJournal::resume(&path, &m).unwrap();
            assert_eq!(again.completed().len(), n, "cut {cut} second resume");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = tmp("midfile.jsonl");
        let m = meta();
        {
            let j = CampaignJournal::create(&path, &m).unwrap();
            j.append_task(&sample_task(0)).unwrap();
            j.append_task(&sample_task(1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the first task line (not the tail).
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 4] = b'#';
        std::fs::write(&path, &bytes).unwrap();
        let err = CampaignJournal::resume(&path, &m).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    /// `sample_task(0)` with its two trials decided at `detect`.
    fn traced_task(detect: [u64; 2]) -> JournaledTask {
        let mut t = sample_task(0);
        t.traces = detect.map(|d| TrialTrace { detect_cycle: d, ..TrialTrace::default() }).to_vec();
        t
    }

    /// Tasks that parse but cannot belong to the campaign: each names the
    /// damage `check_task` must report.
    fn meaningless_tasks() -> Vec<(&'static str, JournaledTask)> {
        let mut bench = sample_task(0);
        bench.bench = 10;
        let mut sp = sample_task(0);
        sp.start_point = 3;
        let mut specs = sample_task(0);
        specs.specs.push(TrialSpec { target: 1, inject_cycle: 1 });
        specs.records.push(specs.records[0]);
        let mut fault_range = sample_task(0);
        fault_range.faults[0].index = 99;
        let mut fault_order = sample_task(0);
        fault_order.records.truncate(1);
        fault_order.faults.insert(0, fault_order.faults[0].clone());
        fault_order.faults[1].index = 0;
        let mut bits = sample_task(0);
        bits.eligible_bits = 47_000;
        vec![
            ("outside the campaign grid", bench),
            ("outside the campaign grid", sp),
            ("has 4 specs, the campaign draws 3", specs),
            ("quarantines spec 99 out of order or range", fault_range),
            ("quarantines spec 0 out of order or range", fault_order),
            ("decided at cycle 179 before its injection at 180", traced_task([17, 179])),
            ("counts 47000 eligible bits", bits),
        ]
    }

    #[test]
    fn check_task_names_each_kind_of_damage() {
        let m = meta();
        assert_eq!(m.check_task(&sample_task(2)), Ok(()));
        let at_injection = traced_task([17, 180]);
        assert_eq!(m.check_task(&at_injection), Ok(()), "a trial may decide at its injection");
        for (want, task) in meaningless_tasks() {
            let err = m.check_task(&task).unwrap_err();
            assert!(err.contains(want), "{want:?} not in {err:?}");
        }
    }

    #[test]
    fn meaningless_tasks_fail_mid_file_and_drop_at_the_tail() {
        let path = tmp("meaning.jsonl");
        let m = meta();
        for (want, task) in meaningless_tasks() {
            // Mid-file: the journal is damaged, not torn.
            {
                let j = CampaignJournal::create(&path, &m).unwrap();
                j.append_task(&task).unwrap();
                j.append_task(&sample_task(1)).unwrap();
            }
            let err = CampaignJournal::resume(&path, &m).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{want}");
            assert!(err.to_string().contains(want), "{want:?} not in {err}");
            // Tail: dropped like a torn append, and truncated away.
            {
                let j = CampaignJournal::create(&path, &m).unwrap();
                j.append_task(&sample_task(1)).unwrap();
                j.append_task(&task).unwrap();
            }
            let j = CampaignJournal::resume(&path, &m).unwrap();
            assert_eq!(j.completed(), &[sample_task(1)], "{want}");
            drop(j);
            assert_eq!(CampaignJournal::resume(&path, &m).unwrap().completed().len(), 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_task_keeps_first_occurrence() {
        let path = tmp("dup.jsonl");
        let m = meta();
        {
            let j = CampaignJournal::create(&path, &m).unwrap();
            j.append_task(&sample_task(0)).unwrap();
            let mut dup = sample_task(0);
            dup.records[0].valid_instructions += 1; // distinguishable from the original
            j.append_task(&dup).unwrap();
        }
        let j = CampaignJournal::resume(&path, &m).unwrap();
        assert_eq!(j.completed(), &[sample_task(0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_resume_extends_the_journal() {
        let path = tmp("extend.jsonl");
        let m = meta();
        {
            let j = CampaignJournal::create(&path, &m).unwrap();
            j.append_task(&sample_task(0)).unwrap();
        }
        // Tear the file mid-append, resume, and append the next task.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        {
            let j = CampaignJournal::resume(&path, &m).unwrap();
            assert!(j.completed().is_empty());
            j.append_task(&sample_task(0)).unwrap();
            j.append_task(&sample_task(1)).unwrap();
        }
        let j = CampaignJournal::resume(&path, &m).unwrap();
        assert_eq!(j.completed(), &[sample_task(0), sample_task(1)]);
        std::fs::remove_file(&path).unwrap();
    }
}
