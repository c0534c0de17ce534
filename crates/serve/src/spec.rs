//! Job specifications: the JSON-described units of work a server accepts.
//!
//! A [`JobSpec`] names one of the repo's three request kinds — an
//! [`Experiment`] grid, an [`Exploration`] search, or a [`SubsetRun`]
//! study — entirely by *registry names* (workloads, evaluators,
//! objectives, space presets), so clients never serialize machine
//! configurations. Parsing is lenient (absent fields take the documented
//! defaults), and the engine's job-level dedup keys on the parsed spec,
//! so two submissions that *mean* the same job coalesce no matter which
//! defaults they spelled out.

use mim_core::{DesignSpace, MachineConfig};
use mim_explore::{Anneal, Exhaustive, Exploration, GreedyAscent, Objective};
use mim_runner::{CellMemo, EvalKind, Experiment, WorkloadStore};
use mim_select::SubsetRun;
use mim_workloads::{mibench, spec as spec_suite, Workload, WorkloadSize};
use serde::{Serialize, Value};

/// Design-space description by preset name plus optional axis overrides.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct SpaceSpec {
    /// `"default"` (the paper's default machine as a one-point space) or
    /// `"table2"` (the paper's full 192-point space).
    pub preset: String,
    /// Optional replacement for the pipeline-width axis.
    pub widths: Option<Vec<u32>>,
}

impl SpaceSpec {
    fn parse(value: &Value) -> Result<SpaceSpec, String> {
        Ok(SpaceSpec {
            preset: str_or(value, "preset", "default")?,
            widths: opt_u32_list(value, "widths")?,
        })
    }

    fn resolve(&self) -> Result<DesignSpace, String> {
        let mut space = match self.preset.as_str() {
            "default" => DesignSpace::new(MachineConfig::default_config()),
            "table2" => DesignSpace::paper_table2(),
            other => return Err(format!("unknown space preset `{other}`")),
        };
        if let Some(widths) = &self.widths {
            space = space
                .with_widths(widths.clone())
                .map_err(|e| e.to_string())?;
        }
        Ok(space)
    }
}

/// Sampling-plan description for `sampled` evaluations: the geometry of
/// the periodic detailed windows and their functional warm-up.
///
/// Defaults to the library's default 1-in-10 plan
/// ([`Sampling::default_plan`](mim_trace::Sampling::default_plan)).
/// Geometry is validated at submit time through
/// [`Sampling::try_new`](mim_trace::Sampling::try_new), so a bad plan is
/// rejected synchronously instead of panicking inside a worker.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct SamplingSpec {
    /// Sample-unit period in instructions.
    pub period: u64,
    /// Detailed-window length in instructions (must satisfy
    /// `0 < length <= period`).
    pub length: u64,
    /// Functional warm-up events walked before each window.
    pub warmup: u64,
    /// Stream position of the first window.
    pub offset: u64,
}

impl SamplingSpec {
    fn parse(value: &Value) -> Result<SamplingSpec, String> {
        let default = mim_trace::Sampling::default_plan();
        Ok(SamplingSpec {
            period: u64_or(value, "period", default.period())?,
            length: u64_or(value, "length", default.length())?,
            warmup: u64_or(value, "warmup", default.warmup())?,
            offset: u64_or(value, "offset", default.offset())?,
        })
    }

    fn resolve(&self) -> Result<mim_trace::Sampling, String> {
        let plan =
            mim_trace::Sampling::try_new(self.period, self.length).map_err(|e| e.to_string())?;
        Ok(plan.with_warmup(self.warmup).with_offset(self.offset))
    }
}

/// Search-strategy description for exploration jobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct StrategySpec {
    /// `"exhaustive"`, `"greedy"`, or `"anneal"`.
    pub name: String,
    /// RNG seed for stochastic strategies.
    pub seed: u64,
    /// Restart count for `"greedy"` (0 keeps the strategy default).
    pub restarts: usize,
    /// Evaluation budget for stochastic strategies (0 keeps the default).
    pub budget: usize,
}

impl StrategySpec {
    fn parse(value: &Value) -> Result<StrategySpec, String> {
        Ok(StrategySpec {
            name: str_or(value, "name", "exhaustive")?,
            seed: u64_or(value, "seed", 1)?,
            restarts: u64_or(value, "restarts", 0)? as usize,
            budget: u64_or(value, "budget", 0)? as usize,
        })
    }

    fn apply(&self, exploration: Exploration) -> Result<Exploration, String> {
        match self.name.as_str() {
            "exhaustive" => Ok(exploration.strategy(Exhaustive)),
            "greedy" => {
                let mut s = GreedyAscent::new().seed(self.seed);
                if self.restarts > 0 {
                    s = s.restarts(self.restarts);
                }
                if self.budget > 0 {
                    s = s.budget(self.budget);
                }
                Ok(exploration.strategy(s))
            }
            "anneal" => {
                let mut s = Anneal::new(self.seed);
                if self.budget > 0 {
                    s = s.budget(self.budget);
                }
                Ok(exploration.strategy(s))
            }
            other => Err(format!("unknown strategy `{other}`")),
        }
    }
}

/// An experiment job: a (workload × design-point × evaluator) grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct ExperimentSpec {
    /// Report title.
    pub title: String,
    /// Workload registry names.
    pub workloads: Vec<String>,
    /// Size label (`tiny`/`small`/`large`).
    pub size: String,
    /// Instruction budget per evaluation, if truncated.
    pub limit: Option<u64>,
    /// Evaluator labels (`model`/`sim`/`ooo`/`sampled`).
    pub evaluators: Vec<String>,
    /// Whether to run the energy model.
    pub energy: bool,
    /// Sampling plan for `sampled` evaluators (absent = the default
    /// 1-in-10 plan with full warming).
    pub sampling: Option<SamplingSpec>,
    /// Design space to sweep (absent = the single default machine).
    pub space: Option<SpaceSpec>,
    /// Evaluate only every `stride`-th design point.
    pub stride: usize,
}

/// An exploration job: strategy-driven search over a design space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct ExplorationSpec {
    /// Report title.
    pub title: String,
    /// Workload registry names.
    pub workloads: Vec<String>,
    /// Size label (`tiny`/`small`/`large`).
    pub size: String,
    /// Instruction budget per evaluation, if truncated.
    pub limit: Option<u64>,
    /// Objective names (`cpi`/`delay`/`energy`/`edp`/`ed2p`/`area`).
    pub objectives: Vec<String>,
    /// Search strategy.
    pub strategy: StrategySpec,
    /// Evaluator label for the search phase.
    pub evaluator: String,
    /// Design space to search.
    pub space: SpaceSpec,
}

/// A subset job: representative-input selection plus a verified subset
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct SubsetSpec {
    /// Report title.
    pub title: String,
    /// Workload registry names.
    pub workloads: Vec<String>,
    /// Size label (`tiny`/`small`/`large`).
    pub size: String,
    /// Instruction budget per evaluation, if truncated.
    pub limit: Option<u64>,
    /// Evaluator label for the sweep phase.
    pub evaluator: String,
    /// Whether to verify the subset against the full suite.
    pub verify: bool,
    /// Design space to sweep.
    pub space: SpaceSpec,
}

/// One unit of server work: the three request kinds the repo's tools
/// submit, dispatched on the `"kind"` field of the submitted object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JobSpec {
    /// `{"kind":"experiment",...}` — an [`Experiment`] grid.
    Experiment(ExperimentSpec),
    /// `{"kind":"exploration",...}` — an [`Exploration`] search.
    Exploration(ExplorationSpec),
    /// `{"kind":"subset",...}` — a [`SubsetRun`] study.
    Subset(SubsetSpec),
}

impl JobSpec {
    /// The spec's kind label (`experiment`/`exploration`/`subset`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Experiment(_) => "experiment",
            JobSpec::Exploration(_) => "exploration",
            JobSpec::Subset(_) => "subset",
        }
    }

    /// Parses a job object, validating every name against the registries
    /// up front — a submission either enqueues or is rejected
    /// synchronously; it never fails later on a typo.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn from_value(value: &Value) -> Result<JobSpec, String> {
        if value.as_object().is_none() {
            return Err(format!("job must be an object, got {}", value.kind()));
        }
        let kind = str_or(value, "kind", "")?;
        let job = match kind.as_str() {
            "experiment" => JobSpec::Experiment(ExperimentSpec {
                title: str_or(value, "title", "")?,
                workloads: str_list(value, "workloads")?,
                size: str_or(value, "size", "tiny")?,
                limit: opt_u64(value, "limit")?,
                evaluators: str_list(value, "evaluators")?,
                energy: bool_or(value, "energy", false)?,
                sampling: match value.get("sampling") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(SamplingSpec::parse(v)?),
                },
                space: match value.get("space") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(SpaceSpec::parse(v)?),
                },
                stride: u64_or(value, "stride", 1)?.max(1) as usize,
            }),
            "exploration" => JobSpec::Exploration(ExplorationSpec {
                title: str_or(value, "title", "")?,
                workloads: str_list(value, "workloads")?,
                size: str_or(value, "size", "tiny")?,
                limit: opt_u64(value, "limit")?,
                objectives: str_list(value, "objectives")?,
                strategy: match value.get("strategy") {
                    None | Some(Value::Null) => StrategySpec::parse(&Value::Object(vec![]))?,
                    Some(v) => StrategySpec::parse(v)?,
                },
                evaluator: str_or(value, "evaluator", "model")?,
                space: match value.get("space") {
                    None | Some(Value::Null) => SpaceSpec {
                        preset: "table2".into(),
                        widths: None,
                    },
                    Some(v) => SpaceSpec::parse(v)?,
                },
            }),
            "subset" => JobSpec::Subset(SubsetSpec {
                title: str_or(value, "title", "")?,
                workloads: str_list(value, "workloads")?,
                size: str_or(value, "size", "tiny")?,
                limit: opt_u64(value, "limit")?,
                evaluator: str_or(value, "evaluator", "model")?,
                verify: bool_or(value, "verify", false)?,
                space: match value.get("space") {
                    None | Some(Value::Null) => SpaceSpec {
                        preset: "table2".into(),
                        widths: None,
                    },
                    Some(v) => SpaceSpec::parse(v)?,
                },
            }),
            "" => return Err("job is missing the `kind` field".into()),
            other => return Err(format!("unknown job kind `{other}`")),
        };
        job.validate()?;
        Ok(job)
    }

    /// Validates every registry name so rejection happens at submit time.
    fn validate(&self) -> Result<(), String> {
        let (workloads, size) = match self {
            JobSpec::Experiment(s) => (&s.workloads, &s.size),
            JobSpec::Exploration(s) => (&s.workloads, &s.size),
            JobSpec::Subset(s) => (&s.workloads, &s.size),
        };
        if workloads.is_empty() {
            return Err("job names no workloads".into());
        }
        for name in workloads {
            find_workload(name)?;
        }
        parse_size(size)?;
        match self {
            JobSpec::Experiment(s) => {
                if s.evaluators.is_empty() {
                    return Err("experiment names no evaluators".into());
                }
                for label in &s.evaluators {
                    parse_eval(label)?;
                }
                if let Some(sampling) = &s.sampling {
                    sampling.resolve()?;
                }
                if let Some(space) = &s.space {
                    space.resolve()?;
                }
            }
            JobSpec::Exploration(s) => {
                if s.objectives.is_empty() {
                    return Err("exploration names no objectives".into());
                }
                for name in &s.objectives {
                    parse_objective(name)?;
                }
                parse_eval(&s.evaluator)?;
                s.space.resolve()?;
                s.strategy.apply(Exploration::new(s.space.resolve()?))?;
            }
            JobSpec::Subset(s) => {
                parse_eval(&s.evaluator)?;
                s.space.resolve()?;
            }
        }
        Ok(())
    }

    /// Canonical object form, including the `kind` discriminator — what a
    /// client sends as the `job` of a `submit` request.
    pub fn to_value(&self) -> Value {
        let body = match self {
            JobSpec::Experiment(s) => s.to_value(),
            JobSpec::Exploration(s) => s.to_value(),
            JobSpec::Subset(s) => s.to_value(),
        };
        let mut fields = vec![("kind".to_string(), Value::Str(self.kind().to_string()))];
        if let Value::Object(body) = body {
            fields.extend(body);
        }
        Value::Object(fields)
    }

    /// Runs the job against the server's shared store and cell memo,
    /// returning the report as a JSON value (the deterministic bytes the
    /// protocol's `result` response carries).
    ///
    /// Jobs run single-threaded internally: the server's parallelism is
    /// its worker pool, and fixed-order evaluation keeps every report
    /// byte-identical across worker counts.
    ///
    /// # Errors
    ///
    /// Returns the underlying evaluation error's message.
    pub fn execute(&self, store: &WorkloadStore, cells: &CellMemo) -> Result<Value, String> {
        match self {
            JobSpec::Experiment(s) => s.execute(store, cells),
            JobSpec::Exploration(s) => s.execute(store),
            JobSpec::Subset(s) => s.execute(store),
        }
    }
}

impl ExperimentSpec {
    fn execute(&self, store: &WorkloadStore, cells: &CellMemo) -> Result<Value, String> {
        let mut experiment = Experiment::new()
            .title(&self.title)
            .size(parse_size(&self.size)?)
            .limit(self.limit)
            .energy(self.energy)
            .threads(1)
            .with_cache(store.clone())
            .with_cells(cells.clone());
        for name in &self.workloads {
            experiment = experiment.workload(find_workload(name)?);
        }
        if let Some(sampling) = &self.sampling {
            experiment = experiment.sampling(sampling.resolve()?);
        }
        if let Some(space) = &self.space {
            experiment = experiment
                .design_space(space.resolve()?)
                .stride(self.stride);
        }
        let kinds = self
            .evaluators
            .iter()
            .map(|label| parse_eval(label))
            .collect::<Result<Vec<_>, _>>()?;
        let report = experiment
            .evaluators(kinds)
            .run()
            .map_err(|e| e.to_string())?;
        Ok(report.to_value())
    }
}

impl ExplorationSpec {
    fn execute(&self, store: &WorkloadStore) -> Result<Value, String> {
        let mut exploration = Exploration::new(self.space.resolve()?)
            .title(&self.title)
            .size(parse_size(&self.size)?)
            .limit(self.limit)
            .evaluator(parse_eval(&self.evaluator)?)
            .threads(1)
            .with_cache(store.clone());
        for name in &self.workloads {
            exploration = exploration.workload(find_workload(name)?);
        }
        let objectives = self
            .objectives
            .iter()
            .map(|name| parse_objective(name))
            .collect::<Result<Vec<_>, _>>()?;
        let energy = objectives.iter().any(Objective::needs_energy);
        exploration = exploration.objectives(objectives).energy(energy);
        exploration = self.strategy.apply(exploration)?;
        let report = exploration.run().map_err(|e| e.to_string())?;
        Ok(report.to_value())
    }
}

impl SubsetSpec {
    fn execute(&self, store: &WorkloadStore) -> Result<Value, String> {
        let mut run = SubsetRun::new(self.space.resolve()?)
            .title(&self.title)
            .size(parse_size(&self.size)?)
            .limit(self.limit)
            .evaluator(parse_eval(&self.evaluator)?)
            .verify(self.verify)
            .threads(1)
            .with_cache(store.clone());
        for name in &self.workloads {
            run = run.workload(find_workload(name)?);
        }
        let report = run.run().map_err(|e| e.to_string())?;
        Ok(report.to_value())
    }
}

/// Finds a workload by name across the full registry (MiBench core +
/// extended + the SPEC-like suite).
pub fn find_workload(name: &str) -> Result<Workload, String> {
    mibench::all()
        .into_iter()
        .chain(mibench::extended())
        .chain(spec_suite::all())
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Parses a size label.
pub fn parse_size(label: &str) -> Result<WorkloadSize, String> {
    match label {
        "tiny" => Ok(WorkloadSize::Tiny),
        "small" => Ok(WorkloadSize::Small),
        "large" => Ok(WorkloadSize::Large),
        other => Err(format!("unknown size `{other}` (tiny/small/large)")),
    }
}

/// Parses an evaluator label.
pub fn parse_eval(label: &str) -> Result<EvalKind, String> {
    match label {
        "model" => Ok(EvalKind::Model),
        "sim" => Ok(EvalKind::Sim),
        "ooo" => Ok(EvalKind::Ooo),
        "sampled" => Ok(EvalKind::Sampled),
        other => Err(format!(
            "unknown evaluator `{other}` (model/sim/ooo/sampled)"
        )),
    }
}

/// Parses an objective name.
pub fn parse_objective(name: &str) -> Result<Objective, String> {
    match name {
        "cpi" => Ok(Objective::cpi()),
        "delay" => Ok(Objective::delay()),
        "energy" => Ok(Objective::energy()),
        "edp" => Ok(Objective::edp()),
        "ed2p" => Ok(Objective::ed2p()),
        "area" => Ok(Objective::area()),
        other => Err(format!("unknown objective `{other}`")),
    }
}

// --- lenient field readers over the Value tree -----------------------------

fn str_or(value: &Value, key: &str, default: &str) -> Result<String, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(v) => Err(format!("field `{key}` must be a string, got {}", v.kind())),
    }
}

fn bool_or(value: &Value, key: &str, default: bool) -> Result<bool, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(v) => Err(format!("field `{key}` must be a bool, got {}", v.kind())),
    }
}

/// The one strict integer reader for untrusted JSON: a non-negative
/// integer, and nothing else (no floats, however integral).
pub(crate) fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::UInt(u) => Some(u),
        Value::Int(i) if i >= 0 => Some(i as u64),
        _ => None,
    }
}

fn u64_or(value: &Value, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => {
            as_u64(v).ok_or_else(|| format!("field `{key}` must be an integer, got {}", v.kind()))
        }
    }
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => as_u64(v)
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be an integer, got {}", v.kind())),
    }
}

fn str_list(value: &Value, key: &str) -> Result<Vec<String>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!(
                    "field `{key}` must hold strings, got {}",
                    other.kind()
                )),
            })
            .collect(),
        Some(v) => Err(format!("field `{key}` must be an array, got {}", v.kind())),
    }
}

fn opt_u32_list(value: &Value, key: &str) -> Result<Option<Vec<u32>>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| {
                as_u64(v)
                    .and_then(|u| u32::try_from(u).ok())
                    .ok_or_else(|| format!("field `{key}` must hold small integers"))
            })
            .collect::<Result<Vec<u32>, String>>()
            .map(Some),
        Some(v) => Err(format!("field `{key}` must be an array, got {}", v.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<JobSpec, String> {
        let value: Value = serde_json::from_str(json).expect("test JSON parses");
        JobSpec::from_value(&value)
    }

    #[test]
    fn minimal_experiment_parses_with_defaults() {
        let job = parse(r#"{"kind":"experiment","workloads":["sha"],"evaluators":["model"]}"#)
            .expect("parses");
        match &job {
            JobSpec::Experiment(s) => {
                assert_eq!(s.size, "tiny");
                assert_eq!(s.limit, None);
                assert!(!s.energy);
                assert!(s.space.is_none());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn defaults_do_not_change_the_spec() {
        let terse = parse(r#"{"kind":"experiment","workloads":["sha"],"evaluators":["model"]}"#)
            .expect("parses");
        let spelled = parse(
            r#"{"kind":"experiment","title":"","workloads":["sha"],"size":"tiny",
                "evaluators":["model"],"energy":false,"stride":1}"#,
        )
        .expect("parses");
        assert_eq!(terse, spelled);
        let different =
            parse(r#"{"kind":"experiment","workloads":["crc32"],"evaluators":["model"]}"#)
                .expect("parses");
        assert_ne!(terse, different);
    }

    #[test]
    fn bad_names_are_rejected_at_parse_time() {
        for (json, needle) in [
            (r#"{"kind":"mystery"}"#, "unknown job kind"),
            (
                r#"{"kind":"experiment","evaluators":["model"]}"#,
                "no workloads",
            ),
            (
                r#"{"kind":"experiment","workloads":["nope"],"evaluators":["model"]}"#,
                "unknown workload",
            ),
            (
                r#"{"kind":"experiment","workloads":["sha"],"evaluators":["magic"]}"#,
                "unknown evaluator",
            ),
            (
                r#"{"kind":"experiment","workloads":["sha"],"evaluators":["model"],"size":"xl"}"#,
                "unknown size",
            ),
            (
                r#"{"kind":"exploration","workloads":["sha"],"objectives":["vibes"]}"#,
                "unknown objective",
            ),
            (
                r#"{"kind":"exploration","workloads":["sha"],"objectives":["cpi"],
                    "strategy":{"name":"lucky"}}"#,
                "unknown strategy",
            ),
            (
                r#"{"kind":"subset","workloads":["sha"],"space":{"preset":"huge"}}"#,
                "unknown space preset",
            ),
            // Bad sampling geometry is rejected synchronously at submit
            // time (through `Sampling::try_new`), never inside a worker.
            (
                r#"{"kind":"experiment","workloads":["sha"],"evaluators":["sampled"],
                    "sampling":{"period":10,"length":0}}"#,
                "invalid sampling plan",
            ),
            (
                r#"{"kind":"experiment","workloads":["sha"],"evaluators":["sampled"],
                    "sampling":{"period":10,"length":11}}"#,
                "invalid sampling plan",
            ),
        ] {
            let err = parse(json).expect_err(json);
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn sampled_jobs_parse_and_execute_with_ci_stats() {
        let job = parse(
            r#"{"kind":"experiment","workloads":["sha"],"evaluators":["sim","sampled"],
                "sampling":{"period":500,"length":50,"warmup":450,"offset":50}}"#,
        )
        .expect("parses");
        let store = WorkloadStore::new();
        let cells = CellMemo::new();
        let report = job.execute(&store, &cells).expect("runs");
        let rows = report
            .get("rows")
            .and_then(Value::as_array)
            .expect("rows array");
        assert_eq!(rows.len(), 2);
        // The sampled row carries the sampling summary; the full-sim row
        // does not.
        let sampling_of = |row: &Value| row.get("sampling").cloned().expect("field present");
        assert_eq!(sampling_of(&rows[0]), Value::Null);
        let stats = sampling_of(&rows[1]);
        match stats.get("units").expect("units field") {
            Value::Int(n) => assert!(*n > 1, "{n} units"),
            Value::UInt(n) => assert!(*n > 1, "{n} units"),
            other => panic!("units should be an integer, got {}", other.kind()),
        }
        assert!(stats.get("cpi_ci95").is_some());
        assert_eq!(
            rows[1].get("evaluator"),
            Some(&Value::Str("sampled-p500-l50-w450-o50".into()))
        );
    }

    #[test]
    fn execute_runs_a_tiny_experiment() {
        let job = parse(
            r#"{"kind":"experiment","workloads":["sha"],"evaluators":["model"],
                "limit":20000}"#,
        )
        .expect("parses");
        let store = WorkloadStore::new();
        let cells = CellMemo::new();
        let report = job.execute(&store, &cells).expect("runs");
        assert!(report.get("rows").and_then(Value::as_array).is_some());
        assert_eq!(cells.stats().misses, 1);
    }
}
