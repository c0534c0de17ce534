//! Workload specification: what an [`Evaluator`](crate::Evaluator) runs.

use std::fmt;
use std::sync::Arc;

use mim_isa::Program;
use mim_workloads::{Workload, WorkloadSize};

/// Where a workload's program comes from.
#[derive(Clone)]
enum ProgramSource {
    /// A named kernel generator, instantiated at the experiment's size.
    Kernel(Workload),
    /// A fixed, already-built program (e.g. a compiler-pass variant); the
    /// experiment's size parameter is ignored.
    Fixed(Arc<Program>),
}

/// A named workload an evaluator can be pointed at: either a size-
/// parameterized kernel from `mim-workloads`, or a fixed pre-built
/// [`Program`] (the escape hatch for compiler-pass variants and custom
/// kernels).
///
/// # Example
///
/// ```
/// use mim_runner::WorkloadSpec;
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let spec = WorkloadSpec::from(mibench::sha());
/// assert_eq!(spec.name(), "sha");
/// assert!(!spec.program_at(WorkloadSize::Tiny).text().is_empty());
/// ```
#[derive(Clone)]
pub struct WorkloadSpec {
    name: String,
    source: ProgramSource,
}

impl WorkloadSpec {
    /// Wraps a kernel under its own name.
    pub fn kernel(workload: Workload) -> WorkloadSpec {
        WorkloadSpec {
            name: workload.name().to_string(),
            source: ProgramSource::Kernel(workload),
        }
    }

    /// Wraps a fixed program under an explicit name (sizes are ignored —
    /// the program is evaluated as given).
    ///
    /// Names key experiment reports and the shared [`WorkloadStore`], so
    /// they must be unique within an experiment — give variants of one
    /// kernel distinct names (`"sha/O3"`, `"sha/nosched"`, ...).
    /// [`Experiment::run`](crate::Experiment::run) rejects duplicates.
    ///
    /// [`WorkloadStore`]: crate::WorkloadStore
    pub fn program(name: impl Into<String>, program: Program) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            source: ProgramSource::Fixed(Arc::new(program)),
        }
    }

    /// The workload's display name (used as the report key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiates the program at `size` (fixed programs are returned
    /// as-is).
    pub fn program_at(&self, size: WorkloadSize) -> Arc<Program> {
        match &self.source {
            ProgramSource::Kernel(w) => Arc::new(w.program(size)),
            ProgramSource::Fixed(p) => Arc::clone(p),
        }
    }
}

impl From<Workload> for WorkloadSpec {
    fn from(workload: Workload) -> WorkloadSpec {
        WorkloadSpec::kernel(workload)
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .finish()
    }
}
