//! Machine parameters and the Table 2 design space.

use std::error::Error;
use std::fmt;

use mim_bpred::PredictorConfig;
use mim_cache::{CacheConfig, HierarchyConfig};
use serde::{Deserialize, Serialize};

/// Error produced by [`MachineConfig::validate`] and the [`DesignSpace`]
/// builder.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Pipeline width outside the supported range.
    BadWidth {
        /// Offending width.
        width: u32,
    },
    /// Front-end depth of zero.
    BadDepth,
    /// A latency parameter was zero or non-finite.
    BadLatency {
        /// Which latency was invalid.
        field: &'static str,
    },
    /// A design-space axis was replaced with an empty candidate list.
    EmptyAxis {
        /// Which axis was empty.
        axis: &'static str,
    },
    /// A design-space axis contains the same candidate twice (duplicates
    /// would silently alias design points and skew frontier statistics).
    DuplicateCandidate {
        /// Which axis holds the duplicate.
        axis: &'static str,
        /// Display label of the duplicated candidate.
        label: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadWidth { width } => {
                write!(f, "pipeline width must be in 1..=8, got {width}")
            }
            ConfigError::BadDepth => write!(f, "front-end depth must be at least 1"),
            ConfigError::BadLatency { field } => {
                write!(f, "latency parameter {field} must be positive and finite")
            }
            ConfigError::EmptyAxis { axis } => {
                write!(f, "design-space axis `{axis}` must be non-empty")
            }
            ConfigError::DuplicateCandidate { axis, label } => {
                write!(f, "design-space axis `{axis}` lists `{label}` twice")
            }
        }
    }
}

impl Error for ConfigError {}

/// Complete description of one superscalar in-order design point.
///
/// This bundles every machine parameter the model (and the detailed
/// pipeline simulator) needs: pipeline geometry, functional-unit and
/// memory latencies, the cache hierarchy, and the branch predictor.
/// Time-domain latencies (`l2_hit_ns`, `mem_ns`) are converted to cycles
/// with the configured clock frequency, so frequency points in the design
/// space change cycle-domain behaviour exactly as in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Pipeline width `W` (instructions per stage), 1–8.
    pub width: u32,
    /// Depth `D` of the front-end pipeline (fetch..decode stages).
    /// The paper's 5/7/9-stage machines have `D` = 2/4/6 (the back end is
    /// always execute + memory + writeback).
    pub frontend_depth: u32,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Execute latency of integer multiply, in cycles (non-pipelined).
    pub mul_latency: u32,
    /// Execute latency of integer divide/remainder, in cycles.
    pub div_latency: u32,
    /// L1 data-cache hit latency in cycles (1 = result forwards from MEM).
    pub l1_hit_cycles: u32,
    /// Unified L2 hit latency in nanoseconds (10 ns in Table 2).
    pub l2_hit_ns: f64,
    /// Main-memory access latency in nanoseconds.
    pub mem_ns: f64,
    /// TLB miss (page-walk) latency in cycles.
    pub tlb_walk_cycles: u32,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
}

impl MachineConfig {
    /// The paper's default configuration (Table 2, "Default" column):
    /// 4-wide, 9-stage (front-end depth 6), 1 GHz, 32 KB 4-way L1s,
    /// 512 KB 8-way L2 at 10 ns, and the 1 KB gshare predictor.
    pub fn default_config() -> MachineConfig {
        MachineConfig {
            width: 4,
            frontend_depth: 6,
            frequency_ghz: 1.0,
            mul_latency: 4,
            div_latency: 20,
            l1_hit_cycles: 1,
            l2_hit_ns: 10.0,
            mem_ns: 60.0,
            tlb_walk_cycles: 30,
            hierarchy: HierarchyConfig::default_hierarchy(),
            predictor: PredictorConfig::gshare_1k(),
        }
    }

    /// Checks all parameters, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the width is outside 1–8, the front-end
    /// depth is zero, or any latency is non-positive/non-finite.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 || self.width > 8 {
            return Err(ConfigError::BadWidth { width: self.width });
        }
        if self.frontend_depth == 0 {
            return Err(ConfigError::BadDepth);
        }
        for (field, ok) in [
            (
                "frequency_ghz",
                self.frequency_ghz > 0.0 && self.frequency_ghz.is_finite(),
            ),
            ("mul_latency", self.mul_latency >= 1),
            ("div_latency", self.div_latency >= 1),
            ("l1_hit_cycles", self.l1_hit_cycles >= 1),
            (
                "l2_hit_ns",
                self.l2_hit_ns > 0.0 && self.l2_hit_ns.is_finite(),
            ),
            ("mem_ns", self.mem_ns > 0.0 && self.mem_ns.is_finite()),
            ("tlb_walk_cycles", self.tlb_walk_cycles >= 1),
        ] {
            if !ok {
                return Err(ConfigError::BadLatency { field });
            }
        }
        Ok(())
    }

    /// Total pipeline depth (front end + execute + memory + writeback).
    pub fn pipeline_stages(&self) -> u32 {
        self.frontend_depth + 3
    }

    /// L2 hit latency in cycles at the configured frequency.
    pub fn l2_hit_cycles(&self) -> u32 {
        (self.l2_hit_ns * self.frequency_ghz).round().max(1.0) as u32
    }

    /// Main-memory latency in cycles at the configured frequency.
    pub fn mem_cycles(&self) -> u32 {
        (self.mem_ns * self.frequency_ghz).round().max(1.0) as u32
    }

    /// Clock period in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        crate::cycles_to_seconds(1.0, self.frequency_ghz)
    }

    /// Short identifier, e.g. `"s9@1.0GHz-w4-L2-512K-8w-gshare-12b"`.
    pub fn id(&self) -> String {
        format!(
            "s{}@{:.1}GHz-w{}-{}-{}",
            self.pipeline_stages(),
            self.frequency_ghz,
            self.width,
            self.hierarchy.l2.name(),
            self.predictor.name(),
        )
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (mul {}c, div {}c, L2 {}c, mem {}c, TLB walk {}c)",
            self.id(),
            self.mul_latency,
            self.div_latency,
            self.l2_hit_cycles(),
            self.mem_cycles(),
            self.tlb_walk_cycles,
        )
    }
}

/// One enumerated point of a [`DesignSpace`] with its position indices,
/// used to look up per-configuration profile statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The full machine configuration.
    pub machine: MachineConfig,
    /// Index into [`DesignSpace::l2_configs`] for this point's L2.
    pub l2_index: usize,
    /// Index into [`DesignSpace::predictor_configs`] for this point's
    /// predictor.
    pub predictor_index: usize,
}

/// The paper's architecture design space (Table 2).
///
/// Three (depth, frequency) pairs x four widths x eight L2 geometries x two
/// branch predictors = 192 design points. The space is deliberately
/// factored so that the profiler can collect statistics for *all* L2 and
/// predictor candidates in a single pass ([`l2_configs`]/
/// [`predictor_configs`]), after which the model evaluates every point
/// instantly.
///
/// [`l2_configs`]: DesignSpace::l2_configs
/// [`predictor_configs`]: DesignSpace::predictor_configs
///
/// # Example
///
/// ```
/// use mim_core::DesignSpace;
///
/// let space = DesignSpace::paper_table2();
/// assert_eq!(space.points().count(), 192);
/// assert_eq!(space.l2_configs().len(), 8);
/// assert_eq!(space.predictor_configs().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    base: MachineConfig,
    depth_freq: Vec<(u32, f64)>,
    widths: Vec<u32>,
    l2s: Vec<CacheConfig>,
    predictors: Vec<PredictorConfig>,
}

impl DesignSpace {
    /// A degenerate one-point space containing exactly `base`.
    ///
    /// Grow it with the `with_*` builder methods to sweep individual axes,
    /// e.g. a width sweep at the default machine:
    ///
    /// ```
    /// use mim_core::{DesignSpace, MachineConfig};
    ///
    /// let space = DesignSpace::new(MachineConfig::default_config())
    ///     .with_widths(vec![1, 2, 3, 4])
    ///     .expect("distinct widths");
    /// assert_eq!(space.len(), 4);
    /// ```
    pub fn new(base: MachineConfig) -> DesignSpace {
        DesignSpace {
            depth_freq: vec![(base.frontend_depth, base.frequency_ghz)],
            widths: vec![base.width],
            l2s: vec![base.hierarchy.l2.clone()],
            predictors: vec![base.predictor.clone()],
            base,
        }
    }

    /// Rejects empty or duplicate-carrying candidate lists; duplicates
    /// would silently alias design points (and, for L2s/predictors, skew
    /// the single-pass profiler's candidate lists).
    fn validate_axis<T: PartialEq>(
        axis: &'static str,
        candidates: &[T],
        label: impl Fn(&T) -> String,
    ) -> Result<(), ConfigError> {
        if candidates.is_empty() {
            return Err(ConfigError::EmptyAxis { axis });
        }
        for (i, candidate) in candidates.iter().enumerate() {
            if candidates[..i].contains(candidate) {
                return Err(ConfigError::DuplicateCandidate {
                    axis,
                    label: label(candidate),
                });
            }
        }
        Ok(())
    }

    /// Replaces the pipeline-width axis.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the list is empty or repeats a width.
    pub fn with_widths(mut self, widths: Vec<u32>) -> Result<DesignSpace, ConfigError> {
        Self::validate_axis("widths", &widths, |w| w.to_string())?;
        self.widths = widths;
        Ok(self)
    }

    /// Replaces the paired (front-end depth, frequency GHz) axis.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the list is empty or repeats a pair.
    pub fn with_depth_freq(
        mut self,
        depth_freq: Vec<(u32, f64)>,
    ) -> Result<DesignSpace, ConfigError> {
        Self::validate_axis("depth/frequency", &depth_freq, |(d, f)| {
            format!("depth {d} @ {f} GHz")
        })?;
        self.depth_freq = depth_freq;
        Ok(self)
    }

    /// Replaces the L2 cache candidate axis.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the list is empty or repeats a
    /// geometry.
    pub fn with_l2s(mut self, l2s: Vec<CacheConfig>) -> Result<DesignSpace, ConfigError> {
        Self::validate_axis("L2", &l2s, |c| c.name().to_string())?;
        self.l2s = l2s;
        Ok(self)
    }

    /// Replaces the branch-predictor candidate axis.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the list is empty or repeats a
    /// predictor.
    pub fn with_predictors(
        mut self,
        predictors: Vec<PredictorConfig>,
    ) -> Result<DesignSpace, ConfigError> {
        Self::validate_axis("predictor", &predictors, |p| p.name())?;
        self.predictors = predictors;
        Ok(self)
    }

    /// The base machine the axes are applied to (fixes all parameters the
    /// space does not sweep, including the L1/TLB geometry profilers use).
    pub fn base(&self) -> &MachineConfig {
        &self.base
    }

    /// The exact space of Table 2: pipeline depth 5/7/9 stages paired with
    /// 600/800/1000 MHz, width 1–4, L2 in {128 KB, 256 KB, 512 KB, 1 MB} x
    /// {8, 16}-way, and the two branch predictors.
    pub fn paper_table2() -> DesignSpace {
        let l2s = [128u64, 256, 512, 1024]
            .iter()
            .flat_map(|&kb| {
                [8u32, 16].iter().map(move |&ways| {
                    CacheConfig::new(format!("L2-{kb}K-{ways}w"), kb * 1024, ways, 64)
                        .expect("valid L2 geometry")
                })
            })
            .collect();
        DesignSpace {
            base: MachineConfig::default_config(),
            depth_freq: vec![(2, 0.6), (4, 0.8), (6, 1.0)],
            widths: vec![1, 2, 3, 4],
            l2s,
            predictors: vec![PredictorConfig::gshare_1k(), PredictorConfig::hybrid_3_5k()],
        }
    }

    /// The L2 cache candidates (the axis the single-pass cache sweep
    /// covers).
    pub fn l2_configs(&self) -> &[CacheConfig] {
        &self.l2s
    }

    /// The branch-predictor candidates (the axis the profiler runs over
    /// one branch stream).
    pub fn predictor_configs(&self) -> &[PredictorConfig] {
        &self.predictors
    }

    /// Number of design points.
    pub fn len(&self) -> usize {
        self.depth_freq.len() * self.widths.len() * self.l2s.len() * self.predictors.len()
    }

    /// True if the space is degenerate (no points).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate counts per axis, in enumeration order:
    /// `[depth_freq, widths, l2s, predictors]`.
    pub fn axis_lens(&self) -> [usize; 4] {
        [
            self.depth_freq.len(),
            self.widths.len(),
            self.l2s.len(),
            self.predictors.len(),
        ]
    }

    /// Decodes a flat point index into per-axis coordinates (the inverse
    /// of [`index_of`](DesignSpace::index_of)). Returns `None` when the
    /// index is out of range.
    pub fn coords_of(&self, index: usize) -> Option<[usize; 4]> {
        if index >= self.len() {
            return None;
        }
        let [_, nw, nl, np] = self.axis_lens();
        let pi = index % np;
        let li = (index / np) % nl;
        let wi = (index / (np * nl)) % nw;
        let di = index / (np * nl * nw);
        Some([di, wi, li, pi])
    }

    /// Encodes per-axis coordinates back into the flat point index.
    /// Returns `None` when any coordinate is out of range.
    pub fn index_of(&self, coords: [usize; 4]) -> Option<usize> {
        let lens = self.axis_lens();
        if coords.iter().zip(lens.iter()).any(|(c, l)| c >= l) {
            return None;
        }
        let [_, nw, nl, np] = lens;
        let [di, wi, li, pi] = coords;
        Some(((di * nw + wi) * nl + li) * np + pi)
    }

    /// Generates the design point at a flat index without materializing
    /// the whole space — `space.point_at(i)` equals `space.points().nth(i)`
    /// but costs O(1), which is what lets search strategies walk
    /// 10,000-point generated spaces lazily.
    ///
    /// Returns `None` when the index is out of range.
    pub fn point_at(&self, index: usize) -> Option<DesignPoint> {
        self.coords_of(index)
            .map(|coords| self.point_from_coords(coords))
    }

    /// Generates the design point at in-range per-axis coordinates
    /// (callers obtain valid coordinates from
    /// [`coords_of`](DesignSpace::coords_of) or by staying inside
    /// [`axis_lens`](DesignSpace::axis_lens)).
    fn point_from_coords(&self, [di, wi, li, pi]: [usize; 4]) -> DesignPoint {
        let (depth, freq) = self.depth_freq[di];
        let mut machine = self.base.clone();
        machine.frontend_depth = depth;
        machine.frequency_ghz = freq;
        machine.width = self.widths[wi];
        machine.hierarchy = machine.hierarchy.clone().with_l2(self.l2s[li].clone());
        machine.predictor = self.predictors[pi].clone();
        DesignPoint {
            machine,
            l2_index: li,
            predictor_index: pi,
        }
    }

    /// Enumerates every design point, in flat-index order (so
    /// `points().nth(i)` equals [`point_at(i)`](DesignSpace::point_at)).
    pub fn points(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.len())
            .map(|index| self.point_from_coords(self.coords_of(index).expect("index within len")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_table2() {
        let c = MachineConfig::default_config();
        c.validate().unwrap();
        assert_eq!(c.width, 4);
        assert_eq!(c.pipeline_stages(), 9);
        assert_eq!(c.l2_hit_cycles(), 10); // 10ns @ 1GHz
        assert_eq!(c.mem_cycles(), 60);
        assert_eq!(c.hierarchy.l2.size_bytes(), 512 * 1024);
    }

    #[test]
    fn frequency_scales_cycle_latencies() {
        let mut c = MachineConfig::default_config();
        c.frequency_ghz = 0.6;
        assert_eq!(c.l2_hit_cycles(), 6);
        assert_eq!(c.mem_cycles(), 36);
        assert!((c.cycle_seconds() - 1.0 / 0.6e9).abs() < 1e-20);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut c = MachineConfig::default_config();
        c.width = 0;
        assert!(matches!(c.validate(), Err(ConfigError::BadWidth { .. })));
        c.width = 9;
        assert!(matches!(c.validate(), Err(ConfigError::BadWidth { .. })));
        let mut c = MachineConfig::default_config();
        c.frontend_depth = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadDepth));
        let mut c = MachineConfig::default_config();
        c.mem_ns = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadLatency { field: "mem_ns" })
        ));
    }

    #[test]
    fn table2_space_has_192_points() {
        let space = DesignSpace::paper_table2();
        assert_eq!(space.len(), 192);
        let points: Vec<DesignPoint> = space.points().collect();
        assert_eq!(points.len(), 192);
        for p in &points {
            p.machine.validate().unwrap();
        }
        // All ids unique.
        let mut ids: Vec<String> = points.iter().map(|p| p.machine.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 192);
    }

    #[test]
    fn depth_and_frequency_are_paired() {
        let space = DesignSpace::paper_table2();
        for p in space.points() {
            match p.machine.pipeline_stages() {
                5 => assert!((p.machine.frequency_ghz - 0.6).abs() < 1e-12),
                7 => assert!((p.machine.frequency_ghz - 0.8).abs() < 1e-12),
                9 => assert!((p.machine.frequency_ghz - 1.0).abs() < 1e-12),
                other => panic!("unexpected stage count {other}"),
            }
        }
    }

    #[test]
    fn indices_point_into_config_lists() {
        let space = DesignSpace::paper_table2();
        for p in space.points() {
            assert_eq!(space.l2_configs()[p.l2_index], p.machine.hierarchy.l2);
            assert_eq!(
                space.predictor_configs()[p.predictor_index],
                p.machine.predictor
            );
        }
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!ConfigError::BadDepth.to_string().is_empty());
        assert!(!ConfigError::BadWidth { width: 0 }.to_string().is_empty());
        assert!(!ConfigError::EmptyAxis { axis: "widths" }
            .to_string()
            .is_empty());
        assert!(!ConfigError::DuplicateCandidate {
            axis: "L2",
            label: "L2-512K-8w".into()
        }
        .to_string()
        .is_empty());
    }

    #[test]
    fn empty_axes_are_rejected() {
        let base = MachineConfig::default_config();
        assert_eq!(
            DesignSpace::new(base.clone()).with_widths(vec![]),
            Err(ConfigError::EmptyAxis { axis: "widths" })
        );
        assert_eq!(
            DesignSpace::new(base.clone()).with_depth_freq(vec![]),
            Err(ConfigError::EmptyAxis {
                axis: "depth/frequency"
            })
        );
        assert_eq!(
            DesignSpace::new(base.clone()).with_l2s(vec![]),
            Err(ConfigError::EmptyAxis { axis: "L2" })
        );
        assert_eq!(
            DesignSpace::new(base).with_predictors(vec![]),
            Err(ConfigError::EmptyAxis { axis: "predictor" })
        );
    }

    #[test]
    fn duplicate_candidates_are_rejected() {
        use mim_bpred::PredictorConfig;
        use mim_cache::CacheConfig;
        let base = MachineConfig::default_config();

        let err = DesignSpace::new(base.clone())
            .with_widths(vec![1, 2, 2])
            .expect_err("duplicate width");
        assert_eq!(
            err,
            ConfigError::DuplicateCandidate {
                axis: "widths",
                label: "2".into()
            }
        );

        let l2 = CacheConfig::new("L2-512K-8w", 512 * 1024, 8, 64).expect("valid L2");
        let err = DesignSpace::new(base.clone())
            .with_l2s(vec![l2.clone(), l2])
            .expect_err("duplicate L2");
        assert!(matches!(
            err,
            ConfigError::DuplicateCandidate { axis: "L2", .. }
        ));

        let err = DesignSpace::new(base.clone())
            .with_predictors(vec![
                PredictorConfig::gshare_1k(),
                PredictorConfig::gshare_1k(),
            ])
            .expect_err("duplicate predictor");
        assert!(matches!(
            err,
            ConfigError::DuplicateCandidate {
                axis: "predictor",
                ..
            }
        ));

        let err = DesignSpace::new(base)
            .with_depth_freq(vec![(2, 0.6), (2, 0.6)])
            .expect_err("duplicate depth/frequency pair");
        assert!(matches!(
            err,
            ConfigError::DuplicateCandidate {
                axis: "depth/frequency",
                ..
            }
        ));
    }

    #[test]
    fn point_at_matches_enumeration_order() {
        let space = DesignSpace::paper_table2();
        assert_eq!(space.axis_lens(), [3, 4, 8, 2]);
        for (index, expected) in space.points().enumerate() {
            let point = space.point_at(index).expect("in range");
            assert_eq!(point, expected);
            let coords = space.coords_of(index).expect("in range");
            assert_eq!(space.index_of(coords), Some(index));
        }
        assert!(space.point_at(space.len()).is_none());
        assert!(space.coords_of(space.len()).is_none());
        assert!(space.index_of([3, 0, 0, 0]).is_none());
    }
}
