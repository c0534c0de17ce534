//! Integration tests: signature extraction on real kernels, the
//! end-to-end subset workflow, determinism across thread counts, and the
//! behaviour-grid bridge from mim-validate.

use mim_core::{DesignSpace, MachineConfig};
use mim_runner::{WorkloadSpec, WorkloadStore};
use mim_select::{KSelection, RepresentativeSet, Selection, Signature, SubsetReport, SubsetRun};
use mim_validate::BehaviorSpace;
use mim_workloads::{mibench, spec, WorkloadSize};

fn width_space() -> DesignSpace {
    DesignSpace::new(MachineConfig::default_config())
        .with_widths(vec![1, 2, 3, 4])
        .expect("distinct widths")
}

#[test]
fn signatures_separate_memory_from_compute_kernels() {
    let store = WorkloadStore::new();
    let sha = Signature::extract(
        &store,
        &WorkloadSpec::from(mibench::sha()),
        WorkloadSize::Tiny,
        None,
    )
    .unwrap();
    let mcf = Signature::extract(
        &store,
        &WorkloadSpec::from(spec::mcf_like()),
        WorkloadSize::Tiny,
        None,
    )
    .unwrap();
    // The memory-bound pointer chaser touches far more lines and reuses
    // them at far longer distances than the register-resident hash.
    assert!(mcf.footprint_blocks > 4 * sha.footprint_blocks);
    assert!(mcf.reuse_p90 > sha.reuse_p90);
    assert!(mcf.frac_load > sha.frac_load);
    // Both signatures are fully normalized and displayable.
    for signature in [&sha, &mcf] {
        let vector = signature.feature_vector();
        assert_eq!(vector.len(), Signature::feature_names().len());
        assert!(vector.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(!signature.to_string().is_empty());
    }
    // Extraction is deterministic and survives a JSON round trip.
    let again = Signature::extract(
        &store,
        &WorkloadSpec::from(mibench::sha()),
        WorkloadSize::Tiny,
        None,
    )
    .unwrap();
    assert_eq!(sha, again);
    let json = serde_json::to_string(&sha).unwrap();
    let back: Signature = serde_json::from_str(&json).unwrap();
    assert_eq!(back, sha);
}

/// The default selection over the Tiny MiBench suite, byte for byte. The
/// clustering code may be restructured; the set it reports may not move.
#[test]
fn default_selection_over_tiny_mibench_is_pinned() {
    let store = WorkloadStore::new();
    let signatures: Vec<Signature> = mibench::all()
        .into_iter()
        .map(|w| {
            Signature::extract(&store, &WorkloadSpec::from(w), WorkloadSize::Tiny, None).unwrap()
        })
        .collect();
    let set = RepresentativeSet::select(&signatures, &Selection::default()).unwrap();
    assert_eq!(serde_json::to_string(&set).unwrap(), PINNED_SELECTION);
}

const PINNED_SELECTION: &str = concat!(
    r#"{"method":"kmedoids-s1835625811","distance":"euclidean","k":2,"silhouette":0.3182301448532424,"#,
    r#""representatives":[{"name":"jpeg_c","weight":0.8947368421052632,"members":["adpcm_c","adpcm_d","#,
    r#""dijkstra","gsm_c","jpeg_c","jpeg_d","lame","patricia","rsynth","sha","susan_c","susan_e","#,
    r#""susan_s","tiff2bw","tiff2rgba","tiffdither","tiffmedian"]},{"name":"qsort","#,
    r#""weight":0.10526315789473684,"members":["qsort","stringsearch"]}]}"#,
);

#[test]
fn signature_extraction_adds_no_functional_executions_beyond_the_recording() {
    let store = WorkloadStore::new();
    let workload = WorkloadSpec::from(mibench::crc32());
    // Prime the store the way any sweep would.
    store.trace(&workload, WorkloadSize::Tiny, None).unwrap();
    let executions = store.functional_executions();
    Signature::extract(&store, &workload, WorkloadSize::Tiny, None).unwrap();
    assert_eq!(
        store.functional_executions(),
        executions,
        "characterization must replay the existing recording"
    );
}

#[test]
fn subset_run_extrapolates_with_small_error_on_mibench() {
    // Width × depth/frequency grid: 16 design points whose CPI differs
    // materially at Tiny size (unlike the L2 axis, which tiny footprints
    // barely exercise), so Kendall tau measures real ranking fidelity.
    let space = DesignSpace::new(MachineConfig::default_config())
        .with_widths(vec![1, 2, 3, 4])
        .expect("distinct widths")
        .with_depth_freq(vec![(5, 1.0), (7, 1.5), (9, 2.0), (11, 2.5)])
        .expect("distinct depth/frequency pairs");
    let suite: Vec<_> = mibench::all().into_iter().take(10).collect();
    let report = SubsetRun::new(space)
        .title("subset integration")
        .workloads(suite)
        .size(WorkloadSize::Tiny)
        .selection(Selection {
            k: KSelection::Silhouette { max_k: 0 },
            max_fraction: 0.3,
        })
        .verify(true)
        .sim_probes(1)
        .threads(2)
        .run()
        .expect("subset run");

    assert_eq!(report.workloads.len(), 10);
    assert_eq!(report.signatures.len(), 10);
    assert!(report.subset_fraction <= 0.3 + 1e-12);
    assert_eq!(report.weighted_cpi.len(), 16, "one CPI per design point");
    let total: f64 = report.selection.weights().iter().sum();
    assert!((total - 1.0).abs() < 1e-12);

    let verify = report.verify.as_ref().expect("verification enabled");
    assert_eq!(verify.exhaustive_cpi.len(), 16);
    assert!(
        verify.rank_tau >= 0.85,
        "subset must reproduce the design-point ranking: tau = {}",
        verify.rank_tau
    );
    let frontier = report.frontier.as_ref().expect("frontier enabled");
    assert!(!frontier.subset.is_empty());
    assert!(frontier.recall.is_some());

    let probe = report.sim_probe.as_ref().expect("probes enabled");
    assert_eq!(probe.machines.len(), 1);
    assert!(probe.bound_percent.is_finite());

    // Reports parse back and re-serialize to identical bytes.
    let json = report.to_json();
    let back = SubsetReport::from_json(&json).expect("parse back");
    assert_eq!(back.to_json(), json);
}

#[test]
fn subset_reports_are_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        SubsetRun::new(width_space())
            .title("determinism")
            .workloads(mibench::all().into_iter().take(6))
            .size(WorkloadSize::Tiny)
            .verify(true)
            .threads(threads)
            .run()
            .expect("subset run")
            .to_json()
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn behaviour_grid_flows_through_selection() {
    // A small synthetic behaviour grid stands in for a workload suite.
    let grid = BehaviorSpace::default_grid()
        .with_memory(vec![
            mim_validate::MemoryProfile::hot("hot", 1 << 10),
            mim_validate::MemoryProfile::random("mem", 1 << 15),
        ])
        .unwrap()
        .with_branch(vec![
            mim_validate::BranchProfile::new("bp", 14, 0),
            mim_validate::BranchProfile::new("br", 14, 100),
        ])
        .unwrap();
    assert_eq!(grid.len(), 16);
    let report = SubsetRun::new(width_space())
        .title("behaviour grid selection")
        .workloads(grid.workload_specs())
        .size(WorkloadSize::Tiny)
        .selection(Selection {
            k: KSelection::Silhouette { max_k: 4 },
            max_fraction: 0.25,
        })
        .frontier(false)
        .threads(2)
        .run()
        .expect("subset run");
    assert!(report.selection.k <= 4);
    assert!(report.subset_fraction <= 0.25 + 1e-12);
    // Synthetic points cluster by behaviour: every cluster is non-empty
    // and the members partition the grid.
    assert_eq!(report.selection.suite_len(), 16);
    // No verification ran, so no economy can be claimed.
    assert_eq!(report.timing.verify_seconds, 0.0);
    assert_eq!(report.sweep_speedup(), 1.0);
}
