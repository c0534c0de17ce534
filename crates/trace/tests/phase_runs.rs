//! `Sampling::phase_run` and the `PhaseRuns` walk agree with
//! `Sampling::phase` position by position, over random plans that include
//! full warming (`warmup >= period - length`), offsets past the first
//! period and windows back to back (`length == period`).

use mim_trace::{PhaseRuns, SamplePhase, Sampling};
use proptest::prelude::*;

/// Random plans; one in four has `length == period`.
fn plan() -> impl Strategy<Value = Sampling> {
    (1u64..40, 0u64..1000, 0u64..4, 0u64..80, 0u64..120).prop_map(
        |(period, length, whole, warmup, offset)| {
            let length = if whole == 0 {
                period
            } else {
                1 + length % period
            };
            Sampling::new(period, length)
                .with_warmup(warmup % (2 * period + 1))
                .with_offset(offset)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn phase_runs_agree_with_phase(plan in plan()) {
        let end = plan.offset() + 4 * plan.period() + 10;
        for pos in 0..end {
            let (phase, n) = plan.phase_run(pos);
            prop_assert!(phase == plan.phase(pos), "pos {}", pos);
            prop_assert!(n >= 1);
            for i in 0..n.min(end) {
                prop_assert!(plan.phase(pos + i) == phase, "pos {} + {} of {}", pos, i, n);
            }
            // Runs are maximal, except windows back to back.
            if !(phase == SamplePhase::Measure && plan.length() == plan.period()) {
                prop_assert!(plan.phase(pos + n) != phase, "run at {} could go on", pos);
            }
        }
        let mut walk = PhaseRuns::new(Some(plan));
        for pos in 0..end {
            prop_assert!(walk.next_phase() == plan.phase(pos), "walk at {}", pos);
        }
    }
}

#[test]
fn no_plan_measures_everything() {
    let mut walk = PhaseRuns::new(None);
    assert!((0..1000).all(|_| walk.next_phase() == SamplePhase::Measure));
}
