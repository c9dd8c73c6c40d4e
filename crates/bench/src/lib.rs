//! Shared helpers for the Criterion benchmark targets.
//!
//! The *numbers* the paper reports are produced by the `repro` binary of
//! `d3t-experiments`, and what producing them costs — per figure, per
//! build stage, per drain phase — is measured by `d3t-bench`
//! (`perfbench/`). The targets here sit below that harness's per-layer
//! metrics: queue backends against a recorded schedule, the session
//! against the scalar oracle (asserted bit-identical at paper scale),
//! overlay APSP vs Floyd–Warshall, the deviation kernel, observer
//! overhead, and the build's quadratic layers alone.

/// Criterion settings for the short-running targets: keep wall-time bounded.
#[macro_export]
macro_rules! quick_criterion {
    ($group:ident, $($target:ident),+ $(,)?) => {
        fn $group() -> criterion::Criterion {
            criterion::Criterion::default()
                .sample_size(10)
                .warm_up_time(std::time::Duration::from_millis(300))
                .measurement_time(std::time::Duration::from_millis(1200))
        }
        criterion::criterion_group! {
            name = benches;
            config = $group();
            targets = $($target),+
        }
        criterion::criterion_main!(benches);
    };
}
