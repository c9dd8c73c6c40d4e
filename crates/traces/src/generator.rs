//! Seeded trace generation: single traces and 100-item ensembles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::model::PriceModel;
use crate::trace::{Tick, Trace};

/// Generates a [`Trace`] from a [`PriceModel`], a start price, and a poll
/// interval. Each `(generator, seed)` pair yields the same trace forever —
/// the experiments depend on that to be reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceGenerator {
    model: PriceModel,
    start_value: f64,
    poll_interval_ms: u64,
    name: String,
    /// Optional jitter (± fraction of the interval) applied to poll times,
    /// mimicking the irregular polling of a live feed.
    poll_jitter: f64,
}

impl TraceGenerator {
    /// New generator polling every `poll_interval_ms` milliseconds.
    pub fn new(model: PriceModel, start_value: f64, poll_interval_ms: u64) -> Self {
        assert!(start_value > 0.0 && start_value.is_finite(), "start value must be positive");
        assert!(poll_interval_ms > 0, "poll interval must be positive");
        Self { model, start_value, poll_interval_ms, name: "ITEM".to_string(), poll_jitter: 0.0 }
    }

    /// Sets the item name recorded on the trace.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds ± `jitter` (fraction of the poll interval, in `[0, 0.5)`) of
    /// uniform noise to each poll instant.
    pub fn with_poll_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..0.5).contains(&jitter), "jitter must be in [0, 0.5)");
        self.poll_jitter = jitter;
        self
    }

    /// Generates `n_ticks` observations deterministically from `seed`.
    pub fn generate(&self, n_ticks: usize, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ticks = Vec::with_capacity(n_ticks);
        let mut value = self.start_value;
        let mut at_ms: u64 = 0;
        for i in 0..n_ticks {
            if i > 0 {
                value = self.model.step(value, &mut rng);
                let mut gap = self.poll_interval_ms as f64;
                if self.poll_jitter > 0.0 {
                    let j = (rng.gen::<f64>() * 2.0 - 1.0) * self.poll_jitter;
                    gap *= 1.0 + j;
                }
                at_ms += gap.max(1.0) as u64;
            }
            ticks.push(Tick { at_ms, value });
        }
        Trace::new(self.name.clone(), ticks)
    }
}

/// Configuration for generating a whole evaluation ensemble, mirroring the
/// paper's "100 traces making sure that the corresponding stocks did see
/// some trading during that day".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Number of items (the paper uses 100).
    pub n_items: usize,
    /// Ticks per trace (the paper polls 10 000 values).
    pub n_ticks: usize,
    /// Poll interval in milliseconds (the paper observes ~1 value/second).
    pub poll_interval_ms: u64,
    /// Inclusive range of start prices, sampled uniformly per item.
    pub start_price_range: (f64, f64),
    /// Inclusive range of per-poll change probabilities, sampled per item.
    pub change_prob_range: (f64, f64),
    /// Inclusive range of step standard deviations (dollars), per item.
    pub step_std_range: (f64, f64),
}

impl Default for EnsembleConfig {
    /// Calibrated against Table 1 and §6.1: prices $10–$65, polls at 1 Hz
    /// of which roughly half observe a changed price (the paper's traces
    /// are "real-time": a new value approximately once per second), steps
    /// of one or two cents, so a 10 000-tick trace spans several tens of
    /// cents to ~$1–2 — the min/max spreads Table 1 reports — while
    /// generating the ~10⁶-message dissemination volumes of Figure 11.
    fn default() -> Self {
        Self {
            n_items: 100,
            n_ticks: 10_000,
            poll_interval_ms: 1_000,
            start_price_range: (10.0, 65.0),
            change_prob_range: (0.08, 0.17),
            step_std_range: (0.02, 0.04),
        }
    }
}

impl EnsembleConfig {
    /// A scaled-down ensemble for unit tests and examples.
    pub fn small(n_items: usize, n_ticks: usize) -> Self {
        Self { n_items, n_ticks, ..Self::default() }
    }
}

/// Per-item generation inputs, drawn serially from the meta RNG so the
/// parallel fan-out below cannot perturb the random stream.
#[derive(Debug, Clone, Copy)]
struct ItemParams {
    start: f64,
    change_prob: f64,
    step_std: f64,
    item_seed: u64,
}

/// Draws every item's parameters in item order — the *only* consumer of
/// the meta RNG, so serial and parallel generation see identical seeds.
fn draw_item_params(cfg: &EnsembleConfig, seed: u64) -> Vec<ItemParams> {
    let mut meta_rng = StdRng::seed_from_u64(seed);
    (0..cfg.n_items)
        .map(|_| ItemParams {
            start: sample_range(&mut meta_rng, cfg.start_price_range),
            change_prob: sample_range(&mut meta_rng, cfg.change_prob_range),
            step_std: sample_range(&mut meta_rng, cfg.step_std_range),
            item_seed: meta_rng.gen::<u64>(),
        })
        .collect()
}

fn generate_item(cfg: &EnsembleConfig, i: usize, p: ItemParams) -> Trace {
    TraceGenerator::new(
        PriceModel::sparse_random_walk(p.change_prob, p.step_std),
        p.start,
        cfg.poll_interval_ms,
    )
    .with_name(format!("ITEM-{i}"))
    .generate(cfg.n_ticks, p.item_seed)
}

/// Generates `cfg.n_items` traces deterministically from `seed`. Item `i`
/// is named `ITEM-i` and derives its own sub-seed, so regenerating the
/// ensemble with a different `n_items` leaves earlier items unchanged.
///
/// Parameter draws are serial (one shared RNG stream); the expensive
/// per-item tick generation fans out over the thread pool with
/// order-preserving collection, so the output is **byte-identical** to
/// [`generate_ensemble_serial`] at any thread count (`RAYON_NUM_THREADS`
/// bounds the pool) — the same guarantee style as the experiment sweep
/// runner.
pub fn generate_ensemble(cfg: &EnsembleConfig, seed: u64) -> Vec<Trace> {
    let indexed: Vec<(usize, ItemParams)> =
        draw_item_params(cfg, seed).into_iter().enumerate().collect();
    indexed.into_par_iter().map(|(i, p)| generate_item(cfg, i, p)).collect()
}

/// The serial reference path (kept public so the bit-identity tests can
/// compare against it).
pub fn generate_ensemble_serial(cfg: &EnsembleConfig, seed: u64) -> Vec<Trace> {
    draw_item_params(cfg, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| generate_item(cfg, i, p))
        .collect()
}

fn sample_range<R: Rng + ?Sized>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    assert!(lo <= hi, "range must be ordered");
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = TraceGenerator::new(PriceModel::sparse_random_walk(0.1, 0.02), 30.0, 1000);
        let a = g.generate(500, 7);
        let b = g.generate(500, 7);
        assert_eq!(a, b);
        let c = g.generate(500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn tick_count_and_spacing() {
        let g = TraceGenerator::new(PriceModel::sparse_random_walk(0.1, 0.02), 30.0, 250);
        let t = g.generate(100, 1);
        assert_eq!(t.len(), 100);
        assert_eq!(t.duration_ms(), 99 * 250);
    }

    #[test]
    fn jitter_perturbs_but_keeps_order() {
        let g = TraceGenerator::new(PriceModel::sparse_random_walk(0.1, 0.02), 30.0, 1000)
            .with_poll_jitter(0.3);
        let t = g.generate(200, 3);
        assert_eq!(t.len(), 200);
        // Constructor would have panicked on non-increasing timestamps.
        let d = t.duration_ms() as f64;
        assert!((d - 199_000.0).abs() < 199_000.0 * 0.3);
    }

    #[test]
    fn ensemble_has_distinct_items() {
        let cfg = EnsembleConfig::small(10, 200);
        let traces = generate_ensemble(&cfg, 42);
        assert_eq!(traces.len(), 10);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.name, format!("ITEM-{i}"));
            assert_eq!(t.len(), 200);
        }
        assert_ne!(traces[0].ticks(), traces[1].ticks());
    }

    #[test]
    fn ensemble_is_deterministic() {
        let cfg = EnsembleConfig::small(5, 100);
        assert_eq!(generate_ensemble(&cfg, 9), generate_ensemble(&cfg, 9));
    }

    /// The headline sharding guarantee: the parallel ensemble equals the
    /// serial reference byte for byte.
    #[test]
    fn parallel_ensemble_is_byte_identical_to_serial() {
        let cfg = EnsembleConfig::small(13, 300);
        let par = generate_ensemble(&cfg, 42);
        let ser = generate_ensemble_serial(&cfg, 42);
        assert_eq!(par.len(), ser.len());
        for (i, (p, s)) in par.iter().zip(&ser).enumerate() {
            assert_eq!(p, s, "item {i} diverged");
            // PartialEq covers every tick; also pin the formatted
            // representation so float bit-pattern changes cannot hide.
            assert_eq!(format!("{p:?}"), format!("{s:?}"), "item {i} repr diverged");
        }
    }

    /// Forcing any pool width must not change the ensemble either.
    #[test]
    fn ensemble_is_thread_count_invariant() {
        let cfg = EnsembleConfig::small(9, 200);
        let baseline = generate_ensemble_serial(&cfg, 7);
        for width in [1usize, 2, 5] {
            let pinned = rayon::with_num_threads(width, || generate_ensemble(&cfg, 7));
            assert_eq!(baseline, pinned, "width {width} diverged");
        }
    }

    #[test]
    fn default_ensemble_changes_are_sparse() {
        // Roughly half the polls repeat the previous value — prices move
        // slower than the 1 Hz polling rate, but not much slower.
        let cfg = EnsembleConfig::small(3, 2000);
        for t in generate_ensemble(&cfg, 11) {
            let frac = t.changes().len() as f64 / t.len() as f64;
            assert!((0.04..0.3).contains(&frac), "change fraction {frac}");
        }
    }
}
