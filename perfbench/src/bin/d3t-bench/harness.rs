//! Measurement plumbing shared by the untraced and the traced run: the
//! one wall clock, spans, peak RSS, the host calibration loop, and the
//! record of what a run measured and checked.

// d3t-lint: allow(D002) -- host wall time is this harness's product; nothing read here feeds simulation state
use std::time::Instant;

use d3t_core::digest::Fnv1a;
use d3t_perfbench::json::{hex, obj, Json};
use d3t_perfbench::stats::median;

/// Monotonic time since the run started — every sample and span reads
/// this one clock.
pub struct Clock {
    // d3t-lint: allow(D002) -- see the import
    start: Instant,
}

impl Clock {
    pub fn start() -> Self {
        // d3t-lint: allow(D002) -- see the import
        Self { start: Instant::now() }
    }

    pub fn ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span whose closure made this call (`None` for a root).
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls, and — in the traced run only — keeps a span for each in
/// memory; nothing is written until the run ends. The untraced run goes
/// through the same calls with `recording` off, so what tracing adds is
/// exactly the span bookkeeping.
pub struct Tracer {
    pub clock: Clock,
    recording: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Self { clock: Clock::start(), recording, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` and returns its result with its wall seconds; when
    /// recording, also as a span named `name`, a child of whichever
    /// span is open. `f` gets the tracer back so it can time children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start_ns = self.clock.ns();
        if !self.recording {
            let out = f(self);
            return (out, (self.clock.ns() - start_ns) as f64 / 1e9);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { id, parent, name: name.to_string(), start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.clock.ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Total seconds of every span called `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.secs_since(0, name)
    }

    /// Total seconds of the spans called `name` among those recorded
    /// from span id `from` on.
    pub fn secs_since(&self, from: usize, name: &str) -> f64 {
        let spans = self.spans[from..].iter().filter(|s| s.name == name);
        spans.map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64 / 1e9
    }
}

/// `VmHWM` of this process in MB (MiB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed amount of cache-resident work (xorshift-indexed
/// read-modify-writes over 4 MB), timed. It does not depend on the
/// repository's code, so a reader can tell host drift (this moves) from
/// a code change (this stays flat while a drive moves).
pub fn calibrate(t: &mut Tracer) -> f64 {
    const WORDS: usize = 4 << 17; // 4 MB of u64
    const STEPS: usize = 4 << 20;
    let mut buf = vec![1u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let ((), secs) = t.span("host.calib", |_| {
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut buf[(x as usize) % WORDS];
            *slot = slot.wrapping_add(x);
        }
    });
    std::hint::black_box(&buf);
    secs
}

/// One reported number: a count or single reading (`samples` empty),
/// or the median of `samples`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// A list of metrics under construction.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric { name: name.to_string(), unit, value, samples: Vec::new() });
    }

    /// Reports the median of `samples`.
    pub fn put_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let value = median(samples).unwrap_or(f64::NAN);
        self.0.push(Metric { name: name.to_string(), unit, value, samples: samples.to_vec() });
    }

    fn to_json(&self, with_samples: bool) -> Json {
        obj(self.0.iter().map(|m| {
            let mut fields = vec![("value", Json::from(m.value)), ("unit", Json::from(m.unit))];
            if with_samples && !m.samples.is_empty() {
                let samples = m.samples.iter().map(|&v| Json::from(v)).collect();
                fields.push(("samples", Json::Arr(samples)));
            }
            (m.name.clone(), obj(fields))
        }))
    }
}

/// What the simulator produced and whether it was right. Every output
/// is recorded under a key: the first hash seen for a key enters
/// `sim_digest`, every later one must equal it (a repeated drive, a
/// warm branch and its cold twin, a figure rendered twice).
#[derive(Default)]
pub struct Outputs {
    pub hashes: Vec<(String, u64)>,
    /// Events and messages of the workload's distinct drives — the
    /// exact simulated statistics `golden.json` pins.
    pub events: u64,
    pub messages: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outputs {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one simulator output; returns whether `key` is new.
    pub fn record(&mut self, key: &str, hash: u64) -> bool {
        match self.hashes.iter().find(|(k, _)| k == key).map(|&(_, h)| h) {
            None => {
                self.hashes.push((key.to_string(), hash));
                self.attempted += 1;
                true
            }
            Some(first) => {
                self.check(first == hash, || {
                    format!("output `{key}` changed: {first:#018x} then {hash:#018x}")
                });
                false
            }
        }
    }

    /// FNV-1a over the ordered output hashes: identical for any
    /// speed-only change, whatever the number of repeats a run fitted.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (key, hash) in &self.hashes {
            h.write_bytes(key.as_bytes());
            h.write_u64(*hash);
        }
        h.finish()
    }

    /// This run's entry as `golden.json` stores it.
    pub fn golden_entry(&self) -> Json {
        obj([
            ("sim_digest", hex(self.sim_digest())),
            ("sim.events", self.events.into()),
            ("sim.messages", self.messages.into()),
            ("outputs", obj(self.hashes.iter().map(|(k, h)| (k.clone(), hex(*h))))),
        ])
    }

    /// Checks this run against its `golden.json` entry, output by
    /// output so a mismatch names the figure or drive that moved.
    pub fn check_golden(&mut self, entry: Option<&Json>) {
        let Some(entry) = entry else {
            self.check(false, || "golden.json has no entry for this workload".to_string());
            return;
        };
        let want = entry.get("outputs").and_then(Json::as_obj).unwrap_or_default().to_vec();
        for (key, want_hash) in &want {
            let got = self.hashes.iter().find(|(k, _)| k == key).map(|&(_, h)| h);
            self.check(got == want_hash.as_hex(), || {
                format!("output `{key}` differs from golden: {got:x?} vs {}", want_hash.compact())
            });
        }
        let whole = |key: &str| entry.get(key).and_then(Json::as_i64);
        let same = entry.get("sim_digest").and_then(Json::as_hex) == Some(self.sim_digest())
            && whole("sim.events") == i64::try_from(self.events).ok()
            && whole("sim.messages") == i64::try_from(self.messages).ok();
        let got = self.golden_entry().compact();
        self.check(same, || format!("golden mismatch: got {got}, want {}", entry.compact()));
    }
}

/// Everything one `d3t-bench run` measured.
pub struct Outcome {
    /// The metrics the contract names for this mode.
    pub metrics: Metrics,
    /// Layer metrics only this workload has (traced runs).
    pub extra: Metrics,
    pub outputs: Outputs,
}

impl Outcome {
    /// The last stdout line the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        obj([
            ("correct", Json::from(self.outputs.failed == 0)),
            ("attempted", self.outputs.attempted.into()),
            ("failed", self.outputs.failed.into()),
            ("metrics", self.metrics.to_json(false)),
        ])
    }

    /// The full result object `set` stores and `compare` reads.
    pub fn result(&self, opts: &crate::Opts) -> Json {
        obj([
            ("workload", Json::from(opts.workload.name())),
            ("seed", opts.seed.into()),
            ("scale", Json::from(if opts.tiny { "tiny" } else { "full" })),
            ("trace", opts.trace.into()),
            ("seconds", opts.seconds.into()),
            ("nproc", rayon::current_num_threads().into()),
            ("correct", Json::from(self.outputs.failed == 0)),
            ("attempted", self.outputs.attempted.into()),
            ("failed", self.outputs.failed.into()),
            ("sim_digest", hex(self.outputs.sim_digest())),
            ("metrics", self.metrics.to_json(true)),
            ("extra", self.extra.to_json(true)),
        ])
    }

    /// The trace file: every span plus the layer metrics derived from
    /// them.
    pub fn trace_file(&self, opts: &crate::Opts, spans: &[Span]) -> Json {
        let spans = spans.iter().map(|s| {
            obj([
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.name.as_str())),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
            ])
        });
        obj([("result", self.result(opts)), ("spans", Json::Arr(spans.collect()))])
    }
}
