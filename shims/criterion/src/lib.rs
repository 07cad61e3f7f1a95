//! Offline shim for `criterion`.
//!
//! Provides the structural API the workspace's five bench targets use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`Throughput`], [`BatchSize`],
//! [`black_box`] and the `criterion_group!` / `criterion_main!` macros — with
//! a simple wall-clock timer instead of criterion's statistical engine.
//!
//! Behavior:
//!
//! * under `cargo bench`, each benchmark runs one warm-up window, then ten
//!   measurement windows of at least 20 ms each, and prints
//!   the median of the windows' mean iteration times with their min–max
//!   range (one long window let any slow phase of a shared host move the
//!   whole reading; the median resists phases shorter than the bench, and
//!   the range shows when one hit);
//! * under `cargo test` (cargo passes `--test` to `harness = false` bench
//!   targets), each benchmark routine runs exactly once as a smoke test.
//!
//! See `shims/README.md` for how to swap the crates.io release back in.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How batched inputs are grouped; accepted for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration setup output.
    SmallInput,
    /// Large per-iteration setup output.
    LargeInput,
    /// One setup per measured iteration.
    PerIteration,
}

/// Declared throughput of one benchmark iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many abstract elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// Identifier for one parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identify a benchmark by function name and parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identify a benchmark by its parameter only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Measurement windows per benchmark.
const WINDOWS: usize = 10;

/// The least time one measurement window lasts.
const WINDOW: Duration = Duration::from_millis(20);

/// Timing loop handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    mode: Mode,
    /// Mean iteration time of each measurement window, in nanoseconds.
    windows: Vec<f64>,
    /// Iterations measured over all windows.
    iterations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `cargo bench`: measure over short windows.
    Measure,
    /// `cargo test`: run the routine once.
    Smoke,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.mode == Mode::Smoke {
            black_box(routine());
            self.iterations = 1;
            return;
        }
        self.measure(|| {
            let start = Instant::now();
            let mut iterations = 0u64;
            while iterations == 0 || start.elapsed() < WINDOW {
                black_box(routine());
                iterations += 1;
            }
            (start.elapsed(), iterations)
        });
    }

    /// Time `routine` over fresh inputs built by `setup` (setup untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.mode == Mode::Smoke {
            black_box(routine(setup()));
            self.iterations = 1;
            return;
        }
        self.measure(|| {
            let mut timed = Duration::ZERO;
            let mut iterations = 0u64;
            while iterations == 0 || timed < WINDOW {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                timed += start.elapsed();
                iterations += 1;
            }
            (timed, iterations)
        });
    }

    /// Runs one warm-up window, then [`WINDOWS`] measured ones; `window` runs
    /// at least one iteration, until its timed share reaches [`WINDOW`], and
    /// returns that time and its iteration count.
    fn measure(&mut self, mut window: impl FnMut() -> (Duration, u64)) {
        window();
        for _ in 0..WINDOWS {
            let (timed, iterations) = window();
            self.windows
                .push(timed.as_nanos() as f64 / iterations as f64);
            self.iterations += iterations;
        }
    }
}

fn report(id: &str, bencher: &Bencher) {
    match bencher.mode {
        Mode::Smoke => println!("bench {id}: ok (smoke)"),
        Mode::Measure if bencher.windows.is_empty() => {
            println!("bench {id}: no measurement (b.iter never called)")
        }
        Mode::Measure => {
            let mut windows = bencher.windows.clone();
            windows.sort_by(f64::total_cmp);
            let last = windows.len() - 1;
            let median = (windows[last / 2] + windows[windows.len() / 2]) / 2.0;
            println!(
                "bench {id}: {median:.0} ns/iter (windows {:.0}..{:.0}, {} windows, {} iterations)",
                windows[0],
                windows[last],
                windows.len(),
                bencher.iterations
            );
        }
    }
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        // Cargo invokes `harness = false` bench targets with `--test` under
        // `cargo test`; treat that as "run once, don't measure".
        let smoke = std::env::args().any(|arg| arg == "--test");
        Self {
            mode: if smoke { Mode::Smoke } else { Mode::Measure },
        }
    }
}

impl Criterion {
    /// Run a single benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            mode: self.mode,
            windows: Vec::new(),
            iterations: 0,
        };
        f(&mut bencher);
        report(id, &bencher);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Finalize reporting (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

/// A group of related benchmarks sharing a name prefix and settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's window is fixed.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim's window is fixed.
    pub fn measurement_time(&mut self, _duration: Duration) -> &mut Self {
        self
    }

    /// Record the declared throughput (reported nowhere in the shim).
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Run one parameterised benchmark inside the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion.bench_function(&full, |b| f(b, input));
        self
    }

    /// Close the group (no-op in the shim).
    pub fn finish(self) {}
}

/// Bundle benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running every group, for `harness = false` targets.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
