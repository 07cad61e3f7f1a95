//! Synthetic stand-ins for the EEMBC Automotive (autobench) benchmarks.
//!
//! The real EEMBC suite is proprietary, so the single-threaded workloads of the
//! paper's Table III experiment are replaced by synthetic memory-access traces
//! whose *communication behaviour* is calibrated per benchmark: control-style
//! codes (CAN, road speed, pulse-width modulation, tooth-to-spark) are
//! memory-light, while the signal-processing and table-lookup codes (FFT, FIR,
//! iDCT, matrix arithmetic, cache buster) are memory-heavy and burstier.  For
//! the WCET experiment this is what matters: each benchmark issues a
//! characteristic number of NoC transactions separated by characteristic
//! amounts of computation.
//!
//! Traces are generated deterministically from a seed so experiments are
//! reproducible.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wnoc_manycore::trace::{Trace, TraceEvent};
use wnoc_manycore::transaction::AccessKind;

/// The sixteen EEMBC autobench workloads modelled by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum EembcBenchmark {
    A2time,
    Aifftr,
    Aifirf,
    Aiifft,
    Basefp,
    Bitmnp,
    Cacheb,
    Canrdr,
    Idctrn,
    Iirflt,
    Matrix,
    Pntrch,
    Puwmod,
    Rspeed,
    Tblook,
    Ttsprk,
}

/// Communication profile of one benchmark: how many memory accesses it
/// performs, how much computation separates them, how bursty the accesses are
/// and which fraction of them are dirty-line evictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Number of memory accesses in the trace.
    pub accesses: u32,
    /// Mean computation cycles between consecutive accesses.
    pub mean_gap_cycles: u64,
    /// Fraction of accesses that are evictions (write-backs) rather than loads.
    pub eviction_ratio: f64,
    /// Burstiness in `[0, 1)`: 0 means evenly spaced accesses, values close to
    /// 1 mean most accesses cluster together with long compute stretches in
    /// between.
    pub burstiness: f64,
}

impl EembcBenchmark {
    /// All sixteen benchmarks, in a fixed order.
    pub const ALL: [EembcBenchmark; 16] = [
        EembcBenchmark::A2time,
        EembcBenchmark::Aifftr,
        EembcBenchmark::Aifirf,
        EembcBenchmark::Aiifft,
        EembcBenchmark::Basefp,
        EembcBenchmark::Bitmnp,
        EembcBenchmark::Cacheb,
        EembcBenchmark::Canrdr,
        EembcBenchmark::Idctrn,
        EembcBenchmark::Iirflt,
        EembcBenchmark::Matrix,
        EembcBenchmark::Pntrch,
        EembcBenchmark::Puwmod,
        EembcBenchmark::Rspeed,
        EembcBenchmark::Tblook,
        EembcBenchmark::Ttsprk,
    ];

    /// The benchmark's short name as used by the EEMBC suite.
    pub fn name(&self) -> &'static str {
        match self {
            EembcBenchmark::A2time => "a2time",
            EembcBenchmark::Aifftr => "aifftr",
            EembcBenchmark::Aifirf => "aifirf",
            EembcBenchmark::Aiifft => "aiifft",
            EembcBenchmark::Basefp => "basefp",
            EembcBenchmark::Bitmnp => "bitmnp",
            EembcBenchmark::Cacheb => "cacheb",
            EembcBenchmark::Canrdr => "canrdr",
            EembcBenchmark::Idctrn => "idctrn",
            EembcBenchmark::Iirflt => "iirflt",
            EembcBenchmark::Matrix => "matrix",
            EembcBenchmark::Pntrch => "pntrch",
            EembcBenchmark::Puwmod => "puwmod",
            EembcBenchmark::Rspeed => "rspeed",
            EembcBenchmark::Tblook => "tblook",
            EembcBenchmark::Ttsprk => "ttsprk",
        }
    }

    /// The synthetic communication profile of this benchmark.
    pub fn profile(&self) -> BenchmarkProfile {
        match self {
            // Angle-to-time and similar automotive control kernels: moderate
            // working sets, mostly resident in L1.
            EembcBenchmark::A2time => profile(220, 180, 0.15, 0.2),
            EembcBenchmark::Basefp => profile(200, 200, 0.10, 0.2),
            EembcBenchmark::Bitmnp => profile(260, 150, 0.10, 0.3),
            EembcBenchmark::Pntrch => profile(320, 120, 0.20, 0.4),
            EembcBenchmark::Tblook => profile(380, 90, 0.15, 0.4),
            // Signal processing: large working sets streamed from memory.
            EembcBenchmark::Aifftr => profile(520, 60, 0.30, 0.5),
            EembcBenchmark::Aifirf => profile(420, 70, 0.25, 0.4),
            EembcBenchmark::Aiifft => profile(500, 60, 0.30, 0.5),
            EembcBenchmark::Idctrn => profile(460, 65, 0.30, 0.4),
            EembcBenchmark::Iirflt => profile(360, 85, 0.25, 0.3),
            EembcBenchmark::Matrix => profile(560, 55, 0.35, 0.5),
            // The cache buster deliberately thrashes the cache.
            EembcBenchmark::Cacheb => profile(700, 35, 0.45, 0.6),
            // Control-loop codes with tiny working sets: memory-light.
            EembcBenchmark::Canrdr => profile(120, 320, 0.10, 0.1),
            EembcBenchmark::Puwmod => profile(110, 340, 0.10, 0.1),
            EembcBenchmark::Rspeed => profile(100, 360, 0.10, 0.1),
            EembcBenchmark::Ttsprk => profile(140, 300, 0.12, 0.1),
        }
    }

    /// Generates the deterministic synthetic trace of this benchmark.
    pub fn trace(&self, seed: u64) -> Trace {
        let profile = self.profile();
        // Mix the benchmark identity into the seed so different benchmarks get
        // different (but reproducible) access patterns.
        let mixed = seed ^ ((*self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = ChaCha8Rng::seed_from_u64(mixed);
        let mut events = Vec::with_capacity(profile.accesses as usize + 1);
        for _ in 0..profile.accesses {
            let gap = sample_gap(&mut rng, &profile);
            let kind = if rng.gen_bool(profile.eviction_ratio) {
                AccessKind::Eviction
            } else {
                AccessKind::Load
            };
            events.push(TraceEvent {
                compute_cycles: gap,
                access: Some(kind),
            });
        }
        // A final computation tail without memory traffic.
        events.push(TraceEvent::compute(profile.mean_gap_cycles));
        Trace::from_events(events)
    }
}

impl std::fmt::Display for EembcBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const fn profile(
    accesses: u32,
    mean_gap_cycles: u64,
    eviction_ratio: f64,
    burstiness: f64,
) -> BenchmarkProfile {
    BenchmarkProfile {
        accesses,
        mean_gap_cycles,
        eviction_ratio,
        burstiness,
    }
}

/// Samples the computation gap before an access: with probability `burstiness`
/// the access is part of a burst (tiny gap), otherwise the gap is drawn
/// uniformly around the benchmark's mean so the overall mean stays close to
/// `mean_gap_cycles`.
fn sample_gap<R: Rng>(rng: &mut R, profile: &BenchmarkProfile) -> u64 {
    if rng.gen_bool(profile.burstiness) {
        rng.gen_range(1..=4)
    } else {
        // Compensate for the burst cycles so the long-run mean is preserved.
        let scale = 1.0 / (1.0 - profile.burstiness);
        let mean = (profile.mean_gap_cycles as f64 * scale).max(2.0) as u64;
        rng.gen_range(mean / 2..=mean + mean / 2)
    }
}

/// The full suite: one deterministic trace per benchmark.
pub fn suite_traces(seed: u64) -> Vec<(EembcBenchmark, Trace)> {
    EembcBenchmark::ALL
        .iter()
        .map(|b| (*b, b.trace(seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_benchmarks_with_unique_names() {
        assert_eq!(EembcBenchmark::ALL.len(), 16);
        let mut names: Vec<&str> = EembcBenchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn traces_are_deterministic() {
        for b in EembcBenchmark::ALL {
            assert_eq!(b.trace(42), b.trace(42), "{b} not deterministic");
        }
        assert_ne!(
            EembcBenchmark::Matrix.trace(1),
            EembcBenchmark::Matrix.trace(2)
        );
    }

    #[test]
    fn different_benchmarks_have_different_traces() {
        let a = EembcBenchmark::Canrdr.trace(7);
        let b = EembcBenchmark::Cacheb.trace(7);
        assert_ne!(a, b);
        // The cache buster issues many more accesses than the CAN reader.
        assert!(b.total_accesses() > 3 * a.total_accesses());
    }

    #[test]
    fn access_counts_match_profiles() {
        for b in EembcBenchmark::ALL {
            let trace = b.trace(11);
            assert_eq!(trace.total_accesses(), u64::from(b.profile().accesses));
        }
    }

    #[test]
    fn eviction_ratio_roughly_respected() {
        let b = EembcBenchmark::Cacheb;
        let trace = b.trace(3);
        let evictions = trace.access_count(AccessKind::Eviction) as f64;
        let ratio = evictions / trace.total_accesses() as f64;
        assert!(
            (ratio - b.profile().eviction_ratio).abs() < 0.1,
            "ratio {ratio}"
        );
    }

    #[test]
    fn memory_light_benchmarks_have_longer_gaps() {
        let light = EembcBenchmark::Rspeed.trace(5);
        let heavy = EembcBenchmark::Matrix.trace(5);
        let light_gap = light.total_compute_cycles() as f64 / light.total_accesses() as f64;
        let heavy_gap = heavy.total_compute_cycles() as f64 / heavy.total_accesses() as f64;
        assert!(
            light_gap > 3.0 * heavy_gap,
            "light {light_gap} heavy {heavy_gap}"
        );
    }

    #[test]
    fn suite_covers_all_benchmarks() {
        let suite = suite_traces(1);
        assert_eq!(suite.len(), 16);
        assert!(suite.iter().all(|(_, t)| !t.is_empty()));
    }

    #[test]
    fn mean_gap_is_close_to_profile() {
        for b in [
            EembcBenchmark::Canrdr,
            EembcBenchmark::Matrix,
            EembcBenchmark::A2time,
        ] {
            let trace = b.trace(13);
            let profile = b.profile();
            let mean = trace.total_compute_cycles() as f64 / trace.total_accesses() as f64;
            let target = profile.mean_gap_cycles as f64;
            assert!(
                mean > 0.5 * target && mean < 1.8 * target,
                "{b}: mean gap {mean} vs target {target}"
            );
        }
    }
}
