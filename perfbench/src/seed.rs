//! Seeded program inputs.
//!
//! Each corpus program reads its data through the `input(i)` builtin. The
//! benchmark regenerates that data from the workload seed with the same
//! `foray_workloads::input` generator, length and value range that the
//! program's `workload()` uses; only the generator seed changes. Seed 0 on
//! stream 0 is the identity, so the default seed reproduces the canonical
//! corpus inputs bit for bit (locked by the tests below and re-checked on
//! every run by [`corpus`]).

use foray_workloads::{input, Params};

/// The seed used when `--seed` is not given: the canonical inputs.
pub const DEFAULT_SEED: u64 = 0;

/// Names of the corpus programs, in registry order.
pub const PROGRAMS: [&str; 7] = ["jpegc", "lamec", "susanc", "fftc", "gsmc", "adpcmc", "histoc"];

/// One program ready to run: source text and its seeded inputs.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: &'static str,
    pub source: String,
    pub inputs: Vec<i64>,
}

/// How a workload generates its `input()` data.
enum Generator {
    Image { width: usize, height: usize },
    Audio { n: usize },
    Uniform { n: usize, bound: u64 },
}

/// The canonical generator seed and shape of `name` at `scale`, mirroring
/// each `foray_workloads::<name>::workload`.
fn generator(name: &str, scale: u32) -> (u64, Generator) {
    let s = scale as usize;
    match name {
        "jpegc" => (0x17e6_0001, Generator::Image { width: 32 * s, height: 24 * s }),
        "lamec" => (0x1a3e_0002, Generator::Audio { n: 24 * s * 32 }),
        "susanc" => (0x5a5a_0003, Generator::Image { width: 24 * s, height: 20 * s }),
        "fftc" => (0xff7_0004, Generator::Audio { n: 128 << scale }),
        "gsmc" => (0x65a1_0005, Generator::Audio { n: 24 * s * 160 }),
        "adpcmc" => (0xadbc_0006, Generator::Audio { n: 4096 * s }),
        "histoc" => (0x9e37_79b9, Generator::Uniform { n: 2048 * s, bound: 180 }),
        other => panic!("`{other}` is not a corpus program"),
    }
}

/// Generator seed for one input stream: the canonical seed, moved by the
/// workload seed and by the stream number (0 = the corpus inputs; served
/// jobs draw other streams).
fn stream_seed(canonical: u64, seed: u64, stream: u64) -> u64 {
    canonical
        .wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// The `input()` data of program `name` at `scale` for `seed` and `stream`.
pub fn inputs(name: &str, scale: u32, seed: u64, stream: u64) -> Vec<i64> {
    let (canonical, shape) = generator(name, scale);
    let s = stream_seed(canonical, seed, stream);
    match shape {
        Generator::Image { width, height } => input::image(s, width, height),
        Generator::Audio { n } => input::audio(s, n),
        Generator::Uniform { n, bound } => input::uniform(s, n, bound),
    }
}

/// The seven corpus programs at `scale` with seeded stream-0 inputs.
///
/// # Panics
///
/// If a regenerated input vector differs in length from the workload's own
/// canonical one: the corpus changed shape and [`generator`] must follow.
pub fn corpus(scale: u32, seed: u64) -> Vec<Program> {
    foray_workloads::all(Params { scale })
        .into_iter()
        .map(|w| {
            let seeded = inputs(w.name, scale, seed, 0);
            assert_eq!(
                seeded.len(),
                w.inputs.len(),
                "{}: seeded input length drifted from the workload's",
                w.name
            );
            Program { name: w.name, source: w.source, inputs: seeded }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_yields_the_canonical_inputs() {
        for scale in [1, 2, 8] {
            let canonical = foray_workloads::all(Params { scale });
            let seeded = corpus(scale, DEFAULT_SEED);
            assert_eq!(seeded.len(), canonical.len());
            for (s, c) in seeded.iter().zip(&canonical) {
                assert_eq!(s.name, c.name);
                assert_eq!(s.source, c.source);
                assert_eq!(s.inputs, c.inputs, "{} at scale {scale}", c.name);
            }
        }
        let names: Vec<&str> = corpus(1, DEFAULT_SEED).iter().map(|p| p.name).collect();
        assert_eq!(names, PROGRAMS);
    }

    #[test]
    fn other_seeds_and_streams_move_the_data_but_not_its_shape() {
        for name in PROGRAMS {
            let base = inputs(name, 2, DEFAULT_SEED, 0);
            let seeded = inputs(name, 2, 7, 0);
            let stream = inputs(name, 2, DEFAULT_SEED, 3);
            assert_eq!(seeded.len(), base.len());
            assert_eq!(stream.len(), base.len());
            assert_ne!(seeded, base, "{name}");
            assert_ne!(stream, base, "{name}");
            assert_eq!(inputs(name, 2, 7, 0), seeded, "{name}: same seed, same inputs");
        }
    }
}
