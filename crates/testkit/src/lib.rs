//! What the workspace's property suites and synthetic workloads draw
//! their inputs from: a splitmix64 [`Rng`] and [`check`], which runs a
//! property over seeds `0..cases` and, when a seed fails, runs it again
//! at halved sizes to report the smallest input that still fails.
//!
//! A property is a closure over `(&mut Rng, size)` that panics (plain
//! `assert!`) when it does not hold. `size` is [`FULL`] on every
//! ordinary run; a property scales its collection lengths with it
//! through [`Rng::len`] so the halving has something to shrink.
//! Everything is a function of the seed: a failure names the seed and
//! size, and `check` at that seed replays it.
//!
//! Tests that need a faulty network put a [`FaultProxy`] between a
//! client and a server: it forwards HTTP/1.1 verbatim and drops, tears,
//! duplicates, delays or answers with a status the requests a test arms
//! a [`Fault`] for. The servers under test carry no fault knobs.

mod proxy;

pub use proxy::{Fault, FaultProxy};

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size every case runs at before any shrinking.
pub const FULL: usize = 1024;

/// Splitmix64: one `u64` of state, every seed a full-period stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `range`, which must not be empty.
    pub fn range<T: Uniform>(&mut self, range: Range<T>) -> T {
        T::draw(self, range)
    }

    /// A length from `range` with the span above its start scaled by
    /// `size / FULL`: the whole range at full size, the start alone at
    /// the smallest.
    pub fn len(&mut self, range: Range<usize>, size: usize) -> usize {
        let span = (range.end - range.start) * size / FULL;
        range.start + self.below(span.max(1))
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Any `f64` bit pattern, with the values arithmetic trips over
    /// (zeros, infinities, NaN, the extremes) drawn one time in eight.
    pub fn any_f64(&mut self) -> f64 {
        const EDGES: [f64; 8] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        if self.below(8) == 0 {
            *self.pick(&EDGES)
        } else {
            f64::from_bits(self.next_u64())
        }
    }

    /// One of `items`, which must not be empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `len` characters drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len).map(|_| *self.pick(alphabet) as char).collect()
    }
}

/// Printable ASCII (space to `~`) minus `without`: an alphabet for
/// [`Rng::string`].
pub fn printable(without: &[u8]) -> Vec<u8> {
    (b' '..=b'~').filter(|c| !without.contains(c)).collect()
}

/// Types [`Rng::range`] draws uniformly.
pub trait Uniform: Sized {
    fn draw(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(rng: &mut Rng, range: Range<$t>) -> $t {
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
uniform_int!(u8, u32, u64, usize, i64);

impl Uniform for f64 {
    fn draw(rng: &mut Rng, range: Range<f64>) -> f64 {
        range.start + rng.unit() * (range.end - range.start)
    }
}

/// A seed the property failed at, shrunk as far as halving goes.
#[derive(Debug)]
struct Failure {
    seed: u64,
    size: usize,
    message: String,
}

fn run_case(property: &impl Fn(&mut Rng, usize), seed: u64, size: usize) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed), size))).map_err(|payload| {
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| "panicked".to_string(), |text| text.to_string()),
        }
    })
}

fn first_failure(cases: u64, property: &impl Fn(&mut Rng, usize)) -> Option<Failure> {
    for seed in 0..cases {
        let Err(mut message) = run_case(property, seed, FULL) else {
            continue;
        };
        let mut size = FULL;
        while size > 1 {
            match run_case(property, seed, size / 2) {
                Ok(()) => break,
                Err(smaller) => (size, message) = (size / 2, smaller),
            }
        }
        return Some(Failure {
            seed,
            size,
            message,
        });
    }
    None
}

/// Runs `property` at seeds `0..cases`; panics on the first that fails,
/// naming the test (its thread), the seed and the smallest failing size.
#[track_caller]
pub fn check(cases: u64, property: impl Fn(&mut Rng, usize)) {
    if let Some(f) = first_failure(cases, &property) {
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("property");
        panic!(
            "{name} fails at seed {}, size {}: {}",
            f.seed, f.size, f.message
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (
                rng.next_u64(),
                rng.range(-5i64..5),
                rng.range(0.0..1.0e6),
                rng.bytes(9),
                rng.string(b"abc", 7),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn draws_stay_inside_their_ranges() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            assert!((-3i64..4).contains(&rng.range(-3i64..4)));
            assert!((250u8..255).contains(&rng.range(250u8..255)));
            assert!((-0.5..0.5).contains(&rng.range(-0.5..0.5)));
            assert!((2..9).contains(&rng.len(2..9, FULL)));
            assert_eq!(rng.len(2..9, 1), 2);
        }
        let wide = rng.range(i64::MIN..i64::MAX);
        assert!(wide < i64::MAX);
    }

    #[test]
    fn a_true_property_runs_exactly_cases_times() {
        let runs = Cell::new(0);
        check(37, |_, size| {
            assert_eq!(size, FULL);
            runs.set(runs.get() + 1);
        });
        assert_eq!(runs.get(), 37);
    }

    #[test]
    fn a_false_property_is_reported_at_its_seed_and_smallest_failing_size() {
        // Fails whenever the drawn length reaches 10, so for a failing
        // seed every size down to some power of two still fails.
        let property = |rng: &mut Rng, size: usize| {
            let n = rng.len(0..1000, size);
            assert!(n < 10, "length {n}");
        };
        let failure = first_failure(64, &property).expect("lengths reach 10");
        assert!(run_case(&property, failure.seed, failure.size).is_err());
        assert!(
            failure.size == 1 || run_case(&property, failure.seed, failure.size / 2).is_ok(),
            "stopped shrinking early at {failure:?}"
        );
        assert!((0..failure.seed).all(|seed| run_case(&property, seed, FULL).is_ok()));
        assert!(failure.size < FULL && failure.message.starts_with("length "));

        let panic = catch_unwind(|| check(64, property)).unwrap_err();
        let text = panic.downcast::<String>().unwrap();
        assert!(
            text.contains(&format!(
                "seed {}, size {}: length ",
                failure.seed, failure.size
            )),
            "{text}"
        );
        assert!(text.contains("a_false_property_is_reported"), "{text}");
    }
}
