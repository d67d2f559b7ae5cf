//! Property tests for [`VirtualClock`]: monotonicity under arbitrary
//! interleavings of `advance` / `set_s`, and rejection of non-finite
//! input without disturbing the reading.

use energy_monitor::sampler::VirtualClock;
use testkit::{check, Rng};

#[derive(Debug, Clone)]
enum Op {
    Advance(f64),
    Set(f64),
}

fn op(rng: &mut Rng) -> Op {
    if rng.bool() {
        Op::Advance(rng.range(0.0..1.0e7))
    } else {
        Op::Set(rng.range(0.0..1.0e13))
    }
}

/// The reading never decreases, whatever mix of advances and
/// absolute sets (including backwards sets, which are ignored).
#[test]
fn clock_is_monotonic() {
    check(256, |rng, size| {
        let clock = VirtualClock::manual();
        let mut last = clock.now_s();
        for _ in 0..rng.len(1..200, size) {
            match op(rng) {
                Op::Advance(s) => clock.advance(s),
                Op::Set(s) => clock.set_s(s),
            }
            let now = clock.now_s();
            assert!(now >= last, "clock went backwards: {last} -> {now}");
            last = now;
        }
    });
}

/// `advance` moves the clock by the requested amount (within the
/// microsecond quantization) and `set_s` never undershoots an
/// already-later clock.
#[test]
fn advance_accumulates() {
    check(256, |rng, size| {
        let clock = VirtualClock::manual();
        let mut expected = 0u64;
        for _ in 0..rng.len(1..50, size) {
            let d = rng.range(0.0..1.0e4);
            clock.advance(d);
            expected += (d * 1e6) as u64;
        }
        let got_us = (clock.now_s() * 1e6).round() as u64;
        // Each cast truncates below a microsecond; the sum matches exactly
        // because both sides truncate identically.
        assert_eq!(got_us, expected);
    });
}

/// Non-finite input is dropped (release) or panics (debug); either
/// way a finite reading taken before stays valid afterwards. This
/// property only runs the release-mode contract.
#[test]
#[cfg(not(debug_assertions))]
fn non_finite_never_moves_the_clock() {
    check(256, |rng, _| {
        let clock = VirtualClock::manual();
        clock.advance(rng.range(0.0..1.0e6));
        let before = clock.now_s();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            clock.advance(bad);
            clock.set_s(bad);
            assert_eq!(clock.now_s(), before);
        }
    });
}
