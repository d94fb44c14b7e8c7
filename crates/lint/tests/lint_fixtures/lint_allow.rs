//! Fixture for the suppression protocol: justified, unjustified, unused.

pub fn step_decision(v: &[u8]) -> u8 {
    first(v) + second(v)
}

fn first(v: &[u8]) -> u8 {
    v[0] // lint:allow(panic-reachable): caller guarantees a non-empty slice
}

fn second(v: &[u8]) -> u8 {
    v[0] // lint:allow(panic-reachable)
}

// lint:allow(panic-reachable): nothing on the next line can panic
fn third() {}
