//! A pinned fingerprint of Figure 10's complete data.
//!
//! `EXPERIMENTS.md` prints the DAQ logs' whole-run power to two decimals,
//! so a change to the measurement chain (noise order, filter state,
//! sampler cursor) could move every logged bit without moving a printed
//! digit. This test hashes the full `Debug` rendering of `fig10::run` —
//! both run reports and both `DaqLog`s, every float at round-trip
//! precision — with FNV-1a. The constant was last captured when the
//! channel noise moved from Box–Muller to the ziggurat sampler, which
//! draws another realisation of the same distribution.

use livephase_experiments::{fig10, DEFAULT_SEED};

const FIG10_FINGERPRINT: u64 = 0xdebf_8e1a_6a87_55d9;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn fig10_data_matches_its_pinned_fingerprint() {
    let rendered = format!("{:?}", fig10::run(DEFAULT_SEED));
    let got = fnv1a(rendered.as_bytes());
    assert_eq!(
        got, FIG10_FINGERPRINT,
        "fig10::run({DEFAULT_SEED}) drifted: fingerprint {got:#018x}"
    );
}
