//! The extended (beyond-paper) registry's contracts: the
//! entropy-clustered blocklisting experiment renders byte-identical
//! output at any `analysis_threads` count, matches its own pinned golden
//! digest, and never perturbs the default registry's rendered output.

use ipv6_user_study::experiments::{run_all_with, run_extended_with};
use ipv6_user_study::report::render_markdown;
use ipv6_user_study::stats::hash::stable_hash64;
use ipv6_user_study::{Study, StudyConfig};

/// `stable_hash64("ECEQ", markdown)` of the tiny-scale serial extended
/// render, pinned when the entropy-clustered blocklisting experiment
/// landed. Any change to what EC1 computes — not just how fast — moves
/// this digest.
const GOLDEN_TINY_EXTENDED_DIGEST: u64 = 0x9a51_7fe4_37c3_04fe;

const DIGEST_SEED: u64 = 0x4543_4551; // "ECEQ"

fn tiny_study() -> Study {
    Study::run(StudyConfig::tiny()).expect("tiny preset is valid")
}

/// Renders the extended registry at `threads` analysis workers.
fn rendered_extended(threads: usize) -> String {
    let study = tiny_study();
    render_markdown(&run_extended_with(&study, threads))
}

#[test]
fn extended_output_is_thread_invariant_and_matches_the_golden() {
    let serial = rendered_extended(1);
    let digest = stable_hash64(DIGEST_SEED, serial.as_bytes());
    assert_eq!(
        digest, GOLDEN_TINY_EXTENDED_DIGEST,
        "tiny-scale extended output drifted from the pinned golden \
         (got {digest:#018x}; update the constant only for intentional \
         changes to EC1)"
    );
    assert_eq!(
        serial,
        rendered_extended(8),
        "extended markdown differs at analysis_threads=8"
    );
}

#[test]
fn extended_pass_leaves_the_default_registry_output_unchanged() {
    let mut study = tiny_study();
    let before = render_markdown(&run_all_with(&mut study, 1));
    let _ = run_extended_with(&study, 8);
    let after = render_markdown(&run_all_with(&mut study, 1));
    assert_eq!(
        before, after,
        "running the extended registry changed the default render"
    );
}
