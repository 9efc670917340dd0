//! Golden verdicts on the wide profile.
//!
//! The default profile declares 193 Kconfig symbols; at
//! `drivers_per_subsystem: 96` the model grows to 1,369, the size the
//! `janitor-latency` benchmark workload checks against. This test pins
//! every per-commit result of a 150-commit window on that wider tree to a
//! digest of its `Debug` rendering, so a change to the macro environment,
//! the Kconfig lint or the header ranking that moves any verdict, reason,
//! file status or virtual time fails here.

use jmake::core::{run_evaluation, DriverOptions};
use jmake::kbuild::ContentHash;
use jmake::synth::WorkloadProfile;
use jmake::vcs::LogOptions;

#[test]
fn wide_profile_verdicts_match_the_golden_digest() {
    let profile = WorkloadProfile {
        seed: 3,
        commits: 150,
        drivers_per_subsystem: 96,
        ..WorkloadProfile::default()
    };
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("synthetic repositories tag v4.3 and v4.4");
    let run = run_evaluation(
        &workload.repo,
        &commits,
        &DriverOptions {
            workers: 2,
            ..DriverOptions::default()
        },
    );
    assert_eq!(run.results.len(), commits.len());
    let digest = ContentHash::of(&format!("{:?}", run.results)).to_string();
    assert_eq!(digest, "9e0f6b17e05852d2a5c6c0986e936dc2");
}
