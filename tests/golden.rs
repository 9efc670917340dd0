//! Golden verdicts and `.i` bytes on the wide profile.
//!
//! The default profile declares 193 Kconfig symbols; at
//! `drivers_per_subsystem: 96` the model grows to 1,369, the size the
//! `janitor-latency` benchmark workload checks against. The first test
//! pins every per-commit result of a 150-commit window on that wider tree
//! to a digest of its `Debug` rendering, so a change to the macro
//! environment, the Kconfig lint or the header ranking that moves any
//! verdict, reason, file status or virtual time fails here.
//!
//! Reports see only lengths and tokens of the preprocessed text, so the
//! second test pins the bytes themselves: every entry the object store
//! and the preprocess store hold after a one-worker run of the same
//! window (each `.i` text, preprocess diagnostic, front-end verdict and
//! recorded header effect), in the disk tier's encoding.

use jmake::core::{run_evaluation, DriverOptions};
use jmake::kbuild::{ContentHash, Entry, Store};
use jmake::synth::WorkloadProfile;
use jmake::vcs::{CommitId, LogOptions, Repo};

fn wide_window() -> (Repo, Vec<CommitId>) {
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
    (workload.repo, commits)
}

#[test]
fn wide_profile_verdicts_match_the_golden_digest() {
    let (repo, commits) = wide_window();
    let run = run_evaluation(
        &repo,
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

/// Entry count and a 64-bit FNV-1a digest of every entry's disk
/// encoding, sorted (store iteration order is unspecified), each
/// length-prefixed.
fn store_digest<E: Entry>(store: &Store<E>) -> String {
    let mut entries: Vec<Vec<u8>> = store
        .snapshot()
        .iter()
        .map(|(key, value)| E::encode(key, value))
        .collect();
    entries.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for entry in &entries {
        for &b in (entry.len() as u64).to_le_bytes().iter().chain(entry) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{} entries, {h:016x}", entries.len())
}

#[test]
fn wide_profile_stored_outputs_match_the_golden_digest() {
    let (repo, commits) = wide_window();
    let opts = DriverOptions {
        workers: 1,
        ..DriverOptions::default()
    };
    run_evaluation(&repo, &commits, &opts);
    let objects = opts.object_cache_handle.as_deref().expect("default store");
    let preproc = opts.preproc_cache_handle.as_deref().expect("default store");
    assert_eq!(
        [store_digest(objects), store_digest(preproc)],
        [
            "484 entries, a7d577ed6e482ee4",
            "236 entries, 747deb8368804401"
        ]
    );
}
