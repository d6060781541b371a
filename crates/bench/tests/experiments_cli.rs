//! The `experiments` binary resolves names against the registry.

use std::fs;
use std::process::{Command, Output};

use trident_sim::experiments::{ladder, ALL};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

/// Asserts a refused command line: status 2, no CSV, and the usage
/// message naming every registry entry.
fn assert_refused_with_usage(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf-8 stderr");
    assert!(stderr.contains("usage: experiments NAME"), "{stderr}");
    for exp in ALL {
        assert!(
            stderr.contains(exp.name),
            "usage omits {}: {stderr}",
            exp.name
        );
    }
    stderr
}

#[test]
fn an_unknown_name_is_refused_with_the_usage_message() {
    let stderr = assert_refused_with_usage(&experiments(&["figure99", "--scale", "256"]));
    assert!(
        stderr.contains("unrecognized argument \"figure99\""),
        "{stderr}"
    );
    // An unknown flag is named, not the value after it.
    let stderr = assert_refused_with_usage(&experiments(&["--bogus", "5", "fig1"]));
    assert!(
        stderr.contains("unrecognized argument \"--bogus\""),
        "{stderr}"
    );
    // Tracing and profiling are tridentctl's: an experiment prints its
    // CSV only.
    for flags in [&["fig1", "--trace", "8"][..], &["fig1", "--profile"]] {
        let stderr = assert_refused_with_usage(&experiments(flags));
        assert!(
            stderr.contains(&format!("unrecognized argument {:?}", flags[1])),
            "{stderr}"
        );
    }
    // Without --out, exactly one name is needed.
    assert_refused_with_usage(&experiments(&[]));
    assert_refused_with_usage(&experiments(&["fig1", "fig2"]));
}

#[test]
fn a_name_prints_its_csv_and_out_writes_one_file_per_name() {
    let out = experiments(&["ladder_walk"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), ladder::walk_csv());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .starts_with("# Ladders"));

    let dir = std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()));
    let out = experiments(&["--out", dir.to_str().unwrap(), "ladder_walk"]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty());
    let written: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(written, ["ladder_walk.csv"]);
    assert_eq!(
        fs::read_to_string(dir.join("ladder_walk.csv")).unwrap(),
        ladder::walk_csv()
    );
    fs::remove_dir_all(&dir).unwrap();
}
