//! The `slic` binary's config-key flags against the config file: a flag and the file key
//! it sets give byte-identical artifacts, each subcommand takes only its own key flags,
//! and every regression gate rejects a malformed threshold before doing anything else.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_slic");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-config-flags-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("slic runs")
}

/// Runs `slic <args>`, asserting it exits with `code`; returns stderr.
fn expect_exit(dir: &Path, args: &[&str], code: i32) -> String {
    let output = run(dir, args);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(
        output.status.code(),
        Some(code),
        "`slic {}`:\nstdout: {}\nstderr: {stderr}",
        args.join(" "),
        String::from_utf8_lossy(&output.stdout),
    );
    stderr
}

#[test]
fn flags_and_config_keys_give_byte_identical_artifacts() {
    let dir = temp_dir("equivalence");
    std::fs::write(
        dir.join("keys.toml"),
        "seed = 7\nmethods = [\"bayesian\", \"lse\"]\nvariation.process_seeds = 4\n",
    )
    .unwrap();
    expect_exit(
        &dir,
        &[
            "characterize",
            "--seed",
            "7",
            "--methods",
            "bayesian,lse",
            "--variation-seeds",
            "4",
            "--out",
            "flags.json",
        ],
        0,
    );
    expect_exit(
        &dir,
        &[
            "characterize",
            "--config",
            "keys.toml",
            "--out",
            "keys.json",
        ],
        0,
    );
    let flags = std::fs::read(dir.join("flags.json")).unwrap();
    let keys = std::fs::read(dir.join("keys.json")).unwrap();
    assert!(flags == keys, "flag and key artifacts differ");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn subcommands_take_only_their_own_key_flags() {
    let dir = temp_dir("allowlists");
    let err = expect_exit(&dir, &["learn", "--variation"], 2);
    assert!(err.contains("unknown flag `--variation`"), "{err}");
    let err = expect_exit(&dir, &["learn", "--variation-seeds", "4"], 2);
    assert!(err.contains("unknown flag `--variation-seeds`"), "{err}");
    let err = expect_exit(&dir, &["characterize", "--wall-pct", "5"], 2);
    assert!(err.contains("unknown flag `--wall-pct`"), "{err}");
    let err = expect_exit(&dir, &["history", "runs.jsonl", "--seed", "7"], 2);
    assert!(err.contains("unknown flag `--seed`"), "{err}");
    let err = expect_exit(&dir, &["profile", "--diff", "a", "b", "--trace", "t"], 2);
    assert!(err.contains("unknown flag `--trace`"), "{err}");
    // Integers a config value cannot hold exactly are rejected, from a flag and a file.
    let err = expect_exit(&dir, &["learn", "--seed", "9007199254740993"], 1);
    assert!(
        err.contains("`--seed 9007199254740993` is too large"),
        "{err}"
    );
    std::fs::write(dir.join("big.toml"), "seed = 9007199254740993\n").unwrap();
    let err = expect_exit(&dir, &["learn", "--config", "big.toml"], 1);
    assert!(err.contains("config key `seed` is too large"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn history_rejects_malformed_thresholds_in_list_mode_too() {
    let dir = temp_dir("history");
    expect_exit(
        &dir,
        &["learn", "--ledger", "runs.jsonl", "--out", "history.json"],
        0,
    );
    expect_exit(&dir, &["history", "runs.jsonl"], 0);
    for mode in [&[][..], &["--diff"][..]] {
        let mut args = vec!["history", "runs.jsonl"];
        args.extend_from_slice(mode);
        let mut bad = args.clone();
        bad.extend(["--wall-pct", "x"]);
        let err = expect_exit(&dir, &bad, 2);
        assert!(err.contains("`--wall-pct x` is not a number"), "{err}");
        let mut missing = args.clone();
        missing.extend(["--config", "missing.toml"]);
        expect_exit(&dir, &missing, 2);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
