//! Bad `experiments` arguments end in a usage line and exit code 2, not a
//! panic.

use std::process::Command;

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in [
        &["--no-such-flag"][..],
        &["--figure", "x"],
        &["--table", "t2"],
        &["--fuzz"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--help")
        .output()
        .expect("run experiments");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
}
