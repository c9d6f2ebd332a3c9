//! Edge lists whose folded weights the map equation cannot price (a
//! merged weight or `W` past the largest float, `W = 0`, or a subnormal
//! `W` whose `1/(2W)` overflows) are refused at read time by name, on
//! every command that reads one: exit 1 and the message, never a
//! codelength of 0 or −inf with exit 0, and never a panic.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dinfomap");

#[test]
fn unpriceable_weights_exit_1_with_the_message_on_every_command() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/bad_inputs");
    let mut files: Vec<String> = std::fs::read_dir(corpus)
        .expect("tests/bad_inputs")
        .map(|entry| entry.unwrap().path().to_string_lossy().into_owned())
        .filter(|path| path.contains("/unpriceable_"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "{files:?}");
    for file in &files {
        for args in [
            &["cluster", file, "--algorithm", "dist", "--ranks", "2"][..],
            &["cluster", file, "--algorithm", "seq"],
            &["launch", file, "--procs", "2"],
            &["info", file],
        ] {
            let out = Command::new(BIN)
                .args(args)
                .env("RUST_BACKTRACE", "0")
                .output()
                .expect("run dinfomap");
            let (stdout, stderr) = (
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr),
            );
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stdout} {stderr}");
            assert!(
                stderr.contains("weights the map equation cannot price"),
                "{args:?}: {stderr}"
            );
            assert!(!stdout.contains("codelength"), "{args:?}: {stdout}");
        }
    }
}
