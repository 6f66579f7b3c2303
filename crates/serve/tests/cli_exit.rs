//! Pins the exit-code convention for both serve binaries, shared with
//! `cc-audit`/`cc-lint`: 0 = clean, 1 = failure/violations, 2 = input
//! error.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn serve_unknown_flag_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve"))
        .arg("--frobnicate")
        .output()
        .expect("cc-serve runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn serve_bad_number_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve"))
        .args(["--workers", "many"])
        .output()
        .expect("cc-serve runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn serve_bind_failure_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve"))
        .args(["--addr", "256.0.0.1:99999"])
        .output()
        .expect("cc-serve runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn serve_help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve"))
        .arg("--help")
        .output()
        .expect("cc-serve runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("--allow-chaos"));
}

/// The full lifecycle: start on an ephemeral port, shut down over the
/// wire, exit 0 after a clean drain.
#[test]
fn serve_wire_shutdown_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cc-serve"))
        .args(["--addr", "127.0.0.1:0", "--drain-ms", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cc-serve starts");
    let stdout = child.stdout.take().expect("stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner").expect("read banner");
    let addr = banner
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    writeln!(stream, r#"{{"v":1,"id":1,"op":"shutdown"}}"#).expect("send");
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut reply)
        .expect("reply");
    assert!(
        reply.contains("\"ok\"") || reply.contains("draining"),
        "{reply}"
    );

    let status = child.wait().expect("exits");
    assert_eq!(status.code(), Some(0), "clean drain exits 0");
}

#[test]
fn chaos_unknown_flag_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve-chaos"))
        .arg("--explode")
        .output()
        .expect("cc-serve-chaos runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn chaos_help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve-chaos"))
        .arg("--help")
        .output()
        .expect("cc-serve-chaos runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("--soak"));
}

/// One quick seed through the real harness: the contract holds → exit 0.
#[test]
fn chaos_single_seed_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_cc-serve-chaos"))
        .args(["--seeds", "1", "--faults", "6"])
        .output()
        .expect("cc-serve-chaos runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("all contracts held"));
}
