//! `alex serve` process-level test: SIGINT drains the server and persists
//! a restorable session checkpoint in `session-<id>/`, exactly what a
//! deployment relies on.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use alex_core::SessionSnapshot;

#[test]
fn sigint_drains_and_persists_snapshots() {
    let dir = std::env::temp_dir().join(format!("alex-sigint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_alex"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn alex serve");

    // First stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("alex-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    // Create a session over the wire so shutdown has something to save.
    let body = r#"{
        "left_data": "<http://l/a> <http://p/n> \"x\" .\n",
        "right_data": "<http://r/a> <http://p/n> \"x\" .\n",
        "links": [["http://l/a", "http://r/a"]],
        "config": {"partitions": 1, "seed": 3}
    }"#;
    let mut stream = TcpStream::connect(&addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /sessions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 201"),
        "create failed: {response}"
    );

    // Ctrl-C. The process must exit cleanly on its own.
    let pid = child.id();
    let status = Command::new("sh")
        .args(["-c", &format!("kill -INT {pid}")])
        .status()
        .unwrap();
    assert!(status.success(), "sending SIGINT failed");

    let deadline = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(st) = child.try_wait().unwrap() {
            break st;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit after SIGINT"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "non-zero exit after SIGINT: {exit:?}");

    // The checkpoint is on disk and parses back into a session.
    let path = dir.join("session-s1").join("checkpoint.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("snapshot {} missing: {e}", path.display()));
    let snap = SessionSnapshot::from_json(&text).expect("snapshot parses");
    assert_eq!(snap.candidates.len(), 1);
    assert_eq!(
        snap.candidates[0],
        ("http://l/a".to_string(), "http://r/a".to_string())
    );

    let _ = std::fs::remove_dir_all(&dir);
}
