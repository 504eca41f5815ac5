//! `pvtm-trace tail --follow` as a process: it exits 0 on a finalized
//! journal, and 1 on an unfinalized journal that stopped growing, whose
//! writer is gone.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

const HEAD: &str = concat!(
    r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"fig2a","mode":"full","clock":false}"#,
    "\n",
    r#"{"seq":1,"kind":"mc.start","trace":"fig2a.mc","samples":16384,"chunks":4}"#,
    "\n",
    r#"{"seq":2,"kind":"mc.chunk","trace":"fig2a.mc","chunk":0,"n":4096,"mean":0.25,"m2":768.0}"#,
    "\n",
);

/// Writes `text` to a journal file of its own for this test process.
fn journal(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "pvtm-trace-{}-{name}.events.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, text).unwrap();
    path
}

/// Runs `tail --follow --interval 0.01` on `path`, failing the test if it
/// has not returned after 60 s (600 checks 0.1 s apart).
fn follow(path: &PathBuf) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pvtm-trace"))
        .arg("tail")
        .arg(path)
        .args(["--follow", "--interval", "0.01"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    for _ in 0..600 {
        if child.try_wait().unwrap().is_some() {
            return child.wait_with_output().unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = child.kill();
    panic!("tail --follow still polling {} after 60 s", path.display());
}

#[test]
fn follow_gives_up_on_a_journal_that_stopped_growing() {
    let path = journal("stalled", HEAD);
    let out = follow(&path);
    let _ = std::fs::remove_file(&path);
    let (stdout, stderr) = (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    );
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("stopped growing"), "{stderr}");
    // It ends on the last frame, without an ETA.
    let lines: Vec<&str> = stdout.lines().collect();
    let last = &lines[lines.len().saturating_sub(2)..];
    assert!(
        last.len() == 2
            && last[0] == "run fig2a — in flight (2 events)"
            && last[1].contains("1/4 chunks, 4096/16384 samples"),
        "{stdout}"
    );
}

#[test]
fn follow_prints_one_frame_of_a_finalized_journal() {
    let text = format!(
        "{HEAD}{}\n",
        r#"{"seq":3,"kind":"run.end","id":"fig2a","events":2,"solves":10}"#
    );
    let path = journal("finalized", &text);
    let out = follow(&path);
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        stdout.matches("run fig2a — finalized").count(),
        1,
        "{stdout}"
    );
}
