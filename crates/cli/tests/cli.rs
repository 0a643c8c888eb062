//! End-to-end tests of the `motsim` binary.

use std::process::Command;

fn motsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_motsim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_shows_suite() {
    let out = motsim(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("g208"));
    assert!(text.contains("s208.1"));
}

#[test]
fn stats_on_suite_circuit() {
    let out = motsim(&["stats", "g27"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("flip-flops  3"));
    assert!(text.contains("faults"));
}

#[test]
fn sim3_reports_coverage() {
    let out = motsim(&["sim3", "s27", "--len", "50"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("coverage"));
}

#[test]
fn strategies_ranks_engines() {
    let out = motsim(&["strategies", "g27", "--len", "30"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SOT"));
    assert!(text.contains("rMOT"));
    assert!(text.contains("MOT"));
}

#[test]
fn testeval_prints_a_saturated_witness_count_as_a_bound() {
    // g5378's 179 flip-flops leave more than 2^128 explaining states.
    let out = motsim(&["testeval", "g5378"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(≥ 2^128 witness state(s))"), "{text}");
    let out = motsim(&["testeval", "s27", "--len", "30"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(8 witness state(s))"), "{text}");
}

#[test]
fn tgen_emits_parsable_vectors() {
    let out = motsim(&["tgen", "s27", "--max-len", "20"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        assert_eq!(line.len(), 4, "s27 has 4 inputs: `{line}`");
        assert!(line.chars().all(|c| c == '0' || c == '1'));
    }
}

#[test]
fn scoap_lists_all_nets() {
    let out = motsim(&["scoap", "s27"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 1 + 17, "header + 17 nets");
}

#[test]
fn bench_file_path_accepted() {
    let dir = std::env::temp_dir().join("motsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.bench");
    std::fs::write(&path, "INPUT(A)\nOUTPUT(Y)\nQ = DFF(Y)\nY = NAND(A, Q)\n").unwrap();
    let out = motsim(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("circuit tiny"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = motsim(&["frobnicate", "s27"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"));
}

#[test]
fn removed_commands_and_options_are_unknown() {
    for cmd in ["vcd", "diagnose"] {
        let out = motsim(&[cmd, "s27"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command `{cmd}`")), "{err}");
    }
    for opt in ["--inject", "--all-nets", "--compact"] {
        let out = motsim(&["tgen", "s27", opt]);
        assert_eq!(out.status.code(), Some(2), "{opt}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{opt}`")), "{err}");
    }
}

/// A zero node limit is a usage error, reported before any simulation.
fn assert_zero_limit_rejected(args: &[&str]) {
    let out = motsim(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--limit must be at least 1 node"), "{err}");
    assert!(err.contains("usage"), "{err}");
    assert!(!err.contains("engine failure"), "{err}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn strategies_rejects_a_zero_limit() {
    assert_zero_limit_rejected(&["strategies", "g27", "--limit", "0"]);
}

#[test]
fn testeval_rejects_a_zero_limit() {
    assert_zero_limit_rejected(&["testeval", "s27", "--limit", "0x0"]);
}

#[test]
fn unknown_circuit_fails() {
    let out = motsim(&["stats", "does-not-exist"]);
    assert!(!out.status.success());
}

#[test]
fn synch_fails_gracefully_on_unsynchronizable() {
    // The partial counter's upper bits never synchronize.
    let out = motsim(&["synch", "g208", "--max-len", "16"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no synchronizing sequence"));
}

/// Writes `content` to a fresh temp file and runs `trace-check` on it,
/// returning (success, stderr).
fn trace_check(name: &str, content: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join("motsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    let out = motsim(&["trace-check", path.to_str().unwrap()]);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn trace_check_rejects_truncated_line() {
    // Line 1 is valid; line 2 is cut mid-object.
    let (ok, err) = trace_check(
        "truncated.jsonl",
        "{\"ev\":\"run_start\",\"engine\":\"sim3\",\"faults\":1,\"frames\":2}\n\
         {\"ev\":\"tv_frame\",\"fra\n",
    );
    assert!(!ok);
    assert!(err.contains(":2:"), "must name line 2: {err}");
}

#[test]
fn trace_check_rejects_frame_regression() {
    // Frames must be monotone within a unit bracket: 5 then 2 regresses.
    let (ok, err) = trace_check(
        "regress.jsonl",
        "{\"ev\":\"unit_start\",\"unit\":0,\"faults\":3}\n\
         {\"ev\":\"tv_frame\",\"frame\":5,\"detected\":0}\n\
         {\"ev\":\"tv_frame\",\"frame\":2,\"detected\":0}\n",
    );
    assert!(!ok);
    assert!(err.contains(":3:"), "must name line 3: {err}");
    assert!(err.contains("regresses"), "must explain the failure: {err}");
}

#[test]
fn trace_check_rejects_unknown_event_type() {
    let (ok, err) = trace_check("unknown.jsonl", "{\"ev\":\"hyperdrive\",\"frame\":1}\n");
    assert!(!ok);
    assert!(err.contains(":1:"), "must name line 1: {err}");
    assert!(err.contains("unknown tag"), "must name the bad tag: {err}");
}

#[test]
fn fuzz_passes_and_is_deterministic() {
    let run = || motsim(&["fuzz", "--seed", "7", "--cases", "2", "--max-dffs", "4"]);
    let a = run();
    assert!(a.status.success(), "fuzz run failed");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(
        text.contains("0 counterexample(s)"),
        "fuzz found counterexamples:\n{text}"
    );
    let b = run();
    assert_eq!(a.stdout, b.stdout, "fuzz output must be deterministic");
}

#[test]
fn fuzz_rejects_bad_options() {
    let out = motsim(&["fuzz", "--max-dffs", "40"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--max-dffs"));
}

/// Runs `motsim args`, reads the first stdout line and then closes stdout,
/// as `motsim args | head -1` does; the command must still end quietly and
/// successfully. Returns the first line.
fn first_line_then_close(args: &[&str]) -> String {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_motsim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr readable");
    let status = child.wait().expect("child exits");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
    first
}

#[test]
fn closed_stdout_ends_quietly() {
    // `motsim list | head -1`: the reader leaves after one line while the
    // command is still building circuits and printing.
    let first = first_line_then_close(&["list"]);
    assert!(first.contains("suite"), "{first}");
}

#[test]
fn tables_end_quietly_on_a_closed_stdout() {
    // `motsim tables figs | head -1`: the first line is the blank line
    // before the Fig. 1 heading.
    assert_eq!(first_line_then_close(&["tables", "figs"]), "\n");
}

#[test]
fn seeds_accept_hex() {
    // 0xDAC95 = 896149 is also the default seed.
    let sim3 = |extra: &[&str]| {
        let mut args = vec!["sim3", "g27", "--len", "40"];
        args.extend_from_slice(extra);
        let out = motsim(&args);
        assert!(out.status.success(), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        // Drop the elapsed time: "... detected in 1.2ms".
        text.lines()
            .map(|l| l.split(" in ").next().unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    let hex = sim3(&["--seed", "0xDAC95"]);
    assert_eq!(hex, sim3(&["--seed", "896149"]));
    assert_eq!(hex, sim3(&[]));

    let out = motsim(&["sim3", "g27", "--seed", "0xZZ"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seed needs a number"), "{err}");
    assert!(err.contains("usage"), "{err}");
}
