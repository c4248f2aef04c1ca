//! End-to-end checks of `epre opt --journal/--resume` through the real
//! binary: a journaled run that is killed mid-write (simulated by tearing
//! the journal tail) must resume to *byte-identical* stdout, and config
//! mismatches, misuse of the flags, input that fails the structural
//! verifier, and input the parser refuses (`parse_refusals`) must be
//! refused with exit code 2. On clean input the sandboxed drivers
//! (`--best-effort`, `--verify-each`) print what plain `opt` prints.

mod parse_refusals;

use std::path::PathBuf;
use std::process::{Command, Output};

use epre_frontend::{compile, NamingMode};

/// Two small functions so the journal holds more than one record.
const SRC: &str = "function tri(n)\n\
                   integer n, s, i, tri\n\
                   begin\n\
                   s = 0\n\
                   do i = 1, n\n\
                     s = s + i\n\
                   enddo\n\
                   return s\n\
                   end\n\
                   function mix(a, b)\n\
                   real a, b, x\n\
                   begin\n\
                   x = a * b + a\n\
                   return x + a * b\n\
                   end\n";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("epre-cli-{}-{name}", std::process::id()))
}

/// Compile the fixture and write its ILOC text where the binary can read it.
fn write_fixture(name: &str) -> PathBuf {
    let module = compile(SRC, NamingMode::Disciplined).unwrap();
    let path = tmp(name);
    std::fs::write(&path, format!("{module}")).unwrap();
    path
}

fn epre(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_epre")).args(args).output().expect("spawn epre")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn journal_resume_is_byte_identical_after_a_kill() {
    let input = write_fixture("resume.iloc");
    let journal = tmp("resume.journal");
    let _ = std::fs::remove_file(&journal);
    let input_s = input.to_str().unwrap();
    let journal_s = journal.to_str().unwrap();

    let first = epre(&["opt", input_s, "--best-effort", "--journal", journal_s]);
    assert_eq!(code(&first), 0, "stderr: {}", String::from_utf8_lossy(&first.stderr));
    assert!(!first.stdout.is_empty());
    let stderr1 = String::from_utf8_lossy(&first.stderr);
    assert!(stderr1.contains("2 optimized fresh"), "stderr: {stderr1}");

    // Simulate a kill mid-write: tear bytes off the journal tail. The last
    // record becomes unparseable; earlier records stay intact.
    let bytes = std::fs::read(&journal).unwrap();
    assert!(bytes.len() > 9, "journal suspiciously small");
    std::fs::write(&journal, &bytes[..bytes.len() - 9]).unwrap();

    let second = epre(&["opt", input_s, "--best-effort", "--journal", journal_s, "--resume"]);
    assert_eq!(code(&second), 0, "stderr: {}", String::from_utf8_lossy(&second.stderr));
    assert_eq!(
        first.stdout, second.stdout,
        "resumed output must be byte-identical to the uninterrupted run"
    );
    let stderr2 = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr2.contains("1 function(s) reused") && stderr2.contains("torn tail discarded"),
        "stderr: {stderr2}"
    );

    // A third resume over the now-complete journal replays everything.
    let third = epre(&["opt", input_s, "--best-effort", "--journal", journal_s, "--resume"]);
    assert_eq!(code(&third), 0);
    assert_eq!(first.stdout, third.stdout);
    assert!(
        String::from_utf8_lossy(&third.stderr).contains("2 function(s) reused"),
        "stderr: {}",
        String::from_utf8_lossy(&third.stderr)
    );

    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&journal);
}

/// Regression: a zero-length journal file (a crash after `open(2)` but
/// before the header write reached the disk) must behave like a fresh
/// start — exit 0, byte-identical output, no torn-tail chatter — not
/// like a corrupt or mismatched journal.
#[test]
fn resume_over_an_empty_journal_starts_fresh() {
    let input = write_fixture("empty-journal.iloc");
    let journal = tmp("empty-journal.journal");
    let input_s = input.to_str().unwrap();
    let journal_s = journal.to_str().unwrap();

    let reference = epre(&["opt", input_s, "--best-effort"]);
    assert_eq!(code(&reference), 0);

    std::fs::write(&journal, "").unwrap();
    let resumed = epre(&["opt", input_s, "--best-effort", "--journal", journal_s, "--resume"]);
    assert_eq!(code(&resumed), 0, "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(reference.stdout, resumed.stdout, "fresh start must match a plain run");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(!stderr.contains("torn tail"), "an empty file is fresh, not torn: {stderr}");
    assert!(stderr.contains("2 optimized fresh"), "stderr: {stderr}");

    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn resume_under_a_different_config_is_refused() {
    let input = write_fixture("mismatch.iloc");
    let journal = tmp("mismatch.journal");
    let _ = std::fs::remove_file(&journal);
    let input_s = input.to_str().unwrap();
    let journal_s = journal.to_str().unwrap();

    let first =
        epre(&["opt", input_s, "--best-effort", "--level", "distribution", "--journal", journal_s]);
    assert_eq!(code(&first), 0, "stderr: {}", String::from_utf8_lossy(&first.stderr));

    // Same journal, different level: replaying those entries would silently
    // emit code optimized under the wrong config.
    let second = epre(&[
        "opt",
        input_s,
        "--best-effort",
        "--level",
        "baseline",
        "--journal",
        journal_s,
        "--resume",
    ]);
    assert_eq!(code(&second), 2, "stderr: {}", String::from_utf8_lossy(&second.stderr));

    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn budget_and_journal_flags_require_best_effort() {
    let input = write_fixture("flags.iloc");
    let input_s = input.to_str().unwrap();
    for args in [
        vec!["opt", input_s, "--deadline-ms", "10"],
        vec!["opt", input_s, "--max-growth", "4.0"],
        vec!["opt", input_s, "--journal", "/tmp/ignored.journal"],
        vec!["opt", input_s, "--best-effort", "--resume"],
        // Both choose the sandbox's fault policy: fail-fast or best-effort.
        vec!["opt", input_s, "--verify-each", "--best-effort"],
    ] {
        let out = epre(&args);
        assert_eq!(code(&out), 2, "{args:?} must be a usage error");
    }
    let _ = std::fs::remove_file(&input);
}

/// The sandboxed drivers, best-effort and fail-fast (`--verify-each`),
/// print exactly what plain `opt` prints on clean input.
#[test]
fn best_effort_without_journal_matches_plain_opt_on_clean_input() {
    let input = write_fixture("clean.iloc");
    let input_s = input.to_str().unwrap();
    let plain = epre(&["opt", input_s]);
    assert_eq!(code(&plain), 0);
    for extra in [
        &["--best-effort", "--jobs", "2"][..],
        &["--verify-each", "--jobs", "1"],
        &["--verify-each", "--jobs", "2"],
    ] {
        let checked = epre(&[&["opt", input_s][..], extra].concat());
        assert_eq!(
            code(&checked),
            0,
            "opt {extra:?}: clean input must exit 0; stderr: {}",
            String::from_utf8_lossy(&checked.stderr)
        );
        assert_eq!(plain.stdout, checked.stdout, "opt {extra:?}");
    }
    let _ = std::fs::remove_file(&input);
}

/// A module that parses but fails the structural verifier (a jump to a
/// block the function does not have, lint L002) is refused at the door
/// with the parse-error exit code, whichever driver would have run it.
#[test]
fn unverifiable_input_is_refused_like_a_parse_error() {
    let input = tmp("dangling.iloc");
    std::fs::write(&input, "module data 0\nfunction corrupt()\nblock b0:\n  jump b7\nend\n")
        .unwrap();
    let input_s = input.to_str().unwrap();
    for extra in [&["--jobs", "1"][..], &["--jobs", "4"], &["--best-effort"], &["--verify-each"]] {
        let out = epre(&[&["opt", input_s][..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "opt {extra:?} must refuse; stderr: {stderr}");
        assert!(stderr.contains("does not verify"), "opt {extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "opt {extra:?} printed a module");
    }
    std::fs::remove_file(&input).ok();
}

/// Every parse refusal — a `module data` header or register numbers
/// beyond the parser's caps, parentheses in the wrong order — exits 2
/// like any parse error, before a driver allocates what the text asks
/// for or slices it out of order.
#[test]
fn oversized_data_segment_is_refused_like_a_parse_error() {
    let input = tmp("refused.iloc");
    let input_s = input.to_str().unwrap();
    for (what, text, message) in parse_refusals::rows() {
        std::fs::write(&input, text).unwrap();
        for extra in [&["--jobs", "1"][..], &["--best-effort"]] {
            let out = epre(&[&["opt", input_s][..], extra].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(code(&out), 2, "{what}: opt {extra:?} must refuse; stderr: {stderr}");
            assert!(stderr.contains(message), "{what}: opt {extra:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{what}: opt {extra:?} printed a module");
        }
    }
    std::fs::remove_file(&input).ok();
}
