//! The optimizer's interning maps use a hasher seeded once per process
//! (`epre_ir::MixState`), so two processes hash every key differently. No
//! iteration order of those maps may reach the output: `epre opt` must
//! print the same bytes in every process, serially and at `--jobs 4`.

use std::process::Command;

fn epre_opt(input: &std::path::Path, jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_epre"))
        .args(["opt", "--level", "distribution", "--jobs", jobs])
        .arg(input)
        .output()
        .expect("spawn epre");
    assert!(out.status.success(), "epre opt failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

#[test]
fn optimized_output_is_the_same_under_every_process_seed() {
    let input = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("hasher-seed-{}.iloc", std::process::id()));
    std::fs::write(&input, epre_suite::fused_module().to_string()).unwrap();
    let serial = epre_opt(&input, "1");
    assert!(serial.starts_with(b"module data"), "{}", String::from_utf8_lossy(&serial));
    assert_eq!(serial, epre_opt(&input, "1"), "two serial processes differ");
    for _ in 0..2 {
        assert_eq!(serial, epre_opt(&input, "4"), "a --jobs 4 process differs from serial");
    }
    std::fs::remove_file(&input).unwrap();
}
