//! Module texts that `parse_module` must refuse, each with words its
//! error message carries. Each row once crashed or swamped whatever ran
//! the parser: `tests/journal_cli.rs` feeds them to `epre opt`, and
//! `tests/serve_chaos.rs` to a daemon with a single worker.

use epre_ir::MAX_REGS;

/// `(what the row is, module text, fragment of the error message)`.
pub fn rows() -> Vec<(&'static str, String, &'static str)> {
    let naming = |name: &str, reg: usize| {
        format!("function {name}()\nblock b0:\n  r{reg} <- loadi 1:i\n  ret\nend\n")
    };
    vec![
        (
            "data segment over the cap",
            "module data 1000000000000000000\n\
             function oversized() -> i\nblock b0:\n  r0 <- loadi 77:i\n  ret r0\nend\n"
                .into(),
            "exceeds",
        ),
        (
            "reversed header parentheses",
            "module data 0\nfunction f)(\nblock b0:\n  ret\nend\n".into(),
            "`)` before `(`",
        ),
        (
            "reversed void-call parentheses",
            "module data 0\nfunction f()\nblock b0:\n  call g)(\n  ret\nend\n".into(),
            "`)` before `(`",
        ),
        (
            "reversed typed-call parentheses",
            "module data 0\nfunction f()\nblock b0:\n  r0 <- call g)(:i\n  ret\nend\n".into(),
            "`)` before `(`",
        ),
        (
            "one function one register over the cap",
            format!("module data 0\n{}", naming("f", MAX_REGS)),
            "register slots exceed",
        ),
        (
            "two functions under the cap that exceed it together",
            format!("module data 0\n{}{}", naming("f", MAX_REGS / 2), naming("g", MAX_REGS / 2)),
            "register slots exceed",
        ),
    ]
}
