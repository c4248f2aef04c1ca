//! Parser for the textual ILOC format produced by [`crate::print`].
//!
//! The grammar is line-oriented; see the module docs of [`crate::print`] for
//! an example. Parsing reconstructs the exact register and block numbering
//! of the printed function, so `parse(print(f)) == f`.

use std::fmt;
use std::iter::Peekable;

use crate::function::{Block, Function, Module, Terminator};
use crate::inst::{BinOp, Inst, UnOp};
use crate::types::{BlockId, Const, Reg, Ty};

/// An error produced while parsing textual ILOC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// An error for `line`. Callers build one only on their failure branch
/// (`ok_or_else`, `map_err`), so a successful parse formats no message.
fn error(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(error(line, message))
}

/// The largest data segment, in words, that [`parse_module`] accepts.
///
/// Whoever runs a module allocates its whole data segment up front, so
/// the header must not let outside text size that allocation. The cap is
/// about 800 times the largest segment in the benchmark suite (1,296
/// words).
pub const MAX_DATA_WORDS: usize = 1 << 20;

/// The most register slots that [`parse_module`] allocates for a module.
///
/// A function gets one slot for every number up to the largest register
/// it names, so a single `r4000000000` in the text would otherwise size a
/// huge allocation. The slots are summed over the module's functions, so
/// many small functions cannot add up either. The whole benchmark suite
/// needs 3,281 slots, and its largest function 600.
pub const MAX_REGS: usize = 1 << 20;

/// Parse a module: a `module data N` header followed by functions.
///
/// # Errors
/// Returns a [`ParseError`] naming the first malformed line, including a
/// data segment larger than [`MAX_DATA_WORDS`] and register slots beyond
/// [`MAX_REGS`].
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut lines = number_lines(text);
    let mut module = Module::new();
    let (n, first) = lines.next().ok_or_else(|| error(0, "empty input"))?;
    let rest =
        first.strip_prefix("module data ").ok_or_else(|| error(n, "expected `module data N`"))?;
    module.data_words = rest.trim().parse().map_err(|_| error(n, "bad data size"))?;
    if module.data_words > MAX_DATA_WORDS {
        let words = module.data_words;
        return err(n, format!("data segment of {words} words exceeds {MAX_DATA_WORDS}"));
    }
    let mut slots = 0;
    while let Some(&(n, line)) = lines.peek() {
        if line.starts_with("function ") {
            module.functions.push(parse_function_lines(&mut lines, &mut slots)?);
        } else {
            return err(n, format!("unexpected line: {line}"));
        }
    }
    Ok(module)
}

/// Parse a single function (no module header).
///
/// # Errors
/// Returns a [`ParseError`] naming the first malformed line, including
/// register slots beyond [`MAX_REGS`].
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut lines = number_lines(text);
    let f = parse_function_lines(&mut lines, &mut 0)?;
    if let Some((n, line)) = lines.next() {
        return err(n, format!("trailing input: {line}"));
    }
    Ok(f)
}

/// The lines that carry content, trimmed and numbered from 1; blank lines
/// and `#` comments are skipped.
fn number_lines(text: &str) -> Peekable<impl Iterator<Item = (usize, &str)>> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .peekable()
}

/// Split `s` around the text between its first `(` and its last `)`.
fn split_parens(s: &str, line: usize) -> Result<(&str, &str, &str), ParseError> {
    let open = s.find('(').ok_or_else(|| error(line, "missing `(`"))?;
    let close = s.rfind(')').ok_or_else(|| error(line, "missing `)`"))?;
    if close < open {
        return err(line, "`)` before `(`");
    }
    Ok((&s[..open], &s[open + 1..close], &s[close + 1..]))
}

/// The register types a function's text implies, by register number, and
/// how many register slots it needs: one past the largest number named.
///
/// Types are kept only below [`MAX_REGS`]: a function that names a
/// register at or above it is refused once its `end` is read, so those
/// types would never be used, and outside text cannot size the table.
struct RegTypes {
    tys: Vec<Option<Ty>>,
    slots: usize,
}

impl RegTypes {
    fn new() -> Self {
        RegTypes { tys: Vec::new(), slots: 0 }
    }

    /// `r`'s entry, growing the table to it; `None` at or above the cap.
    fn entry(&mut self, r: Reg) -> Option<&mut Option<Ty>> {
        let i = r.index();
        if i >= MAX_REGS {
            return None;
        }
        if i >= self.tys.len() {
            self.tys.resize(i + 1, None);
        }
        Some(&mut self.tys[i])
    }

    /// Record a use of `r`, typed if the use gives a type: the first
    /// typed use wins.
    fn note(&mut self, r: Reg, ty: Option<Ty>) {
        self.slots = self.slots.max(r.index().saturating_add(1));
        if let Some(ty) = ty {
            if let Some(entry) = self.entry(r) {
                entry.get_or_insert(ty);
            }
        }
    }

    /// Record a parameter: a repeated parameter takes its last type.
    fn param(&mut self, r: Reg, ty: Ty) {
        self.note(r, None);
        if let Some(entry) = self.entry(r) {
            *entry = Some(ty);
        }
    }

    /// `r`'s type as recorded so far.
    fn get(&self, r: Reg) -> Option<Ty> {
        self.tys.get(r.index()).copied().flatten()
    }
}

/// Parse one function. `slots` counts the register slots allocated so
/// far in the module; this function's are added and checked against
/// [`MAX_REGS`] before any of them is allocated.
fn parse_function_lines<'a>(
    lines: &mut Peekable<impl Iterator<Item = (usize, &'a str)>>,
    slots: &mut usize,
) -> Result<Function, ParseError> {
    let (hn, header) = lines.next().ok_or_else(|| error(0, "expected function header"))?;
    let header =
        header.strip_prefix("function ").ok_or_else(|| error(hn, "expected `function`"))?;
    let (name, params_text, ret_text) = split_parens(header, hn)?;
    let name = name.trim().to_string();
    let ret_ty = match ret_text.trim() {
        "" => None,
        s => Some(parse_ty(s.strip_prefix("->").unwrap_or(s).trim(), hn)?),
    };

    let mut func = Function::new(name, ret_ty);
    // Track the types of registers we must allocate (dense numbering).
    let mut reg_tys = RegTypes::new();
    for p in params_text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (r, ty) = parse_typed_reg(p, hn)?;
        func.params.push(r);
        reg_tys.param(r, ty);
    }

    // Collect blocks.
    let mut blocks: Vec<(usize, Vec<Inst>, Option<Terminator>)> = Vec::new();
    loop {
        let (n, line) = lines.next().ok_or_else(|| error(0, "unexpected EOF"))?;
        if line == "end" {
            break;
        }
        if let Some(rest) = line.strip_prefix("block ") {
            let label = rest.trim_end_matches(':');
            let id = parse_block_id(label, n)?;
            if id.index() != blocks.len() {
                return err(n, format!("blocks must be dense and ordered; got {id}"));
            }
            blocks.push((n, Vec::new(), None));
        } else if blocks.is_empty() {
            return err(n, "instruction before first block");
        } else {
            let cur = blocks.last_mut().unwrap();
            if cur.2.is_some() {
                return err(n, "instruction after terminator");
            }
            match parse_terminator(line, n)? {
                Some(t) => cur.2 = Some(t),
                None => cur.1.push(parse_inst(line, n, &mut reg_tys)?),
            }
        }
    }

    *slots = slots.saturating_add(reg_tys.slots);
    if *slots > MAX_REGS {
        return err(hn, format!("{} register slots exceed {MAX_REGS}", *slots));
    }
    // Allocate registers densely (types default to Int for never-typed regs).
    func.reg_ty =
        (0..reg_tys.slots).map(|i| reg_tys.get(Reg(i as u32)).unwrap_or(Ty::Int)).collect();
    func.blocks.reserve_exact(blocks.len());
    for (n, insts, term) in blocks {
        let term = term.ok_or_else(|| error(n, "block lacks terminator"))?;
        func.add_block(Block { insts, term });
    }
    Ok(func)
}

fn parse_ty(s: &str, line: usize) -> Result<Ty, ParseError> {
    match s {
        "i" => Ok(Ty::Int),
        "f" => Ok(Ty::Float),
        _ => err(line, format!("bad type `{s}`")),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, ParseError> {
    s.strip_prefix('r')
        .and_then(|digits| digits.parse().ok())
        .map(Reg)
        .ok_or_else(|| error(line, format!("bad register `{s}`")))
}

fn parse_block_id(s: &str, line: usize) -> Result<BlockId, ParseError> {
    s.strip_prefix('b')
        .and_then(|digits| digits.parse().ok())
        .map(BlockId)
        .ok_or_else(|| error(line, format!("bad block `{s}`")))
}

fn parse_typed_reg(s: &str, line: usize) -> Result<(Reg, Ty), ParseError> {
    let (r, t) =
        s.split_once(':').ok_or_else(|| error(line, format!("expected `rN:ty`, got `{s}`")))?;
    Ok((parse_reg(r.trim(), line)?, parse_ty(t.trim(), line)?))
}

fn parse_const(s: &str, line: usize) -> Result<Const, ParseError> {
    let (v, t) =
        s.rsplit_once(':').ok_or_else(|| error(line, format!("expected `value:ty`, got `{s}`")))?;
    match t.trim() {
        "i" => v.trim().parse().map(Const::Int).map_err(|_| error(line, format!("bad int `{v}`"))),
        "f" => {
            v.trim().parse().map(Const::Float).map_err(|_| error(line, format!("bad float `{v}`")))
        }
        _ => err(line, format!("bad const type `{t}`")),
    }
}

fn parse_terminator(line: &str, n: usize) -> Result<Option<Terminator>, ParseError> {
    if let Some(rest) = line.strip_prefix("jump ") {
        return Ok(Some(Terminator::Jump { target: parse_block_id(rest.trim(), n)? }));
    }
    if let Some(rest) = line.strip_prefix("cbr ") {
        let (cond, targets) = rest.split_once("->").ok_or_else(|| error(n, "cbr missing `->`"))?;
        let (t, e) = targets.split_once(',').ok_or_else(|| error(n, "cbr missing `,`"))?;
        return Ok(Some(Terminator::Branch {
            cond: parse_reg(cond.trim(), n)?,
            then_to: parse_block_id(t.trim(), n)?,
            else_to: parse_block_id(e.trim(), n)?,
        }));
    }
    if line == "ret" {
        return Ok(Some(Terminator::Return { value: None }));
    }
    if let Some(rest) = line.strip_prefix("ret ") {
        return Ok(Some(Terminator::Return { value: Some(parse_reg(rest.trim(), n)?) }));
    }
    Ok(None)
}

fn parse_inst(line: &str, n: usize, reg_tys: &mut RegTypes) -> Result<Inst, ParseError> {
    // Store / void call have no `<-` with a register on the left.
    if let Some(rest) = line.strip_prefix("store.") {
        let (ty_s, rest) = rest.split_once(' ').ok_or_else(|| error(n, "bad store"))?;
        let ty = parse_ty(ty_s, n)?;
        let (addr_s, val_s) =
            rest.split_once("<-").ok_or_else(|| error(n, "store missing `<-`"))?;
        let addr = parse_reg(addr_s.trim().trim_start_matches('[').trim_end_matches(']'), n)?;
        let value = parse_reg(val_s.trim(), n)?;
        reg_tys.note(addr, Some(Ty::Int));
        reg_tys.note(value, Some(ty));
        return Ok(Inst::Store { ty, addr, value });
    }
    if let Some(rest) = line.strip_prefix("call ") {
        let (callee, args) = parse_call_tail(rest, n)?;
        for &a in &args {
            reg_tys.note(a, None);
        }
        return Ok(Inst::Call { dst: None, callee, args });
    }

    let (dst_s, rhs) = line
        .split_once("<-")
        .ok_or_else(|| error(n, format!("unrecognized instruction `{line}`")))?;
    let dst = parse_reg(dst_s.trim(), n)?;
    let rhs = rhs.trim();

    if let Some(rest) = rhs.strip_prefix("loadi ") {
        let value = parse_const(rest.trim(), n)?;
        reg_tys.note(dst, Some(value.ty()));
        return Ok(Inst::LoadI { dst, value });
    }
    if let Some(rest) = rhs.strip_prefix("copy ") {
        let src = parse_reg(rest.trim(), n)?;
        reg_tys.note(src, None);
        // dst type mirrors src when known; recorded later if src typed.
        reg_tys.note(dst, reg_tys.get(src));
        return Ok(Inst::Copy { dst, src });
    }
    if let Some(rest) = rhs.strip_prefix("load.") {
        let (ty_s, addr_s) = rest.split_once(' ').ok_or_else(|| error(n, "bad load"))?;
        let ty = parse_ty(ty_s, n)?;
        let addr = parse_reg(addr_s.trim().trim_start_matches('[').trim_end_matches(']'), n)?;
        reg_tys.note(addr, Some(Ty::Int));
        reg_tys.note(dst, Some(ty));
        return Ok(Inst::Load { ty, dst, addr });
    }
    if let Some(rest) = rhs.strip_prefix("call ") {
        let (body, ty_s) =
            rest.rsplit_once(':').ok_or_else(|| error(n, "typed call missing `:ty`"))?;
        let ty = parse_ty(ty_s.trim(), n)?;
        let (callee, args) = parse_call_tail(body, n)?;
        for &a in &args {
            reg_tys.note(a, None);
        }
        reg_tys.note(dst, Some(ty));
        return Ok(Inst::Call { dst: Some((dst, ty)), callee, args });
    }
    if let Some(rest) = rhs.strip_prefix("phi ") {
        let inner = rest.trim().trim_start_matches('[').trim_end_matches(']');
        let mut args = Vec::new();
        for pair in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (b, r) = pair.split_once(':').ok_or_else(|| error(n, "phi arg missing `:`"))?;
            let r = parse_reg(r.trim(), n)?;
            reg_tys.note(r, None);
            args.push((parse_block_id(b.trim(), n)?, r));
        }
        reg_tys.note(dst, None);
        return Ok(Inst::Phi { dst, args });
    }

    // Binary / unary: `mnemonic.ty operands`, split at the first comma.
    let (mn, rest) =
        rhs.split_once(' ').ok_or_else(|| error(n, format!("unrecognized rhs `{rhs}`")))?;
    let (mn, ty_s) =
        mn.split_once('.').ok_or_else(|| error(n, format!("missing type suffix on `{mn}`")))?;
    let ty = parse_ty(ty_s, n)?;
    let (first, second) = match rest.split_once(',') {
        Some((a, b)) => (a.trim(), Some(b)),
        None => (rest.trim(), None),
    };
    if let Some(op) = BinOp::ALL.into_iter().find(|op| op.mnemonic() == mn) {
        let Some(second) = second.filter(|s| !s.contains(',')) else {
            return err(n, "binary op needs two operands");
        };
        let lhs = parse_reg(first, n)?;
        let rhs_r = parse_reg(second.trim(), n)?;
        reg_tys.note(lhs, Some(ty));
        reg_tys.note(rhs_r, Some(ty));
        reg_tys.note(dst, Some(op.result_ty(ty)));
        return Ok(Inst::Bin { op, ty, dst, lhs, rhs: rhs_r });
    }
    if let Some(op) = UnOp::ALL.into_iter().find(|op| op.mnemonic() == mn) {
        if second.is_some() {
            return err(n, "unary op needs one operand");
        }
        let src = parse_reg(first, n)?;
        reg_tys.note(src, Some(ty));
        reg_tys.note(dst, Some(op.result_ty(ty)));
        return Ok(Inst::Un { op, ty, dst, src });
    }
    err(n, format!("unknown mnemonic `{mn}`"))
}

fn parse_call_tail(s: &str, n: usize) -> Result<(String, Vec<Reg>), ParseError> {
    let (callee, args_text, _) = split_parens(s, n)?;
    let callee = callee.trim().to_string();
    let mut args = Vec::new();
    for a in args_text.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        args.push(parse_reg(a, n)?);
    }
    Ok((callee, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn round_trip_simple() {
        let mut b = FunctionBuilder::new("foo", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Float);
        let c = b.loadi(Const::Int(3));
        let s = b.bin(BinOp::Add, Ty::Int, x, c);
        let fy = b.un(UnOp::F2I, Ty::Float, y);
        let t = b.bin(BinOp::Mul, Ty::Int, s, fy);
        b.ret(Some(t));
        let f = b.finish();
        let text = format!("{f}");
        let g = parse_function(&text).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn round_trip_control_flow_and_memory() {
        let mut b = FunctionBuilder::new("cf", None);
        let p = b.param(Ty::Int);
        let v = b.load(Ty::Float, p);
        let s = b.call("sqrt", vec![v], Ty::Float);
        b.store(Ty::Float, p, s);
        let c = b.loadi(Const::Int(1));
        let t = b.new_block();
        let e = b.new_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.call_void("trace", vec![p]);
        b.jump(e);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish();
        let g = parse_function(&format!("{f}")).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn round_trip_phi() {
        let text = "function p(r0:i) -> i\n\
                    block b0:\n  cbr r0 -> b1, b2\n\
                    block b1:\n  r1 <- loadi 1:i\n  jump b3\n\
                    block b2:\n  r2 <- loadi 2:i\n  jump b3\n\
                    block b3:\n  r3 <- phi [b1: r1, b2: r2]\n  ret r3\n\
                    end";
        let f = parse_function(text).unwrap();
        assert_eq!(f.blocks.len(), 4);
        let g = parse_function(&format!("{f}")).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn round_trip_module() {
        let text = "module data 64\n\
                    function a() -> i\nblock b0:\n  r0 <- loadi 7:i\n  ret r0\nend\n\
                    function b()\nblock b0:\n  ret\nend";
        let m = parse_module(text).unwrap();
        assert_eq!(m.data_words, 64);
        assert_eq!(m.functions.len(), 2);
        let m2 = parse_module(&format!("{m}")).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn oversized_data_segment_is_refused() {
        let body = "function a()\nblock b0:\n  ret\nend";
        let at_cap = format!("module data {MAX_DATA_WORDS}\n{body}");
        assert_eq!(parse_module(&at_cap).unwrap().data_words, MAX_DATA_WORDS);
        for n in [MAX_DATA_WORDS as u64 + 1, 1_000_000_000_000_000_000] {
            let e = parse_module(&format!("module data {n}\n{body}")).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("exceeds"), "{e}");
        }
    }

    #[test]
    fn register_slots_are_capped() {
        let f = |reg: usize| format!("function a()\nblock b0:\n  r{reg} <- loadi 1:i\n  ret\nend");
        assert_eq!(parse_function(&f(MAX_REGS - 1)).unwrap().reg_count(), MAX_REGS);
        for reg in [MAX_REGS, u32::MAX as usize] {
            let e = parse_function(&f(reg)).unwrap_err();
            assert_eq!(e.line, 1, "{e}");
            assert!(e.message.contains("register slots exceed"), "{e}");
        }
    }

    #[test]
    fn float_constants_round_trip() {
        let text = "function c() -> f\nblock b0:\n  r0 <- loadi 2.5:f\n  ret r0\nend";
        let f = parse_function(text).unwrap();
        let g = parse_function(&format!("{f}")).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "function f()\nblock b0:\n  r0 <- bogus.i r1, r2\n  ret\nend";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
        assert!(format!("{e}").contains("line 3"));
    }

    #[test]
    fn rejects_missing_terminator() {
        let text = "function f()\nblock b0:\n  r0 <- loadi 1:i\nend";
        assert!(parse_function(text).is_err());
    }

    #[test]
    fn rejects_sparse_blocks() {
        let text = "function f()\nblock b1:\n  ret\nend";
        assert!(parse_function(text).is_err());
    }

    /// One malformed input per failure site, with the exact error it
    /// gives. `M` rows go through [`parse_module`], `F` rows through
    /// [`parse_function`], and an `I` row is one instruction line (line
    /// 3) of a function otherwise well formed.
    #[test]
    fn every_failure_site_gives_its_exact_error() {
        enum Via {
            M,
            F,
            I,
        }
        use Via::{F, I, M};
        let rows: &[(Via, &str, usize, &str)] = &[
            // Module header.
            (M, "", 0, "empty input"),
            (M, "# only a comment\n\n", 0, "empty input"),
            (M, "data 4\n", 1, "expected `module data N`"),
            (M, "module data x\n", 1, "bad data size"),
            (M, "module data 1048577\n", 1, "data segment of 1048577 words exceeds 1048576"),
            (M, "module data 0\nblock b0:\n", 2, "unexpected line: block b0:"),
            // Function header and block structure.
            (F, "", 0, "expected function header"),
            (F, "block b0:\n  ret\nend", 1, "expected `function`"),
            (F, "function f\nblock b0:\n  ret\nend", 1, "missing `(`"),
            (F, "function f(\nblock b0:\n  ret\nend", 1, "missing `)`"),
            (F, "function f)(\nblock b0:\n  ret\nend", 1, "`)` before `(`"),
            (F, "function f() -> x\nblock b0:\n  ret\nend", 1, "bad type `x`"),
            (F, "function f(r0)\nblock b0:\n  ret\nend", 1, "expected `rN:ty`, got `r0`"),
            (F, "function f(x0:i)\nblock b0:\n  ret\nend", 1, "bad register `x0`"),
            (F, "function f()\nblock b0:\n  ret", 0, "unexpected EOF"),
            (F, "function f()\nblock x0:\n  ret\nend", 2, "bad block `x0`"),
            (F, "function f()\nblock bx:\n  ret\nend", 2, "bad block `bx`"),
            (
                F,
                "function f()\nblock b1:\n  ret\nend",
                2,
                "blocks must be dense and ordered; got b1",
            ),
            (F, "function f()\n  ret\nend", 2, "instruction before first block"),
            (F, "function f()\nblock b0:\n  ret\n  ret\nend", 4, "instruction after terminator"),
            (F, "function f()\nblock b0:\n  r0 <- loadi 1:i\nend", 2, "block lacks terminator"),
            (F, "function f()\nblock b0:\n  ret\nend\nextra", 5, "trailing input: extra"),
            (
                F,
                "function f()\nblock b0:\n  r1048576 <- loadi 1:i\n  ret\nend",
                1,
                "1048577 register slots exceed 1048576",
            ),
            // Terminators.
            (F, "function f()\nblock b0:\n  jump x1\nend", 3, "bad block `x1`"),
            (F, "function f()\nblock b0:\n  cbr r0 b1, b2\nend", 3, "cbr missing `->`"),
            (F, "function f()\nblock b0:\n  cbr r0 -> b1 b2\nend", 3, "cbr missing `,`"),
            (F, "function f()\nblock b0:\n  ret x0\nend", 3, "bad register `x0`"),
            // Instructions.
            (I, "store.i", 3, "bad store"),
            (I, "store.x [r0] <- r1", 3, "bad type `x`"),
            (I, "store.i [r0] r1", 3, "store missing `<-`"),
            (I, "call g(", 3, "missing `)`"),
            (I, "call g)(", 3, "`)` before `(`"),
            (I, "r0 loadi 1:i", 3, "unrecognized instruction `r0 loadi 1:i`"),
            (I, "x0 <- loadi 1:i", 3, "bad register `x0`"),
            (I, "rx <- loadi 1:i", 3, "bad register `rx`"),
            (I, "r0 <- loadi 1", 3, "expected `value:ty`, got `1`"),
            (I, "r0 <- loadi 1.5:i", 3, "bad int `1.5`"),
            (I, "r0 <- loadi x:f", 3, "bad float `x`"),
            (I, "r0 <- loadi 1:x", 3, "bad const type `x`"),
            (I, "r0 <- copy x1", 3, "bad register `x1`"),
            (I, "r0 <- load.i", 3, "bad load"),
            (I, "r0 <- call g()", 3, "typed call missing `:ty`"),
            (I, "r0 <- call g(x1):i", 3, "bad register `x1`"),
            (I, "r0 <- phi [b0 r1]", 3, "phi arg missing `:`"),
            (I, "r0 <- phi [x0: r1]", 3, "bad block `x0`"),
            (I, "r0 <- nop", 3, "unrecognized rhs `nop`"),
            (I, "r0 <- add r1, r2", 3, "missing type suffix on `add`"),
            (I, "r0 <- add.x r1, r2", 3, "bad type `x`"),
            (I, "r0 <- add.i r1", 3, "binary op needs two operands"),
            (I, "r0 <- add.i r1, r2, r3", 3, "binary op needs two operands"),
            (I, "r0 <- add.i r1,", 3, "bad register ``"),
            (I, "r0 <- add.i r1, x2", 3, "bad register `x2`"),
            (I, "r0 <- neg.i r1, r2", 3, "unary op needs one operand"),
            (I, "r0 <- neg.i r1,", 3, "unary op needs one operand"),
            (I, "r0 <- neg.i x1", 3, "bad register `x1`"),
            (I, "r0 <- bogus.i r1", 3, "unknown mnemonic `bogus`"),
        ];
        let mut wrong = Vec::new();
        for (via, text, line, message) in rows {
            let got = match via {
                M => parse_module(text).map(drop),
                F => parse_function(text).map(drop),
                I => parse_function(&format!("function f()\nblock b0:\n  {text}\n  ret\nend"))
                    .map(drop),
            };
            let want = ParseError { line: *line, message: (*message).to_string() };
            if got.as_ref() != Err(&want) {
                wrong.push(format!("{text:?}: got {got:?}, want {want:?}"));
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\nfunction f()\n\nblock b0:\n  # inner\n  ret\nend";
        assert!(parse_function(text).is_ok());
    }
}
