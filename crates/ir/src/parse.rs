//! Parser for the textual ILOC format produced by [`crate::print`].
//!
//! The grammar is line-oriented; see the module docs of [`crate::print`] for
//! an example. Parsing reconstructs the exact register and block numbering
//! of the printed function, so `parse(print(f)) == f`.

use std::collections::HashMap;
use std::fmt;

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

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
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
    let (n, first) = next_line(&mut lines).ok_or(ParseError {
        line: 0,
        message: "empty input".into(),
    })?;
    let rest = first
        .strip_prefix("module data ")
        .ok_or(ParseError { line: n, message: "expected `module data N`".into() })?;
    module.data_words =
        rest.trim().parse().map_err(|_| ParseError { line: n, message: "bad data size".into() })?;
    if module.data_words > MAX_DATA_WORDS {
        let words = module.data_words;
        return err(n, format!("data segment of {words} words exceeds {MAX_DATA_WORDS}"));
    }
    let mut slots = 0;
    while let Some((n, line)) = peek_line(&mut lines) {
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
    if let Some((n, line)) = peek_line(&mut lines) {
        return err(n, format!("trailing input: {line}"));
    }
    Ok(f)
}

type Lines<'a> = std::iter::Peekable<std::vec::IntoIter<(usize, &'a str)>>;

fn number_lines(text: &str) -> Lines<'_> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .into_iter()
        .peekable()
}

fn next_line<'a>(lines: &mut Lines<'a>) -> Option<(usize, &'a str)> {
    lines.next()
}

fn peek_line<'a>(lines: &mut Lines<'a>) -> Option<(usize, &'a str)> {
    lines.peek().copied()
}

/// Split `s` around the text between its first `(` and its last `)`.
fn split_parens(s: &str, line: usize) -> Result<(&str, &str, &str), ParseError> {
    let open = s.find('(').ok_or_else(|| ParseError { line, message: "missing `(`".into() })?;
    let close = s.rfind(')').ok_or_else(|| ParseError { line, message: "missing `)`".into() })?;
    if close < open {
        return err(line, "`)` before `(`");
    }
    Ok((&s[..open], &s[open + 1..close], &s[close + 1..]))
}

/// Parse one function. `slots` counts the register slots allocated so
/// far in the module; this function's are added and checked against
/// [`MAX_REGS`] before any of them is allocated.
fn parse_function_lines(lines: &mut Lines<'_>, slots: &mut usize) -> Result<Function, ParseError> {
    let (hn, header) =
        next_line(lines).ok_or(ParseError { line: 0, message: "expected function header".into() })?;
    let header = header
        .strip_prefix("function ")
        .ok_or(ParseError { line: hn, message: "expected `function`".into() })?;
    let (name, params_text, ret_text) = split_parens(header, hn)?;
    let name = name.trim().to_string();
    let ret_ty = match ret_text.trim() {
        "" => None,
        s => Some(parse_ty(s.strip_prefix("->").unwrap_or(s).trim(), hn)?),
    };

    let mut func = Function::new(name, ret_ty);
    // Track the types of registers we must allocate (dense numbering).
    let mut reg_tys: HashMap<u32, Ty> = HashMap::new();
    let mut max_reg: i64 = -1;

    let mut params = Vec::new();
    for p in params_text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (r, ty) = parse_typed_reg(p, hn)?;
        params.push(r);
        reg_tys.insert(r.0, ty);
        max_reg = max_reg.max(r.0 as i64);
    }
    func.params = params;

    // Collect blocks.
    let mut blocks: Vec<(usize, Vec<Inst>, Option<Terminator>)> = Vec::new();
    loop {
        let (n, line) =
            next_line(lines).ok_or(ParseError { line: 0, message: "unexpected EOF".into() })?;
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
                None => {
                    let inst = parse_inst(line, n, &mut reg_tys, &mut max_reg)?;
                    cur.1.push(inst);
                }
            }
        }
    }

    *slots = slots.saturating_add(usize::try_from(max_reg + 1).unwrap_or(usize::MAX));
    if *slots > MAX_REGS {
        return err(hn, format!("{} register slots exceed {MAX_REGS}", *slots));
    }
    // Allocate registers densely (types default to Int for never-typed regs).
    for i in 0..=max_reg {
        let ty = reg_tys.get(&(i as u32)).copied().unwrap_or(Ty::Int);
        func.new_reg(ty);
    }
    for (n, insts, term) in blocks {
        let term = term.ok_or(ParseError { line: n, message: "block lacks terminator".into() })?;
        let mut b = Block::new(term);
        b.insts = insts;
        func.add_block(b);
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
    let digits = s.strip_prefix('r').ok_or(ParseError {
        line,
        message: format!("bad register `{s}`"),
    })?;
    digits
        .parse()
        .map(Reg)
        .map_err(|_| ParseError { line, message: format!("bad register `{s}`") })
}

fn parse_block_id(s: &str, line: usize) -> Result<BlockId, ParseError> {
    let digits =
        s.strip_prefix('b').ok_or(ParseError { line, message: format!("bad block `{s}`") })?;
    digits
        .parse()
        .map(BlockId)
        .map_err(|_| ParseError { line, message: format!("bad block `{s}`") })
}

fn parse_typed_reg(s: &str, line: usize) -> Result<(Reg, Ty), ParseError> {
    let (r, t) = s.split_once(':').ok_or(ParseError {
        line,
        message: format!("expected `rN:ty`, got `{s}`"),
    })?;
    Ok((parse_reg(r.trim(), line)?, parse_ty(t.trim(), line)?))
}

fn parse_const(s: &str, line: usize) -> Result<Const, ParseError> {
    let (v, t) = s.rsplit_once(':').ok_or(ParseError {
        line,
        message: format!("expected `value:ty`, got `{s}`"),
    })?;
    match t.trim() {
        "i" => v
            .trim()
            .parse()
            .map(Const::Int)
            .map_err(|_| ParseError { line, message: format!("bad int `{v}`") }),
        "f" => v
            .trim()
            .parse()
            .map(Const::Float)
            .map_err(|_| ParseError { line, message: format!("bad float `{v}`") }),
        _ => err(line, format!("bad const type `{t}`")),
    }
}

fn parse_terminator(line: &str, n: usize) -> Result<Option<Terminator>, ParseError> {
    if let Some(rest) = line.strip_prefix("jump ") {
        return Ok(Some(Terminator::Jump { target: parse_block_id(rest.trim(), n)? }));
    }
    if let Some(rest) = line.strip_prefix("cbr ") {
        let (cond, targets) = rest
            .split_once("->")
            .ok_or(ParseError { line: n, message: "cbr missing `->`".into() })?;
        let (t, e) = targets
            .split_once(',')
            .ok_or(ParseError { line: n, message: "cbr missing `,`".into() })?;
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

/// Record an operand-type observation for `r`.
fn note_ty(reg_tys: &mut HashMap<u32, Ty>, max_reg: &mut i64, r: Reg, ty: Option<Ty>) {
    *max_reg = (*max_reg).max(r.0 as i64);
    if let Some(ty) = ty {
        reg_tys.entry(r.0).or_insert(ty);
    }
}

fn parse_inst(
    line: &str,
    n: usize,
    reg_tys: &mut HashMap<u32, Ty>,
    max_reg: &mut i64,
) -> Result<Inst, ParseError> {
    // Store / void call have no `<-` with a register on the left.
    if let Some(rest) = line.strip_prefix("store.") {
        let (ty_s, rest) =
            rest.split_once(' ').ok_or(ParseError { line: n, message: "bad store".into() })?;
        let ty = parse_ty(ty_s, n)?;
        let (addr_s, val_s) = rest
            .split_once("<-")
            .ok_or(ParseError { line: n, message: "store missing `<-`".into() })?;
        let addr = parse_reg(addr_s.trim().trim_start_matches('[').trim_end_matches(']'), n)?;
        let value = parse_reg(val_s.trim(), n)?;
        note_ty(reg_tys, max_reg, addr, Some(Ty::Int));
        note_ty(reg_tys, max_reg, value, Some(ty));
        return Ok(Inst::Store { ty, addr, value });
    }
    if let Some(rest) = line.strip_prefix("call ") {
        let (callee, args) = parse_call_tail(rest, n)?;
        for &a in &args {
            note_ty(reg_tys, max_reg, a, None);
        }
        return Ok(Inst::Call { dst: None, callee, args });
    }

    let (dst_s, rhs) = line
        .split_once("<-")
        .ok_or(ParseError { line: n, message: format!("unrecognized instruction `{line}`") })?;
    let dst = parse_reg(dst_s.trim(), n)?;
    let rhs = rhs.trim();

    if let Some(rest) = rhs.strip_prefix("loadi ") {
        let value = parse_const(rest.trim(), n)?;
        note_ty(reg_tys, max_reg, dst, Some(value.ty()));
        return Ok(Inst::LoadI { dst, value });
    }
    if let Some(rest) = rhs.strip_prefix("copy ") {
        let src = parse_reg(rest.trim(), n)?;
        note_ty(reg_tys, max_reg, src, None);
        // dst type mirrors src when known; recorded later if src typed.
        note_ty(reg_tys, max_reg, dst, reg_tys.get(&src.0).copied());
        return Ok(Inst::Copy { dst, src });
    }
    if let Some(rest) = rhs.strip_prefix("load.") {
        let (ty_s, addr_s) =
            rest.split_once(' ').ok_or(ParseError { line: n, message: "bad load".into() })?;
        let ty = parse_ty(ty_s, n)?;
        let addr = parse_reg(addr_s.trim().trim_start_matches('[').trim_end_matches(']'), n)?;
        note_ty(reg_tys, max_reg, addr, Some(Ty::Int));
        note_ty(reg_tys, max_reg, dst, Some(ty));
        return Ok(Inst::Load { ty, dst, addr });
    }
    if let Some(rest) = rhs.strip_prefix("call ") {
        let (body, ty_s) = rest
            .rsplit_once(':')
            .ok_or(ParseError { line: n, message: "typed call missing `:ty`".into() })?;
        let ty = parse_ty(ty_s.trim(), n)?;
        let (callee, args) = parse_call_tail(body, n)?;
        for &a in &args {
            note_ty(reg_tys, max_reg, a, None);
        }
        note_ty(reg_tys, max_reg, dst, Some(ty));
        return Ok(Inst::Call { dst: Some((dst, ty)), callee, args });
    }
    if let Some(rest) = rhs.strip_prefix("phi ") {
        let inner = rest.trim().trim_start_matches('[').trim_end_matches(']');
        let mut args = Vec::new();
        for pair in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (b, r) = pair
                .split_once(':')
                .ok_or(ParseError { line: n, message: "phi arg missing `:`".into() })?;
            let r = parse_reg(r.trim(), n)?;
            note_ty(reg_tys, max_reg, r, None);
            args.push((parse_block_id(b.trim(), n)?, r));
        }
        note_ty(reg_tys, max_reg, dst, None);
        return Ok(Inst::Phi { dst, args });
    }

    // Binary / unary: `mnemonic.ty operands`.
    let (mn, rest) = rhs
        .split_once(' ')
        .ok_or(ParseError { line: n, message: format!("unrecognized rhs `{rhs}`") })?;
    let (mn, ty_s) = mn
        .split_once('.')
        .ok_or(ParseError { line: n, message: format!("missing type suffix on `{mn}`") })?;
    let ty = parse_ty(ty_s, n)?;
    let operands: Vec<&str> = rest.split(',').map(str::trim).collect();
    for op in BinOp::ALL {
        if op.mnemonic() == mn {
            if operands.len() != 2 {
                return err(n, "binary op needs two operands");
            }
            let lhs = parse_reg(operands[0], n)?;
            let rhs_r = parse_reg(operands[1], n)?;
            note_ty(reg_tys, max_reg, lhs, Some(ty));
            note_ty(reg_tys, max_reg, rhs_r, Some(ty));
            note_ty(reg_tys, max_reg, dst, Some(op.result_ty(ty)));
            return Ok(Inst::Bin { op, ty, dst, lhs, rhs: rhs_r });
        }
    }
    for op in UnOp::ALL {
        if op.mnemonic() == mn {
            if operands.len() != 1 {
                return err(n, "unary op needs one operand");
            }
            let src = parse_reg(operands[0], n)?;
            note_ty(reg_tys, max_reg, src, Some(ty));
            note_ty(reg_tys, max_reg, dst, Some(op.result_ty(ty)));
            return Ok(Inst::Un { op, ty, dst, src });
        }
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

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\nfunction f()\n\nblock b0:\n  # inner\n  ret\nend";
        assert!(parse_function(text).is_ok());
    }
}
