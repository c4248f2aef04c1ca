//! Recursive-descent parser: token stream → [`Program`].

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};
use crate::FrontendError;

/// Parse a whole source file.
///
/// # Errors
/// Returns the first syntax error with its source line.
pub fn parse_program(source: &str) -> Result<Program, FrontendError> {
    let toks = lex(source)?;
    let mut p = Parser { toks, pos: 0 };
    p.skip_newlines();
    let mut functions = Vec::new();
    while !p.at_end() {
        functions.push(p.function()?);
        p.skip_newlines();
    }
    if functions.is_empty() {
        return Err(FrontendError { line: 1, message: "empty program".into() });
    }
    Ok(Program { functions })
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.pos)
    }

    fn line(&self) -> usize {
        self.peek().map_or_else(|| self.toks.last().map_or(1, |t| t.line), |t| t.line)
    }

    fn bump(&mut self) -> Option<Spanned> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, FrontendError> {
        Err(FrontendError { line: self.line(), message: message.into() })
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek().map(|t| &t.tok) == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), FrontendError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    fn skip_newlines(&mut self) {
        while self.eat(&Tok::Newline) {}
    }

    fn expect_newline(&mut self) -> Result<(), FrontendError> {
        if self.at_end() || self.eat(&Tok::Newline) {
            self.skip_newlines();
            Ok(())
        } else {
            self.err("expected end of statement")
        }
    }

    /// Consume an identifier (keyword or name).
    fn ident(&mut self, what: &str) -> Result<(String, usize), FrontendError> {
        match self.bump() {
            Some(Spanned { tok: Tok::Ident(s), line }) => Ok((s, line)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected {what}"))
            }
        }
    }

    /// Is the next token the given keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Spanned { tok: Tok::Ident(s), .. }) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn function(&mut self) -> Result<FunctionDef, FrontendError> {
        let line = self.line();
        let returns_value = if self.eat_keyword("function") {
            true
        } else if self.eat_keyword("subroutine") {
            false
        } else {
            return self.err("expected `function` or `subroutine`");
        };
        let (name, _) = self.ident("procedure name")?;
        self.expect(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let (p, _) = self.ident("parameter name")?;
                params.push(p);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma, "`,` or `)`")?;
            }
        }
        self.expect_newline()?;

        // Declarations until `begin`.
        let mut decls = Vec::new();
        loop {
            if self.eat_keyword("begin") {
                self.expect_newline()?;
                break;
            }
            let dline = self.line();
            let ty = if self.eat_keyword("integer") {
                TypeName::Integer
            } else if self.eat_keyword("real") {
                TypeName::Real
            } else {
                return self.err("expected declaration or `begin`");
            };
            loop {
                let (name, _) = self.ident("declared name")?;
                let mut dims = Vec::new();
                if self.eat(&Tok::LParen) {
                    loop {
                        if self.eat(&Tok::Star) {
                            dims.push(0); // assumed-size parameter array
                        } else {
                            match self.bump() {
                                Some(Spanned { tok: Tok::Int(v), .. }) if v > 0 => dims.push(v),
                                _ => {
                                    self.pos = self.pos.saturating_sub(1);
                                    return self
                                        .err("array dimension must be a positive integer or `*`");
                                }
                            }
                        }
                        if self.eat(&Tok::RParen) {
                            break;
                        }
                        self.expect(Tok::Comma, "`,` or `)` in dimensions")?;
                    }
                }
                decls.push(Decl { ty, name, dims, line: dline });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect_newline()?;
        }

        let body = self.stmts(&["end"])?;
        self.expect_keyword("end")?;
        self.expect_newline()?;
        Ok(FunctionDef { name, params, returns_value, decls, body, line })
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FrontendError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`"))
        }
    }

    /// Parse statements until one of the `stop` keywords (not consumed).
    fn stmts(&mut self, stop: &[&str]) -> Result<Vec<Stmt>, FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            if self.at_end() {
                return self.err(format!("unexpected end of file, expected `{}`", stop[0]));
            }
            if stop.iter().any(|kw| self.at_keyword(kw)) {
                return Ok(out);
            }
            out.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let line = self.line();
        if self.eat_keyword("if") {
            let mut arms = Vec::new();
            let cond = self.expr()?;
            self.expect_keyword("then")?;
            self.expect_newline()?;
            let body = self.stmts(&["elseif", "else", "endif"])?;
            arms.push((cond, body));
            let mut otherwise = Vec::new();
            loop {
                if self.eat_keyword("elseif") {
                    let c = self.expr()?;
                    self.expect_keyword("then")?;
                    self.expect_newline()?;
                    let b = self.stmts(&["elseif", "else", "endif"])?;
                    arms.push((c, b));
                } else if self.eat_keyword("else") {
                    self.expect_newline()?;
                    otherwise = self.stmts(&["endif"])?;
                    self.expect_keyword("endif")?;
                    break;
                } else if self.eat_keyword("endif") {
                    break;
                } else {
                    return self.err("expected `elseif`, `else` or `endif`");
                }
            }
            self.expect_newline()?;
            return Ok(Stmt::If { arms, otherwise, line });
        }
        if self.eat_keyword("do") {
            let (var, _) = self.ident("loop variable")?;
            self.expect(Tok::Assign, "`=`")?;
            let from = self.expr()?;
            self.expect(Tok::Comma, "`,`")?;
            let to = self.expr()?;
            let step = if self.eat(&Tok::Comma) {
                let neg = self.eat(&Tok::Minus);
                match self.bump() {
                    Some(Spanned { tok: Tok::Int(v), .. }) if v != 0 => {
                        if neg {
                            -v
                        } else {
                            v
                        }
                    }
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return self.err("DO step must be a nonzero integer constant");
                    }
                }
            } else {
                1
            };
            self.expect_newline()?;
            let body = self.stmts(&["enddo"])?;
            self.expect_keyword("enddo")?;
            self.expect_newline()?;
            return Ok(Stmt::Do { var, from, to, step, body, line });
        }
        if self.eat_keyword("while") {
            let cond = self.expr()?;
            self.expect_keyword("do")?;
            self.expect_newline()?;
            let body = self.stmts(&["endwhile"])?;
            self.expect_keyword("endwhile")?;
            self.expect_newline()?;
            return Ok(Stmt::While { cond, body, line });
        }
        if self.eat_keyword("call") {
            let (name, _) = self.ident("subroutine name")?;
            self.expect(Tok::LParen, "`(`")?;
            let mut args = Vec::new();
            if !self.eat(&Tok::RParen) {
                loop {
                    args.push(self.expr()?);
                    if self.eat(&Tok::RParen) {
                        break;
                    }
                    self.expect(Tok::Comma, "`,` or `)`")?;
                }
            }
            self.expect_newline()?;
            return Ok(Stmt::Call { name, args, line });
        }
        if self.eat_keyword("return") {
            let value = if self.at_end() || self.peek().map(|t| &t.tok) == Some(&Tok::Newline) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_newline()?;
            return Ok(Stmt::Return { value, line });
        }
        // Assignment.
        let (name, _) = self.ident("statement")?;
        let mut subs = Vec::new();
        if self.eat(&Tok::LParen) {
            loop {
                subs.push(self.expr()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma, "`,` or `)` in subscripts")?;
            }
        }
        self.expect(Tok::Assign, "`=`")?;
        let value = self.expr()?;
        self.expect_newline()?;
        Ok(Stmt::Assign { name, subs, value, line })
    }

    // Expression precedence (loosest to tightest):
    //   .or. | .and. | .not. | comparisons | + - | * / | unary - | primary
    fn expr(&mut self) -> Result<Expr, FrontendError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.and_expr()?;
        while self.peek().map(|t| &t.tok) == Some(&Tok::Or) {
            let line = self.line();
            self.pos += 1;
            let rhs = self.and_expr()?;
            lhs = Expr::Bin { op: BinExpr::Or, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.not_expr()?;
        while self.peek().map(|t| &t.tok) == Some(&Tok::And) {
            let line = self.line();
            self.pos += 1;
            let rhs = self.not_expr()?;
            lhs = Expr::Bin { op: BinExpr::And, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, FrontendError> {
        if self.peek().map(|t| &t.tok) == Some(&Tok::Not) {
            let line = self.line();
            self.pos += 1;
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner), line));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().map(|t| &t.tok) {
            Some(Tok::Eq) => BinExpr::Eq,
            Some(Tok::Ne) => BinExpr::Ne,
            Some(Tok::Lt) => BinExpr::Lt,
            Some(Tok::Le) => BinExpr::Le,
            Some(Tok::Gt) => BinExpr::Gt,
            Some(Tok::Ge) => BinExpr::Ge,
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line })
    }

    fn add_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Plus) => BinExpr::Add,
                Some(Tok::Minus) => BinExpr::Sub,
                _ => return Ok(lhs),
            };
            let line = self.line();
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Star) => BinExpr::Mul,
                Some(Tok::Slash) => BinExpr::Div,
                _ => return Ok(lhs),
            };
            let line = self.line();
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, FrontendError> {
        if self.peek().map(|t| &t.tok) == Some(&Tok::Minus) {
            let line = self.line();
            self.pos += 1;
            let inner = self.unary_expr()?;
            return Ok(Expr::Neg(Box::new(inner), line));
        }
        if self.peek().map(|t| &t.tok) == Some(&Tok::Plus) {
            self.pos += 1;
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, FrontendError> {
        let line = self.line();
        match self.bump() {
            Some(Spanned { tok: Tok::Int(v), .. }) => Ok(Expr::Int(v)),
            Some(Spanned { tok: Tok::Real(v), .. }) => Ok(Expr::Real(v)),
            Some(Spanned { tok: Tok::LParen, .. }) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Spanned { tok: Tok::Ident(name), .. }) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&Tok::RParen) {
                                break;
                            }
                            self.expect(Tok::Comma, "`,` or `)`")?;
                        }
                    }
                    Ok(Expr::Index { name, args, line })
                } else {
                    Ok(Expr::Var(name, line))
                }
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err("expected expression")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> FunctionDef {
        parse_program(src).unwrap().functions.remove(0)
    }

    #[test]
    fn parses_paper_example() {
        // Figure 2 of the paper.
        let src = "function foo(y, z)\n\
                   real y, z, s, x\n\
                   integer i\n\
                   begin\n\
                   s = 0\n\
                   x = y + z\n\
                   do i = x, 100\n\
                     s = i + s + x\n\
                   enddo\n\
                   return s\n\
                   end\n";
        let f = one(src);
        assert_eq!(f.name, "foo");
        assert_eq!(f.params, vec!["y", "z"]);
        assert!(f.returns_value);
        assert_eq!(f.decls.len(), 5);
        assert_eq!(f.body.len(), 4);
        match &f.body[2] {
            Stmt::Do { var, step, body, .. } => {
                assert_eq!(var, "i");
                assert_eq!(*step, 1);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected DO, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let f = one("function f(a, b, c)\nbegin\nreturn a + b * c\nend\n");
        match &f.body[0] {
            Stmt::Return { value: Some(Expr::Bin { op: BinExpr::Add, rhs, .. }), .. } => {
                assert!(matches!(**rhs, Expr::Bin { op: BinExpr::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_over_logic() {
        let f = one("function f(a, b)\nbegin\nreturn a < b .and. b < a .or. a == b\nend\n");
        match &f.body[0] {
            Stmt::Return { value: Some(Expr::Bin { op: BinExpr::Or, .. }), .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_elseif_else_chain() {
        let src = "subroutine s(a)\nbegin\n\
                   if a > 0 then\n a = 1\n\
                   elseif a < 0 then\n a = 2\n\
                   else\n a = 3\n\
                   endif\n\
                   end\n";
        let f = one(src);
        match &f.body[0] {
            Stmt::If { arms, otherwise, .. } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(otherwise.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!f.returns_value);
    }

    #[test]
    fn do_with_negative_step() {
        let f = one("subroutine s(n)\ninteger i, n\nbegin\ndo i = n, 1, -1\nenddo\nend\n");
        match &f.body[0] {
            Stmt::Do { step, .. } => assert_eq!(*step, -2 + 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrays_and_calls() {
        let src = "function f(v, n)\nreal v(*)\ninteger n\nreal m(10, 20)\nbegin\n\
                   m(1, 2) = v(n) + sqrt(v(1))\n\
                   call helper(m, n)\n\
                   return m(1, 2)\nend\n";
        let f = one(src);
        assert_eq!(f.decls[0].dims, vec![0]);
        assert_eq!(f.decls[2].dims, vec![10, 20]);
        match &f.body[0] {
            Stmt::Assign { name, subs, .. } => {
                assert_eq!(name, "m");
                assert_eq!(subs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &f.body[1] {
            Stmt::Call { name, args, .. } => {
                assert_eq!(name, "helper");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_loop() {
        let f = one("subroutine s(a)\nbegin\nwhile a > 0 do\na = a - 1\nendwhile\nend\n");
        assert!(matches!(&f.body[0], Stmt::While { body, .. } if body.len() == 1));
    }

    #[test]
    fn multiple_functions() {
        let p = parse_program(
            "function a()\nbegin\nreturn 1\nend\n\nsubroutine b()\nbegin\nreturn\nend\n",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn error_reports_line() {
        let e = parse_program("function f()\nbegin\nx = \nend\n").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_program("function f()\nbegin\ndo i = 1, 10, 0\nenddo\nend\n").unwrap_err();
        assert!(e.message.contains("step"));
    }

    #[test]
    fn unary_minus_and_parens() {
        let f = one("function f(a)\nbegin\nreturn -(a + 1) * 2\nend\n");
        match &f.body[0] {
            Stmt::Return { value: Some(Expr::Bin { op: BinExpr::Mul, lhs, .. }), .. } => {
                assert!(matches!(**lhs, Expr::Neg(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
