//! The workspace's one JSON codec: a value type, a writer, and a parser,
//! with zero dependencies.
//!
//! Every JSON document the workspace reads or writes goes through it:
//! the serve protocol and flight recorder, trace exports, the Table 1
//! record, the metrics render, and `epre lint --json`.
//!
//! Deliberately narrower than full JSON where no document needs the
//! width: numbers are unsigned 64-bit integers (every numeric field is a
//! count, a port, or a microsecond or millisecond quantity), and object
//! keys are kept in insertion order so encodings are deterministic. The
//! parser accepts any standard JSON document built from those shapes and
//! nested at most 64 arrays and objects deep, and rejects the rest with a
//! positioned error.

use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so the bound keeps a hostile frame
/// from overflowing the stack; the deepest document the workspace
/// writes, a Chrome trace event's counters, nests 5 levels.
const MAX_DEPTH: usize = 64;

/// A JSON value restricted to the codec's shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape the codec handles).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys rejected at parse.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object (`None` for other shapes).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields in insertion order, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render to a compact single-line JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                use fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A convenience constructor for object literals.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected 'null'"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("expected 'true'"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected 'false'"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(
                        self.err(&format!("arrays and objects nested deeper than {MAX_DEPTH}"))
                    );
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(
                "unexpected character (negative and float numbers are \
                                     outside the protocol's JSON subset)",
            )),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("float numbers are outside the protocol's JSON subset"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if text.len() > 1 && text.starts_with('0') {
            return Err(self.err("numbers may not have leading zeros"));
        }
        text.parse::<u64>().map(Json::U64).map_err(|_| self.err("integer out of u64 range"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: the protocol escapes only
                            // control characters, but a conforming client
                            // may send any string.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // step off the high escape's last digit
                                if !self.eat("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos -= 1; // hex4 wants pos on the 'u'
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control character at once. It ends on an ASCII byte,
                    // so it is whole UTF-8 (the input is a &str), and
                    // validating only the run keeps a string linear to
                    // parse: a module text is one string of many KiB.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Parse the 4 hex digits of a `\uXXXX` escape. On entry `pos` is on
    /// the `u`; on exit it is on the final hex digit (the caller's shared
    /// `pos += 1` then steps past it).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            cp = (cp << 4) | d;
        }
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() {
        let v = obj(vec![
            ("kind", Json::Str("optimize".into())),
            ("deadline_ms", Json::U64(5000)),
            ("stream", Json::Bool(true)),
            ("nothing", Json::Null),
            ("frames", Json::Arr(vec![Json::U64(1), Json::Str("x".into())])),
        ]);
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"kind":"optimize","deadline_ms":5000,"stream":true,"nothing":null,"frames":[1,"x"]}"#
        );
    }

    #[test]
    fn escapes_and_unescapes_module_text() {
        let module = "function tri(n)\n\tinteger n\nbegin\nreturn n \"quoted\" \\ end\n";
        let v = Json::Str(module.to_string());
        let parsed = parse(&v.encode()).unwrap();
        assert_eq!(parsed.as_str(), Some(module));
    }

    #[test]
    fn parses_unicode_escapes_including_surrogate_pairs() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate is rejected");
    }

    #[test]
    fn rejects_out_of_subset_documents() {
        for bad in [
            "-1",
            "1.5",
            "1e3",
            "01",
            "{\"a\":1,\"a\":2}",
            "[1,]",
            "\"\u{1}\"",
            "x",
            "{\"a\" 1}",
            "[1 2]",
            "\"abc",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Unescaped raw control characters are rejected too.
        assert!(parse("\"a\u{2}b\"").is_err());
    }

    #[test]
    fn accessors_are_typed() {
        let v = parse(r#"{"n":3,"s":"x","b":false,"a":[]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").and_then(Json::as_str), None);
    }

    #[test]
    fn big_u64_roundtrips() {
        let v = Json::U64(u64::MAX);
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn escaping_covers_control_chars() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\te\u{1}".into()).encode(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn nesting_is_refused_past_the_bound_with_its_position() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&arrays(MAX_DEPTH + 1)).unwrap_err().at, MAX_DEPTH);
        // Objects count too: the refused `{` is the 65th, after 64
        // five-byte `{"a":` prefixes.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().at, 5 * MAX_DEPTH);
    }

    #[test]
    fn a_million_open_brackets_fail_on_a_small_stack() {
        // Recursion per bracket would overflow this 256 KiB stack and
        // abort the test binary.
        let text = "[".repeat(1_000_000);
        let result = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || parse(&text).map_err(|e| e.at))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(result, Err(MAX_DEPTH));
    }

    /// SplitMix64: the crate takes no dependency, not even on the
    /// harness's generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// Every character with an escape of its own, other control
    /// characters, and non-ASCII inside and beyond the Basic
    /// Multilingual Plane (a surrogate pair when spelled as `\u`).
    const CHARS: [char; 20] = [
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'a',
        'Z',
        ' ',
        'é',
        '\u{2028}',
        '\u{ffff}',
        '😀',
        '\u{10ffff}',
    ];

    fn gen_string(rng: &mut Rng) -> String {
        (0..rng.below(6)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
    }

    /// A random value with at most `budget` containers, none deeper
    /// than the bound.
    fn gen_value(rng: &mut Rng, depth: usize, budget: &mut u32) -> Json {
        let shapes = if depth < MAX_DEPTH && *budget > 0 { 7 } else { 5 };
        match rng.below(shapes) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::U64([0, 9, u64::MAX, rng.below(u64::MAX)][rng.below(4) as usize]),
            3 | 4 => Json::Str(gen_string(rng)),
            5 => {
                *budget -= 1;
                Json::Arr((0..rng.below(4)).map(|_| gen_value(rng, depth + 1, budget)).collect())
            }
            _ => {
                *budget -= 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                for _ in 0..rng.below(4) {
                    let key = gen_string(rng);
                    if fields.iter().all(|(k, _)| *k != key) {
                        let v = gen_value(rng, depth + 1, budget);
                        fields.push((key, v));
                    }
                }
                Json::Obj(fields)
            }
        }
    }

    /// Another standard spelling of `v`: whitespace around tokens, and
    /// each character raw, as its short escape or as `\u` escapes, at
    /// random.
    fn spell(v: &Json, rng: &mut Rng, out: &mut String) {
        let ws = |rng: &mut Rng, out: &mut String| {
            for _ in 0..rng.below(3) {
                out.push([' ', '\t', '\n', '\r'][rng.below(4) as usize]);
            }
        };
        ws(rng, out);
        match v {
            Json::Str(s) => spell_str(s, rng, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spell(item, rng, out);
                }
                ws(rng, out);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    spell_str(k, rng, out);
                    ws(rng, out);
                    out.push(':');
                    spell(item, rng, out);
                }
                ws(rng, out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.encode()),
        }
        ws(rng, out);
    }

    fn spell_str(s: &str, rng: &mut Rng, out: &mut String) {
        use fmt::Write as _;
        out.push('"');
        for c in s.chars() {
            let short = match c {
                '"' | '\\' | '/' => Some(c),
                '\n' => Some('n'),
                '\r' => Some('r'),
                '\t' => Some('t'),
                '\u{8}' => Some('b'),
                '\u{c}' => Some('f'),
                _ => None,
            };
            match (rng.below(3), short) {
                (0, _) if c >= ' ' && c != '"' && c != '\\' => out.push(c),
                (1, Some(short)) => {
                    out.push('\\');
                    out.push(short);
                }
                _ => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        let _ = if rng.below(2) == 0 {
                            write!(out, "\\u{unit:04x}")
                        } else {
                            write!(out, "\\u{unit:04X}")
                        };
                    }
                }
            }
        }
        out.push('"');
    }

    #[test]
    fn parse_inverts_encode_and_every_other_spelling() {
        let mut rng = Rng(0x5eed_0029);
        for case in 0..4_000 {
            let v = if case % 8 == 0 {
                // As deep as the bound allows.
                let mut v = gen_value(&mut rng, MAX_DEPTH, &mut 0);
                for _ in 0..MAX_DEPTH {
                    v = if rng.below(2) == 0 {
                        Json::Arr(vec![v])
                    } else {
                        Json::Obj(vec![(gen_string(&mut rng), v)])
                    };
                }
                v
            } else {
                gen_value(&mut rng, 0, &mut 24)
            };
            assert_eq!(parse(&v.encode()).as_ref(), Ok(&v), "case {case}");
            let mut spelled = String::new();
            spell(&v, &mut rng, &mut spelled);
            assert_eq!(parse(&spelled).as_ref(), Ok(&v), "case {case}: {spelled:?}");
        }
    }
}
