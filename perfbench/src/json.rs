//! One small JSON value with a writer and a reader — the only emitter
//! the harness uses (results, traces, goldens, `BENCHMARK.json`).
//!
//! Floats are written with `{:?}` (Rust's shortest round-trip form),
//! integers without a fraction so readers that demand whole numbers
//! accept them, and non-finite floats as `null` (JSON has no NaN).
//! Objects keep insertion order, so output is deterministic.

use std::fmt::Write as _;

/// A JSON value. Objects are ordered `(key, value)` lists.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(i64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A `u64` digest as the `0x`-prefixed hex string the harness stores
/// (JSON numbers cannot hold 64 bits exactly).
pub fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

impl Json {
    /// Member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// A hex digest written by [`hex`], back as a `u64`.
    pub fn as_hex(&self) -> Option<u64> {
        u64::from_str_radix(self.as_str()?.strip_prefix("0x")?, 16).ok()
    }

    /// Compact one-line rendering.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files kept in git. A container holding
    /// only scalars stays on one line, so a metric reads
    /// `{"value": 1.5, "unit": "s"}`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let flat = indent.is_none() || items.iter().all(Json::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, flat, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                close(out, items.is_empty(), flat, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                let flat = indent.is_none() || members.iter().all(|(_, v)| v.is_scalar());
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    separate(out, i, flat, indent, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                close(out, members.is_empty(), flat, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn separate(out: &mut String, i: usize, flat: bool, indent: Option<usize>, depth: usize) {
    if i > 0 {
        out.push(',');
    }
    match indent {
        Some(width) if !flat => {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
        _ if i > 0 => out.push(' '),
        _ => {}
    }
}

fn close(out: &mut String, empty: bool, flat: bool, indent: Option<usize>, depth: usize) {
    if let (Some(width), false, false) = (indent, flat, empty) {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting the reader accepts before giving up (its inputs are the
/// harness's own files; this only bounds recursion on a corrupt one).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a member name"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected `:`"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // The scanned bytes are ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("malformed number")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| self.err("short \\u"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid UTF-8"))?;
            out.push_str(chunk);
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                                let low = self.hex4()?;
                                code = 0x10000 + ((code - 0xD800) << 10) + (low & 0x3FF);
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings_and_reads_them_back() {
        let s = "quote\" back\\slash\nnewline\ttab \u{1} é 🦀";
        let text = Json::from(s).compact();
        assert_eq!(text, "\"quote\\\" back\\\\slash\\nnewline\\ttab \\u0001 é 🦀\"");
        assert_eq!(Json::parse(&text).unwrap(), Json::from(s));
        // Escapes only a foreign writer would produce.
        assert_eq!(
            Json::parse(r#""\u00e9\ud83e\udd80\/\b\f""#).unwrap(),
            Json::from("é🦀/\u{8}\u{c}")
        );
    }

    #[test]
    fn floats_round_trip_bit_for_bit_and_integers_stay_whole() {
        for v in [0.1, 1.0, -2.5e-9, 1.0e16, 13_653_348.0, f64::MIN_POSITIVE, 0.30000000000000004] {
            let text = Json::Num(v).compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(Json::from(1000u64).compact(), "1000");
        assert_eq!(Json::parse("1000").unwrap(), Json::Int(1000));
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::Num(1.0).compact(), "1.0");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn documents_round_trip_compact_and_pretty() {
        let doc = obj([
            ("correct", Json::from(true)),
            ("none", Json::Null),
            ("digest", hex(0x5eed)),
            ("empty", Json::Arr(vec![])),
            ("metrics", obj([("wall_s", obj([("value", 1.25.into()), ("unit", "s".into())]))])),
            ("runs", Json::Arr(vec![Json::from(1u64), Json::Arr(vec![Json::from(2u64)])])),
        ]);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
        let pretty = doc.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert!(
            pretty.contains("    \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}\n"),
            "{pretty}"
        );
        assert_eq!(doc.get("digest").and_then(Json::as_hex), Some(0x5eed));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in
            ["", "{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "nul", "{\"a\":1,}", "--1", "\"\\x\""]
        {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    }
}
