//! A dependency-free JSON value: construction, emission, and parsing.
//!
//! The build environment vendors no `serde`, so structured output is
//! emitted through this small value type instead.  Emission is
//! deterministic (object keys keep insertion order, floats use Rust's
//! shortest round-trip formatting), which is what makes the `--json`
//! golden tests stable across runs.

use std::fmt;

use pmss_error::PmssError;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also used for non-finite floats.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a field on an object, builder-style.
    ///
    /// # Panics
    /// Panics when `self` is not an object — a construction bug, not a
    /// data error.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on objects; `None` for anything else.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line emission.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None, 0);
        out
    }

    /// Pretty emission with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn emit(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip formatting; integers print bare,
                    // and huge magnitudes take an exponent, not 300 digits.
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else if n.abs() >= 1e21 {
                        out.push_str(&format!("{n:e}"));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => emit_str(out, s),
            Json::Arr(items) => emit_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].emit(out, indent, depth + 1)
            }),
            Json::Obj(fields) => emit_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                emit_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.emit(out, indent, depth + 1)
            }),
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, PmssError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(PmssError::malformed(
                "json",
                format!("trailing characters at byte {}", p.pos),
            ));
        }
        Ok(v)
    }
}

fn emit_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn emit_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl From<&[f64]> for Json {
    fn from(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts.  The parser
/// recurses per level and its input arrives from `--spec` files and `pmssd`
/// frames, so without a bound a few megabytes of `[` overflow the stack and
/// abort the process; a `ScenarioSpec` nests four levels.
const MAX_DEPTH: usize = 128;

/// A key that `fields` holds more than once, if any.  [`Json::get`] reads
/// the first copy where other readers take the last, so a document with
/// both would mean different things to different readers; the parser
/// rejects it instead.  Sorting the keys keeps the check `O(k log k)` in
/// the key count, which a 64 MiB daemon frame can make millions.
fn duplicate_key(fields: &[(String, Json)]) -> Option<&str> {
    if fields.len() < 2 {
        return None;
    }
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> PmssError {
        PmssError::malformed("json", format!("{} at byte {}", detail.into(), self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), PmssError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, PmssError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    /// Parses one value sitting `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, PmssError> {
        if depth == MAX_DEPTH && matches!(self.peek(), Some(b'[' | b'{')) {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return match duplicate_key(&fields) {
                                Some(key) => Err(self.err(format!("duplicate key {key:?}"))),
                                None => Ok(Json::Obj(fields)),
                            };
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, PmssError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates fall back to the replacement char;
                            // the emitter never produces them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, PmssError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_emits_objects_in_order() {
        let j = Json::obj()
            .field("b", 2.0)
            .field("a", 1.5)
            .field("s", "x\"y")
            .field("v", vec![1.0, 2.0]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"b":2,"a":1.5,"s":"x\"y","v":[1,2]}"#
        );
    }

    #[test]
    fn round_trips_through_parse() {
        let j = Json::obj()
            .field("name", "quick")
            .field("nodes", 16.0)
            .field("caps", vec![1700.0, 900.5])
            .field("flag", true)
            .field("none", Json::Null);
        let text = j.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn parses_escapes_and_nested_structures() {
        let j = Json::parse(r#"{"a": [1, {"b": "x\ny"}], "c": -2.5e3}"#).unwrap();
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
        assert_eq!(j.get("c").unwrap().as_f64(), Some(-2500.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"abc"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let err = Json::parse(&unit.repeat(10_000)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than"), "{err}");
        }
        // The bound is on open containers, not on document size.
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&deep).is_ok());
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn duplicate_keys_are_a_typed_error_at_any_depth() {
        for bad in [
            r#"{"nodes":16,"nodes":9e9}"#,
            r#"{"a":1,"b":2,"a":1}"#,
            r#"[{"x":{"k":true,"k":false}}]"#,
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                matches!(err, PmssError::MalformedData { .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("duplicate key"), "{err}");
        }
        // The same key in sibling objects is not a duplicate.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
        assert!(Json::parse(r#"{"a":{"a":1},"b":{"a":2}}"#).is_ok());
    }

    /// 200 000 distinct keys parse in one sort (a pairwise check would
    /// make 2 × 10¹⁰ comparisons), and one repeated key among them is found.
    #[test]
    fn duplicate_check_is_not_quadratic_in_the_key_count() {
        let body: Vec<String> = (0..200_000).map(|i| format!("\"k{i}\":0")).collect();
        let doc = format!("{{{}}}", body.join(","));
        assert!(Json::parse(&doc).is_ok());
        let dup = format!("{{{},\"k999\":1}}", body.join(","));
        let err = Json::parse(&dup).unwrap_err();
        assert!(err.to_string().contains(r#"duplicate key "k999""#), "{err}");
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn numbers_keep_their_bytes_below_1e21_and_take_an_exponent_from_it() {
        let emit = |n: f64| Json::Num(n).to_string_compact();
        assert_eq!(emit(-0.0), "0");
        assert_eq!(emit(1e15), "1000000000000000");
        assert_eq!(emit(9.99e20), "999000000000000000000");
        assert_eq!(
            emit(0.0000000009313225746154785),
            "0.0000000009313225746154785"
        );
        assert_eq!(emit(1e21), "1e21");
        assert_eq!(emit(-1e300), "-1e300");
        assert_eq!(emit(f64::MAX), "1.7976931348623157e308");
    }

    proptest::proptest! {
        /// Every finite bit pattern but `-0.0` (which emits as `0`) parses
        /// back to the same bits: the case's mantissa and sign under every
        /// finite exponent.
        #[test]
        fn every_finite_number_survives_emit_and_parse(bits in 0u64..=u64::MAX) {
            for exp in 0..0x7ffu64 {
                let n = f64::from_bits(bits & !(0x7ff << 52) | exp << 52);
                if n.to_bits() == (-0.0f64).to_bits() {
                    continue;
                }
                let back = Json::parse(&Json::Num(n).to_string_compact()).unwrap();
                proptest::prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(n.to_bits()));
            }
        }
    }

    #[test]
    fn field_replaces_existing_keys() {
        let j = Json::obj().field("a", 1.0).field("a", 2.0);
        assert_eq!(j.to_string_compact(), r#"{"a":2}"#);
    }
}
