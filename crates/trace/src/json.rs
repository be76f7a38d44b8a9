//! The workspace's one JSON module: a small recursive-descent parser and
//! the two helpers every hand-written emitter uses.
//!
//! The workspace has no serde. The exporters in this crate, the
//! observatory's `BENCH_*.json` snapshots and the verifier's reports emit
//! JSON by hand through [`escape`] and [`fmt_num`]; [`validate_json`] is
//! the safety net the tests use to prove the emitted bytes are well-formed
//! per RFC 8259 before a browser or Perfetto ever sees them; and
//! [`Json::parse`] reads snapshots back (`dasp-bench diff` compares two
//! `BENCH_*.json` files). Object keys keep their document order; lookups
//! are linear, which is fine at snapshot scale (tens of workloads, a dozen
//! fields each).

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; snapshot counters fit).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses exactly one JSON document.
    ///
    /// Returns `Err` with a byte offset and description on the first
    /// violation. Accepts the full JSON grammar (objects, arrays, strings
    /// with escapes, numbers, literals) but, like strict parsers, rejects
    /// trailing garbage, trailing commas, bare NaN/Infinity, leading zeros
    /// (`01`) and empty fractions (`1.`).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        skip_ws(input.as_bytes(), &mut pos);
        let v = value(input, &mut pos)?;
        skip_ws(input.as_bytes(), &mut pos);
        if pos != input.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field accessors for schema readers: `get` + type check,
    /// with a path-labelled error.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
    }

    /// Like [`Json::req_f64`] for non-negative integers.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// Like [`Json::req_f64`] for strings.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }
}

/// Checks that `input` is exactly one well-formed JSON value, with the
/// grammar and errors of [`Json::parse`].
pub fn validate_json(input: &str) -> Result<(), String> {
    Json::parse(input).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => object(s, pos),
        Some(b'[') => array(s, pos),
        Some(b'"') => Ok(Json::Str(string(s, pos)?)),
        Some(b't') => literal(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, b"false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, b"null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(s, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, pos)),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn object(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key string at byte {pos}"));
        }
        let key = string(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        members.push((key, value(s, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(s, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    *pos += 1; // opening '"'
    let mut out = String::new();
    // Start of the current run of unescaped bytes. Runs are cut only at
    // ASCII bytes, which never fall inside a multi-byte UTF-8 scalar, so
    // every slice of `s` taken here is on a char boundary.
    let mut run = *pos;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                out.push_str(&s[run..*pos]);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(&s[run..*pos]);
                *pos += 1;
                let ch = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let code = s
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.bytes().all(|h| h.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        // Surrogates are replaced rather than paired; the
                        // emitters in this workspace never write them.
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                };
                out.push(ch);
                *pos += 1;
                run = *pos;
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    let start = *pos;
    let digits = |pos: &mut usize| {
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => digits(pos),
        _ => return Err(format!("bad number at byte {start}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("bad fraction at byte {pos}"));
        }
        digits(pos);
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("bad exponent at byte {pos}"));
        }
        digits(pos);
    }
    s[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added). Every emitter shares this, so every emitted string passes
/// [`validate_json`].
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON-legal number (`null`-free: non-finite
/// values are clamped to 0, which JSON cannot represent otherwise).
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{}` on f64 emits digits (optionally signed, optionally with an
    // exponent), all JSON-legal; inf/NaN were handled above.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            r#"{"a": [1, 2.5, "x\n", {"b": null}], "c": false}"#,
            "  [ 1 , 2 ]  ",
            r#""é""#,
        ] {
            assert!(validate_json(doc).is_ok(), "rejected valid: {doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "[1 2]",
            "NaN",
            "01",
            "1.",
            "\"unterminated",
            "{} extra",
            "\"raw\tcontrol\"", // literal tab byte inside a string
        ] {
            assert!(validate_json(doc).is_err(), "accepted invalid: {doc:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert!(validate_json(&doc).is_ok());
        assert_eq!(Json::parse(&doc).unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn fmt_num_is_json_legal() {
        for v in [0.0, -1.5, 1e-9, 123456789.25, f64::NAN, f64::INFINITY] {
            assert!(validate_json(&fmt_num(v)).is_ok());
        }
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
        let doc = Json::parse(r#"{"a": [1, 2], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().req_str("c").unwrap(), "x");
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{'a':1}", "{} extra", "NaN", "\"open", "01", "1.",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let doc = Json::parse("\"caf\u{e9} \\u0041 \\t\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "café A \t");
        let escaped = format!("\"{}\"", escape("q\" b\\ n\n"));
        assert_eq!(
            Json::parse(&escaped).unwrap().as_str().unwrap(),
            "q\" b\\ n\n"
        );
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn req_accessors_name_the_field() {
        let doc = Json::parse(r#"{"n": "not-a-number"}"#).unwrap();
        let err = doc.req_f64("n").unwrap_err();
        assert!(err.contains("`n`"), "{err}");
        assert!(doc.req_str("n").is_ok());
        assert!(doc.req_u64("absent").is_err());
    }
}
