//! A minimal JSON value with a recursive-descent parser and a writer —
//! just enough to write the versioned perf report (`results/BENCH.json`)
//! and read it, or a Chrome trace, back in. The repo deliberately carries
//! no serde: `repro` builds a [`Json`] from its typed report and
//! [`Json::render`]s it, and every reader (`chaos`, the tests)
//! [`Json::parse`]s exactly those bytes.
//!
//! Supports the full JSON value grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null). Numbers are `f64`, which is exact
//! for every integer the reports emit (they stay far below 2^53) and is
//! written in Rust's shortest round-trip form.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
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

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, order kept.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// Serialize. Containers nested fewer than `expand` levels deep are
    /// written one item per line, deeper ones on one line; a non-finite
    /// number is written as `null` (JSON has no NaN / Infinity). The
    /// output ends in a newline and parses back to an equal value.
    pub fn render(&self, expand: usize) -> String {
        let mut s = String::new();
        self.write(&mut s, 0, expand);
        s.push('\n');
        s
    }

    fn write(&self, s: &mut String, depth: usize, expand: usize) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => s.push_str(&x.to_string()),
            Json::Num(_) => s.push_str("null"),
            Json::Str(t) => write_string(s, t),
            Json::Arr(v) => write_items(s, ['[', ']'], v.len(), depth, expand, |s, i| {
                v[i].write(s, depth + 1, expand)
            }),
            Json::Obj(v) => write_items(s, ['{', '}'], v.len(), depth, expand, |s, i| {
                write_string(s, &v[i].0);
                s.push_str(": ");
                v[i].1.write(s, depth + 1, expand)
            }),
        }
    }
}

/// The shared layout of arrays and objects: `len` items written by `item`
/// between `brackets`, one per line while `depth < expand`.
fn write_items(
    s: &mut String,
    brackets: [char; 2],
    len: usize,
    depth: usize,
    expand: usize,
    item: impl Fn(&mut String, usize),
) {
    let multiline = depth < expand && len > 0;
    let newline = |s: &mut String, depth: usize| {
        if multiline {
            s.push('\n');
            s.push_str(&"  ".repeat(depth));
        }
    };
    s.push(brackets[0]);
    for i in 0..len {
        newline(s, depth + 1);
        item(s, i);
        if i + 1 < len {
            s.push_str(if multiline { "," } else { ", " });
        }
    }
    newline(s, depth);
    s.push(brackets[1]);
}

fn write_string(s: &mut String, t: &str) {
    s.push('"');
    for c in t.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("invalid \\u escape")?;
                        // Surrogate pairs are not emitted by our writers;
                        // map lone surrogates to the replacement char.
                        s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through untouched).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_shape() {
        let doc = r#"{
            "schema_version": 2, "rev": "abc1234", "mode": "smoke",
            "workloads": [
                {"name": "pack.sss.w1", "total_ms": 1.25, "words": 4096,
                 "stages_ms": {"local": 0.5, "m2m": 0.75},
                 "critpath": null, "density": 0.5, "ok": true}
            ]
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(2.0));
        let w = &v.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("name").unwrap().as_str(), Some("pack.sss.w1"));
        assert_eq!(w.get("total_ms").unwrap().as_f64(), Some(1.25));
        assert_eq!(
            w.get("stages_ms").unwrap().get("m2m").unwrap().as_f64(),
            Some(0.75)
        );
        assert_eq!(w.get("critpath"), Some(&Json::Null));
        assert_eq!(w.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let v = Json::parse("[-1.5e3, 0.25, -0]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(-1500.0));
        assert_eq!(a[1].as_f64(), Some(0.25));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let report = Json::obj([
            ("name", "a\"b\\c\n\u{1}é".into()),
            ("section", Json::Null),
            ("none", None::<u64>.into()),
            ("empty", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("shape", [4usize, 2].into_iter().collect()),
            (
                "nested",
                Json::obj([("x", 0.1.into()), ("ok", true.into())]),
            ),
            ("big", (1u64 << 52).into()),
            ("tiny", (-1.5e-7).into()),
        ]);
        for expand in 0..4 {
            let text = report.render(expand);
            assert_eq!(
                Json::parse(&text).unwrap(),
                report,
                "expand {expand}:\n{text}"
            );
        }
        // Expanded one level: one top-level key per line, values inline.
        let text = Json::obj([("a", [1u64, 2].into_iter().collect()), ("b", Json::Null)]).render(1);
        assert_eq!(text, "{\n  \"a\": [1, 2],\n  \"b\": null\n}\n");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let v = Json::obj([("nan", f64::NAN.into()), ("inf", f64::INFINITY.into())]);
        let back = Json::parse(&v.render(0)).unwrap();
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("inf"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }
}
