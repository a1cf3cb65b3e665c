//! A minimal JSON reader for the bench artifacts.
//!
//! The workspace has no JSON dependency (offline environment), and the
//! perf-regression gate (`bench_diff`) only needs to *read back* the
//! artifacts this crate's own encoder writes — objects, strings, numbers,
//! `null`. This is a small recursive-descent parser for exactly that
//! grammar (arrays and booleans included for completeness), strict enough
//! to reject damaged artifacts instead of comparing garbage.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64` — the artifacts only carry doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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

    /// The members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = core::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = bytes.get(*pos).ok_or("unterminated escape")?;
                out.push(match escaped {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape '\\{}'", *other as char)),
                });
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 passes through byte-wise; the artifacts
                // are ASCII but copying bytes keeps the parser total.
                out.push(b as char);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let doc = r#"{
            "schema": "egka-service-churn/1",
            "wall_ms": 123.4,
            "coalesce_ratio": null,
            "nested": {"p50": 1.0, "p95": 2.5},
            "suites": {"proposed": {"groups": 10, "energy_mj": 4.25}},
            "list": [1, 2, 3],
            "flag": true
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("egka-service-churn/1")
        );
        assert_eq!(v.get("wall_ms").unwrap().as_f64(), Some(123.4));
        assert_eq!(v.get("coalesce_ratio"), Some(&Json::Null));
        assert_eq!(
            v.get("nested").unwrap().get("p95").unwrap().as_f64(),
            Some(2.5)
        );
        let suites = v.get("suites").unwrap().members().unwrap();
        assert_eq!(suites.len(), 1);
        assert_eq!(suites[0].0, "proposed");
        assert_eq!(suites[0].1.get("energy_mj").unwrap().as_f64(), Some(4.25));
        assert_eq!(
            v.get("list"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.0),
                Json::Num(3.0)
            ]))
        );
        assert_eq!(v.get("flag"), Some(&Json::Bool(true)));
    }

    #[test]
    fn real_churn_artifact_roundtrips_through_the_parser() {
        let report = egka_sim::run_churn(&egka_sim::ChurnConfig {
            groups: 4,
            epochs: 2,
            shards: 2,
            ..egka_sim::ChurnConfig::default()
        });
        let json = crate::churn_preset_json(&report, 1, &[("coalescing", true)]);
        let v = Json::parse(&json).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("rekeys_executed"))
                .and_then(Json::as_f64),
            Some(report.metrics.rekeys_executed as f64)
        );
        assert!(v.get("suites").unwrap().members().is_some());
        assert_eq!(
            v.get("invariants").and_then(|i| i.get("coalescing")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn damage_is_rejected() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
