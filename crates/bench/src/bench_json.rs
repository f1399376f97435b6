//! Minimal JSON emission for machine-readable benchmark snapshots.
//!
//! The `report` binary commits full-effort `BENCH_<id>.json` files at
//! the repo root so CI and downstream tooling can diff performance
//! without parsing the human tables; quick runs write theirs under
//! `target/bench/` instead. No serde (no-deps discipline): a tiny value
//! tree with a deterministic, pretty-printed writer is all the
//! experiments need.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use crate::Effort;

/// A JSON value. Object keys keep insertion order so emitted files are
/// stable across runs (diff-friendly).
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (emitted without a decimal point).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float; non-finite values are emitted as `null`.
    Num(f64),
    /// String (escaped on emission).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// Convenience constructor for objects: `obj([("k", v.into()), ...])`.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn escape_into(out: &mut String, s: &str) {
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

fn render(out: &mut String, v: &Json, indent: usize) {
    const PAD: &str = "  ";
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Json::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Num(f) => {
            if f.is_finite() {
                // Rust's shortest-roundtrip Display is valid JSON for
                // finite doubles; keep integral floats float-typed.
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains('.') {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(out, s),
        Json::Arr(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent + 1));
                render(out, x, indent + 1);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent + 1));
                escape_into(out, k);
                out.push_str(": ");
                render(out, x, indent + 1);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push('}');
        }
    }
}

impl Json {
    /// Pretty-prints (2-space indent, trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        render(&mut out, self, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document (the inverse of [`Json::to_pretty`], and a
    /// superset: any standard JSON text). Numbers parse as [`Json::Num`]
    /// when they carry a fraction or exponent, [`Json::Int`]/
    /// [`Json::UInt`] otherwise. On error returns a human-readable
    /// message with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.at));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric ([`Json::Num`], [`Json::Int`] or
    /// [`Json::UInt`]).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(f) => Some(f),
            Json::Int(n) => Some(n as f64),
            Json::UInt(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogates are not emitted by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let s = &self.bytes[self.at..];
                    let text = unsafe_free_utf8_prefix(s);
                    let c = text.chars().next().ok_or("invalid utf-8 in string")?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|_| "bad number")?;
        if fractional {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

/// The longest valid UTF-8 prefix of `s` (safe counterpart of
/// `from_utf8_unchecked`; parser input comes from a `&str`, so in
/// practice this is total).
fn unsafe_free_utf8_prefix(s: &[u8]) -> &str {
    match std::str::from_utf8(s) {
        Ok(t) => t,
        Err(e) => std::str::from_utf8(&s[..e.valid_up_to()]).unwrap_or(""),
    }
}

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Where the snapshot of experiment `id` at `effort` goes: the
/// committed `BENCH_<id>.json` at the repo root for a full run, and
/// `target/bench/BENCH_<id>.json` for a quick one — a smoke run must
/// never overwrite a committed full-effort snapshot.
pub fn snapshot_path(id: &str, effort: Effort) -> PathBuf {
    let file = format!("BENCH_{id}.json");
    match effort {
        Effort::Full => repo_root().join(file),
        Effort::Quick => repo_root().join("target").join("bench").join(file),
    }
}

/// Writes `value` to [`snapshot_path`], returning the path written.
/// Failures are soft (reported, not fatal): the text report is the
/// primary artifact and must not die on a read-only checkout.
pub fn write_snapshot(id: &str, effort: Effort, value: &Json) -> io::Result<PathBuf> {
    let path = snapshot_path(id, effort);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, value.to_pretty())?;
    Ok(path)
}

/// [`write_snapshot`], folded into a one-line status string for the
/// experiment's text report.
pub fn snapshot_status(id: &str, effort: Effort, value: &Json) -> String {
    match write_snapshot(id, effort, value) {
        Ok(path) => format!("\nmachine-readable snapshot: {}\n", path.display()),
        Err(e) => format!("\nmachine-readable snapshot NOT written (BENCH_{id}.json): {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_snapshots_stay_out_of_the_repo_root() {
        let root = repo_root();
        assert_eq!(
            snapshot_path("e_fleet", Effort::Full),
            root.join("BENCH_e_fleet.json")
        );
        assert_eq!(
            snapshot_path("e_fleet", Effort::Quick),
            root.join("target/bench/BENCH_e_fleet.json")
        );
    }

    #[test]
    fn renders_stable_pretty_json() {
        let v = obj([
            ("experiment", "e_net".into()),
            ("ticks", 300u64.into()),
            ("bytes_per_tick", 812.5f64.into()),
            ("ok", true.into()),
            (
                "runs",
                Json::Arr(vec![obj([("threads", 1usize.into())]), Json::Null]),
            ),
            ("empty", Json::Obj(vec![])),
            ("note", "a \"quoted\"\nline".into()),
        ]);
        let s = v.to_pretty();
        assert!(s.starts_with("{\n"));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("\"experiment\": \"e_net\""));
        assert!(s.contains("\"ticks\": 300"));
        assert!(s.contains("\"bytes_per_tick\": 812.5"));
        assert!(s.contains("\"runs\": ["));
        assert!(s.contains("\"empty\": {}"));
        assert!(s.contains("\\\"quoted\\\"\\nline"));
        assert!(!s.contains("NaN"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let v = obj([("bad", f64::NAN.into()), ("worse", f64::INFINITY.into())]);
        let s = v.to_pretty();
        assert!(s.contains("\"bad\": null"));
        assert!(s.contains("\"worse\": null"));
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = obj([("x", 4.0f64.into())]);
        assert!(v.to_pretty().contains("\"x\": 4.0"));
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = obj([
            ("experiment", "e_fleet".into()),
            ("n", 5000usize.into()),
            ("us_per_tick", 0.8683341295f64.into()),
            ("speedup", Json::Null),
            ("identical", true.into()),
            (
                "runs",
                Json::Arr(vec![
                    obj([("threads", 1usize.into()), ("neg", Json::Int(-3))]),
                    Json::Bool(false),
                ]),
            ),
            ("note", "a \"quoted\"\nline\ttab".into()),
        ]);
        let text = v.to_pretty();
        let parsed = Json::parse(&text).expect("writer output must parse");
        // The value tree round-trips exactly (same pretty form).
        assert_eq!(parsed.to_pretty(), text);
        // Typed accessors find what the schema check needs.
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("e_fleet")
        );
        assert_eq!(
            parsed.get("us_per_tick").and_then(Json::as_f64),
            Some(0.8683341295)
        );
        let runs = parsed.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("neg").and_then(Json::as_f64), Some(-3.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "1.2.3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn parse_handles_escapes_and_exponents() {
        let v = Json::parse(r#"{"s": "aA\n", "e": 1.5e3, "neg": -7}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aA\n"));
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-7.0));
    }
}
