//! JSONL serialization for [`SpanRecord`]s — one JSON object per line —
//! plus a strict parser used by `jmake-eval trace-check` to validate event
//! logs offline. Hand-rolled because the workspace is dependency-free; the
//! schema is flat (string and integer fields only) so a full JSON parser
//! would be overkill.

use crate::{CacheOutcome, SpanRecord, Stage};

/// Escape `value` for inclusion inside a JSON string literal and return
/// the escaped text. Exposed for other JSONL protocols in the workspace
/// (the `jmake-serve` request/response framing reuses it) so the encoder
/// and the [`JsonParser`] decoder cannot drift apart.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    escape_into(&mut out, value);
    out
}

/// Serialize one record as a single JSON line (no trailing newline).
/// Optional fields are omitted when absent.
pub fn to_json_line(record: &SpanRecord) -> String {
    let mut out = String::with_capacity(96);
    out.push('{');
    push_str_field(&mut out, "stage", record.stage.map(Stage::name).unwrap_or(""));
    if let Some(patch) = &record.patch {
        push_str_field(&mut out, "patch", patch);
    }
    if let Some(file) = &record.file {
        push_str_field(&mut out, "file", file);
    }
    if let Some(arch) = &record.arch {
        push_str_field(&mut out, "arch", arch);
    }
    if let Some(config) = &record.config {
        push_str_field(&mut out, "config", config);
    }
    push_num_field(&mut out, "host_us", record.host_us);
    push_num_field(&mut out, "virtual_us", record.virtual_us);
    if let Some(cache) = record.cache {
        push_str_field(&mut out, "cache", cache.name());
    }
    out.push('}');
    out
}

fn push_sep(out: &mut String) {
    if !out.ends_with('{') {
        out.push(',');
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    push_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

fn push_num_field(out: &mut String, key: &str, value: u64) {
    push_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn escape_into(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Parse one JSONL line back into a [`SpanRecord`]. Strict: unknown keys,
/// unknown stage or cache names, and malformed JSON are all errors.
pub fn parse_line(line: &str) -> Result<SpanRecord, String> {
    let mut p = JsonParser::new(line.trim());
    p.expect('{')?;
    let mut record = SpanRecord::default();
    let mut saw_stage = false;
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        match key.as_str() {
            "stage" => {
                let name = p.string()?;
                record.stage =
                    Some(Stage::from_name(&name).ok_or_else(|| format!("unknown stage {name:?}"))?);
                saw_stage = true;
            }
            "patch" => record.patch = Some(p.string()?),
            "file" => record.file = Some(p.string()?),
            "arch" => record.arch = Some(p.string()?),
            "config" => record.config = Some(p.string()?),
            "host_us" => record.host_us = p.number()?,
            "virtual_us" => record.virtual_us = p.number()?,
            "cache" => {
                let name = p.string()?;
                record.cache = Some(
                    CacheOutcome::from_name(&name)
                        .ok_or_else(|| format!("unknown cache outcome {name:?}"))?,
                );
            }
            other => return Err(format!("unknown field {other:?}")),
        }
        p.skip_ws();
        if !p.eat(',') {
            p.expect('}')?;
            break;
        }
    }
    p.skip_ws();
    if !p.at_end() {
        return Err("trailing content after object".to_owned());
    }
    if !saw_stage {
        return Err("missing required field \"stage\"".to_owned());
    }
    Ok(record)
}

/// Parse a whole event log, skipping blank lines. Errors carry the 1-based
/// line number.
pub fn parse(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(records)
}

/// One line of an event log: a completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceLine {
    /// A completed [`SpanRecord`].
    Span(SpanRecord),
}

/// Parse one JSONL line of an event log. Strict, like [`parse_line`].
pub fn parse_any(line: &str) -> Result<TraceLine, String> {
    parse_line(line).map(TraceLine::Span)
}

/// Minimal hand-rolled JSON scanner shared by the trace-log parser above
/// and the other JSONL protocols in the workspace (`jmake-serve` framing).
/// It exposes exactly the primitives a flat, known-key object needs:
/// [`expect`](Self::expect)/[`eat`](Self::eat) for punctuation,
/// [`string`](Self::string) and [`number`](Self::number) for scalars.
///
/// String decoding follows RFC 8259: `\u` escapes in the UTF-16 surrogate
/// range combine in pairs (a high surrogate must be followed by a `\u`-escaped
/// low surrogate), so text that stock JSON encoders emit for non-BMP
/// characters — emoji in commit subjects, say — round-trips. Lone or
/// mismatched surrogates are rejected with a descriptive error.
pub struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl<'a> JsonParser<'a> {
    /// Start scanning `src` from the beginning.
    pub fn new(src: &'a str) -> Self {
        JsonParser {
            chars: src.char_indices().peekable(),
            src,
        }
    }

    /// Skip ASCII whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    /// Consume exactly `want` or fail.
    pub fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of line")),
        }
    }

    /// Consume `want` if it is next; report whether it was.
    pub fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    /// True when the input is exhausted.
    pub fn at_end(&mut self) -> bool {
        self.chars.peek().is_none()
    }

    /// Read the four hex digits of a `\u` escape body (the `\u` itself has
    /// already been consumed).
    fn hex4(&mut self, start: usize) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some((_, c)) = self.chars.next() else {
                return Err("truncated \\u escape".to_owned());
            };
            let digit = c
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// Decode one `\u` escape starting after its `u`, consuming the paired
    /// low-surrogate escape when `code` is a high surrogate.
    fn unicode_escape(&mut self, start: usize) -> Result<char, String> {
        let code = self.hex4(start)?;
        match code {
            // High surrogate: must be followed by an escaped low surrogate;
            // the pair combines into one supplementary-plane scalar.
            0xD800..=0xDBFF => {
                if !(self.eat('\\') && self.eat('u')) {
                    return Err(format!(
                        "lone high surrogate \\u{code:04x}: expected a \\uDC00-\\uDFFF low \
                         surrogate escape to follow"
                    ));
                }
                let lo = self.hex4(start)?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(format!(
                        "mismatched surrogate pair \\u{code:04x}\\u{lo:04x}: second escape \
                         is not a \\uDC00-\\uDFFF low surrogate"
                    ));
                }
                let combined = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(combined)
                    .ok_or_else(|| format!("invalid codepoint \\u{combined:04x}"))
            }
            0xDC00..=0xDFFF => Err(format!(
                "lone low surrogate \\u{code:04x}: low surrogates are only valid \
                 immediately after a \\uD800-\\uDBFF high surrogate escape"
            )),
            _ => char::from_u32(code).ok_or_else(|| format!("invalid codepoint \\u{code:04x}")),
        }
    }

    /// Parse a quoted JSON string (including the opening `"`).
    pub fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".to_owned()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, '/')) => out.push('/'),
                    Some((start, 'u')) => out.push(self.unicode_escape(start)?),
                    Some((i, c)) => return Err(format!("bad escape \\{c} at byte {i}")),
                    None => return Err("truncated escape".to_owned()),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    /// Parse a JSON `true`/`false` literal.
    pub fn boolean(&mut self) -> Result<bool, String> {
        let (word, value) = if self.eat('t') {
            ("rue", true)
        } else if self.eat('f') {
            ("alse", false)
        } else {
            return Err("expected boolean".to_owned());
        };
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    /// Parse a non-negative integer.
    pub fn number(&mut self) -> Result<u64, String> {
        let start = match self.chars.peek() {
            Some((i, c)) if c.is_ascii_digit() => *i,
            _ => return Err("expected number".to_owned()),
        };
        let mut end = start;
        while let Some((i, c)) = self.chars.peek() {
            if c.is_ascii_digit() {
                end = *i + 1;
                self.chars.next();
            } else {
                break;
            }
        }
        self.src[start..end]
            .parse::<u64>()
            .map_err(|e| format!("bad number: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_full_record() {
        let record = SpanRecord {
            stage: Some(Stage::ConfigSolve),
            patch: Some("42".to_owned()),
            file: Some("drivers/net/\"weird\".c".to_owned()),
            arch: Some("x86".to_owned()),
            config: Some("custom:CONFIG_FOO=y".to_owned()),
            host_us: 1234,
            virtual_us: 5_000_000,
            cache: Some(CacheOutcome::Hit),
        };
        let line = to_json_line(&record);
        assert_eq!(parse_line(&line), Ok(record));
    }

    #[test]
    fn round_trips_a_minimal_record() {
        let record = SpanRecord {
            stage: Some(Stage::Checkout),
            host_us: 9,
            ..SpanRecord::default()
        };
        let line = to_json_line(&record);
        assert_eq!(line, r#"{"stage":"checkout","host_us":9,"virtual_us":0}"#);
        assert_eq!(parse_line(&line), Ok(record));
    }

    #[test]
    fn rejects_unknown_stage_and_unknown_field() {
        assert!(parse_line(r#"{"stage":"warp","host_us":1,"virtual_us":0}"#)
            .unwrap_err()
            .contains("unknown stage"));
        assert!(parse_line(r#"{"stage":"check","bogus":"x","host_us":1,"virtual_us":0}"#)
            .unwrap_err()
            .contains("unknown field"));
        assert!(parse_line(r#"{"host_us":1,"virtual_us":0}"#)
            .unwrap_err()
            .contains("stage"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"stage":"check""#).is_err());
        assert!(parse_line(r#"{"stage":"check"} trailing"#).is_err());
    }

    #[test]
    fn parse_skips_blank_lines_and_reports_line_numbers() {
        let text = "\n{\"stage\":\"show\",\"host_us\":1,\"virtual_us\":0}\n\n";
        assert_eq!(parse(text).unwrap().len(), 1);
        let bad = "{\"stage\":\"show\",\"host_us\":1,\"virtual_us\":0}\nnope\n";
        assert!(parse(bad).unwrap_err().starts_with("line 2:"));
    }

    #[test]
    fn round_trips_non_bmp_text_through_encoder() {
        // Our own encoder emits non-BMP characters raw (valid JSON); the
        // parser must hand them back unchanged.
        let record = SpanRecord {
            stage: Some(Stage::Show),
            patch: Some("fix 😀 oops \u{1F600}\u{10FFFF}".to_owned()),
            file: Some("drivers/net/émoji_\u{1D11E}.c".to_owned()),
            ..SpanRecord::default()
        };
        let line = to_json_line(&record);
        assert_eq!(parse_line(&line), Ok(record));
    }

    #[test]
    fn decodes_surrogate_pair_escapes() {
        // Stock JSON encoders (serde_json with ASCII escaping, Python's
        // json.dumps, JavaScript's JSON.stringify) emit non-BMP characters
        // as UTF-16 surrogate pairs; the parser must combine them.
        let line = r#"{"stage":"show","patch":"\ud83d\ude00","host_us":1,"virtual_us":0}"#;
        let record = parse_line(line).unwrap();
        assert_eq!(record.patch.as_deref(), Some("😀"));

        // Highest scalar value U+10FFFF.
        let line = r#"{"stage":"show","patch":"\udbff\udfff","host_us":1,"virtual_us":0}"#;
        assert_eq!(
            parse_line(line).unwrap().patch.as_deref(),
            Some("\u{10FFFF}")
        );

        // Pairs mixed with surrounding text and other escapes.
        let line = r#"{"stage":"show","patch":"a\tb \ud834\udd1e c","host_us":1,"virtual_us":0}"#;
        assert_eq!(
            parse_line(line).unwrap().patch.as_deref(),
            Some("a\tb \u{1D11E} c")
        );
    }

    #[test]
    fn accepts_shorthand_escapes_other_encoders_emit() {
        let line = r#"{"stage":"show","patch":"a\bb\ff","host_us":1,"virtual_us":0}"#;
        assert_eq!(
            parse_line(line).unwrap().patch.as_deref(),
            Some("a\u{8}b\u{c}f")
        );
    }

    #[test]
    fn rejects_lone_and_mismatched_surrogates_with_clear_errors() {
        // Lone high surrogate at end of string.
        let err = parse_line(r#"{"stage":"show","patch":"\ud83d","host_us":1,"virtual_us":0}"#)
            .unwrap_err();
        assert!(err.contains("lone high surrogate \\ud83d"), "{err}");

        // High surrogate followed by a non-escape character.
        let err = parse_line(r#"{"stage":"show","patch":"\ud83dx","host_us":1,"virtual_us":0}"#)
            .unwrap_err();
        assert!(err.contains("lone high surrogate"), "{err}");

        // High surrogate followed by an escaped non-surrogate.
        let err = parse_line(
            r#"{"stage":"show","patch":"\ud83d\u0041","host_us":1,"virtual_us":0}"#,
        )
        .unwrap_err();
        assert!(err.contains("mismatched surrogate pair"), "{err}");

        // Two high surrogates in a row.
        let err =
            parse_line(r#"{"stage":"show","patch":"\ud83d\ud83d","host_us":1,"virtual_us":0}"#)
                .unwrap_err();
        assert!(err.contains("mismatched surrogate pair"), "{err}");

        // Lone low surrogate.
        let err = parse_line(r#"{"stage":"show","patch":"\ude00","host_us":1,"virtual_us":0}"#)
            .unwrap_err();
        assert!(err.contains("lone low surrogate \\ude00"), "{err}");
    }

    #[test]
    fn escape_helper_matches_encoder() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("😀"), "😀");
    }

    #[test]
    fn escapes_control_characters() {
        let record = SpanRecord {
            stage: Some(Stage::Show),
            file: Some("a\u{1}b\nc".to_owned()),
            ..SpanRecord::default()
        };
        let line = to_json_line(&record);
        assert!(line.contains("\\u0001"));
        assert!(line.contains("\\n"));
        assert_eq!(parse_line(&line).unwrap().file.as_deref(), Some("a\u{1}b\nc"));
    }
}
