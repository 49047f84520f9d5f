//! The datalog-corpus line format and its resilient parser.
//!
//! A corpus is line-oriented: one failing device per line, in either of two
//! interchangeable shapes (a single corpus may mix them freely):
//!
//! ```text
//! # comment lines and blank lines are ignored
//! dev-000001 01X0/1100/0X11
//! {"device":"dev-000002","obs":"0110/1100/0011"}
//! ```
//!
//! The observation uses the serve protocol's shapes: pass/fail
//! dictionaries take one `k`-bit ternary signature, same/different and
//! full dictionaries take `k` slash-separated `m`-bit ternary per-test
//! responses (`0`/`1` known, `X`/`x`/`-` masked — the
//! [`MaskedBitVec`] alphabet).
//!
//! Parsing is *resilient by contract*: a malformed line is classified into
//! a [`SkipReason`], counted, and skipped — it never aborts the run and
//! never disturbs the diagnosis of neighboring devices. This is what makes
//! the ingester safe against the tester-side corruption classes
//! ([`sdd_sim::CorruptionModel`] truncation, masking, and bit flips plus
//! plain file mangling).

use sdd_logic::MaskedBitVec;
use sdd_store::DictionaryKind;

/// Maximum accepted device-id length, in bytes.
pub const MAX_DEVICE_ID: usize = 64;

/// The observation dimensions one corpus must conform to, fixed by the
/// dictionary it will be diagnosed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Dictionary kind — selects signature vs. per-test responses.
    pub kind: DictionaryKind,
    /// Number of tests `k`.
    pub tests: usize,
    /// Observed outputs `m` per response (unused for pass/fail).
    pub outputs: usize,
}

/// One device's parsed observation, in the shape [`Shape::kind`] expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A `k`-bit (possibly partial) pass/fail signature.
    Signature(MaskedBitVec),
    /// Per-test output responses, one per test.
    Responses(Vec<MaskedBitVec>),
}

/// Why a corpus line was skipped. Every reason maps to a stable one-word
/// token that appears in skipped-record report lines and the summary's
/// `skip_reasons` map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// The line ended before the observation (device id alone).
    Truncated,
    /// The device id is empty, too long, or uses characters outside
    /// `[A-Za-z0-9_.:-]`.
    BadDeviceId,
    /// The observation contains characters outside the ternary alphabet,
    /// or the line carries trailing garbage after the observation.
    BadObservation,
    /// A `{`-prefixed line without the `"device"` and `"obs"` string
    /// fields the JSONL shape requires.
    BadJson,
    /// A signature or response of the wrong bit width.
    Width,
    /// The wrong number of per-test responses.
    Count,
}

impl SkipReason {
    /// The stable report token.
    pub fn token(self) -> &'static str {
        match self {
            SkipReason::Truncated => "truncated",
            SkipReason::BadDeviceId => "bad-device-id",
            SkipReason::BadObservation => "bad-observation",
            SkipReason::BadJson => "bad-json",
            SkipReason::Width => "width",
            SkipReason::Count => "count",
        }
    }
}

/// The outcome of parsing one corpus line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A blank or `#`-comment line — not a record at all.
    Ignored,
    /// A well-formed device record.
    Record {
        /// The device id.
        device: String,
        /// Its observation, already validated against the [`Shape`].
        observation: Observation,
    },
    /// A malformed record: counted and skipped, never fatal.
    Skip {
        /// The device id, when it could still be recovered.
        device: Option<String>,
        /// The classification.
        reason: SkipReason,
    },
}

/// Is `id` an acceptable device id? (1..=[`MAX_DEVICE_ID`] bytes of
/// `[A-Za-z0-9_.:-]` — a charset that needs no JSON escaping.)
pub fn valid_device_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_DEVICE_ID
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// Parses one corpus line against `shape`.
///
/// Never fails: malformed lines come back as [`Parsed::Skip`] with the
/// reason classified, so a corrupted corpus degrades record-by-record.
///
/// # Example
///
/// ```
/// use sdd_store::DictionaryKind;
/// use sdd_volume::corpus::{parse_line, Parsed, Shape, SkipReason};
///
/// let shape = Shape { kind: DictionaryKind::PassFail, tests: 3, outputs: 0 };
/// assert!(matches!(parse_line("dev-1 01X", &shape), Parsed::Record { .. }));
/// assert!(matches!(parse_line("# a comment", &shape), Parsed::Ignored));
/// assert!(matches!(
///     parse_line("dev-2 01", &shape),
///     Parsed::Skip { reason: SkipReason::Width, .. }
/// ));
/// ```
pub fn parse_line(line: &str, shape: &Shape) -> Parsed {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Parsed::Ignored;
    }
    let (device, obs) = if line.starts_with('{') {
        let device = json_string_field(line, "device");
        match (device, json_string_field(line, "obs")) {
            (Some(device), Some(obs)) => (device, obs),
            (device, _) => return skip(device, SkipReason::BadJson),
        }
    } else {
        // The line is trimmed, so a whitespace run always separates two
        // tokens: a split device token has an observation after it, and a
        // split observation token has trailing garbage.
        let Some((device, obs)) = split_token(line) else {
            return skip(Some(line), SkipReason::Truncated);
        };
        if split_token(obs).is_some() {
            return skip(Some(device), SkipReason::BadObservation);
        }
        (device, obs)
    };
    if !valid_device_id(device) {
        return Parsed::Skip {
            device: None,
            reason: SkipReason::BadDeviceId,
        };
    }
    match parse_observation(obs, shape) {
        Ok(observation) => Parsed::Record {
            device: device.to_owned(),
            observation,
        },
        Err(reason) => Parsed::Skip {
            device: Some(device.to_owned()),
            reason,
        },
    }
}

/// A skipped record that keeps its device id only when the id is valid.
fn skip(device: Option<&str>, reason: SkipReason) -> Parsed {
    Parsed::Skip {
        device: device.filter(|d| valid_device_id(d)).map(str::to_owned),
        reason,
    }
}

/// Splits `s` at its first whitespace run into the token before it and the
/// text after it, or `None` when `s` holds no whitespace. Whitespace is
/// [`char::is_whitespace`], as for [`str::split_whitespace`]; the scan steps
/// over printable ASCII bytewise and decodes a char only at the others.
fn split_token(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut at = 0;
    loop {
        at += first_unprintable(&bytes[at..])?;
        // `at` sits on a char boundary: only whole chars were stepped over.
        let c = match bytes[at] {
            b if b.is_ascii() => char::from(b),
            _ => s[at..].chars().next()?,
        };
        if c.is_whitespace() {
            return Some((&s[..at], s[at..].trim_start()));
        }
        at += c.len_utf8();
    }
}

/// Offset of the first byte that is not printable ASCII. Each 16-byte
/// block is tested with a fold that does not stop early, so it vectorizes.
fn first_unprintable(bytes: &[u8]) -> Option<usize> {
    let block = bytes.chunks(16).position(|block| {
        block
            .iter()
            .fold(false, |hit, b| hit | !b.is_ascii_graphic())
    })?;
    let rest = &bytes[block * 16..];
    Some(block * 16 + rest.iter().position(|b| !b.is_ascii_graphic())?)
}

/// Parses and shape-checks one observation token.
fn parse_observation(obs: &str, shape: &Shape) -> Result<Observation, SkipReason> {
    let response = |token: &str, width: usize| {
        let parsed: MaskedBitVec = token.parse().map_err(|_| SkipReason::BadObservation)?;
        if parsed.len() == width {
            Ok(parsed)
        } else {
            Err(SkipReason::Width)
        }
    };
    match shape.kind {
        DictionaryKind::PassFail => {
            if obs.contains('/') {
                // Per-test responses offered to a pass/fail dictionary:
                // the response *count* is what disagrees with the shape.
                return Err(SkipReason::Count);
            }
            response(obs, shape.tests).map(Observation::Signature)
        }
        DictionaryKind::SameDifferent | DictionaryKind::Full => {
            // `/` is one byte that never occurs inside a multi-byte char,
            // so counting bytes counts the tokens `split('/')` yields. A
            // `u8` count per 255-byte block vectorizes.
            let count = 1 + obs
                .as_bytes()
                .chunks(255)
                .map(|block| usize::from(block.iter().fold(0u8, |n, &b| n + u8::from(b == b'/'))))
                .sum::<usize>();
            if count != shape.tests {
                return Err(SkipReason::Count);
            }
            let mut responses = Vec::with_capacity(count);
            for token in obs.split('/') {
                responses.push(response(token, shape.outputs)?);
            }
            Ok(Observation::Responses(responses))
        }
    }
}

/// Extracts a `"key":"value"` string field from a single-line JSON object
/// without a JSON parser, borrowing the value from `line`. Escapes are not
/// supported — corpus fields are restricted to charsets that never need
/// them; a field containing `\` or an unterminated string comes back
/// `None` (→ `bad-json`).
fn json_string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let value = &rest[..rest.find('"')?];
    (!value.contains('\\')).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_logic::Prng;
    use std::collections::BTreeSet;

    fn sd_shape() -> Shape {
        Shape {
            kind: DictionaryKind::SameDifferent,
            tests: 2,
            outputs: 3,
        }
    }

    #[test]
    fn text_and_jsonl_shapes_parse_identically() {
        let shape = sd_shape();
        let text = parse_line("dev-7 01X/1X0", &shape);
        let json = parse_line("{\"device\":\"dev-7\",\"obs\":\"01X/1X0\"}", &shape);
        assert_eq!(text, json);
        let Parsed::Record {
            device,
            observation,
        } = text
        else {
            panic!("expected a record");
        };
        assert_eq!(device, "dev-7");
        let Observation::Responses(responses) = observation else {
            panic!("same/different takes responses");
        };
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].to_string(), "01X");
    }

    #[test]
    fn corruption_matrix_classifies_each_line() {
        let shape = sd_shape();
        let cases = [
            ("dev-1", SkipReason::Truncated),
            ("dev!? 01X/1X0", SkipReason::BadDeviceId),
            ("dev-1 01Q/1X0", SkipReason::BadObservation),
            ("dev-1 01X/1X0 trailing", SkipReason::BadObservation),
            ("{\"device\":\"dev-1\"}", SkipReason::BadJson),
            ("{not json at all", SkipReason::BadJson),
            ("dev-1 01/10", SkipReason::Width),
            ("dev-1 01X", SkipReason::Count),
            ("dev-1 01X/1X0/110", SkipReason::Count),
        ];
        for (line, expected) in cases {
            match parse_line(line, &shape) {
                Parsed::Skip { reason, .. } => assert_eq!(reason, expected, "line {line:?}"),
                other => panic!("line {line:?}: expected skip, got {other:?}"),
            }
        }
        // An over-long id is rejected too.
        let long = format!("{} 01X/1X0", "d".repeat(MAX_DEVICE_ID + 1));
        assert!(matches!(
            parse_line(&long, &shape),
            Parsed::Skip {
                reason: SkipReason::BadDeviceId,
                ..
            }
        ));
    }

    #[test]
    fn pass_fail_takes_one_signature() {
        let shape = Shape {
            kind: DictionaryKind::PassFail,
            tests: 4,
            outputs: 0,
        };
        assert!(matches!(
            parse_line("dev-1 01X1", &shape),
            Parsed::Record {
                observation: Observation::Signature(_),
                ..
            }
        ));
        assert!(matches!(
            parse_line("dev-1 01/X1", &shape),
            Parsed::Skip {
                reason: SkipReason::Count,
                ..
            }
        ));
    }

    #[test]
    fn blank_and_comment_lines_are_not_records() {
        let shape = sd_shape();
        assert_eq!(parse_line("", &shape), Parsed::Ignored);
        assert_eq!(parse_line("   ", &shape), Parsed::Ignored);
        assert_eq!(parse_line("# header", &shape), Parsed::Ignored);
    }

    #[test]
    fn json_field_scanner_handles_spacing_and_rejects_escapes() {
        assert_eq!(
            json_string_field("{ \"device\" : \"d1\" , \"obs\":\"01\" }", "device"),
            Some("d1")
        );
        assert_eq!(json_string_field("{\"device\":\"a\\\"b\"}", "device"), None);
        assert_eq!(
            json_string_field("{\"device\":\"unterminated", "device"),
            None
        );
    }

    /// A `split_whitespace` classifier collecting every token: the oracle
    /// for the differential test below.
    fn oracle_parse_line(line: &str, shape: &Shape) -> Parsed {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Parsed::Ignored;
        }
        let (device_raw, obs_raw) = if line.starts_with('{') {
            let device = oracle_json_string_field(line, "device");
            let obs = oracle_json_string_field(line, "obs");
            match (device, obs) {
                (Some(device), Some(obs)) => (device, obs),
                (device, _) => {
                    let device = device.filter(|d| valid_device_id(d));
                    return Parsed::Skip {
                        device,
                        reason: SkipReason::BadJson,
                    };
                }
            }
        } else {
            let mut tokens = line.split_whitespace();
            let device = tokens.next().unwrap_or_default().to_owned();
            let Some(obs) = tokens.next() else {
                let device = Some(device).filter(|d| valid_device_id(d));
                return Parsed::Skip {
                    device,
                    reason: SkipReason::Truncated,
                };
            };
            if tokens.next().is_some() {
                let device = Some(device).filter(|d| valid_device_id(d));
                return Parsed::Skip {
                    device,
                    reason: SkipReason::BadObservation,
                };
            }
            (device, obs.to_owned())
        };
        if !valid_device_id(&device_raw) {
            return Parsed::Skip {
                device: None,
                reason: SkipReason::BadDeviceId,
            };
        }
        match oracle_parse_observation(&obs_raw, shape) {
            Ok(observation) => Parsed::Record {
                device: device_raw,
                observation,
            },
            Err(reason) => Parsed::Skip {
                device: Some(device_raw),
                reason,
            },
        }
    }

    fn oracle_parse_observation(obs: &str, shape: &Shape) -> Result<Observation, SkipReason> {
        match shape.kind {
            DictionaryKind::PassFail => {
                if obs.contains('/') {
                    return Err(SkipReason::Count);
                }
                let signature: MaskedBitVec =
                    obs.parse().map_err(|_| SkipReason::BadObservation)?;
                if signature.len() != shape.tests {
                    return Err(SkipReason::Width);
                }
                Ok(Observation::Signature(signature))
            }
            DictionaryKind::SameDifferent | DictionaryKind::Full => {
                let tokens: Vec<&str> = obs.split('/').collect();
                if tokens.len() != shape.tests {
                    return Err(SkipReason::Count);
                }
                let mut responses = Vec::with_capacity(tokens.len());
                for token in tokens {
                    let response: MaskedBitVec =
                        token.parse().map_err(|_| SkipReason::BadObservation)?;
                    if response.len() != shape.outputs {
                        return Err(SkipReason::Width);
                    }
                    responses.push(response);
                }
                Ok(Observation::Responses(responses))
            }
        }
    }

    fn oracle_json_string_field(line: &str, key: &str) -> Option<String> {
        let needle = format!("\"{key}\"");
        let at = line.find(&needle)? + needle.len();
        let rest = line[at..].trim_start();
        let rest = rest.strip_prefix(':')?.trim_start();
        let rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        let value = &rest[..end];
        if value.contains('\\') {
            return None;
        }
        Some(value.to_owned())
    }

    /// Runs of `char::is_whitespace` chars, ASCII and not.
    const SPACES: [&str; 9] = [
        " ",
        "\t",
        "  ",
        "\u{b}",
        "\u{a0}",
        "\u{3000}",
        " \u{3000}\t",
        "\u{85}",
        "\u{2028}",
    ];

    fn pick<'a>(rng: &mut Prng, from: &[&'a str]) -> &'a str {
        rng.choose(from).copied().unwrap_or_default()
    }

    /// A response token: usually three ternary chars, sometimes another
    /// width or with a char outside the alphabet (U+001C and U+200B look
    /// like whitespace but are not).
    fn random_token(rng: &mut Prng) -> String {
        let width = if rng.gen_bool(0.8) {
            3
        } else {
            rng.gen_range(0..=5)
        };
        (0..width)
            .map(|_| match rng.gen_range(0..40) {
                0 => pick(rng, &["Q", "é", "\u{1c}", "\u{200b}", "\\"]),
                _ => pick(rng, &["0", "1", "x", "X", "-"]),
            })
            .collect()
    }

    /// An observation of usually two tokens, sometimes a wrong count.
    fn random_observation(rng: &mut Prng) -> String {
        let count = if rng.gen_bool(0.6) {
            2
        } else {
            rng.gen_range(0..=4)
        };
        let tokens: Vec<String> = (0..count).map(|_| random_token(rng)).collect();
        tokens.join("/")
    }

    fn random_line(rng: &mut Prng) -> String {
        let device = match rng.gen_range(0..10) {
            0 => "dev!?".to_owned(),
            1 => "d".repeat(MAX_DEVICE_ID + rng.gen_range(0..2)),
            2 => "dév".to_owned(),
            3 => "dev\u{200b}".to_owned(),
            _ => format!("dev-{}", rng.gen_range(0..1000)),
        };
        let obs = random_observation(rng);
        let (a, b) = (pick(rng, &SPACES), pick(rng, &SPACES));
        let body = match rng.gen_range(0..16) {
            0 => device,
            1 => format!("{device}{a}{obs}{b}{}", random_token(rng)),
            2..=7 => format!("{device}{a}{obs}"),
            8 | 9 => format!("{{\"device\":\"{device}\",\"obs\":\"{obs}\"}}"),
            10 => format!("{{{a}\"obs\"{b}:{a}\"{obs}\"{b},\"device\" : \"{device}\"}}"),
            11 => format!("{{\"obs\":\"{obs}\"}}"),
            12 => format!("{{\"device\":\"{device}\"}}"),
            13 => format!("{{\"device\":\"{device}\",\"obs\":\"{obs}"),
            14 => format!("# {device} {obs}"),
            _ => String::new(),
        };
        let lead = if rng.gen_bool(0.2) { a } else { "" };
        let trail = if rng.gen_bool(0.2) { b } else { "" };
        format!("{lead}{body}{trail}")
    }

    #[test]
    fn parse_line_matches_the_split_whitespace_oracle() {
        let shapes = [
            sd_shape(),
            Shape {
                kind: DictionaryKind::Full,
                tests: 2,
                outputs: 3,
            },
            Shape {
                kind: DictionaryKind::PassFail,
                tests: 3,
                outputs: 0,
            },
        ];
        let mut rng = Prng::seed_from_u64(0xC0_4B);
        let mut seen = BTreeSet::new();
        for _ in 0..6000 {
            let line = random_line(&mut rng);
            for shape in &shapes {
                let parsed = parse_line(&line, shape);
                assert_eq!(
                    parsed,
                    oracle_parse_line(&line, shape),
                    "{line:?} against {shape:?}"
                );
                seen.insert(match parsed {
                    Parsed::Ignored => "ignored",
                    Parsed::Record { .. } => "record",
                    Parsed::Skip { reason, .. } => reason.token(),
                });
            }
        }
        let expected = BTreeSet::from([
            "ignored",
            "record",
            "truncated",
            "bad-device-id",
            "bad-observation",
            "bad-json",
            "width",
            "count",
        ]);
        assert_eq!(seen, expected, "every outcome is generated");
    }
}
