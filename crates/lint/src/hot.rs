//! Field-hotness input: a flat JSON object mapping `"Struct"` or
//! `"Struct.field"` to a numeric weight, as emitted by `cc-profile`'s
//! attribution join (`*.hot.json`).
//!
//! The parser is a tiny recursive-descent JSON-subset reader — the
//! workspace has no serde — and rejects anything that is not a flat
//! string→number object, reporting a position so the CLI can exit 2
//! (input error) with something actionable.

use crate::report::escape_json;
use std::collections::BTreeMap;

/// Parsed hotness weights.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HotSpec {
    weights: BTreeMap<String, f64>,
}

impl HotSpec {
    /// No hotness input: only `cc-hot` source annotations apply.
    pub fn empty() -> Self {
        HotSpec::default()
    }

    /// Builds a spec from explicit entries (used by the `cc-profile`
    /// join).
    pub fn from_entries(entries: impl IntoIterator<Item = (String, f64)>) -> Self {
        HotSpec {
            weights: entries.into_iter().collect(),
        }
    }

    /// Parses the `{"Struct.field": weight, ...}` JSON form.
    pub fn parse_json(src: &str) -> Result<Self, String> {
        let mut p = Json {
            bytes: src.as_bytes(),
            i: 0,
        };
        p.ws();
        let weights = p.object()?;
        p.ws();
        if p.i != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(HotSpec { weights })
    }

    /// Serializes back to the canonical sorted JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.weights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{}\": {}", escape_json(k), fmt_weight(*v)));
        }
        if !self.weights.is_empty() {
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Struct-level weight (`"Struct"` key, or the sum of its
    /// `"Struct.field"` keys when only fields are weighted).
    pub fn struct_weight(&self, strukt: &str) -> Option<f64> {
        if let Some(w) = self.weights.get(strukt) {
            return Some(*w);
        }
        let prefix = format!("{strukt}.");
        let sum: f64 = self
            .weights
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .sum();
        (sum > 0.0).then_some(sum)
    }

    /// Whether a specific field is marked hot (positive weight).
    pub fn field_hot(&self, strukt: &str, field: &str) -> bool {
        self.weights
            .get(&format!("{strukt}.{field}"))
            .is_some_and(|w| *w > 0.0)
    }

    /// Whether any weights were supplied.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

fn fmt_weight(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

struct Json<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.i)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bytes.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, f64>, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.bytes.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.number()?;
            out.insert(key, val);
            self.ws();
            match self.bytes.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    /// A string literal, decoded as UTF-8. Reads the escapes
    /// [`escape_json`] writes (`\"`, `\\`, `\n`, `\t`, `\u00XX`, and any
    /// other `\uXXXX` outside the surrogates); any other escaped byte
    /// stands for itself, as `\/` does in JSON.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.i) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let c = self.hex4()?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        e => out.push(e),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| format!("invalid UTF-8 in the string at byte {start}"))
    }

    /// The four hex digits of a `\uXXXX` escape, as a char.
    fn hex4(&mut self) -> Result<char, String> {
        let at = self.i;
        let c = self
            .bytes
            .get(at..at + 4)
            .and_then(|h| {
                h.iter()
                    .try_fold(0, |n, &d| Some(n * 16 + char::from(d).to_digit(16)?))
            })
            .and_then(char::from_u32)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.i += 4;
        Ok(c)
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self
            .bytes
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let spec = HotSpec::parse_json(
            "{\n  \"Node\": 1200,\n  \"Node.key\": 800.5,\n  \"Node.left\": 400\n}\n",
        )
        .unwrap();
        assert_eq!(spec.struct_weight("Node"), Some(1200.0));
        assert!(spec.field_hot("Node", "key"));
        assert!(!spec.field_hot("Node", "addr"));
    }

    #[test]
    fn field_weights_sum_to_struct_weight() {
        let spec = HotSpec::parse_json("{\"N.a\": 10, \"N.b\": 5}").unwrap();
        assert_eq!(spec.struct_weight("N"), Some(15.0));
        assert_eq!(spec.struct_weight("M"), None);
    }

    #[test]
    fn rejects_non_flat_json() {
        assert!(HotSpec::parse_json("{\"a\": {\"b\": 1}}").is_err());
        assert!(HotSpec::parse_json("[1, 2]").is_err());
        assert!(HotSpec::parse_json("{\"a\": 1} extra").is_err());
        assert!(HotSpec::parse_json("").is_err());
    }

    #[test]
    fn round_trips_non_ascii_and_control_keys() {
        let spec = HotSpec::from_entries([
            ("Größe.x".to_string(), 2.0),
            ("A\nB.\u{1}y\"\\".to_string(), 1.0),
        ]);
        let json = spec.to_json();
        assert!(
            json.contains(r#""A\nB.\u0001y\"\\": 1"#),
            "control characters are escaped: {json}"
        );
        assert_eq!(HotSpec::parse_json(&json).unwrap(), spec);
        let raw = HotSpec::parse_json("{\"Größe.x\": 2}").unwrap();
        assert!(raw.field_hot("Größe", "x"));
        assert!(HotSpec::parse_json("{\"a\\u12\": 1}").is_err());
        assert!(HotSpec::parse_json("{\"a\\ud800\": 1}").is_err());
    }

    #[test]
    fn round_trips_canonical_form() {
        let spec = HotSpec::from_entries([("B.x".to_string(), 2.0), ("A".to_string(), 1.5)]);
        let json = spec.to_json();
        assert_eq!(HotSpec::parse_json(&json).unwrap(), spec);
        assert!(
            json.starts_with("{\n  \"A\": 1.5000"),
            "sorted keys: {json}"
        );
    }
}
