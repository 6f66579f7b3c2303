//! Property tests for the wire codec: the framer and parser are *total*
//! (no byte sequence may panic them — the same contract as the cc-lint
//! parser), and canonical encoding round-trips exactly.

use cc_serve::json::Json;
use cc_serve::proto::{ErrorKind, Op, Reply, Request};
use proptest::prelude::*;

/// A seeded generator of arbitrary canonical [`Json`] values.
///
/// "Canonical" means a value [`Json::encode`] can emit: finite floats
/// (NaN/Inf encode as `null`, which would not round-trip) and `Uint` for
/// non-negative integers (`Int` is reserved for negatives, matching the
/// parser's choice).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gen_json(state: &mut u64, depth: u32) -> Json {
    let pick = if depth == 0 {
        mix(state) % 5
    } else {
        mix(state) % 7
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(mix(state).is_multiple_of(2)),
        2 => Json::Uint(mix(state)),
        3 => Json::Int(-((mix(state) % (1 << 62)) as i64) - 1),
        4 => {
            // A printable-ish string with embedded escapes and unicode.
            let len = mix(state) % 12;
            let s: String = (0..len)
                .map(|_| match mix(state) % 8 {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\u{1F}',
                    4 => 'é',
                    5 => '界',
                    _ => (b'a' + (mix(state) % 26) as u8) as char,
                })
                .collect();
            Json::Str(s)
        }
        5 => {
            let len = (mix(state) % 4) as usize;
            Json::Arr((0..len).map(|_| gen_json(state, depth - 1)).collect())
        }
        _ => {
            let len = (mix(state) % 4) as usize;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..len {
                let klen = 1 + mix(state) % 6;
                let k: String = (0..klen)
                    .map(|_| (b'a' + (mix(state) % 26) as u8) as char)
                    .collect();
                m.insert(k, gen_json(state, depth - 1));
            }
            Json::Obj(m)
        }
    }
}

proptest! {
    /// The parser is total over arbitrary bytes-as-text: no input may
    /// panic it, only return a value or a positioned error.
    #[test]
    fn parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let soup = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&soup);
    }

    /// The parser is total over *almost-JSON* token soup, which reaches
    /// deeper into nesting/escape recovery than uniform noise.
    #[test]
    fn parser_never_panics_on_json_soup(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "{", "}", "[", "]", ":", ",", "\"", "\\", "null", "true",
                "false", "1", "-", "0.5", "1e9", "1e", "\"v\"", "\"id\"",
                "\\u00", "\\uD800", "{\"", "}}", "  ", "\u{7}",
            ]),
            0..60,
        )
    ) {
        let soup: String = tokens.concat();
        let _ = Json::parse(&soup);
    }

    /// The frame decoder is total too, and never panics regardless of
    /// what the parser hands back.
    #[test]
    fn request_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let soup = String::from_utf8_lossy(&bytes);
        let _ = Request::decode(&soup);
        let _ = Reply::decode(&soup);
    }

    /// Canonical values survive encode → parse exactly, and the encoding
    /// is a fixpoint (encode ∘ parse ∘ encode = encode), which is what
    /// "byte-stable" means on the wire.
    #[test]
    fn canonical_json_round_trips(seed in any::<u64>()) {
        let mut state = seed;
        let value = gen_json(&mut state, 3);
        let bytes = value.encode();
        let reparsed = Json::parse(&bytes).expect("canonical encoding parses");
        prop_assert_eq!(&reparsed, &value);
        prop_assert_eq!(reparsed.encode(), bytes);
    }

    /// Request frames round-trip through the codec: id, op, deadline and
    /// (non-reserved) params all survive.
    #[test]
    fn request_round_trips(seed in any::<u64>(), id in any::<u64>(), dl in any::<bool>()) {
        let ops = [Op::Simulate, Op::Audit, Op::Lint, Op::Morph, Op::Health, Op::Shutdown];
        let op = ops[(seed % 6) as usize];
        let mut state = seed;
        let mut params = std::collections::BTreeMap::new();
        params.insert("keys".to_string(), gen_json(&mut state, 1));
        params.insert("zz".to_string(), gen_json(&mut state, 2));
        let req = Request {
            id,
            op,
            deadline_ms: dl.then_some(seed % 100_000),
            params: Json::Obj(params),
        };
        let decoded = Request::decode(&req.encode()).expect("canonical frame decodes");
        prop_assert_eq!(decoded, req);
    }

    /// Reply frames round-trip, both success and every typed error kind
    /// (with and without a retry hint).
    #[test]
    fn reply_round_trips(seed in any::<u64>(), id in any::<u64>()) {
        let mut state = seed;
        let ok = Reply::ok(id, Op::Simulate, gen_json(&mut state, 2));
        prop_assert_eq!(Reply::decode(&ok.encode()), Some(ok));

        let kind = ErrorKind::ALL[(seed % ErrorKind::ALL.len() as u64) as usize];
        let err = if seed.is_multiple_of(2) {
            Reply::err(id, kind, format!("m{seed}"))
        } else {
            Reply::err_retry(id, kind, format!("m{seed}"), seed % 10_000)
        };
        prop_assert_eq!(Reply::decode(&err.encode()), Some(err));
    }
}
