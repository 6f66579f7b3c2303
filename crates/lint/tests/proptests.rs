//! Property tests for the lint parser and layout model.
//!
//! Two families:
//!
//! * **Round-trip**: generated struct definitions parse back to exactly
//!   the generated field list, reprs, and hot marks.
//! * **Totality**: the parser and the whole analyze pipeline never panic
//!   on arbitrary token soup — the CLI's exit-2 "input error" path is
//!   reserved for broken invocations, so no source text may crash it.
//!
//! Plus layout invariants: optimal reorder never pads more than
//! declaration order, and modeled sizes respect alignment.

use cc_lint::{analyze_sources, parse_source, HotSpec, LintConfig};
use proptest::prelude::*;

/// Field types the generator draws from (name, lint-modeled exactly).
const TYPES: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "i8",
    "i16",
    "i32",
    "i64",
    "f32",
    "f64",
    "bool",
    "char",
    "usize",
    "*const u8",
    "[u8; 3]",
    "[u64; 2]",
    "Vec<u64>",
    "String",
    "Option<u32>",
    "(u8, u32)",
];

/// Builds a struct source from generator choices.
fn render_struct(
    name_idx: u8,
    repr_c: bool,
    fields: &[(u8, bool)], // (type index, hot)
) -> (String, String, Vec<(String, String, bool)>) {
    let name = format!("S{name_idx}");
    let mut src = String::new();
    if repr_c {
        src.push_str("#[repr(C)]\n");
    }
    src.push_str(&format!("pub struct {name} {{\n"));
    let mut expect = Vec::new();
    for (i, (ty_idx, hot)) in fields.iter().enumerate() {
        let field = format!("f{i}");
        let ty = TYPES[*ty_idx as usize % TYPES.len()];
        src.push_str(&format!(
            "    {field}: {ty},{}\n",
            if *hot { " // cc-hot" } else { "" }
        ));
        expect.push((field, ty.to_string(), *hot));
    }
    src.push_str("}\n");
    (name, src, expect)
}

/// Normalizes a rendered type for comparison (the parser's Display puts
/// single spaces in fixed places).
fn norm(ty: &str) -> String {
    ty.split_whitespace().collect::<Vec<_>>().join(" ")
}

proptest! {
    /// Generated definitions round-trip: same struct name, same fields in
    /// order, same types (up to whitespace), same repr, same hot marks.
    #[test]
    fn roundtrip_generated_structs(
        name_idx in any::<u8>(),
        repr_c in any::<bool>(),
        fields in prop::collection::vec((any::<u8>(), any::<bool>()), 1..12),
    ) {
        let (name, src, expect) = render_struct(name_idx, repr_c, &fields);
        let parsed = parse_source("gen.rs", &src);
        prop_assert_eq!(parsed.structs.len(), 1, "{}", src);
        let s = &parsed.structs[0];
        prop_assert_eq!(&s.name, &name);
        prop_assert_eq!(s.repr.c, repr_c);
        prop_assert_eq!(s.fields.len(), expect.len());
        for (got, want) in s.fields.iter().zip(&expect) {
            prop_assert_eq!(&got.name, &want.0);
            prop_assert_eq!(norm(&got.ty.to_string()), norm(&want.1));
            prop_assert_eq!(got.hot, want.2, "hot mark on {}", want.0);
        }
    }

    /// The parser is total over arbitrary bytes-as-text.
    #[test]
    fn parser_never_panics_on_soup(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let soup = String::from_utf8_lossy(&bytes);
        let _ = parse_source("soup.rs", &soup);
    }

    /// The parser is total over *almost-Rust* token soup, which reaches
    /// deeper into the recovery paths than uniformly random text.
    #[test]
    fn parser_never_panics_on_rusty_soup(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "struct", "enum", "pub", "S", "x", ":", ",", "<", ">", "{",
                "}", "(", ")", "[", "]", "#", "=", ";", "u64", "'a", "//x\n",
                "/*", "*/", "\"s", "0xFF", "repr", "C", "packed", "align",
                "where", "dyn", "fn", "&", "*", "!", "...", "r#type",
            ]),
            0..60,
        )
    ) {
        let soup = tokens.join(" ");
        let _ = parse_source("soup.rs", &soup);
    }

    /// The whole pipeline (parse, model, rules, render) is total, and both
    /// renderings are deterministic.
    #[test]
    fn analyzer_total_and_deterministic_on_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let soup = String::from_utf8_lossy(&bytes).into_owned();
        let files = [("soup.rs".to_string(), soup)];
        let a = analyze_sources(&files, &HotSpec::empty(), &LintConfig::default());
        let b = analyze_sources(&files, &HotSpec::empty(), &LintConfig::default());
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.to_text(), b.to_text());
    }

    /// Layout invariants over generated (well-formed) structs: the
    /// optimal reorder never has more padding or a larger size than
    /// declaration order, and every modeled size is a multiple of its
    /// alignment.
    #[test]
    fn optimal_reorder_never_worse(
        name_idx in any::<u8>(),
        repr_c in any::<bool>(),
        fields in prop::collection::vec((any::<u8>(), any::<bool>()), 1..12),
    ) {
        let (_, src, _) = render_struct(name_idx, repr_c, &fields);
        let report = analyze_sources(
            &[("gen.rs".to_string(), src.clone())],
            &HotSpec::empty(),
            &LintConfig::default(),
        );
        prop_assert_eq!(report.structs.len(), 1, "{}", src);
        let s = &report.structs[0];
        prop_assert!(s.optimal_padding <= s.padding, "{}", src);
        prop_assert!(s.optimal_size <= s.size, "{}", src);
        prop_assert!(s.align > 0 && s.size.is_multiple_of(s.align), "{}", src);
        for (_, offset, size, align, _) in &s.fields {
            prop_assert!(align > &0);
            prop_assert_eq!(offset % align, 0, "field misaligned in {}", src);
            prop_assert!(offset + size <= s.size);
        }
    }
}
