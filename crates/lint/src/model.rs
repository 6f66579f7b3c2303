//! Size/alignment resolution: from a parsed [`Ty`] to `(size, align)`
//! on a 64-bit target.
//!
//! Three tiers of knowledge, tracked by `Resolved::exact`:
//!
//! * **guaranteed** — primitives, pointers/references, `repr(C)` structs
//!   of guaranteed fields, `repr(uN)` fieldless enums, arrays of
//!   guaranteed elements. These the compiler *must* lay out as modeled;
//!   the verification harness (`tests/verify_offsets.rs`) pins them
//!   against `core::mem::offset_of!`.
//! * **known-in-practice** — `Vec` (24), `String` (24), `Option<T>`
//!   niches, tuples, `repr(Rust)` locals. Stable on every shipping rustc
//!   but not documented guarantees; modeled, flagged inexact.
//! * **opaque** — anything else. Structs containing opaque fields are
//!   excluded from offset findings and counted in the report's
//!   `structs_opaque`.

use crate::parse::{EnumDef, ParsedFile, StructDef, Ty};
use std::collections::BTreeMap;

/// Pointer size on the modeled (64-bit) target.
pub const PTR_BYTES: u64 = 8;

/// A resolved size/alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resolved {
    /// Size in bytes.
    pub size: u64,
    /// Alignment in bytes (power of two, ≥ 1).
    pub align: u64,
    /// The layout is a language/ABI guarantee, not a stable-in-practice
    /// observation.
    pub exact: bool,
}

impl Resolved {
    fn exact(size: u64, align: u64) -> Self {
        Resolved {
            size,
            align,
            exact: true,
        }
    }

    fn known(size: u64, align: u64) -> Self {
        Resolved {
            size,
            align,
            exact: false,
        }
    }
}

/// Whether a type is sized, for fat-pointer detection.
fn is_unsized(ty: &Ty) -> bool {
    match ty {
        Ty::Slice(_) | Ty::Dyn => true,
        Ty::Path { last, args } if last == "str" && args.is_empty() => true,
        _ => false,
    }
}

/// Cross-file type environment: every parsed struct and enum, addressable
/// by (file, name) and by bare name when unambiguous.
pub struct TypeEnv<'a> {
    structs: BTreeMap<(&'a str, &'a str), &'a StructDef>,
    enums: BTreeMap<(&'a str, &'a str), &'a EnumDef>,
    by_name_structs: BTreeMap<&'a str, Vec<&'a StructDef>>,
    by_name_enums: BTreeMap<&'a str, Vec<&'a EnumDef>>,
}

impl<'a> TypeEnv<'a> {
    /// Builds the environment over all parsed files.
    pub fn new(files: &'a [(String, ParsedFile)]) -> Self {
        let mut env = TypeEnv {
            structs: BTreeMap::new(),
            enums: BTreeMap::new(),
            by_name_structs: BTreeMap::new(),
            by_name_enums: BTreeMap::new(),
        };
        for (file, parsed) in files {
            for s in &parsed.structs {
                env.structs.insert((file.as_str(), s.name.as_str()), s);
                env.by_name_structs
                    .entry(s.name.as_str())
                    .or_default()
                    .push(s);
            }
            for e in &parsed.enums {
                env.enums.insert((file.as_str(), e.name.as_str()), e);
                env.by_name_enums
                    .entry(e.name.as_str())
                    .or_default()
                    .push(e);
            }
        }
        env
    }

    /// Looks up a struct by name, preferring the referencing file, then a
    /// globally unique match.
    fn find_struct(&self, name: &str, from_file: &str) -> Option<&'a StructDef> {
        if let Some(s) = self.structs.get(&(from_file, name)) {
            return Some(s);
        }
        match self.by_name_structs.get(name).map(Vec::as_slice) {
            Some([one]) => Some(one),
            _ => None,
        }
    }

    fn find_enum(&self, name: &str, from_file: &str) -> Option<&'a EnumDef> {
        if let Some(e) = self.enums.get(&(from_file, name)) {
            return Some(e);
        }
        match self.by_name_enums.get(name).map(Vec::as_slice) {
            Some([one]) => Some(one),
            _ => None,
        }
    }

    /// Resolves a type's size/alignment, or `None` for opaque/unsized.
    ///
    /// `from_file` scopes bare-name lookups; `visiting` breaks cycles
    /// (a self-referential struct resolves to `None`, as it would be
    /// infinite-size without indirection anyway).
    pub fn resolve(
        &self,
        ty: &Ty,
        from_file: &str,
        visiting: &mut Vec<String>,
    ) -> Option<Resolved> {
        if visiting.len() > 64 {
            return None;
        }
        match ty {
            Ty::Ref(inner) | Ty::Ptr(inner) => Some(if is_unsized(inner) {
                Resolved::exact(2 * PTR_BYTES, PTR_BYTES)
            } else {
                Resolved::exact(PTR_BYTES, PTR_BYTES)
            }),
            Ty::FnPtr => Some(Resolved::exact(PTR_BYTES, PTR_BYTES)),
            Ty::Never => Some(Resolved::known(0, 1)),
            Ty::Slice(_) | Ty::Dyn => None, // unsized: only valid behind a pointer
            Ty::Array(elem, Some(n)) => {
                let e = self.resolve(elem, from_file, visiting)?;
                Some(Resolved {
                    size: e.size.checked_mul(*n)?,
                    align: e.align,
                    exact: e.exact,
                })
            }
            Ty::Array(_, None) => None,
            Ty::Tuple(elems) if elems.is_empty() => Some(Resolved::exact(0, 1)),
            Ty::Tuple(elems) => {
                // Tuples are repr(Rust); model them at their optimal
                // packing (what rustc produces) and flag inexact.
                let mut parts = Vec::with_capacity(elems.len());
                for e in elems {
                    parts.push(self.resolve(e, from_file, visiting)?);
                }
                parts.sort_by_key(|p| std::cmp::Reverse((p.align, p.size)));
                let mut off = 0u64;
                let mut align = 1u64;
                for p in &parts {
                    off = round_up(off, p.align).checked_add(p.size)?;
                    align = align.max(p.align);
                }
                Some(Resolved::known(round_up(off, align), align))
            }
            Ty::Path { last, args } => self.resolve_path(last, args, from_file, visiting),
            Ty::Opaque => None,
        }
    }

    fn resolve_path(
        &self,
        last: &str,
        args: &[Ty],
        from_file: &str,
        visiting: &mut Vec<String>,
    ) -> Option<Resolved> {
        // Primitives (guaranteed).
        if args.is_empty() {
            match last {
                "u8" | "i8" => return Some(Resolved::exact(1, 1)),
                "bool" => return Some(Resolved::exact(1, 1)),
                "u16" | "i16" => return Some(Resolved::exact(2, 2)),
                "u32" | "i32" | "f32" | "char" => return Some(Resolved::exact(4, 4)),
                "u64" | "i64" | "f64" | "usize" | "isize" => {
                    return Some(Resolved::exact(8, 8));
                }
                "u128" | "i128" => return Some(Resolved::exact(16, 16)),
                "str" => return None, // unsized
                _ => {}
            }
            // NonZero integers: same layout as the integer (guaranteed).
            if let Some(rest) = last
                .strip_prefix("NonZeroU")
                .or_else(|| last.strip_prefix("NonZeroI"))
            {
                return match rest {
                    "8" => Some(Resolved::exact(1, 1)),
                    "16" => Some(Resolved::exact(2, 2)),
                    "32" => Some(Resolved::exact(4, 4)),
                    "64" | "size" => Some(Resolved::exact(8, 8)),
                    "128" => Some(Resolved::exact(16, 16)),
                    _ => None,
                };
            }
            // Atomics: documented same-size-as-underlying, natural align.
            if let Some(rest) = last
                .strip_prefix("AtomicU")
                .or_else(|| last.strip_prefix("AtomicI"))
            {
                return match rest {
                    "8" => Some(Resolved::known(1, 1)),
                    "16" => Some(Resolved::known(2, 2)),
                    "32" => Some(Resolved::known(4, 4)),
                    "64" | "size" => Some(Resolved::known(8, 8)),
                    _ => None,
                };
            }
            if last == "AtomicBool" {
                return Some(Resolved::known(1, 1));
            }
        }
        // Std containers known in practice on 64-bit.
        match last {
            "Vec" | "String" | "VecDeque" if last == "String" || !args.is_empty() => {
                let words = if last == "VecDeque" { 4 } else { 3 };
                return Some(Resolved::known(words * PTR_BYTES, PTR_BYTES));
            }
            "Box" | "Rc" | "Arc" | "NonNull" => {
                let fat = args.first().map(is_unsized).unwrap_or(false);
                return Some(Resolved::known(
                    if fat { 2 * PTR_BYTES } else { PTR_BYTES },
                    PTR_BYTES,
                ));
            }
            "PhantomData" => return Some(Resolved::exact(0, 1)),
            "ManuallyDrop" | "MaybeUninit" | "Cell" | "UnsafeCell" | "Wrapping" => {
                // Transparent-ish wrappers: the argument's layout.
                let arg = args.first()?;
                let r = self.resolve(arg, from_file, visiting)?;
                // MaybeUninit/ManuallyDrop/Wrapping are documented
                // same-layout; Cell/UnsafeCell too. Keep exactness.
                return Some(r);
            }
            "Option" => {
                let arg = args.first()?;
                // Niche-optimized cases: guaranteed for Box/&/fn/NonNull,
                // stable-in-practice for bool/char/NonZero.
                let niche = match arg {
                    Ty::Ref(_) | Ty::FnPtr => true,
                    Ty::Path { last, .. } => {
                        matches!(last.as_str(), "Box" | "NonNull" | "bool" | "char")
                            || last.starts_with("NonZero")
                    }
                    _ => false,
                };
                let r = self.resolve(arg, from_file, visiting)?;
                if niche {
                    return Some(Resolved::known(r.size, r.align));
                }
                // Tag byte rounded up to the payload's alignment.
                let size = round_up(r.size.checked_add(1)?, r.align);
                return Some(Resolved::known(size, r.align));
            }
            _ => {}
        }
        if !args.is_empty() {
            // A generic local/unknown type we do not model.
            return None;
        }
        // Local structs.
        if let Some(s) = self.find_struct(last, from_file) {
            if visiting.iter().any(|v| v == &s.name) || s.generic {
                return None;
            }
            visiting.push(s.name.clone());
            let out = self.struct_size(s, visiting);
            visiting.pop();
            return out;
        }
        // Local enums.
        if let Some(e) = self.find_enum(last, from_file) {
            return enum_size(e);
        }
        None
    }

    /// A struct's size/align as a *field type*: exact C layout when
    /// `repr(C)`, optimal-packing estimate (inexact) for `repr(Rust)`.
    fn struct_size(&self, s: &StructDef, visiting: &mut Vec<String>) -> Option<Resolved> {
        let mut parts = Vec::with_capacity(s.fields.len());
        let mut all_exact = true;
        for f in &s.fields {
            let r = self.resolve(&f.ty, &s.file, visiting)?;
            all_exact &= r.exact;
            parts.push(r);
        }
        if !s.repr.c {
            // repr(Rust): assume the compiler packs optimally (it does in
            // practice); never exact.
            parts.sort_by_key(|p| std::cmp::Reverse((p.align, p.size)));
            all_exact = false;
        }
        let cap = s.repr.packed.unwrap_or(u64::MAX);
        let mut off = 0u64;
        let mut align = s.repr.align.unwrap_or(1).max(1);
        for p in &parts {
            let a = p.align.min(cap).max(1);
            off = round_up(off, a).checked_add(p.size)?;
            align = align.max(a);
        }
        Some(Resolved {
            size: round_up(off, align),
            align,
            exact: all_exact && s.repr.c,
        })
    }
}

/// A fieldless enum's size; data-carrying enums are opaque.
fn enum_size(e: &EnumDef) -> Option<Resolved> {
    if e.has_payload || e.generic {
        return None;
    }
    if let Some((size, align)) = e.repr.int {
        // repr(uN) fieldless enums are a guaranteed layout.
        return Some(Resolved::exact(size, align));
    }
    if e.opaque_discriminant {
        return None;
    }
    let needed = e.variants.max(1) as u64 - 1;
    let max = e.max_discriminant.max(needed);
    let size = if max < 1 << 8 {
        1
    } else if max < 1 << 16 {
        2
    } else if max < 1 << 32 {
        4
    } else {
        8
    };
    Some(Resolved::known(size, size))
}

/// Rounds `x` up to a multiple of `align` (`align` ≥ 1; non-powers of two
/// are treated as their value, which only arises from hostile input).
pub fn round_up(x: u64, align: u64) -> u64 {
    let a = align.max(1);
    match x % a {
        0 => x,
        r => x.saturating_add(a - r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn env_of(src: &str) -> Vec<(String, ParsedFile)> {
        vec![("t.rs".to_string(), parse_source("t.rs", src))]
    }

    fn resolve_field(
        files: &[(String, ParsedFile)],
        strukt: &str,
        field: &str,
    ) -> Option<Resolved> {
        let env = TypeEnv::new(files);
        let s = files
            .iter()
            .flat_map(|(_, p)| &p.structs)
            .find(|s| s.name == strukt)
            .expect("struct present");
        let f = s.fields.iter().find(|f| f.name == field).expect("field");
        env.resolve(&f.ty, &s.file, &mut Vec::new())
    }

    #[test]
    fn primitives_and_pointers() {
        let files = env_of(
            "struct S { a: u8, b: u64, c: &'static str, d: &u64, e: Box<[u8]>, f: Vec<u32> }",
        );
        assert_eq!(resolve_field(&files, "S", "a"), Some(Resolved::exact(1, 1)));
        assert_eq!(resolve_field(&files, "S", "b"), Some(Resolved::exact(8, 8)));
        assert_eq!(
            resolve_field(&files, "S", "c"),
            Some(Resolved::exact(16, 8)),
            "&str is a fat pointer"
        );
        assert_eq!(resolve_field(&files, "S", "d"), Some(Resolved::exact(8, 8)));
        assert_eq!(resolve_field(&files, "S", "e").map(|r| r.size), Some(16));
        assert_eq!(resolve_field(&files, "S", "f").map(|r| r.size), Some(24));
    }

    #[test]
    fn options_and_niches() {
        let files = env_of("struct S { a: Option<Box<u8>>, b: Option<u64>, c: Option<u32> }");
        assert_eq!(resolve_field(&files, "S", "a").map(|r| r.size), Some(8));
        assert_eq!(resolve_field(&files, "S", "b").map(|r| r.size), Some(16));
        assert_eq!(resolve_field(&files, "S", "c").map(|r| r.size), Some(8));
    }

    #[test]
    fn local_struct_and_enum_fields() {
        let files = env_of(
            "#[repr(C)] struct Inner { a: u32, b: u32 }\n\
             enum Color { Black, White, Grey }\n\
             enum Big { A = 300 }\n\
             struct Outer { i: Inner, c: Color, d: Big }",
        );
        assert_eq!(
            resolve_field(&files, "Outer", "i"),
            Some(Resolved::exact(8, 4))
        );
        assert_eq!(
            resolve_field(&files, "Outer", "c"),
            Some(Resolved::known(1, 1))
        );
        assert_eq!(
            resolve_field(&files, "Outer", "d"),
            Some(Resolved::known(2, 2))
        );
    }

    #[test]
    fn cycles_and_unknowns_are_opaque() {
        let files = env_of("struct A { b: B }\nstruct B { a: A }\nstruct C { m: HashMap<u8, u8> }");
        assert_eq!(resolve_field(&files, "A", "b"), None);
        assert_eq!(resolve_field(&files, "C", "m"), None);
    }

    #[test]
    fn arrays_scale() {
        let files = env_of("struct S { k: [u32; 4], pad: [u8; 3] }");
        assert_eq!(
            resolve_field(&files, "S", "k"),
            Some(Resolved::exact(16, 4))
        );
        assert_eq!(
            resolve_field(&files, "S", "pad"),
            Some(Resolved::exact(3, 1))
        );
    }
}
