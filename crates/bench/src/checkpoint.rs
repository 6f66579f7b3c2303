//! Shared checkpoint plumbing for the figure binaries.
//!
//! `fig5` and `fig7` each grew a private copy of the same three things
//! during the checkpoint port: the field separator, the hex-stable `f64`
//! codec (times and scores must survive a crash/resume round trip
//! *bit-identically*, so they travel as `to_bits` hex, never decimal),
//! and the `CC_SWEEP_CHECKPOINT` dispatch between [`Sweep::run`] and
//! [`Sweep::run_checkpointed`]. The copies had already drifted in small
//! ways; this module is the single home for all three.

use cc_sweep::Sweep;
use std::path::Path;

/// Registry key counting checkpoint files that could not be opened and
/// degraded to an uncheckpointed run.
pub const CHECKPOINT_OPEN_FAILURES: &str = "checkpoint.open_failures";

/// Field separator for checkpoint payloads. The sweep checkpoint escapes
/// newlines and tabs itself; this byte never occurs in logs, audit text,
/// or hex fields.
pub const SEP: char = '\x1f';

/// Renders an `f64` as its bit pattern in fixed-width hex — the only
/// encoding that makes a resumed figure bit-identical to an uninterrupted
/// one (decimal formatting rounds).
///
/// *Every* bit pattern round-trips, NaNs included: a NaN travels as its
/// exact payload bits, with no canonicalization anywhere in the codec,
/// so a checkpoint resume can never change the bytes of a figure that
/// printed `NaN`. The property test below pins this over raw patterns.
pub fn encode_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`encode_f64`]; `None` on malformed hex.
pub fn decode_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Encodes a slice of `f64`s as comma-joined bit patterns.
pub fn encode_f64s(xs: &[f64]) -> String {
    let words: Vec<String> = xs.iter().map(|x| encode_f64(*x)).collect();
    words.join(",")
}

/// Inverse of [`encode_f64s`]; `None` on any malformed word.
pub fn decode_f64s(s: &str) -> Option<Vec<f64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(decode_f64).collect()
}

/// Encodes an optional `f64`: `-` for `None`, the bit pattern otherwise.
pub fn encode_opt_f64(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), encode_f64)
}

/// Inverse of [`encode_opt_f64`]. The outer `Option` is the parse result
/// (`None` = malformed), the inner is the value.
pub fn decode_opt_f64(s: &str) -> Option<Option<f64>> {
    match s {
        "-" => Some(None),
        bits => decode_f64(bits).map(Some),
    }
}

/// Runs a figure's cell grid with the standard `CC_SWEEP_CHECKPOINT`
/// contract: when the variable names a path, the sweep runs crash-durably
/// against it under `tag` (append-on-complete, resume-on-rerun); when it
/// is unset, nothing touches the filesystem. Cells that fail outright
/// panic with the figure's name — a figure with holes is not a figure.
///
/// An *unusable* checkpoint path (unopenable file, read-only or missing
/// directory) is not a figure failure: per the degradation contract the
/// run warns on stderr, bumps [`CHECKPOINT_OPEN_FAILURES`] in the
/// metrics registry, and continues uncheckpointed with identical
/// results — only crash durability is lost.
pub fn run_grid<C, R, F, E, D>(
    figure: &str,
    tag: &str,
    grid: &[C],
    run: F,
    encode: E,
    decode: D,
) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, u32, &C) -> R + Sync,
    E: Fn(&R) -> String + Sync,
    D: Fn(&str) -> Option<R>,
{
    let checkpoint = std::env::var_os("CC_SWEEP_CHECKPOINT").map(std::path::PathBuf::from);
    run_grid_at(
        figure,
        tag,
        checkpoint.as_deref(),
        grid,
        run,
        encode,
        decode,
    )
}

/// The env-free core of [`run_grid`]: `checkpoint` is the resolved
/// `CC_SWEEP_CHECKPOINT` path, if any. Split out so the degradation
/// path is testable without mutating the process environment.
#[allow(clippy::too_many_arguments)]
pub fn run_grid_at<C, R, F, E, D>(
    figure: &str,
    tag: &str,
    checkpoint: Option<&Path>,
    grid: &[C],
    run: F,
    encode: E,
    decode: D,
) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, u32, &C) -> R + Sync,
    E: Fn(&R) -> String + Sync,
    D: Fn(&str) -> Option<R>,
{
    let timed = |i: usize, attempt: u32, cell: &C| {
        crate::obs::span(&format!("{figure}[{i}]"), "sweep", 0, || {
            run(i, attempt, cell)
        })
    };
    if let Some(path) = checkpoint {
        match Sweep::new().run_checkpointed(grid, 1, path, tag, timed, &encode, &decode) {
            Ok(outcomes) => {
                return outcomes
                    .into_iter()
                    .map(|o| {
                        o.into_result()
                            .unwrap_or_else(|| panic!("{figure} cell failed"))
                    })
                    .collect();
            }
            Err(e) => {
                eprintln!(
                    "warning: {figure}: checkpoint {} unusable ({e}); \
                     continuing without crash durability",
                    path.display()
                );
                crate::obs::bump(CHECKPOINT_OPEN_FAILURES, 1);
            }
        }
    }
    Sweep::new().run(grid, |i, cell| timed(i, 0, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every raw bit pattern — NaN payloads, signalling bits,
        /// subnormals, both infinities — survives the codec exactly.
        /// `f64::NAN == f64::NAN` is false, so the assertion compares
        /// bits, which is also the property checkpoint resumes need.
        #[test]
        fn f64_codec_roundtrips_every_bit_pattern(bits in any::<u64>()) {
            let encoded = encode_f64(f64::from_bits(bits));
            let back = decode_f64(&encoded).expect("codec output parses");
            prop_assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn nan_payload_is_preserved_verbatim() {
        // A quiet NaN with a distinctive payload: canonicalizing codecs
        // collapse this to f64::NAN's bits and fail here.
        let bits = 0x7ff8_dead_beef_cafe_u64;
        let encoded = encode_f64(f64::from_bits(bits));
        assert_eq!(encoded, "7ff8deadbeefcafe");
        assert_eq!(decode_f64(&encoded).unwrap().to_bits(), bits);
    }

    #[test]
    fn unusable_checkpoint_path_degrades_to_uncheckpointed() {
        // A path whose parent is a regular file can never be opened —
        // the reliable stand-in for a read-only checkpoint directory
        // (plain permission checks don't bind when tests run as root).
        let blocker = std::env::temp_dir().join(format!("cc-ck-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let unopenable = blocker.join("checkpoint");

        let before = crate::obs::snapshot()
            .get(CHECKPOINT_OPEN_FAILURES)
            .unwrap_or(0);
        let cells: Vec<u64> = (0..4).collect();
        let out = run_grid_at(
            "test",
            "t",
            Some(unopenable.as_path()),
            &cells,
            |_, _, &c| c + 10,
            |r| r.to_string(),
            |s| s.parse().ok(),
        );
        assert_eq!(out, vec![10, 11, 12, 13], "results survive degradation");
        let after = crate::obs::snapshot()
            .get(CHECKPOINT_OPEN_FAILURES)
            .unwrap_or(0);
        assert_eq!(after, before + 1, "degradation is counted");
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn read_only_dir_checkpoint_degrades_when_permissions_bind() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("cc-ck-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        // Root ignores directory permissions; only assert degradation
        // when the read-only bit actually binds for this process.
        let binds = std::fs::write(dir.join("probe"), b"x").is_err();

        let cells: Vec<u64> = (0..3).collect();
        let out = run_grid_at(
            "test-ro",
            "t",
            Some(dir.join("checkpoint").as_path()),
            &cells,
            |_, _, &c| c * 3,
            |r| r.to_string(),
            |s| s.parse().ok(),
        );
        assert_eq!(out, vec![0, 3, 6], "read-only dir never loses results");
        if binds {
            let count = crate::obs::snapshot()
                .get(CHECKPOINT_OPEN_FAILURES)
                .unwrap_or(0);
            assert!(count >= 1, "read-only dir counted as degradation");
        }
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_codec_is_bit_exact() {
        for x in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, f64::INFINITY] {
            assert_eq!(decode_f64(&encode_f64(x)), Some(x));
        }
        let nan = decode_f64(&encode_f64(f64::NAN)).unwrap();
        assert!(nan.is_nan());
        assert_eq!(decode_f64("xyz"), None);
        let xs = [0.25, -3.5, 1e-12];
        assert_eq!(decode_f64s(&encode_f64s(&xs)).as_deref(), Some(&xs[..]));
        assert_eq!(decode_f64s("").as_deref(), Some(&[][..]));
        assert_eq!(decode_opt_f64(&encode_opt_f64(None)), Some(None));
        assert_eq!(decode_opt_f64(&encode_opt_f64(Some(2.0))), Some(Some(2.0)));
        assert_eq!(decode_opt_f64("nope"), None);
    }

    #[test]
    fn run_grid_without_env_is_a_plain_sweep() {
        // The test environment must not leak a checkpoint path in here.
        assert!(
            std::env::var_os("CC_SWEEP_CHECKPOINT").is_none(),
            "CC_SWEEP_CHECKPOINT set during tests"
        );
        let cells: Vec<u64> = (0..6).collect();
        let out = run_grid(
            "test",
            "t",
            &cells,
            |_, _, &c| c * 2,
            |r| r.to_string(),
            |s| s.parse().ok(),
        );
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }
}
