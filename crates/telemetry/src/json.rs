//! Byte-stable JSON fragment helpers.
//!
//! Hand-rolled (no serde) so that every producer in the workspace
//! renders numbers and strings identically: the determinism contract
//! — same seed + same fault plan ⇒ byte-identical trace — depends on
//! a single canonical formatting of every value. Rust's `f64` display
//! uses the Ryū shortest-round-trip algorithm, which is platform
//! independent, so string equality of an exported trace *is* a valid
//! cross-run and cross-machine determinism test.

/// Render an `f64` as a canonical JSON number.
///
/// Non-finite values (which JSON cannot represent) become `null`.
/// Integral values are forced to carry a `.0` suffix so that a value
/// being exactly integral on one run and `x.000001` on another can
/// never alias to the same token length by accident.
pub fn json_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Render a string as a JSON string literal with minimal ASCII
/// escaping (quotes, backslash, control characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a slice of floats as a JSON array of canonical numbers.
pub fn json_f64_array(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|&x| json_f64(x)).collect();
    format!("[{}]", body.join(","))
}

/// Render a slice of unsigned integers as a JSON array.
pub fn json_u32_array(xs: &[u32]) -> String {
    let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", body.join(","))
}

/// FNV-1a 64 digest of `bytes`, rendered as 16 lowercase hex digits —
/// the one fingerprint the sweep, runner-report, bench and
/// golden-manifest digests share.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(0.0), "0.0");
        assert_eq!(json_f64(-2.0), "-2.0");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn shortest_round_trip_is_used() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(1e-6), "0.000001");
    }

    #[test]
    fn strings_escape_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn arrays_render_flat() {
        assert_eq!(json_f64_array(&[1.0, 0.5]), "[1.0,0.5]");
        assert_eq!(json_u32_array(&[1, 2]), "[1,2]");
        assert_eq!(json_f64_array(&[]), "[]");
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64_hex(b"a"), "af63dc4c8601ec8c");
    }
}
