//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, JSON string escaping, and nonce-stamped program templates.

/// A splitmix64 generator: every input the benchmark builds is a pure
/// function of the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two
    /// workloads (or two uses inside one) never share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Puts `v` in a random order (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i));
        }
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; sorts `v`.
#[must_use]
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `v`; sorts `v`.
#[must_use]
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time consumed so far, in µs: by the whole process (`process`) or
/// by the calling thread. Unlike wall time it does not advance while the
/// thread waits for a CPU, so it is immune to time the host gives to
/// other tenants.
#[must_use]
pub fn cpu_us(process: bool) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID on Linux.
    let clock = if process { 2 } else { 3 };
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks exist on Linux");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// A digest of `texts`, for telling generated inputs apart.
#[must_use]
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in texts {
        t.hash(&mut h);
    }
    h.finish()
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Width of the decimal nonce field stamped into templates.
pub const NONCE_DIGITS: usize = 8;

/// The placeholder a template carries where the nonce goes.
pub const NONCE_MARK: &str = "00000000";

/// A program (or request line) with one fixed-width decimal field that
/// gets a fresh number on each use. A fresh number makes every
/// submission a new text, so no verdict or snapshot cache can answer it,
/// while the inputs stay a small pre-built pool instead of megabytes of
/// distinct text.
#[derive(Debug, Clone)]
pub struct Template {
    text: String,
    slot: usize,
}

impl Template {
    /// A template whose nonce goes where the first [`NONCE_MARK`] is.
    ///
    /// # Panics
    ///
    /// Panics if `text` has no [`NONCE_MARK`] (a bug in the generator).
    #[must_use]
    pub fn new(text: String) -> Self {
        let slot = text.find(NONCE_MARK).expect("template carries a nonce mark");
        Template { text, slot }
    }

    /// The text with `nonce` (mod 10^8) written into the field.
    #[must_use]
    pub fn with_nonce(&self, nonce: u64) -> String {
        let digits = format!("{:0width$}", nonce % 100_000_000, width = NONCE_DIGITS);
        let mut out = String::with_capacity(self.text.len());
        out.push_str(&self.text[..self.slot]);
        out.push_str(&digits);
        out.push_str(&self.text[self.slot + NONCE_DIGITS..]);
        out
    }

    /// The template text (nonce field still zeroed).
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// A verdict's diagnostics as `CODE@line:col` items, for failure notes.
#[must_use]
pub fn codes(p: &p4bid::batch::ProgramReport) -> String {
    let items: Vec<String> =
        p.diagnostics.iter().map(|d| format!("{}@{}:{}", d.code, d.line, d.col)).collect();
    format!("accepted={} [{}]", p.accepted, items.join(", "))
}

/// 1-based `(line, col)` of byte offset `at` in `text`.
#[must_use]
pub fn line_col(text: &str, at: usize) -> (usize, usize) {
    let before = &text[..at];
    let line = before.matches('\n').count() + 1;
    let col = at - before.rfind('\n').map_or(0, |i| i + 1) + 1;
    (line, col)
}

/// Replaces every `word` that is immediately followed by an ASCII digit
/// with `with` (renames `act3` → `a7_3` without touching `actions`).
#[must_use]
pub fn rename_numbered(src: &str, word: &str, with: &str) -> String {
    let mut out = String::with_capacity(src.len() + 64);
    let mut rest = src;
    while let Some(i) = rest.find(word) {
        let after = &rest[i + word.len()..];
        out.push_str(&rest[..i]);
        if after.as_bytes().first().is_some_and(u8::is_ascii_digit) {
            out.push_str(with);
        } else {
            out.push_str(word);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonces_rewrite_only_the_field() {
        let t = Template::new(format!("x{NONCE_MARK}y"));
        assert_eq!(t.with_nonce(42), "x00000042y");
        assert_eq!(t.with_nonce(123_456_789), "x23456789y");
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn renaming_skips_keywords() {
        assert_eq!(rename_numbered("actions = { act0; }", "act", "q_"), "actions = { q_0; }");
    }

    #[test]
    fn line_col_is_one_based() {
        assert_eq!(line_col("ab\ncd", 4), (2, 2));
    }
}
