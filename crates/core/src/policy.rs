//! Policy packs: declarative per-program-group check options.
//!
//! A fleet rarely checks every program under one policy — telemetry
//! pipelines run a diamond lattice, externally-sourced programs must not
//! declassify, a staging directory is checked at a raised ambient `pc`.
//! A policy pack (`p4bid.policy` by convention) maps name globs to option
//! overrides so `batch`/`serve`/`watch` resolve per-program
//! [`CheckOptions`] instead of one global set:
//!
//! ```text
//! # Telemetry programs run on the diamond lattice and may declassify.
//! [telemetry/*]
//! lattice = "diamond"
//! declassify = true
//!
//! # Quarantined submissions are checked in a raised context.
//! [quarantine-?.p4]
//! lattice = "low < high"
//! pc = "high"
//!
//! [*]
//! # Everything else: the run's base options, explicitly.
//! ```
//!
//! The format is the crate's usual flat, line-based style: `[glob]`
//! section headers, `key = value` lines, `#` comments. Recognized keys:
//!
//! * `lattice` — `"two-point"`, `"diamond"`, or an order expression of
//!   `lo < hi` pairs separated by `;` (element names appear in first-use
//!   order), e.g. `"bot < alice; bot < bob; alice < top; bob < top"`;
//! * `pc` — ambient context label name (resolved against the rule's
//!   active lattice at check time);
//! * `declassify` — `true`/`false`, whether `declassify(e)` is permitted;
//! * `lineage` — `true`/`false`, whether flow-lineage recording is on.
//!
//! Rules are tried **in file order; the first matching glob wins** (no
//! cross-section merging), so specific globs belong above catch-alls.
//! Globs match the program's report name — the file name for `batch` and
//! `watch`, the request id for `serve` — with `*` (any run, including
//! empty) and `?` (exactly one character).
//!
//! Loading is fail-fast: any unknown key, bad value, or malformed lattice
//! is a [`PolicyError`] carrying the 1-based line number, and the CLI
//! refuses to start. A policy that silently fell back to defaults would
//! *weaken* checking, the one thing a policy file must never do.

use p4bid_lattice::Lattice;
use p4bid_typeck::CheckOptions;
use std::fmt;

/// One glob → option-overrides rule of a policy pack.
#[derive(Debug, Clone)]
pub struct PolicyRule {
    /// The name glob (`*` any run, `?` one character).
    pub glob: String,
    /// Lattice override, if the rule sets one.
    pub lattice: Option<Lattice>,
    /// Ambient `pc` label override, if the rule sets one.
    pub pc: Option<String>,
    /// `declassify` permission override, if the rule sets one.
    pub declassify: Option<bool>,
    /// Lineage-recording override, if the rule sets one.
    pub lineage: Option<bool>,
}

impl PolicyRule {
    fn new(glob: impl Into<String>) -> Self {
        PolicyRule { glob: glob.into(), lattice: None, pc: None, declassify: None, lineage: None }
    }

    /// Applies this rule's overrides on top of `base`.
    pub(crate) fn apply(&self, base: &CheckOptions) -> CheckOptions {
        let mut opts = base.clone();
        if let Some(l) = &self.lattice {
            opts.lattice = Some(l.clone());
        }
        if let Some(pc) = &self.pc {
            opts.pc = Some(pc.clone());
        }
        if let Some(d) = self.declassify {
            opts.allow_declassify = d;
        }
        if let Some(r) = self.lineage {
            opts.record_lineage = r;
        }
        opts
    }
}

/// A parsed policy pack: the ordered rule list.
#[derive(Debug, Clone, Default)]
pub struct PolicyPack {
    rules: Vec<PolicyRule>,
}

/// A policy-file load error, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line in the policy file (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl PolicyError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        PolicyError { line, message: message.into() }
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "policy error: {}", self.message)
        } else {
            write!(f, "policy error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for PolicyError {}

impl PolicyPack {
    /// Parses a policy pack from its text form.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (fail-fast: a policy file is a
    /// security boundary and never degrades to defaults silently).
    pub fn parse(text: &str) -> Result<Self, PolicyError> {
        let mut rules: Vec<PolicyRule> = Vec::new();
        for (ix, raw) in text.lines().enumerate() {
            let lineno = ix + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(glob) = header.strip_suffix(']') else {
                    return Err(PolicyError::at(
                        lineno,
                        format!("unterminated section header `{line}`"),
                    ));
                };
                let glob = glob.trim();
                if glob.is_empty() {
                    return Err(PolicyError::at(lineno, "empty glob in section header"));
                }
                rules.push(PolicyRule::new(glob));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(PolicyError::at(
                    lineno,
                    format!("expected `key = value`, found `{line}`"),
                ));
            };
            let Some(rule) = rules.last_mut() else {
                return Err(PolicyError::at(lineno, "`key = value` before any `[glob]` section"));
            };
            let key = key.trim();
            let value = unquote(value.trim());
            match key {
                "lattice" => rule.lattice = Some(parse_lattice(value, lineno)?),
                "pc" => rule.pc = Some(value.to_string()),
                "declassify" => rule.declassify = Some(parse_bool(value, lineno)?),
                "lineage" => rule.lineage = Some(parse_bool(value, lineno)?),
                other => {
                    return Err(PolicyError::at(
                        lineno,
                        format!(
                            "unknown key `{other}` (expected `lattice`, `pc`, `declassify`, \
                             or `lineage`)"
                        ),
                    ));
                }
            }
        }
        Ok(PolicyPack { rules })
    }

    /// Loads and parses a policy file.
    ///
    /// # Errors
    ///
    /// I/O failures and parse errors both surface as [`PolicyError`].
    pub fn load(path: &std::path::Path) -> Result<Self, PolicyError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PolicyError::at(0, format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// The ordered rule list.
    #[must_use]
    pub fn rules(&self) -> &[PolicyRule] {
        &self.rules
    }

    /// Whether the pack has no rules (every name resolves to `base`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The first rule whose glob matches `name`, if any.
    #[must_use]
    pub fn matching(&self, name: &str) -> Option<&PolicyRule> {
        self.rules.iter().find(|r| glob_match(&r.glob, name))
    }

    /// Resolves the effective [`CheckOptions`] for a program name: the
    /// first matching rule's overrides applied on top of `base`, or `base`
    /// unchanged when no rule matches.
    #[must_use]
    pub fn resolve(&self, name: &str, base: &CheckOptions) -> CheckOptions {
        match self.matching(name) {
            Some(rule) => rule.apply(base),
            None => base.clone(),
        }
    }
}

pub(crate) fn unquote(s: &str) -> &str {
    s.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(s)
}

pub(crate) fn parse_bool(s: &str, line: usize) -> Result<bool, PolicyError> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(PolicyError::at(line, format!("expected `true` or `false`, found `{other}`"))),
    }
}

/// Parses a lattice value: a named shorthand or a `lo < hi; …` order
/// expression (element names in first-appearance order). Shared with the
/// topology manifest parser, which speaks the same flat format.
pub(crate) fn parse_lattice(s: &str, line: usize) -> Result<Lattice, PolicyError> {
    match s {
        "two-point" => return Ok(Lattice::two_point()),
        "diamond" => return Ok(Lattice::diamond()),
        _ => {}
    }
    let mut names: Vec<String> = Vec::new();
    let mut order: Vec<(String, String)> = Vec::new();
    for pair in s.split(';') {
        let Some((lo, hi)) = pair.split_once('<') else {
            return Err(PolicyError::at(
                line,
                format!("expected a `lo < hi` pair, found `{}`", pair.trim()),
            ));
        };
        let (lo, hi) = (lo.trim().to_string(), hi.trim().to_string());
        if lo.is_empty() || hi.is_empty() {
            return Err(PolicyError::at(line, "empty label name in lattice order"));
        }
        for n in [&lo, &hi] {
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        order.push((lo, hi));
    }
    Lattice::from_order(&names, &order)
        .map_err(|e| PolicyError::at(line, format!("invalid lattice: {e}")))
}

/// Matches `name` against a glob pattern: `*` any run of characters
/// (including empty), `?` exactly one, everything else literal. Classic
/// backtracking over the last `*` — patterns are short, so worst-case
/// behavior is irrelevant here.
#[must_use]
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    let (mut pi, mut ni) = (0, 0);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            // Backtrack: let the last `*` swallow one more character.
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_typeck::Mode;

    const PACK: &str = r#"
# telemetry gets the diamond and may declassify
[telemetry/*]
lattice = "diamond"
declassify = true

[quarantine-?.p4]
lattice = "low < high"
pc = "high"

[noexplain/*]
lineage = false

[*]
"#;

    #[test]
    fn globs_match_like_shell_patterns() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything.p4"));
        assert!(glob_match("telemetry/*", "telemetry/a.p4"));
        assert!(!glob_match("telemetry/*", "other/a.p4"));
        assert!(glob_match("quarantine-?.p4", "quarantine-7.p4"));
        assert!(!glob_match("quarantine-?.p4", "quarantine-77.p4"));
        assert!(glob_match("a*b*c", "a-XX-b-YY-c"));
        assert!(!glob_match("a*b*c", "a-XX-c"));
        assert!(!glob_match("abc", "abcd"));
    }

    #[test]
    fn first_matching_rule_wins_in_file_order() {
        let pack = PolicyPack::parse(PACK).unwrap();
        let base = CheckOptions::ifc();
        let tele = pack.resolve("telemetry/x.p4", &base);
        assert!(tele.allow_declassify);
        assert_eq!(tele.lattice.as_ref().unwrap().len(), 4);
        let quar = pack.resolve("quarantine-3.p4", &base);
        assert_eq!(quar.pc.as_deref(), Some("high"));
        assert!(!quar.allow_declassify);
        let noex = pack.resolve("noexplain/y.p4", &base);
        assert!(!noex.record_lineage);
        // The `[*]` catch-all sets nothing: base options unchanged.
        let plain = pack.resolve("plain.p4", &base);
        assert_eq!(plain.mode, Mode::Ifc);
        assert!(plain.lattice.is_none());
        assert!(plain.record_lineage);
    }

    #[test]
    fn custom_order_lattices_resolve() {
        let pack = PolicyPack::parse(
            "[d/*]\nlattice = \"bot < alice; bot < bob; alice < top; bob < top\"\n",
        )
        .unwrap();
        let opts = pack.resolve("d/p.p4", &CheckOptions::ifc());
        let lat = opts.lattice.unwrap();
        assert_eq!(lat.len(), 4);
        let alice = lat.label("alice").unwrap();
        let bob = lat.label("bob").unwrap();
        assert!(!lat.leq(alice, bob) && !lat.leq(bob, alice));
    }

    #[test]
    fn malformed_packs_fail_fast_with_line_numbers() {
        let e = PolicyPack::parse("[a\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = PolicyPack::parse("pc = \"high\"\n").unwrap_err();
        assert!(e.message.contains("before any"), "{e}");
        let e = PolicyPack::parse("[a]\nfrobnicate = true\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown key"), "{e}");
        let e = PolicyPack::parse("[a]\ndeclassify = yes\n").unwrap_err();
        assert!(e.message.contains("true"), "{e}");
        let e = PolicyPack::parse("[a]\nlattice = \"low > high\"\n").unwrap_err();
        assert!(e.message.contains("lo < hi"), "{e}");
        let e = PolicyPack::parse("[a]\nlattice = \"low < high; high < low\"\n").unwrap_err();
        assert!(e.message.contains("invalid lattice"), "{e}");
    }

    #[test]
    fn empty_pack_resolves_to_base_everywhere() {
        let pack = PolicyPack::parse("# only comments\n").unwrap();
        assert!(pack.is_empty());
        let base = CheckOptions::ifc().with_pc("high");
        let opts = pack.resolve("anything.p4", &base);
        assert_eq!(opts.pc.as_deref(), Some("high"));
    }
}
