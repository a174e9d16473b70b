//! Deterministic fault injection for chaos testing.
//!
//! The failure-domain layer (panic-isolated workers, resource guards,
//! graceful drain) only earns its keep if every isolation path can be
//! exercised *repeatably* in CI. This module injects faults at the
//! pipeline's seams, driven by one environment variable:
//!
//! ```text
//! P4BID_FAULTS=<seed>:<spec>
//! ```
//!
//! where `<spec>` is a comma-separated list of `site=value` pairs:
//!
//! | site       | value   | effect                                                          |
//! |------------|---------|-----------------------------------------------------------------|
//! | `panic`    | percent | a checking worker panics on this program                        |
//! | `slow`     | percent | a check sleeps `slow-ms` before running                         |
//! | `slow-ms`  | millis  | sleep duration for `slow` (default 50)                          |
//! | `scan-eio` | percent | a watch scanner read fails with `EIO` (`watch`, `topo --watch`) |
//! | `sock-eio` | percent | a socket connection read fails with `EIO`                       |
//!
//! e.g. `P4BID_FAULTS=42:panic=10,slow=5,slow-ms=20`.
//!
//! **Determinism is the whole point.** Each decision is a pure function of
//! `(seed, site, key)` — no RNG state, no call counters — where the key is
//! the FNV-1a hash of the program's text for check-path faults and the
//! *path hash* for scanner faults. The same program therefore panics (or
//! doesn't) regardless of which worker picks it up, how many jobs run, or
//! how work was stolen — which is exactly what lets the chaos suite assert
//! byte-identical reports across `--jobs 1/2/8` with faults enabled.
//!
//! With `P4BID_FAULTS` unset (the production configuration) every query
//! short-circuits on a `None` plan; the hot path costs one relaxed load.

use std::sync::OnceLock;
use std::time::Duration;

/// An injection site: where in the pipeline a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A per-program panic inside a checking worker.
    WorkerPanic,
    /// A per-program artificial delay before checking.
    SlowCheck,
    /// An `EIO` from a watch scanner's file read (`watch`, `topo --watch`).
    ScanRead,
    /// An `EIO` from a socket connection read.
    SocketRead,
}

impl Site {
    /// The site's mixing tag: distinct per site so `panic=100` and
    /// `slow=100` select independent program subsets at lower rates.
    fn tag(self) -> u64 {
        match self {
            Site::WorkerPanic => 0x70_61_6e_69, // "pani"
            Site::SlowCheck => 0x73_6c_6f_77,   // "slow"
            Site::ScanRead => 0x73_63_61_6e,    // "scan"
            Site::SocketRead => 0x73_6f_63_6b,  // "sock"
        }
    }
}

/// A parsed `P4BID_FAULTS` plan: per-site percentages plus the slow-check
/// sleep duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The mixing seed (the part before `:`).
    pub seed: u64,
    /// Percent of programs whose check panics.
    pub panic_pct: u8,
    /// Percent of programs whose check is delayed.
    pub slow_pct: u8,
    /// The delay for slowed checks, in milliseconds.
    pub slow_ms: u64,
    /// Percent of scanner file reads that fail with `EIO`.
    pub scan_eio_pct: u8,
    /// Percent of socket connection reads that fail with `EIO`.
    pub sock_eio_pct: u8,
}

impl FaultPlan {
    /// Parses a `<seed>:<spec>` string. Returns `None` on any malformed
    /// input — chaos configuration errors should disable injection, not
    /// crash the service they exist to harden.
    #[must_use]
    pub fn parse(raw: &str) -> Option<FaultPlan> {
        let (seed, spec) = raw.split_once(':')?;
        let mut plan =
            FaultPlan { seed: seed.trim().parse().ok()?, slow_ms: 50, ..Default::default() };
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (site, value) = pair.split_once('=')?;
            let value = value.trim();
            match site.trim() {
                "panic" => plan.panic_pct = value.parse::<u8>().ok()?.min(100),
                "slow" => plan.slow_pct = value.parse::<u8>().ok()?.min(100),
                "slow-ms" => plan.slow_ms = value.parse().ok()?,
                "scan-eio" => plan.scan_eio_pct = value.parse::<u8>().ok()?.min(100),
                "sock-eio" => plan.sock_eio_pct = value.parse::<u8>().ok()?.min(100),
                _ => return None,
            }
        }
        Some(plan)
    }

    /// The configured percentage for one site.
    #[must_use]
    pub fn pct(&self, site: Site) -> u8 {
        match site {
            Site::WorkerPanic => self.panic_pct,
            Site::SlowCheck => self.slow_pct,
            Site::ScanRead => self.scan_eio_pct,
            Site::SocketRead => self.sock_eio_pct,
        }
    }

    /// Whether a fault fires at `site` for the work item identified by
    /// `key`. Pure in `(self.seed, site, key)`.
    #[must_use]
    pub fn fires(&self, site: Site, key: u64) -> bool {
        let pct = u64::from(self.pct(site));
        if pct == 0 {
            return false;
        }
        mix(self.seed ^ site.tag().wrapping_mul(0x9e37_79b9_7f4a_7c15), key) % 100 < pct
    }
}

/// SplitMix64-style finalizer over the seed/site/key mix: cheap, stateless,
/// and well distributed even for consecutive keys.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The process-wide plan, parsed once from `P4BID_FAULTS`. `None` when the
/// variable is unset or malformed.
pub fn plan() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| std::env::var("P4BID_FAULTS").ok().and_then(|v| FaultPlan::parse(&v)))
        .as_ref()
}

/// Whether a fault fires at `site` for `key` under the process-wide plan.
#[must_use]
pub fn fires(site: Site, key: u64) -> bool {
    plan().is_some_and(|p| p.fires(site, key))
}

/// Runs the check-path faults for the program `source`, keyed on the
/// FNV-1a hash of its text: sleeps if a slow-check fault fires, then
/// panics if a worker-panic fault fires. Called by the batch/serve/fuzz
/// checks *inside* the worker pool's panic boundary, after the
/// per-program deadline is armed (so injected slowness deterministically
/// exercises `--check-timeout-ms`). The hash is O(source), so it is taken
/// only when a plan is loaded.
///
/// # Panics
///
/// Panics deliberately when a `panic=` fault fires for `source`.
pub fn check_faults(source: &str) {
    let Some(p) = plan() else { return };
    let key = p4bid_ast::hash::fnv1a(source.as_bytes());
    if p.fires(Site::SlowCheck, key) {
        std::thread::sleep(Duration::from_millis(p.slow_ms));
    }
    assert!(
        !p.fires(Site::WorkerPanic, key),
        "injected fault: worker panic (P4BID_FAULTS, key {key:#018x})"
    );
}

/// The injected I/O error for read faults (`EIO`-flavored, so it lands on
/// the same match arms as a real disk or socket error).
#[must_use]
pub fn injected_eio(what: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: EIO reading {what} (P4BID_FAULTS)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p = FaultPlan::parse("42:panic=10,slow=5,slow-ms=20,scan-eio=3,sock-eio=7").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.panic_pct, 10);
        assert_eq!(p.slow_pct, 5);
        assert_eq!(p.slow_ms, 20);
        assert_eq!(p.scan_eio_pct, 3);
        assert_eq!(p.sock_eio_pct, 7);
    }

    #[test]
    fn slow_ms_defaults_to_50() {
        assert_eq!(FaultPlan::parse("1:slow=100").unwrap().slow_ms, 50);
    }

    #[test]
    fn malformed_specs_disable_injection() {
        for raw in ["", "42", "42:panic", "42:panic=x", "42:bogus=1", "x:panic=1"] {
            assert_eq!(FaultPlan::parse(raw), None, "{raw:?}");
        }
    }

    #[test]
    fn percentages_clamp_to_100() {
        let p = FaultPlan::parse("1:panic=250").unwrap();
        assert_eq!(p.panic_pct, 100);
        assert!(p.fires(Site::WorkerPanic, 12345));
    }

    #[test]
    fn decisions_are_pure_and_site_scoped() {
        let p = FaultPlan::parse("7:panic=30,slow=30").unwrap();
        let fired: Vec<bool> = (0..200).map(|k| p.fires(Site::WorkerPanic, k)).collect();
        // Pure: the same (seed, site, key) always decides the same way.
        for (k, &f) in fired.iter().enumerate() {
            assert_eq!(p.fires(Site::WorkerPanic, k as u64), f);
        }
        // Roughly the configured rate (loose bounds; the mix is not a CSPRNG).
        let hits = fired.iter().filter(|&&f| f).count();
        assert!((20..=90).contains(&hits), "{hits}/200 at 30%");
        // Sites are independent: panic and slow pick different subsets.
        let slow: Vec<bool> = (0..200).map(|k| p.fires(Site::SlowCheck, k)).collect();
        assert_ne!(fired, slow);
    }

    #[test]
    fn different_seeds_pick_different_subsets() {
        let a = FaultPlan::parse("1:panic=50").unwrap();
        let b = FaultPlan::parse("2:panic=50").unwrap();
        let fa: Vec<bool> = (0..100).map(|k| a.fires(Site::WorkerPanic, k)).collect();
        let fb: Vec<bool> = (0..100).map(|k| b.fires(Site::WorkerPanic, k)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn zero_percent_never_fires() {
        let p = FaultPlan::parse("9:slow-ms=10").unwrap();
        for k in 0..50 {
            assert!(!p.fires(Site::WorkerPanic, k));
            assert!(!p.fires(Site::SlowCheck, k));
        }
    }

    #[test]
    fn injected_eio_is_an_io_error() {
        let e = injected_eio("socket");
        assert!(e.to_string().contains("injected fault"), "{e}");
    }
}
