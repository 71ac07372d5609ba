//! Deterministic fault injection for the chipdda serving stack.
//!
//! This crate is a seeded, schedule-driven failpoint registry in the
//! spirit of tikv's `fail-rs`, with two deliberate differences:
//!
//! 1. **Determinism.** Whether a failpoint fires is a pure function of
//!    `(schedule seed, site name, per-site hit index)`. A chaos run that
//!    finds a bug is byte-replayable from the `(seed, schedule)` pair
//!    alone — no timing races in the *decision* to inject (the injected
//!    faults themselves may of course perturb timing).
//! 2. **Zero cost when compiled out.** The `fail_point!` / `fail_io!`
//!    macros are selected by this crate's `failpoints` cargo feature *at
//!    the macro definition site*. Without the feature they expand to
//!    nothing (or a constant `Ok(())`), so production builds carry no
//!    branch, no atomic load, and no registry.
//!
//! # Site catalog
//!
//! Sites are plain `&str` names threaded through the hot paths of the
//! runtime pool, the serve daemon, the sim design cache, and the journal.
//! The canonical list lives in [`SITES`]; DESIGN.md §5h documents what
//! each site means and which actions are meaningful there.
//!
//! # Usage
//!
//! ```ignore
//! // In library code (any build):
//! dda_fail::fail_point!("pool.exec");                   // Panic / Sleep
//! dda_fail::fail_point!("pool.submit", Err(SubmitError::Overloaded { depth }));
//! dda_fail::fail_io!("journal.append")?;                // injected io::Error
//!
//! // In a chaos test (built with `--features failpoints`):
//! let schedule = dda_fail::FaultSchedule::parse(
//!     "seed=42;serve.dispatch=panic@hit:3;journal.append=ioerr@every:0:2",
//! )?;
//! dda_fail::install(schedule)?;
//! // ... drive the system ...
//! let fired = dda_fail::fired_log();                    // what actually fired
//! dda_fail::deactivate();
//! ```

#![deny(missing_docs)]

use std::fmt;

/// Canonical failpoint site names threaded through the stack.
///
/// | site | layer | meaningful actions |
/// |------|-------|--------------------|
/// | `pool.submit` | `dda-runtime` pool admission | `return` (shed as `Overloaded`) |
/// | `pool.exec` | worker thread, before running a job | `panic` (caught per-job), `sleep` |
/// | `pool.watchdog` | watchdog sweep loop | `panic` (caught; loop survives), `sleep` |
/// | `serve.conn.read` | daemon per-connection frame read | `ioerr`, `sleep` |
/// | `serve.conn.write` | daemon response frame write | `ioerr`, `sleep` |
/// | `serve.dispatch` | daemon handler dispatch, pre-submit | `panic` (crashes the service loop) |
/// | `sim.cache.lock` | design-cache shard lock acquisition | `sleep` |
/// | `sim.cache.evict` | design-cache LRU eviction | `sleep` |
/// | `journal.append` | journal line append | `ioerr` |
/// | `journal.fsync` | journal durability sync | `ioerr` |
/// | `slm.shard.merge` | sharded retrieval, after scoring, before the hits return | `panic` (caught per-request), `sleep` |
/// | `slm.shard.compact` | retired: no call site (shard compaction was removed) | — |
/// | `eval.agent.round` | agent chain, top of each tool-feedback round | `panic` (quarantines the chain), `sleep` |
///
/// New sites append at the END of this list: [`FaultSchedule::generate`]
/// draws one ordered stream across the sites, so appending keeps every
/// earlier site's generated rules byte-identical for any pinned seed.
pub const SITES: &[&str] = &[
    "pool.submit",
    "pool.exec",
    "pool.watchdog",
    "serve.conn.read",
    "serve.conn.write",
    "serve.dispatch",
    "sim.cache.lock",
    "sim.cache.evict",
    "journal.append",
    "journal.fsync",
    "slm.shard.merge",
    // Retired (no call site), kept so the generated stream for later sites is unchanged.
    "slm.shard.compact",
    "eval.agent.round",
];

/// Whether the failpoint machinery was compiled into this build.
///
/// Always available, so callers (CLI, benches, CI guards) can report the
/// build flavor without `cfg` gymnastics of their own.
pub const fn compiled() -> bool {
    cfg!(feature = "failpoints")
}

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (`panic!`), simulating a crash of the
    /// surrounding component. Whether that is fatal depends on the site:
    /// `pool.exec` panics are caught per-job, `serve.dispatch` panics
    /// take down the service loop.
    Panic,
    /// Sleep for the given number of milliseconds, simulating a stall
    /// (slow disk, contended lock, scheduling hiccup).
    Sleep(u64),
    /// Inject an `io::Error` (only meaningful at `fail_io!` sites).
    IoErr,
    /// Early-return the expression given at the `fail_point!` site (only
    /// meaningful at two-argument `fail_point!` sites, e.g. shedding a
    /// submit as `Overloaded`).
    Return,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Sleep(ms) => write!(f, "sleep:{ms}"),
            FaultAction::IoErr => write!(f, "ioerr"),
            FaultAction::Return => write!(f, "return"),
        }
    }
}

/// When an armed failpoint fires, as a function of the per-site hit
/// index (0-based count of executions of that site since [`install`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, on the N-th hit.
    OnHit(u64),
    /// Fire on hit `start`, then every `every` hits after that.
    Every {
        /// First hit index that fires.
        start: u64,
        /// Period between firing hits (must be ≥ 1).
        every: u64,
    },
    /// Fire on each hit with probability `p`/1000, decided by a pure
    /// splitmix64 hash of `(schedule seed, site, hit index)` — random in
    /// distribution, deterministic in replay.
    Permille(u16),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::OnHit(n) => write!(f, "hit:{n}"),
            Trigger::Every { start, every } => write!(f, "every:{start}:{every}"),
            Trigger::Permille(p) => write!(f, "permille:{p}"),
        }
    }
}

/// One armed failpoint: a site, what to do, and when to do it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Failpoint site name (see [`SITES`]).
    pub site: String,
    /// Action taken when the trigger fires.
    pub action: FaultAction,
    /// When the action fires.
    pub trigger: Trigger,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}@{}", self.site, self.action, self.trigger)
    }
}

/// A complete, self-describing fault schedule: a seed (feeding
/// [`Trigger::Permille`] coins) plus an ordered rule list. The first
/// rule matching a site whose trigger fires wins.
///
/// Schedules round-trip through a compact text grammar
/// ([`FaultSchedule::parse`] / [`FaultSchedule::to_spec`]) so a failing
/// chaos run can be reported, shrunk by hand, and replayed from a single
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed for probabilistic triggers.
    pub seed: u64,
    /// Ordered rules; first match wins per site.
    pub rules: Vec<FaultRule>,
}

/// Error from [`FaultSchedule::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault schedule: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultSchedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder: appends a rule and returns the schedule.
    #[must_use]
    pub fn rule(mut self, site: &str, action: FaultAction, trigger: Trigger) -> FaultSchedule {
        self.rules.push(FaultRule {
            site: site.to_string(),
            action,
            trigger,
        });
        self
    }

    /// The pure decision function: does this schedule fire at `site` on
    /// its `hit`-th execution (0-based), and if so with what action?
    ///
    /// Depends only on `(self, site, hit)` — this is what makes chaos
    /// runs replayable from the schedule alone.
    pub fn decide(&self, site: &str, hit: u64) -> Option<FaultAction> {
        for r in &self.rules {
            if r.site != site {
                continue;
            }
            let fires = match r.trigger {
                Trigger::OnHit(n) => hit == n,
                Trigger::Every { start, every } => {
                    hit >= start && (hit - start).is_multiple_of(every.max(1))
                }
                Trigger::Permille(p) => {
                    let coin = splitmix64(
                        self.seed ^ fnv1a(site) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    (coin % 1000) < u64::from(p)
                }
            };
            if fires {
                return Some(r.action);
            }
        }
        None
    }

    /// Serializes to the text grammar accepted by [`FaultSchedule::parse`]:
    /// `seed=N;site=action@trigger;...`.
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for r in &self.rules {
            out.push(';');
            out.push_str(&r.to_string());
        }
        out
    }

    /// Parses the `seed=N;site=action@trigger;...` grammar.
    ///
    /// Actions: `panic`, `sleep:MS`, `ioerr`, `return`. Triggers:
    /// `hit:N`, `every:START:PERIOD`, `permille:P`. A leading `seed=N`
    /// part is optional (defaults to 0, fine for schedules without
    /// `permille` rules).
    ///
    /// # Errors
    ///
    /// [`ParseError`] naming the offending part.
    pub fn parse(spec: &str) -> Result<FaultSchedule, ParseError> {
        let mut schedule = FaultSchedule::new(0);
        for (i, part) in spec.split(';').map(str::trim).enumerate() {
            if part.is_empty() {
                continue;
            }
            if let Some(seed) = part.strip_prefix("seed=") {
                if i != 0 {
                    return Err(ParseError(format!("seed must come first, got `{part}`")));
                }
                schedule.seed = seed
                    .parse()
                    .map_err(|_| ParseError(format!("bad seed `{seed}`")))?;
                continue;
            }
            let (site, rest) = part
                .split_once('=')
                .ok_or_else(|| ParseError(format!("rule `{part}` missing `=`")))?;
            let (action_s, trigger_s) = rest
                .split_once('@')
                .ok_or_else(|| ParseError(format!("rule `{part}` missing `@trigger`")))?;
            let action = parse_action(action_s)
                .ok_or_else(|| ParseError(format!("bad action `{action_s}` in `{part}`")))?;
            let trigger = parse_trigger(trigger_s)
                .ok_or_else(|| ParseError(format!("bad trigger `{trigger_s}` in `{part}`")))?;
            schedule.rules.push(FaultRule {
                site: site.to_string(),
                action,
                trigger,
            });
        }
        Ok(schedule)
    }

    /// Generates a pseudo-random schedule over `sites`, deterministically
    /// from `seed`. Used by the schedule-exploration harness: sweeping
    /// seeds sweeps schedules, and any failure names its seed.
    ///
    /// `Panic` actions are always armed with a finite [`Trigger::OnHit`]
    /// so a generated schedule causes a bounded number of crashes per
    /// site rather than a crash loop.
    pub fn generate(seed: u64, sites: &[&str]) -> FaultSchedule {
        let mut schedule = FaultSchedule::new(seed);
        let mut state = splitmix64(seed ^ 0x0DDA_FA11);
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        for site in sites {
            // Arm roughly 60% of sites per schedule.
            if next() % 100 >= 60 {
                continue;
            }
            let action = match next() % 4 {
                0 => FaultAction::Sleep(1 + next() % 5),
                1 => FaultAction::IoErr,
                2 => FaultAction::Return,
                _ => FaultAction::Panic,
            };
            let trigger = if action == FaultAction::Panic {
                Trigger::OnHit(next() % 4)
            } else {
                match next() % 3 {
                    0 => Trigger::OnHit(next() % 8),
                    1 => Trigger::Every {
                        start: next() % 4,
                        every: 1 + next() % 4,
                    },
                    _ => Trigger::Permille(100 + (next() % 300) as u16),
                }
            };
            schedule.rules.push(FaultRule {
                site: (*site).to_string(),
                action,
                trigger,
            });
        }
        schedule
    }
}

fn parse_action(s: &str) -> Option<FaultAction> {
    match s {
        "panic" => Some(FaultAction::Panic),
        "ioerr" => Some(FaultAction::IoErr),
        "return" => Some(FaultAction::Return),
        _ => {
            let ms = s.strip_prefix("sleep:")?;
            ms.parse().ok().map(FaultAction::Sleep)
        }
    }
}

fn parse_trigger(s: &str) -> Option<Trigger> {
    if let Some(n) = s.strip_prefix("hit:") {
        return n.parse().ok().map(Trigger::OnHit);
    }
    if let Some(p) = s.strip_prefix("permille:") {
        return p.parse().ok().filter(|p| *p <= 1000).map(Trigger::Permille);
    }
    let rest = s.strip_prefix("every:")?;
    let (start, every) = rest.split_once(':')?;
    let every: u64 = every.parse().ok()?;
    if every == 0 {
        return None;
    }
    Some(Trigger::Every {
        start: start.parse().ok()?,
        every,
    })
}

/// One firing of a failpoint, for post-run reconciliation against the
/// `dda-obs` trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired {
    /// Site that fired.
    pub site: String,
    /// 0-based hit index at which it fired.
    pub hit: u64,
    /// Action taken.
    pub action: FaultAction,
}

/// Returned by [`install`] when this build was compiled without the
/// `failpoints` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotCompiled;

impl fmt::Display for NotCompiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dda-fail was compiled without the `failpoints` feature; rebuild with --features failpoints"
        )
    }
}

impl std::error::Error for NotCompiled {}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{FaultAction, FaultSchedule, Fired, NotCompiled};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// Cap on the retained [`Fired`] log; totals keep counting past it.
    const FIRED_LOG_CAP: usize = 10_000;

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Option<Active>> = Mutex::new(None);

    struct Active {
        schedule: FaultSchedule,
        hits: HashMap<String, u64>,
        fired: Vec<Fired>,
        fired_total: u64,
    }

    fn registry() -> std::sync::MutexGuard<'static, Option<Active>> {
        // The registry lock is never held across an injected panic (eval
        // decides under the lock, the *macro* acts after it is released),
        // but be robust to poisoning from unrelated test panics anyway.
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arms `schedule` as the process-global fault schedule, resetting
    /// all hit counters and the fired log.
    pub fn install(schedule: FaultSchedule) -> Result<(), NotCompiled> {
        let mut reg = registry();
        *reg = Some(Active {
            schedule,
            hits: HashMap::new(),
            fired: Vec::new(),
            fired_total: 0,
        });
        ACTIVE.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Disarms fault injection; subsequent site executions cost one
    /// relaxed atomic load and fire nothing.
    pub fn deactivate() {
        ACTIVE.store(false, Ordering::SeqCst);
        *registry() = None;
    }

    /// Whether a schedule is currently armed.
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// The firings recorded since [`install`] (capped at an internal
    /// limit; see [`fired_total`] for the uncapped count).
    pub fn fired_log() -> Vec<Fired> {
        registry()
            .as_ref()
            .map_or_else(Vec::new, |a| a.fired.clone())
    }

    /// Total number of firings since [`install`], uncapped.
    pub fn fired_total() -> u64 {
        registry().as_ref().map_or(0, |a| a.fired_total)
    }

    /// Per-site execution counts since [`install`] (every pass through a
    /// site, fired or not), sorted by site name.
    pub fn hit_counts() -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = registry().as_ref().map_or_else(Vec::new, |a| {
            a.hits.iter().map(|(k, v)| (k.clone(), *v)).collect()
        });
        v.sort();
        v
    }

    /// Decision point called by the `fail_point!` / `fail_io!` macros.
    ///
    /// Increments the site's hit counter and returns the scheduled
    /// action for this hit, if any. The decision (and the fired-log
    /// append) happens under the registry lock; the *action* is taken by
    /// the caller after the lock is released, so an injected panic never
    /// poisons the registry.
    pub fn eval(site: &str) -> Option<FaultAction> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return None;
        }
        let action = {
            let mut reg = registry();
            let active = reg.as_mut()?;
            let hit = active.hits.entry(site.to_string()).or_insert(0);
            let this_hit = *hit;
            *hit += 1;
            let action = active.schedule.decide(site, this_hit)?;
            active.fired_total += 1;
            if active.fired.len() < FIRED_LOG_CAP {
                active.fired.push(Fired {
                    site: site.to_string(),
                    hit: this_hit,
                    action,
                });
            }
            action
        };
        dda_obs::count("fail.fired", 1);
        dda_obs::count(&format!("fail.fired.{site}"), 1);
        Some(action)
    }

    /// Performs the side-effecting part of `Panic` / `Sleep` actions;
    /// `IoErr` and `Return` are no-ops here (they only mean something at
    /// `fail_io!` / two-argument `fail_point!` sites).
    pub fn act_basic(site: &str, action: FaultAction) {
        match action {
            FaultAction::Panic => panic!("dda-fail: injected panic at failpoint `{site}`"),
            FaultAction::Sleep(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            FaultAction::IoErr | FaultAction::Return => {}
        }
    }

    /// Decision + action for `fail_io!` sites: `IoErr` becomes an
    /// `Err(io::Error)`, `Panic`/`Sleep` behave as at plain sites,
    /// `Return` is ignored.
    pub fn eval_io(site: &str) -> std::io::Result<()> {
        match eval(site) {
            Some(FaultAction::IoErr) => Err(std::io::Error::other(format!(
                "dda-fail: injected io error at `{site}`"
            ))),
            Some(other) => {
                act_basic(site, other);
                Ok(())
            }
            None => Ok(()),
        }
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{
    act_basic, deactivate, eval, eval_io, fired_log, fired_total, hit_counts, install, is_active,
};

#[cfg(not(feature = "failpoints"))]
mod stubs {
    use super::{FaultSchedule, Fired, NotCompiled};

    /// Compiled-out stub: always fails with [`NotCompiled`].
    pub fn install(_schedule: FaultSchedule) -> Result<(), NotCompiled> {
        Err(NotCompiled)
    }

    /// Compiled-out stub: no-op.
    pub fn deactivate() {}

    /// Compiled-out stub: always `false`.
    pub fn is_active() -> bool {
        false
    }

    /// Compiled-out stub: always empty.
    pub fn fired_log() -> Vec<Fired> {
        Vec::new()
    }

    /// Compiled-out stub: always 0.
    pub fn fired_total() -> u64 {
        0
    }

    /// Compiled-out stub: always empty.
    pub fn hit_counts() -> Vec<(String, u64)> {
        Vec::new()
    }
}

#[cfg(not(feature = "failpoints"))]
pub use stubs::{deactivate, fired_log, fired_total, hit_counts, install, is_active};

/// Marks a failpoint site.
///
/// One-argument form handles `Panic` and `Sleep` actions. The
/// two-argument form additionally honors [`FaultAction::Return`] by
/// early-returning the given expression from the enclosing function.
///
/// Compiled without the `failpoints` feature this expands to nothing.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if let Some(__dda_fail_action) = $crate::eval($site) {
            $crate::act_basic($site, __dda_fail_action);
        }
    };
    ($site:expr, $ret:expr) => {
        if let Some(__dda_fail_action) = $crate::eval($site) {
            if __dda_fail_action == $crate::FaultAction::Return {
                return $ret;
            }
            $crate::act_basic($site, __dda_fail_action);
        }
    };
}

/// Marks a failpoint site (inert: this build compiled `dda-fail`
/// without the `failpoints` feature, so the expansion is empty).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($($tt:tt)*) => {{}};
}

/// Marks an I/O failpoint site; expands to an `std::io::Result<()>`
/// expression, so call sites write `fail_io!("journal.append")?;`.
///
/// `IoErr` actions surface as `Err`; `Panic`/`Sleep` behave as at plain
/// sites. Compiled without the `failpoints` feature this is a constant
/// `Ok(())`.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_io {
    ($site:expr) => {
        $crate::eval_io($site)
    };
}

/// Marks an I/O failpoint site (inert: constant `Ok(())` because this
/// build compiled `dda-fail` without the `failpoints` feature).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_io {
    ($($tt:tt)*) => {
        ::std::io::Result::<()>::Ok(())
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let spec = "seed=42;serve.dispatch=panic@hit:3;journal.append=ioerr@every:0:2;sim.cache.lock=sleep:5@permille:250;pool.submit=return@hit:0";
        let s = FaultSchedule::parse(spec).unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.rules.len(), 4);
        assert_eq!(s.to_spec(), spec);
        assert_eq!(FaultSchedule::parse(&s.to_spec()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultSchedule::parse("a=panic").is_err()); // missing trigger
        assert!(FaultSchedule::parse("a=boom@hit:1").is_err()); // bad action
        assert!(FaultSchedule::parse("a=panic@soon").is_err()); // bad trigger
        assert!(FaultSchedule::parse("a=panic@every:0:0").is_err()); // zero period
        assert!(FaultSchedule::parse("a=panic@permille:2000").is_err()); // > 1000
        assert!(FaultSchedule::parse("a=panic@hit:1;seed=9").is_err()); // seed not first
        assert!(FaultSchedule::parse("seed=pi").is_err());
    }

    #[test]
    fn seed_defaults_to_zero_and_empty_parts_skip() {
        let s = FaultSchedule::parse("a=ioerr@hit:1;;").unwrap();
        assert_eq!(s.seed, 0);
        assert_eq!(s.rules.len(), 1);
    }

    #[test]
    fn decide_is_pure_and_trigger_semantics_hold() {
        let s = FaultSchedule::new(7)
            .rule("a", FaultAction::Panic, Trigger::OnHit(2))
            .rule(
                "b",
                FaultAction::IoErr,
                Trigger::Every { start: 1, every: 3 },
            )
            .rule("c", FaultAction::Sleep(1), Trigger::Permille(500));
        assert_eq!(s.decide("a", 0), None);
        assert_eq!(s.decide("a", 2), Some(FaultAction::Panic));
        assert_eq!(s.decide("a", 3), None);
        assert_eq!(s.decide("b", 0), None);
        assert_eq!(s.decide("b", 1), Some(FaultAction::IoErr));
        assert_eq!(s.decide("b", 4), Some(FaultAction::IoErr));
        assert_eq!(s.decide("unknown", 5), None);
        // Permille: deterministic per (seed, site, hit) ...
        for hit in 0..64 {
            assert_eq!(s.decide("c", hit), s.decide("c", hit));
        }
        // ... roughly fair over many hits ...
        let fires = (0..1000).filter(|h| s.decide("c", *h).is_some()).count();
        assert!((300..700).contains(&fires), "p=0.5 fired {fires}/1000");
        // ... and seed-sensitive.
        let s2 = FaultSchedule {
            seed: 8,
            ..s.clone()
        };
        assert!(
            (0..1000).any(|h| s.decide("c", h) != s2.decide("c", h)),
            "different seeds should give different permille streams"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let s = FaultSchedule::new(0)
            .rule("a", FaultAction::IoErr, Trigger::OnHit(1))
            .rule(
                "a",
                FaultAction::Panic,
                Trigger::Every { start: 0, every: 1 },
            );
        assert_eq!(s.decide("a", 0), Some(FaultAction::Panic));
        assert_eq!(s.decide("a", 1), Some(FaultAction::IoErr));
        assert_eq!(s.decide("a", 2), Some(FaultAction::Panic));
    }

    #[test]
    fn generate_is_deterministic_and_bounds_panics() {
        let a = FaultSchedule::generate(1234, SITES);
        let b = FaultSchedule::generate(1234, SITES);
        assert_eq!(a, b);
        assert_eq!(a.to_spec(), b.to_spec());
        let c = FaultSchedule::generate(1235, SITES);
        assert_ne!(a, c, "adjacent seeds should differ");
        // Every generated panic rule is a finite OnHit.
        for seed in 0..200u64 {
            for r in FaultSchedule::generate(seed, SITES).rules {
                if r.action == FaultAction::Panic {
                    assert!(matches!(r.trigger, Trigger::OnHit(_)), "{r}");
                }
            }
        }
        // Round-trips through the grammar.
        assert_eq!(FaultSchedule::parse(&a.to_spec()).unwrap(), a);
    }

    #[test]
    fn compiled_reports_feature_state() {
        assert_eq!(compiled(), cfg!(feature = "failpoints"));
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn stubs_when_compiled_out() {
        assert_eq!(install(FaultSchedule::new(1)), Err(NotCompiled));
        assert!(!is_active());
        assert!(fired_log().is_empty());
        assert_eq!(fired_total(), 0);
        assert!(hit_counts().is_empty());
        deactivate();
        // Macros are inert.
        fail_point!("nope");
        fail_point!("nope", ());
        assert!(fail_io!("nope").is_ok());
    }

    #[cfg(feature = "failpoints")]
    mod armed {
        use super::super::*;
        use std::sync::Mutex;

        /// The registry is process-global; serialize armed tests.
        static GATE: Mutex<()> = Mutex::new(());

        #[test]
        fn registry_fires_per_schedule_and_logs() {
            let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
            install(
                FaultSchedule::new(3)
                    .rule("t.io", FaultAction::IoErr, Trigger::OnHit(1))
                    .rule(
                        "t.ret",
                        FaultAction::Return,
                        Trigger::Every { start: 0, every: 2 },
                    ),
            )
            .unwrap();
            assert!(is_active());
            assert!(fail_io!("t.io").is_ok()); // hit 0
            assert!(fail_io!("t.io").is_err()); // hit 1 fires
            assert!(fail_io!("t.io").is_ok()); // hit 2

            fn guarded(out: &mut Vec<u32>) {
                fail_point!("t.ret", ());
                out.push(1);
            }
            let mut out = Vec::new();
            guarded(&mut out); // hit 0: returns early
            guarded(&mut out); // hit 1: runs
            guarded(&mut out); // hit 2: returns early
            assert_eq!(out, vec![1]);

            let fired = fired_log();
            assert_eq!(fired.len(), 3);
            assert_eq!(fired_total(), 3);
            assert_eq!(
                fired[0],
                Fired {
                    site: "t.io".into(),
                    hit: 1,
                    action: FaultAction::IoErr
                }
            );
            assert_eq!(
                hit_counts(),
                vec![("t.io".to_string(), 3), ("t.ret".to_string(), 3)]
            );
            deactivate();
            assert!(!is_active());
            assert!(fail_io!("t.io").is_ok());
            assert!(fired_log().is_empty());
        }

        #[test]
        fn injected_panic_is_catchable_and_does_not_poison() {
            let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
            install(FaultSchedule::new(0).rule("t.panic", FaultAction::Panic, Trigger::OnHit(0)))
                .unwrap();
            let r = std::panic::catch_unwind(|| fail_point!("t.panic"));
            assert!(r.is_err());
            // Registry still usable after the injected panic.
            assert_eq!(fired_total(), 1);
            fail_point!("t.panic"); // hit 1: no fire
            assert_eq!(hit_counts(), vec![("t.panic".to_string(), 2)]);
            deactivate();
        }

        #[test]
        fn replay_from_spec_is_byte_identical() {
            let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
            let schedule = FaultSchedule::generate(99, &["x", "y", "z"]);
            let mut runs = Vec::new();
            for _ in 0..2 {
                // Re-arm from the serialized spec alone.
                install(FaultSchedule::parse(&schedule.to_spec()).unwrap()).unwrap();
                for _ in 0..50 {
                    // Generated schedules may arm panics; catch them so
                    // the hit sequence keeps advancing identically.
                    for site in ["x", "y", "z"] {
                        let _ = std::panic::catch_unwind(|| {
                            let _ = fail_io!(site);
                        });
                    }
                }
                runs.push(fired_log());
                deactivate();
            }
            assert_eq!(runs[0], runs[1], "same spec must replay byte-identically");
        }
    }
}
