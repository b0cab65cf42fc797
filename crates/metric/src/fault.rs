//! Deterministic fault injection for chaos testing, compiled away by
//! default.
//!
//! The types ([`FaultPlan`], [`FaultSpec`], [`FaultKind`]) are always
//! available so callers can construct plans unconditionally; the *hooks*
//! ([`at`], [`dist`]) and the installer (`install` / `clear`) only do
//! anything under the `fault-inject` feature — without it `at`/`dist` are
//! `#[inline(always)]` no-ops the optimizer erases, so production builds
//! carry zero fault-injection cost.
//!
//! A plan is a list of specs, each naming a **fault point** (a string
//! literal baked into the host code, e.g. `"engine.probe"` or
//! `"laesa.dist"`), an optional argument filter (e.g. a shard id), a
//! trigger schedule (`after` N matching hits, then `every` M-th, at most
//! `limit` firings), and what happens when it fires: panic, a NaN
//! distance, or a delay. Everything is counted deterministically — same
//! plan + same (single-threaded) execution order = same firings. See
//! `docs/robustness.md` for the fault-point catalog.
//!
//! Install/clear swap a process-global plan, so chaos tests that install
//! plans must serialize themselves (e.g. behind a shared mutex).

/// What happens when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Panic at the fault point (tests panic containment).
    Panic,
    /// Make the wrapped distance come out NaN (tests input hardening
    /// below the validation boundary). Only meaningful at `dist` points;
    /// at an `at` point it does nothing.
    NanDist,
    /// Sleep this many microseconds (tests deadlines and shedding).
    DelayMicros(u64),
}

/// One injection rule of a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// The named fault point this spec arms.
    pub point: String,
    /// Only hits carrying this argument match (`None` = every hit).
    pub arg: Option<u64>,
    /// What firing does.
    pub kind: FaultKind,
    /// Skip this many matching hits before the first firing.
    pub after: u64,
    /// After `after`, fire on every `every`-th matching hit (1 = every
    /// hit; 0 behaves as 1).
    pub every: u64,
    /// Stop after this many firings (0 = unlimited).
    pub limit: u64,
}

impl FaultSpec {
    /// A spec that fires on every matching hit, unlimited.
    pub fn always(point: &str, arg: Option<u64>, kind: FaultKind) -> Self {
        FaultSpec {
            point: point.to_string(),
            arg,
            kind,
            after: 0,
            every: 1,
            limit: 0,
        }
    }
}

/// A deterministic set of injection rules, installed process-wide with
/// `install` (under the `fault-inject` feature).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The rules; every hit checks each matching spec in order and the
    /// first one whose schedule fires wins.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a spec, builder-style.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }
}

#[cfg(feature = "fault-inject")]
mod active {
    use super::{FaultKind, FaultPlan};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::RwLock;

    struct Installed {
        plan: FaultPlan,
        /// Matching-hit count per spec (same order as `plan.specs`).
        hits: Vec<AtomicU64>,
        /// Firing count per spec.
        fires: Vec<AtomicU64>,
    }

    static PLAN: RwLock<Option<Installed>> = RwLock::new(None);

    fn read() -> std::sync::RwLockReadGuard<'static, Option<Installed>> {
        // A panic injected while a reader held the lock must not poison
        // the harness for the next test.
        PLAN.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs `plan` process-wide, replacing any previous plan and
    /// resetting all counters.
    pub fn install(plan: FaultPlan) {
        let n = plan.specs.len();
        *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(Installed {
            plan,
            hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fires: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
    }

    /// Removes the installed plan (hooks become inert again).
    pub fn clear() {
        *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Whether a plan is installed.
    pub fn active() -> bool {
        read().is_some()
    }

    /// Total firings per spec of the installed plan (empty if none).
    pub fn fired() -> Vec<u64> {
        read()
            .as_ref()
            .map(|i| i.fires.iter().map(|f| f.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Consults the plan for a hit at `point` with `arg`; returns the kind
    /// to trigger, if any. The read guard is dropped before the caller
    /// acts (a triggered panic must not hold the lock).
    fn check(point: &str, arg: u64) -> Option<FaultKind> {
        let guard = read();
        let installed = guard.as_ref()?;
        for (i, spec) in installed.plan.specs.iter().enumerate() {
            if spec.point != point || spec.arg.is_some_and(|a| a != arg) {
                continue;
            }
            let hit = installed.hits[i].fetch_add(1, Ordering::Relaxed);
            if hit < spec.after {
                continue;
            }
            let every = spec.every.max(1);
            if !(hit - spec.after).is_multiple_of(every) {
                continue;
            }
            if spec.limit > 0 && installed.fires[i].load(Ordering::Relaxed) >= spec.limit {
                continue;
            }
            installed.fires[i].fetch_add(1, Ordering::Relaxed);
            return Some(spec.kind);
        }
        None
    }

    /// Acts on a triggered kind, outside the plan lock.
    fn trigger(point: &str, arg: u64, kind: FaultKind) {
        match kind {
            FaultKind::Panic => panic!("injected fault: panic at {point} (arg {arg})"),
            FaultKind::DelayMicros(us) => std::thread::sleep(std::time::Duration::from_micros(us)),
            FaultKind::NanDist => {}
        }
    }

    /// Fault point hook: may panic or delay per the installed plan.
    pub fn at(point: &str, arg: u64) {
        if let Some(kind) = check(point, arg) {
            trigger(point, arg, kind);
        }
    }

    /// Distance-wrapping fault point hook: may panic or delay, and turns
    /// the computed distance into NaN when a [`FaultKind::NanDist`] spec
    /// fires.
    pub fn dist(point: &str, arg: u64, d: f64) -> f64 {
        match check(point, arg) {
            Some(FaultKind::NanDist) => f64::NAN,
            Some(kind) => {
                trigger(point, arg, kind);
                d
            }
            None => d,
        }
    }
}

#[cfg(feature = "fault-inject")]
pub use active::{active, at, clear, dist, fired, install};

/// No-op hook (fault injection compiled out).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn at(_point: &str, _arg: u64) {}

/// No-op hook (fault injection compiled out): returns `d` unchanged.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn dist(_point: &str, _arg: u64, d: f64) -> f64 {
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder() {
        let plan = FaultPlan::new()
            .with(FaultSpec::always("engine.probe", Some(1), FaultKind::Panic))
            .with(FaultSpec {
                point: "laesa.dist".into(),
                arg: None,
                kind: FaultKind::NanDist,
                after: 2,
                every: 3,
                limit: 5,
            });
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].every, 1);
        assert_eq!(plan.specs[0].limit, 0);
    }

    #[test]
    fn noop_hooks_pass_through() {
        // With the feature off these are the inert stubs; with it on, no
        // plan is installed in this test, so they are inert either way.
        at("engine.probe", 0);
        assert_eq!(dist("laesa.dist", 7, 2.5), 2.5);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn schedule_after_every_limit() {
        // Serialized against other fault-inject tests by being the only
        // one in this crate that installs a plan.
        install(FaultPlan::new().with(FaultSpec {
            point: "p".into(),
            arg: None,
            kind: FaultKind::NanDist,
            after: 1,
            every: 2,
            limit: 2,
        }));
        assert!(active());
        // Hits: 0 skipped (after), 1 fires, 2 skipped (every), 3 fires,
        // 5 would fire but the limit is spent.
        let out: Vec<f64> = (0..6).map(|_| dist("p", 0, 1.0)).collect();
        let fired_mask: Vec<bool> = out.iter().map(|d| d.is_nan()).collect();
        assert_eq!(fired_mask, vec![false, true, false, true, false, false]);
        assert_eq!(fired(), vec![2]);
        // Arg filtering: a spec pinned to arg 3 ignores other args.
        install(FaultPlan::new().with(FaultSpec::always("q", Some(3), FaultKind::NanDist)));
        assert!(!dist("q", 2, 1.0).is_nan());
        assert!(dist("q", 3, 1.0).is_nan());
        clear();
        assert!(!active());
        assert!(fired().is_empty());
        assert!(!dist("q", 3, 1.0).is_nan());
    }
}
