//! Deterministic chaos injection for workers.
//!
//! A [`ChaosPlan`] is a seeded fault schedule: per-tile permille rates for
//! connection kills, mid-stream hangups, bounded response delays and
//! transient `store_miss` replies. Because the schedule is driven by one
//! seeded [`StdRng`] drawn in request order on a single worker thread, a
//! given `(seed, request sequence)` always injects the same faults — the
//! soak harness replays bugs instead of chasing them.
//!
//! Plans travel two ways: as the `HAQJSK_CHAOS` environment variable
//! (`seed:42,kill:10,hang:5,delay:50:25,miss:20`) read by a worker process
//! at startup, and as the `chaos` wire command a coordinator sends to arm
//! or disarm a running worker.
//!
//! Faults are injected only on `tile` requests — control traffic (dataset
//! and artifact shipping, stats, pings) stays reliable so the harness
//! exercises *recovery*, not setup.

use haqjsk_engine::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A seeded fault schedule. Rates are permille (‰) probabilities drawn
/// independently per `tile` request, checked in the order: kill, hangup,
/// store_miss, delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// RNG seed; the whole schedule is a pure function of this.
    pub seed: u64,
    /// Permille chance the worker answers an error and drops the
    /// connection (the process survives; the coordinator sees a death).
    pub kill_permille: u32,
    /// Permille chance the worker computes the tile but hangs up without
    /// answering — a mid-stream EOF from the coordinator's side.
    pub hangup_permille: u32,
    /// Permille chance the worker sleeps before evaluating the tile.
    pub delay_permille: u32,
    /// Upper bound (milliseconds) of the injected delay.
    pub delay_max_ms: u32,
    /// Permille chance the worker forgets one stored dataset graph and the
    /// tile's model entry and answers `store_miss`, forcing a targeted
    /// re-ship of both.
    pub miss_permille: u32,
}

/// Environment variable carrying a seeded chaos plan
/// (`seed:N[,kill:P][,hang:P][,delay:P[:MS]][,miss:P]`, rates in permille).
pub const CHAOS_ENV_VAR: &str = "HAQJSK_CHAOS";

impl ChaosPlan {
    /// Parses the `HAQJSK_CHAOS` syntax: comma-separated `key:value`
    /// entries. `seed:N` is required; `kill:N`, `hang:N`, `miss:N` are
    /// permille rates; `delay:N` or `delay:N:MS` sets the delay rate and
    /// optionally its bound (default 20 ms).
    pub fn parse(raw: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan {
            seed: 0,
            kill_permille: 0,
            hangup_permille: 0,
            delay_permille: 0,
            delay_max_ms: 20,
            miss_permille: 0,
        };
        let mut saw_seed = false;
        for entry in raw.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let mut parts = entry.split(':');
            let key = parts.next().unwrap_or_default();
            let value = parts
                .next()
                .ok_or_else(|| format!("chaos entry '{entry}' needs a value"))?;
            let parsed: u64 = value
                .parse()
                .map_err(|e| format!("bad chaos value '{value}': {e}"))?;
            match key {
                "seed" => {
                    plan.seed = parsed;
                    saw_seed = true;
                }
                "kill" => plan.kill_permille = permille(parsed)?,
                "hang" => plan.hangup_permille = permille(parsed)?,
                "miss" => plan.miss_permille = permille(parsed)?,
                "delay" => {
                    plan.delay_permille = permille(parsed)?;
                    if let Some(ms) = parts.next() {
                        plan.delay_max_ms = ms
                            .parse()
                            .map_err(|e| format!("bad chaos delay bound '{ms}': {e}"))?;
                    }
                }
                other => return Err(format!("unknown chaos key '{other}'")),
            }
            if parts.next().is_some() && key != "delay" {
                return Err(format!("chaos entry '{entry}' has too many fields"));
            }
        }
        if !saw_seed {
            return Err("chaos plan needs a 'seed:N' entry".to_string());
        }
        Ok(plan)
    }

    /// Reads the plan from [`CHAOS_ENV_VAR`]; `None` when unset or empty,
    /// `Err` (with the offending text) when set but malformed.
    pub fn from_env() -> Result<Option<ChaosPlan>, String> {
        match std::env::var(CHAOS_ENV_VAR) {
            Ok(raw) if !raw.trim().is_empty() => Self::parse(&raw).map(Some),
            _ => Ok(None),
        }
    }

    /// The `HAQJSK_CHAOS` text form of this plan (parses back to `self`).
    pub fn to_env_string(&self) -> String {
        format!(
            "seed:{},kill:{},hang:{},delay:{}:{},miss:{}",
            self.seed,
            self.kill_permille,
            self.hangup_permille,
            self.delay_permille,
            self.delay_max_ms,
            self.miss_permille
        )
    }

    /// The plan's fields in `chaos` wire-command form.
    pub fn to_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("seed", Json::Num(self.seed as f64)),
            ("kill", Json::Num(self.kill_permille as f64)),
            ("hangup", Json::Num(self.hangup_permille as f64)),
            ("delay", Json::Num(self.delay_permille as f64)),
            ("delay_ms", Json::Num(self.delay_max_ms as f64)),
            ("miss", Json::Num(self.miss_permille as f64)),
        ]
    }

    /// Restores a plan from a `chaos` wire command; `Ok(None)` when the
    /// command carries `"off":true`.
    pub fn from_request(value: &Json) -> Result<Option<ChaosPlan>, String> {
        if value.get("off").and_then(Json::as_bool) == Some(true) {
            return Ok(None);
        }
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("chaos command needs an integer field '{name}'"))
        };
        Ok(Some(ChaosPlan {
            seed: field("seed")? as u64,
            kill_permille: permille(field("kill")? as u64)?,
            hangup_permille: permille(field("hangup")? as u64)?,
            delay_permille: permille(field("delay")? as u64)?,
            delay_max_ms: field("delay_ms")? as u32,
            miss_permille: permille(field("miss")? as u64)?,
        }))
    }
}

fn permille(value: u64) -> Result<u32, String> {
    (value <= 1000)
        .then_some(value as u32)
        .ok_or_else(|| format!("permille rate {value} exceeds 1000"))
}

/// One fault drawn from the plan for a single tile request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Answer an error and drop the connection.
    Kill,
    /// Hang up without answering (mid-stream EOF).
    Hangup,
    /// Sleep this long before evaluating.
    Delay(std::time::Duration),
    /// Evict one stored graph and the tile's model, and answer
    /// `store_miss`.
    StoreMiss,
}

/// The armed plan plus its RNG and injection counters, owned by a worker.
pub struct ChaosState {
    plan: ChaosPlan,
    rng: Mutex<StdRng>,
    /// Kills injected so far.
    pub kills: AtomicUsize,
    /// Hangups injected so far.
    pub hangups: AtomicUsize,
    /// Delays injected so far.
    pub delays: AtomicUsize,
    /// Store misses injected so far.
    pub misses: AtomicUsize,
    /// `(dataset-id hash, job)` of the last injected miss: a given job is
    /// never missed twice in a row, so every injected miss is transient by
    /// construction and the coordinator's re-ship-and-retry terminates.
    last_miss: Mutex<Option<(u64, usize)>>,
}

impl ChaosState {
    /// Arms `plan`, seeding the RNG.
    pub fn new(plan: ChaosPlan) -> ChaosState {
        ChaosState {
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            kills: AtomicUsize::new(0),
            hangups: AtomicUsize::new(0),
            delays: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            last_miss: Mutex::new(None),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> ChaosPlan {
        self.plan
    }

    /// Draws at most one fault for a `tile` request, recording it in the
    /// counters. Repeat misses for the same `(dataset, job)` are
    /// suppressed (see the invariant on `ChaosState::last_miss`).
    pub fn draw(&self, dataset: &str, job: usize) -> Option<ChaosFault> {
        let mut rng = self.rng.lock().expect("chaos rng poisoned");
        let roll = rng.gen_range(0u32..1000);
        let delay_ms = rng.gen_range(0u32..self.plan.delay_max_ms.max(1));
        drop(rng);

        let kill_edge = self.plan.kill_permille;
        let hang_edge = kill_edge + self.plan.hangup_permille;
        let miss_edge = hang_edge + self.plan.miss_permille;
        let delay_edge = miss_edge + self.plan.delay_permille;
        if roll < kill_edge {
            self.kills.fetch_add(1, Ordering::Relaxed);
            return Some(ChaosFault::Kill);
        }
        if roll < hang_edge {
            self.hangups.fetch_add(1, Ordering::Relaxed);
            return Some(ChaosFault::Hangup);
        }
        if roll < miss_edge {
            let tag = (fnv64(dataset), job);
            let mut last = self.last_miss.lock().expect("chaos miss guard poisoned");
            if *last == Some(tag) {
                return None;
            }
            *last = Some(tag);
            drop(last);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Some(ChaosFault::StoreMiss);
        }
        if roll < delay_edge {
            self.delays.fetch_add(1, Ordering::Relaxed);
            return Some(ChaosFault::Delay(std::time::Duration::from_millis(
                delay_ms as u64,
            )));
        }
        None
    }
}

fn fnv64(text: &str) -> u64 {
    let mut state: u64 = 0xcbf29ce484222325;
    for byte in text.as_bytes() {
        state ^= *byte as u64;
        state = state.wrapping_mul(0x100000001b3);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let plan = ChaosPlan::parse("seed:42,kill:10,hang:5,delay:50:25,miss:20").unwrap();
        assert_eq!(
            plan,
            ChaosPlan {
                seed: 42,
                kill_permille: 10,
                hangup_permille: 5,
                delay_permille: 50,
                delay_max_ms: 25,
                miss_permille: 20,
            }
        );
        // Defaults: unset rates are zero, delay bound defaults to 20 ms.
        let sparse = ChaosPlan::parse("seed:7,delay:100").unwrap();
        assert_eq!(sparse.seed, 7);
        assert_eq!(sparse.kill_permille, 0);
        assert_eq!(sparse.delay_max_ms, 20);
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        assert!(ChaosPlan::parse("kill:10").is_err()); // no seed
        assert!(ChaosPlan::parse("seed:abc").is_err());
        assert!(ChaosPlan::parse("seed:1,kill:1500").is_err()); // > 1000‰
        assert!(ChaosPlan::parse("seed:1,frobnicate:2").is_err());
        assert!(ChaosPlan::parse("seed:1,kill").is_err());
        assert!(ChaosPlan::parse("seed:1,kill:1:2").is_err());
    }

    #[test]
    fn env_string_roundtrips() {
        let plan = ChaosPlan::parse("seed:9,kill:3,hang:2,delay:40:15,miss:8").unwrap();
        assert_eq!(ChaosPlan::parse(&plan.to_env_string()).unwrap(), plan);
    }

    #[test]
    fn wire_fields_roundtrip() {
        let plan = ChaosPlan::parse("seed:11,kill:7,hang:3,delay:20:30,miss:5").unwrap();
        let request = crate::wire::chaos_request(Some(&plan));
        let parsed = Json::parse(&request.to_string()).unwrap();
        assert_eq!(ChaosPlan::from_request(&parsed).unwrap(), Some(plan));
        let off = crate::wire::chaos_request(None);
        assert_eq!(
            ChaosPlan::from_request(&Json::parse(&off.to_string()).unwrap()).unwrap(),
            None
        );
    }

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        let plan = ChaosPlan::parse("seed:1234,kill:100,hang:100,delay:200:10,miss:100").unwrap();
        let a = ChaosState::new(plan);
        let b = ChaosState::new(plan);
        let seq_a: Vec<_> = (0..200).map(|j| a.draw("ds", j)).collect();
        let seq_b: Vec<_> = (0..200).map(|j| b.draw("ds", j)).collect();
        assert_eq!(seq_a, seq_b);
        // With these rates 200 draws essentially always inject something.
        assert!(seq_a.iter().any(Option::is_some));
        let total = a.kills.load(Ordering::Relaxed)
            + a.hangups.load(Ordering::Relaxed)
            + a.delays.load(Ordering::Relaxed)
            + a.misses.load(Ordering::Relaxed);
        assert_eq!(total, seq_a.iter().filter(|f| f.is_some()).count());
    }

    #[test]
    fn repeat_misses_for_one_job_are_suppressed() {
        // miss-only plan: every draw that fires is a StoreMiss.
        let plan = ChaosPlan::parse("seed:5,miss:1000").unwrap();
        let state = ChaosState::new(plan);
        assert_eq!(state.draw("ds", 3), Some(ChaosFault::StoreMiss));
        // The immediate retry of the same job must pass.
        assert_eq!(state.draw("ds", 3), None);
        // A different job can miss again.
        assert_eq!(state.draw("ds", 4), Some(ChaosFault::StoreMiss));
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let state = ChaosState::new(ChaosPlan::parse("seed:42").unwrap());
        assert!((0..500).all(|j| state.draw("ds", j).is_none()));
    }
}
