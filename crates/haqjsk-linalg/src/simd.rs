//! Explicit-SIMD lanes for the batched eigensolver, with runtime dispatch.
//!
//! The SoA layout of [`crate::batch`] puts lane `k` of element `(i, j)` at
//! `z[(i*n + j) * lanes + k]`: the lane axis is contiguous, which is exactly
//! the shape `core::arch` vector registers want. This module makes the
//! vectorisation explicit instead of relying on LLVM auto-vectorising
//! plain `f64` lane loops:
//!
//! * a `LaneVec` trait abstracts a block of `WIDTH` adjacent lanes with
//!   **IEEE-exact** `f64` operations only — add/sub/mul/div/sqrt plus
//!   bitwise `abs`/`neg` and ordered compares. No FMA contraction, no
//!   reassociation, no approximate reciprocals: every lane of every vector
//!   op produces exactly the bits the scalar driver would,
//! * generic block kernels (`tred2_block`, `tqli_block`) run the
//!   Householder reduction and the implicit-QL sweep over one `WIDTH`-lane
//!   block, performing the scalar driver's arithmetic
//!   ([`crate::eigen::symmetric_eigenvalues`]) op for op per lane. They
//!   are the only batched implementation. Data-dependent control flow (the
//!   zero-scale skip, QL split points, shift sequences, iteration counts,
//!   convergence) stays **per lane**, decided with lane masks from vector
//!   compares: diverging lanes are masked with IEEE-exact selects, so
//!   garbage computed in a masked-off lane is discarded, never stored,
//! * thin `#[target_feature]` wrappers monomorphise the generic kernels per
//!   ISA — AVX-512F (8 × f64), AVX2 (4 × f64), NEON (2 × f64) — once for
//!   one vector per block and once for a `Pair` of vectors, which keeps
//!   two dependency chains in flight (a full AVX-512F or AVX2 chunk runs
//!   as one paired block). The portable `ArrayLane<W>` (plain `f64` ops on
//!   a `[f64; W]`) runs the scalar path's blocks and every path's leftover
//!   tail lanes through the *same* generic code, so scalar blocks and
//!   tails are bit-identical by construction,
//! * [`active_simd_path`] picks the widest ISA the host supports at
//!   runtime (`is_x86_feature_detected!`), overridable via the
//!   [`SIMD_ENV_VAR`] knob (`HAQJSK_SIMD=auto|avx512|avx2|neon|scalar`).
//!   Unknown values and unavailable ISAs are hard errors, mirroring the
//!   `HAQJSK_BACKEND` convention: a typo must never silently change paths.
//!
//! The reference is the scalar driver, not any lane path: every compiled
//! path, the portable scalar one included, must produce eigenvalues
//! bit-identical to [`crate::eigen::symmetric_eigenvalues`], which the
//! forced-path proptests assert.

use crate::batch::MAX_BATCH_LANES;
use crate::eigen::{pythag, ql_negligible, ql_shift, MAX_QL_ITERATIONS};
use crate::error::LinalgError;
use crate::Result;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Name of the environment variable forcing the SIMD dispatch path.
pub const SIMD_ENV_VAR: &str = "HAQJSK_SIMD";

/// A runtime-dispatched implementation of the batched eigensolver lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdPath {
    /// Portable `f64` array lanes, 4 per block (always compiled, no
    /// intrinsics).
    Scalar,
    /// AVX2: 4 × f64 per vector, x86-64 only.
    Avx2,
    /// AVX-512F: 8 × f64 per vector, x86-64 only.
    Avx512,
    /// NEON: 2 × f64 per vector, aarch64 only.
    Neon,
}

impl SimdPath {
    /// Every dispatchable path, in the fixed reporting order used by the
    /// per-path counters ([`SimdPath::index`]).
    pub const ALL: [SimdPath; 4] = [
        SimdPath::Scalar,
        SimdPath::Avx2,
        SimdPath::Avx512,
        SimdPath::Neon,
    ];

    /// Stable lowercase label (`scalar` / `avx2` / `avx512` / `neon`) used
    /// by the env knob, metric labels and JSON reporting.
    pub fn label(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
            SimdPath::Avx512 => "avx512",
            SimdPath::Neon => "neon",
        }
    }

    /// Position of this path in [`SimdPath::ALL`] (counter indexing).
    pub fn index(self) -> usize {
        match self {
            SimdPath::Scalar => 0,
            SimdPath::Avx2 => 1,
            SimdPath::Avx512 => 2,
            SimdPath::Neon => 3,
        }
    }

    /// `f64` lanes per kernel block on this path: the vector register
    /// width, or the portable array width (4) for scalar.
    pub fn lane_width(self) -> usize {
        match self {
            SimdPath::Scalar => ScalarBlock::WIDTH,
            SimdPath::Avx2 => 4,
            SimdPath::Avx512 => 8,
            SimdPath::Neon => 2,
        }
    }

    /// Matrices per SoA chunk on this path: 16 under AVX-512F (two ZMM
    /// registers per SoA element row keep the rank-2 update busy), 8
    /// everywhere else (the pre-SIMD width: two YMM or portable scalar
    /// blocks, four NEON registers).
    pub fn batch_lanes(self) -> usize {
        match self {
            SimdPath::Avx512 => 16,
            _ => 8,
        }
    }

    /// Whether the host can execute this path.
    pub fn is_available(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            SimdPath::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            SimdPath::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            SimdPath::Neon => cfg!(target_arch = "aarch64"),
        }
    }
}

/// A parsed [`SIMD_ENV_VAR`] value: pick the widest available ISA, or
/// force one specific path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdChoice {
    /// Detect and use the widest ISA the host supports.
    Auto,
    /// Force one path; resolution hard-errors if the host lacks it.
    Force(SimdPath),
}

/// Resolves a raw [`SIMD_ENV_VAR`] value (as read from the environment) to
/// a dispatch choice: `Auto` when unset, a hard error listing the valid
/// names for anything unrecognised — same convention as `HAQJSK_BACKEND`,
/// so a typo can never silently change which kernels run. Pure function,
/// factored out so rejection behavior is testable without touching
/// process-global environment state.
pub fn resolve_simd_env_value(raw: Option<&str>) -> Result<SimdChoice> {
    match raw {
        None => Ok(SimdChoice::Auto),
        Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdChoice::Auto),
            "scalar" => Ok(SimdChoice::Force(SimdPath::Scalar)),
            "avx2" => Ok(SimdChoice::Force(SimdPath::Avx2)),
            "avx512" => Ok(SimdChoice::Force(SimdPath::Avx512)),
            "neon" => Ok(SimdChoice::Force(SimdPath::Neon)),
            other => Err(LinalgError::InvalidArgument(format!(
                "invalid {SIMD_ENV_VAR} value {other:?}: \
                 expected one of auto, avx512, avx2, neon, scalar"
            ))),
        },
    }
}

/// The widest path the host supports: AVX-512F > AVX2 > NEON > scalar.
pub fn detect_best_path() -> SimdPath {
    for path in [SimdPath::Avx512, SimdPath::Avx2, SimdPath::Neon] {
        if path.is_available() {
            return path;
        }
    }
    SimdPath::Scalar
}

/// Paths the host can execute, scalar always included. Tests iterate this
/// to force every compiled kernel through the bit-identity assertions.
pub fn available_simd_paths() -> Vec<SimdPath> {
    SimdPath::ALL
        .into_iter()
        .filter(|p| p.is_available())
        .collect()
}

/// One-shot resolution of the env knob + host detection. The `Err` arm is
/// sticky on purpose: a bad `HAQJSK_SIMD` must fail every solve, not just
/// the first, so it cannot hide behind a warm cache.
fn env_resolution() -> &'static std::result::Result<SimdPath, String> {
    static CELL: OnceLock<std::result::Result<SimdPath, String>> = OnceLock::new();
    CELL.get_or_init(|| {
        let raw = std::env::var(SIMD_ENV_VAR).ok();
        match resolve_simd_env_value(raw.as_deref()).map_err(|e| e.to_string())? {
            SimdChoice::Auto => Ok(detect_best_path()),
            SimdChoice::Force(path) if path.is_available() => Ok(path),
            SimdChoice::Force(path) => Err(format!(
                "{SIMD_ENV_VAR}={} requests an ISA this host does not support \
                 (available: {})",
                path.label(),
                available_simd_paths()
                    .iter()
                    .map(|p| p.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    })
}

/// Process-global test/tool override: 0 = none (env + detection decide),
/// `1 + SimdPath::index()` = forced path. Lets one process exercise every
/// compiled path in sequence, which the env knob (read once) cannot.
static PATH_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces the dispatch path for the whole process (`None` restores env +
/// detection). Errors if the host cannot execute the requested path.
/// Intended for tests and benchmarks; because every path is bit-identical,
/// flipping it concurrently with running solves changes *which* kernels
/// run, never what they produce.
pub fn set_simd_path(path: Option<SimdPath>) -> Result<()> {
    match path {
        None => PATH_OVERRIDE.store(0, Ordering::Relaxed),
        Some(p) => {
            if !p.is_available() {
                return Err(LinalgError::InvalidArgument(format!(
                    "SIMD path {} is not available on this host",
                    p.label()
                )));
            }
            PATH_OVERRIDE.store(1 + p.index() as u8, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// Serialises this crate's unit tests that set the process override, so
/// one test's forced path cannot change which kernels another test's
/// solves (and per-path counters) see mid-assertion.
#[cfg(test)]
pub(crate) fn override_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The path the batched eigensolver dispatches to: the process override if
/// set, else the cached [`SIMD_ENV_VAR`] + detection resolution. A
/// malformed or unavailable env request is a hard error on every call.
pub fn active_simd_path() -> Result<SimdPath> {
    match PATH_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_resolution()
            .clone()
            .map_err(LinalgError::InvalidArgument),
        k => Ok(SimdPath::ALL[(k - 1) as usize]),
    }
}

/// Label of the active path for reporting (`"invalid"` when the env knob
/// holds a value that fails resolution — solves error in that state too).
pub fn active_simd_label() -> &'static str {
    match active_simd_path() {
        Ok(path) => path.label(),
        Err(_) => "invalid",
    }
}

/// Effective lanes-per-chunk of the active path (8 when resolution fails —
/// the chunk size only matters once a solve succeeds, which it then won't).
pub fn max_batch_lanes() -> usize {
    active_simd_path().map_or(8, SimdPath::batch_lanes)
}

// ---------------------------------------------------------------------------
// Lane-vector abstraction
// ---------------------------------------------------------------------------

/// The start of one QL pass over a block ([`LaneVec::ql_pass`]).
struct QlPass<V> {
    /// Each lane's split point `m`, as an exact `f64`.
    m: V,
    /// Each rotating lane's shifted `g` ([`crate::eigen::ql_shift`]);
    /// garbage in the other lanes.
    g: V,
    /// The lanes with `m > l`: the ones that rotate this pass.
    active: u16,
    /// The largest `m` of the rotating lanes.
    max_m: usize,
}

/// A block of `WIDTH` adjacent SoA lanes with IEEE-exact `f64` semantics.
///
/// Every operation must be bit-exact per lane against the scalar `f64`
/// operator it names: no FMA contraction, no reassociation, no flush-to-
/// zero, correctly rounded `sqrt`. `abs`/`neg` are sign-bit operations
/// (so `-0.0` behaves exactly like scalar negation), and the compares use
/// *ordered* predicates (false on NaN), matching scalar `>=`/`>`/`==`.
///
/// Masks are plain `u16` bitmasks (lane `k` = bit `k`): the generic
/// kernels share one mask representation across ISAs and the scalar
/// control logic can inspect masks directly. [`LaneVec::blend_bits`]
/// selects per lane, which is how diverging lanes discard the garbage
/// they computed while masked off.
///
/// # Safety
///
/// `load`/`store` dereference raw pointers to `WIDTH` consecutive `f64`s.
/// Implementations backed by ISA intrinsics must only be *executed* on
/// hosts with that ISA; the `#[target_feature]` wrappers plus runtime
/// detection uphold this.
trait LaneVec: Copy {
    /// Lanes per vector.
    const WIDTH: usize;
    /// Bitmask with every lane set.
    const FULL: u16;

    /// # Safety
    /// `ptr` must be valid for reading `WIDTH` consecutive `f64`s.
    unsafe fn load(ptr: *const f64) -> Self;
    /// # Safety
    /// `ptr` must be valid for writing `WIDTH` consecutive `f64`s.
    unsafe fn store(self, ptr: *mut f64);
    fn splat(x: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    /// Sign-bit clear (exact, no branching on value).
    fn abs(self) -> Self;
    /// Sign-bit flip (exact; `neg(+0.0) == -0.0` like scalar `-x`).
    fn neg(self) -> Self;
    /// Ordered `self >= o` per lane (false on NaN), as a bitmask.
    fn ge_bits(self, o: Self) -> u16;
    /// Ordered `self > o` per lane (false on NaN), as a bitmask.
    fn gt_bits(self, o: Self) -> u16;
    /// Ordered `self == o` per lane (false on NaN), as a bitmask.
    fn eq_bits(self, o: Self) -> u16;
    /// Per lane: bit set → `on_true`, clear → `on_false` (exact copy).
    fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self;
    /// [`crate::eigen::pythag`] per lane. The default is [`pythag_v`]: a
    /// blend picks each lane's branch first, so all lanes share one divide
    /// and one square root. The portable lanes call the scalar function
    /// per lane instead.
    #[inline(always)]
    fn pythag(a: Self, b: Self) -> Self {
        pythag_v(a, b)
    }
    /// Starts the QL pass at row `l`, or returns `None` when no lane
    /// rotates. Each lane's split point is its first `m >= l` whose `e[m]`
    /// is negligible next to `d[m]` and `d[m+1]`
    /// ([`crate::eigen::ql_negligible`]), or `n - 1`. A lane rotates when
    /// `m > l`: its split point goes to `m[lane]` and its shifted `g`
    /// ([`crate::eigen::ql_shift`]) into the result.
    ///
    /// The default decides with masks. The split search runs one lane-wise
    /// test per row, `ε·(|d_m| + |d_{m+1}|) >= |e_m|` or
    /// `MIN_POSITIVE > |e_m|`, until every lane has its first hit. The
    /// compares are ordered, so a NaN lane never splits on the relative
    /// clause, as in the scalar test. The shift is vector arithmetic, with
    /// a blend for the sign of `r` and `d[m]` gathered per lane. The
    /// portable lanes run the scalar search and shift per lane instead: on
    /// plain `f64`s the masks measured 5–15% slower per QL sweep at
    /// dimensions 4–16.
    ///
    /// # Safety
    ///
    /// `d` and `e` must be valid for reading `WIDTH` consecutive `f64`s at
    /// every offset `i * stride`, `i < n`, and `l < n`.
    #[inline(always)]
    unsafe fn ql_pass(
        d: *const f64,
        e: *const f64,
        stride: usize,
        l: usize,
        n: usize,
        m: &mut [usize; MAX_BATCH_LANES],
    ) -> Option<QlPass<Self>> {
        let eps = Self::splat(f64::EPSILON);
        let tiny = Self::splat(f64::MIN_POSITIVE);
        let mut split = Self::splat((n - 1) as f64);
        let mut open = Self::FULL;
        for row in l..n - 1 {
            let e_m = Self::load(e.add(row * stride)).abs();
            let dd = Self::load(d.add(row * stride))
                .abs()
                .add(Self::load(d.add((row + 1) * stride)).abs());
            let hit = open & (eps.mul(dd).ge_bits(e_m) | tiny.gt_bits(e_m));
            if hit != 0 {
                split = Self::blend_bits(hit, Self::splat(row as f64), split);
                open &= !hit;
                if open == 0 {
                    break;
                }
            }
        }
        let active = split.gt_bits(Self::splat(l as f64));
        if active == 0 {
            return None;
        }
        let mut rows = [0.0f64; MAX_BATCH_LANES];
        let mut d_m = [0.0f64; MAX_BATCH_LANES];
        split.store(rows.as_mut_ptr());
        let mut max_m = l;
        for lane in lanes_of(active) {
            let row = rows[lane] as usize;
            m[lane] = row;
            d_m[lane] = *d.add(row * stride + lane);
            max_m = max_m.max(row);
        }
        let d_l = Self::load(d.add(l * stride));
        let e_l = Self::load(e.add(l * stride));
        let g = Self::load(d.add((l + 1) * stride))
            .sub(d_l)
            .div(Self::splat(2.0).mul(e_l));
        let r = Self::pythag(g, Self::splat(1.0)).abs();
        let shift = g.add(Self::blend_bits(g.ge_bits(Self::splat(0.0)), r, r.neg()));
        Some(QlPass {
            m: split,
            g: Self::load(d_m.as_ptr()).sub(d_l).add(e_l.div(shift)),
            active,
            max_m,
        })
    }
}

/// Portable block of `W` lanes: every operation is the plain `f64`
/// operator applied per element, so it is IEEE-exact by construction.
/// It runs the scalar path's blocks and the leftover tail lanes of every
/// path (see [`run_blocks`]) through the *same* generic kernels as the ISA
/// vectors.
#[derive(Debug, Clone, Copy)]
struct ArrayLane<const W: usize>([f64; W]);

/// The block type of [`SimdPath::Scalar`]. Four lanes give the kernels'
/// accumulation chains enough independent work: width 1 measured 1.2–1.5×
/// slower than width 4 on the `pairwise` rows (2-vCPU Xeon), and widths 2
/// and 8 were no faster in a batched-solve micro-benchmark.
type ScalarBlock = ArrayLane<4>;

impl<const W: usize> ArrayLane<W> {
    #[inline(always)]
    fn zip(self, o: Self, op: impl Fn(f64, f64) -> f64) -> Self {
        ArrayLane(std::array::from_fn(|k| op(self.0[k], o.0[k])))
    }
    #[inline(always)]
    fn mask(self, o: Self, pred: impl Fn(f64, f64) -> bool) -> u16 {
        (0..W).fold(0, |bits, k| bits | (pred(self.0[k], o.0[k]) as u16) << k)
    }
}

impl<const W: usize> LaneVec for ArrayLane<W> {
    const WIDTH: usize = W;
    const FULL: u16 = ((1u32 << W) - 1) as u16;

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        ArrayLane(ptr.cast::<[f64; W]>().read_unaligned())
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        ptr.cast::<[f64; W]>().write_unaligned(self.0)
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        ArrayLane([x; W])
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        ArrayLane(self.0.map(f64::sqrt))
    }
    #[inline(always)]
    fn abs(self) -> Self {
        ArrayLane(self.0.map(f64::abs))
    }
    #[inline(always)]
    fn neg(self) -> Self {
        ArrayLane(self.0.map(|x| -x))
    }
    #[inline(always)]
    fn ge_bits(self, o: Self) -> u16 {
        self.mask(o, |a, b| a >= b)
    }
    #[inline(always)]
    fn gt_bits(self, o: Self) -> u16 {
        self.mask(o, |a, b| a > b)
    }
    #[inline(always)]
    fn eq_bits(self, o: Self) -> u16 {
        self.mask(o, |a, b| a == b)
    }
    #[inline(always)]
    fn pythag(a: Self, b: Self) -> Self {
        a.zip(b, pythag)
    }
    #[inline(always)]
    unsafe fn ql_pass(
        d: *const f64,
        e: *const f64,
        stride: usize,
        l: usize,
        n: usize,
        m: &mut [usize; MAX_BATCH_LANES],
    ) -> Option<QlPass<Self>> {
        let (mut split, mut g) = ([0.0; W], [0.0; W]);
        let mut active = 0;
        let mut max_m = l;
        for lane in 0..W {
            let d = |i: usize| *d.add(i * stride + lane);
            let e = |i: usize| *e.add(i * stride + lane);
            let mut row = l;
            while row + 1 < n && !ql_negligible(e(row), d(row), d(row + 1)) {
                row += 1;
            }
            split[lane] = row as f64;
            if row > l {
                m[lane] = row;
                g[lane] = ql_shift(d(l), d(l + 1), e(l), d(row));
                active |= 1 << lane;
                max_m = max_m.max(row);
            }
        }
        (active != 0).then_some(QlPass {
            m: ArrayLane(split),
            g: ArrayLane(g),
            active,
            max_m,
        })
    }
    #[inline(always)]
    fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self {
        ArrayLane(std::array::from_fn(|k| {
            if bits >> k & 1 == 1 {
                on_true.0[k]
            } else {
                on_false.0[k]
            }
        }))
    }
}

/// Two `V` vectors run as one block of `2 × V::WIDTH` lanes (the low half
/// holds the first `V::WIDTH` lanes). Every op is applied to both halves,
/// so each step of a kernel keeps two independent dependency chains in
/// flight: the QL rotation is a single chain of divides and square roots
/// per block, which one vector alone runs at latency. [`run_blocks`] uses
/// it on the ISA paths while two vectors' worth of lanes remain. The ops
/// call the halves' methods directly: handing them on as `Fn` values left
/// `Fn::call` shims that the ISA wrappers did not inline.
#[derive(Clone, Copy)]
struct Pair<V>(V, V);

impl<V: LaneVec> LaneVec for Pair<V> {
    const WIDTH: usize = 2 * V::WIDTH;
    const FULL: u16 = V::FULL | V::FULL << V::WIDTH;

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        Pair(V::load(ptr), V::load(ptr.add(V::WIDTH)))
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        self.0.store(ptr);
        self.1.store(ptr.add(V::WIDTH));
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Pair(V::splat(x), V::splat(x))
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Pair(self.0.add(o.0), self.1.add(o.1))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Pair(self.0.sub(o.0), self.1.sub(o.1))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Pair(self.0.mul(o.0), self.1.mul(o.1))
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        Pair(self.0.div(o.0), self.1.div(o.1))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Pair(self.0.sqrt(), self.1.sqrt())
    }
    #[inline(always)]
    fn abs(self) -> Self {
        Pair(self.0.abs(), self.1.abs())
    }
    #[inline(always)]
    fn neg(self) -> Self {
        Pair(self.0.neg(), self.1.neg())
    }
    #[inline(always)]
    fn ge_bits(self, o: Self) -> u16 {
        self.0.ge_bits(o.0) | self.1.ge_bits(o.1) << V::WIDTH
    }
    #[inline(always)]
    fn gt_bits(self, o: Self) -> u16 {
        self.0.gt_bits(o.0) | self.1.gt_bits(o.1) << V::WIDTH
    }
    #[inline(always)]
    fn eq_bits(self, o: Self) -> u16 {
        self.0.eq_bits(o.0) | self.1.eq_bits(o.1) << V::WIDTH
    }
    #[inline(always)]
    fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self {
        Pair(
            V::blend_bits(bits & V::FULL, on_true.0, on_false.0),
            V::blend_bits(bits >> V::WIDTH, on_true.1, on_false.1),
        )
    }
    #[inline(always)]
    fn pythag(a: Self, b: Self) -> Self {
        Pair(V::pythag(a.0, b.0), V::pythag(a.1, b.1))
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LaneVec;
    use core::arch::x86_64::*;

    /// Per-lane all-ones/all-zeros masks for `blendv`, indexed by bitmask.
    /// `blendv_pd` keys on the sign bit, so all-ones lanes select `on_true`.
    static AVX2_MASKS: [[u64; 4]; 16] = {
        let mut table = [[0u64; 4]; 16];
        let mut bits = 0;
        while bits < 16 {
            let mut lane = 0;
            while lane < 4 {
                if bits >> lane & 1 == 1 {
                    table[bits][lane] = u64::MAX;
                }
                lane += 1;
            }
            bits += 1;
        }
        table
    };

    /// 4 × f64 AVX2 lanes. All arithmetic maps to single IEEE-exact
    /// VEX-encoded instructions; `abs`/`neg` are bitwise ops on the sign
    /// bit; compares use ordered-quiet predicates.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2Vec(__m256d);

    impl LaneVec for Avx2Vec {
        const WIDTH: usize = 4;
        const FULL: u16 = 0b1111;

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            Avx2Vec(_mm256_loadu_pd(ptr))
        }
        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            _mm256_storeu_pd(ptr, self.0)
        }
        #[inline(always)]
        fn splat(x: f64) -> Self {
            Avx2Vec(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Avx2Vec(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Avx2Vec(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Avx2Vec(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Avx2Vec(unsafe { _mm256_div_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            Avx2Vec(unsafe { _mm256_sqrt_pd(self.0) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            // Clear the sign bit: andnot(-0.0, x).
            Avx2Vec(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // Flip the sign bit: xor(-0.0, x) — exact for ±0.0, unlike 0-x.
            Avx2Vec(unsafe { _mm256_xor_pd(_mm256_set1_pd(-0.0), self.0) })
        }
        #[inline(always)]
        fn ge_bits(self, o: Self) -> u16 {
            unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(self.0, o.0)) as u16 }
        }
        #[inline(always)]
        fn gt_bits(self, o: Self) -> u16 {
            unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(self.0, o.0)) as u16 }
        }
        #[inline(always)]
        fn eq_bits(self, o: Self) -> u16 {
            unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, o.0)) as u16 }
        }
        #[inline(always)]
        fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self {
            let mask = unsafe {
                _mm256_loadu_pd(AVX2_MASKS[(bits & 0b1111) as usize].as_ptr() as *const f64)
            };
            Avx2Vec(unsafe { _mm256_blendv_pd(on_false.0, on_true.0, mask) })
        }
    }

    /// 8 × f64 AVX-512F lanes. Compares produce native `__mmask8`
    /// registers; blends are single mask-blend instructions; `neg` is an
    /// integer-domain xor because `_mm512_xor_pd` needs AVX-512DQ.
    #[derive(Clone, Copy)]
    pub(super) struct Avx512Vec(__m512d);

    impl LaneVec for Avx512Vec {
        const WIDTH: usize = 8;
        const FULL: u16 = 0xff;

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            Avx512Vec(_mm512_loadu_pd(ptr))
        }
        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            _mm512_storeu_pd(ptr, self.0)
        }
        #[inline(always)]
        fn splat(x: f64) -> Self {
            Avx512Vec(unsafe { _mm512_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Avx512Vec(unsafe { _mm512_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Avx512Vec(unsafe { _mm512_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Avx512Vec(unsafe { _mm512_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Avx512Vec(unsafe { _mm512_div_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            Avx512Vec(unsafe { _mm512_sqrt_pd(self.0) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            Avx512Vec(unsafe { _mm512_abs_pd(self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            Avx512Vec(unsafe {
                _mm512_castsi512_pd(_mm512_xor_si512(
                    _mm512_castpd_si512(self.0),
                    _mm512_set1_epi64(i64::MIN),
                ))
            })
        }
        #[inline(always)]
        fn ge_bits(self, o: Self) -> u16 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self.0, o.0) as u16 }
        }
        #[inline(always)]
        fn gt_bits(self, o: Self) -> u16 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_GT_OQ>(self.0, o.0) as u16 }
        }
        #[inline(always)]
        fn eq_bits(self, o: Self) -> u16 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self.0, o.0) as u16 }
        }
        #[inline(always)]
        fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self {
            // mask_blend picks the *second* operand where the bit is set.
            Avx512Vec(unsafe { _mm512_mask_blend_pd(bits as u8, on_false.0, on_true.0) })
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::LaneVec;
    use core::arch::aarch64::*;

    /// Per-lane select masks for `vbslq_f64`, indexed by bitmask.
    static NEON_MASKS: [[u64; 2]; 4] = [[0, 0], [u64::MAX, 0], [0, u64::MAX], [u64::MAX, u64::MAX]];

    /// 2 × f64 NEON lanes. `FNEG`/`FABS` are exact sign-bit operations and
    /// NEON f64 arithmetic is IEEE-exact (no flush-to-zero for f64).
    #[derive(Clone, Copy)]
    pub(super) struct NeonVec(float64x2_t);

    impl LaneVec for NeonVec {
        const WIDTH: usize = 2;
        const FULL: u16 = 0b11;

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            NeonVec(vld1q_f64(ptr))
        }
        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            vst1q_f64(ptr, self.0)
        }
        #[inline(always)]
        fn splat(x: f64) -> Self {
            NeonVec(unsafe { vdupq_n_f64(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            NeonVec(unsafe { vaddq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            NeonVec(unsafe { vsubq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            NeonVec(unsafe { vmulq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            NeonVec(unsafe { vdivq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            NeonVec(unsafe { vsqrtq_f64(self.0) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            NeonVec(unsafe { vabsq_f64(self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            NeonVec(unsafe { vnegq_f64(self.0) })
        }
        #[inline(always)]
        fn ge_bits(self, o: Self) -> u16 {
            let m = unsafe { vcgeq_f64(self.0, o.0) };
            unsafe {
                (vgetq_lane_u64::<0>(m) & 1) as u16 | ((vgetq_lane_u64::<1>(m) & 1) << 1) as u16
            }
        }
        #[inline(always)]
        fn gt_bits(self, o: Self) -> u16 {
            let m = unsafe { vcgtq_f64(self.0, o.0) };
            unsafe {
                (vgetq_lane_u64::<0>(m) & 1) as u16 | ((vgetq_lane_u64::<1>(m) & 1) << 1) as u16
            }
        }
        #[inline(always)]
        fn eq_bits(self, o: Self) -> u16 {
            let m = unsafe { vceqq_f64(self.0, o.0) };
            unsafe {
                (vgetq_lane_u64::<0>(m) & 1) as u16 | ((vgetq_lane_u64::<1>(m) & 1) << 1) as u16
            }
        }
        #[inline(always)]
        fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self {
            let mask = unsafe { vld1q_u64(NEON_MASKS[(bits & 0b11) as usize].as_ptr()) };
            NeonVec(unsafe { vbslq_f64(mask, on_true.0, on_false.0) })
        }
    }
}

// ---------------------------------------------------------------------------
// Generic block kernels
// ---------------------------------------------------------------------------

/// `sqrt(a² + b²)` per lane, mirroring [`crate::eigen::pythag`]'s decision
/// tree with IEEE-exact selects. A lane with `|a| > |b|` takes the first
/// branch (`|a|·sqrt(1 + (|b|/|a|)²)`), every other lane the last one with
/// the operands swapped, so one divide and one square root serve both.
/// Lanes where the scalar function returns early (`|b| == 0` and not
/// `|a| > |b|`) are blended to exact `+0.0`; NaN lanes take the same
/// branch as the scalar code and stay NaN.
#[inline(always)]
fn pythag_v<V: LaneVec>(a: V, b: V) -> V {
    let absa = a.abs();
    let absb = b.abs();
    let a_gt_b = absa.gt_bits(absb);
    let big = V::blend_bits(a_gt_b, absa, absb);
    let small = V::blend_bits(a_gt_b, absb, absa);
    let r = small.div(big);
    let v = big.mul(V::splat(1.0).add(r.mul(r)).sqrt());
    let zero = V::splat(0.0);
    V::blend_bits(absb.eq_bits(zero) & !a_gt_b, zero, v)
}

/// The lanes set in `bits`, ascending.
#[inline(always)]
fn lanes_of(mut bits: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            lane
        })
    })
}

/// Values-only Householder tridiagonalisation of the `V::WIDTH` SoA lanes
/// starting at lane `base`: the scalar driver's `tred2` arithmetic, op for
/// op per lane, on the SoA layout of [`crate::batch`]. The per-lane
/// zero-scale skip becomes a lane mask: masked-off lanes keep computing
/// (their garbage is IEEE-legal) but every store blends against the mask,
/// so their memory never changes except where the scalar driver writes it.
///
/// # Safety
///
/// `base + V::WIDTH <= lanes`, `z.len() >= n*n*lanes`, `e.len() >=
/// n*lanes`, and the host must support `V`'s ISA.
#[inline(always)]
unsafe fn tred2_block<V: LaneVec>(
    z: &mut [f64],
    n: usize,
    lanes: usize,
    base: usize,
    e: &mut [f64],
) {
    debug_assert!(base + V::WIDTH <= lanes);
    debug_assert!(z.len() >= n * n * lanes && e.len() >= n * lanes);
    let zp = z.as_mut_ptr();
    let ep = e.as_mut_ptr();
    let zero = V::splat(0.0);

    for i in (1..n).rev() {
        let l = i - 1;
        if l == 0 {
            // i == 1: the reduction is trivial, e[1] = z[1, 0].
            V::load(zp.add(i * n * lanes + base)).store(ep.add(i * lanes + base));
            continue;
        }

        // scale = Σ_k |z[i, k]| over the active row prefix.
        let mut scale = zero;
        for k in 0..=l {
            scale = scale.add(V::load(zp.add((i * n + k) * lanes + base)).abs());
        }
        let skip = scale.eq_bits(zero);
        let live = !skip & V::FULL;
        if skip != 0 {
            // Skipped lanes take the scalar driver's trivial row: e[i] =
            // z[i, l], everything else untouched.
            let off = i * lanes + base;
            let trivial = V::load(zp.add((i * n + l) * lanes + base));
            V::blend_bits(skip, trivial, V::load(ep.add(off))).store(ep.add(off));
            if live == 0 {
                continue;
            }
        }

        // Normalise the row by its scale and accumulate h = Σ v².
        let mut h = zero;
        for k in 0..=l {
            let off = (i * n + k) * lanes + base;
            let orig = V::load(zp.add(off));
            let v = orig.div(scale);
            V::blend_bits(live, v, orig).store(zp.add(off));
            h = h.add(V::blend_bits(live, v.mul(v), zero));
        }
        // Householder head: choose the reflection sign per lane.
        let off_l = (i * n + l) * lanes + base;
        let f = V::load(zp.add(off_l));
        let sqrt_h = h.sqrt();
        let g = V::blend_bits(f.ge_bits(zero), sqrt_h.neg(), sqrt_h);
        {
            let off = i * lanes + base;
            V::blend_bits(live, scale.mul(g), V::load(ep.add(off))).store(ep.add(off));
        }
        let h = V::blend_bits(live, h.sub(f.mul(g)), h);
        V::blend_bits(live, f.sub(g), f).store(zp.add(off_l));

        // p = A·v (stored in e[0..=l]) and facc = vᵀ·p. The accumulation
        // loops run unmasked (garbage in skipped lanes is never stored).
        let mut facc = zero;
        for j in 0..=l {
            let mut gv = zero;
            for k in 0..=j {
                gv = gv.add(
                    V::load(zp.add((j * n + k) * lanes + base))
                        .mul(V::load(zp.add((i * n + k) * lanes + base))),
                );
            }
            for k in (j + 1)..=l {
                gv = gv.add(
                    V::load(zp.add((k * n + j) * lanes + base))
                        .mul(V::load(zp.add((i * n + k) * lanes + base))),
                );
            }
            let off = j * lanes + base;
            let v = gv.div(h);
            V::blend_bits(live, v, V::load(ep.add(off))).store(ep.add(off));
            facc = facc.add(V::blend_bits(
                live,
                v.mul(V::load(zp.add((i * n + j) * lanes + base))),
                zero,
            ));
        }
        let hh = facc.div(h.add(h));
        // Rank-2 update A ← A - v·qᵀ - q·vᵀ on the lower triangle.
        for j in 0..=l {
            let fv = V::load(zp.add((i * n + j) * lanes + base));
            let ej_off = j * lanes + base;
            let ej = V::load(ep.add(ej_off));
            let gv = ej.sub(hh.mul(fv));
            V::blend_bits(live, gv, ej).store(ep.add(ej_off));
            for k in 0..=j {
                let off = (j * n + k) * lanes + base;
                let zjk = V::load(zp.add(off));
                let delta = fv
                    .mul(V::load(ep.add(k * lanes + base)))
                    .add(gv.mul(V::load(zp.add((i * n + k) * lanes + base))));
                V::blend_bits(live, zjk.sub(delta), zjk).store(zp.add(off));
            }
        }
    }
    // Final sub-diagonal slot, matching the scalar driver's e[0] = 0.
    zero.store(ep.add(base));
}

/// Values-only implicit-QL sweep of the `V::WIDTH` SoA lanes starting at
/// lane `base`: the scalar driver's `tqli` arithmetic, op for op per lane.
/// Every lane keeps its own decisions, taken with lane masks:
///
/// * [`LaneVec::ql_pass`] finds each lane's split point and shift,
/// * a lane rotates at index `i` exactly while `i < m` and no degenerate
///   rotation (`r == 0`) has ended its pass: one vector compare per step,
/// * the pass tail and the iteration counts are lane-wise too; one lane
///   over [`MAX_QL_ITERATIONS`] fails the call.
///
/// The rotation registers (`s`, `c`, `g`, `p`, `r`) stay in vectors across
/// the descending rotation index. Expects the caller to have already
/// shifted `e` down one slot (as the scalar driver does first).
///
/// # Safety
///
/// `base + V::WIDTH <= lanes`, `d.len() >= n*lanes`, `e.len() >=
/// n*lanes`, `n >= 1`, and the host must support `V`'s ISA.
#[inline(always)]
unsafe fn tqli_block<V: LaneVec>(
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
    base: usize,
) -> Result<()> {
    debug_assert!(base + V::WIDTH <= lanes && V::WIDTH <= MAX_BATCH_LANES);
    debug_assert!(d.len() >= n * lanes && e.len() >= n * lanes);
    let dp = d.as_mut_ptr();
    let ep = e.as_mut_ptr();
    let at = |i: usize| i * lanes + base;
    let zero = V::splat(0.0);
    let one = V::splat(1.0);
    let two = V::splat(2.0);
    let max_iters = V::splat(MAX_QL_ITERATIONS as f64);
    // Each rotating lane's split point, for the `e[m] = 0` stores.
    let mut m = [0usize; MAX_BATCH_LANES];

    for l in 0..n {
        let mut iters = zero;
        while let Some(pass) = V::ql_pass(dp.add(base), ep.add(base), lanes, l, n, &mut m) {
            iters = iters.add(V::blend_bits(pass.active, one, zero));
            if iters.gt_bits(max_iters) != 0 {
                return Err(LinalgError::NoConvergence {
                    algorithm: "batched symmetric QL iteration",
                    iterations: MAX_QL_ITERATIONS,
                });
            }
            // Every rotating lane sets `r` at its first rotation.
            let (mut sv, mut cv, mut gv, mut pv, mut rv) = (one, one, pass.g, zero, zero);
            // Lanes whose pass a degenerate rotation ended.
            let mut fixed: u16 = 0;

            // Lockstep plane rotations, descending. A lane that does not
            // rotate this pass has `m == l`, so `m > i` never holds for it.
            for i in (l..pass.max_m).rev() {
                let alive = pass.m.gt_bits(V::splat(i as f64)) & !fixed;
                if alive == 0 {
                    continue;
                }
                let ei = V::load(ep.add(at(i)));
                let f = sv.mul(ei);
                let b = cv.mul(ei);
                let r_new = V::pythag(f, gv);
                {
                    let old = V::load(ep.add(at(i + 1)));
                    V::blend_bits(alive, r_new, old).store(ep.add(at(i + 1)));
                }
                let r_zero = r_new.eq_bits(zero) & alive;
                // `alive2` takes a data dependency on `r_new` only on the
                // rare degenerate branch, keeping the masks off the
                // recurrence's critical path.
                let mut alive2 = alive;
                if r_zero != 0 {
                    // Degenerate rotation: the scalar driver's early-out
                    // branch (rare — both f and g zero).
                    let di1 = V::load(dp.add(at(i + 1)));
                    V::blend_bits(r_zero, di1.sub(pv), di1).store(dp.add(at(i + 1)));
                    for lane in lanes_of(r_zero) {
                        *ep.add(at(m[lane]) + lane) = 0.0;
                    }
                    fixed |= r_zero;
                    alive2 &= !r_zero;
                    if alive2 == 0 {
                        continue;
                    }
                }
                let s_new = f.div(r_new);
                let c_new = gv.div(r_new);
                let g1 = V::load(dp.add(at(i + 1))).sub(pv);
                let r2 = V::load(dp.add(at(i)))
                    .sub(g1)
                    .mul(s_new)
                    .add(two.mul(c_new).mul(b));
                let p_new = s_new.mul(r2);
                {
                    let old = V::load(dp.add(at(i + 1)));
                    V::blend_bits(alive2, g1.add(p_new), old).store(dp.add(at(i + 1)));
                }
                let g_new = c_new.mul(r2).sub(b);
                if alive2 == V::FULL {
                    // Every lane rotated (the common case): nothing to keep.
                    (sv, cv, gv, pv, rv) = (s_new, c_new, g_new, p_new, r2);
                } else {
                    sv = V::blend_bits(alive2, s_new, sv);
                    cv = V::blend_bits(alive2, c_new, cv);
                    gv = V::blend_bits(alive2, g_new, gv);
                    pv = V::blend_bits(alive2, p_new, pv);
                    rv = V::blend_bits(alive2, r2, rv);
                }
            }

            // Tail: the scalar `if r == 0 && m > l { continue }` skips the
            // lanes a degenerate rotation ended and those whose last `r` is
            // exactly zero; the rest finish their pass.
            let finish = pass.active & !fixed & !rv.eq_bits(zero);
            if finish != 0 {
                let dl = V::load(dp.add(at(l)));
                V::blend_bits(finish, dl.sub(pv), dl).store(dp.add(at(l)));
                let el = V::load(ep.add(at(l)));
                V::blend_bits(finish, gv, el).store(ep.add(at(l)));
                for lane in lanes_of(finish) {
                    *ep.add(at(m[lane]) + lane) = 0.0;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Target-feature wrappers and dispatch
// ---------------------------------------------------------------------------

/// One batched phase over the SoA lanes, runnable on any lane type, so one
/// block loop ([`run_blocks`]) and one `#[target_feature]` wrapper per ISA
/// serve both phases.
trait Phase {
    /// Runs the phase on the `V::WIDTH` lanes starting at lane `base`.
    ///
    /// # Safety
    ///
    /// `base + V::WIDTH <= lanes`, the phase's slices hold all `lanes`, and
    /// the host must support `V`'s ISA.
    unsafe fn run<V: LaneVec>(&mut self, base: usize) -> Result<()>;
}

/// The Householder phase ([`tred2_block`]).
struct Tred2<'a> {
    z: &'a mut [f64],
    e: &'a mut [f64],
    n: usize,
    lanes: usize,
}

impl Phase for Tred2<'_> {
    #[inline(always)]
    unsafe fn run<V: LaneVec>(&mut self, base: usize) -> Result<()> {
        tred2_block::<V>(self.z, self.n, self.lanes, base, self.e);
        Ok(())
    }
}

/// The QL phase ([`tqli_block`]).
struct Tqli<'a> {
    d: &'a mut [f64],
    e: &'a mut [f64],
    n: usize,
    lanes: usize,
}

impl Phase for Tqli<'_> {
    #[inline(always)]
    unsafe fn run<V: LaneVec>(&mut self, base: usize) -> Result<()> {
        tqli_block::<V>(self.d, self.e, self.n, self.lanes, base)
    }
}

// The generic kernels are `#[inline(always)]` all the way down to the
// intrinsics, so monomorphising them inside a `#[target_feature]` wrapper
// compiles the whole phase with that ISA enabled — the supported pattern
// for feature-gated codegen without a global `-C target-cpu`.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(phase: &mut impl Phase, base: usize, paired: bool) -> Result<()> {
    if paired {
        phase.run::<Pair<x86::Avx2Vec>>(base)
    } else {
        phase.run::<x86::Avx2Vec>(base)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512(phase: &mut impl Phase, base: usize, paired: bool) -> Result<()> {
    if paired {
        phase.run::<Pair<x86::Avx512Vec>>(base)
    } else {
        phase.run::<x86::Avx512Vec>(base)
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn run_neon(phase: &mut impl Phase, base: usize, paired: bool) -> Result<()> {
    if paired {
        phase.run::<Pair<arm::NeonVec>>(base)
    } else {
        phase.run::<arm::NeonVec>(base)
    }
}

/// Runs `phase` over all `lanes` on `path`: [`Pair`] blocks of two path
/// vectors while `2 × lane_width` lanes remain (a full AVX-512F or AVX2
/// chunk is one block), then one single-vector block if `lane_width`
/// remain, then the lanes left over in portable blocks — `ArrayLane<4>`
/// while four remain, then one `ArrayLane` of the last one to three.
/// (Single-lane tails cost almost a full block each: a lone lane runs the
/// kernels' accumulation chains at latency, not throughput.) The scalar
/// path runs unpaired `ScalarBlock`s: pairing the portable arrays measured
/// no faster. Must only be called with a path that
/// [`SimdPath::is_available`] — the resolver guarantees this.
fn run_blocks(path: SimdPath, lanes: usize, phase: &mut impl Phase) -> Result<()> {
    debug_assert!(path.is_available());
    let width = path.lane_width();
    let mut base = 0;
    // SAFETY: each block starts at a `base` with `base + WIDTH <= lanes`
    // for its lane type (`width` is the path type's `WIDTH`, a paired
    // block only runs while `2 * width` lanes remain; the tail match never
    // takes more lanes than are left), the callers assert their slices
    // hold all `lanes`, and the resolver only hands out paths the host
    // can execute.
    unsafe {
        while base + width <= lanes {
            let paired = path != SimdPath::Scalar && base + 2 * width <= lanes;
            match path {
                SimdPath::Scalar => phase.run::<ScalarBlock>(base)?,
                #[cfg(target_arch = "x86_64")]
                SimdPath::Avx2 => run_avx2(phase, base, paired)?,
                #[cfg(target_arch = "x86_64")]
                SimdPath::Avx512 => run_avx512(phase, base, paired)?,
                #[cfg(target_arch = "aarch64")]
                SimdPath::Neon => run_neon(phase, base, paired)?,
                _ => unreachable!("dispatched SIMD path unavailable on this architecture"),
            }
            base += if paired { 2 * width } else { width };
        }
        while base < lanes {
            base += match lanes - base {
                1 => phase.run::<ArrayLane<1>>(base).map(|()| 1)?,
                2 => phase.run::<ArrayLane<2>>(base).map(|()| 2)?,
                3 => phase.run::<ArrayLane<3>>(base).map(|()| 3)?,
                _ => phase.run::<ArrayLane<4>>(base).map(|()| 4)?,
            };
        }
    }
    Ok(())
}

/// Runs the Householder phase ([`tred2_block`]) over all `lanes` of the
/// SoA block `z` on `path`.
pub(crate) fn dispatch_tred2(
    path: SimdPath,
    z: &mut [f64],
    n: usize,
    lanes: usize,
    e: &mut [f64],
) -> Result<()> {
    assert!(z.len() >= n * n * lanes && e.len() >= n * lanes);
    run_blocks(path, lanes, &mut Tred2 { z, e, n, lanes })
}

/// Runs the QL phase ([`tqli_block`]) over all `lanes` on `path`, after
/// the initial `e` shift-down the scalar driver performs.
pub(crate) fn dispatch_tqli(
    path: SimdPath,
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
) -> Result<()> {
    assert!(d.len() >= n * lanes && e.len() >= n * lanes);
    for i in 1..n {
        for lane in 0..lanes {
            e[(i - 1) * lanes + lane] = e[i * lanes + lane];
        }
    }
    for lane in 0..lanes {
        e[(n - 1) * lanes + lane] = 0.0;
    }
    run_blocks(path, lanes, &mut Tqli { d, e, n, lanes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolver_accepts_every_documented_value() {
        assert_eq!(resolve_simd_env_value(None).unwrap(), SimdChoice::Auto);
        assert_eq!(
            resolve_simd_env_value(Some("auto")).unwrap(),
            SimdChoice::Auto
        );
        for (raw, path) in [
            ("scalar", SimdPath::Scalar),
            ("avx2", SimdPath::Avx2),
            ("avx512", SimdPath::Avx512),
            ("neon", SimdPath::Neon),
        ] {
            assert_eq!(
                resolve_simd_env_value(Some(raw)).unwrap(),
                SimdChoice::Force(path),
                "{raw}"
            );
        }
        // Case-insensitive and whitespace-tolerant, like HAQJSK_BACKEND.
        assert_eq!(
            resolve_simd_env_value(Some("  AVX2 ")).unwrap(),
            SimdChoice::Force(SimdPath::Avx2)
        );
    }

    #[test]
    fn resolver_hard_errors_list_the_valid_names() {
        for bad in ["", "sse2", "avx", "fastest", "auto?"] {
            let err = resolve_simd_env_value(Some(bad)).unwrap_err().to_string();
            assert!(err.contains(SIMD_ENV_VAR), "{bad}: {err}");
            for name in ["auto", "avx512", "avx2", "neon", "scalar"] {
                assert!(err.contains(name), "{bad}: error must list {name}: {err}");
            }
        }
    }

    #[test]
    fn scalar_is_always_available_and_detection_is_consistent() {
        assert!(SimdPath::Scalar.is_available());
        let best = detect_best_path();
        assert!(best.is_available());
        let avail = available_simd_paths();
        assert!(avail.contains(&SimdPath::Scalar));
        assert!(avail.contains(&best));
        for path in avail {
            assert!(path.batch_lanes() <= MAX_BATCH_LANES);
            assert!(path.lane_width() <= path.batch_lanes());
            assert_eq!(path.batch_lanes() % path.lane_width(), 0);
        }
    }

    #[test]
    fn override_forces_each_available_path_and_rejects_missing_ones() {
        let _lock = override_test_lock();
        for path in available_simd_paths() {
            set_simd_path(Some(path)).unwrap();
            assert_eq!(active_simd_path().unwrap(), path);
            assert_eq!(active_simd_label(), path.label());
            assert_eq!(max_batch_lanes(), path.batch_lanes());
        }
        set_simd_path(None).unwrap();
        for path in SimdPath::ALL {
            if !path.is_available() {
                let err = set_simd_path(Some(path)).unwrap_err().to_string();
                assert!(err.contains(path.label()), "{err}");
            }
        }
        // After clearing, resolution is env + detection again (the test
        // env does not set the knob, so this is plain detection).
        set_simd_path(None).unwrap();
        assert!(active_simd_path().is_ok());
    }

    #[test]
    fn labels_round_trip_through_the_resolver() {
        for path in SimdPath::ALL {
            assert_eq!(
                resolve_simd_env_value(Some(path.label())).unwrap(),
                SimdChoice::Force(path)
            );
            assert_eq!(SimdPath::ALL[path.index()], path);
        }
    }

    /// Runs [`LaneVec::pythag`] over SoA slices through [`run_blocks`], so
    /// each path's paired, single and tail blocks all take part.
    struct PythagProbe<'a> {
        a: &'a [f64],
        b: &'a [f64],
        out: &'a mut [f64],
    }

    impl Phase for PythagProbe<'_> {
        unsafe fn run<V: LaneVec>(&mut self, base: usize) -> Result<()> {
            let a = V::load(self.a.as_ptr().add(base));
            let b = V::load(self.b.as_ptr().add(base));
            V::pythag(a, b).store(self.out.as_mut_ptr().add(base));
            Ok(())
        }
    }

    /// Equal bits, or both NaN (the payload of a NaN result may differ).
    fn same_value(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn pythag_lanes_match_the_scalar_pythag_bit_for_bit() {
        let sub = f64::from_bits(1); // smallest subnormal
        let values = [
            0.0,
            -0.0,
            sub,
            -sub,
            2.5e-310,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.0,
            -1.0,
            3.0,
            -3.0,
            0.75,
            1e-160,
            1e154,
            1e300,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let pairs: Vec<(f64, f64)> = values
            .iter()
            .flat_map(|&a| values.iter().map(move |&b| (a, b)))
            .collect();
        let expected: Vec<f64> = pairs.iter().map(|&(a, b)| pythag(a, b)).collect();
        // A few extra lanes beyond the pairs leave single and tail blocks
        // after the paired ones, whatever the path's width.
        for extra in [0usize, 3, 7, 11, 13] {
            let lanes = pairs.len() + extra;
            let a: Vec<f64> = (0..lanes).map(|k| pairs[k % pairs.len()].0).collect();
            let b: Vec<f64> = (0..lanes).map(|k| pairs[k % pairs.len()].1).collect();
            let check = |label: &str, out: &[f64]| {
                for (k, &got) in out.iter().enumerate() {
                    let want = expected[k % pairs.len()];
                    assert!(
                        same_value(got, want),
                        "{label}: pythag({:e}, {:e}) = {got:e}, scalar {want:e}",
                        a[k],
                        b[k]
                    );
                }
            };
            for path in available_simd_paths() {
                let mut out = vec![0.0; lanes];
                let mut probe = PythagProbe {
                    a: &a,
                    b: &b,
                    out: &mut out,
                };
                run_blocks(path, lanes, &mut probe).unwrap();
                check(path.label(), &out);
            }
            // The blended `pythag_v` on portable lanes, single and paired
            // (the portable blocks themselves call the scalar function).
            let mut out = vec![0.0; lanes];
            for base in (0..lanes - lanes % 4).step_by(4) {
                // SAFETY: `base + 4 <= lanes` for all three slices.
                unsafe {
                    let (va, vb) = (
                        ArrayLane::<4>::load(a.as_ptr().add(base)),
                        ArrayLane::<4>::load(b.as_ptr().add(base)),
                    );
                    pythag_v(va, vb).store(out.as_mut_ptr().add(base));
                }
            }
            check("pythag_v<ArrayLane<4>>", &out[..lanes - lanes % 4]);
            for base in (0..lanes - lanes % 4).step_by(4) {
                // SAFETY: as above; a pair of two-lane arrays is four lanes.
                unsafe {
                    let (va, vb) = (
                        Pair::<ArrayLane<2>>::load(a.as_ptr().add(base)),
                        Pair::<ArrayLane<2>>::load(b.as_ptr().add(base)),
                    );
                    pythag_v(va, vb).store(out.as_mut_ptr().add(base));
                }
            }
            check("pythag_v<Pair<ArrayLane<2>>>", &out[..lanes - lanes % 4]);
        }
    }
}
