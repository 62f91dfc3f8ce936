//! Explicit-SIMD lanes for the batched eigensolver, with runtime dispatch.
//!
//! The SoA layout of [`crate::batch`] puts lane `k` of element `(i, j)` at
//! `z[(i*n + j) * lanes + k]`: the lane axis is contiguous, which is exactly
//! the shape `core::arch` vector registers want. This module makes the
//! vectorisation explicit instead of relying on LLVM auto-vectorising the
//! plain `f64` lane loops:
//!
//! * a `LaneVec` trait abstracts a block of `WIDTH` adjacent lanes with
//!   **IEEE-exact** `f64` operations only — add/sub/mul/div/sqrt plus
//!   bitwise `abs`/`neg` and ordered compares. No FMA contraction, no
//!   reassociation, no approximate reciprocals: every lane of every vector
//!   op produces exactly the bits the scalar driver would,
//! * generic block kernels (`tred2_block`, `tqli_block`) run the
//!   Householder reduction and the implicit-QL sweep over one `WIDTH`-lane
//!   block, mirroring the scalar lane loop of `crate::batch` op for op.
//!   Data-dependent control flow (the zero-scale skip, QL split points,
//!   shift sequences, iteration counts, convergence) stays **per lane**:
//!   diverging lanes are masked with IEEE-exact selects, so garbage
//!   computed in a masked-off lane is discarded, never stored,
//! * thin `#[target_feature]` wrappers monomorphise the generic kernels per
//!   ISA — AVX-512F (8 × f64), AVX2 (4 × f64), NEON (2 × f64) — and a
//!   width-1 `ScalarLane` runs straggler tail lanes through the *same*
//!   generic code, so tails are bit-identical by construction,
//! * [`active_simd_path`] picks the widest ISA the host supports at
//!   runtime (`is_x86_feature_detected!`), overridable via the
//!   [`SIMD_ENV_VAR`] knob (`HAQJSK_SIMD=auto|avx512|avx2|neon|scalar`).
//!   Unknown values and unavailable ISAs are hard errors, mirroring the
//!   `HAQJSK_BACKEND` convention: a typo must never silently change paths.
//!
//! The scalar lane loop in `crate::batch` remains the always-compiled
//! fallback (and the reference the property tests compare against); the
//! kernels here are an *optimisation* of it, never a semantic fork — every
//! compiled path must produce bit-identical eigenvalues, which the forced
//! path proptests assert.

use crate::eigen::{pythag, MAX_QL_ITERATIONS};
use crate::error::LinalgError;
use crate::Result;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Name of the environment variable forcing the SIMD dispatch path.
pub const SIMD_ENV_VAR: &str = "HAQJSK_SIMD";

/// Hard cap on lanes per SoA chunk; [`SimdPath::batch_lanes`] picks the
/// effective width per path (16 under AVX-512F, 8 otherwise). Mirrored by
/// `crate::batch::MAX_BATCH_LANES`, which sizes the lane-state arrays.
pub(crate) const LANE_CAP: usize = 16;

/// A runtime-dispatched implementation of the batched eigensolver lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdPath {
    /// The plain `f64` lane loops of `crate::batch` (always compiled).
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

    /// `f64` lanes per vector register on this path (1 for scalar).
    pub fn lane_width(self) -> usize {
        match self {
            SimdPath::Scalar => 1,
            SimdPath::Avx2 => 4,
            SimdPath::Avx512 => 8,
            SimdPath::Neon => 2,
        }
    }

    /// Matrices per SoA chunk on this path: 16 under AVX-512F (two ZMM
    /// registers per SoA element row keep the rank-2 update busy), 8
    /// everywhere else (the pre-SIMD width, one ZMM / two YMM / four
    /// NEON registers).
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
}

/// Width-1 lane used for straggler tails: runs the *same* generic block
/// kernels as the vector paths, so tail lanes are bit-identical to full
/// blocks by construction (scalar `f64` ops are trivially IEEE-exact).
#[derive(Debug, Clone, Copy)]
struct ScalarLane(f64);

impl LaneVec for ScalarLane {
    const WIDTH: usize = 1;
    const FULL: u16 = 1;

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        ScalarLane(*ptr)
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        *ptr = self.0;
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        ScalarLane(x)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarLane(self.0 + o.0)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarLane(self.0 - o.0)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarLane(self.0 * o.0)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        ScalarLane(self.0 / o.0)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        ScalarLane(self.0.sqrt())
    }
    #[inline(always)]
    fn abs(self) -> Self {
        ScalarLane(self.0.abs())
    }
    #[inline(always)]
    fn neg(self) -> Self {
        ScalarLane(-self.0)
    }
    #[inline(always)]
    fn ge_bits(self, o: Self) -> u16 {
        (self.0 >= o.0) as u16
    }
    #[inline(always)]
    fn gt_bits(self, o: Self) -> u16 {
        (self.0 > o.0) as u16
    }
    #[inline(always)]
    fn eq_bits(self, o: Self) -> u16 {
        (self.0 == o.0) as u16
    }
    #[inline(always)]
    fn blend_bits(bits: u16, on_true: Self, on_false: Self) -> Self {
        if bits & 1 == 1 {
            on_true
        } else {
            on_false
        }
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
/// tree with IEEE-exact selects: each lane computes the branch the scalar
/// function would take with the exact ops it would use; the branch it
/// would not take produces garbage that the blend discards. Returns exact
/// `+0.0` only when both inputs are zero, like the scalar function.
#[inline(always)]
fn pythag_v<V: LaneVec>(a: V, b: V) -> V {
    let absa = a.abs();
    let absb = b.abs();
    let one = V::splat(1.0);
    let zero = V::splat(0.0);
    let a_gt_b = absa.gt_bits(absb);
    let ra = absb.div(absa);
    let va = absa.mul(one.add(ra.mul(ra)).sqrt());
    let rb = absa.div(absb);
    let vb = absb.mul(one.add(rb.mul(rb)).sqrt());
    let b_zero = absb.eq_bits(zero);
    V::blend_bits(a_gt_b, va, V::blend_bits(b_zero, zero, vb))
}

/// Values-only Householder tridiagonalisation of the `V::WIDTH` SoA lanes
/// starting at lane `base`: the explicit-SIMD mirror of the scalar lane
/// loop in `crate::batch::batch_tred2`, op for op per lane. The per-lane
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
/// lane `base`: the explicit-SIMD mirror of `crate::batch::batch_tqli`'s
/// lane loop. All data-dependent control flow stays scalar per lane — the
/// split-point search, the shift initialisation, iteration counting and
/// convergence — while the hot rotation recurrence runs vectorised with
/// the lane registers (`s`, `c`, `g`, `p`, `r`) held in vectors across the
/// descending rotation index. The rare degenerate rotation (`r == 0`) is
/// handled by a scalar fixup exactly where the scalar driver takes its
/// early-out branch. Expects the caller to have already shifted `e` down
/// one slot (as both scalar drivers do first).
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
    debug_assert!(base + V::WIDTH <= lanes);
    debug_assert!(d.len() >= n * lanes && e.len() >= n * lanes);
    let w = V::WIDTH;
    let zero = V::splat(0.0);
    let two = V::splat(2.0);
    let mut m_arr = [0usize; LANE_CAP];
    let mut iter = [0usize; LANE_CAP];
    let mut active = [false; LANE_CAP];
    let mut done = [false; LANE_CAP];
    let mut fixed = [false; LANE_CAP];
    let mut init = [0.0f64; LANE_CAP];
    let mut spill = [0.0f64; LANE_CAP];

    for l in 0..n {
        iter[..w].fill(0);
        loop {
            // Per-lane search for a small off-diagonal split element.
            let mut any_active = false;
            let mut max_m = l;
            for lane in 0..w {
                let at = |i: usize| i * lanes + base + lane;
                let mut m = l;
                while m + 1 < n {
                    let dd = d[at(m)].abs() + d[at(m + 1)].abs();
                    if e[at(m)].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                m_arr[lane] = m;
                active[lane] = m > l;
                if active[lane] {
                    any_active = true;
                    max_m = max_m.max(m);
                }
            }
            if !any_active {
                break;
            }

            // Per-lane shift initialisation (scalar: one-off per pass).
            let (mut sv, mut cv, mut gv, mut pv, mut rv);
            {
                let mut s_a = [0.0f64; LANE_CAP];
                let mut c_a = [0.0f64; LANE_CAP];
                let mut g_a = [0.0f64; LANE_CAP];
                let mut r_a = [0.0f64; LANE_CAP];
                for lane in 0..w {
                    if !active[lane] {
                        continue;
                    }
                    iter[lane] += 1;
                    if iter[lane] > MAX_QL_ITERATIONS {
                        return Err(LinalgError::NoConvergence {
                            algorithm: "batched symmetric QL iteration",
                            iterations: MAX_QL_ITERATIONS,
                        });
                    }
                    let at = |i: usize| i * lanes + base + lane;
                    let el = e[at(l)];
                    let mut g = (d[at(l + 1)] - d[at(l)]) / (2.0 * el);
                    let r = pythag(g, 1.0);
                    g = d[at(m_arr[lane])] - d[at(l)]
                        + el / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
                    g_a[lane] = g;
                    s_a[lane] = 1.0;
                    c_a[lane] = 1.0;
                    r_a[lane] = r;
                    done[lane] = false;
                    fixed[lane] = false;
                }
                sv = V::load(s_a.as_ptr());
                cv = V::load(c_a.as_ptr());
                gv = V::load(g_a.as_ptr());
                pv = zero;
                rv = V::load(r_a.as_ptr());
            }

            // Lockstep plane rotations: lane `k` participates exactly for
            // its own index range `l..m[k]`, in descending order, with the
            // rotation registers held in vectors across iterations.
            for i in (l..max_m).rev() {
                let mut alive: u16 = 0;
                for lane in 0..w {
                    if active[lane] && !done[lane] && i < m_arr[lane] {
                        alive |= 1 << lane;
                    }
                }
                if alive == 0 {
                    continue;
                }
                let ei = V::load(e.as_ptr().add(i * lanes + base));
                let f = sv.mul(ei);
                let b = cv.mul(ei);
                let r_new = pythag_v::<V>(f, gv);
                {
                    let off = (i + 1) * lanes + base;
                    let old = V::load(e.as_ptr().add(off));
                    V::blend_bits(alive, r_new, old).store(e.as_mut_ptr().add(off));
                }
                let r_zero = r_new.eq_bits(zero) & alive;
                if r_zero != 0 {
                    // Degenerate rotation: the scalar driver's early-out
                    // branch, taken per lane (rare — both f and g zero).
                    pv.store(spill.as_mut_ptr());
                    for lane in 0..w {
                        if r_zero >> lane & 1 == 1 {
                            d[(i + 1) * lanes + base + lane] -= spill[lane];
                            e[m_arr[lane] * lanes + base + lane] = 0.0;
                            done[lane] = true;
                            fixed[lane] = true;
                        }
                    }
                }
                let alive2 = alive & !r_zero;
                if alive2 == 0 {
                    continue;
                }
                let s_new = f.div(r_new);
                let c_new = gv.div(r_new);
                let g1 = V::load(d.as_ptr().add((i + 1) * lanes + base)).sub(pv);
                let r2 = V::load(d.as_ptr().add(i * lanes + base))
                    .sub(g1)
                    .mul(s_new)
                    .add(two.mul(c_new).mul(b));
                let p_new = s_new.mul(r2);
                {
                    let off = (i + 1) * lanes + base;
                    let old = V::load(d.as_ptr().add(off));
                    V::blend_bits(alive2, g1.add(p_new), old).store(d.as_mut_ptr().add(off));
                }
                let g_new = c_new.mul(r2).sub(b);
                sv = V::blend_bits(alive2, s_new, sv);
                cv = V::blend_bits(alive2, c_new, cv);
                gv = V::blend_bits(alive2, g_new, gv);
                pv = V::blend_bits(alive2, p_new, pv);
                rv = V::blend_bits(alive2, r2, rv);
            }

            // Per-lane tail, mirroring the scalar `if r == 0 && m > l`
            // early-out (fixed lanes carry r = 0 by construction).
            pv.store(spill.as_mut_ptr());
            gv.store(init.as_mut_ptr());
            let mut r_s = [0.0f64; LANE_CAP];
            rv.store(r_s.as_mut_ptr());
            for lane in 0..w {
                if !active[lane] {
                    continue;
                }
                let r_l = if fixed[lane] { 0.0 } else { r_s[lane] };
                if r_l == 0.0 && m_arr[lane] > l {
                    continue;
                }
                let at = |i: usize| i * lanes + base + lane;
                d[at(l)] -= spill[lane];
                e[at(l)] = init[lane];
                e[at(m_arr[lane])] = 0.0;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Target-feature wrappers and dispatch
// ---------------------------------------------------------------------------

// The generic kernels are `#[inline(always)]` all the way down to the
// intrinsics, so monomorphising them inside a `#[target_feature]` wrapper
// compiles the whole phase with that ISA enabled — the supported pattern
// for feature-gated codegen without a global `-C target-cpu`.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tred2_avx2(z: &mut [f64], n: usize, lanes: usize, base: usize, e: &mut [f64]) {
    tred2_block::<x86::Avx2Vec>(z, n, lanes, base, e)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tqli_avx2(
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
    base: usize,
) -> Result<()> {
    tqli_block::<x86::Avx2Vec>(d, e, n, lanes, base)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tred2_avx512(z: &mut [f64], n: usize, lanes: usize, base: usize, e: &mut [f64]) {
    tred2_block::<x86::Avx512Vec>(z, n, lanes, base, e)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tqli_avx512(
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
    base: usize,
) -> Result<()> {
    tqli_block::<x86::Avx512Vec>(d, e, n, lanes, base)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn tred2_neon(z: &mut [f64], n: usize, lanes: usize, base: usize, e: &mut [f64]) {
    tred2_block::<arm::NeonVec>(z, n, lanes, base, e)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn tqli_neon(
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
    base: usize,
) -> Result<()> {
    tqli_block::<arm::NeonVec>(d, e, n, lanes, base)
}

/// Runs the explicit-SIMD Householder phase over all `lanes` on `path`:
/// full `lane_width` blocks through the ISA wrapper, tail lanes one at a
/// time through the width-1 instantiation of the same generic kernel.
/// Must only be called with a path that [`SimdPath::is_available`] — the
/// resolver guarantees this; `Scalar` routes to the width-1 kernel.
pub(crate) fn dispatch_tred2(path: SimdPath, z: &mut [f64], n: usize, lanes: usize, e: &mut [f64]) {
    debug_assert!(path.is_available());
    let width = path.lane_width();
    let mut base = 0;
    while base < lanes {
        if width > 1 && base + width <= lanes {
            match path {
                #[cfg(target_arch = "x86_64")]
                SimdPath::Avx2 => unsafe { tred2_avx2(z, n, lanes, base, e) },
                #[cfg(target_arch = "x86_64")]
                SimdPath::Avx512 => unsafe { tred2_avx512(z, n, lanes, base, e) },
                #[cfg(target_arch = "aarch64")]
                SimdPath::Neon => unsafe { tred2_neon(z, n, lanes, base, e) },
                _ => unreachable!("dispatched SIMD path unavailable on this architecture"),
            }
            base += width;
        } else {
            unsafe { tred2_block::<ScalarLane>(z, n, lanes, base, e) };
            base += 1;
        }
    }
}

/// Runs the explicit-SIMD QL phase over all `lanes` on `path` (including
/// the initial `e` shift-down both scalar drivers perform). Same block /
/// tail structure and availability contract as [`dispatch_tred2`].
pub(crate) fn dispatch_tqli(
    path: SimdPath,
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
) -> Result<()> {
    debug_assert!(path.is_available());
    for i in 1..n {
        for lane in 0..lanes {
            e[(i - 1) * lanes + lane] = e[i * lanes + lane];
        }
    }
    for lane in 0..lanes {
        e[(n - 1) * lanes + lane] = 0.0;
    }
    let width = path.lane_width();
    let mut base = 0;
    while base < lanes {
        if width > 1 && base + width <= lanes {
            match path {
                #[cfg(target_arch = "x86_64")]
                SimdPath::Avx2 => unsafe { tqli_avx2(d, e, n, lanes, base)? },
                #[cfg(target_arch = "x86_64")]
                SimdPath::Avx512 => unsafe { tqli_avx512(d, e, n, lanes, base)? },
                #[cfg(target_arch = "aarch64")]
                SimdPath::Neon => unsafe { tqli_neon(d, e, n, lanes, base)? },
                _ => unreachable!("dispatched SIMD path unavailable on this architecture"),
            }
            base += width;
        } else {
            unsafe { tqli_block::<ScalarLane>(d, e, n, lanes, base)? };
            base += 1;
        }
    }
    Ok(())
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
            assert!(path.batch_lanes() <= LANE_CAP);
            assert!(path.lane_width() <= path.batch_lanes());
            assert_eq!(path.batch_lanes() % path.lane_width(), 0);
        }
    }

    #[test]
    fn override_forces_each_available_path_and_rejects_missing_ones() {
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
}
