//! The blocked, packed GEMM engine behind every dense product kernel.
//!
//! All of `matmul`, `t_matmul`, `matmul_t`, `t_matmul_acc`, `syrk`/`syrk_t` (and
//! through them `gram`, covariance/whitening, PCA and the CP-ALS solvers) funnel into
//! `gemm`, a single BLIS-style driver:
//!
//! * the reduction dimension is split into blocks of [`KC`] values;
//! * panels of `B` ([`KC`]`×NRV`) are **packed once per k-block** into a shared
//!   arena, and micro-panels of `A` ([`KC`]`×`[`MR`]) into per-band scratch, laid
//!   out exactly as the inner loop consumes them (one `MR`-lane and one `NRV`-lane
//!   row per reduction step);
//! * the `microkernel` computes an `MR×NRV` output tile with all `MR·NRV`
//!   accumulators live in registers, reading each packed value once. Its body
//!   indexes fixed-size arrays only (`&[f64; MR]` / `&[f64; NRV]` obtained via
//!   `chunks_exact`), so there are **no bounds checks inside the tile loop** and
//!   the `NRV`-wide lane arithmetic autovectorizes.
//!
//! `NRV` is the *instantiated* tile width: the driver is const-generic over it and
//! the dispatcher picks [`NR`]` = 8` for general shapes or the skinny
//! specialization `NR/2 = 4` when the whole output is at most `NR/2` columns wide
//! (the `t_matmul_proj`-shaped serving projections), so narrow projections stop
//! padding half the register file. The packed B-panel of one k-block is
//! `KC·NRV·8` bytes — 16 KiB for the `NR=8` tile and 8 KiB for the skinny one —
//! always L1-resident while each A micro-panel streams against it. The tile-width
//! choice **never changes results**: each output element's reduction order depends
//! only on `k`, not on which tile column the element lands in.
//!
//! Edge tiles are handled by zero-padding the packed panels to full `MR`/`NRV` width
//! and copying back only the valid lanes, so the hot loop never branches on tile
//! validity.
//!
//! ## Shared B packing
//!
//! The k-block loop sits *outside* the row-band parallelism: the driver walks the
//! reduction dimension in super-blocks of k-blocks sized to a fixed arena budget
//! (`B_ARENA_BUDGET`), packs every B panel of the super-block **once** (itself
//! fanned out over the worker threads), then lets all row bands consume the
//! read-only arena. Thread bands therefore no longer duplicate the O(k·n) packing
//! work — bit-identical by construction, since the packed bytes and every band's
//! consumption schedule (k-blocks ascending) are unchanged. [`shared_pack_hits`]
//! counts the panel reuses for observability.
//!
//! ## Skinny direct-A
//!
//! When the output is a single panel wide (`n ≤ NRV`), each packed A value is
//! read back exactly once — and for the `Aᵀ` operand of `t_matmul` the source
//! already *is* in microkernel order (`MR` contiguous lanes per reduction step,
//! stride = the row length). Packing would be a pure copy tax on a
//! bandwidth-bound shape, so `ASource::Strided` lets the band loop stream those
//! operands straight from the caller's buffer (edge tiles still go through the
//! packer). Same values in the same order — bit-identical to the packed path.
//!
//! ## Kernel modes and the determinism contract
//!
//! Every output element accumulates its reduction in **ascending index order**: the
//! k-blocks are visited in ascending order, each micro-tile accumulates ascending
//! within a block, and the per-element partial sums are added onto the output in
//! k-block order. That schedule depends only on the problem shape — never on the
//! thread count, which partitions output *rows* exclusively — so results are
//! bit-identical for every `threads >= 1` (the invariant `crates/parallel` documents
//! and `crates/linalg/tests/properties.rs` pins down). The packing source is
//! abstracted over closures, which is what lets the zero-copy
//! [`ColsView`](crate::ColsView) serving path reuse the exact same schedule — and
//! therefore produce the exact same bits — as a materialized matrix would.
//!
//! Two kernel modes share that schedule (see [`KernelMode`]):
//!
//! * **Strict** (default): multiply and add stay separate instructions, so SIMD and
//!   scalar builds produce the same bits on every host.
//! * **Fma** (opt-in via `TCCA_KERNEL_MODE=fma` or [`set_kernel_mode`]): the
//!   microkernel contracts each `a·b + acc` into a fused multiply-add
//!   (`vfmadd` under AVX2+FMA) — roughly twice the multiply throughput, but the
//!   single rounding per FMA **changes bits relative to strict mode**. FMA results
//!   are still deterministic *within the mode*: the contraction is applied
//!   uniformly at every reduction step, so FMA output is bit-identical across
//!   thread counts and runs — it just needs its **own** checksum baseline. CI
//!   diffs each mode against its own baseline, never across modes.
//!
//! The mode is process-wide and fixed at first use (a per-call switch would let two
//! replicas of one logical request disagree bit-wise mid-flight). Requesting FMA on
//! a host without AVX2+FMA silently resolves to strict — the fallback must never
//! masquerade as the FMA baseline.

use crate::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Micro-tile rows: output rows whose accumulators stay live in registers.
pub const MR: usize = 4;
/// Widest micro-tile column count: the autovectorized lane width of the inner loop
/// for general shapes. The dispatcher instantiates `NR/2`-wide tiles for outputs
/// that are at most `NR/2` columns wide.
pub const NR: usize = 8;
/// Reduction block depth: one packed `KC×NRV` B-panel (`KC·NRV·8` bytes — at
/// most 16 KiB for the widest tile) stays L1-resident while each A micro-panel
/// streams against it.
pub const KC: usize = 256;
/// Rows of `A` packed per block: `MC×KC` doubles (128 KiB) sit in L2 while the
/// packed micro-panels are re-read once per B panel.
pub const MC: usize = 64;

/// The skinny tile width the dispatcher picks when `n <= NR/2`.
const NR_SKINNY: usize = NR / 2;

/// Byte budget for the shared packed-B arena: k-blocks are grouped into
/// super-blocks whose packed panels fit this budget, so one pack fan-out and one
/// band fan-out cover many k-blocks without the arena outgrowing the cache
/// hierarchy (or, for tall operands, the heap).
const B_ARENA_BUDGET: usize = 4 << 20;

/// Process-wide floating-point contraction mode of the GEMM microkernel.
///
/// Fixed at first kernel use and never changed afterwards — see the module docs
/// for why FMA is opt-in and how its separate checksum baseline works. The
/// discriminants are stable (`Strict = 0`, `Fma = 1`) and surfaced as the
/// `kernel/mode` stats gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelMode {
    /// Separate multiply and add instructions: bit-identical across SIMD/scalar
    /// builds and every host. The default.
    Strict = 0,
    /// Fused multiply-add contraction (`avx2,fma`): ~2× multiply throughput,
    /// different bits than strict, deterministic within the mode.
    Fma = 1,
}

static MODE: OnceLock<KernelMode> = OnceLock::new();
static SHARED_PACK_HITS: AtomicU64 = AtomicU64::new(0);

/// Environment variable selecting the kernel mode (`strict` or `fma`), read once
/// per process at first kernel use. Takes precedence over [`set_kernel_mode`].
pub const ENV_KERNEL_MODE: &str = "TCCA_KERNEL_MODE";

fn mode_from_env() -> Option<KernelMode> {
    match std::env::var(ENV_KERNEL_MODE)
        .ok()?
        .trim()
        .to_ascii_lowercase()
        .as_str()
    {
        "fma" => Some(KernelMode::Fma),
        "strict" => Some(KernelMode::Strict),
        _ => None,
    }
}

/// Clamp a requested mode to what the host can actually run: FMA without
/// AVX2+FMA hardware resolves to strict rather than producing strict bits under
/// an FMA label.
fn clamp_to_host(mode: KernelMode) -> KernelMode {
    match mode {
        KernelMode::Strict => KernelMode::Strict,
        KernelMode::Fma => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return KernelMode::Fma;
            }
            KernelMode::Strict
        }
    }
}

/// The process-wide [`KernelMode`], resolving it on first call: the
/// [`ENV_KERNEL_MODE`] environment variable if set, else whatever
/// [`set_kernel_mode`] requested before first use, else [`KernelMode::Strict`].
pub fn kernel_mode() -> KernelMode {
    *MODE.get_or_init(|| clamp_to_host(mode_from_env().unwrap_or(KernelMode::Strict)))
}

/// Explicitly opt in to a kernel mode (the builder-API counterpart of
/// `TCCA_KERNEL_MODE`). Returns the mode the process actually ends up in, which
/// may differ from the request when the environment variable overrides it, the
/// mode was already fixed by an earlier kernel call, or the host lacks FMA.
pub fn set_kernel_mode(requested: KernelMode) -> KernelMode {
    *MODE.get_or_init(|| clamp_to_host(mode_from_env().unwrap_or(requested)))
}

/// Lifetime count of packed B-panels a row band consumed without having packed
/// them itself — the duplicated O(k·n) packing work the shared arena eliminated.
/// Surfaced as the `engine/shared_pack_hits` serving counter.
pub fn shared_pack_hits() -> u64 {
    SHARED_PACK_HITS.load(Ordering::Relaxed)
}

/// Packing callback: `pack(dst, first, valid, p0, kc)` fills `dst` (length
/// `kc * MR` for A sources, `kc * NRV` for B sources — B packers derive the lane
/// width from `dst.len() / kc` so one packer serves every tile instantiation)
/// with the operand values for lanes `first..first + valid` over reduction
/// indices `p0..p0 + kc`, laid out lane-fastest (`dst[step * LANES + lane]`).
/// Lanes `>= valid` must be zeroed.
pub(crate) type Pack<'a> = &'a (dyn Fn(&mut [f64], usize, usize, usize, usize) + Sync);

/// How the band loop obtains the left operand's micro-panels.
#[derive(Clone, Copy)]
pub(crate) enum ASource<'a> {
    /// Copy micro-panels through the packer — the general case.
    Packed(Pack<'a>),
    /// The operand is already lane-fastest in memory: lanes `first..first + MR`
    /// at reduction step `p` live at `data[p * stride + first..][..MR]` (the
    /// `Aᵀ` operand of `t_matmul`, where `stride` is the row length ≥ `m`).
    /// Single-panel outputs stream it directly and skip the pack copy; `pack`
    /// still serves edge tiles and the multi-panel shapes where packed reuse
    /// wins.
    Strided {
        /// The operand's backing storage in step-major, lane-fastest layout.
        data: &'a [f64],
        /// Elements between consecutive reduction steps.
        stride: usize,
        /// Fallback packer describing the same operand.
        pack: Pack<'a>,
    },
}

/// One reduction step of an `MR×NRV` tile: `acc[i][j] (+)= a[i] · b[j]`, where
/// `(+)` is a separate multiply-and-add `acc + a·b` in strict mode (`FMA = false`)
/// and the fused `a.mul_add(b, acc)` in FMA mode (one `vfmadd` inside the
/// `avx2,fma` band). Fixed-size array inputs keep the body free of
/// bounds checks; the `j` loop vectorizes over the element lanes.
#[inline(always)]
fn tile_step<const NRV: usize, const FMA: bool>(
    a: &[f64; MR],
    b: &[f64; NRV],
    acc: &mut [[f64; NRV]; MR],
) {
    for i in 0..MR {
        let ai = a[i];
        for j in 0..NRV {
            acc[i][j] = if FMA {
                ai.mul_add(b[j], acc[i][j])
            } else {
                acc[i][j] + ai * b[j]
            };
        }
    }
}

/// Compute one `MR×NRV` tile from packed panels: `kc` ascending reduction steps
/// of [`tile_step`]. `inline(always)` so the caller's target features (the AVX
/// bands below) apply to the body — that is what turns the `NRV` lanes into ymm
/// `vmulpd`/`vaddpd` (strict) or `vfmadd` (FMA) arithmetic.
#[inline(always)]
fn microkernel<const NRV: usize, const FMA: bool>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; NRV]; MR],
) {
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NRV)).take(kc) {
        let a: &[f64; MR] = a.try_into().expect("packed A lane width");
        let b: &[f64; NRV] = b.try_into().expect("packed B lane width");
        tile_step::<NRV, FMA>(a, b, acc);
    }
}

/// [`microkernel`] reading the A operand in place at `a[p * stride..][..MR]`
/// instead of from a packed micro-panel — the direct path for
/// `ASource::Strided` operands. Identical values in identical order, so the
/// bits match the packed variant exactly.
#[inline(always)]
fn microkernel_strided<const NRV: usize, const FMA: bool>(
    kc: usize,
    a: &[f64],
    stride: usize,
    bp: &[f64],
    acc: &mut [[f64; NRV]; MR],
) {
    for (p, b) in bp.chunks_exact(NRV).take(kc).enumerate() {
        let a: &[f64; MR] = a[p * stride..p * stride + MR]
            .try_into()
            .expect("strided A lane width");
        let b: &[f64; NRV] = b.try_into().expect("packed B lane width");
        tile_step::<NRV, FMA>(a, b, acc);
    }
}

/// Blocked GEMM driver: `out[m×n] += Aᵒᵖ[m×k] · Bᵒᵖ[k×n]`, with the operands
/// supplied as packing closures (see [`Pack`]) so normal, transposed and
/// multi-part zero-copy sources all share one engine.
///
/// With `upper_only` set, micro-tiles strictly below the main diagonal are
/// skipped — the symmetric rank-k callers mirror the upper triangle afterwards.
/// Rows are partitioned over `threads` in multiples of [`MR`]; the accumulation
/// schedule is independent of the partition (see module docs).
// The argument list mirrors the BLAS gemm surface (shape triple, output, threading,
// triangle restriction, two operand sources); a param struct would only rename it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    out: &mut Matrix,
    threads: usize,
    upper_only: bool,
    pack_a: Pack<'_>,
    pack_b: Pack<'_>,
) {
    gemm_a(
        m,
        n,
        k,
        out,
        threads,
        upper_only,
        ASource::Packed(pack_a),
        pack_b,
    );
}

/// [`gemm`] with an explicit [`ASource`], letting `t_matmul`-shaped callers hand
/// over the operand's in-place layout for the skinny direct path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_a(
    m: usize,
    n: usize,
    k: usize,
    out: &mut Matrix,
    threads: usize,
    upper_only: bool,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    debug_assert_eq!(out.shape(), (m, n));
    let fma = kernel_mode() == KernelMode::Fma;
    let out = out.as_mut_slice();
    gemm_slice_mode(m, n, k, out, threads, upper_only, fma, a, pack_b);
}

/// [`gemm_a`] over a raw output slice with the contraction mode passed
/// explicitly — the seam the unit tests use to exercise the FMA build regardless
/// of the process-wide mode. Dispatches to the tile instantiation matching the
/// output width.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_slice_mode(
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f64],
    threads: usize,
    upper_only: bool,
    fma: bool,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Skinny-tile dispatch: when the whole output fits in half the widest tile,
    // instantiate NR/2-wide tiles instead of padding. Never affects bits — each
    // element's reduction order is a function of k alone.
    if n <= NR_SKINNY {
        gemm_driver::<NR_SKINNY>(m, n, k, out, threads, upper_only, fma, a, pack_b);
    } else {
        gemm_driver::<NR>(m, n, k, out, threads, upper_only, fma, a, pack_b);
    }
}

/// One tile-width instantiation of the driver. The reduction loop is the
/// outermost: k-blocks are grouped into arena-budget super-blocks, each
/// super-block's B panels are packed once into the shared arena (fanned out over
/// the worker threads), then the row bands consume it in parallel, walking the
/// super-block's k-blocks in ascending order.
#[allow(clippy::too_many_arguments)]
fn gemm_driver<const NRV: usize>(
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f64],
    threads: usize,
    upper_only: bool,
    fma: bool,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    // Whole MR-blocks per thread band (a couple per thread for load balance); the
    // band boundary never splits a micro-tile, so each band is an independent
    // sub-problem of the same schedule.
    let mr_blocks = m.div_ceil(MR);
    let blocks_per_band = mr_blocks.div_ceil(threads.max(1) * 2).max(1);
    let band_rows = blocks_per_band * MR;
    let n_bands = m.div_ceil(band_rows);
    let n_panels = n.div_ceil(NRV);
    let kc_max = KC.min(k);
    let total_blocks = k.div_ceil(KC);

    // Packed A reuse only pays off when several panels re-read each micro-panel;
    // single-panel outputs stream a lane-fastest operand in place instead.
    let a = match a {
        ASource::Strided { pack, .. } if n_panels > 1 => ASource::Packed(pack),
        src => src,
    };

    // Arena geometry: every k-block slot is stride-allocated at full KC depth so
    // panel offsets are uniform; the last (shorter) block just leaves its tail
    // unread.
    let block_stride = n_panels * NRV * kc_max;
    let sb_blocks = (B_ARENA_BUDGET / (block_stride * std::mem::size_of::<f64>()).max(1))
        .clamp(1, total_blocks);
    let mut bp = vec![0.0; sb_blocks * block_stride];

    let mut b0 = 0;
    while b0 < total_blocks {
        let nb = sb_blocks.min(total_blocks - b0);
        let sb_p0 = b0 * KC;
        // Pack every B panel of this super-block exactly once, splitting the
        // panels over the same worker budget the bands get.
        let fill = &mut bp[..nb * block_stride];
        parallel::for_each_chunk_mut(fill, NRV * kc_max, threads, |c, panel| {
            let (bi, jp) = (c / n_panels, c % n_panels);
            let p0 = sb_p0 + bi * KC;
            let kc = KC.min(k - p0);
            let j0 = jp * NRV;
            pack_b(&mut panel[..NRV * kc], j0, NRV.min(n - j0), p0, kc);
        });
        if n_bands > 1 {
            // Every band beyond the first consumes panels it did not pack.
            SHARED_PACK_HITS.fetch_add((nb * n_panels * (n_bands - 1)) as u64, Ordering::Relaxed);
        }
        let arena: &[f64] = &bp[..nb * block_stride];
        parallel::for_each_chunk_mut(out, band_rows * n, threads, |band, chunk| {
            let mut ap = vec![0.0; MC * kc_max];
            for bi in 0..nb {
                let p0 = sb_p0 + bi * KC;
                let kc = KC.min(k - p0);
                band_kblock::<NRV>(
                    fma,
                    band * band_rows,
                    chunk,
                    n,
                    p0,
                    kc,
                    upper_only,
                    a,
                    &arena[bi * block_stride..(bi + 1) * block_stride],
                    &mut ap,
                );
            }
        });
        b0 += nb;
    }
}

/// One thread band's share of one k-block: rows `band_i0..band_i0 + c.len() / n`
/// against the shared packed B arena (`bp`, panel `jp` at offset
/// `jp * NRV * KC.min(k)`). Dispatches once to the widest SIMD build of the loop
/// the host supports; every strict build runs the identical accumulation schedule
/// (vector lanes are independent output elements), so the strict dispatch never
/// affects a single bit. The FMA build is only reachable when the process mode
/// resolved to [`KernelMode::Fma`] (which implies AVX2+FMA hardware).
#[allow(clippy::too_many_arguments)]
fn band_kblock<const NRV: usize>(
    fma: bool,
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        static HAS_AVX2: OnceLock<bool> = OnceLock::new();
        if fma {
            // SAFETY: `fma == true` only after `clamp_to_host` (or the unit tests)
            // verified AVX2+FMA at runtime.
            unsafe {
                band_kblock_fma::<NRV>(band_i0, c, n, p0, kc, upper_only, a, bp, ap);
            }
            return;
        }
        if *HAS_AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2")) {
            // SAFETY: AVX2 support was verified at runtime just above.
            unsafe {
                band_kblock_avx2::<NRV>(band_i0, c, n, p0, kc, upper_only, a, bp, ap);
            }
            return;
        }
    }
    let _ = fma; // non-x86 hosts always resolve to the strict scalar build
    band_kblock_impl::<NRV, false>(band_i0, c, n, p0, kc, upper_only, a, bp, ap);
}

/// The band loop recompiled with 256-bit vectors enabled: the `inline(always)`
/// body below (microkernels included) picks up the target feature, so the `NRV`
/// lanes become ymm arithmetic. No FMA contraction — mul and add stay separate —
/// so the results are bit-identical to the scalar build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn band_kblock_avx2<const NRV: usize>(
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    band_kblock_impl::<NRV, false>(band_i0, c, n, p0, kc, upper_only, a, bp, ap);
}

/// The band loop recompiled with AVX2 **and** FMA enabled, instantiating the
/// contracted microkernel: each `a·b + acc` becomes one `vfmadd`. Different bits
/// than strict mode, deterministic within the mode (see module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn band_kblock_fma<const NRV: usize>(
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    band_kblock_impl::<NRV, true>(band_i0, c, n, p0, kc, upper_only, a, bp, ap);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn band_kblock_impl<const NRV: usize, const FMA: bool>(
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    let band_m = c.len() / n;
    let n_panels = n.div_ceil(NRV);
    // Panels sit at a fixed kc_max stride in the arena slot even when this
    // (trailing) k-block is shorter; only the first NRV*kc values of each are
    // live.
    let panel_stride = bp.len() / n_panels;
    let mut i0 = 0;
    while i0 < band_m {
        let mc = MC.min(band_m - i0);
        let a_blocks = mc.div_ceil(MR);
        match a {
            ASource::Packed(pack_a) => {
                for ib in 0..a_blocks {
                    let i = i0 + ib * MR;
                    pack_a(
                        &mut ap[ib * MR * kc..(ib + 1) * MR * kc],
                        band_i0 + i,
                        MR.min(mc - ib * MR),
                        p0,
                        kc,
                    );
                }
            }
            ASource::Strided { pack, .. } => {
                // Full tiles stream straight from the source; only a trailing
                // edge tile (fewer than MR valid lanes) needs the zero-padded
                // packed form.
                let last = a_blocks - 1;
                let mv = mc - last * MR;
                if mv < MR {
                    pack(
                        &mut ap[last * MR * kc..(last + 1) * MR * kc],
                        band_i0 + i0 + last * MR,
                        mv,
                        p0,
                        kc,
                    );
                }
            }
        }
        for jp in 0..n_panels {
            let j0 = jp * NRV;
            let nv = NRV.min(n - j0);
            let bp_panel = &bp[jp * panel_stride..jp * panel_stride + NRV * kc];
            for ib in 0..a_blocks {
                let row0 = i0 + ib * MR;
                // Tiles whose every column lies strictly below the diagonal
                // contribute nothing to the upper triangle; the caller's mirror
                // pass fills those entries.
                if upper_only && j0 + nv <= band_i0 + row0 {
                    continue;
                }
                let mv = MR.min(mc - ib * MR);
                let mut acc = [[0.0; NRV]; MR];
                match a {
                    ASource::Strided { data, stride, .. } if mv == MR => {
                        let first = band_i0 + row0;
                        microkernel_strided::<NRV, FMA>(
                            kc,
                            &data[p0 * stride + first..],
                            stride,
                            bp_panel,
                            &mut acc,
                        );
                    }
                    _ => microkernel::<NRV, FMA>(
                        kc,
                        &ap[ib * MR * kc..(ib + 1) * MR * kc],
                        bp_panel,
                        &mut acc,
                    ),
                }
                for (ii, acc_row) in acc.iter().enumerate().take(mv) {
                    let base = (row0 + ii) * n + j0;
                    let row = &mut c[base..base + nv];
                    for (o, v) in row.iter_mut().zip(acc_row[..nv].iter()) {
                        *o += *v;
                    }
                }
            }
        }
        i0 += mc;
    }
}

/// Pack lanes of `A` itself (`lane i`, `step p` → `a[i][p]`): the `C = A·B` and
/// `C = A·Bᵀ` left operand.
pub(crate) fn pack_rows(a: &Matrix) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, i0, valid, p0, kc| {
        if valid < MR {
            dst.fill(0.0);
        }
        for ii in 0..valid {
            let row = &a.row(i0 + ii)[p0..p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                dst[p * MR + ii] = v;
            }
        }
    }
}

/// Pack lanes of `Aᵀ` (`lane i`, `step p` → `a[p][i]`): the `C = Aᵀ·B` left
/// operand. Reads stream along the rows of `a`.
pub(crate) fn pack_cols(a: &Matrix) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, i0, valid, p0, kc| {
        if valid < MR {
            dst.fill(0.0);
        }
        for p in 0..kc {
            let seg = &a.row(p0 + p)[i0..i0 + valid];
            let lane = &mut dst[p * MR..p * MR + valid];
            lane.copy_from_slice(seg);
        }
    }
}

/// Pack row panels of `B` (`step p`, `lane j` → `b[p][j]`): the `C = A·B` and
/// `C = Aᵀ·B` right operand. Copies are contiguous row segments. The lane width
/// comes from the destination slice, so the same packer serves the wide and
/// skinny tile instantiations.
pub(crate) fn pack_panel_rows(
    b: &Matrix,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, j0, valid, p0, kc| {
        let w = dst.len() / kc;
        if valid < w {
            dst.fill(0.0);
        }
        for p in 0..kc {
            let seg = &b.row(p0 + p)[j0..j0 + valid];
            dst[p * w..p * w + valid].copy_from_slice(seg);
        }
    }
}

/// Pack panels of `Bᵀ` (`step p`, `lane j` → `b[j][p]`): the `C = A·Bᵀ` right
/// operand. Reads stream along the rows of `b`; lane width from the destination.
pub(crate) fn pack_panel_cols(
    b: &Matrix,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, j0, valid, p0, kc| {
        let w = dst.len() / kc;
        if valid < w {
            dst.fill(0.0);
        }
        for jj in 0..valid {
            let row = &b.row(j0 + jj)[p0..p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                dst[p * w + jj] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| ((i as f64) * 0.37 + seed).sin())
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.row(i)[p] * b.row(p)[j];
                }
                out.row_mut(i)[j] = acc;
            }
        }
        out
    }

    fn run_mode(a: &Matrix, b: &Matrix, threads: usize, fma: bool) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        gemm_slice_mode(
            m,
            n,
            k,
            out.as_mut_slice(),
            threads,
            false,
            fma,
            ASource::Packed(&pack_rows(a)),
            &pack_panel_rows(b),
        );
        out
    }

    /// `aᵀ·b` through the strided direct-A path (the `t_matmul` layout).
    fn run_t_strided(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
        let (m, k, n) = (a.cols(), a.rows(), b.cols());
        let mut out = Matrix::zeros(m, n);
        gemm_slice_mode(
            m,
            n,
            k,
            out.as_mut_slice(),
            threads,
            false,
            false,
            ASource::Strided {
                data: a.as_slice(),
                stride: a.cols(),
                pack: &pack_cols(a),
            },
            &pack_panel_rows(b),
        );
        out
    }

    #[test]
    fn fma_mode_matches_strict_within_tolerance_and_is_thread_deterministic() {
        #[cfg(target_arch = "x86_64")]
        {
            if !(std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            {
                return;
            }
            let a = sample(2 * MC + 3, KC + 5, 0.3);
            let b = sample(KC + 5, 2 * NR + 1, 0.7);
            let strict = run_mode(&a, &b, 1, false);
            let fma1 = run_mode(&a, &b, 1, true);
            let fma4 = run_mode(&a, &b, 4, true);
            // FMA is deterministic within the mode: thread counts never change bits.
            assert_eq!(fma1, fma4);
            // And it computes the same product up to the contraction's rounding.
            for (x, y) in strict.as_slice().iter().zip(fma1.as_slice()) {
                let scale = (KC + 5) as f64;
                assert!(
                    (x - y).abs() <= 1e-12 * scale * x.abs().max(1.0),
                    "strict {x} vs fma {y}"
                );
            }
        }
    }

    #[test]
    fn skinny_tile_dispatch_is_bit_identical_to_wide() {
        // n <= NR/2 takes the skinny driver; padding the same operand out to a
        // wide shape and slicing back must give the exact same bits, because the
        // per-element reduction order is independent of the tile width.
        let a = sample(3 * MR + 2, KC + 3, 0.1);
        let b_narrow = sample(KC + 3, NR_SKINNY, 0.2);
        let narrow = run_mode(&a, &b_narrow, 2, false);
        // Same columns through the wide tile: append extra columns, then compare
        // only the original ones.
        let mut wide_data = Vec::new();
        for p in 0..b_narrow.rows() {
            wide_data.extend_from_slice(b_narrow.row(p));
            for j in 0..NR {
                wide_data.push(((p * NR + j) as f64).cos());
            }
        }
        let b_wide = Matrix::from_vec(b_narrow.rows(), NR_SKINNY + NR, wide_data).unwrap();
        let wide = run_mode(&a, &b_wide, 2, false);
        for i in 0..narrow.rows() {
            assert_eq!(
                narrow.row(i),
                &wide.row(i)[..NR_SKINNY],
                "row {i} differs between tile widths"
            );
        }
        // Within a single k-block the blocked schedule degenerates to the naive
        // ascending loop, so strict mode matches the triple loop bit for bit.
        let a1 = sample(3 * MR + 2, KC - 5, 0.1);
        let b1 = sample(KC - 5, NR_SKINNY, 0.2);
        assert_eq!(run_mode(&a1, &b1, 2, false), naive(&a1, &b1));
    }

    #[test]
    fn strided_direct_a_is_bit_identical_to_packed() {
        // Shapes straddling the MR/skinny edges, plus a k spanning two k-blocks.
        for (k, m, n) in [
            (64, 4 * MR, NR_SKINNY),
            (KC + 9, 3 * MR + 2, NR_SKINNY - 1),
            (33, 2 * MC + 1, 2),
        ] {
            let a = sample(k, m, 0.4); // k×m: the t_matmul left operand
            let b = sample(k, n, 0.8);
            let direct = run_t_strided(&a, &b, 2);
            // Packed reference through the same packer the fallback uses.
            let mut packed = Matrix::zeros(m, n);
            gemm_slice_mode(
                m,
                n,
                k,
                packed.as_mut_slice(),
                2,
                false,
                false,
                ASource::Packed(&pack_cols(&a)),
                &pack_panel_rows(&b),
            );
            assert_eq!(direct, packed, "direct vs packed at {k}x{m}x{n}");
        }
    }

    #[test]
    fn shared_pack_hits_advance_with_multiple_bands() {
        let before = shared_pack_hits();
        let a = sample(8 * MR * 4, 64, 0.5);
        let b = sample(64, 2 * NR, 0.9);
        let multi = run_mode(&a, &b, 4, false);
        assert!(
            shared_pack_hits() > before,
            "multi-band run must reuse shared panels"
        );
        // And sharing the arena never changes bits vs a single band.
        assert_eq!(multi, run_mode(&a, &b, 1, false));
    }

    #[test]
    fn kernel_mode_resolves_once() {
        let first = kernel_mode();
        // Whatever the process resolved to, later requests cannot change it.
        assert_eq!(set_kernel_mode(KernelMode::Fma), first);
        assert_eq!(kernel_mode(), first);
    }
}
