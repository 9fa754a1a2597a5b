/* Compiled bilinear equirect sampler: horizontal wrap, vertical clamp.
 *
 * Plain C with no Python API; _resample.py loads it through ctypes.  The
 * arithmetic mirrors _resample_np.bilinear_wrap_sample expression for
 * expression (the same weights, the same left-to-right float64 sum and
 * floor(val + 0.5)), and setup.py builds it with -ffp-contract=off so no
 * FMA contraction changes a rounding: both backends give identical bytes.
 * Four steps are cheaper forms of the same result:
 * - the wrap divides only when x0 lies outside [0, w);
 * - the non-negative val + 0.5 is floored by the conversion's truncation;
 * - each source byte becomes a double through the read-only table
 *   byte_value, whose entry b is exactly (double)b;
 * - floor(sx) is the truncated value less one where truncation rounded
 *   up, which is exact wherever the int64 conversion is defined.
 *
 * Vector path.  On x86-64 with GCC or Clang, bilinear_wrap_sample checks
 * once, when the library loads, whether the CPU (and OS) supports
 * AVX-512 F, DQ, BW, VL and VBMI.  If so it samples 8 pixels per step in
 * sample_avx512, one pixel per 64-bit lane.  Each lane does the scalar
 * loop's IEEE double operations in the same order, each as its own
 * intrinsic: - 0.5, truncating convert and back, compare-and-subtract 1,
 * the same four weights, the left-to-right sum of four products, + 0.5
 * and a truncating convert.  GCC treats these intrinsics as plain vector
 * arithmetic, so -ffp-contract=off is what keeps it from fusing them
 * into FMAs.  Source bytes become doubles through the exact
 * int32-to-double conversion, so every byte equals the scalar
 * loop's.  Each tap is gathered as 32 bits starting one byte before it
 * (bytes o-1 to o+2), so the last byte read is the tap's blue channel
 * and no read passes the end of the source, even one that ends at a page
 * boundary.  A group of 8 goes to the scalar loop when any lane's x tap
 * lies outside [0, w) (it needs the modulo) or any tap sits at byte
 * offset 0 (nothing precedes it); so does the n % 8 tail.  The scalar
 * loop is also exported as bilinear_wrap_sample_portable, which is what
 * every other CPU runs.
 *
 * src is (h, w, 3) uint8, row-major; xs, ys hold n coordinates, each
 * finite and below 2^52 in magnitude; out receives (n, 3) uint8.  h and w
 * must be positive.
 */
#include <stdint.h>

#define B1(b) (double)(b)
#define B4(b) B1(b), B1((b) + 1), B1((b) + 2), B1((b) + 3)
#define B16(b) B4(b), B4((b) + 4), B4((b) + 8), B4((b) + 12)
#define B64(b) B16(b), B16((b) + 16), B16((b) + 32), B16((b) + 48)
static const double byte_value[256] = {B64(0), B64(64), B64(128), B64(192)};

void bilinear_wrap_sample_portable(const uint8_t *src, int64_t h, int64_t w,
                                   const double *xs, const double *ys, int64_t n,
                                   uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        double sx = xs[i] - 0.5, sy = ys[i] - 0.5;
        double x0 = (double)(int64_t)sx, y0 = (double)(int64_t)sy;
        x0 -= x0 > sx; /* floor: truncation rounded a negative value up */
        y0 -= y0 > sy;
        double fx = sx - x0, fy = sy - y0;
        int64_t ix0 = (int64_t)x0;
        if (ix0 < 0 || ix0 >= w) {
            ix0 %= w;
            if (ix0 < 0)
                ix0 += w;
        }
        int64_t ix1 = ix0 + 1 == w ? 0 : ix0 + 1;
        int64_t yi = (int64_t)y0;
        int64_t iy0 = yi < 0 ? 0 : yi > h - 1 ? h - 1 : yi;
        int64_t iy1 = yi + 1 < 0 ? 0 : yi + 1 > h - 1 ? h - 1 : yi + 1;
        double w00 = (1.0 - fx) * (1.0 - fy), w10 = fx * (1.0 - fy);
        double w01 = (1.0 - fx) * fy, w11 = fx * fy;
        const uint8_t *r0 = src + 3 * w * iy0, *r1 = src + 3 * w * iy1;
        for (int c = 0; c < 3; c++) {
            double val = w00 * byte_value[r0[3 * ix0 + c]] + w10 * byte_value[r0[3 * ix1 + c]]
                         + w01 * byte_value[r1[3 * ix0 + c]] + w11 * byte_value[r1[3 * ix1 + c]];
            out[3 * i + c] = (uint8_t)(val + 0.5); /* val >= 0: truncation is floor */
        }
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx512vbmi")))

/* Output byte 3p + c takes lane p of channel c: red and green from the
 * low and high halves of permutex2var's first table, blue from its
 * second (index 64 + k). */
static const uint8_t interleave_rgb[64] = {
    0, 32, 64, 4, 36, 68, 8, 40, 72, 12, 44, 76,
    16, 48, 80, 20, 52, 84, 24, 56, 88, 28, 60, 92,
};

/* Channel c (0 red, 1 green, 2 blue) of 8 taps gathered from byte o - 1,
 * as exact doubles. */
static inline AVX512 __m512d channel(__m256i taps, int c)
{
    __m256i byte = _mm256_and_si256(_mm256_srlv_epi32(taps, _mm256_set1_epi32(8 * (c + 1))),
                                    _mm256_set1_epi32(0xff));
    return _mm512_cvtepi32_pd(byte);
}

static AVX512 void sample_avx512(const uint8_t *src, int64_t h, int64_t w,
                                 const double *xs, const double *ys, int64_t n,
                                 uint8_t *out)
{
    const __m512d half = _mm512_set1_pd(0.5), one = _mm512_set1_pd(1.0);
    const __m512i zero = _mm512_setzero_si512(), ones = _mm512_set1_epi64(1);
    const __m512i wv = _mm512_set1_epi64(w), top = _mm512_set1_epi64(h - 1);
    const __m512i row = _mm512_set1_epi64(3 * w);
    const __m512i interleave = _mm512_loadu_si512(interleave_rgb);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512d sx = _mm512_sub_pd(_mm512_loadu_pd(xs + i), half);
        __m512d sy = _mm512_sub_pd(_mm512_loadu_pd(ys + i), half);
        __m512d x0 = _mm512_cvtepi64_pd(_mm512_cvttpd_epi64(sx));
        __m512d y0 = _mm512_cvtepi64_pd(_mm512_cvttpd_epi64(sy));
        x0 = _mm512_mask_sub_pd(x0, _mm512_cmp_pd_mask(x0, sx, _CMP_GT_OQ), x0, one);
        y0 = _mm512_mask_sub_pd(y0, _mm512_cmp_pd_mask(y0, sy, _CMP_GT_OQ), y0, one);
        __m512d fx = _mm512_sub_pd(sx, x0), fy = _mm512_sub_pd(sy, y0);
        __m512i ix0 = _mm512_cvttpd_epi64(x0), ix1 = _mm512_add_epi64(ix0, ones);
        ix1 = _mm512_mask_mov_epi64(ix1, _mm512_cmpeq_epi64_mask(ix1, wv), zero);
        __m512i yi = _mm512_cvttpd_epi64(y0);
        __m512i iy0 = _mm512_min_epi64(_mm512_max_epi64(yi, zero), top);
        __m512i iy1 = _mm512_min_epi64(_mm512_max_epi64(_mm512_add_epi64(yi, ones), zero), top);
        /* byte offsets less one: row start, plus 3 per column, minus 1 */
        __m512i r0 = _mm512_sub_epi64(_mm512_mullo_epi64(iy0, row), ones);
        __m512i r1 = _mm512_sub_epi64(_mm512_mullo_epi64(iy1, row), ones);
        __m512i c0 = _mm512_add_epi64(_mm512_slli_epi64(ix0, 1), ix0);
        __m512i c1 = _mm512_add_epi64(_mm512_slli_epi64(ix1, 1), ix1);
        __m512i o00 = _mm512_add_epi64(r0, c0), o10 = _mm512_add_epi64(r0, c1);
        __m512i o01 = _mm512_add_epi64(r1, c0), o11 = _mm512_add_epi64(r1, c1);
        /* a lane that needs the modulo, or a tap at byte 0 (offset -1) */
        __m512i any = _mm512_or_si512(_mm512_or_si512(o00, o10), _mm512_or_si512(o01, o11));
        if (_mm512_cmpge_epu64_mask(ix0, wv) | _mm512_movepi64_mask(any)) {
            bilinear_wrap_sample_portable(src, h, w, xs + i, ys + i, 8, out + 3 * i);
            continue;
        }
        __m256i t00 = _mm512_i64gather_epi32(o00, src, 1);
        __m256i t10 = _mm512_i64gather_epi32(o10, src, 1);
        __m256i t01 = _mm512_i64gather_epi32(o01, src, 1);
        __m256i t11 = _mm512_i64gather_epi32(o11, src, 1);
        __m512d gx = _mm512_sub_pd(one, fx), gy = _mm512_sub_pd(one, fy);
        __m512d w00 = _mm512_mul_pd(gx, gy), w10 = _mm512_mul_pd(fx, gy);
        __m512d w01 = _mm512_mul_pd(gx, fy), w11 = _mm512_mul_pd(fx, fy);
        __m256i rgb[3];
        for (int c = 0; c < 3; c++) {
            __m512d val = _mm512_mul_pd(w00, channel(t00, c));
            val = _mm512_add_pd(val, _mm512_mul_pd(w10, channel(t10, c)));
            val = _mm512_add_pd(val, _mm512_mul_pd(w01, channel(t01, c)));
            val = _mm512_add_pd(val, _mm512_mul_pd(w11, channel(t11, c)));
            rgb[c] = _mm512_cvttpd_epi32(_mm512_add_pd(val, half));
        }
        __m512i rg = _mm512_inserti64x4(_mm512_castsi256_si512(rgb[0]), rgb[1], 1);
        __m512i packed = _mm512_permutex2var_epi8(rg, interleave, _mm512_castsi256_si512(rgb[2]));
        _mm512_mask_storeu_epi8(out + 3 * i, (__mmask64)0xffffff, packed);
    }
    bilinear_wrap_sample_portable(src, h, w, xs + i, ys + i, n - i, out + 3 * i);
}

static int use_avx512;

__attribute__((constructor)) static void pick_path(void)
{
    __builtin_cpu_init();
    use_avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
                 && __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")
                 && __builtin_cpu_supports("avx512vbmi");
}
#else
static const int use_avx512 = 0;
#endif

/* Pixels per step of the path bilinear_wrap_sample takes: 8 for the
 * AVX-512 path, 1 for the scalar loop. */
int bilinear_wrap_sample_lanes(void)
{
    return use_avx512 ? 8 : 1;
}

void bilinear_wrap_sample(const uint8_t *src, int64_t h, int64_t w,
                          const double *xs, const double *ys, int64_t n,
                          uint8_t *out)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (use_avx512) {
        sample_avx512(src, h, w, xs, ys, n, out);
        return;
    }
#endif
    bilinear_wrap_sample_portable(src, h, w, xs, ys, n, out);
}
