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

void bilinear_wrap_sample(const uint8_t *src, int64_t h, int64_t w,
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
