#include "reference.h"

#include <algorithm>
#include <vector>

namespace perfbench {

namespace {

/** acc + x * y with the tiers' rounding: double math, float store. */
inline float
madd(float acc, float x, float y)
{
    return static_cast<float>(static_cast<double>(acc) +
                              static_cast<double>(x) *
                                  static_cast<double>(y));
}

/** SDDMM reduction lanes: the schedule's group size (32) clamped to
 *  feat and rounded down to a power of two, as the lowering does. */
int64_t
sddmmLanes(int64_t feat)
{
    int64_t want = feat < 32 ? feat : 32;
    int64_t lanes = 1;
    while (lanes * 2 <= want) {
        lanes *= 2;
    }
    return lanes;
}

} // namespace

void
refSpmmCsr(const sparsetir::format::Csr &a, int64_t feat, const float *b,
           float *c)
{
    std::vector<float> acc(static_cast<size_t>(feat));
    for (int64_t i = 0; i < a.rows; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (int32_t p = a.indptr[i]; p < a.indptr[i + 1]; ++p) {
            float v = a.values[p];
            const float *row = b + static_cast<int64_t>(a.indices[p]) * feat;
            for (int64_t f = 0; f < feat; ++f) {
                acc[f] = madd(acc[f], v, row[f]);
            }
        }
        std::copy(acc.begin(), acc.end(), c + i * feat);
    }
}

void
refSpmmHyb(const sparsetir::format::Hyb &a, int64_t feat, const float *b,
           float *c)
{
    std::fill(c, c + a.rows * feat, 0.0f);
    std::vector<float> acc(static_cast<size_t>(feat));
    for (const auto &partition : a.buckets) {
        for (const sparsetir::format::Ell &ell : partition) {
            for (int64_t r = 0; r < ell.numRows(); ++r) {
                std::fill(acc.begin(), acc.end(), 0.0f);
                for (int32_t s = 0; s < ell.width; ++s) {
                    int64_t slot = r * ell.width + s;
                    float v = ell.values[slot];
                    const float *row =
                        b + static_cast<int64_t>(ell.colIndices[slot]) * feat;
                    for (int64_t f = 0; f < feat; ++f) {
                        acc[f] = madd(acc[f], v, row[f]);
                    }
                }
                float *out = c + static_cast<int64_t>(ell.rowIndices[r]) * feat;
                for (int64_t f = 0; f < feat; ++f) {
                    out[f] = static_cast<float>(static_cast<double>(out[f]) +
                                                static_cast<double>(acc[f]));
                }
            }
        }
    }
}

void
refSpmmBsr(const sparsetir::format::Bsr &a, int64_t feat, const float *b,
           float *c)
{
    const int64_t bs = a.blockSize;
    for (int64_t io = 0; io < a.blockRows; ++io) {
        if (a.indptr[io] == a.indptr[io + 1]) {
            continue;
        }
        std::fill(c + io * bs * feat, c + (io + 1) * bs * feat, 0.0f);
        for (int32_t blk = a.indptr[io]; blk < a.indptr[io + 1]; ++blk) {
            const float *block = a.values.data() + blk * bs * bs;
            const float *bcol =
                b + static_cast<int64_t>(a.indices[blk]) * bs * feat;
            for (int64_t ii = 0; ii < bs; ++ii) {
                float *out = c + (io * bs + ii) * feat;
                for (int64_t ji = 0; ji < bs; ++ji) {
                    float v = block[ii * bs + ji];
                    const float *row = bcol + ji * feat;
                    for (int64_t f = 0; f < feat; ++f) {
                        out[f] = madd(out[f], v, row[f]);
                    }
                }
            }
        }
    }
}

void
refSddmm(const sparsetir::format::Csr &a, int64_t feat, const float *x,
         const float *y, float *out)
{
    const int64_t lanes = sddmmLanes(feat);
    std::vector<float> rf(static_cast<size_t>(lanes));
    for (int64_t i = 0; i < a.rows; ++i) {
        const float *xrow = x + i * feat;
        for (int32_t p = a.indptr[i]; p < a.indptr[i + 1]; ++p) {
            double av = a.values[p];
            int64_t col = a.indices[p];
            for (int64_t lane = 0; lane < lanes; ++lane) {
                float acc = 0.0f;
                for (int64_t k = lane; k < feat; k += lanes) {
                    double term = av * static_cast<double>(xrow[k]);
                    term = term * static_cast<double>(y[k * a.cols + col]);
                    acc = static_cast<float>(static_cast<double>(acc) + term);
                }
                rf[lane] = acc;
            }
            float sum = 0.0f;
            for (int64_t lane = 0; lane < lanes; ++lane) {
                sum = static_cast<float>(static_cast<double>(sum) +
                                         static_cast<double>(rf[lane]));
            }
            out[p] = sum;
        }
    }
}

} // namespace perfbench
