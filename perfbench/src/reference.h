/**
 * @file
 * Reference loops: one plain C++ loop per op family with the bitwise
 * semantics of every execution tier — products and sums evaluated in
 * double, rounded to float at every store, in the lowered kernels'
 * per-element addition order. Each is checked bitwise against the
 * interpreter oracle before its time is used as an efficiency base.
 *
 * spmm_hyb runs over the same hyb(c, k) decomposition the engine
 * caches (padding slots included, buckets in kernel-list order),
 * because the bucket partial sums fix the addition order; rgcn and
 * the fused graph pipelines have no reference loop here.
 */

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>

#include "format/bsr.h"
#include "format/csr.h"
#include "format/hyb.h"

namespace perfbench {

/** c = a @ b; c is rows x feat, fully overwritten. */
void refSpmmCsr(const sparsetir::format::Csr &a, int64_t feat,
                const float *b, float *c);

/** c = a @ b summed bucket by bucket; c is fully overwritten. */
void refSpmmHyb(const sparsetir::format::Hyb &a, int64_t feat,
                const float *b, float *c);

/**
 * c = a @ b over the block grid. Like the compiled kernel, block rows
 * without blocks are left untouched (callers pass a zeroed c).
 */
void refSpmmBsr(const sparsetir::format::Bsr &a, int64_t feat,
                const float *b, float *c);

/** out[p] = a[p] * dot(x[row(p)], y[:, col(p)]) with the kernel's
 *  rfactor lanes; out has nnz entries. */
void refSddmm(const sparsetir::format::Csr &a, int64_t feat,
              const float *x, const float *y, float *out);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H_
