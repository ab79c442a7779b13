/**
 * @file
 * The benchmark's request streams. A Job is one served sparse
 * structure with a few input variants (new value/feature arrays over
 * the same structure); a request dispatches one variant of one job
 * through an engine entry point.
 *
 *  - serve_warm / serve_warm_native: a fixed set of jobs, compiled in
 *    setup, served round-robin (every request hits the compile cache).
 *  - structure_churn: every request is a fresh job whose structure
 *    the engine has never seen (every request misses and evicts).
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfg/op_graph.h"
#include "engine/engine.h"
#include "format/bsr.h"
#include "format/csr.h"
#include "format/relational.h"
#include "runtime/ndarray.h"

namespace perfbench {

namespace st = sparsetir;
using st::runtime::NDArray;

enum class Op : int {
    kSpmmCsr,
    kSpmmHyb,
    kSpmmHybBatch,
    kSpmmBsr,
    kSddmm,
    kRgcn,
    kAttention,
    kGraphSage,
};
constexpr int kNumOps = 8;

const char *opName(Op op);

/** Feature width of every request. */
constexpr int64_t kFeat = 16;
/** Feature matrices per spmm_hyb_batch call. */
constexpr int kBatch = 4;
/** Column partitions of every hyb dispatch. */
constexpr int kHybPartitions = 2;
/** Generator seed of the fixed structures: the warm workloads' served
 *  set and the churn workload's set-up priming stream. */
constexpr uint64_t kFixedStructureSeed = 20230325;

/** What one engine call reported (DispatchInfo/BatchDispatchInfo). */
struct CallInfo
{
    bool cacheHit = false;
    double resolveMs = 0.0;
    double bindMs = 0.0;
    double kernelMs = 0.0;
    /** Client-side format conversion inside the request (churn BSR). */
    double decomposeMs = 0.0;
};

/** One set of request inputs over a job's structure. */
struct Variant
{
    /** Sparse operand with this variant's values. */
    st::format::Csr csr;
    st::format::Bsr bsr;
    st::format::RelationalCsr rel;
    std::vector<NDArray> in;
    /** One output per request (several for a batched call). */
    std::vector<NDArray> out;
};

struct Job
{
    Op op = Op::kSpmmCsr;
    /** Attention / GraphSAGE: the shared sparsity pattern. */
    st::dfg::PatternRef pattern;
    /** Churn BSR: the request converts its CSR mask inside the call. */
    bool convertBsr = false;
    std::vector<Variant> vars;

    /** Requests one call of this job serves. */
    int
    requests() const
    {
        return op == Op::kSpmmHybBatch ? kBatch : 1;
    }
};

/** Warm job set: one job per op family; `seed` draws the values. */
std::vector<std::shared_ptr<Job>> makeWarmJobs(uint64_t seed,
                                               int variants);

/** The i-th request of the churn stream (a never-seen structure). */
std::unique_ptr<Job> makeChurnJob(uint64_t seed, int64_t index);

/** Zero a variant's outputs (client side, before the timed call). */
void resetOutputs(Variant &v);

/** Dispatch one variant; throws whatever the engine throws. */
CallInfo dispatch(st::engine::Engine &engine, Job &job, int variant);

/** Hash of each request's output of the variant's last dispatch. */
std::vector<uint64_t> outputHashes(const Variant &v);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
