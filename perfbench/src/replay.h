/**
 * @file
 * Per-layer replay of a request's miss path. The benchmark cannot see
 * inside one engine call, so the traced run repeats the work an
 * engine miss does — format decomposition, Stage I -> III lowering,
 * dfg lowering, bytecode compile, verification, and on the native
 * tier C emission and `cc` — by calling each layer's public entry
 * point on the same inputs, timing every call and recording it as a
 * span of the request.
 */

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/prim_func.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

/** Layer totals of one replayed miss, in ms. */
struct MissReplay
{
    /** hybFromCsr inside the engine's resolve. */
    double decomposeMs = 0.0;
    /** bsrFromCsr the client runs before dispatch (outside resolve). */
    double clientDecomposeMs = 0.0;
    double lowerMs = 0.0;
    double dfgMs = 0.0;
    double bytecodeMs = 0.0;
    double verifyMs = 0.0;
    int64_t programInsns = 0;
    int verifyFailures = 0;
    std::vector<sparsetir::ir::PrimFunc> funcs;

    /** Replayed time that falls inside the engine's resolve. */
    double
    attributedMs() const
    {
        return decomposeMs + lowerMs + dfgMs + bytecodeMs + verifyMs;
    }
};

/** Native-tier cost of a replayed miss's kernels. */
struct NativeReplay
{
    double emitMs = 0.0;
    double ccMs = 0.0;
    int64_t sourceBytes = 0;
};

/** Replay the miss path of `variant` of `job`. */
MissReplay replayMiss(const Job &job, int variant, SpanLog *log,
                      int64_t request);

/**
 * Emit and compile every kernel of `miss` for the native tier, in the
 * cache directory SPARSETIR_NATIVE_CACHE_DIR names (the caller points
 * it at an empty directory, so each compile runs `cc`).
 */
NativeReplay replayNative(const MissReplay &miss, SpanLog *log,
                          int64_t request, const std::string &tag);

/** Time the engine's request fingerprint (structure hash) once. */
double replayFingerprint(const Job &job, int variant, SpanLog *log,
                         int64_t request);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H_
