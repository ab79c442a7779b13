/**
 * @file
 * Native (C -> .so) tier: out-of-process compilation, persistent
 * artifact cache, and the host-side executor.
 *
 * compileNativeBatch() builds the kernels of one artifact together.
 * It emits each kernel as C (c_emitter.h), hashes the source into a
 * `.so` path, and loads a matching persisted artifact when one exists
 * (warm start across process restarts). Every miss has its source
 * written to disk at once and the string dropped; its compiler then
 * runs as a child process (`/bin/sh -c`, in its own process group).
 * A batch runs at most as many children at once as the process has
 * CPUs, each until a fixed deadline, after which its process group is
 * killed and reaped. Once every child has exited, the built
 * artifacts are installed atomically by rename and loaded in emit
 * order, whatever order their compilers finished in.
 *
 * Locking is per `.so` path: an in-flight table holds the paths being
 * built in this process, taken only to claim or release a path, never
 * across a compiler run. Racing callers for one kernel cause exactly
 * one compile (the others wait for the owner and load its artifact);
 * callers for different kernels never wait on each other. A kernel
 * that does not build falls back with a reason (Fallback) and the
 * batch's other kernels still load.
 *
 * execute() binds Bindings/RunOptions onto the dlopen'd entry point
 * with the exact semantics of the bytecode VM — offset views, block
 * windows, lazy parameter binding, fault diagnostics.
 *
 * Environment knobs:
 *   SPARSETIR_NATIVE            enable the tier as the engine default
 *   SPARSETIR_NATIVE_CC         compiler command, a shell string
 *                               (default "cc")
 *   SPARSETIR_NATIVE_CACHE_DIR  artifact directory
 *                               (default /tmp/sparsetir-native-<uid>)
 */

#ifndef SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_
#define SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/prim_func.h"
#include "runtime/interpreter.h"
#include "runtime/native/abi.h"

namespace sparsetir {
namespace runtime {
namespace native {

/**
 * One loaded native kernel. The dlopen handle is refcounted through
 * `handle`; the entry pointer stays valid for the kernel's lifetime.
 */
struct NativeKernel
{
    std::string name;
    KernelEntryFn entry = nullptr;
    /** dlopen handle; dlclose on last release. */
    std::shared_ptr<void> handle;
    /** Buffer slot names: params first, then scratch (see emitter). */
    std::vector<std::string> slotNames;
    int numParamSlots = 0;
    /** Scalar params the kernel reads, in ctx->scalars order. */
    std::vector<std::string> scalarNames;
    bool hasWindow = false;
    /** Installed artifact path in the cache directory. */
    std::string soPath;
    /** Loaded from a persisted artifact; no compiler was invoked. */
    bool diskHit = false;
};

/** Why a kernel stays on the bytecode tier after a native build. */
enum class Fallback
{
    kNone,
    /** Outside the native subset: the emitter rejected the function. */
    kUnsupported,
    /** The compiler could not start or failed, or its artifact did
     *  not install. */
    kCcFailed,
    /** The compiler ran past its deadline, or the caller cancelled
     *  the batch, and was killed. */
    kTimeout,
};

/** "unsupported", "cc_failed" or "timeout" ("none" for kNone). */
const char *fallbackName(Fallback reason);

/** One kernel of a native batch and the key tag baked into it. */
struct NativeJob
{
    ir::PrimFunc func;
    std::string keyTag;
};

/** The outcome of one kernel of a native batch. */
struct NativeBuild
{
    /** Null when the kernel falls back. */
    std::shared_ptr<const NativeKernel> kernel;
    Fallback fallback = Fallback::kNone;
    /** Why it fell back: the emitter's or compiler's diagnostic. */
    std::string error;
    /** Emit, compiler run and load of this kernel (no queueing). */
    double ms = 0.0;
};

/**
 * Deadline of one compiler run in engine promotions. A kernel's `cc`
 * takes ~0.2 s on an x86-64 host; the bound only has to stop a hung
 * compiler, not a slow one.
 */
constexpr std::chrono::milliseconds kCcDeadline{120000};

/**
 * Build `jobs` as native kernels, one NativeBuild per job in order
 * (see file comment). Each compiler run is killed `deadline` after it
 * starts, and every running one as soon as `*cancel` turns true;
 * those kernels fall back with Fallback::kTimeout. No child process
 * outlives the call, on any path. Safe to call concurrently.
 */
std::vector<NativeBuild>
compileNativeBatch(const std::vector<NativeJob> &jobs,
                   std::chrono::milliseconds deadline,
                   const std::atomic<bool> *cancel = nullptr);

/**
 * Compile `func` to a native kernel: a batch of one under
 * kCcDeadline. Reuses a persisted artifact with a matching meta
 * string (source hash + key tag + ABI version). Throws UserError,
 * carrying the fallback's diagnostic, when the kernel falls back
 * (unsupported, cc failed, timed out) — callers treat that as "stay
 * on bytecode". Safe to call concurrently: racing callers for one
 * kernel wait on its path's claim and produce exactly one compile,
 * and callers for different kernels do not wait on each other.
 */
std::shared_ptr<const NativeKernel>
compileNative(const ir::PrimFunc &func, const std::string &key_tag);

/**
 * Execute a native kernel over bindings, honoring RunOptions block
 * windows and offset views. Fault codes surface as the bytecode VM's
 * diagnostics (InternalError / UserError).
 */
void execute(const NativeKernel &kernel, const Bindings &bindings,
             const RunOptions &options);

/** Artifact cache directory currently in effect. */
std::string nativeCacheDir();

/**
 * Process-wide count of C-compiler invocations that produced an
 * artifact (disk hits do not count). Tests assert warm starts and
 * promotion races leave this unchanged / bump it exactly once.
 */
uint64_t nativeCompileCount();

/** True when SPARSETIR_NATIVE asks for the native tier ("1"/"true"/
 *  any value other than "" or "0"). */
bool nativeEnabledByEnv();

} // namespace native
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_
