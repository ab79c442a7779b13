/**
 * @file
 * Stage III TIR -> C translation.
 *
 * The emitter walks the same IR subset the bytecode compiler consumes
 * (flat loops, guards, buffer loads/stores over one flat index or a
 * row-major dense linearization, floordiv/mod index math, the
 * blockIdx.x grid-window contract) and produces one self-contained C
 * translation unit per kernel. The emitted code reproduces the
 * interpreter's semantics exactly — int64/double arithmetic, the
 * float-promotion rules of isFloatExpr, short-circuit And/Or,
 * one-armed Select, value-before-indices store order, storage-width
 * rounding on float stores — so a native kernel's results are bitwise
 * identical to the interpreter and the bytecode VM.
 *
 * Every element access is bounds-checked. Eligible slots (bound,
 * unrebased parameters whose runtime kind matches their static
 * float/double/int32/int64 kind, and constant-extent scratch of at
 * most 4 KiB, which lives in a zeroed C stack array) are accessed
 * through typed pointers hoisted to kernel entry with one inline
 * compare per access; all others go through the checked st_ld_* /
 * st_st_* helpers, so fault diagnostics match the VM's on both paths.
 * A binary search (upper_bound / lower_bound) over an eligible int32
 * or int64 slot checks `0 <= lo && hi <= numel` once and probes the
 * typed pointer inline; any other search calls the checked st_search.
 *
 * Sunk lane regions. A constant-extent loop L (at least 4 lanes),
 * optionally under a lane-prefix guard `a + l < b`, is emitted twice
 * when it has one of three shapes:
 *  - private: per lane, a one-element float scratch S, a reduction R
 *    that writes only S with bounds independent of L's variable, and
 *    one store writing S back (SpMM CSR, hyb, RGMS, GraphSAGE);
 *  - rfactor: L reduces over R into S[l] of a lane-indexed scratch
 *    (the lane guard inside R may depend on R's variables), and a
 *    sibling serial loop folds S into one output element B[q] with q
 *    lane-invariant (SDDMM);
 *  - in place: per lane, a nest of constant-extent loops around one
 *    update `C[f] = C[f] + ...` whose offsets are affine in the lane
 *    and the nest variables, with an optional Block init of C[f]
 *    under a lane-invariant condition (BSR).
 * The fast version runs R (or the nest) outermost and each of its
 * stores as a branch-free loop over the active lanes. Private and
 * rfactor keep one accumulator per lane in a C stack array, check
 * lane-invariant loads once per R iteration and each lane-dependent
 * access (affine in the lane) by one compare of its first- and
 * last-lane offsets, all ahead of the lane loop; rfactor folds the
 * lanes in a local rounded to B's type at every step and stores B[q]
 * once. In place checks, before its first write, the region-invariant
 * loads and every access's whole range over the lanes and the nest
 * (from its offset at zero and its per-variable coefficients,
 * st_box), and that no two lanes update one element of C (a
 * mixed-radix test on C's coefficients, st_radix), so each element is
 * still updated in its original order. Every failed check, and a
 * written array sharing memory with one the region reads, jumps to
 * the second copy: the region's unchanged per-element-checked
 * emission, which re-runs the region for that outer iteration. The
 * fast version writes nothing but its private array before its
 * checks have passed, so faults keep the VM's exact (slot, offset)
 * and partial output, and every output element is computed in the
 * same order, bitwise. Regions are not sunk inside a checked copy.
 *
 * Functions outside the subset (Stage I sparse iterations, vector IR,
 * extern calls) raise UserError, exactly like bytecode::compile;
 * callers treat that as "stay on the bytecode tier".
 */

#ifndef SPARSETIR_RUNTIME_NATIVE_C_EMITTER_H_
#define SPARSETIR_RUNTIME_NATIVE_C_EMITTER_H_

#include <string>
#include <vector>

#include "ir/prim_func.h"

namespace sparsetir {
namespace runtime {
namespace native {

/** One emitted kernel: the C source plus its binding metadata. */
struct EmitResult
{
    /** Complete C translation unit (preamble + entry function). */
    std::string source;
    /** Kernel (function) name, for diagnostics. */
    std::string name;
    /**
     * Binding names of every buffer slot: parameter slots first
     * (bound by name from Bindings::arrays), then scratch slots the
     * kernel allocates itself.
     */
    std::vector<std::string> slotNames;
    int numParamSlots = 0;
    /**
     * Scalar params the emitted code reads, in signature order; the
     * host packs ctx->scalars in exactly this order. Unused scalars
     * are dropped — lazy-binding parity with the other backends.
     */
    std::vector<std::string> scalarNames;
    /** Kernel has an outermost blockIdx.x-bound loop (windowable). */
    bool hasWindow = false;
};

/**
 * Emit `func` as a C translation unit. `key_tag` identifies the
 * artifact (cache key + kernel index + artifact/ABI versions) and is
 * baked into the exported meta string, so a persisted .so can be
 * validated against the key it was built for. Throws UserError when
 * the function is outside the native-compilable subset (the
 * stage3ExecDiagnostic gate plus the emitter's own kind checks).
 */
EmitResult emitC(const ir::PrimFunc &func, const std::string &key_tag);

} // namespace native
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_NATIVE_C_EMITTER_H_
