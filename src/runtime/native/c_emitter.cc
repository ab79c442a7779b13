#include "runtime/native/c_emitter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/expr.h"
#include "ir/stmt.h"
#include "ir/structural_equal.h"
#include "runtime/bytecode/program.h"
#include "runtime/interpreter.h"
#include "runtime/native/abi.h"
#include "support/logging.h"
#include "transform/lower_sparse_buffer.h"

namespace sparsetir {
namespace runtime {
namespace native {

using namespace ir;

namespace {

/**
 * Fixed preamble of every emitted translation unit: the ABI structs
 * (textually identical to abi.h — keep in sync), fault codes, the
 * typed fast-path access macros, and the slow-path runtime helpers
 * that mirror the bytecode VM's slot resolution, typed load/store,
 * binary search and scratch set-up. Helpers return a fault code
 * (0 = ok) and record (slot, offset) in the context; the host turns
 * codes back into the VM's diagnostics.
 */
const char kPreamble[] = R"(#include <stdint.h>

/* The few libc/libm entry points the kernels use, without their headers
 * (parsing math.h, stdlib.h and string.h dominated cc time of small
 * kernels). The builtins lower to the same library calls. */
#define exp __builtin_exp
#define log __builtin_log
#define sqrt __builtin_sqrt
#define fabs __builtin_fabs
#define memcpy __builtin_memcpy
void *calloc(__SIZE_TYPE__ count, __SIZE_TYPE__ size);
void free(void *ptr);

typedef struct {
    unsigned char *base;
    int64_t numel;
    int32_t kind;
    int32_t ebytes;
    int32_t bound;
    int32_t has_view;
    const int64_t *spans;
    const int64_t *bases;
    int64_t num_spans;
} StSlot;

typedef struct {
    StSlot *slots;
    const int64_t *scalars;
    int64_t block_begin;
    int64_t block_end;
    int32_t fault_slot;
    int64_t fault_offset;
} StCtx;

#define ST_OK 0
#define ST_FAULT_ACCESS 1
#define ST_FAULT_WINDOW 2
#define ST_FAULT_DIV0 3
#define ST_FAULT_CLASS 4
#define ST_FAULT_SEARCH 5
#define ST_FAULT_NEGALLOC 6
#define ST_FAULT_OOM 7

#define ST_KF32 0
#define ST_KF64 1
#define ST_KI8 2
#define ST_KI16 3
#define ST_KI32 4
#define ST_KI64 5
#define ST_KBOOL 6

#define ST_CALL(e) do { int32_t st_rc_ = (e); if (st_rc_) return st_rc_; } while (0)

/* Typed access to slot k via p<k> and n<k>, hoisted to entry. n<k> is
 * 0 for an ineligible slot, so the one compare also sends that case,
 * like an out-of-range offset, to the checked helper. */
#define ST_LD(k, off, dst, slow) do { if ((uint64_t)(off) < (uint64_t)n##k) { dst = p##k[off]; } else { ST_CALL(slow(ctx, k, off, &dst)); } } while (0)
#define ST_ST(k, off, val, slow) do { if ((uint64_t)(off) < (uint64_t)n##k) { p##k[off] = val; } else { ST_CALL(slow(ctx, k, off, val)); } } while (0)

/* Sunk lane regions: a failed check jumps to the region's checked
 * version instead of calling a helper. */
#define ST_LDG(k, off, dst, label) do { if ((uint64_t)(off) >= (uint64_t)n##k) { goto label; } dst = p##k[off]; } while (0)
#define ST_SPAN(k, lo, hi, label) do { if ((uint64_t)(lo) >= (uint64_t)n##k || (uint64_t)(hi) >= (uint64_t)n##k) { goto label; } } while (0)

/* Binary search over p<k>[lo, hi); the caller checked 0 <= lo and
 * hi <= n<k>, so every probe is in range. `cmp` is <= (upper bound)
 * or < (lower bound). */
#define ST_BSEARCH(k, lo, hi, val, cmp, out) do { int64_t st_lo_ = (lo), st_hi_ = (hi); while (st_lo_ < st_hi_) { int64_t st_mid_ = st_lo_ + (st_hi_ - st_lo_) / 2; if (p##k[st_mid_] cmp (val)) { st_lo_ = st_mid_ + 1; } else { st_hi_ = st_mid_; } } out = st_lo_; } while (0)

static int32_t st_fault(StCtx *ctx, int32_t code, int32_t slot, int64_t offset) {
    ctx->fault_slot = slot;
    ctx->fault_offset = offset;
    return code;
}

/* numel if the slot is bound, unrebased, of `kind` and aligned; else 0. */
static int64_t st_fast(const StCtx *ctx, int32_t slot, int32_t kind, uint64_t align) {
    const StSlot *s = &ctx->slots[slot];
    int eligible = s->bound && !s->has_view && s->kind == kind &&
                   (uintptr_t)s->base % align == 0;
    return eligible ? s->numel : 0;
}

/* 1 when slots a and b share no memory. */
static int32_t st_apart(const StCtx *ctx, int32_t a, int32_t b) {
    const StSlot *x = &ctx->slots[a];
    const StSlot *y = &ctx->slots[b];
    uintptr_t xb = (uintptr_t)x->base;
    uintptr_t yb = (uintptr_t)y->base;
    return xb + (uint64_t)x->numel * (uint64_t)x->ebytes <= yb ||
           yb + (uint64_t)y->numel * (uint64_t)y->ebytes <= xb;
}

/* Range [*lo, *hi] of the affine offset f0 + sum c[i] * x[i] over
 * 0 <= x[i] < e[i] (every e[i] >= 1); 0 when a bound overflows. */
static int32_t st_box(int64_t f0, const int64_t *c, const int64_t *e, int32_t n,
                      int64_t *lo, int64_t *hi) {
    int64_t a = f0;
    int64_t b = f0;
    for (int32_t i = 0; i < n; ++i) {
        int64_t d;
        if (__builtin_mul_overflow(c[i], e[i] - 1, &d) ||
            (d < 0 ? __builtin_add_overflow(a, d, &a)
                   : __builtin_add_overflow(b, d, &b))) {
            return 0;
        }
    }
    *lo = a;
    *hi = b;
    return 1;
}

/* 1 when no two values of x[0] share an image under the map
 * x -> sum c[i] * x[i] (0 <= x[i] < e[i], n <= 8): the terms that vary,
 * ordered by |c|, each exceed the span of the smaller ones (a
 * mixed-radix numbering). A passing st_box over the same c and e
 * bounds every product and the sum. */
static int32_t st_radix(const int64_t *c, const int64_t *e, int32_t n) {
    uint64_t mag[8];
    uint64_t top[8];
    int32_t k = 0;
    if (e[0] > 1 && c[0] == 0) { return 0; }
    for (int32_t i = 0; i < n; ++i) {
        if (c[i] == 0 || e[i] <= 1) { continue; }
        uint64_t m = c[i] < 0 ? -(uint64_t)c[i] : (uint64_t)c[i];
        int32_t j = k++;
        for (; j > 0 && mag[j - 1] > m; --j) {
            mag[j] = mag[j - 1];
            top[j] = top[j - 1];
        }
        mag[j] = m;
        top[j] = (uint64_t)(e[i] - 1);
    }
    uint64_t span = 0;
    for (int32_t i = 0; i < k; ++i) {
        if (mag[i] <= span) { return 0; }
        span += mag[i] * top[i];
    }
    return 1;
}

/* Floor division toward negative infinity; callers guard divisor != 0. */
static int64_t st_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) { --q; }
    return q;
}

/* Translate (OffsetView) + bounds-check an access; mirrors the VM's slotAt. */
static int32_t st_resolve(StCtx *ctx, int32_t slot, int64_t *off) {
    const StSlot *s = &ctx->slots[slot];
    int64_t o = *off;
    if (s->has_view) {
        int64_t packed = -1;
        if (s->num_spans == 1) {
            packed = (o >= s->spans[0] && o < s->spans[1]) ? o - s->spans[0] : -1;
        } else {
            int64_t lo = 0;
            int64_t hi = s->num_spans;
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (s->spans[2 * mid] <= o) { lo = mid + 1; } else { hi = mid; }
            }
            if (lo != 0 && o < s->spans[2 * (lo - 1) + 1]) {
                packed = s->bases[lo - 1] + (o - s->spans[2 * (lo - 1)]);
            }
        }
        if (packed < 0) { return st_fault(ctx, ST_FAULT_WINDOW, slot, o); }
        o = packed;
    }
    if ((uint64_t)o >= (uint64_t)s->numel) {
        return st_fault(ctx, ST_FAULT_ACCESS, slot, o);
    }
    *off = o;
    return ST_OK;
}

static int32_t st_ld_i(StCtx *ctx, int32_t slot, int64_t off, int64_t *out) {
    ST_CALL(st_resolve(ctx, slot, &off));
    const StSlot *s = &ctx->slots[slot];
    const unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    switch (s->kind) {
      case ST_KI32: { int32_t v; memcpy(&v, p, 4); *out = v; return ST_OK; }
      case ST_KI64: { int64_t v; memcpy(&v, p, 8); *out = v; return ST_OK; }
      case ST_KI16: { int16_t v; memcpy(&v, p, 2); *out = v; return ST_OK; }
      case ST_KI8: { int8_t v; memcpy(&v, p, 1); *out = v; return ST_OK; }
      case ST_KBOOL: *out = *p != 0; return ST_OK;
      default: return st_fault(ctx, ST_FAULT_CLASS, slot, off);
    }
}

static int32_t st_st_i(StCtx *ctx, int32_t slot, int64_t off, int64_t value) {
    ST_CALL(st_resolve(ctx, slot, &off));
    const StSlot *s = &ctx->slots[slot];
    unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    switch (s->kind) {
      case ST_KI32: { int32_t v = (int32_t)value; memcpy(p, &v, 4); return ST_OK; }
      case ST_KI64: memcpy(p, &value, 8); return ST_OK;
      case ST_KI16: { int16_t v = (int16_t)value; memcpy(p, &v, 2); return ST_OK; }
      case ST_KI8: { int8_t v = (int8_t)value; memcpy(p, &v, 1); return ST_OK; }
      case ST_KBOOL: *p = value != 0 ? 1 : 0; return ST_OK;
      default: return st_fault(ctx, ST_FAULT_CLASS, slot, off);
    }
}

static int32_t st_ld_f(StCtx *ctx, int32_t slot, int64_t off, double *out) {
    ST_CALL(st_resolve(ctx, slot, &off));
    const StSlot *s = &ctx->slots[slot];
    const unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    if (s->kind == ST_KF32) { float v; memcpy(&v, p, 4); *out = v; return ST_OK; }
    if (s->kind == ST_KF64) { memcpy(out, p, 8); return ST_OK; }
    return st_fault(ctx, ST_FAULT_CLASS, slot, off);
}

static int32_t st_st_f(StCtx *ctx, int32_t slot, int64_t off, double value) {
    ST_CALL(st_resolve(ctx, slot, &off));
    const StSlot *s = &ctx->slots[slot];
    unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    if (s->kind == ST_KF32) {
        /* Round to storage width, like the VM and NDArray::setFloat. */
        float v = (float)value;
        memcpy(p, &v, 4);
        return ST_OK;
    }
    if (s->kind == ST_KF64) { memcpy(p, &value, 8); return ST_OK; }
    return st_fault(ctx, ST_FAULT_CLASS, slot, off);
}

static int32_t st_search(StCtx *ctx, int32_t slot, int64_t lo, int64_t hi,
                         int64_t val, int32_t upper, int64_t *out) {
    const StSlot *s = &ctx->slots[slot];
    if (!s->bound) { return st_fault(ctx, ST_FAULT_ACCESS, slot, 0); }
    if (s->has_view) { return st_fault(ctx, ST_FAULT_SEARCH, slot, 0); }
    if (lo < 0 || hi > s->numel) {
        return st_fault(ctx, ST_FAULT_SEARCH, slot, lo < 0 ? lo : hi);
    }
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        int64_t elem;
        ST_CALL(st_ld_i(ctx, slot, mid, &elem));
        int32_t go_right = upper ? (elem <= val) : (elem < val);
        if (go_right) { lo = mid + 1; } else { hi = mid; }
    }
    *out = lo;
    return ST_OK;
}

/* Publish a stack scratch slot's metadata for the host's diagnostics. */
static void st_scratch(StCtx *ctx, int32_t slot, int64_t n, int32_t kind, int32_t ebytes) {
    StSlot *s = &ctx->slots[slot];
    s->numel = n;
    s->kind = kind;
    s->ebytes = ebytes;
    s->bound = 1;
}

/* (Re)allocate a scratch slot, zero-filled (kAlloc semantics). */
static int32_t st_alloc(StCtx *ctx, int32_t slot, int64_t n, int32_t kind,
                        int32_t ebytes) {
    StSlot *s = &ctx->slots[slot];
    if (n < 0) { return st_fault(ctx, ST_FAULT_NEGALLOC, slot, n); }
    free(s->base);
    s->base = (unsigned char *)calloc(n > 0 ? (__SIZE_TYPE__)n : 1, (__SIZE_TYPE__)ebytes);
    if (!s->base) { return st_fault(ctx, ST_FAULT_OOM, slot, n); }
    s->numel = n;
    s->kind = kind;
    s->ebytes = ebytes;
    s->bound = 1;
    return ST_OK;
}

)";

/** Largest scratch allocation placed on the kernel's stack. */
constexpr int64_t kStackScratchBytes = 4096;

/**
 * Fewest lanes a sunk region may have: narrower lane loops gain
 * nothing from vectorizing, and a fully unrolled 2-lane region is the
 * shape in which GCC 12's basic-block vectorizer was seen to drop the
 * float rounding between reduction steps.
 */
constexpr int64_t kMinLanes = 4;

/** Deepest kInPlace nest: st_radix takes the lane and 7 nest terms. */
constexpr size_t kMaxNest = 7;

/**
 * Stage III -> C translator for one function. Statement-oriented
 * emission: every non-leaf subexpression lands in its own named
 * int64_t/double temporary, in the interpreter's left-to-right
 * evaluation order — C's unspecified operand order can then never
 * reorder faults or atomic side effects. Short-circuit And/Or and
 * one-armed Select compile to if/else over temporaries. The typing
 * mirrors the bytecode compiler's isFloatExpr exactly.
 *
 * Element accesses take one of two paths, both bounds-checked:
 *  - fast: a typed pointer p<k> (float/double/int32_t/int64_t) and a
 *    bound n<k>, hoisted to kernel entry, then one inline unsigned
 *    compare per access (ST_LD/ST_ST). A parameter slot is eligible
 *    when it is bound, not rebased through an OffsetView, and its
 *    runtime kind equals the kind of its first access; the entry
 *    check folds that flag into the bound (n<k> = eligible ? numel :
 *    0). A constant-extent scratch allocation of at most
 *    kStackScratchBytes is a zero-initialised C array declared where
 *    the Allocate runs, with a literal bound.
 *  - slow: the st_ld_* / st_st_* helpers (st_resolve translation,
 *    bounds check, runtime kind switch) for every access that fails
 *    the compare, for i8/i16/bool storage and for class-mismatched
 *    accesses, so views, lazy binding and every fault diagnostic
 *    behave exactly like the VM's.
 */
class Emitter
{
  public:
    Emitter(const PrimFunc &func, std::string key_tag)
        : func_(func), keyTag_(std::move(key_tag))
    {}

    EmitResult
    run()
    {
        for (const auto &param : func_->params) {
            if (param->dtype.isHandle()) {
                int slot = static_cast<int>(slotNames_.size());
                slotNames_.push_back(param->name);
                slotOf_[param.get()] = slot;
            } else {
                size_t index = scalars_.size();
                scalarIndex_[param.get()] = index;
                scalars_.push_back(param->name);
                vars_[param.get()] =
                    CVar{false, "s" + std::to_string(index)};
            }
        }
        scalarUsed_.assign(scalars_.size(), false);
        numParamSlots_ = static_cast<int>(slotNames_.size());
        plans_.assign(slotNames_.size(), SlotPlan());
        blockLoop_ = findBlockIdxLoop(func_->body);
        indent_ = 1;
        if (func_->body != nullptr) {
            emitStmt(func_->body);
        }

        EmitResult result;
        result.name = func_->name;
        result.slotNames = slotNames_;
        result.numParamSlots = numParamSlots_;
        result.hasWindow = blockLoop_ != nullptr;

        std::string decls;
        int published = 0;
        for (size_t i = 0; i < scalars_.size(); ++i) {
            if (!scalarUsed_[i]) {
                continue;
            }
            decls += "    const int64_t s" + std::to_string(i) +
                     " = ctx->scalars[" + std::to_string(published) +
                     "];\n";
            result.scalarNames.push_back(scalars_[i]);
            ++published;
        }
        decls += fastPathDecls();
        decls += entryFlags_;

        std::string meta = "sparsetir-native;abi=" +
                           std::to_string(kNativeAbiVersion) +
                           ";tag=" + keyTag_ + ";kernel=" + func_->name;
        std::string src;
        src += "/* SparseTIR native kernel: " + func_->name +
               " (generated) */\n";
        src += kPreamble;
        src += "const char sparsetir_kernel_meta[] = \"" + meta +
               "\";\n\n";
        src += "int32_t sparsetir_kernel_run(StCtx *ctx) {\n";
        src += "    (void)ctx;\n";
        src += decls;
        src += body_;
        src += "    return ST_OK;\n";
        src += "}\n";
        result.source = std::move(src);
        return result;
    }

  private:
    struct CVar
    {
        bool isFloat = false;
        std::string name;
    };

    /** kUndecided until a parameter slot's first access. */
    static constexpr int kUndecided = -2;
    /** Every access to the slot goes through the helpers. */
    static constexpr int kSlow = -1;

    /** How a slot's accesses are emitted. */
    struct SlotPlan
    {
        /** ElemKind of the typed pointer p<k>, or kUndecided/kSlow. */
        int kind = kUndecided;
        /** Stack scratch: p<k> is a C array of `numel` elements. */
        bool stack = false;
        int64_t numel = 0;
    };

    // -----------------------------------------------------------------
    // Emission plumbing
    // -----------------------------------------------------------------

    void
    line(const std::string &text)
    {
        body_.append(static_cast<size_t>(indent_) * 4, ' ');
        body_ += text;
        body_ += '\n';
    }

    std::string
    tmp()
    {
        return "t" + std::to_string(tmpCount_++);
    }

    std::string
    slotTok(int slot) const
    {
        return std::to_string(slot);
    }

    static std::string
    intLiteral(int64_t value)
    {
        if (value == INT64_MIN) {
            return "(-INT64_C(9223372036854775807) - 1)";
        }
        return "INT64_C(" + std::to_string(value) + ")";
    }

    std::string
    floatLiteral(double value) const
    {
        USER_CHECK(std::isfinite(value))
            << "non-finite float constant not compilable to native "
               "code in '"
            << func_->name << "'";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", value);
        return "(" + std::string(buf) + ")";
    }

    /** Variable token, recording scalar-param usage (lazy binding). */
    std::string
    varTok(const VarNode *var)
    {
        auto used = scalarIndex_.find(var);
        if (used != scalarIndex_.end()) {
            scalarUsed_[used->second] = true;
        }
        auto it = vars_.find(var);
        ICHECK(it != vars_.end())
            << "unbound variable '" << var->name << "'";
        return it->second.name;
    }

    int
    slotFor(const Buffer &buffer)
    {
        auto it = slotOf_.find(buffer->data.get());
        ICHECK(it != slotOf_.end())
            << "no storage bound for buffer '" << buffer->name << "'";
        return it->second;
    }

    // -----------------------------------------------------------------
    // Element access: typed fast path or checked helper
    // -----------------------------------------------------------------

    /** C element type of a typed-pointer ElemKind, or nullptr (no
     *  typed path for i8/i16/bool, kUndecided, kSlow). */
    static const char *
    cType(int kind)
    {
        static const char *const kTypes[] = {
            "float", "double", nullptr, nullptr, "int32_t", "int64_t"};
        return kind >= 0 && kind < 6 ? kTypes[kind] : nullptr;
    }

    /**
     * True when an access of class `flt` to `slot` through a buffer
     * of `dtype` takes the typed path. A parameter slot's first
     * access fixes its pointer kind; accesses of the other register
     * class keep the helper, which raises the VM's class fault.
     */
    bool
    fastAccess(int slot, const DataType &dtype, bool flt)
    {
        SlotPlan &plan = plans_[static_cast<size_t>(slot)];
        if (plan.kind == kUndecided) {
            int kind =
                static_cast<int>(bytecode::elemKindOfDtype(dtype));
            plan.kind = cType(kind) != nullptr ? kind : kSlow;
        }
        return plan.kind != kSlow &&
               bytecode::elemKindIsFloat(
                   static_cast<bytecode::ElemKind>(plan.kind)) == flt;
    }

    /** Load slot[off] into a fresh int64_t/double temporary. */
    std::string
    emitLoad(const Buffer &buffer, const std::string &off, bool flt)
    {
        std::string t = tmp();
        std::string decl = std::string(flt ? "double " : "int64_t ") +
                           t + "; ";
        if (!slowLabel_.empty()) {
            // Sunk region: the lane's accumulator, an access whose range
            // the region checked, or a checked hoisted load.
            std::string init = std::string(flt ? "double " : "int64_t ") +
                               t + " = ";
            if (buffer->data.get() == lane_.acc) {
                line(init + lane_.array + "[" + laneTok() + "];");
            } else if (lane_.inLoop || lane_.prechecked) {
                line(init + "p" + slotTok(slotFor(buffer)) + "[" + off +
                     "];");
            } else {
                line(decl + "ST_LDG(" + slotTok(slotFor(buffer)) + ", " +
                     off + ", " + t + ", " + slowLabel_ + ");");
            }
            return t;
        }
        int slot = slotFor(buffer);
        std::string helper = flt ? "st_ld_f" : "st_ld_i";
        if (fastAccess(slot, buffer->dtype, flt)) {
            line(decl + "ST_LD(" + slotTok(slot) + ", " + off + ", " +
                 t + ", " + helper + ");");
        } else {
            line(decl + "ST_CALL(" + helper + "(ctx, " + slotTok(slot) +
                 ", " + off + ", &" + t + "));");
        }
        return t;
    }

    /** Store `value` (rounded to storage width) to slot[off]. */
    void
    emitStore(const Buffer &buffer, const std::string &off,
              const std::string &value, bool flt)
    {
        if (!slowLabel_.empty()) {
            // Sunk region: only lane loops store, to checked ranges.
            std::string dst = buffer->data.get() == lane_.acc
                                  ? lane_.array + "[" + laneTok() + "]"
                                  : "p" + slotTok(slotFor(buffer)) + "[" +
                                        off + "]";
            line(dst + " = " + value + ";");
            return;
        }
        int slot = slotFor(buffer);
        std::string helper = flt ? "st_st_f" : "st_st_i";
        if (fastAccess(slot, buffer->dtype, flt)) {
            line("ST_ST(" + slotTok(slot) + ", " + off + ", " + value +
                 ", " + helper + ");");
        } else {
            line("ST_CALL(" + helper + "(ctx, " + slotTok(slot) + ", " +
                 off + ", " + value + "));");
        }
    }

    /**
     * Kernel-entry declarations of every fast-path slot: parameter
     * pointers with their eligibility-folded bounds, and each stack
     * scratch slot's bound, published once into the context so a
     * fault message carries the slot's real numel.
     */
    std::string
    fastPathDecls() const
    {
        std::string out;
        for (size_t i = 0; i < plans_.size(); ++i) {
            const SlotPlan &plan = plans_[i];
            const char *ctype = cType(plan.kind);
            if (ctype == nullptr) {
                continue;
            }
            std::string k = std::to_string(i);
            std::string kind = std::to_string(plan.kind);
            if (plan.stack) {
                out += "    const int64_t n" + k + " = " +
                       intLiteral(plan.numel) + ";\n";
                out += "    st_scratch(ctx, " + k + ", n" + k + ", " +
                       kind + ", sizeof(" + ctype + "));\n";
                continue;
            }
            out += "    " + std::string(ctype) + " *const p" + k +
                   " = (" + ctype + " *)ctx->slots[" + k + "].base;\n";
            out += "    const int64_t n" + k + " = st_fast(ctx, " + k +
                   ", " + kind + ", sizeof(" + ctype + "));\n";
        }
        return out;
    }

    /**
     * Structural non-negativity of an int expression: literals >= 0,
     * loop variables with a non-negative lower bound, let variables
     * bound to such values, and sums, products and floor quotients of
     * them. Licenses a plain C `/` and `%` for floor division by a
     * positive literal; anything else answers false.
     */
    bool
    nonNeg(const Expr &e) const
    {
        switch (e->kind) {
          case ExprKind::kIntImm:
            return static_cast<const IntImmNode *>(e.get())->value >= 0;
          case ExprKind::kVar:
            return nonNegVars_.count(
                       static_cast<const VarNode *>(e.get())) != 0;
          case ExprKind::kAdd:
          case ExprKind::kMul:
          case ExprKind::kFloorDiv:
          case ExprKind::kFloorMod: {
            auto op = static_cast<const BinaryNode *>(e.get());
            if (e->kind == ExprKind::kFloorMod) {
                // Floor modulus takes the divisor's sign.
                return positiveLiteral(op->b);
            }
            return (e->kind != ExprKind::kFloorDiv ||
                    positiveLiteral(op->b)) &&
                   nonNeg(op->a) && nonNeg(op->b);
          }
          default:
            return false;
        }
    }

    /** Element count of a literal-shaped buffer, or -1 (capped at
     *  kStackScratchBytes so the product cannot overflow). */
    static int64_t
    constantExtent(const std::vector<Expr> &shape)
    {
        int64_t numel = 1;
        for (const Expr &dim : shape) {
            if (dim->kind != ExprKind::kIntImm) {
                return -1;
            }
            int64_t extent = static_cast<const IntImmNode *>(dim.get())->value;
            if (extent < 0 || extent > kStackScratchBytes) {
                return -1;
            }
            numel = std::min(numel * extent, kStackScratchBytes + 1);
        }
        return numel;
    }

    static bool
    positiveLiteral(const Expr &e)
    {
        return e->kind == ExprKind::kIntImm &&
               static_cast<const IntImmNode *>(e.get())->value > 0;
    }

    // -----------------------------------------------------------------
    // Static typing (identical to the bytecode compiler's)
    // -----------------------------------------------------------------

    bool
    isFloatExpr(const Expr &e)
    {
        switch (e->kind) {
          case ExprKind::kIntImm:
            return false;
          case ExprKind::kFloatImm:
            return true;
          case ExprKind::kVar: {
            auto op = static_cast<const VarNode *>(e.get());
            auto it = vars_.find(op);
            ICHECK(it != vars_.end())
                << "unbound variable '" << op->name << "'";
            return it->second.isFloat;
          }
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            return isFloatExpr(op->a) || isFloatExpr(op->b);
          }
          case ExprKind::kDiv:
            // `/` always computes in float, like the interpreter.
            return true;
          case ExprKind::kFloorDiv:
          case ExprKind::kFloorMod:
          case ExprKind::kEQ:
          case ExprKind::kNE:
          case ExprKind::kLT:
          case ExprKind::kLE:
          case ExprKind::kGT:
          case ExprKind::kGE:
          case ExprKind::kAnd:
          case ExprKind::kOr:
          case ExprKind::kNot:
            return false;
          case ExprKind::kSelect: {
            auto op = static_cast<const SelectNode *>(e.get());
            return isFloatExpr(op->trueValue) ||
                   isFloatExpr(op->falseValue);
          }
          case ExprKind::kCast:
            return static_cast<const CastNode *>(e.get())
                ->dtype.isFloat();
          case ExprKind::kBufferLoad:
            return static_cast<const BufferLoadNode *>(e.get())
                ->buffer->dtype.isFloat();
          case ExprKind::kCall: {
            auto op = static_cast<const CallNode *>(e.get());
            switch (op->op) {
              case Builtin::kLowerBound:
              case Builtin::kUpperBound:
                return false;
              case Builtin::kExp:
              case Builtin::kLog:
              case Builtin::kSqrt:
                return true;
              case Builtin::kAbs:
                return isFloatExpr(op->args[0]);
              case Builtin::kAtomicAdd:
                ICHECK(op->bufferArg != nullptr);
                return op->bufferArg->dtype.isFloat();
              case Builtin::kExtern:
                USER_CHECK(false) << "cannot compile extern call '"
                                  << op->name << "' to native code";
            }
            return false;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "native code in '"
                              << func_->name << "'";
        }
        return false;
    }

    // -----------------------------------------------------------------
    // Expressions. emitI/emitF return a C token (temp name, variable
    // or literal) of type int64_t / double respectively.
    // -----------------------------------------------------------------

    std::string
    emitI(const Expr &e)
    {
        if (isFloatExpr(e)) {
            std::string f = emitF(e);
            std::string t = tmp();
            // C truncation, the VM's kCastFI.
            line("int64_t " + t + " = (int64_t)" + f + ";");
            return t;
        }
        auto hoisted = lane_.hoisted.find(e.get());
        if (hoisted != lane_.hoisted.end()) {
            return hoisted->second;
        }
        switch (e->kind) {
          case ExprKind::kIntImm:
            return intLiteral(
                static_cast<const IntImmNode *>(e.get())->value);
          case ExprKind::kVar:
            return varTok(static_cast<const VarNode *>(e.get()));
          case ExprKind::kNot: {
            std::string a =
                emitI(static_cast<const NotNode *>(e.get())->a);
            std::string t = tmp();
            line("int64_t " + t + " = (" + a + " == 0) ? 1 : 0;");
            return t;
          }
          case ExprKind::kSelect:
            return emitSelect(static_cast<const SelectNode *>(e.get()),
                              false);
          case ExprKind::kCast:
            // Int-targeted cast of an int value is the identity;
            // float sources took the conversion path above.
            return emitI(static_cast<const CastNode *>(e.get())->value);
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            std::string off = emitOffset(op->buffer, op->indices);
            return emitLoad(op->buffer, off, false);
          }
          case ExprKind::kCall:
            return emitCallI(static_cast<const CallNode *>(e.get()));
          case ExprKind::kAnd:
          case ExprKind::kOr:
            return emitShortCircuit(
                static_cast<const BinaryNode *>(e.get()));
          case ExprKind::kEQ:
          case ExprKind::kNE:
          case ExprKind::kLT:
          case ExprKind::kLE:
          case ExprKind::kGT:
          case ExprKind::kGE:
            return emitCompare(
                static_cast<const BinaryNode *>(e.get()));
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            std::string a = emitI(op->a);
            std::string b = emitI(op->b);
            std::string t = tmp();
            line("int64_t " + t + " = " + intArith(e->kind, a, b) +
                 ";");
            return t;
          }
          case ExprKind::kFloorDiv:
          case ExprKind::kFloorMod: {
            auto op = static_cast<const BinaryNode *>(e.get());
            std::string a = emitI(op->a);
            std::string b = emitI(op->b);
            std::string t = tmp();
            bool literal = op->b->kind == ExprKind::kIntImm;
            if (positiveLiteral(op->b) && nonNeg(op->a)) {
                // Floor and truncating division agree here.
                line("int64_t " + t + " = " + a +
                     (e->kind == ExprKind::kFloorDiv ? " / " : " % ") +
                     b + ";");
                return t;
            }
            if (!literal ||
                static_cast<const IntImmNode *>(op->b.get())->value ==
                    0) {
                line("if (" + b + " == 0) { " +
                     (slowLabel_.empty()
                          ? "return st_fault(ctx, ST_FAULT_DIV0, -1, 0);"
                          : "goto " + slowLabel_ + ";") +
                     " }");
            }
            if (e->kind == ExprKind::kFloorDiv) {
                line("int64_t " + t + " = st_floordiv(" + a + ", " +
                     b + ");");
            } else {
                line("int64_t " + t + " = " + a + " - st_floordiv(" +
                     a + ", " + b + ") * " + b + ";");
            }
            return t;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "native code in '"
                              << func_->name << "'";
        }
        return "0";
    }

    std::string
    emitF(const Expr &e)
    {
        if (!isFloatExpr(e)) {
            std::string i = emitI(e);
            std::string t = tmp();
            line("double " + t + " = (double)" + i + ";");
            return t;
        }
        auto hoisted = lane_.hoisted.find(e.get());
        if (hoisted != lane_.hoisted.end()) {
            return hoisted->second;
        }
        switch (e->kind) {
          case ExprKind::kFloatImm:
            return floatLiteral(
                static_cast<const FloatImmNode *>(e.get())->value);
          case ExprKind::kVar:
            return varTok(static_cast<const VarNode *>(e.get()));
          case ExprKind::kSelect:
            return emitSelect(static_cast<const SelectNode *>(e.get()),
                              true);
          case ExprKind::kCast:
            // Float-targeted cast: int sources converted above;
            // float-of-float is the identity.
            return emitF(static_cast<const CastNode *>(e.get())->value);
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            std::string off = emitOffset(op->buffer, op->indices);
            return emitLoad(op->buffer, off, true);
          }
          case ExprKind::kCall:
            return emitCallF(static_cast<const CallNode *>(e.get()));
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kDiv:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            std::string a = emitF(op->a);
            std::string b = emitF(op->b);
            std::string t = tmp();
            line("double " + t + " = " + floatArith(e->kind, a, b) +
                 ";");
            return t;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "native code in '"
                              << func_->name << "'";
        }
        return "0";
    }

    static std::string
    intArith(ExprKind kind, const std::string &a, const std::string &b)
    {
        switch (kind) {
          case ExprKind::kAdd:
            return a + " + " + b;
          case ExprKind::kSub:
            return a + " - " + b;
          case ExprKind::kMul:
            return a + " * " + b;
          case ExprKind::kMin:
            return "(" + b + " < " + a + ") ? " + b + " : " + a;
          default:  // kMax
            return "(" + a + " < " + b + ") ? " + b + " : " + a;
        }
    }

    /**
     * Float min/max spelled exactly as std::min/std::max resolve, so
     * NaN propagation and signed-zero selection are bitwise the
     * interpreter's.
     */
    static std::string
    floatArith(ExprKind kind, const std::string &a,
               const std::string &b)
    {
        switch (kind) {
          case ExprKind::kAdd:
            return a + " + " + b;
          case ExprKind::kSub:
            return a + " - " + b;
          case ExprKind::kMul:
            return a + " * " + b;
          case ExprKind::kDiv:
            return a + " / " + b;
          case ExprKind::kMin:
            return "(" + b + " < " + a + ") ? " + b + " : " + a;
          default:  // kMax
            return "(" + a + " < " + b + ") ? " + b + " : " + a;
        }
    }

    static const char *
    cmpOp(ExprKind kind)
    {
        switch (kind) {
          case ExprKind::kEQ:
            return "==";
          case ExprKind::kNE:
            return "!=";
          case ExprKind::kLT:
            return "<";
          case ExprKind::kLE:
            return "<=";
          case ExprKind::kGT:
            return ">";
          default:
            return ">=";
        }
    }

    /** EQ..GE with the interpreter's float promotion; result int. */
    std::string
    emitCompare(const BinaryNode *op)
    {
        bool flt = isFloatExpr(op->a) || isFloatExpr(op->b);
        std::string a = flt ? emitF(op->a) : emitI(op->a);
        std::string b = flt ? emitF(op->b) : emitI(op->b);
        std::string t = tmp();
        line("int64_t " + t + " = (" + a + " " + cmpOp(op->kind) +
             " " + b + ") ? 1 : 0;");
        return t;
    }

    /** kAnd/kOr: the right operand must not execute when the left
     *  decides, exactly like the interpreter. */
    std::string
    emitShortCircuit(const BinaryNode *op)
    {
        bool is_and = op->kind == ExprKind::kAnd;
        std::string t = tmp();
        line("int64_t " + t + " = " + (is_and ? "0" : "1") + ";");
        std::string a = emitI(op->a);
        line("if (" + a + (is_and ? " != 0" : " == 0") + ") {");
        ++indent_;
        std::string b = emitI(op->b);
        line(t + " = (" + b + " != 0) ? 1 : 0;");
        --indent_;
        line("}");
        return t;
    }

    /** Select evaluates only the taken arm, like the interpreter. */
    std::string
    emitSelect(const SelectNode *op, bool flt)
    {
        std::string t = tmp();
        line(std::string(flt ? "double " : "int64_t ") + t + " = 0;");
        std::string c = emitI(op->cond);
        line("if (" + c + " != 0) {");
        ++indent_;
        std::string tv = flt ? emitF(op->trueValue)
                             : emitI(op->trueValue);
        line(t + " = " + tv + ";");
        --indent_;
        line("} else {");
        ++indent_;
        std::string fv = flt ? emitF(op->falseValue)
                             : emitI(op->falseValue);
        line(t + " = " + fv + ";");
        --indent_;
        line("}");
        return t;
    }

    /**
     * Flat element offset of an access: Stage III accesses carry one
     * index; multi-dimensional dense accesses emit the row-major
     * linearization (per-dimension extents evaluated at run time).
     */
    std::string
    emitOffset(const Buffer &buffer, const std::vector<Expr> &indices)
    {
        if (indices.size() == 1) {
            return emitI(indices[0]);
        }
        USER_CHECK(!buffer->isSparse())
            << "native backend requires lowered (dense) buffer "
               "access for '"
            << buffer->name << "'; run sparse buffer lowering first";
        ICHECK_EQ(indices.size(), buffer->shape.size());
        Expr offset = indices[0];
        for (size_t d = 1; d < indices.size(); ++d) {
            offset = add(mul(offset, buffer->shape[d]), indices[d]);
        }
        return emitI(offset);
    }

    std::string
    emitCallI(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kLowerBound:
          case Builtin::kUpperBound: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 3u);
            int slot = slotFor(op->bufferArg);
            // st_search reads through the slot's base pointer, which a
            // stack array never publishes.
            USER_CHECK(!plans_[static_cast<size_t>(slot)].stack)
                << "binary search over stack scratch '"
                << op->bufferArg->name
                << "' not compilable to native code";
            std::string lo = emitI(op->args[0]);
            std::string hi = emitI(op->args[1]);
            std::string val = emitI(op->args[2]);
            std::string t = tmp();
            bool upper = op->op == Builtin::kUpperBound;
            std::string k = slotTok(slot);
            std::string call = "ST_CALL(st_search(ctx, " + k + ", " + lo +
                               ", " + hi + ", " + val + ", " +
                               (upper ? "1" : "0") + ", &" + t + "));";
            line("int64_t " + t + " = 0;");
            if (!fastAccess(slot, op->bufferArg->dtype, false)) {
                line(call);
                return t;
            }
            // An eligible slot (n<k> > 0) is bound, unrebased and of
            // the probed kind: inside [0, n<k>] the search is st_search
            // with every probe a direct typed load.
            line("if (n" + k + " > 0 && " + lo + " >= 0 && " + hi +
                 " <= n" + k + ") { ST_BSEARCH(" + k + ", " + lo + ", " +
                 hi + ", " + val + ", " + (upper ? "<=" : "<") + ", " + t +
                 "); } else { " + call + " }");
            return t;
          }
          case Builtin::kAbs: {
            std::string a = emitI(op->args[0]);
            std::string t = tmp();
            line("int64_t " + t + " = (" + a + " < 0) ? -" + a +
                 " : " + a + ";");
            return t;
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            // Read-modify-write; the old value is the result.
            std::string off = emitI(op->args[0]);
            std::string v = emitI(op->args[1]);
            std::string t = emitLoad(op->bufferArg, off, false);
            emitStore(op->bufferArg, off, t + " + " + v, false);
            return t;
          }
          default:
            USER_CHECK(false)
                << "cannot compile call in integer context in '"
                << func_->name << "'";
        }
        return "0";
    }

    std::string
    emitCallF(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kExp:
          case Builtin::kLog:
          case Builtin::kSqrt: {
            std::string a = emitF(op->args[0]);
            const char *fn = op->op == Builtin::kExp
                                 ? "exp"
                                 : (op->op == Builtin::kLog ? "log"
                                                            : "sqrt");
            std::string t = tmp();
            line("double " + t + " = " + fn + "(" + a + ");");
            return t;
          }
          case Builtin::kAbs: {
            std::string a = emitF(op->args[0]);
            std::string t = tmp();
            line("double " + t + " = fabs(" + a + ");");
            return t;
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            std::string off = emitI(op->args[0]);
            std::string v = emitF(op->args[1]);
            std::string t = emitLoad(op->bufferArg, off, true);
            emitStore(op->bufferArg, off, t + " + " + v, true);
            return t;
          }
          default:
            USER_CHECK(false)
                << "cannot compile call in float context in '"
                << func_->name << "'";
        }
        return "0";
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    void
    emitStmt(const Stmt &s)
    {
        switch (s->kind) {
          case StmtKind::kBufferStore: {
            auto op = static_cast<const BufferStoreNode *>(s.get());
            // Value before indices, mirroring the interpreter's
            // evaluation order (observable when the value contains
            // an atomic update the indices then read).
            bool flt = op->buffer->dtype.isFloat();
            std::string v = flt ? emitF(op->value) : emitI(op->value);
            std::string off = emitOffset(op->buffer, op->indices);
            emitStore(op->buffer, off, v, flt);
            break;
          }
          case StmtKind::kSeq: {
            auto op = static_cast<const SeqStmtNode *>(s.get());
            for (const auto &child : op->seq) {
                emitStmt(child);
            }
            break;
          }
          case StmtKind::kFor:
            emitFor(static_cast<const ForNode *>(s.get()));
            break;
          case StmtKind::kBlock: {
            auto op = static_cast<const BlockNode *>(s.get());
            if (op->init != nullptr) {
                emitInit(op, [&] { emitStmt(op->init); });
            }
            emitStmt(op->body);
            break;
          }
          case StmtKind::kIfThenElse: {
            auto op = static_cast<const IfThenElseNode *>(s.get());
            std::string c = emitI(op->cond);
            line("if (" + c + " != 0) {");
            ++indent_;
            emitStmt(op->thenBody);
            --indent_;
            if (op->elseBody != nullptr) {
                line("} else {");
                ++indent_;
                emitStmt(op->elseBody);
                --indent_;
            }
            line("}");
            break;
          }
          case StmtKind::kLetStmt: {
            auto op = static_cast<const LetStmtNode *>(s.get());
            bool flt = isFloatExpr(op->value);
            std::string v = flt ? emitF(op->value) : emitI(op->value);
            std::string name = "l" + std::to_string(tmpCount_++);
            line(std::string(flt ? "double " : "int64_t ") + name +
                 " = " + v + ";");
            vars_[op->letVar.get()] = CVar{flt, name};
            if (!flt && nonNeg(op->value)) {
                nonNegVars_.insert(op->letVar.get());
            }
            emitStmt(op->body);
            vars_.erase(op->letVar.get());
            nonNegVars_.erase(op->letVar.get());
            break;
          }
          case StmtKind::kAllocate: {
            auto op = static_cast<const AllocateNode *>(s.get());
            LaneRegion region;
            if (matchRfactor(op, &region)) {
                emitSunkRegion(region, [&] { emitAllocate(op); });
            } else {
                emitAllocate(op);
            }
            break;
          }
          case StmtKind::kEvaluate: {
            auto op = static_cast<const EvaluateNode *>(s.get());
            if (isFloatExpr(op->value)) {
                std::string v = emitF(op->value);
                line("(void)" + v + ";");
            } else {
                std::string v = emitI(op->value);
                line("(void)" + v + ";");
            }
            break;
          }
          case StmtKind::kSparseIteration:
            USER_CHECK(false)
                << "cannot compile Stage I sparse iteration '"
                << static_cast<const SparseIterationNode *>(s.get())
                       ->name
                << "' to native code; lower the function first";
            break;
          default:
            ICHECK(false) << "unhandled stmt kind";
        }
    }

    /** A scratch buffer: a zeroed stack array or st_alloc. */
    void
    emitAllocate(const AllocateNode *op)
    {
        int slot = static_cast<int>(slotNames_.size());
        slotNames_.push_back(op->buffer->name);
        plans_.emplace_back();
        bytecode::ElemKind kind =
            bytecode::elemKindOfDtype(op->buffer->dtype);
        int64_t bytes = bytecode::elemKindBytes(kind);
        int64_t numel = constantExtent(op->buffer->shape);
        const char *ctype = cType(static_cast<int>(kind));
        if (ctype != nullptr && numel > 0 &&
            numel <= kStackScratchBytes / bytes) {
            // Zeroed on every entry, like st_alloc's calloc.
            SlotPlan &plan = plans_.back();
            plan.kind = static_cast<int>(kind);
            plan.stack = true;
            plan.numel = numel;
            line(std::string(ctype) + " p" + slotTok(slot) + "[" +
                 std::to_string(numel) + "] = {0};");
        } else {
            Expr size = op->buffer->shape.empty()
                            ? intImm(1)
                            : op->buffer->shape[0];
            for (size_t d = 1; d < op->buffer->shape.size(); ++d) {
                size = mul(size, op->buffer->shape[d]);
            }
            std::string n = emitI(size);
            plans_.back().kind = kSlow;
            line("ST_CALL(st_alloc(ctx, " + slotTok(slot) + ", " +
                 n + ", " + std::to_string(static_cast<int>(kind)) +
                 ", " + std::to_string(bytes) + "));");
        }
        slotOf_[op->buffer->data.get()] = slot;
        emitStmt(op->body);
        slotOf_.erase(op->buffer->data.get());
    }

    /** Fire a Block's init only when every in-scope reduce var is at
     *  zero; vars not in scope never veto. */
    template <typename Init>
    void
    emitInit(const BlockNode *op, Init init)
    {
        std::string cond;
        for (const auto &rv : op->reduceVars) {
            auto it = vars_.find(rv.get());
            if (it != vars_.end()) {
                if (!cond.empty()) {
                    cond += " && ";
                }
                cond += "(" + it->second.name + " == 0)";
            }
        }
        if (cond.empty()) {
            init();
            return;
        }
        line("if (" + cond + ") {");
        ++indent_;
        init();
        --indent_;
        line("}");
    }

    void
    emitFor(const ForNode *op)
    {
        LaneRegion region;
        if (matchRegion(op, &region)) {
            emitSunkRegion(region, [&] {
                emitLoop(op, [&] { emitStmt(op->body); });
            });
        } else {
            emitLoop(op, [&] { emitStmt(op->body); });
        }
    }

    template <typename Body>
    void
    emitLoop(const ForNode *op, Body body)
    {
        std::string mn = emitI(op->minValue);
        std::string ext = emitI(op->extent);
        std::string lo = tmp();
        std::string hi = tmp();
        line("int64_t " + lo + " = " + mn + ";");
        line("int64_t " + hi + " = " + mn + " + " + ext + ";");
        if (op == blockLoop_) {
            // The kBlockWindow contract: clamp the outermost
            // blockIdx.x loop to the dispatch's [blockBegin,
            // blockEnd) grid chunk.
            line("if (ctx->block_end >= 0) {");
            ++indent_;
            line(lo + " = " + mn +
                 " + (ctx->block_begin > 0 ? ctx->block_begin : 0);");
            std::string h = tmp();
            line("int64_t " + h + " = " + mn + " + ctx->block_end;");
            line("if (" + h + " < " + hi + ") { " + hi + " = " + h +
                 "; }");
            --indent_;
            line("}");
        }
        std::string v = "v" + std::to_string(tmpCount_++);
        line("for (int64_t " + v + " = " + lo + "; " + v + " < " + hi +
             "; ++" + v + ") {");
        ++indent_;
        vars_[op->loopVar.get()] = CVar{false, v};
        // The body only runs at v >= min (a window start only raises it).
        if (nonNeg(op->minValue)) {
            nonNegVars_.insert(op->loopVar.get());
        }
        body();
        vars_.erase(op->loopVar.get());
        nonNegVars_.erase(op->loopVar.get());
        --indent_;
        line("}");
    }

    // -----------------------------------------------------------------
    // Sunk lane regions
    // -----------------------------------------------------------------

    /**
     * The three shapes of a lane region, each a loop L over a constant
     * number of lanes (see matchRegion, matchRfactor, matchInPlace).
     */
    enum class RegionKind
    {
        /** Per lane: a one-element scratch S, a reduction R that
         *  writes only S, and one store writing S back. */
        kPrivate,
        /** L reduces into S[l] of a lane-indexed scratch; a sibling
         *  serial loop F then folds S into one output element. */
        kRfactor,
        /** Per lane: a nest of constant-extent loops around one store
         *  to an output array at an offset affine in the lane and the
         *  nest variables. */
        kInPlace,
    };

    /**
     * A matched lane region. Optionally a lane-prefix guard `a + l < b`
     * (or `l < b`) wraps L's body (every kind), or sits inside R and
     * around the write-back (kPrivate) or inside R only (kRfactor,
     * where a may depend on R's variables).
     */
    struct LaneRegion
    {
        RegionKind kind = RegionKind::kPrivate;
        const ForNode *loop = nullptr;
        int64_t lanes = 0;
        /** The guard condition, null when every lane is active. */
        Expr guard;
        /** Guard operands: a (null for `l < b`) and b. */
        Expr guardA;
        Expr guardB;
        /** The guard wraps the whole lane body. */
        bool outerGuard = false;
        /** The accumulator S (null for kInPlace). */
        Buffer acc;
        /** Every lane's S starts at zero: S is allocated inside L
         *  (kPrivate) or is the zeroed lane-indexed scratch (kRfactor). */
        bool accInside = false;
        /** `S = v` ahead of R, when S is allocated outside L. */
        const BufferStoreNode *init = nullptr;
        /** R, or the outermost loop of kInPlace's nest. */
        const ForNode *reduce = nullptr;
        /** The one store to a non-scratch array: the write-back
         *  (kPrivate), F's update (kRfactor) or the update itself
         *  (kInPlace). */
        const BufferStoreNode *out = nullptr;
        /** The init of out's Block: `B[q] = v` (kRfactor) or
         *  `C[f] = v` (kInPlace). */
        const BufferStoreNode *outInit = nullptr;
        /** kInPlace: the nest, outermost first. Its variables vary
         *  like the lane for hoisting out of the whole region. */
        std::vector<const ForNode *> nest;
        /** Every load from an array other than S. */
        std::vector<const BufferLoadNode *> loads;
    };

    /** Emission state of a sunk region's fast version. */
    struct LaneState
    {
        const LaneRegion *region = nullptr;
        /** Data var of S, and the per-lane array standing in for it. */
        const VarNode *acc = nullptr;
        std::string array;
        /** Active-lane count token. */
        std::string count;
        /** Inside a lane loop: accesses are range-checked already. */
        bool inLoop = false;
        /** kInPlace nest: every access was range-checked up front. */
        bool prechecked = false;
        /** Tokens of the current statement's lane-invariant subtrees. */
        std::unordered_map<const ExprNode *, std::string> hoisted;
    };

    /** Token of the lane index inside a lane loop. */
    std::string
    laneTok() const
    {
        return vars_.at(lane_.region->loop->loopVar.get()).name;
    }

    static bool
    isZeroLiteral(const Expr &e)
    {
        return e->kind == ExprKind::kIntImm &&
               static_cast<const IntImmNode *>(e.get())->value == 0;
    }

    static bool
    isScalarIndex(const std::vector<Expr> &indices)
    {
        return indices.size() == 1 && isZeroLiteral(indices[0]);
    }

    /** Calls with no side effect and no fault. */
    static bool
    pureCall(const CallNode *op)
    {
        return op->op == Builtin::kExp || op->op == Builtin::kLog ||
               op->op == Builtin::kSqrt || op->op == Builtin::kAbs;
    }

    /** Apply `pred` to e's operands; true if it holds for any. */
    template <typename Pred>
    static bool
    anyOperand(const Expr &e, Pred pred)
    {
        switch (e->kind) {
          case ExprKind::kNot:
            return pred(static_cast<const NotNode *>(e.get())->a);
          case ExprKind::kSelect: {
            auto op = static_cast<const SelectNode *>(e.get());
            return pred(op->cond) || pred(op->trueValue) ||
                   pred(op->falseValue);
          }
          case ExprKind::kCast:
            return pred(static_cast<const CastNode *>(e.get())->value);
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            return std::any_of(op->indices.begin(), op->indices.end(),
                               pred);
          }
          case ExprKind::kCall: {
            auto op = static_cast<const CallNode *>(e.get());
            return std::any_of(op->args.begin(), op->args.end(), pred);
          }
          default:
            if (e->kind >= ExprKind::kAdd && e->kind <= ExprKind::kOr) {
                auto op = static_cast<const BinaryNode *>(e.get());
                return pred(op->a) || pred(op->b);
            }
            return false;
        }
    }

    /** e mentions variable `v`. */
    static bool
    mentions(const Expr &e, const VarNode *v)
    {
        return e.get() == v || anyOperand(e, [&](const Expr &c) {
                   return mentions(c, v);
               });
    }

    /** e reads the lane variable, a nest variable or S. */
    static bool
    laneDep(const Expr &e, const LaneRegion &r)
    {
        if (e->kind == ExprKind::kVar) {
            return e.get() == r.loop->loopVar.get() ||
                   std::any_of(r.nest.begin(), r.nest.end(),
                               [&](const ForNode *loop) {
                                   return e.get() == loop->loopVar.get();
                               });
        }
        if (e->kind == ExprKind::kBufferLoad && r.acc != nullptr &&
            static_cast<const BufferLoadNode *>(e.get())
                    ->buffer->data.get() == r.acc->data.get()) {
            return true;
        }
        return anyOperand(e, [&](const Expr &c) { return laneDep(c, r); });
    }

    /**
     * e is lane-invariant and can be evaluated once, ahead of the lane
     * loop, with every fault becoming a jump to the checked version.
     * Records its loads.
     */
    static bool
    hoistable(const Expr &e, LaneRegion *r)
    {
        if (laneDep(e, *r)) {
            return false;
        }
        switch (e->kind) {
          case ExprKind::kIntImm:
          case ExprKind::kFloatImm:
          case ExprKind::kVar:
            return true;
          case ExprKind::kBufferLoad:
            r->loads.push_back(
                static_cast<const BufferLoadNode *>(e.get()));
            break;
          case ExprKind::kCall:
            if (!pureCall(static_cast<const CallNode *>(e.get()))) {
                return false;
            }
            break;
          case ExprKind::kStringImm:
          case ExprKind::kRamp:
          case ExprKind::kBroadcast:
            return false;
          default:
            break;
        }
        return !anyOperand(e, [&](const Expr &c) {
            return !hoistable(c, r);
        });
    }

    /** e is an int offset of the form u + w * lane (u, w invariant). */
    static bool
    laneAffine(const Expr &e, LaneRegion *r)
    {
        if (!laneDep(e, *r)) {
            return !e->dtype.isFloat() && hoistable(e, r);
        }
        switch (e->kind) {
          case ExprKind::kVar:
            return true;
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul: {
            auto op = static_cast<const BinaryNode *>(e.get());
            return (e->kind != ExprKind::kMul || !laneDep(op->a, *r) ||
                    !laneDep(op->b, *r)) &&
                   laneAffine(op->a, r) && laneAffine(op->b, r);
          }
          default:
            return false;
        }
    }

    /**
     * e can be computed per lane inside a branch-free lane loop: pure
     * arithmetic over S, the lane index, lane-affine loads and
     * hoistable subtrees.
     */
    static bool
    laneExpr(const Expr &e, LaneRegion *r)
    {
        if (!laneDep(e, *r)) {
            return hoistable(e, r);
        }
        switch (e->kind) {
          case ExprKind::kVar:
            return true;
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            if (r->acc != nullptr &&
                op->buffer->data.get() == r->acc->data.get()) {
                return accIndexOk(op->indices, *r);
            }
            r->loads.push_back(op);
            return op->indices.size() == 1 &&
                   laneAffine(op->indices[0], r);
          }
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kDiv:
          case ExprKind::kMin:
          case ExprKind::kMax:
          case ExprKind::kCast:
            return !anyOperand(e, [&](const Expr &c) {
                return !laneExpr(c, r);
            });
          case ExprKind::kCall:
            return pureCall(static_cast<const CallNode *>(e.get())) &&
                   !anyOperand(e, [&](const Expr &c) {
                       return !laneExpr(c, r);
                   });
          default:
            return false;
        }
    }

    /** `cond` is `l < b` or `a + l < b` with a, b lane-invariant ints. */
    static bool
    matchGuard(const Expr &cond, LaneRegion *r)
    {
        if (cond->kind != ExprKind::kLT) {
            return false;
        }
        auto lt = static_cast<const BinaryNode *>(cond.get());
        const VarNode *lane = r->loop->loopVar.get();
        auto invariant = [&](const Expr &e) {
            return !e->dtype.isFloat() && hoistable(e, r);
        };
        Expr a;
        if (lt->a.get() != lane) {
            if (lt->a->kind != ExprKind::kAdd) {
                return false;
            }
            auto add = static_cast<const BinaryNode *>(lt->a.get());
            a = add->b.get() == lane ? add->a
                                     : (add->a.get() == lane ? add->b
                                                             : nullptr);
            if (a == nullptr || !invariant(a)) {
                return false;
            }
        }
        if (!invariant(lt->b)) {
            return false;
        }
        r->guard = cond;
        r->guardA = a;
        r->guardB = lt->b;
        return true;
    }

    /** A lane-dependent condition inside the region: the lane guard. */
    static bool
    guardOk(const Expr &cond, LaneRegion *r)
    {
        if (r->guard != nullptr) {
            return structuralEqual(cond, r->guard);
        }
        return r->accInside && matchGuard(cond, r);
    }

    /** S's element of the current lane: S[0], or S[l] for kRfactor. */
    static bool
    accIndexOk(const std::vector<Expr> &indices, const LaneRegion &r)
    {
        if (r.kind == RegionKind::kRfactor) {
            return indices.size() == 1 &&
                   indices[0].get() == r.loop->loopVar.get();
        }
        return isScalarIndex(indices);
    }

    /** `S[.] = v` (see accIndexOk) with v computable per lane. */
    static bool
    accStoreOk(const Stmt &s, LaneRegion *r)
    {
        if (s->kind != StmtKind::kBufferStore) {
            return false;
        }
        auto op = static_cast<const BufferStoreNode *>(s.get());
        return op->buffer->data.get() == r->acc->data.get() &&
               accIndexOk(op->indices, *r) && laneExpr(op->value, r);
    }

    /** R's body: loops with invariant bounds, invariant conditions or
     *  the lane guard, Block inits, and stores to S only. */
    static bool
    reduceOk(const Stmt &s, LaneRegion *r)
    {
        switch (s->kind) {
          case StmtKind::kFor: {
            auto op = static_cast<const ForNode *>(s.get());
            return hoistable(op->minValue, r) &&
                   hoistable(op->extent, r) && reduceOk(op->body, r);
          }
          case StmtKind::kIfThenElse: {
            auto op = static_cast<const IfThenElseNode *>(s.get());
            return op->elseBody == nullptr &&
                   (laneDep(op->cond, *r) ? guardOk(op->cond, r)
                                          : hoistable(op->cond, r)) &&
                   reduceOk(op->thenBody, r);
          }
          case StmtKind::kBlock: {
            auto op = static_cast<const BlockNode *>(s.get());
            for (const auto &rv : op->reduceVars) {
                if (rv.get() == r->loop->loopVar.get()) {
                    return false;
                }
            }
            return (op->init == nullptr || accStoreOk(op->init, r)) &&
                   reduceOk(op->body, r);
          }
          case StmtKind::kSeq: {
            auto op = static_cast<const SeqStmtNode *>(s.get());
            return std::all_of(op->seq.begin(), op->seq.end(),
                               [&](const Stmt &c) { return reduceOk(c, r); });
          }
          case StmtKind::kBufferStore:
            return accStoreOk(s, r);
          default:
            return false;
        }
    }

    static void
    flatten(const Stmt &s, std::vector<Stmt> *out)
    {
        if (s->kind == StmtKind::kSeq) {
            for (const auto &child :
                 static_cast<const SeqStmtNode *>(s.get())->seq) {
                flatten(child, out);
            }
        } else {
            out->push_back(s);
        }
    }

    /** Stack scratch slot holding one float/double element. */
    bool
    scalarStackSlot(const Buffer &buffer) const
    {
        auto it = slotOf_.find(buffer->data.get());
        if (it == slotOf_.end()) {
            return false;
        }
        const SlotPlan &plan = plans_[static_cast<size_t>(it->second)];
        return plan.stack && plan.numel == 1 &&
               bytecode::elemKindIsFloat(
                   static_cast<bytecode::ElemKind>(plan.kind));
    }

    /**
     * `op` can be a region's lane loop L: not the grid loop, not inside
     * another region's checked copy, min 0 and a literal lane count.
     */
    bool
    laneLoopOk(const ForNode *op, LaneRegion *r) const
    {
        if (checkedDepth_ > 0 || op == blockLoop_ ||
            !isZeroLiteral(op->minValue) ||
            op->extent->kind != ExprKind::kIntImm) {
            return false;
        }
        r->loop = op;
        r->lanes = static_cast<const IntImmNode *>(op->extent.get())->value;
        return r->lanes >= kMinLanes && r->lanes <= kStackScratchBytes / 8;
    }

    /** L's body without an outer lane guard, which it records. */
    static bool
    stripOuterGuard(Stmt *s, LaneRegion *r)
    {
        if ((*s)->kind != StmtKind::kIfThenElse) {
            return true;
        }
        auto guarded = static_cast<const IfThenElseNode *>(s->get());
        if (guarded->elseBody != nullptr || !matchGuard(guarded->cond, r)) {
            return false;
        }
        r->outerGuard = true;
        *s = guarded->thenBody;
        return true;
    }

    /** A kPrivate or else a kInPlace region rooted at `op`. */
    bool
    matchRegion(const ForNode *op, LaneRegion *r) const
    {
        if (matchPrivate(op, r)) {
            return true;
        }
        *r = LaneRegion();
        return matchInPlace(op, r);
    }

    /** Structural match of a kPrivate region rooted at `op`. */
    bool
    matchPrivate(const ForNode *op, LaneRegion *r) const
    {
        Stmt s = op->body;
        if (!laneLoopOk(op, r) || !stripOuterGuard(&s, r)) {
            return false;
        }
        if (s->kind == StmtKind::kAllocate) {
            auto alloc = static_cast<const AllocateNode *>(s.get());
            bytecode::ElemKind kind =
                bytecode::elemKindOfDtype(alloc->buffer->dtype);
            if (constantExtent(alloc->buffer->shape) != 1 ||
                (kind != bytecode::ElemKind::kF32 &&
                 kind != bytecode::ElemKind::kF64)) {
                return false;
            }
            r->acc = alloc->buffer;
            r->accInside = true;
            s = alloc->body;
        }
        std::vector<Stmt> steps;
        flatten(s, &steps);
        size_t at = 0;
        if (!r->accInside) {
            // S lives on across lanes: it must be reset before R
            // reads it, and no lane may be skipped.
            if (r->guard != nullptr || steps.empty() ||
                steps[0]->kind != StmtKind::kBufferStore) {
                return false;
            }
            r->init = static_cast<const BufferStoreNode *>(steps[0].get());
            r->acc = r->init->buffer;
            if (!scalarStackSlot(r->acc) ||
                !isScalarIndex(r->init->indices) ||
                !hoistable(r->init->value, r)) {
                return false;
            }
            at = 1;
        }
        if (steps.size() != at + 2 || steps[at]->kind != StmtKind::kFor ||
            !reduceOk(steps[at], r)) {
            return false;
        }
        r->reduce = static_cast<const ForNode *>(steps[at].get());
        Stmt back = steps[at + 1];
        bool backGuarded = r->outerGuard;
        if (back->kind == StmtKind::kIfThenElse) {
            auto guarded = static_cast<const IfThenElseNode *>(back.get());
            if (guarded->elseBody != nullptr ||
                !guardOk(guarded->cond, r)) {
                return false;
            }
            backGuarded = true;
            back = guarded->thenBody;
        }
        // Lanes past the guard must not write back.
        if (back->kind != StmtKind::kBufferStore ||
            (r->guard != nullptr && !backGuarded)) {
            return false;
        }
        r->out = static_cast<const BufferStoreNode *>(back.get());
        const Buffer &out = r->out->buffer;
        size_t before = r->loads.size();
        if (out->data.get() == r->acc->data.get() ||
            slotOf_.count(out->data.get()) == 0 ||
            r->out->indices.size() != 1 ||
            !laneAffine(r->out->indices[0], r) ||
            !laneExpr(r->out->value, r)) {
            return false;
        }
        // The write-back's array may only be read per lane inside the
        // write-back itself, which keeps its lane order; every other
        // read runs ahead of the earlier lanes' write-backs.
        int written = slotOf_.at(out->data.get());
        for (size_t i = 0; i < r->loads.size(); ++i) {
            const BufferLoadNode *load = r->loads[i];
            auto slot = slotOf_.find(load->buffer->data.get());
            if (slot == slotOf_.end()) {
                return false;
            }
            if (slot->second == written &&
                (i < before || !laneDep(load->indices[0], *r))) {
                return false;
            }
        }
        return true;
    }

    /**
     * `s` is one store to a parameter or scratch array at one index,
     * optionally in a Block whose init stores to the same element and
     * whose reduce variables all pass `rv_ok`. Records both stores.
     */
    template <typename RvOk>
    bool
    matchUpdate(const Stmt &s, LaneRegion *r, RvOk rv_ok) const
    {
        Stmt body = s;
        if (s->kind == StmtKind::kBlock) {
            auto block = static_cast<const BlockNode *>(s.get());
            for (const auto &rv : block->reduceVars) {
                if (!rv_ok(rv.get())) {
                    return false;
                }
            }
            if (block->init != nullptr) {
                if (block->init->kind != StmtKind::kBufferStore) {
                    return false;
                }
                r->outInit =
                    static_cast<const BufferStoreNode *>(block->init.get());
            }
            body = block->body;
        }
        if (body->kind != StmtKind::kBufferStore) {
            return false;
        }
        r->out = static_cast<const BufferStoreNode *>(body.get());
        const BufferStoreNode *init = r->outInit;
        return slotOf_.count(r->out->buffer->data.get()) != 0 &&
               r->out->indices.size() == 1 &&
               (init == nullptr ||
                (init->buffer->data.get() == r->out->buffer->data.get() &&
                 init->indices.size() == 1 &&
                 structuralEqual(init->indices[0], r->out->indices[0])));
    }

    /**
     * Structural match of a kInPlace region rooted at `op`: L's body
     * is a nest of loops with min 0 and literal extents around one
     * update `C[f] = v` (v reads C[f]), optionally in a Block whose
     * init is `C[f] = v0` and whose reduce variables exclude the lane.
     * f mentions the lane and is affine in the lane and the nest
     * variables; v and v0 are computable per lane and read C only at
     * f. Running the lane innermost keeps every element's update order
     * when no two lanes share an element (checked at run time by
     * st_radix) and C shares no memory with the arrays the region
     * reads (the entry flag).
     */
    bool
    matchInPlace(const ForNode *op, LaneRegion *r) const
    {
        Stmt s = op->body;
        if (!laneLoopOk(op, r) || !stripOuterGuard(&s, r)) {
            return false;
        }
        r->kind = RegionKind::kInPlace;
        while (s->kind == StmtKind::kFor && r->nest.size() < kMaxNest) {
            auto loop = static_cast<const ForNode *>(s.get());
            if (!isZeroLiteral(loop->minValue) ||
                !positiveLiteral(loop->extent)) {
                return false;
            }
            r->nest.push_back(loop);
            s = loop->body;
        }
        const VarNode *lane = op->loopVar.get();
        if (r->nest.empty() ||
            !matchUpdate(s, r, [&](const VarNode *rv) { return rv != lane; })) {
            return false;
        }
        r->reduce = r->nest[0];
        const Expr &f = r->out->indices[0];
        if (!mentions(f, lane) || !laneAffine(f, r) ||
            !laneExpr(r->out->value, r) ||
            (r->outInit != nullptr && !laneExpr(r->outInit->value, r))) {
            return false;
        }
        const VarNode *out = r->out->buffer->data.get();
        bool updates = false;
        for (const BufferLoadNode *load : r->loads) {
            bool at_f = load->buffer->data.get() == out &&
                        load->indices.size() == 1 &&
                        structuralEqual(load->indices[0], f);
            if (slotOf_.count(load->buffer->data.get()) == 0 ||
                (load->buffer->data.get() == out && !at_f)) {
                return false;
            }
            updates = updates || at_f;
        }
        return updates;
    }

    /**
     * Structural match of a kRfactor region rooted at `op`, the
     * Allocate of S: a float scratch of `lanes` elements around exactly
     * L and F. L's body is one reduction R into S[l] (reduceOk; the
     * lane guard sits inside R). F runs over the lanes from 0 and folds
     * them: `B[q] = B[q] + S[r]`, in a Block whose only in-scope reduce
     * variable is F's and whose init is `B[q] = v`. q and v read
     * neither B nor S and do not vary along F.
     */
    bool
    matchRfactor(const AllocateNode *op, LaneRegion *r) const
    {
        bytecode::ElemKind kind =
            bytecode::elemKindOfDtype(op->buffer->dtype);
        std::vector<Stmt> steps;
        flatten(op->body, &steps);
        if ((kind != bytecode::ElemKind::kF32 &&
             kind != bytecode::ElemKind::kF64) ||
            steps.size() != 2 || steps[0]->kind != StmtKind::kFor ||
            steps[1]->kind != StmtKind::kFor) {
            return false;
        }
        auto loop = static_cast<const ForNode *>(steps[0].get());
        if (!laneLoopOk(loop, r) ||
            constantExtent(op->buffer->shape) != r->lanes) {
            return false;
        }
        r->kind = RegionKind::kRfactor;
        r->acc = op->buffer;
        r->accInside = true;
        if (loop->body->kind != StmtKind::kFor || !reduceOk(loop->body, r)) {
            return false;
        }
        r->reduce = static_cast<const ForNode *>(loop->body.get());
        auto fold = static_cast<const ForNode *>(steps[1].get());
        const VarNode *part = fold->loopVar.get();
        if (!isZeroLiteral(fold->minValue) ||
            fold->extent->kind != ExprKind::kIntImm ||
            static_cast<const IntImmNode *>(fold->extent.get())->value !=
                r->lanes ||
            !matchUpdate(fold->body, r, [&](const VarNode *rv) {
                return rv == part || vars_.count(rv) == 0;
            })) {
            return false;
        }
        const VarNode *out = r->out->buffer->data.get();
        const Expr &q = r->out->indices[0];
        // The index of `e` when it loads one element of `data`.
        auto indexOf = [](const Expr &e, const VarNode *data) -> Expr {
            auto load = static_cast<const BufferLoadNode *>(e.get());
            return e->kind == ExprKind::kBufferLoad &&
                           load->buffer->data.get() == data &&
                           load->indices.size() == 1
                       ? load->indices[0]
                       : Expr();
        };
        auto invariant = [&](const Expr &e) {
            return !mentions(e, part) && hoistable(e, r);
        };
        auto add = static_cast<const BinaryNode *>(r->out->value.get());
        if (!r->out->buffer->dtype.isFloat() ||
            r->out->value->kind != ExprKind::kAdd ||
            indexOf(add->a, out) == nullptr ||
            !structuralEqual(indexOf(add->a, out), q) ||
            indexOf(add->b, r->acc->data.get()).get() != part ||
            !invariant(q) ||
            (r->outInit != nullptr && !invariant(r->outInit->value))) {
            return false;
        }
        for (const BufferLoadNode *load : r->loads) {
            if (slotOf_.count(load->buffer->data.get()) == 0 ||
                load->buffer->data.get() == out) {
                return false;
            }
        }
        return true;
    }

    /**
     * Post-emission half of the match: every access of the region has
     * a typed pointer (the checked version decided the slot kinds).
     * Sets `*flag` to the entry flag that proves the written array
     * shares no memory with another array the region reads, or leaves
     * it empty when no such flag is needed.
     */
    bool
    regionIsTyped(const LaneRegion &r, const std::string &id,
                  std::string *flag)
    {
        auto typed = [&](const Buffer &buffer) {
            const SlotPlan &plan =
                plans_[static_cast<size_t>(slotFor(buffer))];
            return cType(plan.kind) != nullptr &&
                   bytecode::elemKindIsFloat(
                       static_cast<bytecode::ElemKind>(plan.kind)) ==
                       buffer->dtype.isFloat();
        };
        if (!typed(r.out->buffer)) {
            return false;
        }
        int written = slotFor(r.out->buffer);
        std::set<int> read;
        for (const BufferLoadNode *load : r.loads) {
            if (!typed(load->buffer)) {
                return false;
            }
            read.insert(slotFor(load->buffer));
        }
        read.erase(written);
        std::string apart;
        for (int slot : read) {
            if (written < numParamSlots_ && slot < numParamSlots_) {
                apart += std::string(apart.empty() ? "" : " & ") +
                         "st_apart(ctx, " + slotTok(written) + ", " +
                         slotTok(slot) + ")";
            }
        }
        if (!apart.empty()) {
            *flag = "f" + id;
            entryFlags_ += "    const int32_t " + *flag + " = " + apart +
                           ";\n";
        }
        return true;
    }

    /**
     * Emit a matched region twice: the fast version (below) and, as
     * its fallback, `checked_copy`, the region's unchanged
     * per-element-checked emission (in which no region is sunk). Any
     * failed check in the fast version jumps to the checked version
     * before the fast version has written anything but its private
     * array, so the checked version re-runs the whole region for this
     * outer iteration and raises the VM's exact fault.
     */
    template <typename Checked>
    void
    emitSunkRegion(const LaneRegion &r, Checked checked_copy)
    {
        std::string id = std::to_string(regionCount_++);
        std::string outer = std::move(body_);
        body_.clear();
        ++indent_;
        ++checkedDepth_;
        checked_copy();
        --checkedDepth_;
        std::string checked = std::move(body_);
        body_.clear();
        std::string flag;
        bool typed = regionIsTyped(r, id, &flag);
        if (typed) {
            emitFastRegion(r, id, flag);
        }
        --indent_;
        std::string fast = std::move(body_);
        body_ = std::move(outer);
        line("{");
        body_ += typed ? fast : checked;
        line("}");
        if (typed) {
            line("st_slow" + id + ": {");
            body_ += checked;
            line("}");
            line("st_done" + id + ":;");
        }
    }

    /** `name` = the guard's active-lane count, at most the lane count. */
    void
    emitLaneCount(const LaneRegion &r, const std::string &name)
    {
        std::string lanes = intLiteral(r.lanes);
        std::string a = r.guardA != nullptr ? emitI(r.guardA) : intLiteral(0);
        std::string b = emitI(r.guardB);
        line("int64_t " + name + " = " + b + " - " + a + ";");
        line("if (" + name + " > " + lanes + ") { " + name + " = " + lanes +
             "; }");
    }

    /**
     * The fast version: R (kInPlace: the nest) runs outermost and each
     * of its stores becomes a branch-free loop over the active lanes.
     * kPrivate and kRfactor keep one accumulator per lane in a C stack
     * array standing in for S, check lane-invariant loads once per R
     * iteration and each lane-dependent access by one compare of its
     * first- and last-lane offsets, all ahead of the lane loop; then
     * they write S back (kPrivate) or fold it (kRfactor). kInPlace
     * updates its output directly, so it checks everything before the
     * nest (emitPrecheck).
     */
    void
    emitFastRegion(const LaneRegion &r, const std::string &id,
                   const std::string &flag)
    {
        line("/* sunk lane region " + id + " (" + r.loop->loopVar->name +
             "): fast version */");
        slowLabel_ = "st_slow" + id;
        lane_.region = &r;
        const VarNode *lane = r.loop->loopVar.get();
        nonNegVars_.insert(lane);
        std::string skip = flag.empty() ? "" : "!" + flag;
        lane_.count = intLiteral(r.lanes);
        // kRfactor's guard may vary along R: its count is taken where
        // the guard sits (emitReduce).
        if (r.guard != nullptr && r.kind != RegionKind::kRfactor) {
            lane_.count = "m" + id;
            emitLaneCount(r, lane_.count);
            skip = lane_.count + " <= 0" + (skip.empty() ? "" : " || ") +
                   skip;
        }
        if (!skip.empty()) {
            line("if (" + skip + ") { goto " + slowLabel_ + "; }");
        }
        if (r.acc != nullptr) {
            lane_.acc = r.acc->data.get();
            lane_.array = "a" + id;
            const char *ctype = cType(
                static_cast<int>(bytecode::elemKindOfDtype(r.acc->dtype)));
            line(std::string(ctype) + " " + lane_.array + "[" +
                 std::to_string(r.lanes) + "] = {0};");
        }
        LaneRegion lane_only;
        if (r.kind == RegionKind::kInPlace) {
            emitPrecheck(r);
            // Inside the nest, hoist what the lane leaves invariant.
            lane_only = r;
            lane_only.nest.clear();
            lane_.region = &lane_only;
            lane_.prechecked = true;
        }
        if (r.init != nullptr) {
            emitLaneStore(r.init, false);
        }
        emitLoop(r.reduce, [&] { emitReduce(r.reduce->body); });
        if (r.kind == RegionKind::kPrivate) {
            emitLaneStore(r.out, false);
        }
        if (r.kind == RegionKind::kPrivate && !r.accInside) {
            // S outlives L: leave it holding the last lane's value.
            line("p" + slotTok(slotFor(r.acc)) + "[0] = " + lane_.array +
                 "[" + lane_.count + " - 1];");
        }
        if (r.kind == RegionKind::kRfactor) {
            emitFold(r, id);
        }
        line("goto st_done" + id + ";");
        nonNegVars_.erase(lane);
        vars_.erase(lane);
        slowLabel_.clear();
        lane_ = LaneState();
    }

    /** "(const int64_t[]){a, b, ...}" */
    static std::string
    int64Array(const std::vector<std::string> &items)
    {
        std::string out = "(const int64_t[]){";
        for (size_t i = 0; i < items.size(); ++i) {
            out += (i == 0 ? "" : ", ") + items[i];
        }
        return out + "}";
    }

    /**
     * Check the range of offset `off` into `buffer` over
     * 0 <= dims[d] < extents[d], where `off` is affine in `dims`: its
     * value at zero and its coefficient per variable bound it
     * (st_box, overflow-checked, so a wrapped product cannot pass on
     * its end points alone). Returns the coefficients' tokens and
     * leaves `dims` bound to literals.
     */
    std::vector<std::string>
    emitRangeCheck(const Buffer &buffer, const Expr &off,
                   const std::vector<const VarNode *> &dims,
                   const std::vector<std::string> &extents)
    {
        // The offset at one point: dims[unit] = 1, the others 0.
        auto at = [&](size_t unit) {
            for (size_t d = 0; d < dims.size(); ++d) {
                vars_[dims[d]] = CVar{false, intLiteral(d == unit ? 1 : 0)};
            }
            return emitI(off);
        };
        std::string f0 = at(dims.size());
        std::vector<std::string> coef;
        for (size_t d = 0; d < dims.size(); ++d) {
            std::string fd = at(d);
            coef.push_back(tmp());
            line("int64_t " + coef.back() + " = (int64_t)((uint64_t)" + fd +
                 " - (uint64_t)" + f0 + ");");
        }
        std::string lo = tmp();
        std::string hi = tmp();
        line("int64_t " + lo + ", " + hi + ";");
        line("if (!st_box(" + f0 + ", " + int64Array(coef) + ", " +
             int64Array(extents) + ", " + std::to_string(dims.size()) +
             ", &" + lo + ", &" + hi + ")) { goto " + slowLabel_ + "; }");
        line("ST_SPAN(" + slotTok(slotFor(buffer)) + ", " + lo + ", " + hi +
             ", " + slowLabel_ + ");");
        return coef;
    }

    /**
     * kInPlace's checks, all ahead of the first write: the
     * region-invariant subtrees once (checked loads, kept for the
     * nest), then every access's range over the active lanes and the
     * nest, from its offset's value at zero and its coefficient per
     * variable (st_box), and that no two lanes update one element of
     * the output (st_radix).
     */
    void
    emitPrecheck(const LaneRegion &r)
    {
        std::vector<const BufferLoadNode *> loads;
        hoist(r.out->value, &loads);
        hoist(r.out->indices[0], &loads);
        std::vector<std::pair<const Buffer *, Expr>> ranges = {
            {&r.out->buffer, r.out->indices[0]}};
        if (r.outInit != nullptr) {
            hoist(r.outInit->value, &loads);
            hoist(r.outInit->indices[0], &loads);
            ranges.emplace_back(&r.outInit->buffer, r.outInit->indices[0]);
        }
        for (const BufferLoadNode *load : loads) {
            ranges.emplace_back(&load->buffer, load->indices[0]);
        }
        std::vector<const VarNode *> dims = {r.loop->loopVar.get()};
        std::vector<std::string> extents = {lane_.count};
        for (const ForNode *loop : r.nest) {
            dims.push_back(loop->loopVar.get());
            extents.push_back(intLiteral(
                static_cast<const IntImmNode *>(loop->extent.get())->value));
        }
        for (size_t i = 0; i < ranges.size(); ++i) {
            const auto &[buffer, off] = ranges[i];
            bool seen = false;
            for (size_t j = 0; j < i && !seen; ++j) {
                seen = (*ranges[j].first)->data.get() ==
                           (*buffer)->data.get() &&
                       structuralEqual(ranges[j].second, off);
            }
            if (seen) {
                continue;
            }
            std::vector<std::string> coef =
                emitRangeCheck(*buffer, off, dims, extents);
            if (i == 0) {
                line("if (!st_radix(" + int64Array(coef) + ", " +
                     int64Array(extents) + ", " +
                     std::to_string(dims.size()) + ")) { goto " +
                     slowLabel_ + "; }");
            }
        }
        for (const VarNode *dim : dims) {
            vars_.erase(dim);
        }
    }

    /**
     * kRfactor's F: q and B's element checked once, the element kept
     * in a local of B's type (so every step rounds like a store) and
     * stored once.
     */
    void
    emitFold(const LaneRegion &r, const std::string &id)
    {
        int slot = slotFor(r.out->buffer);
        std::string k = slotTok(slot);
        std::string q = emitI(r.out->indices[0]);
        line("ST_SPAN(" + k + ", " + q + ", " + q + ", " + slowLabel_ + ");");
        std::string b = "b" + id;
        std::string first = r.outInit != nullptr
                                ? emitF(r.outInit->value)
                                : "p" + k + "[" + q + "]";
        line(std::string(cType(plans_[static_cast<size_t>(slot)].kind)) +
             " " + b + " = " + first + ";");
        std::string l = "l" + std::to_string(tmpCount_++);
        line("for (int64_t " + l + " = 0; " + l + " < " +
             intLiteral(r.lanes) + "; ++" + l + ") {");
        line("    " + b + " = (double)" + b + " + (double)" + lane_.array +
             "[" + l + "];");
        line("}");
        line("p" + k + "[" + q + "] = " + b + ";");
    }

    /** R's body in the fast version; see reduceOk for the shapes. */
    void
    emitReduce(const Stmt &s)
    {
        switch (s->kind) {
          case StmtKind::kFor: {
            auto op = static_cast<const ForNode *>(s.get());
            emitLoop(op, [&] { emitReduce(op->body); });
            break;
          }
          case StmtKind::kIfThenElse: {
            auto op = static_cast<const IfThenElseNode *>(s.get());
            if (!laneDep(op->cond, *lane_.region)) {
                std::string c = emitI(op->cond);
                line("if (" + c + " != 0) {");
                ++indent_;
                emitReduce(op->thenBody);
                --indent_;
                line("}");
            } else if (lane_.region->kind != RegionKind::kRfactor) {
                // The lane guard: every lane a loop visits passes it.
                emitReduce(op->thenBody);
            } else {
                // The lane guard at this R iteration.
                std::string outer = lane_.count;
                lane_.count = "m" + std::to_string(tmpCount_++);
                emitLaneCount(*lane_.region, lane_.count);
                line("if (" + lane_.count + " > 0) {");
                ++indent_;
                emitReduce(op->thenBody);
                --indent_;
                line("}");
                lane_.count = outer;
            }
            break;
          }
          case StmtKind::kBlock: {
            auto op = static_cast<const BlockNode *>(s.get());
            if (op->init != nullptr) {
                emitInit(op, [&] {
                    emitLaneStore(
                        static_cast<const BufferStoreNode *>(op->init.get()),
                        false);
                });
            }
            emitReduce(op->body);
            break;
          }
          case StmtKind::kSeq:
            for (const auto &child :
                 static_cast<const SeqStmtNode *>(s.get())->seq) {
                emitReduce(child);
            }
            break;
          default:
            emitLaneStore(static_cast<const BufferStoreNode *>(s.get()),
                          true);
        }
    }

    /**
     * Emit e's maximal lane-invariant subtrees, memoised by node, and
     * collect its lane-dependent loads other than S's: the accesses a
     * lane loop makes unchecked.
     */
    void
    hoist(const Expr &e, std::vector<const BufferLoadNode *> *lane_loads)
    {
        if (laneDep(e, *lane_.region)) {
            if (e->kind == ExprKind::kBufferLoad &&
                static_cast<const BufferLoadNode *>(e.get())
                        ->buffer->data.get() != lane_.acc) {
                lane_loads->push_back(
                    static_cast<const BufferLoadNode *>(e.get()));
            }
            anyOperand(e, [&](const Expr &c) {
                hoist(c, lane_loads);
                return false;
            });
            return;
        }
        if (e->kind != ExprKind::kIntImm && e->kind != ExprKind::kFloatImm &&
            e->kind != ExprKind::kVar) {
            lane_.hoisted[e.get()] = isFloatExpr(e) ? emitF(e) : emitI(e);
        }
    }

    /**
     * One store of the region as lane loop(s): its invariant subtrees
     * and (unless prechecked) range checks first, then
     * `for (l < active lanes)`. A hot store (an update inside R) gets a
     * second copy of the loop with the literal lane count, taken when
     * every lane is active, which the host compiler vectorizes without
     * a scalar epilogue. A prechecked lane loop writes an output array
     * in place; `ivdep` passes on what the checks proved, that its
     * lanes touch distinct elements of an array it does not read
     * otherwise.
     */
    void
    emitLaneStore(const BufferStoreNode *store, bool hot)
    {
        const LaneRegion &r = *lane_.region;
        bool to_acc = store->buffer->data.get() == lane_.acc;
        auto outer = lane_.hoisted;
        std::vector<const BufferLoadNode *> lane_loads;
        hoist(store->value, &lane_loads);
        std::vector<std::pair<const Buffer *, Expr>> ranges;
        for (const BufferLoadNode *load : lane_loads) {
            ranges.emplace_back(&load->buffer, load->indices[0]);
        }
        if (!to_acc) {
            hoist(store->indices[0], &lane_loads);
            ranges.emplace_back(&store->buffer, store->indices[0]);
        }
        for (const auto &[buffer, off] : ranges) {
            if (lane_.prechecked) {
                break;
            }
            emitRangeCheck(*buffer, off, {r.loop->loopVar.get()},
                           {lane_.count});
        }
        auto loop = [&](const std::string &bound) {
            std::string l = "l" + std::to_string(tmpCount_++);
            if (lane_.prechecked) {
                line("#pragma GCC ivdep");
            }
            line("for (int64_t " + l + " = 0; " + l + " < " + bound +
                 "; ++" + l + ") {");
            ++indent_;
            vars_[r.loop->loopVar.get()] = CVar{false, l};
            lane_.inLoop = true;
            bool flt = store->buffer->dtype.isFloat();
            std::string v = flt ? emitF(store->value) : emitI(store->value);
            std::string off =
                to_acc ? "" : emitOffset(store->buffer, store->indices);
            emitStore(store->buffer, off, v, flt);
            lane_.inLoop = false;
            --indent_;
            line("}");
        };
        std::string lanes = intLiteral(r.lanes);
        if (hot && lane_.count != lanes) {
            line("if (" + lane_.count + " == " + lanes + ") {");
            ++indent_;
            loop(lanes);
            --indent_;
            line("} else {");
            ++indent_;
            loop(lane_.count);
            --indent_;
            line("}");
        } else {
            loop(lane_.count);
        }
        lane_.hoisted = std::move(outer);
    }

    PrimFunc func_;
    std::string keyTag_;
    std::string body_;
    int indent_ = 1;
    int tmpCount_ = 0;
    std::vector<std::string> slotNames_;
    int numParamSlots_ = 0;
    std::vector<std::string> scalars_;
    std::unordered_map<const VarNode *, size_t> scalarIndex_;
    std::vector<bool> scalarUsed_;
    std::unordered_map<const VarNode *, CVar> vars_;
    std::unordered_map<const VarNode *, int> slotOf_;
    /** Parallel to slotNames_. */
    std::vector<SlotPlan> plans_;
    std::unordered_set<const VarNode *> nonNegVars_;
    const ForNode *blockLoop_ = nullptr;
    /** Sunk regions emitted so far (names their labels and arrays). */
    int regionCount_ = 0;
    /** Nesting depth of checked copies being emitted. */
    int checkedDepth_ = 0;
    /** Entry declarations of the regions' no-alias flags. */
    std::string entryFlags_;
    /** Where a failed check jumps while a fast version is emitted;
     *  empty otherwise. */
    std::string slowLabel_;
    LaneState lane_;
};

} // namespace

EmitResult
emitC(const ir::PrimFunc &func, const std::string &key_tag)
{
    std::string diag = transform::stage3ExecDiagnostic(func);
    USER_CHECK(diag.empty())
        << "cannot compile '" << func->name << "' to native code: "
        << diag;
    Emitter emitter(func, key_tag);
    return emitter.run();
}

} // namespace native
} // namespace runtime
} // namespace sparsetir
