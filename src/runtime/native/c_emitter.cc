#include "runtime/native/c_emitter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/expr.h"
#include "ir/stmt.h"
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
const char kPreamble[] = R"(#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
    s->base = (unsigned char *)calloc(n > 0 ? (size_t)n : 1, (size_t)ebytes);
    if (s->base == NULL) { return st_fault(ctx, ST_FAULT_OOM, slot, n); }
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
        int slot = slotFor(buffer);
        std::string t = tmp();
        std::string helper = flt ? "st_ld_f" : "st_ld_i";
        std::string decl = std::string(flt ? "double " : "int64_t ") +
                           t + "; ";
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
                line("if (" + b + " == 0) { return st_fault(ctx, "
                     "ST_FAULT_DIV0, -1, 0); }");
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
            line("int64_t " + t + " = 0;");
            line("ST_CALL(st_search(ctx, " + slotTok(slot) + ", " +
                 lo + ", " + hi + ", " + val + ", " +
                 (op->op == Builtin::kUpperBound ? "1" : "0") + ", &" +
                 t + "));");
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
                // Fire the init only when every in-scope reduce var
                // is at zero; vars not in scope never veto.
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
                    emitStmt(op->init);
                } else {
                    line("if (" + cond + ") {");
                    ++indent_;
                    emitStmt(op->init);
                    --indent_;
                    line("}");
                }
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

    void
    emitFor(const ForNode *op)
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
        emitStmt(op->body);
        vars_.erase(op->loopVar.get());
        nonNegVars_.erase(op->loopVar.get());
        --indent_;
        line("}");
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
