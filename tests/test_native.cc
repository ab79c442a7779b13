/**
 * @file
 * Native (C -> .so) tier tests: emitter golden-source checks over the
 * six kernel families and over which families get sunk lane regions,
 * differential runs asserting the dlopen'd kernels are bitwise
 * identical to the interpreter and the VM (block windows, offset views,
 * partial lane chunks and aliased arrays included), fault parity with
 * the VM when a sunk region falls back to its checked copy, the
 * persistent artifact cache (warm start across engine restarts with
 * zero recompiles, corrupted and stale artifacts rejected and
 * rebuilt), the compiler processes (fake compilers written as shell
 * scripts through SPARSETIR_NATIVE_CC: a hung one is killed at its
 * deadline with no process left behind, kernels of different callers
 * and of one hyb artifact compile concurrently), the engine's
 * promotion policy (threshold crossing, one compile under 8-thread
 * contention, atomic swap, ~Engine killing a hung compiler), graceful
 * degradation to bytecode when the C compiler is missing, and BSR's
 * overwrite contract on every tier.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ops.h"
#include "core/pipeline.h"
#include "dfg/lower.h"
#include "engine/engine.h"
#include "format/bsr.h"
#include "format/hyb.h"
#include "graph/generator.h"
#include "graph/pruned_weights.h"
#include "ir/stmt.h"
#include "model/graphsage.h"
#include "observe/metrics.h"
#include "runtime/bytecode/compiler.h"
#include "runtime/bytecode/vm.h"
#include "runtime/interpreter.h"
#include "runtime/native/c_emitter.h"
#include "runtime/native/native_compiler.h"
#include "test_util.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"

namespace sparsetir {
namespace {

using format::Csr;
using runtime::Backend;
using runtime::Bindings;
using runtime::NDArray;
using testutil::bitwiseEqual;
using testutil::randomVector;
namespace native = runtime::native;

/** Scoped environment override, restoring the prior value on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_) {
            old_ = old;
        }
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }

    ~EnvGuard()
    {
        if (had_) {
            ::setenv(name_.c_str(), old_.c_str(), 1);
        } else {
            ::unsetenv(name_.c_str());
        }
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

/** Fresh cache dir + SPARSETIR_NATIVE_CACHE_DIR override for one test:
 *  every test starts cold, so compile counts are deterministic. */
class CacheDirGuard
{
  public:
    CacheDirGuard()
    {
        char tmpl[] = "/tmp/sparsetir-native-test-XXXXXX";
        char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir != nullptr ? dir : "/tmp";
        env_ = std::make_unique<EnvGuard>("SPARSETIR_NATIVE_CACHE_DIR",
                                          dir_.c_str());
    }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    std::unique_ptr<EnvGuard> env_;
};

template <typename Pred>
bool
waitFor(Pred pred, int timeout_ms = 30000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/** Writes an executable shell script (a fake compiler) to `path`. */
void
writeScript(const std::string &path, const std::string &body)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "#!/bin/sh\n" << body;
    }
    ASSERT_EQ(::chmod(path.c_str(), 0755), 0) << path;
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/** True when this process has no child, running or unreaped. */
bool
noChildProcess()
{
    errno = 0;
    return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

/** CPUs this process may run on. */
int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return ::sched_getaffinity(0, sizeof(set), &set) == 0
               ? CPU_COUNT(&set)
               : 1;
}

/** SpMM-CSR bindings over one structure (the shared fixture shape). */
struct SpmmFixture
{
    Csr a;
    int64_t feat;
    NDArray indptr, indices, values, b;

    SpmmFixture(int64_t rows, int64_t nnz, uint64_t seed,
                int64_t feat_size = 16)
        : SpmmFixture(graph::powerLawGraph(rows, nnz, 1.8, seed),
                      feat_size, seed + 1)
    {
    }

    SpmmFixture(Csr csr, int64_t feat_size, uint64_t b_seed)
        : a(std::move(csr)),
          feat(feat_size),
          indptr(NDArray::fromInt32(a.indptr)),
          indices(NDArray::fromInt32(a.indices)),
          values(NDArray::fromFloat(a.values)),
          b(NDArray::fromFloat(randomVector(a.cols * feat_size, b_seed)))
    {
    }

    Bindings
    bindings(NDArray *c) const
    {
        Bindings bound;
        bound.scalars = {{"m", a.rows},
                         {"n", a.cols},
                         {"nnz", a.nnz()},
                         {"feat_size", feat}};
        bound.arrays = {{"J_indptr", const_cast<NDArray *>(&indptr)},
                        {"J_indices", const_cast<NDArray *>(&indices)},
                        {"A_data", const_cast<NDArray *>(&values)},
                        {"B_data", const_cast<NDArray *>(&b)},
                        {"C_data", c}};
        return bound;
    }

    NDArray
    interpreterReference() const
    {
        auto func = core::compileSpmmCsrFunc(feat, core::SpmmSchedule());
        NDArray c({a.rows * feat}, ir::DataType::float32());
        runtime::runInterpreted(func, bindings(&c));
        return c;
    }
};

/** SDDMM bindings over one structure: B[p] = A[p] * <X[row p], Y[:, col p]>. */
struct SddmmFixture
{
    Csr a;
    int64_t feat;
    NDArray indptr, indices, values, x, y;

    SddmmFixture(Csr csr, int64_t feat_size, uint64_t seed)
        : a(std::move(csr)),
          feat(feat_size),
          indptr(NDArray::fromInt32(a.indptr)),
          indices(NDArray::fromInt32(a.indices)),
          values(NDArray::fromFloat(a.values)),
          x(NDArray::fromFloat(randomVector(a.rows * feat_size, seed))),
          y(NDArray::fromFloat(randomVector(feat_size * a.cols, seed + 1)))
    {
    }

    Bindings
    bindings(NDArray *out) const
    {
        Bindings bound;
        bound.scalars = {{"m", a.rows},
                         {"n", a.cols},
                         {"nnz", a.nnz()},
                         {"feat_size", feat}};
        bound.arrays = {{"J_indptr", const_cast<NDArray *>(&indptr)},
                        {"J_indices", const_cast<NDArray *>(&indices)},
                        {"A_data", const_cast<NDArray *>(&values)},
                        {"X_data", const_cast<NDArray *>(&x)},
                        {"Y_data", const_cast<NDArray *>(&y)},
                        {"B_data", out}};
        return bound;
    }
};

/** SpMM-BSR bindings over one structure. */
struct BsrFixture
{
    format::Bsr a;
    int64_t feat;
    NDArray indptr, indices, values, b;

    BsrFixture(format::Bsr bsr, int64_t feat_size, uint64_t seed)
        : a(std::move(bsr)),
          feat(feat_size),
          indptr(NDArray::fromInt32(a.indptr)),
          indices(NDArray::fromInt32(a.indices)),
          values(NDArray::fromFloat(a.values)),
          b(NDArray::fromFloat(randomVector(
              a.blockCols * a.blockSize * feat_size, seed)))
    {
    }

    int64_t
    outNumel() const
    {
        return a.blockRows * a.blockSize * feat;
    }

    Bindings
    bindings(NDArray *c) const
    {
        Bindings bound;
        bound.scalars = {{"mb", a.blockRows},
                         {"nb", a.blockCols},
                         {"nnzb", a.nnzBlocks()},
                         {"feat_size", feat}};
        bound.arrays = {{"JO_indptr", const_cast<NDArray *>(&indptr)},
                        {"JO_indices", const_cast<NDArray *>(&indices)},
                        {"A_data", const_cast<NDArray *>(&values)},
                        {"B_data", const_cast<NDArray *>(&b)},
                        {"C_data", c}};
        return bound;
    }
};

/** `numel` copies of a value no kernel here produces. */
NDArray
prefilled(int64_t numel)
{
    return NDArray::fromFloat(
        std::vector<float>(static_cast<size_t>(numel), 7.25f));
}

/** Interpreter-engine reference for one engine-level spmmCsr dispatch. */
NDArray
engineSpmmReference(const Csr &a, int64_t feat,
                    const std::vector<float> &b_host)
{
    engine::EngineOptions options;
    options.backend = Backend::kInterpreter;
    engine::Engine eng(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    return c;
}

/** The emitted entry function, without the fixed preamble. */
std::string
kernelBody(const std::string &source)
{
    size_t at = source.find("int32_t sparsetir_kernel_run(StCtx *ctx)");
    return at == std::string::npos ? std::string() : source.substr(at);
}

/**
 * `body` without the fast versions of its sunk lane regions (each from
 * its marker comment to its `goto st_done<id>;`), which are appended
 * to `*fast`.
 */
std::string
withoutFastVersions(const std::string &body, std::vector<std::string> *fast)
{
    std::string rest;
    size_t at = 0;
    for (;;) {
        size_t begin = body.find("/* sunk lane region ", at);
        if (begin == std::string::npos) {
            break;
        }
        size_t end = body.find('\n', body.find("goto st_done", begin));
        rest += body.substr(at, begin - at);
        fast->push_back(body.substr(begin, end - begin));
        at = end;
    }
    return rest + body.substr(at);
}

/** Distinct slot numbers of every `<macro>(k, ...)` use in `body`. */
std::set<std::string>
macroSlots(const std::string &body, const std::string &macro)
{
    std::set<std::string> slots;
    std::regex use(macro + R"(\((\d+), )");
    for (std::sregex_iterator it(body.begin(), body.end(), use), end;
         it != end; ++it) {
        slots.insert((*it)[1].str());
    }
    return slots;
}

/**
 * An InternalError's diagnostic without its throw site, failed
 * condition and compared values ("file:line: Internal check failed:
 * (cond) (a vs b) "), which differ between backends that raise the
 * same diagnostic. The condition ends at its matching parenthesis.
 */
std::string
diagnostic(const std::string &what)
{
    const std::string marker = "Internal check failed: ";
    size_t pos = what.find(marker);
    if (pos == std::string::npos) {
        return what;
    }
    pos += marker.size();
    /** Past the parenthesized group at `at` and its space. */
    auto skipGroup = [&](size_t at) {
        int depth = 0;
        for (size_t i = at; i < what.size(); ++i) {
            depth += what[i] == '(' ? 1 : what[i] == ')' ? -1 : 0;
            if (depth == 0) {
                return i + 2;
            }
        }
        return what.size();
    };
    pos = skipGroup(pos);
    size_t close = what.find(") ", pos);
    if (pos < what.size() && what[pos] == '(' &&
        close != std::string::npos &&
        what.find(" vs ", pos) < close) {
        pos = skipGroup(pos);
    }
    return pos < what.size() ? what.substr(pos) : std::string();
}

/** Runs `fn`, returning the InternalError diagnostic it raised. */
template <typename Fn>
std::string
internalErrorOf(Fn fn)
{
    try {
        fn();
    } catch (const InternalError &e) {
        return diagnostic(e.what());
    }
    return "(no InternalError)";
}

/** f(base, n, out, v): for i in [0, n): out[base+i] += v[i]. */
ir::PrimFunc
rebasedAccumulateFunc()
{
    auto func = ir::primFunc("rebased");
    ir::Var base = ir::var("base");
    ir::Var n = ir::var("n");
    ir::Var i = ir::var("i");
    ir::Buffer out = ir::denseBuffer("out", {ir::intImm(64)},
                                     ir::DataType::float32());
    ir::Buffer v = ir::denseBuffer("v", {ir::intImm(64)},
                                   ir::DataType::float32());
    func->params = {base, n, out->data, v->data};
    func->bufferMap.emplace_back(out->data, out);
    func->bufferMap.emplace_back(v->data, v);
    ir::Expr idx = ir::add(base, i);
    func->body = ir::forLoop(
        i, ir::intImm(0), n,
        ir::bufferStore(out, {idx},
                        ir::add(ir::bufferLoad(out, {idx}),
                                ir::bufferLoad(v, {i}))));
    func->stage = ir::IrStage::kStage3;
    return func;
}

// ---------------------------------------------------------------------
// Emitter golden-source checks
// ---------------------------------------------------------------------

TEST(NativeEmitter, GoldenSourceAcrossSixKernelFamilies)
{
    struct Family
    {
        const char *tag;
        ir::PrimFunc func;
    };
    std::vector<Family> families;
    families.push_back(
        {"golden-spmm-csr",
         core::compileSpmmCsrFunc(16, core::SpmmSchedule())});
    families.push_back(
        {"golden-sddmm",
         core::compileSddmmFunc(16, core::SddmmSchedule())});
    families.push_back({"golden-spmm-bsr",
                        core::compileBsrSpmmFunc(2, 8, false)});
    families.push_back({"golden-sddmm-bsr",
                        core::compileBsrSddmmFunc(2, 8, false)});
    families.push_back({"golden-spmm-srbcrs",
                        core::compileSrbcrsSpmmFunc(2, 2, 8)});
    families.push_back(
        {"golden-rgms-ell",
         core::compileEllRgmsFunc(8, 4, 8, 8, "p0", false)});

    for (const Family &family : families) {
        SCOPED_TRACE(family.tag);
        native::EmitResult emitted =
            native::emitC(family.func, family.tag);

        // A self-contained translation unit with the fixed entry and
        // meta symbols, identified by the caller's key tag.
        EXPECT_NE(emitted.source.find(
                      "int32_t sparsetir_kernel_run(StCtx *ctx)"),
                  std::string::npos);
        EXPECT_NE(emitted.source.find("sparsetir_kernel_meta"),
                  std::string::npos);
        EXPECT_NE(emitted.source.find(std::string("tag=") +
                                      family.tag),
                  std::string::npos);

        // Access contract. The fast-path macros index the typed
        // pointer only under the inline bounds check against the
        // entry-hoisted bound, and hand every other access to the
        // checked helpers (st_resolve + runtime kind), which raise
        // the VM's faults.
        const std::string &src = emitted.source;
        EXPECT_NE(src.find("if ((uint64_t)(off) < (uint64_t)n##k) { "
                           "dst = p##k[off]; } else { ST_CALL(slow(ctx, "
                           "k, off, &dst)); }"),
                  std::string::npos);
        EXPECT_NE(src.find("if ((uint64_t)(off) < (uint64_t)n##k) { "
                           "p##k[off] = val; } else { ST_CALL(slow(ctx, "
                           "k, off, val)); }"),
                  std::string::npos);
        for (const char *helper :
             {"st_ld_i(", "st_ld_f(", "st_st_i(", "st_st_f(",
              "st_resolve("}) {
            EXPECT_NE(src.find(std::string("static int32_t ") + helper),
                      std::string::npos)
                << helper;
        }

        // The fast versions of sunk lane regions index typed pointers
        // in their lane loops; each such slot's lane range is checked
        // first (ST_SPAN) with the checked version as the jump target,
        // except the copy of the last lane into an outer accumulator.
        std::vector<std::string> fast;
        const std::string body =
            withoutFastVersions(kernelBody(src), &fast);
        ASSERT_FALSE(body.empty());
        for (const std::string &version : fast) {
            EXPECT_NE(version.find("st_slow"), std::string::npos);
            EXPECT_EQ(version.find("ST_CALL("), std::string::npos);
            std::regex slot_index(R"(\bp(\d+)\[)");
            for (std::sregex_iterator it(version.begin(), version.end(),
                                         slot_index),
                 end;
                 it != end; ++it) {
                std::string k = (*it)[1].str();
                EXPECT_TRUE(
                    version.find("ST_SPAN(" + k + ", ") !=
                        std::string::npos ||
                    version.find("p" + k + "[0] = a") != std::string::npos)
                    << "slot " << k << " in\n" << version;
            }
        }
        // Constant-extent scratch lives on the stack: no allocation
        // call in any family.
        EXPECT_EQ(body.find("st_alloc("), std::string::npos);
        // The typed pointers are only ever indexed inside ST_LD/ST_ST;
        // the one other `p<k>[` form is a stack scratch declaration.
        std::regex indexed(R"(\bp\d+\[)");
        std::regex stack_decl(
            R"((float|double|int32_t|int64_t) p\d+\[\d+\] = \{0\};)");
        auto count = [&](const std::regex &re) {
            return std::distance(
                std::sregex_iterator(body.begin(), body.end(), re),
                std::sregex_iterator());
        };
        EXPECT_EQ(count(indexed), count(stack_decl));
        // Every fast-path slot has its bound hoisted to entry; for a
        // parameter slot it is the eligibility-checked st_fast value.
        std::set<std::string> slots = macroSlots(body, "ST_LD");
        std::set<std::string> stored = macroSlots(body, "ST_ST");
        slots.insert(stored.begin(), stored.end());
        EXPECT_FALSE(slots.empty());
        for (const std::string &k : slots) {
            EXPECT_NE(body.find("const int64_t n" + k + " = "),
                      std::string::npos)
                << "slot " << k;
        }
        EXPECT_NE(body.find("= st_fast(ctx, "), std::string::npos);
        // Every family writes a float output; the store's slow path
        // is the checked float store helper.
        EXPECT_NE(body.find(", st_st_f);"), std::string::npos);
        // Constant-divisor guards are folded at emit time.
        EXPECT_EQ(body.find("ST_FAULT_DIV0"), std::string::npos);

        // All six kernels carry a blockIdx.x grid, so the emitted
        // outer loop must honor the kBlockWindow contract.
        EXPECT_TRUE(emitted.hasWindow);
        EXPECT_NE(emitted.source.find("ctx->block_end"),
                  std::string::npos);

        EXPECT_GT(emitted.numParamSlots, 0);
        EXPECT_GE(static_cast<int>(emitted.slotNames.size()),
                  emitted.numParamSlots);
    }

    // Family-specific binding metadata: the spmm kernel's parameter
    // slots are exactly the engine's binding names.
    native::EmitResult spmm = native::emitC(
        core::compileSpmmCsrFunc(16, core::SpmmSchedule()), "golden");
    std::vector<std::string> params(
        spmm.slotNames.begin(),
        spmm.slotNames.begin() + spmm.numParamSlots);
    for (const char *name :
         {"J_indptr", "J_indices", "A_data", "B_data", "C_data"}) {
        EXPECT_NE(std::find(params.begin(), params.end(), name),
                  params.end())
            << "missing param slot " << name;
    }
}

/** The lines of the first `for (...; l < <bound>; ...)` loop in `text`
 *  (header to closing brace), or "" when there is none. */
std::string
laneLoop(const std::string &text, const std::string &bound)
{
    std::regex header("for \\(int64_t (l\\d+) = 0; l\\d+ < " + bound +
                      "; \\+\\+l\\d+\\) \\{");
    std::smatch m;
    if (!std::regex_search(text, m, header)) {
        return "";
    }
    size_t begin = static_cast<size_t>(m.position(0));
    int depth = 0;
    for (size_t i = begin; i < text.size(); ++i) {
        depth += text[i] == '{' ? 1 : (text[i] == '}' ? -1 : 0);
        if (text[i] == '}' && depth == 0) {
            return text.substr(begin, i + 1 - begin);
        }
    }
    return "";
}

TEST(NativeEmitter, SinksLaneRegionsOfSpmmFamilies)
{
    struct Family
    {
        std::string tag;
        ir::PrimFunc func;
        /** Its regions keep per-lane accumulators (all but BSR's,
         *  which updates C in place). */
        bool laneArray;
    };
    std::vector<Family> families;
    families.push_back(
        {"spmm", core::compileSpmmCsrFunc(16, core::SpmmSchedule()), true});
    format::Hyb hyb =
        format::hybFromCsr(graph::powerLawGraph(300, 3000, 1.9, 41), 2);
    for (core::HybKernelPlan &plan : core::compileSpmmHybFuncs(hyb, 16)) {
        families.push_back({"hyb-" + plan.suffix, plan.func, true});
    }
    families.push_back(
        {"rgms", core::compileEllRgmsFunc(8, 4, 16, 16, "r0b0", false),
         true});
    Csr adj = graph::powerLawGraph(64, 400, 1.8, 42);
    dfg::GraphLowering sage = dfg::lowerGraph(
        model::buildGraphSageLayerGraph(
            dfg::SparsityPattern::fromCsr(adj), 16, 16),
        /*fuse=*/true);
    ASSERT_TRUE(sage.fused) << sage.reason;
    families.push_back({"graphsage", sage.funcs[0], true});
    // BSR's lanes update C in place below the (ii, ji) block nest;
    // SDDMM's reduce into a lane-indexed scratch folded afterwards.
    families.push_back(
        {"bsr", core::compileBsrSpmmFunc(2, 16, false), false});
    families.push_back(
        {"sddmm", core::compileSddmmFunc(16, core::SddmmSchedule()),
         true});

    for (const Family &family : families) {
        SCOPED_TRACE(family.tag);
        std::string body =
            kernelBody(native::emitC(family.func, family.tag).source);
        std::vector<std::string> fast;
        std::string rest = withoutFastVersions(body, &fast);
        ASSERT_FALSE(fast.empty());
        for (size_t i = 0; i < fast.size(); ++i) {
            // Every fast version falls back to its own checked version.
            std::string id = std::to_string(i);
            EXPECT_NE(fast[i].find("st_slow" + id), std::string::npos);
            EXPECT_NE(rest.find("st_slow" + id + ": {"), std::string::npos);
            EXPECT_NE(rest.find("st_done" + id + ":;"), std::string::npos);
            // The per-lane accumulator is a plain C array, not a slot.
            EXPECT_EQ(fast[i].find("float a" + id + "[16] = {0};") !=
                          std::string::npos,
                      family.laneArray)
                << fast[i];
            // The hot loop over all 16 lanes has no branch, check or
            // helper call: it is what the host compiler vectorizes.
            std::string loop = laneLoop(fast[i], "INT64_C\\(16\\)");
            ASSERT_FALSE(loop.empty()) << fast[i];
            for (const char *banned : {"if (", "goto", "ST_", "st_"}) {
                EXPECT_EQ(loop.find(banned), std::string::npos)
                    << banned << " in\n" << loop;
            }
        }
    }
}

TEST(NativeEmitter, RejectsStageOneViaDiagnostic)
{
    ir::PrimFunc stage1 = core::buildSddmm(true);
    EXPECT_THROW(native::emitC(stage1, "reject"), UserError);

    ir::PrimFunc stage3 = transform::lowerSparseBuffers(
        transform::lowerSparseIterations(stage1));
    native::EmitResult emitted = native::emitC(stage3, "accept");
    EXPECT_FALSE(emitted.source.empty());
}

TEST(NativeEmitter, ConstantDivisorsFoldWithFloorSemantics)
{
    CacheDirGuard cache;
    // out[4i..4i+3] = {i // 4, i % 4, (i - 5) // 4, (i - 5) % 4} for
    // i in [0, 10): a loop variable is provably non-negative (plain C
    // division), i - 5 is not (floor division must round toward
    // negative infinity).
    auto func = ir::primFunc("divisors");
    ir::Var i = ir::var("i");
    ir::Buffer out = ir::denseBuffer("out", {ir::intImm(40)},
                                     ir::DataType::int32());
    func->params = {out->data};
    func->bufferMap.emplace_back(out->data, out);
    ir::Expr four = ir::intImm(4);
    ir::Expr shifted = ir::sub(i, ir::intImm(5));
    std::vector<ir::Expr> values = {
        ir::floorDiv(i, four), ir::floorMod(i, four),
        ir::floorDiv(shifted, four), ir::floorMod(shifted, four)};
    std::vector<ir::Stmt> stores;
    for (size_t k = 0; k < values.size(); ++k) {
        ir::Expr at = ir::add(ir::mul(i, four),
                              ir::intImm(static_cast<int64_t>(k)));
        stores.push_back(ir::bufferStore(out, {at}, values[k]));
    }
    func->body = ir::forLoop(i, ir::intImm(0), ir::intImm(10),
                             ir::seq(stores));
    func->stage = ir::IrStage::kStage3;

    std::string body = kernelBody(native::emitC(func, "divisors").source);
    EXPECT_EQ(body.find("ST_FAULT_DIV0"), std::string::npos) << body;
    EXPECT_NE(body.find(" / INT64_C(4);"), std::string::npos) << body;
    EXPECT_NE(body.find(" % INT64_C(4);"), std::string::npos) << body;
    EXPECT_NE(body.find("st_floordiv("), std::string::npos) << body;

    NDArray interp({40}, ir::DataType::int32());
    NDArray out_native({40}, ir::DataType::int32());
    Bindings bindings;
    bindings.arrays = {{"out_data", &interp}};
    runtime::runInterpreted(func, bindings);
    bindings.arrays["out_data"] = &out_native;
    native::execute(*native::compileNative(func, "divisors"), bindings,
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(interp, out_native));
    // i = 0: (0 - 5) // 4 == -2 and (0 - 5) % 4 == 3.
    EXPECT_EQ(out_native.intAt(2), -2);
    EXPECT_EQ(out_native.intAt(3), 3);
}

// ---------------------------------------------------------------------
// Differential: native kernel vs interpreter, bitwise
// ---------------------------------------------------------------------

TEST(NativeKernel, SpmmCsrBitwiseMatchesInterpreter)
{
    CacheDirGuard cache;
    // 16 fills the sunk region's lanes; 5, 20 and 33 leave a partial
    // last chunk, and 20 and 33 take several chunks.
    for (int64_t feat : {16, 5, 20, 33}) {
        SCOPED_TRACE(feat);
        SpmmFixture fx(400, 5000, 71, feat);
        auto func = core::compileSpmmCsrFunc(feat, core::SpmmSchedule());

        uint64_t before = native::nativeCompileCount();
        auto kernel = native::compileNative(
            func, "diff-spmm-" + std::to_string(feat));
        ASSERT_NE(kernel, nullptr);
        EXPECT_FALSE(kernel->diskHit);
        EXPECT_EQ(native::nativeCompileCount(), before + 1);

        NDArray c_native({fx.a.rows * feat}, ir::DataType::float32());
        NDArray c_vm({fx.a.rows * feat}, ir::DataType::float32());
        native::execute(*kernel, fx.bindings(&c_native),
                        runtime::RunOptions());
        runtime::bytecode::execute(*runtime::bytecode::compile(func),
                                   fx.bindings(&c_vm));
        EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
        EXPECT_TRUE(bitwiseEqual(c_vm, c_native));
    }
}

TEST(NativeKernel, SunkSpmmOutputAliasingValuesMatchesVm)
{
    CacheDirGuard cache;
    // C bound to the array that also holds A's values: a row's earlier
    // lanes write back values its later lanes read, so hoisting the
    // value loads ahead of the write-backs would change the result.
    // The entry no-alias flag sends every region to its checked
    // version.
    SpmmFixture fx(120, 900, 78);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto kernel = native::compileNative(func, "sunk-alias");
    auto program = runtime::bytecode::compile(func);
    std::vector<float> shared(
        static_cast<size_t>(std::max(fx.a.rows * fx.feat, fx.a.nnz())),
        0.0f);
    std::copy(fx.a.values.begin(), fx.a.values.end(), shared.begin());
    NDArray out_vm = NDArray::fromFloat(shared);
    NDArray out_native = NDArray::fromFloat(shared);
    Bindings bindings = fx.bindings(&out_vm);
    bindings.arrays["A_data"] = &out_vm;
    runtime::bytecode::execute(*program, bindings);
    bindings.arrays["A_data"] = &out_native;
    bindings.arrays["C_data"] = &out_native;
    native::execute(*kernel, bindings, runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(out_vm, out_native));
}

TEST(NativeKernel, SddmmBitwiseMatchesInterpreter)
{
    CacheDirGuard cache;
    // 16 fills the rfactor region's lanes in one chunk; 3 has two lanes
    // (not sunk), 5 four lanes with a one-lane second chunk, 20 and 33
    // a full and a partial chunk.
    Csr graph = graph::powerLawGraph(300, 3000, 1.8, 81);
    for (int64_t feat : {16, 3, 5, 20, 33}) {
        SCOPED_TRACE(feat);
        SddmmFixture fx(graph, feat, 82);
        auto func = core::compileSddmmFunc(feat, core::SddmmSchedule());
        auto kernel = native::compileNative(
            func, "diff-sddmm-" + std::to_string(feat));
        NDArray reference = prefilled(fx.a.nnz());
        NDArray out_vm = prefilled(fx.a.nnz());
        NDArray out_native = prefilled(fx.a.nnz());
        runtime::runInterpreted(func, fx.bindings(&reference));
        runtime::bytecode::execute(*runtime::bytecode::compile(func),
                                   fx.bindings(&out_vm));
        native::execute(*kernel, fx.bindings(&out_native),
                        runtime::RunOptions());
        EXPECT_TRUE(bitwiseEqual(reference, out_native));
        EXPECT_TRUE(bitwiseEqual(out_vm, out_native));
    }
}

TEST(NativeKernel, BsrBitwiseMatchesInterpreterAcrossBlockSizesAndWindows)
{
    CacheDirGuard cache;
    // Block sizes 2, 4 and 8 over 16 lanes, and 4- and 16-lane
    // schedules with a partial last chunk (feat 5 and 20).
    const std::pair<int32_t, int64_t> shapes[] = {
        {2, 16}, {4, 16}, {8, 16}, {4, 5}, {8, 20}};
    for (const auto &[bs, feat] : shapes) {
        SCOPED_TRACE(std::to_string(bs) + " x " + std::to_string(feat));
        Csr weight = graph::blockPrunedWeight(64, 64, bs, 0.3, 0.6,
                                              83 + static_cast<uint64_t>(bs));
        BsrFixture fx(format::bsrFromCsr(weight, bs), feat, 84);
        auto func = core::compileBsrSpmmFunc(bs, feat, false);
        auto kernel = native::compileNative(
            func, "diff-bsr-" + std::to_string(bs) + "-" +
                      std::to_string(feat));
        ASSERT_TRUE(kernel->hasWindow);
        // Block rows without a block keep the prefill on every tier.
        NDArray reference = prefilled(fx.outNumel());
        NDArray out_vm = prefilled(fx.outNumel());
        NDArray out_native = prefilled(fx.outNumel());
        runtime::runInterpreted(func, fx.bindings(&reference));
        runtime::bytecode::execute(*runtime::bytecode::compile(func),
                                   fx.bindings(&out_vm));
        native::execute(*kernel, fx.bindings(&out_native),
                        runtime::RunOptions());
        EXPECT_TRUE(bitwiseEqual(reference, out_native));
        EXPECT_TRUE(bitwiseEqual(out_vm, out_native));

        NDArray out_windows = prefilled(fx.outNumel());
        Bindings bindings = fx.bindings(&out_windows);
        int64_t extent = runtime::launchInfo(func, bindings).blockExtent;
        for (int64_t begin = 0; begin < extent; begin += 3) {
            runtime::RunOptions window;
            window.blockBegin = begin;
            window.blockEnd = std::min(begin + 3, extent);
            native::execute(*kernel, bindings, window);
        }
        EXPECT_TRUE(bitwiseEqual(reference, out_windows));
    }
}

TEST(NativeKernel, BsrOutputAliasingFeaturesMatchesVm)
{
    CacheDirGuard cache;
    // C bound to B's array: a block row's updates change features the
    // later block rows read, so the lanes must not run ahead. The
    // entry no-alias flag sends every region to its checked version.
    Csr weight = graph::blockPrunedWeight(64, 64, 8, 0.4, 0.7, 88);
    BsrFixture fx(format::bsrFromCsr(weight, 8), 16, 89);
    ASSERT_EQ(fx.b.numel(), fx.outNumel());
    auto func = core::compileBsrSpmmFunc(8, 16, false);
    auto kernel = native::compileNative(func, "bsr-alias");
    std::vector<float> shared = randomVector(fx.outNumel(), 90);
    NDArray out_vm = NDArray::fromFloat(shared);
    NDArray out_native = NDArray::fromFloat(shared);
    Bindings bindings = fx.bindings(&out_vm);
    bindings.arrays["B_data"] = &out_vm;
    runtime::bytecode::execute(*runtime::bytecode::compile(func), bindings);
    bindings.arrays["B_data"] = &out_native;
    bindings.arrays["C_data"] = &out_native;
    native::execute(*kernel, bindings, runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(out_vm, out_native));
}

TEST(NativeKernel, BlockWindowsComposeToFullRun)
{
    CacheDirGuard cache;
    SpmmFixture fx(300, 3500, 72, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto kernel = native::compileNative(func, "win-spmm");
    ASSERT_NE(kernel, nullptr);
    ASSERT_TRUE(kernel->hasWindow);

    NDArray c_windows({fx.a.rows * fx.feat}, ir::DataType::float32());
    Bindings bindings = fx.bindings(&c_windows);
    runtime::LaunchInfo info = runtime::launchInfo(func, bindings);
    ASSERT_TRUE(info.hasBlockIdx);
    ASSERT_GE(info.blockExtent, 3);
    int64_t third = info.blockExtent / 3;
    std::vector<std::pair<int64_t, int64_t>> windows = {
        {0, third},
        {third, 2 * third},
        {2 * third, info.blockExtent}};
    for (const auto &[begin, end] : windows) {
        runtime::RunOptions options;
        options.blockBegin = begin;
        options.blockEnd = end;
        native::execute(*kernel, bindings, options);
    }
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_windows));

    // Windowing a kernel with no blockIdx loop is a user error, like
    // the other two backends.
    auto flat = ir::primFunc("flat");
    ir::Buffer out_buf = ir::denseBuffer("out", {ir::intImm(1)},
                                         ir::DataType::float32());
    flat->params = {out_buf->data};
    flat->bufferMap.emplace_back(out_buf->data, out_buf);
    flat->body = ir::bufferStore(out_buf, {ir::intImm(0)},
                                 ir::floatImm(7.0));
    flat->stage = ir::IrStage::kStage3;
    auto flat_kernel = native::compileNative(flat, "win-flat");
    ASSERT_FALSE(flat_kernel->hasWindow);
    NDArray out({1}, ir::DataType::float32());
    Bindings flat_bindings;
    flat_bindings.arrays = {{"out_data", &out}};
    runtime::RunOptions window;
    window.blockEnd = 1;
    EXPECT_THROW(
        native::execute(*flat_kernel, flat_bindings, window),
        UserError);
}

TEST(NativeKernel, OffsetViewRebasedRunMatchesInterpreterBitwise)
{
    CacheDirGuard cache;
    // Accumulate against a PACKED `out` (window [4,8) u [12,14)) —
    // the grid-chunk privatization contract the engine's fused
    // dispatch relies on.
    ir::PrimFunc func = rebasedAccumulateFunc();
    auto kernel = native::compileNative(func, "rebased");
    ASSERT_NE(kernel, nullptr);

    auto view = runtime::OffsetView::fromSpans({{4, 8}, {12, 14}});
    NDArray packed_interp =
        NDArray::fromFloat({10, 20, 30, 40, 50, 60});
    NDArray packed_native =
        NDArray::fromFloat({10, 20, 30, 40, 50, 60});
    NDArray vals = NDArray::fromFloat({1, 2, 3, 4});

    runtime::RunOptions options;
    options.offsetViews.push_back(
        runtime::BufferView{"out_data", &view});
    Bindings bindings;
    bindings.scalars = {{"base", 4}, {"n", 4}};
    bindings.arrays = {{"out_data", &packed_interp},
                       {"v_data", &vals}};
    runtime::runInterpreted(func, bindings, options);
    bindings.arrays["out_data"] = &packed_native;
    native::execute(*kernel, bindings, options);
    EXPECT_TRUE(bitwiseEqual(packed_interp, packed_native));

    // The second span: absolute [12,14) lands in packed [4,6).
    bindings.scalars["base"] = 12;
    bindings.scalars["n"] = 2;
    native::execute(*kernel, bindings, options);
    EXPECT_EQ(packed_native.floatAt(4), 51.0);
    EXPECT_EQ(packed_native.floatAt(5), 62.0);

    // Accesses outside the window fault, exactly like the VM.
    bindings.scalars["base"] = 8;
    EXPECT_THROW(native::execute(*kernel, bindings, options),
                 InternalError);

    // Without the view the same offsets address the full array.
    NDArray full({64}, ir::DataType::float32());
    bindings.arrays["out_data"] = &full;
    bindings.scalars["base"] = 4;
    bindings.scalars["n"] = 4;
    native::execute(*kernel, bindings, runtime::RunOptions());
    EXPECT_EQ(full.floatAt(4), 1.0);
    EXPECT_EQ(full.floatAt(7), 4.0);
}

// ---------------------------------------------------------------------
// Fault parity: fast and slow access paths against the VM
// ---------------------------------------------------------------------

TEST(NativeFaultParity, OffsetViewSlowPathMatchesVmBitwise)
{
    CacheDirGuard cache;
    // A rebased slot is never fast-path eligible: every access to it
    // takes st_resolve's span translation, beside fast-path slots.
    ir::PrimFunc func = rebasedAccumulateFunc();
    auto kernel = native::compileNative(func, "parity-view");
    auto program = runtime::bytecode::compile(func);
    auto view = runtime::OffsetView::fromSpans({{4, 8}, {12, 14}});
    runtime::RunOptions options;
    options.offsetViews.push_back(
        runtime::BufferView{"out_data", &view});
    NDArray vals = NDArray::fromFloat({1.5f, -2.25f, 3.0f, 0.1f});
    NDArray out_vm = NDArray::fromFloat({10, 20, 30, 40, 50, 60});
    NDArray out_native = NDArray::fromFloat({10, 20, 30, 40, 50, 60});
    Bindings bindings;
    bindings.arrays = {{"v_data", &vals}};
    for (auto [base, n] : {std::pair<int64_t, int64_t>{4, 4}, {12, 2}}) {
        bindings.scalars = {{"base", base}, {"n", n}};
        bindings.arrays["out_data"] = &out_vm;
        runtime::bytecode::execute(*program, bindings, options);
        bindings.arrays["out_data"] = &out_native;
        native::execute(*kernel, bindings, options);
    }
    EXPECT_TRUE(bitwiseEqual(out_vm, out_native));

    // The window fault is the VM's, word for word.
    bindings.scalars = {{"base", 8}, {"n", 4}};
    std::string vm_error = internalErrorOf([&] {
        bindings.arrays["out_data"] = &out_vm;
        runtime::bytecode::execute(*program, bindings, options);
    });
    std::string native_error = internalErrorOf([&] {
        bindings.arrays["out_data"] = &out_native;
        native::execute(*kernel, bindings, options);
    });
    EXPECT_NE(vm_error.find("outside its rebased window"),
              std::string::npos)
        << vm_error;
    EXPECT_EQ(native_error, vm_error);

    // A whole SpMM with only its output rebased (one span over the
    // full array): slow-path stores beside fast-path loads.
    SpmmFixture fx(250, 2600, 91);
    auto spmm = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto spmm_kernel = native::compileNative(spmm, "parity-view-spmm");
    auto spmm_program = runtime::bytecode::compile(spmm);
    int64_t numel = fx.a.rows * fx.feat;
    auto full = runtime::OffsetView::fromSpans({{0, numel}});
    runtime::RunOptions spmm_options;
    spmm_options.offsetViews.push_back(
        runtime::BufferView{"C_data", &full});
    NDArray c_vm({numel}, ir::DataType::float32());
    NDArray c_native({numel}, ir::DataType::float32());
    runtime::bytecode::execute(*spmm_program, fx.bindings(&c_vm),
                               spmm_options);
    native::execute(*spmm_kernel, fx.bindings(&c_native), spmm_options);
    EXPECT_TRUE(bitwiseEqual(c_vm, c_native));
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

TEST(NativeFaultParity, SunkRegionFaultsMatchVmExactly)
{
    CacheDirGuard cache;
    // 6 x 10 CSR; row 2 reads column 8 (= cols - 2) before column 9.
    Csr a;
    a.rows = 6;
    a.cols = 10;
    a.indptr = {0, 2, 3, 6, 7, 7, 9};
    a.indices = {0, 3, 1, 2, 8, 9, 4, 5, 9};
    a.values = {0.5f, -1.25f, 2.0f, 0.75f, -0.5f, 1.5f, 3.0f, -2.0f, 0.25f};
    const int64_t feat = 16;
    auto func = core::compileSpmmCsrFunc(feat, core::SpmmSchedule());
    auto kernel = native::compileNative(func, "sunk-fault");
    auto program = runtime::bytecode::compile(func);

    // The VM's diagnostic and the partial output it leaves behind,
    // from identically prefilled outputs.
    auto check = [&](const SpmmFixture &fx, const std::string &expected) {
        std::vector<float> fill(static_cast<size_t>(a.rows * feat), 7.0f);
        NDArray c_vm = NDArray::fromFloat(fill);
        NDArray c_native = NDArray::fromFloat(fill);
        std::string vm_error = internalErrorOf([&] {
            runtime::bytecode::execute(*program, fx.bindings(&c_vm));
        });
        std::string native_error = internalErrorOf([&] {
            native::execute(*kernel, fx.bindings(&c_native),
                            runtime::RunOptions());
        });
        EXPECT_EQ(vm_error, expected);
        EXPECT_EQ(native_error, vm_error);
        EXPECT_TRUE(bitwiseEqual(c_vm, c_native));
    };

    // (a) An out-of-range column: row 3 reads column 15.
    {
        Csr bad = a;
        bad.indices[6] = 15;
        check(SpmmFixture(bad, feat, 95),
              "offset 240 out of bounds for buffer 'B_data' (numel 160)");
    }
    // (b) B three elements short of column 8's last lanes and missing
    // column 9. Row 2's lane 0 reaches column 9 (offset 144) before
    // any lane reaches column 8's missing tail (offsets 141-143),
    // which a sunk order (nnz outer, lanes inner) would meet first.
    {
        SpmmFixture fx(a, feat, 96);
        std::vector<float> short_b(
            static_cast<size_t>(a.cols * feat - feat - 3), 1.0f);
        fx.b = NDArray::fromFloat(short_b);
        check(fx, "offset 144 out of bounds for buffer 'B_data' (numel 141)");
    }
}

/**
 * Runs `program` and `kernel` over `bind(out)` from identically
 * prefilled outputs of `numel` elements: both raise `expected` and
 * leave the same partial output.
 */
template <typename Bind>
void
expectVmFaultParity(const runtime::bytecode::Program &program,
                    const native::NativeKernel &kernel, Bind bind,
                    int64_t numel, const std::string &expected)
{
    NDArray out_vm = prefilled(numel);
    NDArray out_native = prefilled(numel);
    std::string vm_error = internalErrorOf(
        [&] { runtime::bytecode::execute(program, bind(&out_vm)); });
    std::string native_error = internalErrorOf([&] {
        native::execute(kernel, bind(&out_native), runtime::RunOptions());
    });
    EXPECT_EQ(vm_error, expected);
    EXPECT_EQ(native_error, vm_error);
    EXPECT_TRUE(bitwiseEqual(out_vm, out_native));
}

TEST(NativeFaultParity, SddmmAndBsrRegionFaultsMatchVmExactly)
{
    CacheDirGuard cache;
    // SDDMM on a 6 x 10 CSR whose nonzero 4 names column 12 (n + 2):
    // lanes 0-14 read Y inside its 160 elements, lane 15 reads
    // 15 * 10 + 12. Nonzeros 0-3 are written before the fault.
    {
        Csr a;
        a.rows = 6;
        a.cols = 10;
        a.indptr = {0, 2, 3, 6, 7, 7, 9};
        a.indices = {0, 3, 1, 2, 12, 9, 4, 5, 9};
        a.values = {0.5f, -1.25f, 2.0f, 0.75f, -0.5f, 1.5f, 3.0f, -2.0f, 0.25f};
        SddmmFixture fx(a, 16, 85);
        auto func = core::compileSddmmFunc(16, core::SddmmSchedule());
        expectVmFaultParity(
            *runtime::bytecode::compile(func),
            *native::compileNative(func, "sddmm-fault"),
            [&](NDArray *out) { return fx.bindings(out); }, a.nnz(),
            "offset 162 out of bounds for buffer 'Y_data' (numel 160)");
    }
    // A lane coefficient whose product wraps: with n = 15^-1 mod 2^64,
    // lane 15 reads Y at column + 1 (in range) but lane 1 at n +
    // column. The span check must not pass on its end lanes alone.
    {
        uint64_t inverse = 1;
        for (int i = 0; i < 6; ++i) {
            inverse *= 2 - 15 * inverse;  // Newton step mod 2^64
        }
        SddmmFixture fx(Csr{1, 64, {0, 1}, {0}, {1.0f}}, 16, 88);
        auto func = core::compileSddmmFunc(16, core::SddmmSchedule());
        auto n = static_cast<int64_t>(inverse);
        expectVmFaultParity(
            *runtime::bytecode::compile(func),
            *native::compileNative(func, "sddmm-wrap"),
            [&](NDArray *out) {
                Bindings bound = fx.bindings(out);
                bound.scalars["n"] = n;
                return bound;
            },
            1, "negative offset into Y_data");
    }
    // BSR (block 4, 16 lanes) whose last block names block column
    // blockCols: its first B access is one past B's end, after the
    // block row's earlier blocks and its own init have written C.
    {
        Csr weight = graph::blockPrunedWeight(16, 16, 4, 0.5, 0.8, 86);
        format::Bsr bsr = format::bsrFromCsr(weight, 4);
        ASSERT_GT(bsr.nnzBlocks(), 1);
        bsr.indices.back() = static_cast<int32_t>(bsr.blockCols);
        BsrFixture fx(bsr, 16, 87);
        auto func = core::compileBsrSpmmFunc(4, 16, false);
        int64_t numel = fx.b.numel();
        expectVmFaultParity(
            *runtime::bytecode::compile(func),
            *native::compileNative(func, "bsr-fault"),
            [&](NDArray *out) { return fx.bindings(out); }, fx.outNumel(),
            "offset " + std::to_string(numel) +
                " out of bounds for buffer 'B_data' (numel " +
                std::to_string(numel) + ")");
    }
}

TEST(NativeFaultParity, SearchSlotMisboundMatchesVm)
{
    CacheDirGuard cache;
    SddmmFixture fx(graph::powerLawGraph(60, 400, 1.8, 91), 16, 92);
    auto func = core::compileSddmmFunc(16, core::SddmmSchedule());
    auto program = runtime::bytecode::compile(func);
    auto kernel = native::compileNative(func, "search-misbound");
    auto with = [&](NDArray *indptr) {
        return [&fx, indptr](NDArray *out) {
            Bindings bound = fx.bindings(out);
            bound.arrays["J_indptr"] = indptr;
            return bound;
        };
    };
    // Float row pointers: the typed search is off and st_search raises
    // the VM's class fault.
    NDArray as_float = NDArray::fromFloat(
        std::vector<float>(fx.a.indptr.begin(), fx.a.indptr.end()));
    expectVmFaultParity(*program, *kernel, with(&as_float), fx.a.nnz(),
                        "integer access to float buffer 'J_indptr'");
    // One entry short: the search range [0, m + 1) passes its end.
    NDArray short_indptr = NDArray::fromInt32(std::vector<int32_t>(
        fx.a.indptr.begin(), fx.a.indptr.end() - 1));
    expectVmFaultParity(
        *program, *kernel, with(&short_indptr), fx.a.nnz(),
        "binary search range out of bounds for buffer 'J_indptr' (at " +
            std::to_string(fx.a.rows + 1) + ")");
    // int64 row pointers search through the checked helper, bitwise.
    std::vector<int64_t> wide(fx.a.indptr.begin(), fx.a.indptr.end());
    NDArray as_int64({static_cast<int64_t>(wide.size())},
                     ir::DataType::int64());
    for (size_t i = 0; i < wide.size(); ++i) {
        as_int64.setInt(static_cast<int64_t>(i), wide[i]);
    }
    NDArray out_vm = prefilled(fx.a.nnz());
    NDArray out_native = prefilled(fx.a.nnz());
    runtime::bytecode::execute(*program, with(&as_int64)(&out_vm));
    native::execute(*kernel, with(&as_int64)(&out_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(out_vm, out_native));
    NDArray reference = prefilled(fx.a.nnz());
    runtime::runInterpreted(func, fx.bindings(&reference));
    EXPECT_TRUE(bitwiseEqual(reference, out_native));
}

TEST(NativeFaultParity, WrongDtypeBindingRaisesVmClassDiagnostic)
{
    CacheDirGuard cache;
    SpmmFixture fx(120, 900, 92);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto kernel = native::compileNative(func, "parity-dtype");
    auto program = runtime::bytecode::compile(func);
    NDArray c({fx.a.rows * fx.feat}, ir::DataType::float32());

    // Column indices bound as float: the slot's entry flag is off,
    // so the integer load takes the helper and faults on its class.
    std::vector<float> float_indices(fx.a.indices.begin(),
                                     fx.a.indices.end());
    NDArray indices_f = NDArray::fromFloat(float_indices);
    Bindings bindings = fx.bindings(&c);
    bindings.arrays["J_indices"] = &indices_f;
    std::string vm_error = internalErrorOf(
        [&] { runtime::bytecode::execute(*program, bindings); });
    std::string native_error = internalErrorOf(
        [&] { native::execute(*kernel, bindings, runtime::RunOptions()); });
    EXPECT_EQ(vm_error, "integer access to float buffer 'J_indices'");
    EXPECT_EQ(native_error, vm_error);

    // And the converse: float features bound as int32.
    std::vector<int32_t> int_features(
        static_cast<size_t>(fx.a.cols * fx.feat), 1);
    NDArray b_i = NDArray::fromInt32(int_features);
    bindings = fx.bindings(&c);
    bindings.arrays["B_data"] = &b_i;
    vm_error = internalErrorOf(
        [&] { runtime::bytecode::execute(*program, bindings); });
    native_error = internalErrorOf(
        [&] { native::execute(*kernel, bindings, runtime::RunOptions()); });
    EXPECT_EQ(vm_error, "float access to integer buffer 'B_data'");
    EXPECT_EQ(native_error, vm_error);
}

TEST(NativeFaultParity, StackScratchOutOfBoundsRaisesVmDiagnostic)
{
    CacheDirGuard cache;
    // f(n, out): for j in [0, 2): { acc[4] (scratch):
    //   for i in [0, n): acc[i] = acc[i] + (i + 1);  out[j] = acc[0] }
    auto func = ir::primFunc("scratch");
    ir::Var n = ir::var("n");
    ir::Var i = ir::var("i");
    ir::Var j = ir::var("j");
    ir::Buffer out = ir::denseBuffer("out", {ir::intImm(2)},
                                     ir::DataType::float32());
    ir::Buffer acc = ir::denseBuffer("acc", {ir::intImm(4)},
                                     ir::DataType::float32());
    func->params = {n, out->data};
    func->bufferMap.emplace_back(out->data, out);
    ir::Stmt fill = ir::forLoop(
        i, ir::intImm(0), n,
        ir::bufferStore(acc, {i},
                        ir::add(ir::bufferLoad(acc, {i}),
                                ir::add(i, ir::intImm(1)))));
    ir::Stmt publish =
        ir::bufferStore(out, {j}, ir::bufferLoad(acc, {ir::intImm(0)}));
    func->body = ir::forLoop(j, ir::intImm(0), ir::intImm(2),
                             ir::allocate(acc, ir::seq({fill, publish})));
    func->stage = ir::IrStage::kStage3;

    native::EmitResult emitted = native::emitC(func, "parity-scratch");
    std::string body = kernelBody(emitted.source);
    EXPECT_NE(body.find("float p1[4] = {0};"), std::string::npos) << body;
    EXPECT_EQ(body.find("st_alloc("), std::string::npos);

    auto kernel = native::compileNative(func, "parity-scratch");
    auto program = runtime::bytecode::compile(func);
    NDArray out_vm({2}, ir::DataType::float32());
    NDArray out_native({2}, ir::DataType::float32());
    Bindings bindings;
    bindings.scalars = {{"n", 4}};
    bindings.arrays = {{"out_data", &out_vm}};
    runtime::bytecode::execute(*program, bindings);
    bindings.arrays["out_data"] = &out_native;
    native::execute(*kernel, bindings, runtime::RunOptions());
    // The scratch is zeroed on every entry: both j see acc[0] == 1.
    EXPECT_TRUE(bitwiseEqual(out_vm, out_native));
    EXPECT_EQ(out_native.floatAt(0), 1.0);
    EXPECT_EQ(out_native.floatAt(1), 1.0);

    // One past the end: the VM's out-of-bounds diagnostic, carrying
    // the scratch slot's real numel.
    bindings.scalars = {{"n", 5}};
    std::string native_error = internalErrorOf(
        [&] { native::execute(*kernel, bindings, runtime::RunOptions()); });
    bindings.arrays["out_data"] = &out_vm;
    std::string vm_error = internalErrorOf(
        [&] { runtime::bytecode::execute(*program, bindings); });
    EXPECT_EQ(vm_error, "offset 4 out of bounds for buffer 'acc' (numel 4)");
    EXPECT_EQ(native_error, vm_error);
}

// ---------------------------------------------------------------------
// Persistent artifact cache
// ---------------------------------------------------------------------

TEST(NativeCompiler, PersistedArtifactServesWarmStart)
{
    CacheDirGuard cache;
    SpmmFixture fx(200, 2200, 73, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());

    uint64_t before = native::nativeCompileCount();
    auto first = native::compileNative(func, "warm");
    ASSERT_NE(first, nullptr);
    EXPECT_FALSE(first->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    // A second load of the same (source, tag) — the restarted-process
    // shape — finds the persisted .so and never invokes the compiler.
    auto second = native::compileNative(func, "warm");
    ASSERT_NE(second, nullptr);
    EXPECT_TRUE(second->diskHit);
    EXPECT_EQ(second->soPath, first->soPath);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*second, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

TEST(NativeCompiler, CorruptedArtifactRejectedAndRebuilt)
{
    CacheDirGuard cache;
    SpmmFixture fx(150, 1500, 74, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto first = native::compileNative(func, "corrupt");
    ASSERT_NE(first, nullptr);
    std::string so_path = first->soPath;
    // Drop the dlopen handle before scribbling over its backing file
    // (truncating a mapped object is a SIGBUS, not a test).
    first.reset();

    // Truncate the persisted artifact to garbage: dlopen fails, the
    // loader must rebuild rather than serve the corpse.
    {
        std::ofstream trash(so_path,
                            std::ios::binary | std::ios::trunc);
        trash << "not an ELF object";
    }
    uint64_t before = native::nativeCompileCount();
    auto rebuilt = native::compileNative(func, "corrupt");
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_FALSE(rebuilt->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*rebuilt, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

TEST(NativeCompiler, StaleArtifactRejectedByMetaCheck)
{
    CacheDirGuard cache;
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());
    // Two tags bake two distinct meta strings (and hashes). Copying
    // artifact A over B's path simulates a stale/foreign file at a
    // colliding name: B's load must reject A's meta and rebuild.
    auto a = native::compileNative(func, "stale-a");
    auto b = native::compileNative(func, "stale-b");
    ASSERT_NE(a->soPath, b->soPath);
    std::string a_path = a->soPath;
    std::string b_path = b->soPath;
    // Release the mapped handles before rewriting b's backing file.
    a.reset();
    b.reset();
    {
        std::ifstream src(a_path, std::ios::binary);
        std::ofstream dst(b_path, std::ios::binary | std::ios::trunc);
        dst << src.rdbuf();
    }
    uint64_t before = native::nativeCompileCount();
    auto rebuilt = native::compileNative(func, "stale-b");
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_FALSE(rebuilt->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);
}

TEST(NativeCompiler, ExactlyOneCompileUnderContention)
{
    CacheDirGuard cache;
    auto func = core::compileSpmmCsrFunc(16, core::SpmmSchedule());
    uint64_t before = native::nativeCompileCount();

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const native::NativeKernel>> kernels(
        kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            kernels[t] = native::compileNative(func, "race");
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }

    // The first thread to claim the artifact's path compiles; the
    // other seven wait on its claim and load the installed artifact.
    EXPECT_EQ(native::nativeCompileCount(), before + 1);
    int misses = 0;
    for (const auto &kernel : kernels) {
        ASSERT_NE(kernel, nullptr);
        ASSERT_NE(kernel->entry, nullptr);
        misses += kernel->diskHit ? 0 : 1;
    }
    EXPECT_EQ(misses, 1);
}

TEST(NativeCompiler, MissingCompilerFailsAsUserError)
{
    CacheDirGuard cache;
    EnvGuard cc("SPARSETIR_NATIVE_CC",
                "/nonexistent/sparsetir-test-cc");
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());
    uint64_t before = native::nativeCompileCount();
    EXPECT_THROW(native::compileNative(func, "no-cc"), UserError);
    EXPECT_EQ(native::nativeCompileCount(), before);
}

// A compiler that never returns is killed at the batch's deadline:
// the kernel falls back with reason timeout, and neither the shell nor
// the compiler's own children survive the call.
TEST(NativeCompiler, HungCompilerTimesOutAndIsReaped)
{
    CacheDirGuard cache;
    const std::string dir = cache.dir();
    writeScript(dir + "/hung-cc.sh",
                "sleep 1000 &\n"
                "echo $! > '" + dir + "/sleep.pid'\n"
                "wait\n");
    EnvGuard cc("SPARSETIR_NATIVE_CC", (dir + "/hung-cc.sh").c_str());
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());
    uint64_t before = native::nativeCompileCount();

    auto start = std::chrono::steady_clock::now();
    std::vector<native::NativeBuild> built = native::compileNativeBatch(
        {{func, "hung"}}, std::chrono::milliseconds(300));
    auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(built.size(), 1u);
    EXPECT_EQ(built[0].kernel, nullptr);
    EXPECT_EQ(built[0].fallback, native::Fallback::kTimeout);
    EXPECT_STREQ(native::fallbackName(built[0].fallback), "timeout");
    EXPECT_NE(built[0].error.find("deadline of 300 ms"), std::string::npos)
        << built[0].error;
    EXPECT_LT(elapsed, std::chrono::seconds(10));
    EXPECT_EQ(native::nativeCompileCount(), before);
    EXPECT_TRUE(noChildProcess());
    // The compiler's own child went with the process group: gone, or
    // a zombie waiting for its new parent to reap it.
    std::ifstream pid_file(dir + "/sleep.pid");
    std::string pid;
    ASSERT_TRUE(pid_file >> pid);
    EXPECT_TRUE(waitFor(
        [&] {
            std::ifstream stat("/proc/" + pid + "/stat");
            std::string line;
            if (!std::getline(stat, line)) {
                return true;
            }
            size_t close = line.rfind(')');
            return close != std::string::npos && close + 2 < line.size() &&
                   (line[close + 2] == 'Z' || line[close + 2] == 'X');
        },
        5000))
        << "the compiler's child " << pid << " outlived its deadline";
}

// A batch bakes no process-wide lock: a kernel whose compiler cannot
// finish until another kernel's compiler has started still completes.
TEST(NativeCompiler, DifferentKernelsCompileWithoutWaitingOnEachOther)
{
    CacheDirGuard cache;
    const std::string dir = cache.dir();
    writeScript(dir + "/gated-cc.sh",
                "for src; do :; done\n"
                "if grep -q 'tag=progress-a;' \"$src\"; then\n"
                "  touch '" + dir + "/a.started'\n"
                "  i=0\n"
                "  while [ ! -e '" + dir + "/b.started' ]; do\n"
                "    i=$((i + 1))\n"
                "    [ $i -gt 3000 ] && exit 3\n"
                "    sleep 0.01\n"
                "  done\n"
                "fi\n"
                "if grep -q 'tag=progress-b;' \"$src\"; then\n"
                "  touch '" + dir + "/b.started'\n"
                "fi\n"
                "exec cc \"$@\"\n");
    EnvGuard cc("SPARSETIR_NATIVE_CC", (dir + "/gated-cc.sh").c_str());
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());

    std::shared_ptr<const native::NativeKernel> a;
    std::shared_ptr<const native::NativeKernel> b;
    std::string a_error;
    std::thread first([&] {
        try {
            a = native::compileNative(func, "progress-a");
        } catch (const UserError &e) {
            a_error = e.what();
        }
    });
    ASSERT_TRUE(waitFor([&] { return fileExists(dir + "/a.started"); }));
    std::thread second([&] { b = native::compileNative(func, "progress-b"); });
    second.join();
    first.join();
    EXPECT_NE(a, nullptr) << a_error;
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->diskHit);
    EXPECT_TRUE(noChildProcess());
}

// ---------------------------------------------------------------------
// Engine promotion policy
// ---------------------------------------------------------------------

TEST(NativeEngine, SynchronousPromotionSwapsArtifactTransparently)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(350, 4200, 1.9, 81);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 82);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;  // promote inside the first resolve
    engine::Engine eng(options);

    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
    // One promotion's wall time beside its one kernel's compile time.
    observe::MetricsSnapshot snap = eng.metricsSnapshot();
    EXPECT_EQ(snap.histograms["native.promote_ms"].count, 1u);
    EXPECT_EQ(snap.histograms["native.compile_ms"].count, 1u);

    // Warm dispatch runs the swapped-in native kernel; still bitwise.
    NDArray c_warm({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c_warm);
    EXPECT_TRUE(bitwiseEqual(reference, c_warm));
    EXPECT_EQ(eng.nativeStats().promotions, 1u);
}

TEST(NativeEngine, WarmStartedEngineServesPersistedArtifact)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(250, 3000, 1.7, 83);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 84);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;

    {
        engine::Engine cold(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        cold.spmmCsr(a, feat, &b, &c);
        EXPECT_TRUE(bitwiseEqual(reference, c));
        EXPECT_GE(cold.nativeStats().compiles, 1u);
    }

    // A second engine (the restarted-server shape) finds the
    // persisted .so: zero compiler invocations, pure disk hits.
    uint64_t cc_before = native::nativeCompileCount();
    engine::Engine warm(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    warm.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    engine::NativeStats stats = warm.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_GE(stats.diskHits, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before);

    // The warm engine's own compile cache still records its (one)
    // artifact build — native promotion rides on the regular miss.
    engine::CacheStats cache_stats = warm.cacheStats();
    EXPECT_EQ(cache_stats.misses, 1u);
    NDArray c2({a.rows * feat}, ir::DataType::float32());
    warm.spmmCsr(a, feat, &b, &c2);
    EXPECT_EQ(warm.cacheStats().hits, 1u);
    EXPECT_TRUE(bitwiseEqual(reference, c2));
}

TEST(NativeEngine, BackgroundPromotionOnceUnderContention)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(300, 3600, 1.8, 85);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 86);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 2;  // background, third resolve
    engine::Engine eng(options);

    uint64_t cc_before = native::nativeCompileCount();
    constexpr int kThreads = 8;
    std::vector<NDArray> outputs;
    outputs.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        outputs.emplace_back(
            NDArray({a.rows * feat}, ir::DataType::float32()));
    }
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            NDArray b = NDArray::fromFloat(b_host);
            eng.spmmCsr(a, feat, &b, &outputs[t]);
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    // Pre-promotion dispatches served on bytecode; all bitwise.
    for (const NDArray &c : outputs) {
        EXPECT_TRUE(bitwiseEqual(reference, c));
    }

    // The threshold crossed during the contention burst; exactly one
    // background promotion (and one compiler run) results.
    ASSERT_TRUE(waitFor(
        [&] { return eng.nativeStats().promotions >= 1; }))
        << "background promotion never completed";
    EXPECT_EQ(eng.nativeStats().promotions, 1u);
    EXPECT_EQ(eng.nativeStats().compiles, 1u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 1);

    // Post-swap dispatch runs the native artifact; still bitwise.
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c_after({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c_after);
    EXPECT_TRUE(bitwiseEqual(reference, c_after));
}

// Destroying an engine with a background promotion still in flight
// must join the promotion task first: the task captures the engine
// and records into its registry, so letting it outlive the engine is
// a use-after-free (caught by ASan before ~Engine waited on the
// promotion futures).
TEST(NativeEngine, DestructionJoinsInFlightPromotion)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(250, 3000, 1.8, 93);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 94);

    uint64_t cc_before = native::nativeCompileCount();
    {
        engine::EngineOptions options;
        options.backend = Backend::kNative;
        options.nativePromoteAfter = 1;  // background, second resolve
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        eng.spmmCsr(a, feat, &b, &c);  // crosses the threshold
        // Engine destructs here, racing the promotion task's cc run.
    }
    // The destructor joined the task: the compile either finished or
    // was killed, nothing it touched was freed (this test exists for
    // the sanitizer jobs), and no compiler process is left behind.
    EXPECT_LE(native::nativeCompileCount(), cc_before + 1);
    EXPECT_TRUE(noChildProcess());
}

TEST(NativeEngine, HybBucketsPromoteEveryKernel)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 87);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 88);
    engine::HybConfig config;
    config.partitions = 2;

    NDArray reference({a.rows * feat}, ir::DataType::float32());
    {
        engine::EngineOptions options;
        options.backend = Backend::kInterpreter;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        eng.spmmHyb(a, feat, &b, &reference, config);
    }

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    engine::Engine eng(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmHyb(a, feat, &b, &c, config);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    // One promotion covers every bucket kernel of the artifact.
    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_GE(stats.compiles, 2u);
    EXPECT_EQ(stats.fallbacks, 0u);

    NDArray c_warm({a.rows * feat}, ir::DataType::float32());
    eng.spmmHyb(a, feat, &b, &c_warm, config);
    EXPECT_TRUE(bitwiseEqual(reference, c_warm));
}

// The kernels of one hyb artifact compile concurrently: a wrapper
// around cc logs when each run starts and ends, and two runs overlap.
TEST(NativeEngine, HybKernelsCompileConcurrently)
{
    if (affinityCpus() < 2) {
        GTEST_SKIP() << "one CPU: compiler runs cannot overlap";
    }
    CacheDirGuard cache;
    const std::string log = cache.dir() + "/cc.log";
    writeScript(cache.dir() + "/logging-cc.sh",
                "echo \"$$ start $(date +%s%N)\" >> '" + log + "'\n"
                "sleep 0.3\n"
                "cc \"$@\"\n"
                "rc=$?\n"
                "echo \"$$ end $(date +%s%N)\" >> '" + log + "'\n"
                "exit $rc\n");
    EnvGuard cc("SPARSETIR_NATIVE_CC",
                (cache.dir() + "/logging-cc.sh").c_str());
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 87);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    options.numThreads = 1;
    engine::Engine eng(options);
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 88));
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmHyb(a, feat, &b, &c, config);
    engine::NativeStats stats = eng.nativeStats();
    ASSERT_GE(stats.compiles, 2u);
    EXPECT_EQ(stats.fallbacks, 0u);

    // Sweep the logged events in time order: a run starting while
    // another is open is an overlap.
    std::vector<std::pair<long long, int>> events;
    std::ifstream in(log);
    std::string pid;
    std::string kind;
    long long ns = 0;
    while (in >> pid >> kind >> ns) {
        events.emplace_back(ns, kind == "start" ? 1 : -1);
    }
    ASSERT_EQ(events.size(), 2 * stats.compiles);
    std::sort(events.begin(), events.end());
    int open = 0;
    int most = 0;
    for (const auto &event : events) {
        open += event.second;
        most = std::max(most, open);
    }
    EXPECT_GE(most, 2) << "no two compiler runs of the artifact overlapped";
}

// ~Engine kills the compilers of an in-flight promotion instead of
// waiting on them: a compiler that never returns cannot hang it, and
// no compiler process outlives the engine.
TEST(NativeEngine, DestructionKillsHungCompiler)
{
    CacheDirGuard cache;
    const std::string started = cache.dir() + "/started";
    writeScript(cache.dir() + "/hung-cc.sh",
                "touch '" + started + "'\n"
                "sleep 1000\n");
    EnvGuard cc("SPARSETIR_NATIVE_CC",
                (cache.dir() + "/hung-cc.sh").c_str());
    Csr a = graph::powerLawGraph(150, 1600, 1.8, 95);
    int64_t feat = 8;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 96));
    NDArray c({a.rows * feat}, ir::DataType::float32());
    NDArray reference = engineSpmmReference(
        a, feat, randomVector(a.cols * feat, 96));

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 1;  // background, second resolve
    auto eng = std::make_unique<engine::Engine>(options);
    eng->spmmCsr(a, feat, &b, &c);
    eng->spmmCsr(a, feat, &b, &c);  // crosses the threshold
    ASSERT_TRUE(waitFor([&] { return fileExists(started); }))
        << "the promotion never started its compiler";
    // Requests keep serving on bytecode while the compiler hangs.
    eng->spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    auto start = std::chrono::steady_clock::now();
    eng.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_TRUE(noChildProcess());
}

TEST(NativeEngine, BsrEmptyBlockRowsZeroedOnEveryTier)
{
    CacheDirGuard cache;
    // 32 x 32, non-zeros only in block rows 0 and 2 (block size 8).
    Csr base;
    base.rows = 32;
    base.cols = 32;
    base.indptr.push_back(0);
    for (int32_t r = 0; r < 32; ++r) {
        if ((r / 8) % 2 == 0) {
            for (int32_t col : {r % 8, 8 + (r * 5) % 24}) {
                base.indices.push_back(col);
                base.values.push_back(0.25f * static_cast<float>(r + 1));
            }
        }
        base.indptr.push_back(static_cast<int32_t>(base.indices.size()));
    }
    format::Bsr a = format::bsrFromCsr(base, 8);
    const int64_t feat = 8;
    const int64_t numel = a.blockRows * a.blockSize * feat;
    NDArray b = NDArray::fromFloat(
        randomVector(a.blockCols * a.blockSize * feat, 97));
    std::vector<float> nan_fill(static_cast<size_t>(numel),
                                std::numeric_limits<float>::quiet_NaN());

    auto emptyRowsZero = [&](const NDArray &c) {
        for (int64_t row = 0; row < a.blockRows * a.blockSize; ++row) {
            if ((row / 8) % 2 == 1) {
                for (int64_t j = 0; j < feat; ++j) {
                    double v = c.floatAt(row * feat + j);
                    if (v != 0.0 || std::signbit(v)) {
                        return false;
                    }
                }
            }
        }
        return true;
    };

    std::vector<NDArray> outputs;
    for (Backend backend :
         {Backend::kInterpreter, Backend::kBytecode, Backend::kNative}) {
        SCOPED_TRACE(static_cast<int>(backend));
        engine::EngineOptions options;
        options.backend = backend;
        options.nativePromoteAfter = 0;
        engine::Engine eng(options);
        NDArray c = NDArray::fromFloat(nan_fill);
        eng.spmmBsr(a, feat, &b, &c);
        EXPECT_TRUE(emptyRowsZero(c));

        NDArray c0 = NDArray::fromFloat(nan_fill);
        NDArray c1 = NDArray::fromFloat(nan_fill);
        eng.spmmBsrBatch(a, feat, {{&b, &c0}, {&b, &c1}});
        EXPECT_TRUE(emptyRowsZero(c0));
        EXPECT_TRUE(bitwiseEqual(c, c0));
        EXPECT_TRUE(bitwiseEqual(c, c1));
        EXPECT_EQ(eng.nativeStats().fallbacks, 0u);
        outputs.push_back(std::move(c));
    }
    EXPECT_TRUE(bitwiseEqual(outputs[0], outputs[1]));
    EXPECT_TRUE(bitwiseEqual(outputs[0], outputs[2]));
}

TEST(NativeEngine, MissingCompilerDegradesToBytecode)
{
    CacheDirGuard cache;
    EnvGuard cc("SPARSETIR_NATIVE_CC",
                "/nonexistent/sparsetir-test-cc");
    Csr a = graph::powerLawGraph(220, 2600, 1.8, 89);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 90);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    engine::Engine eng(options);

    uint64_t cc_before = native::nativeCompileCount();
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    // The promotion ran, the compiler bailed, the dispatch fell back
    // to bytecode — never an error on the request path.
    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_GE(stats.fallbacks, 1u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before);
    // Every fallback is counted under its reason: the shell could not
    // run the compiler.
    observe::MetricsSnapshot snap = eng.metricsSnapshot();
    EXPECT_EQ(snap.counters["native.fallbacks.cc_failed"], stats.fallbacks);
    EXPECT_EQ(snap.counters["native.fallbacks.timeout"], 0u);
    EXPECT_EQ(snap.counters["native.fallbacks.unsupported"], 0u);

    NDArray c_warm({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c_warm);
    EXPECT_TRUE(bitwiseEqual(reference, c_warm));
}

TEST(NativeEngine, EnvVarSelectsNativeTier)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(150, 1600, 1.7, 91);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 92);

    {
        EnvGuard enable("SPARSETIR_NATIVE", "1");
        engine::EngineOptions options;  // default backend: bytecode
        options.nativePromoteAfter = 0;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        EXPECT_EQ(eng.nativeStats().promotions, 1u)
            << "SPARSETIR_NATIVE=1 must upgrade bytecode to native";
        EXPECT_TRUE(
            bitwiseEqual(engineSpmmReference(a, feat, b_host), c));
    }
    {
        EnvGuard disable("SPARSETIR_NATIVE", "0");
        engine::EngineOptions options;
        options.nativePromoteAfter = 0;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        EXPECT_EQ(eng.nativeStats().promotions, 0u);
    }
}

} // namespace
} // namespace sparsetir
