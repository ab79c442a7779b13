#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_set>
#include <utility>

#include "dfg/lower.h"
#include "format/hyb.h"
#include "model/rgcn.h"
#include "observe/trace.h"
#include "runtime/interpreter.h"
#include "runtime/native/native_compiler.h"
#include "support/logging.h"

namespace sparsetir {
namespace engine {

using core::BindingSet;
using format::Csr;
using runtime::NDArray;

namespace {

double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Identification tag of one kernel's persisted native artifact: the
 * full cache key plus the kernel's index inside the artifact and the
 * artifact/ABI versions. Baked into the .so's meta string, so a
 * restarted process can validate an on-disk file against exactly the
 * key it would build for.
 */
std::string
nativeKeyTag(const CacheKey &key, int kernel_index)
{
    std::string tag = "v" + std::to_string(key.version);
    tag += ".op" + std::to_string(static_cast<int>(key.op));
    tag += ".s" + std::to_string(key.structure);
    tag += ".h" + std::to_string(key.schedule);
    tag += ".fi" + std::to_string(key.featIn);
    tag += ".fo" + std::to_string(key.featOut);
    tag += ".r" + std::to_string(key.rows);
    tag += ".z" + std::to_string(key.nnz);
    tag += ".b" + std::to_string(key.blockSize);
    tag += ".t" + std::to_string(key.tileHeight);
    tag += ".g" + std::to_string(key.groupSize);
    tag += ".k" + std::to_string(kernel_index);
    return tag;
}

/**
 * True when a bucket stores several ELL rows for one original row
 * (long rows split by the hyb cap): its kernel then writes one output
 * element more than once and must run serially at its list position
 * to stay bitwise equal to serial execution (see executor.h).
 */
bool
hasDuplicateRows(const std::vector<int32_t> &row_indices)
{
    std::unordered_set<int32_t> seen;
    seen.reserve(row_indices.size());
    for (int32_t r : row_indices) {
        if (!seen.insert(r).second) {
            return true;
        }
    }
    return false;
}

/** Re-bind stored values through a provenance map (padding -> 0). */
std::vector<float>
gatherValues(const std::vector<int32_t> &source_pos,
             const std::vector<float> &values)
{
    std::vector<float> out(source_pos.size(), 0.0f);
    for (size_t i = 0; i < source_pos.size(); ++i) {
        int32_t p = source_pos[i];
        if (p >= 0) {
            ICHECK_LT(static_cast<size_t>(p), values.size())
                << "provenance map does not match the request's "
                   "values array; compile-cache key mismatch";
            out[i] = values[p];
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Artifacts
//
// Since artifact version 2 (see kArtifactVersion) every kernel is
// cached as an engine::CompiledKernel: Stage III IR + compiled
// bytecode program + write-set analysis (+ touched-row spans for
// scatter kernels). Warm dispatches execute the program directly.
// ---------------------------------------------------------------------

/**
 * Restrict a kernel's accumulated output `name` to the rows its
 * scatter indices can touch: privatization then leases scratch sized
 * to the touched extent and zeroes/folds only it, through the
 * offset-translating window (see executor.h). A bucket with no rows
 * yields an explicitly empty write set — the unit leases and folds
 * nothing — never the whole-array fallback.
 */
void
restrictAccumSpans(CompiledKernel *kernel, const std::string &name,
                   const std::vector<int32_t> &row_indices,
                   int64_t row_width)
{
    for (AccumOutput &out : kernel->accums) {
        if (out.name == name) {
            out.setSpans(touchedRowSpans(row_indices, row_width));
        }
    }
}

/**
 * Copy a compiled kernel's write-set analysis (after
 * restrictAccumSpans and the exclusive marking) into a verifier
 * context. `rows_buffer`/`rows`/`row_width` describe the scatter row
 * list of span-restricted outputs; pass ""/null/0 for kernels with no
 * scatter outputs.
 */
void
declareAccumSpec(verify::VerifyContext *ctx,
                 const CompiledKernel &kernel,
                 const std::string &rows_buffer,
                 const std::vector<int32_t> *rows, int64_t row_width)
{
    ctx->hasAccumSpec = true;
    ctx->kernelExclusive = kernel.exclusive;
    for (const AccumOutput &out : kernel.accums) {
        verify::AccumWriteSet set;
        set.buffer = out.name;
        set.wholeArray = out.wholeArray;
        set.spans = out.window.spans;
        set.rowsBuffer = rows_buffer;
        set.rows = rows;
        set.rowWidth = row_width;
        ctx->accums.push_back(std::move(set));
    }
}

/**
 * Prove one kernel's bounds / write-set / race obligations and fold
 * the outcome into the artifact's cached report. Failures do not
 * throw here: the verdict (with its diagnostics) is cached on the
 * artifact, and Engine::resolve raises it as a UserError on every
 * dispatch that touches the bad artifact — including warm hits, at
 * zero re-proving cost.
 */
void
verifyKernelInto(Artifact *artifact, const CompiledKernel &kernel,
                 const verify::VerifyContext &ctx,
                 const std::string &what)
{
    SPARSETIR_TRACE_SCOPE("verify", "verify.artifact");
    auto start = std::chrono::steady_clock::now();
    verify::VerifyResult result = verify::verifyFunc(kernel.func, ctx);
    artifact->verify.attempted = true;
    artifact->verify.kernels += 1;
    artifact->verify.verifyMs += msSince(start);
    if (!result.ok) {
        artifact->verify.ok = false;
        for (verify::Diagnostic &diag : result.diagnostics) {
            diag.message = "kernel '" + what + "': " + diag.message;
            artifact->verify.diagnostics.push_back(std::move(diag));
        }
    }
}

/**
 * What a one-kernel op binds besides its per-request arrays: its
 * scalar parameters, the names and contents of its two structure
 * arrays, and the operand's values ("A_data"). The same description
 * gives the verifier its facts on the miss path and the binder its
 * arrays on every dispatch.
 */
struct KernelShape
{
    std::vector<std::pair<const char *, int64_t>> scalars;
    const char *indptrName;
    const char *indicesName;
    const std::vector<int32_t> &indptr;
    const std::vector<int32_t> &indices;
    const std::vector<float> &values;
};

/** The CSR-backed kernels' shape (spmm_csr, sddmm; hyb's facts). */
KernelShape
csrShape(const Csr &a, int64_t feat)
{
    return {{{"m", a.rows}, {"n", a.cols}, {"nnz", a.nnz()},
             {"feat_size", feat}},
            "J_indptr", "J_indices", a.indptr, a.indices, a.values};
}

KernelShape
bsrShape(const format::Bsr &a, int64_t feat)
{
    return {{{"mb", a.blockRows}, {"nb", a.blockCols},
             {"nnzb", a.nnzBlocks()}, {"feat_size", feat}},
            "JO_indptr", "JO_indices", a.indptr, a.indices, a.values};
}

KernelShape
srbcrsShape(const format::SrBcrs &a, int64_t feat)
{
    return {{{"stripes", a.stripes}, {"n", a.cols},
             {"total_groups", a.numGroups()}, {"feat_size", feat}},
            "G_indptr", "T_indices", a.groupIndptr, a.tileCols,
            a.values};
}

/** Concrete structure facts of a kernel shape. */
verify::VerifyContext
shapeVerifyContext(const KernelShape &shape)
{
    verify::VerifyContext ctx;
    for (const auto &[name, value] : shape.scalars) {
        ctx.scalar(name, value);
    }
    ctx.int32Array(shape.indptrName, shape.indptr);
    ctx.int32Array(shape.indicesName, shape.indices);
    return ctx;
}

/**
 * A one-kernel artifact (spmm_csr, sddmm, BSR, SR-BCRS): the kernel
 * plus its two structure arrays, bound under its KernelShape's names.
 */
struct KernelArtifact : Artifact
{
    CompiledKernel kernel;
    NDArray indptr;
    NDArray indices;

    std::vector<CompiledKernel *>
    nativeKernels() override
    {
        return {&kernel};
    }
};

/**
 * One ELL kernel of a cached hyb decomposition: a non-empty
 * (partition, bucket) of hyb SpMM, or a (relation, bucket) RGMS unit
 * of an RGCN layer.
 */
struct EllUnit
{
    /** RGCN: the relation whose values the unit gathers. */
    int relation = 0;
    std::string suffix;
    CompiledKernel kernel;
    NDArray rowIndices;
    NDArray colIndices;
    /** Slot -> position in the source CSR values (-1: padding). */
    std::vector<int32_t> gather;
};

/** A hyb SpMM or RGCN artifact: its ELL units in execution order. */
struct EllArtifact : Artifact
{
    /** Hyb: resolved bucket cap (k) and the source CSR structure. */
    int bucketCapLog2 = 0;
    NDArray indptr;
    NDArray indices;
    std::vector<EllUnit> units;

    std::vector<CompiledKernel *>
    nativeKernels() override
    {
        std::vector<CompiledKernel *> kernels;
        for (EllUnit &unit : units) {
            kernels.push_back(&unit.kernel);
        }
        return kernels;
    }
};

/** A chain-mode intermediate the dispatch leases scratch for. */
struct GraphTemp
{
    std::string name;
    int64_t numel = 0;
};

/**
 * A whole OpGraph's compiled program: one fused kernel (interior
 * tensors live in per-row locals) or the per-node chain plus its
 * intermediate-materialization plan. Structure arrays are keyed by
 * the lowering's binding names ("J<p>_indptr"/"J<p>_indices").
 */
struct GraphArtifact : Artifact
{
    bool fused = false;
    /** Why fusion bailed to the chain; empty when fused. */
    std::string modeReason;
    std::vector<CompiledKernel> kernels;
    std::map<std::string, NDArray> structures;
    std::vector<GraphTemp> temps;
    /** Bytes of scratch a chain dispatch leases (0 when fused). */
    int64_t tempBytes = 0;

    std::vector<CompiledKernel *>
    nativeKernels() override
    {
        std::vector<CompiledKernel *> out;
        for (CompiledKernel &kernel : kernels) {
            out.push_back(&kernel);
        }
        return out;
    }
};

/**
 * Returns every added scratch lease to the pool on scope exit, so a
 * kernel that throws mid-chain (a binding USER_CHECK, a verifier
 * rejection) cannot leak leased arrays out of the ScratchPool.
 */
class ScratchLeaseGuard
{
  public:
    explicit ScratchLeaseGuard(const ParallelExecutor *executor)
        : executor_(executor)
    {
    }
    ScratchLeaseGuard(const ScratchLeaseGuard &) = delete;
    ScratchLeaseGuard &operator=(const ScratchLeaseGuard &) = delete;
    ~ScratchLeaseGuard() { releaseAll(); }

    /** Lease a float32 array released with the guard. */
    NDArray *
    lease(int64_t numel)
    {
        ScratchPool::Lease lease =
            executor_->leaseScratch(numel, ir::DataType::float32());
        arrays_.push_back(lease.array);
        return lease.array;
    }

    void
    releaseAll()
    {
        for (NDArray *array : arrays_) {
            executor_->releaseScratch(array);
        }
        arrays_.clear();
    }

  private:
    const ParallelExecutor *executor_;
    std::vector<NDArray *> arrays_;
};

// ---------------------------------------------------------------------
// Builders (miss path)
// ---------------------------------------------------------------------

std::shared_ptr<Artifact>
buildKernelArtifact(const ir::PrimFunc &func, const KernelShape &shape,
                    const char *what, bool bytecode, bool verify)
{
    auto artifact = std::make_shared<KernelArtifact>();
    artifact->kernel = compileKernel(func, bytecode);
    if (verify) {
        verify::VerifyContext ctx = shapeVerifyContext(shape);
        declareAccumSpec(&ctx, artifact->kernel, "", nullptr, 0);
        verifyKernelInto(artifact.get(), artifact->kernel, ctx, what);
    }
    artifact->indptr = NDArray::fromInt32(shape.indptr);
    artifact->indices = NDArray::fromInt32(shape.indices);
    return artifact;
}

/**
 * Compile one ELL unit. Its kernel runs exclusive when long rows were
 * split into several ELL rows, its accumulated output `out` is
 * restricted to the unit's rows (`row_width` elements each), and when
 * `facts` is non-null it is verified against them plus the unit's
 * arrays.
 */
EllUnit
compileEllUnit(Artifact *artifact, const format::Ell &ell,
               const ir::PrimFunc &func, std::string suffix,
               const char *out, int64_t row_width, bool bytecode,
               const verify::VerifyContext *facts,
               const std::string &what)
{
    EllUnit unit;
    unit.suffix = std::move(suffix);
    unit.kernel = compileKernel(func, bytecode);
    unit.kernel.exclusive = hasDuplicateRows(ell.rowIndices);
    restrictAccumSpans(&unit.kernel, out, ell.rowIndices, row_width);
    if (facts != nullptr) {
        verify::VerifyContext ctx = *facts;
        ctx.int32Array(core::ellRowIndicesParam(unit.suffix),
                       ell.rowIndices);
        ctx.int32Array(core::ellColIndicesParam(unit.suffix),
                       ell.colIndices);
        declareAccumSpec(&ctx, unit.kernel,
                         core::ellRowIndicesParam(unit.suffix),
                         &ell.rowIndices, row_width);
        verifyKernelInto(artifact, unit.kernel, ctx, what);
    }
    unit.rowIndices = NDArray::fromInt32(ell.rowIndices);
    unit.colIndices = NDArray::fromInt32(ell.colIndices);
    unit.gather = ell.sourcePos;
    return unit;
}

std::shared_ptr<Artifact>
buildSpmmHybArtifact(const Csr &a, int64_t feat,
                     const HybConfig &config, bool bytecode,
                     bool verify)
{
    format::Hyb hyb =
        format::hybFromCsr(a, config.partitions, config.bucketCapLog2);
    std::vector<core::HybKernelPlan> plans =
        core::compileSpmmHybFuncs(hyb, feat, config.threadX);

    auto artifact = std::make_shared<EllArtifact>();
    artifact->bucketCapLog2 = hyb.maxWidthLog2;
    artifact->indptr = NDArray::fromInt32(a.indptr);
    artifact->indices = NDArray::fromInt32(a.indices);
    artifact->units.reserve(plans.size());
    verify::VerifyContext facts;
    if (verify) {
        facts = shapeVerifyContext(csrShape(a, feat));
    }
    for (const core::HybKernelPlan &plan : plans) {
        artifact->units.push_back(compileEllUnit(
            artifact.get(), hyb.buckets[plan.partition][plan.bucket],
            plan.func, plan.suffix, "C_data", feat, bytecode,
            verify ? &facts : nullptr, "spmm_ell_" + plan.suffix));
    }
    return artifact;
}

std::shared_ptr<Artifact>
buildRgcnArtifact(const format::RelationalCsr &graph, int64_t feat_in,
                  int64_t feat_out, const RgcnConfig &config,
                  bool bytecode, bool verify)
{
    auto artifact = std::make_shared<EllArtifact>();
    verify::VerifyContext facts;
    facts.scalar("m", graph.rows);
    facts.scalar("n", graph.cols);
    for (int64_t r = 0; r < graph.numRelations(); ++r) {
        const Csr &rel = graph.relations[r];
        if (rel.nnz() == 0) {
            continue;
        }
        format::Hyb hyb = format::hybFromCsr(
            rel, 1, model::rgcnBucketCap(rel, config.bucketCapLog2));
        for (size_t b = 0; b < hyb.buckets[0].size(); ++b) {
            const format::Ell &bucket = hyb.buckets[0][b];
            if (bucket.numRows() == 0) {
                continue;
            }
            std::string suffix =
                "r" + std::to_string(r) + "b" + std::to_string(b);
            int rows_per_block = model::rgcnRowsPerBlock(bucket.width);
            // A unit touches only its bucket's rows of Y; on
            // many-relation graphs this trims the per-unit zero/fold
            // from the whole output to a few percent of it.
            artifact->units.push_back(compileEllUnit(
                artifact.get(), bucket,
                core::compileEllRgmsFunc(bucket.numRows(),
                                         bucket.width, feat_in,
                                         feat_out, suffix,
                                         config.tensorCores,
                                         rows_per_block),
                suffix, "Y_data", feat_out, bytecode,
                verify ? &facts : nullptr, "rgms_" + suffix));
            artifact->units.back().relation = static_cast<int>(r);
        }
    }
    USER_CHECK(!artifact->units.empty())
        << "relational graph has no non-zeros";
    return artifact;
}

std::shared_ptr<Artifact>
buildGraphArtifact(const dfg::OpGraph &graph, bool fuse,
                   bool bytecode, bool verify)
{
    auto artifact = std::make_shared<GraphArtifact>();
    dfg::GraphLowering lowering;
    {
        SPARSETIR_TRACE_SCOPE("dfg", fuse ? "dfg.fuse" : "dfg.lower");
        lowering = dfg::lowerGraph(graph, fuse);
    }
    artifact->fused = lowering.fused;
    artifact->modeReason = lowering.reason;
    artifact->kernels.reserve(lowering.funcs.size());
    for (const ir::PrimFunc &func : lowering.funcs) {
        artifact->kernels.push_back(compileKernel(func, bytecode));
    }
    if (verify) {
        verify::VerifyContext base;
        for (const dfg::StructureBinding &s : lowering.structures) {
            base.int32Array(s.indptrName, s.pattern->indptr);
            base.int32Array(s.indicesName, s.pattern->indices);
        }
        for (const CompiledKernel &kernel : artifact->kernels) {
            verify::VerifyContext ctx = base;
            declareAccumSpec(&ctx, kernel, "", nullptr, 0);
            verifyKernelInto(artifact.get(), kernel, ctx,
                             kernel.func->name);
        }
    }
    for (const dfg::StructureBinding &s : lowering.structures) {
        artifact->structures.emplace(
            s.indptrName, NDArray::fromInt32(s.pattern->indptr));
        artifact->structures.emplace(
            s.indicesName, NDArray::fromInt32(s.pattern->indices));
    }
    for (const dfg::LoweredTemp &temp : lowering.temps) {
        artifact->temps.push_back(GraphTemp{temp.name, temp.numel});
        artifact->tempBytes +=
            temp.numel * static_cast<int64_t>(sizeof(float));
    }
    return artifact;
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/** Key of a CSR-backed op: the CSR's structure, shape and feat. */
CacheKey
csrKey(OpKind op, const Csr &a, int64_t feat, uint64_t schedule)
{
    CacheKey key;
    key.op = op;
    key.structure = structureHash(a);
    key.schedule = schedule;
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.nnz();
    return key;
}

CacheKey
spmmCsrKey(const Csr &a, int64_t feat,
           const core::SpmmSchedule &schedule)
{
    return csrKey(OpKind::kSpmmCsr, a, feat,
                  Fingerprint()
                      .i64(schedule.threadX)
                      .i64(schedule.rowsPerBlock)
                      .digest());
}

CacheKey
spmmHybKey(const Csr &a, int64_t feat, const HybConfig &config)
{
    return csrKey(OpKind::kSpmmHyb, a, feat,
                  Fingerprint()
                      .i64(config.partitions)
                      .i64(config.bucketCapLog2)
                      .i64(config.threadX)
                      .digest());
}

CacheKey
sddmmKey(const Csr &a, int64_t feat,
         const core::SddmmSchedule &schedule)
{
    return csrKey(OpKind::kSddmm, a, feat,
                  Fingerprint()
                      .i64(schedule.workloadsPerBlock)
                      .i64(schedule.groupSize)
                      .digest());
}

CacheKey
rgcnKey(const format::RelationalCsr &graph, int64_t feat_in,
        int64_t feat_out, const RgcnConfig &config)
{
    CacheKey key;
    key.op = OpKind::kRgcnHyb;
    key.structure = structureHash(graph);
    key.schedule = Fingerprint()
                       .i64(config.bucketCapLog2)
                       .i64(config.tensorCores ? 1 : 0)
                       .digest();
    key.featIn = feat_in;
    key.featOut = feat_out;
    key.rows = graph.rows;
    key.nnz = graph.totalNnz();
    return key;
}

CacheKey
spmmBsrKey(const format::Bsr &a, int64_t feat,
           const BsrConfig &config)
{
    CacheKey key;
    key.op = OpKind::kSpmmBsr;
    key.structure = structureHash(a);
    key.schedule =
        Fingerprint().i64(config.tensorCores ? 1 : 0).digest();
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.nnzBlocks();
    key.blockSize = a.blockSize;
    return key;
}

CacheKey
graphKey(const dfg::OpGraph &graph, bool fuse)
{
    CacheKey key;
    key.op = OpKind::kGraph;
    // The structure field carries the whole topology: op kinds,
    // dataflow edges, feature shapes, and every pattern's structure
    // hash — two graphs differing only in edge sparsity miss.
    key.structure = graph.topologyFingerprint();
    key.schedule = Fingerprint().i64(fuse ? 1 : 0).digest();
    key.rows = graph.rows();
    key.nnz = graph.totalNnz();
    return key;
}

CacheKey
spmmSrbcrsKey(const format::SrBcrs &a, int64_t feat)
{
    CacheKey key;
    key.op = OpKind::kSpmmSrbcrs;
    key.structure = structureHash(a);
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.storedTiles();
    key.tileHeight = a.tileHeight;
    key.groupSize = a.groupSize;
    return key;
}

/**
 * Bindings for a hyb SpMM request over a cached artifact. The bucket
 * compute kernels only read the gathered A_ell_* arrays (the copy
 * iterations were split off and replaced by the format library), so
 * the host dispatch path skips the original CSR arrays entirely —
 * the interpreter resolves bindings lazily. The simulator path
 * (`for_simulation`) must bind every parameter, as gpusim rejects
 * unbound handles.
 */
void
bindSpmmHyb(BindingSet *shared, EllArtifact &artifact, const Csr &a,
            int64_t feat, bool for_simulation)
{
    shared->scalar("m", a.rows);
    shared->scalar("n", a.cols);
    shared->scalar("nnz", a.nnz());
    shared->scalar("feat_size", feat);
    if (for_simulation) {
        shared->external("J_indptr", &artifact.indptr);
        shared->external("J_indices", &artifact.indices);
        shared->own("A_data", NDArray::fromFloat(a.values));
    }
    for (EllUnit &bucket : artifact.units) {
        shared->external(core::ellRowIndicesParam(bucket.suffix),
                         &bucket.rowIndices);
        shared->external(core::ellColIndicesParam(bucket.suffix),
                         &bucket.colIndices);
        shared->own(core::hybValuesParam(bucket.suffix),
                    NDArray::fromFloat(
                        gatherValues(bucket.gather, a.values)));
    }
}

/** An ELL artifact's kernels, in unit order. */
std::vector<const CompiledKernel *>
unitKernels(const Artifact &artifact)
{
    std::vector<const CompiledKernel *> kernels;
    for (const EllUnit &unit :
         static_cast<const EllArtifact &>(artifact).units) {
        kernels.push_back(&unit.kernel);
    }
    return kernels;
}

/**
 * Values are not part of the cache key, so a warm hit never re-runs
 * format::checkCsr: every CSR-backed dispatch re-checks the one rule
 * a request can break on a known structure.
 */
void
checkValues(const Csr &a)
{
    USER_CHECK(static_cast<int64_t>(a.values.size()) == a.nnz())
        << "malformed CSR: values has " << a.values.size()
        << " entries, indices has " << a.nnz()
        << " (values.size() must equal nnz)";
}

/** checkValues for BSR: nnz blocks * blockSize^2 values. */
void
checkValues(const format::Bsr &a)
{
    int64_t expected =
        a.nnzBlocks() * static_cast<int64_t>(a.blockSize) * a.blockSize;
    USER_CHECK(static_cast<int64_t>(a.values.size()) == expected)
        << "malformed BSR: values has " << a.values.size()
        << " entries, " << a.nnzBlocks() << " blocks of "
        << a.blockSize << " x " << a.blockSize << " need " << expected;
}

/**
 * O(1) element-count check of one request array: a short array would
 * fault inside a kernel (InternalError), a long one hides a caller's
 * shape bug.
 */
void
checkNumel(const NDArray *array, const char *name, int64_t expected)
{
    USER_CHECK(array != nullptr)
        << "request is missing its '" << name << "' array";
    USER_CHECK(array->numel() == expected)
        << "request array '" << name << "' has " << array->numel()
        << " elements, the op needs " << expected;
}

/**
 * Validate SpMM requests and list their arrays. Every B must hold
 * `b_numel` elements and every C `c_numel` (null arrays are
 * rejected). Outputs must be distinct,
 * and no output may alias any request's input: requests run
 * concurrently, and every kernel reads B while it writes C, so a
 * write into another request's (or its own) feature matrix breaks
 * the bitwise contract. Sharing one read-only B across requests is
 * fine.
 */
std::vector<RequestArrays>
spmmRequests(const std::vector<SpmmRequest> &requests, int64_t b_numel,
             int64_t c_numel)
{
    std::unordered_set<const NDArray *> outputs;
    outputs.reserve(requests.size());
    for (const SpmmRequest &request : requests) {
        checkNumel(request.b, "B_data", b_numel);
        checkNumel(request.c, "C_data", c_numel);
        USER_CHECK(outputs.insert(request.c).second)
            << "batched SpMM requests must bind distinct output "
               "arrays";
    }
    std::vector<RequestArrays> arrays;
    arrays.reserve(requests.size());
    for (const SpmmRequest &request : requests) {
        USER_CHECK(outputs.count(request.b) == 0)
            << "SpMM request aliases a feature matrix with an output "
               "array";
        arrays.push_back({{"B_data", request.b}, {"C_data", request.c}});
    }
    return arrays;
}

} // namespace

/**
 * One op's share of a dispatch: everything Engine::dispatch needs
 * that differs between entry points.
 */
struct DispatchSpec
{
    OpKind op = OpKind::kSpmmCsr;
    CacheKey key;
    /** Miss-path builder, given (bytecode, verify). */
    std::function<std::shared_ptr<Artifact>(bool, bool)> build;
    /**
     * Binds the shared base (scalars, structure arrays, gathered
     * values; scratch through the guard) and returns the kernels in
     * execution order.
     */
    std::function<std::vector<const CompiledKernel *>(
        Artifact &, BindingSet *, ScratchLeaseGuard *)>
        bind;
    /**
     * Prepared handle: the artifact and its bound base, used instead
     * of resolving and binding (bind only lists the kernels).
     */
    std::shared_ptr<Artifact> prepared;
    const runtime::Bindings *preparedBase = nullptr;
    /**
     * Request array the dispatch zeroes before execution: the
     * overwrite contract of ops whose kernels accumulate into, or
     * only partly write, their output (hyb, BSR).
     */
    const char *zeroed = nullptr;
    /**
     * Kernels feed each other (a graph's per-node chain): one run per
     * kernel in dataflow order, since the task graph lets kernels
     * share outputs only through accumulation.
     */
    bool chain = false;
};

namespace {

/**
 * Spec of a one-kernel op: `lower` produces the Stage III kernel on a
 * miss (after validating what it must). `shape` is borrowed and must
 * outlive the dispatch.
 */
DispatchSpec
kernelSpec(OpKind op, const CacheKey &key, const KernelShape &shape,
           std::function<ir::PrimFunc()> lower, const char *what)
{
    DispatchSpec spec;
    spec.op = op;
    spec.key = key;
    spec.build = [&shape, lower = std::move(lower),
                  what](bool bytecode, bool verify) {
        return buildKernelArtifact(lower(), shape, what, bytecode,
                                   verify);
    };
    spec.bind = [&shape](Artifact &base_artifact, BindingSet *bindings,
                         ScratchLeaseGuard *) {
        auto &artifact = static_cast<KernelArtifact &>(base_artifact);
        for (const auto &[name, value] : shape.scalars) {
            bindings->scalar(name, value);
        }
        bindings->external(shape.indptrName, &artifact.indptr);
        bindings->external(shape.indicesName, &artifact.indices);
        bindings->own("A_data", NDArray::fromFloat(shape.values));
        return std::vector<const CompiledKernel *>{&artifact.kernel};
    };
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

Engine::Engine(EngineOptions options)
    : options_(options),
      pool_(std::make_shared<ThreadPool>(options.numThreads)),
      executor_(pool_),
      metrics_(std::make_unique<observe::MetricsRegistry>()),
      cache_(options.cacheCapacity, metrics_.get())
{
    if (options.trace || observe::traceRequestedByEnv()) {
        observe::TraceRecorder::global().setEnabled(true);
    }
    // SPARSETIR_NATIVE=1 upgrades the default serving backend to the
    // tiered native path; an explicit interpreter selection wins.
    if (options_.backend == runtime::Backend::kBytecode &&
        runtime::native::nativeEnabledByEnv()) {
        options_.backend = runtime::Backend::kNative;
    }
    requests_ = metrics_->counter("engine.requests");
    cacheHits_ = metrics_->counter("engine.cache_hits");
    cacheMisses_ = metrics_->counter("engine.cache_misses");
    compileMs_ = metrics_->histogram("engine.compile_ms");
    execMs_ = metrics_->histogram("engine.exec_ms");
    launchProbes_ = metrics_->counter("runtime.launch_probes");
    nativePromotions_ = metrics_->counter("native.promotions");
    nativeCompiles_ = metrics_->counter("native.compiles");
    nativeDiskHits_ = metrics_->counter("native.disk_hits");
    nativeFallbacks_ = metrics_->counter("native.fallbacks");
    nativeCompileMs_ = metrics_->histogram("native.compile_ms");
    nativePromoteMs_ = metrics_->histogram("native.promote_ms");
    for (runtime::native::Fallback reason :
         {runtime::native::Fallback::kUnsupported,
          runtime::native::Fallback::kCcFailed,
          runtime::native::Fallback::kTimeout}) {
        nativeFallbackReasons_[static_cast<int>(reason)] =
            metrics_->counter(std::string("native.fallbacks.") +
                              runtime::native::fallbackName(reason));
    }
    for (OpKind op :
         {OpKind::kSpmmCsr, OpKind::kSpmmHyb, OpKind::kSddmm,
          OpKind::kRgcnHyb, OpKind::kSpmmBsr, OpKind::kSpmmSrbcrs,
          OpKind::kGraph}) {
        for (bool warm : {true, false}) {
            std::string name =
                std::string(warm ? "engine.warm_dispatch_ms."
                                 : "engine.cold_dispatch_ms.") +
                opKindName(op);
            opLatency_[warm ? 0 : 1][static_cast<int>(op)] =
                metrics_->histogram(name);
        }
    }
}

Engine::~Engine()
{
    // Background promotion tasks capture `this` and record into the
    // session registry; members destruct in reverse declaration
    // order, so the registry would be gone before pool_ joins its
    // workers. Wait for every launched promotion first. No dispatch
    // runs concurrently with destruction (usual dtor contract), so
    // the future list cannot grow under us after the swap. A running
    // promotion kills its compilers on `closing_`, so none of these
    // waits outlasts a compiler run.
    closing_.store(true);
    std::vector<std::future<void>> pending;
    {
        std::lock_guard<std::mutex> lock(promoMu_);
        pending.swap(promoFutures_);
    }
    for (std::future<void> &done : pending) {
        if (done.valid()) {
            done.wait();
        }
    }
}

observe::LatencyHistogram *
Engine::opLatency(OpKind op, bool warm)
{
    return opLatency_[warm ? 0 : 1][static_cast<int>(op)];
}

observe::MetricsSnapshot
Engine::metricsSnapshot() const
{
    observe::MetricsSnapshot snap = metrics_->snapshot();
    ScratchStats scratch = executor_.scratchStats();
    snap.counters["scratch.leases"] =
        static_cast<uint64_t>(scratch.leases);
    snap.counters["scratch.allocations"] =
        static_cast<uint64_t>(scratch.allocations);
    snap.gauges["scratch.leased_bytes"] = scratch.leasedBytes;
    snap.gauges["scratch.peak_leased_bytes"] = scratch.peakLeasedBytes;
    snap.gauges["scratch.free_bytes"] = scratch.freeBytes;
    return snap;
}

ExecOptions
Engine::execOptions() const
{
    ExecOptions exec;
    exec.parallel = options_.parallel;
    exec.minBlocksPerChunk = options_.minBlocksPerChunk;
    exec.backend = options_.backend;
    return exec;
}

std::shared_ptr<Artifact>
Engine::resolve(const CacheKey &key,
                const std::function<std::shared_ptr<Artifact>()> &builder,
                DispatchInfo *info)
{
    SPARSETIR_TRACE_SCOPE1("engine", "engine.resolve", "op",
                           static_cast<int64_t>(key.op));
    // Attribute any grid probes the builder makes (there should be
    // none on warm paths) to THIS engine's registry.
    runtime::ProbeCounterScope probe_scope(launchProbes_);
    auto start = std::chrono::steady_clock::now();
    bool hit = false;
    std::shared_ptr<Artifact> artifact =
        cache_.getOrBuild(key, builder, &hit);
    // The verify verdict rides on the artifact: a failed proof was paid
    // for once at build, and every dispatch that touches the artifact —
    // including warm hits — refuses it at zero re-proving cost.
    if (!artifact->verify.ok) {
        verify::VerifyResult failed;
        failed.ok = false;
        failed.diagnostics = artifact->verify.diagnostics;
        USER_CHECK(false)
            << "compiled artifact failed static verification:\n"
            << verify::formatDiagnostics(failed);
    }
    info->cacheHit = hit;
    info->compileMs = msSince(start);
    if (options_.backend == runtime::Backend::kNative) {
        maybePromote(key, artifact);
    }
    return artifact;
}

void
Engine::maybePromote(const CacheKey &key,
                     const std::shared_ptr<Artifact> &artifact)
{
    if (options_.nativePromoteAfter < 0) {
        return;
    }
    bool launch = false;
    {
        std::lock_guard<std::mutex> lock(promoMu_);
        PromoState &state = promo_[key];
        if (state.launched) {
            return;
        }
        if (++state.warmHits > options_.nativePromoteAfter) {
            state.launched = true;
            launch = true;
        }
    }
    if (!launch) {
        return;
    }
    if (options_.nativePromoteAfter == 0) {
        // Synchronous promotion: deterministic for tests — the first
        // resolve already serves native.
        promoteNow(key, artifact);
        return;
    }
    std::shared_ptr<Artifact> keep = artifact;
    CacheKey promoted_key = key;
    std::future<void> done =
        pool_->submit([this, promoted_key, keep] {
            // promoteNow never submits to or waits on the pool, so a
            // promotion task cannot deadlock behind dispatch work.
            promoteNow(promoted_key, keep);
        });
    std::lock_guard<std::mutex> lock(promoMu_);
    promoFutures_.push_back(std::move(done));
}

void
Engine::promoteNow(const CacheKey &key,
                   const std::shared_ptr<Artifact> &artifact)
{
    SPARSETIR_TRACE_SCOPE1("native", "native.promote", "op",
                           static_cast<int64_t>(key.op));
    auto start = std::chrono::steady_clock::now();
    std::vector<CompiledKernel *> pending;
    std::vector<runtime::native::NativeJob> jobs;
    int index = 0;
    for (CompiledKernel *kernel : artifact->nativeKernels()) {
        int kernel_index = index++;
        if (kernel->native == nullptr ||
            kernel->native->get() != nullptr) {
            continue;
        }
        pending.push_back(kernel);
        jobs.push_back({kernel->func, nativeKeyTag(key, kernel_index)});
    }
    std::vector<runtime::native::NativeBuild> built =
        runtime::native::compileNativeBatch(
            jobs, runtime::native::kCcDeadline, &closing_);
    for (size_t i = 0; i < built.size(); ++i) {
        runtime::native::NativeBuild &build = built[i];
        if (build.kernel == nullptr) {
            // The kernel keeps serving bytecode.
            nativeFallbacks_->add(1);
            nativeFallbackReasons_[static_cast<int>(build.fallback)]
                ->add(1);
            continue;
        }
        nativeCompileMs_->record(build.ms);
        (build.kernel->diskHit ? nativeDiskHits_ : nativeCompiles_)
            ->add(1);
        pending[i]->native->set(std::move(build.kernel));
    }
    nativePromoteMs_->record(msSince(start));
    nativePromotions_->add(1);
}

NativeStats
Engine::nativeStats() const
{
    NativeStats stats;
    stats.promotions = nativePromotions_->value();
    stats.compiles = nativeCompiles_->value();
    stats.diskHits = nativeDiskHits_->value();
    stats.fallbacks = nativeFallbacks_->value();
    return stats;
}

void
Engine::account(const BatchDispatchInfo &info, OpKind op)
{
    auto requests = static_cast<uint64_t>(info.numRequests);
    requests_->add(requests);
    // One resolve serves the whole batch: on a miss exactly one
    // request paid the compile, the rest rode the fresh artifact.
    cacheHits_->add(info.cacheHit ? requests : requests - 1);
    if (!info.cacheHit) {
        cacheMisses_->add(1);
    }
    compileMs_->record(info.compileMs);
    execMs_->record(info.execMs);
    // prepareSpmmHyb accounts a resolve with no kernels executed;
    // keep its zero-latency "dispatch" out of the distributions.
    if (info.numKernels > 0) {
        double per_request = info.execMs / info.numRequests;
        observe::LatencyHistogram *hist = opLatency(op, info.cacheHit);
        for (int i = 0; i < info.numRequests; ++i) {
            hist->record(per_request);
        }
    }
}

EngineStats
Engine::stats() const
{
    EngineStats stats;
    stats.requests = requests_->value();
    stats.cacheHits = cacheHits_->value();
    stats.cacheMisses = cacheMisses_->value();
    stats.totalCompileMs = compileMs_->sumMs();
    stats.totalExecMs = execMs_->sumMs();
    return stats;
}

BatchDispatchInfo
Engine::dispatch(const DispatchSpec &spec,
                 const std::vector<RequestArrays> &requests)
{
    SPARSETIR_TRACE_SCOPE1("engine", "engine.dispatch", "op",
                           static_cast<int64_t>(spec.op));
    BatchDispatchInfo info;
    info.numRequests = static_cast<int>(requests.size());
    if (requests.empty()) {
        return info;
    }
    std::shared_ptr<Artifact> artifact = spec.prepared;
    if (artifact != nullptr) {
        info.cacheHit = true;
    } else {
        artifact = resolve(spec.key,
                           [&] {
                               return spec.build(
                                   usesBytecode(),
                                   options_.verifyArtifacts);
                           },
                           &info);
    }

    auto bind_start = std::chrono::steady_clock::now();
    BindingSet base;
    ScratchLeaseGuard leased(&executor_);
    std::vector<const CompiledKernel *> kernels =
        spec.bind(*artifact, &base, &leased);
    std::vector<runtime::Bindings> copies;
    std::vector<const runtime::Bindings *> views;
    if (requests.size() == 1 && spec.preparedBase == nullptr) {
        // A batch of one binds into the base itself: no copy of the
        // shared maps on the single-request hot path.
        for (const auto &[name, array] : requests[0]) {
            base.external(name, array);
        }
        views.push_back(&base.view());
    } else {
        const runtime::Bindings &shared = spec.preparedBase != nullptr
                                              ? *spec.preparedBase
                                              : base.view();
        copies.reserve(requests.size());
        for (const RequestArrays &request : requests) {
            copies.push_back(shared);
            for (const auto &[name, array] : request) {
                copies.back().arrays[name] = array;
            }
            views.push_back(&copies.back());
        }
    }
    // Every request is validated and bound: only now touch outputs.
    if (spec.zeroed != nullptr) {
        for (const RequestArrays &request : requests) {
            for (const auto &[name, array] : request) {
                if (name == spec.zeroed) {
                    array->zero();
                }
            }
        }
    }
    info.bindMs = msSince(bind_start);

    auto kernel_start = std::chrono::steady_clock::now();
    {
        SPARSETIR_TRACE_SCOPE("engine", "engine.exec");
        ExecOptions exec = execOptions();
        if (spec.chain) {
            for (const CompiledKernel *kernel : kernels) {
                executor_.run({kernel}, views, exec);
            }
        } else {
            executor_.run(kernels, views, exec);
        }
    }
    leased.releaseAll();
    info.kernelMs = msSince(kernel_start);
    info.execMs = info.bindMs + info.kernelMs;
    info.numKernels = static_cast<int>(kernels.size());
    account(info, spec.op);
    return info;
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

DispatchInfo
Engine::spmmCsr(const Csr &a, int64_t feat, NDArray *b, NDArray *c,
                const core::SpmmSchedule &schedule)
{
    return spmmCsrBatch(a, feat, {SpmmRequest{b, c}}, schedule);
}

DispatchInfo
Engine::spmmHyb(const Csr &a, int64_t feat, NDArray *b, NDArray *c,
                const HybConfig &config)
{
    return spmmHybBatch(a, feat, {SpmmRequest{b, c}}, config);
}

DispatchInfo
Engine::spmmBsr(const format::Bsr &a, int64_t feat, NDArray *b,
                NDArray *c, const BsrConfig &config)
{
    return spmmBsrBatch(a, feat, {SpmmRequest{b, c}}, config);
}

DispatchInfo
Engine::spmmSrbcrs(const format::SrBcrs &a, int64_t feat, NDArray *b,
                   NDArray *c)
{
    return spmmSrbcrsBatch(a, feat, {SpmmRequest{b, c}});
}

BatchDispatchInfo
Engine::spmmCsrBatch(const Csr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const core::SpmmSchedule &schedule)
{
    checkValues(a);
    KernelShape shape = csrShape(a, feat);
    return dispatch(kernelSpec(OpKind::kSpmmCsr,
                               spmmCsrKey(a, feat, schedule), shape,
                               [&] {
                                   format::checkCsr(a);
                                   return core::compileSpmmCsrFunc(
                                       feat, schedule);
                               },
                               "spmm_csr"),
                    spmmRequests(requests, a.cols * feat, a.rows * feat));
}

BatchDispatchInfo
Engine::spmmHybBatch(const Csr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const HybConfig &config)
{
    checkValues(a);
    DispatchSpec spec;
    spec.op = OpKind::kSpmmHyb;
    spec.key = spmmHybKey(a, feat, config);
    spec.build = [&](bool bytecode, bool verify) {
        return buildSpmmHybArtifact(a, feat, config, bytecode, verify);
    };
    spec.bind = [&](Artifact &artifact, BindingSet *bindings,
                    ScratchLeaseGuard *) {
        bindSpmmHyb(bindings, static_cast<EllArtifact &>(artifact), a,
                    feat, /*for_simulation=*/false);
        return unitKernels(artifact);
    };
    // Bucket kernels accumulate partial sums; the dispatch owns the
    // overwrite contract (C = A @ B).
    spec.zeroed = "C_data";
    return dispatch(spec,
                    spmmRequests(requests, a.cols * feat, a.rows * feat));
}

BatchDispatchInfo
Engine::spmmHybBatch(const PreparedSpmmHyb &prepared,
                     const std::vector<SpmmRequest> &requests)
{
    USER_CHECK(prepared.artifact != nullptr &&
               prepared.bindings != nullptr)
        << "batched dispatch needs a handle from prepareSpmmHyb";
    // prepareSpmmHyb is the only producer of this handle type, so
    // the artifact is a hyb artifact by construction.
    DispatchSpec spec;
    spec.op = OpKind::kSpmmHyb;
    spec.prepared = prepared.artifact;
    spec.preparedBase = &prepared.bindings->view();
    spec.bind = [](Artifact &artifact, BindingSet *, ScratchLeaseGuard *) {
        return unitKernels(artifact);
    };
    spec.zeroed = "C_data";
    const auto &scalars = prepared.bindings->view().scalars;
    int64_t feat = scalars.at("feat_size");
    return dispatch(spec, spmmRequests(requests, scalars.at("n") * feat,
                                       scalars.at("m") * feat));
}

BatchDispatchInfo
Engine::spmmBsrBatch(const format::Bsr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const BsrConfig &config)
{
    checkValues(a);
    KernelShape shape = bsrShape(a, feat);
    DispatchSpec spec = kernelSpec(
        OpKind::kSpmmBsr, spmmBsrKey(a, feat, config), shape,
        [&] {
            format::checkBsr(a);
            return core::compileBsrSpmmFunc(a.blockSize, feat,
                                            config.tensorCores);
        },
        "bsr_spmm");
    // The kernel's init only zeroes block rows that hold a block; the
    // dispatch owns the overwrite contract for the empty ones.
    spec.zeroed = "C_data";
    int64_t block_feat = static_cast<int64_t>(a.blockSize) * feat;
    return dispatch(spec, spmmRequests(requests, a.blockCols * block_feat,
                                       a.blockRows * block_feat));
}

BatchDispatchInfo
Engine::spmmSrbcrsBatch(const format::SrBcrs &a, int64_t feat,
                        const std::vector<SpmmRequest> &requests)
{
    KernelShape shape = srbcrsShape(a, feat);
    return dispatch(kernelSpec(OpKind::kSpmmSrbcrs,
                               spmmSrbcrsKey(a, feat), shape,
                               [&] {
                                   return core::compileSrbcrsSpmmFunc(
                                       a.tileHeight, a.groupSize, feat);
                               },
                               "srbcrs_spmm"),
                    spmmRequests(requests, a.cols * feat,
                                 a.stripes * a.tileHeight * feat));
}

DispatchInfo
Engine::sddmm(const Csr &a, int64_t feat, NDArray *x, NDArray *y,
              NDArray *out, const core::SddmmSchedule &schedule)
{
    checkValues(a);
    checkNumel(x, "X_data", a.rows * feat);
    checkNumel(y, "Y_data", feat * a.cols);
    checkNumel(out, "B_data", a.nnz());
    KernelShape shape = csrShape(a, feat);
    return dispatch(kernelSpec(OpKind::kSddmm,
                               sddmmKey(a, feat, schedule), shape,
                               [&] {
                                   format::checkCsr(a);
                                   return core::compileSddmmFunc(
                                       feat, schedule);
                               },
                               "sddmm"),
                    {{{"X_data", x}, {"Y_data", y}, {"B_data", out}}});
}

DispatchInfo
Engine::rgcn(const format::RelationalCsr &graph, int64_t feat,
             NDArray *x, NDArray *w, NDArray *y,
             const RgcnConfig &config)
{
    return rgcn(graph, feat, feat, x, w, y, config);
}

DispatchInfo
Engine::rgcn(const format::RelationalCsr &graph, int64_t featIn,
             int64_t featOut, NDArray *x, NDArray *w, NDArray *y,
             const RgcnConfig &config)
{
    for (size_t r = 0; r < graph.relations.size(); ++r) {
        const Csr &relation = graph.relations[r];
        USER_CHECK(relation.rows == graph.rows &&
                   relation.cols == graph.cols)
            << "malformed relational graph: relation " << r << " is "
            << relation.rows << " x " << relation.cols
            << ", the graph is " << graph.rows << " x " << graph.cols;
        checkValues(relation);
    }
    checkNumel(x, "X_data", graph.cols * featIn);
    checkNumel(w, "W_data", featIn * featOut);
    checkNumel(y, "Y_data", graph.rows * featOut);
    DispatchSpec spec;
    spec.op = OpKind::kRgcnHyb;
    spec.key = rgcnKey(graph, featIn, featOut, config);
    spec.build = [&](bool bytecode, bool verify) {
        return buildRgcnArtifact(graph, featIn, featOut, config,
                                 bytecode, verify);
    };
    spec.bind = [&](Artifact &base_artifact, BindingSet *bindings,
                    ScratchLeaseGuard *) {
        auto &artifact = static_cast<EllArtifact &>(base_artifact);
        bindings->scalar("m", graph.rows);
        bindings->scalar("n", graph.cols);
        bindings->scalar("feat_in", featIn);
        bindings->scalar("feat_out", featOut);
        for (EllUnit &unit : artifact.units) {
            bindings->external(core::ellRowIndicesParam(unit.suffix),
                               &unit.rowIndices);
            bindings->external(core::ellColIndicesParam(unit.suffix),
                               &unit.colIndices);
            bindings->own(core::rgmsValuesParam(unit.suffix),
                          NDArray::fromFloat(gatherValues(
                              unit.gather,
                              graph.relations[unit.relation].values)));
        }
        return unitKernels(artifact);
    };
    return dispatch(spec,
                    {{{"X_data", x}, {"W_data", w}, {"Y_data", y}}});
}

DispatchInfo
Engine::dispatchGraph(const dfg::OpGraph &graph,
                      const std::map<std::string, NDArray *> &io,
                      const GraphDispatchOptions &options)
{
    // Every named value (graph input or marked output) needs an array
    // of the exact element count; unknown names are request bugs.
    size_t named = 0;
    for (const dfg::ValueDesc &desc : graph.values()) {
        if (desc.name.empty()) {
            continue;
        }
        named += 1;
        auto it = io.find(desc.name);
        USER_CHECK(it != io.end() && it->second != nullptr)
            << "graph dispatch is missing an array for value '"
            << desc.name << "'";
        int64_t numel = desc.edge ? desc.pattern->nnz()
                                  : desc.rows * desc.cols;
        USER_CHECK(it->second->numel() == numel)
            << "array for graph value '" << desc.name << "' has "
            << it->second->numel() << " elements, graph expects "
            << numel;
    }
    USER_CHECK(io.size() == named)
        << "graph dispatch got " << io.size() << " arrays for "
        << named << " named values — unknown names in the io map";

    DispatchSpec spec;
    spec.op = OpKind::kGraph;
    spec.key = graphKey(graph, options.fuse);
    spec.build = [&](bool bytecode, bool verify) {
        return buildGraphArtifact(graph, options.fuse, bytecode, verify);
    };
    spec.bind = [](Artifact &base_artifact, BindingSet *bindings,
                   ScratchLeaseGuard *leased) {
        auto &artifact = static_cast<GraphArtifact &>(base_artifact);
        for (auto &kv : artifact.structures) {
            bindings->external(kv.first, &kv.second);
        }
        // Chain mode materializes interior tensors in pooled scratch;
        // the fused kernel has none (per-row locals), so its dispatch
        // leases nothing and the scratch peak stays at zero. No
        // zeroing needed: every element a chain kernel reads was
        // written by its producer.
        for (const GraphTemp &temp : artifact.temps) {
            bindings->external(temp.name, leased->lease(temp.numel));
        }
        std::vector<const CompiledKernel *> kernels;
        for (const CompiledKernel &kernel : artifact.kernels) {
            kernels.push_back(&kernel);
        }
        return kernels;
    };
    spec.chain = true;
    return dispatch(spec, {RequestArrays(io.begin(), io.end())});
}

PreparedSpmmHyb
Engine::prepareSpmmHyb(const Csr &a, int64_t feat,
                       const HybConfig &config)
{
    SPARSETIR_TRACE_SCOPE("engine", "dispatch.prepare_spmm_hyb");
    checkValues(a);
    BatchDispatchInfo info;
    info.numRequests = 1;
    auto artifact = std::static_pointer_cast<EllArtifact>(
        resolve(spmmHybKey(a, feat, config),
                [&] {
                    return buildSpmmHybArtifact(
                        a, feat, config, usesBytecode(),
                        options_.verifyArtifacts);
                },
                &info));
    account(info, OpKind::kSpmmHyb);

    PreparedSpmmHyb prepared;
    prepared.cacheHit = info.cacheHit;
    prepared.bucketCapLog2 = artifact->bucketCapLog2;
    prepared.artifact = artifact;
    prepared.bindings = std::make_shared<BindingSet>();
    bindSpmmHyb(prepared.bindings.get(), *artifact, a, feat,
                /*for_simulation=*/true);
    for (const EllUnit &bucket : artifact->units) {
        prepared.kernels.push_back(std::make_shared<core::BoundKernel>(
            bucket.kernel.func, prepared.bindings));
    }
    return prepared;
}

} // namespace engine
} // namespace sparsetir
