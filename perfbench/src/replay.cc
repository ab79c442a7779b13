#include "replay.h"

#include <unordered_set>

#include "core/pipeline.h"
#include "dfg/lower.h"
#include "engine/executor.h"
#include "engine/fingerprint.h"
#include "format/hyb.h"
#include "model/attention.h"
#include "model/graphsage.h"
#include "model/rgcn.h"
#include "runtime/bytecode/program.h"
#include "runtime/native/c_emitter.h"
#include "runtime/native/native_compiler.h"
#include "support/logging.h"
#include "verify/verifier.h"

namespace perfbench {

namespace {

using st::engine::CompiledKernel;
using st::format::Csr;

// The verifier contexts below mirror what the engine's build*Artifact
// functions declare on a miss: the request's concrete structure arrays
// plus the kernel's write set.

st::verify::VerifyContext
csrContext(const Csr &a)
{
    st::verify::VerifyContext ctx;
    ctx.scalar("m", a.rows);
    ctx.scalar("n", a.cols);
    ctx.scalar("nnz", a.nnz());
    ctx.scalar("feat_size", kFeat);
    ctx.int32Array("J_indptr", a.indptr);
    ctx.int32Array("J_indices", a.indices);
    return ctx;
}

void
declareAccums(st::verify::VerifyContext *ctx, const CompiledKernel &kernel,
              const std::string &rows_buffer,
              const std::vector<int32_t> *rows)
{
    ctx->hasAccumSpec = true;
    ctx->kernelExclusive = kernel.exclusive;
    for (const st::engine::AccumOutput &out : kernel.accums) {
        st::verify::AccumWriteSet set;
        set.buffer = out.name;
        set.wholeArray = out.wholeArray;
        set.spans = out.window.spans;
        set.rowsBuffer = rows_buffer;
        set.rows = rows;
        set.rowWidth = rows != nullptr ? kFeat : 0;
        ctx->accums.push_back(std::move(set));
    }
}

bool
hasDuplicateRows(const std::vector<int32_t> &rows)
{
    std::unordered_set<int32_t> seen;
    for (int32_t r : rows) {
        if (!seen.insert(r).second) {
            return true;
        }
    }
    return false;
}

/** Scatter kernels write only their bucket's rows (as in the engine). */
void
restrictToRows(CompiledKernel *kernel, const std::string &name,
               const std::vector<int32_t> &rows)
{
    for (st::engine::AccumOutput &out : kernel->accums) {
        if (out.name == name) {
            out.setSpans(st::engine::touchedRowSpans(rows, kFeat));
        }
    }
}

class Replayer
{
  public:
    Replayer(MissReplay *miss, SpanLog *log, int64_t request)
        : miss_(miss), log_(log), request_(request)
    {
    }

    template <typename Fn>
    void
    timed(const char *span, double *total, Fn &&fn)
    {
        *total += log_->span(span, request_, fn);
    }

    CompiledKernel
    compile(const st::ir::PrimFunc &func)
    {
        CompiledKernel kernel;
        timed("bytecode.compile", &miss_->bytecodeMs,
              [&] { kernel = st::engine::compileKernel(func, true); });
        if (kernel.program != nullptr) {
            miss_->programInsns +=
                static_cast<int64_t>(kernel.program->code.size());
        }
        miss_->funcs.push_back(func);
        return kernel;
    }

    void
    verify(const CompiledKernel &kernel,
           const st::verify::VerifyContext &ctx)
    {
        st::verify::VerifyResult result;
        timed("verify.verify", &miss_->verifyMs, [&] {
            result = st::verify::verifyFunc(kernel.func, ctx);
        });
        if (!result.ok) {
            miss_->verifyFailures += 1;
        }
    }

    /** One structure-independent CSR-family kernel. */
    void
    singleKernel(const st::ir::PrimFunc &func,
                 st::verify::VerifyContext ctx)
    {
        CompiledKernel kernel = compile(func);
        declareAccums(&ctx, kernel, "", nullptr);
        verify(kernel, ctx);
    }

    void
    hyb(const Csr &a)
    {
        st::format::Hyb hyb;
        timed("format.decompose", &miss_->decomposeMs, [&] {
            hyb = st::format::hybFromCsr(a, kHybPartitions, -1);
        });
        std::vector<st::core::HybKernelPlan> plans;
        timed("transform.lower", &miss_->lowerMs, [&] {
            plans = st::core::compileSpmmHybFuncs(hyb, kFeat, 32);
        });
        for (const st::core::HybKernelPlan &plan : plans) {
            const st::format::Ell &ell =
                hyb.buckets[plan.partition][plan.bucket];
            CompiledKernel kernel = compile(plan.func);
            kernel.exclusive = hasDuplicateRows(ell.rowIndices);
            restrictToRows(&kernel, "C_data", ell.rowIndices);
            st::verify::VerifyContext ctx = csrContext(a);
            std::string rows = st::core::ellRowIndicesParam(plan.suffix);
            ctx.int32Array(rows, ell.rowIndices);
            ctx.int32Array(st::core::ellColIndicesParam(plan.suffix),
                           ell.colIndices);
            declareAccums(&ctx, kernel, rows, &ell.rowIndices);
            verify(kernel, ctx);
        }
    }

    void
    bsr(const st::format::Bsr &a)
    {
        st::ir::PrimFunc func;
        timed("transform.lower", &miss_->lowerMs, [&] {
            func = st::core::compileBsrSpmmFunc(a.blockSize, kFeat, false);
        });
        st::verify::VerifyContext ctx;
        ctx.scalar("mb", a.blockRows);
        ctx.scalar("nb", a.blockCols);
        ctx.scalar("nnzb", a.nnzBlocks());
        ctx.scalar("feat_size", kFeat);
        ctx.int32Array("JO_indptr", a.indptr);
        ctx.int32Array("JO_indices", a.indices);
        singleKernel(func, ctx);
    }

    void
    rgcn(const st::format::RelationalCsr &graph)
    {
        for (int64_t r = 0; r < graph.numRelations(); ++r) {
            const Csr &rel = graph.relations[r];
            if (rel.nnz() == 0) {
                continue;
            }
            st::format::Hyb hyb;
            timed("format.decompose", &miss_->decomposeMs, [&] {
                hyb = st::format::hybFromCsr(
                    rel, 1, st::model::rgcnBucketCap(rel, 5));
            });
            for (size_t b = 0; b < hyb.buckets[0].size(); ++b) {
                const st::format::Ell &bucket = hyb.buckets[0][b];
                if (bucket.numRows() == 0) {
                    continue;
                }
                std::string suffix =
                    "r" + std::to_string(r) + "b" + std::to_string(b);
                st::ir::PrimFunc func;
                timed("transform.lower", &miss_->lowerMs, [&] {
                    func = st::core::compileEllRgmsFunc(
                        bucket.numRows(), bucket.width, kFeat, kFeat,
                        suffix, false,
                        st::model::rgcnRowsPerBlock(bucket.width));
                });
                CompiledKernel kernel = compile(func);
                kernel.exclusive = hasDuplicateRows(bucket.rowIndices);
                restrictToRows(&kernel, "Y_data", bucket.rowIndices);
                st::verify::VerifyContext ctx;
                ctx.scalar("m", graph.rows);
                ctx.scalar("n", graph.cols);
                std::string rows = st::core::ellRowIndicesParam(suffix);
                ctx.int32Array(rows, bucket.rowIndices);
                ctx.int32Array(st::core::ellColIndicesParam(suffix),
                               bucket.colIndices);
                declareAccums(&ctx, kernel, rows, &bucket.rowIndices);
                verify(kernel, ctx);
            }
        }
    }

    void
    graph(const st::dfg::OpGraph &graph)
    {
        st::dfg::GraphLowering lowering;
        timed("dfg.lower", &miss_->dfgMs,
              [&] { lowering = st::dfg::lowerGraph(graph, true); });
        st::verify::VerifyContext base;
        for (const st::dfg::StructureBinding &s : lowering.structures) {
            base.int32Array(s.indptrName, s.pattern->indptr);
            base.int32Array(s.indicesName, s.pattern->indices);
        }
        for (const st::ir::PrimFunc &func : lowering.funcs) {
            singleKernel(func, base);
        }
    }

  private:
    MissReplay *miss_;
    SpanLog *log_;
    int64_t request_;
};

st::dfg::OpGraph
buildGraph(const Job &job)
{
    return job.op == Op::kAttention
               ? st::model::buildAttentionGraph(job.pattern, kFeat)
               : st::model::buildGraphSageLayerGraph(job.pattern, kFeat,
                                                     kFeat);
}

} // namespace

MissReplay
replayMiss(const Job &job, int variant, SpanLog *log, int64_t request)
{
    const Variant &v = job.vars[variant];
    MissReplay miss;
    Replayer replay(&miss, log, request);
    switch (job.op) {
      case Op::kSpmmCsr: {
        st::ir::PrimFunc func;
        replay.timed("transform.lower", &miss.lowerMs, [&] {
            func = st::core::compileSpmmCsrFunc(kFeat,
                                                st::core::SpmmSchedule());
        });
        replay.singleKernel(func, csrContext(v.csr));
        break;
      }
      case Op::kSddmm: {
        st::ir::PrimFunc func;
        replay.timed("transform.lower", &miss.lowerMs, [&] {
            func = st::core::compileSddmmFunc(kFeat,
                                              st::core::SddmmSchedule());
        });
        replay.singleKernel(func, csrContext(v.csr));
        break;
      }
      case Op::kSpmmHyb:
      case Op::kSpmmHybBatch:
        replay.hyb(v.csr);
        break;
      case Op::kSpmmBsr:
        if (job.convertBsr) {
            st::format::Bsr bsr;
            replay.timed("format.decompose", &miss.clientDecomposeMs,
                         [&] { bsr = st::format::bsrFromCsr(v.csr, 8); });
            replay.bsr(bsr);
        } else {
            replay.bsr(v.bsr);
        }
        break;
      case Op::kRgcn:
        replay.rgcn(v.rel);
        break;
      case Op::kAttention:
      case Op::kGraphSage:
        replay.graph(buildGraph(job));
        break;
    }
    return miss;
}

NativeReplay
replayNative(const MissReplay &miss, SpanLog *log, int64_t request,
             const std::string &tag)
{
    NativeReplay out;
    for (size_t k = 0; k < miss.funcs.size(); ++k) {
        std::string key = tag + "-k" + std::to_string(k);
        st::runtime::native::EmitResult emitted;
        double emit_ms = log->span("native.emit", request, [&] {
            emitted = st::runtime::native::emitC(miss.funcs[k], key);
        });
        out.emitMs += emit_ms;
        out.sourceBytes += static_cast<int64_t>(emitted.source.size());
        int64_t start = st::observe::TraceRecorder::nowNs();
        double total_ms = 0.0;
        try {
            total_ms = timeMs([&] {
                st::runtime::native::compileNative(miss.funcs[k], key);
            });
        } catch (const st::UserError &) {
            // Outside the native subset: the serving engine counts it
            // as a fallback (native.fallbacks).
        }
        // compileNative emits the source again before it runs cc.
        double cc_ms = total_ms > emit_ms ? total_ms - emit_ms : 0.0;
        log->add("native.cc", request,
                 start + static_cast<int64_t>(emit_ms * 1e6), cc_ms);
        out.ccMs += cc_ms;
    }
    return out;
}

double
replayFingerprint(const Job &job, int variant, SpanLog *log,
                  int64_t request)
{
    const Variant &v = job.vars[variant];
    uint64_t sink = 0;
    double ms = 0.0;
    switch (job.op) {
      case Op::kSpmmBsr:
        if (job.convertBsr) {
            st::format::Bsr bsr = st::format::bsrFromCsr(v.csr, 8);
            ms = log->span("engine.fingerprint", request, [&] {
                sink = st::engine::structureHash(bsr);
            });
        } else {
            ms = log->span("engine.fingerprint", request, [&] {
                sink = st::engine::structureHash(v.bsr);
            });
        }
        break;
      case Op::kRgcn:
        ms = log->span("engine.fingerprint", request,
                       [&] { sink = st::engine::structureHash(v.rel); });
        break;
      case Op::kAttention:
      case Op::kGraphSage: {
        st::dfg::OpGraph graph = buildGraph(job);
        ms = log->span("engine.fingerprint", request,
                       [&] { sink = graph.topologyFingerprint(); });
        break;
      }
      default:
        ms = log->span("engine.fingerprint", request,
                       [&] { sink = st::engine::structureHash(v.csr); });
        break;
    }
    static volatile uint64_t keep;
    keep = sink;
    return ms;
}

} // namespace perfbench
