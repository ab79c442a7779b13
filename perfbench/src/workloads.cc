#include "workloads.h"

#include "graph/generator.h"
#include "graph/pruned_weights.h"
#include "model/attention.h"
#include "model/graphsage.h"
#include "support/rng.h"
#include "util.h"

namespace perfbench {

namespace {

using st::engine::Engine;
using st::format::Csr;

st::engine::HybConfig
hybConfig()
{
    st::engine::HybConfig config;
    config.partitions = kHybPartitions;
    return config;
}

/** DispatchInfo and BatchDispatchInfo carry the same timings. */
template <typename Info>
CallInfo
callInfo(const Info &info)
{
    CallInfo out;
    out.cacheHit = info.cacheHit;
    out.resolveMs = info.compileMs;
    out.bindMs = info.bindMs;
    out.kernelMs = info.kernelMs;
    return out;
}

Csr
squareGraph(int64_t nodes, int64_t edges, double alpha, uint64_t seed)
{
    Csr g = st::graph::powerLawGraph(nodes, edges, alpha, seed);
    g.cols = nodes;
    return g;
}

/** `count` variants of a CSR-operand job: new values and inputs. */
void
addCsrVariants(Job *job, const Csr &structure, int count, uint64_t seed)
{
    for (int v = 0; v < count; ++v) {
        Variant var;
        var.csr = structure;
        var.csr.values = randomFloats(structure.nnz(), subSeed(seed, v, 1));
        const Csr &a = var.csr;
        switch (job->op) {
          case Op::kSpmmCsr:
          case Op::kSpmmHyb:
            var.in.push_back(randomArray(a.cols * kFeat,
                                         subSeed(seed, v, 2)));
            var.out.push_back(zeroArray(a.rows * kFeat));
            break;
          case Op::kSpmmHybBatch:
            for (int r = 0; r < kBatch; ++r) {
                var.in.push_back(randomArray(a.cols * kFeat,
                                             subSeed(seed, v, 10 + r)));
                var.out.push_back(zeroArray(a.rows * kFeat));
            }
            break;
          case Op::kSddmm:
            var.in.push_back(randomArray(a.rows * kFeat,
                                         subSeed(seed, v, 2)));
            var.in.push_back(randomArray(kFeat * a.cols,
                                         subSeed(seed, v, 3)));
            var.out.push_back(zeroArray(a.nnz()));
            break;
          default:
            break;
        }
        job->vars.push_back(std::move(var));
    }
}

std::unique_ptr<Job>
csrJob(Op op, const Csr &structure, int variants, uint64_t seed)
{
    auto job = std::make_unique<Job>();
    job->op = op;
    addCsrVariants(job.get(), structure, variants, seed);
    return job;
}

std::unique_ptr<Job>
bsrJob(const Csr &weight, bool convert, int variants, uint64_t seed)
{
    auto job = std::make_unique<Job>();
    job->op = Op::kSpmmBsr;
    job->convertBsr = convert;
    st::format::Bsr shape = st::format::bsrFromCsr(weight, 8);
    for (int v = 0; v < variants; ++v) {
        Variant var;
        if (convert) {
            var.csr = weight;
            var.csr.values =
                randomFloats(weight.nnz(), subSeed(seed, v, 1));
        } else {
            var.bsr = shape;
            var.bsr.values = randomFloats(
                static_cast<int64_t>(shape.values.size()),
                subSeed(seed, v, 1));
        }
        var.in.push_back(randomArray(
            shape.blockCols * shape.blockSize * kFeat,
            subSeed(seed, v, 2)));
        var.out.push_back(
            zeroArray(shape.blockRows * shape.blockSize * kFeat));
        job->vars.push_back(std::move(var));
    }
    return job;
}

std::unique_ptr<Job>
rgcnJob(const st::format::RelationalCsr &graph, int variants,
        uint64_t seed)
{
    auto job = std::make_unique<Job>();
    job->op = Op::kRgcn;
    for (int v = 0; v < variants; ++v) {
        Variant var;
        var.rel = graph;
        for (size_t r = 0; r < var.rel.relations.size(); ++r) {
            Csr &rel = var.rel.relations[r];
            rel.values = randomFloats(rel.nnz(), subSeed(seed, v, 20 + r));
        }
        var.in.push_back(randomArray(graph.cols * kFeat,
                                     subSeed(seed, v, 2)));
        var.in.push_back(randomArray(kFeat * kFeat, subSeed(seed, v, 3)));
        var.out.push_back(zeroArray(graph.rows * kFeat));
        job->vars.push_back(std::move(var));
    }
    return job;
}

std::unique_ptr<Job>
graphJob(Op op, const Csr &mask, int variants, uint64_t seed)
{
    auto job = std::make_unique<Job>();
    job->op = op;
    job->pattern = st::dfg::SparsityPattern::fromCsr(mask);
    for (int v = 0; v < variants; ++v) {
        Variant var;
        if (op == Op::kAttention) {
            var.in.push_back(randomArray(mask.rows * kFeat,
                                         subSeed(seed, v, 2)));
            var.in.push_back(randomArray(kFeat * mask.cols,
                                         subSeed(seed, v, 3)));
            var.in.push_back(randomArray(mask.cols * kFeat,
                                         subSeed(seed, v, 4)));
        } else {
            var.in.push_back(randomArray(mask.cols * kFeat,
                                         subSeed(seed, v, 2)));
            var.in.push_back(randomArray(kFeat * kFeat,
                                         subSeed(seed, v, 3)));
        }
        var.out.push_back(zeroArray(mask.rows * kFeat));
        job->vars.push_back(std::move(var));
    }
    return job;
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::kSpmmCsr: return "spmm_csr";
      case Op::kSpmmHyb: return "spmm_hyb";
      case Op::kSpmmHybBatch: return "spmm_hyb_batch";
      case Op::kSpmmBsr: return "spmm_bsr";
      case Op::kSddmm: return "sddmm";
      case Op::kRgcn: return "rgcn";
      case Op::kAttention: return "attention";
      case Op::kGraphSage: return "graphsage";
    }
    return "?";
}

std::vector<std::shared_ptr<Job>>
makeWarmJobs(uint64_t seed, int variants)
{
    // The served structures are part of the workload's definition and
    // fixed; the seed draws every value and feature array.
    const uint64_t shape = kFixedStructureSeed;
    std::vector<std::shared_ptr<Job>> jobs;
    Csr g = squareGraph(1500, 12000, 1.8, subSeed(shape, 1));
    jobs.push_back(csrJob(Op::kSpmmCsr, g, variants, subSeed(seed, 2)));
    jobs.push_back(csrJob(Op::kSpmmHyb, g, variants, subSeed(seed, 3)));
    jobs.push_back(
        csrJob(Op::kSpmmHybBatch, g, variants, subSeed(seed, 4)));

    Csr weight = st::graph::blockPrunedWeight(256, 256, 8, 0.25, 0.5,
                                              subSeed(shape, 5));
    jobs.push_back(bsrJob(weight, false, variants, subSeed(seed, 6)));

    jobs.push_back(csrJob(Op::kSddmm, g, variants, subSeed(seed, 7)));

    st::format::RelationalCsr rel;
    rel.rows = 200;
    rel.cols = 200;
    for (int r = 0; r < 3; ++r) {
        rel.relations.push_back(
            squareGraph(200, 1000, 1.8, subSeed(shape, 8, r)));
    }
    jobs.push_back(rgcnJob(rel, variants, subSeed(seed, 9)));

    jobs.push_back(graphJob(Op::kAttention,
                            squareGraph(500, 3000, 1.8, subSeed(shape, 10)),
                            variants, subSeed(seed, 11)));
    jobs.push_back(graphJob(Op::kGraphSage,
                            squareGraph(500, 3000, 1.7, subSeed(shape, 12)),
                            variants, subSeed(seed, 13)));
    return jobs;
}

std::unique_ptr<Job>
makeChurnJob(uint64_t seed, int64_t index)
{
    static const Op kMix[] = {Op::kSpmmHyb, Op::kAttention, Op::kSpmmCsr,
                              Op::kSpmmBsr, Op::kSddmm};
    constexpr int64_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
    st::Rng rng(subSeed(seed, 101, static_cast<uint64_t>(index)));
    Op op = kMix[index % kMixSize];
    uint64_t job_seed = rng.next();
    // Size and density walk a fixed grid, one step per request of the
    // op family (40 combinations), so every seed serves the same mix of
    // sizes; the seed draws each structure's topology, skew and values.
    // Sizes run from half to all of the FAST shapes of
    // bench_engine_throughput: its 2000-row, degree-6 power-law graph,
    // its 500-row, degree-8 attention mask and its 500-row block-8 BSR
    // source.
    const int64_t k = index / kMixSize;
    auto grid = [k](int64_t lo, int64_t hi, int64_t steps, int64_t every) {
        return lo + (hi - lo) * ((k / every) % steps) / (steps - 1);
    };
    if (op == Op::kSpmmBsr) {
        int64_t size = 8 * grid(32, 64, 8, 1);
        double density = 0.05 + 0.15 * grid(0, 4, 5, 8) / 4.0;
        double keep = 0.3 + 0.4 * rng.uniformReal();
        Csr weight = st::graph::blockPrunedWeight(size, size, 8, density,
                                                  keep, job_seed);
        return bsrJob(weight, true, 1, subSeed(job_seed, 1));
    }
    if (op == Op::kAttention) {
        int64_t nodes = grid(250, 500, 8, 1);
        int64_t degree = grid(6, 10, 5, 8);
        return graphJob(op,
                        squareGraph(nodes, nodes * degree, 1.8, job_seed),
                        1, subSeed(job_seed, 1));
    }
    int64_t nodes = grid(1000, 2000, 8, 1);
    int64_t degree = grid(4, 8, 5, 8);
    double alpha = 1.5 + 0.8 * rng.uniformReal();
    return csrJob(op, squareGraph(nodes, nodes * degree, alpha, job_seed),
                  1, subSeed(job_seed, 1));
}

void
resetOutputs(Variant &v)
{
    for (NDArray &out : v.out) {
        out.zero();
    }
}

CallInfo
dispatch(Engine &engine, Job &job, int variant)
{
    Variant &v = job.vars[variant];
    switch (job.op) {
      case Op::kSpmmCsr:
        return callInfo(
            engine.spmmCsr(v.csr, kFeat, &v.in[0], &v.out[0]));
      case Op::kSpmmHyb:
        return callInfo(engine.spmmHyb(v.csr, kFeat, &v.in[0],
                                           &v.out[0], hybConfig()));
      case Op::kSpmmHybBatch: {
        std::vector<st::engine::SpmmRequest> requests;
        for (int r = 0; r < kBatch; ++r) {
            requests.push_back({&v.in[r], &v.out[r]});
        }
        return callInfo(
            engine.spmmHybBatch(v.csr, kFeat, requests, hybConfig()));
      }
      case Op::kSpmmBsr: {
        if (!job.convertBsr) {
            return callInfo(
                engine.spmmBsr(v.bsr, kFeat, &v.in[0], &v.out[0]));
        }
        st::format::Bsr bsr;
        double ms =
            timeMs([&] { bsr = st::format::bsrFromCsr(v.csr, 8); });
        CallInfo info = callInfo(
            engine.spmmBsr(bsr, kFeat, &v.in[0], &v.out[0]));
        info.decomposeMs = ms;
        return info;
      }
      case Op::kSddmm:
        return callInfo(engine.sddmm(v.csr, kFeat, &v.in[0],
                                         &v.in[1], &v.out[0]));
      case Op::kRgcn:
        return callInfo(engine.rgcn(v.rel, kFeat, &v.in[0], &v.in[1],
                                        &v.out[0]));
      case Op::kAttention:
        return callInfo(st::model::attentionPipeline(
            engine, job.pattern, kFeat, &v.in[0], &v.in[1], &v.in[2],
            &v.out[0]));
      case Op::kGraphSage:
        return callInfo(st::model::graphSageLayer(
            engine, job.pattern, kFeat, kFeat, &v.in[0], &v.in[1],
            &v.out[0]));
    }
    return CallInfo();
}

std::vector<uint64_t>
outputHashes(const Variant &v)
{
    std::vector<uint64_t> hashes;
    hashes.reserve(v.out.size());
    for (const NDArray &out : v.out) {
        hashes.push_back(hashArray(out));
    }
    return hashes;
}

} // namespace perfbench
