/**
 * @file
 * Serving benchmark of the sparsetir engine.
 *
 *   perfbench --workload <serve_warm|serve_warm_native|structure_churn>
 *             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
 *             [--setup-only]
 *
 * One client thread sends requests in a closed loop (the next request
 * goes out when the previous one returns, no think time) to one
 * engine whose pool has one worker thread. The process
 * prints "READY" once set-up is done (the caller times set-up from
 * spawn to that line), serves until --seconds have been spent in
 * engine calls, then checks every response bitwise against the
 * interpreter oracle outside the timed window. The last stdout line is
 * the JSON result: end-to-end metrics with --trace 0; with --trace 1
 * the per-layer breakdown, measured by timing calls into each layer's
 * public functions (see replay.h).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "format/hyb.h"
#include "reference.h"
#include "replay.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using st::engine::Engine;
using st::engine::EngineOptions;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool setupOnly = false;
    std::string workDir;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc) {
            throw std::runtime_error("missing value for " + flag);
        }
        std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            throw std::runtime_error("unknown flag " + flag);
        }
    }
    if (args.workload.empty() || !have_seed || args.workDir.empty() ||
        (!args.setupOnly && args.seconds <= 0.0)) {
        throw std::runtime_error(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> --work-dir <dir> [--setup-only]");
    }
    return args;
}

struct WorkloadSpec
{
    bool churn = false;
    bool native = false;
};

WorkloadSpec
workloadSpec(const std::string &name)
{
    if (name == "serve_warm") {
        return {false, false};
    }
    if (name == "serve_warm_native") {
        return {false, true};
    }
    if (name == "structure_churn") {
        return {true, false};
    }
    throw std::runtime_error("unknown workload '" + name + "'");
}

int
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

/**
 * One worker: client plus workers stay within nproc on any host, and
 * no figure depends on how many cores a shared host delivers at the
 * moment (parallel scaling is not measured; see host.effective_cores).
 */
int
workerThreads()
{
    return 1;
}

/** Every option set explicitly: no environment variable applies. */
EngineOptions
servingOptions(const WorkloadSpec &spec)
{
    EngineOptions options;
    options.numThreads = workerThreads();
    options.cacheCapacity = spec.churn ? 8 : 64;
    options.parallel = true;
    options.fusedDispatch = true;
    options.trace = false;
    options.verifyArtifacts = true;
    options.backend = spec.native ? st::runtime::Backend::kNative
                                  : st::runtime::Backend::kBytecode;
    // Native: promote synchronously inside the first (set-up) resolve.
    options.nativePromoteAfter = spec.native ? 0 : -1;
    return options;
}

/** The serial interpreter: the bitwise oracle. */
EngineOptions
oracleOptions()
{
    EngineOptions options;
    options.numThreads = 1;
    options.cacheCapacity = 16;
    options.parallel = false;
    options.fusedDispatch = false;
    options.trace = false;
    options.verifyArtifacts = false;
    options.backend = st::runtime::Backend::kInterpreter;
    options.nativePromoteAfter = -1;
    return options;
}

/** Fresh, empty directory; the native tier's cache when `native`. */
std::string
freshDir(const std::string &path)
{
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * Effective parallelism: the same pure compute loop on 1, 2 and
 * nproc threads at once; n threads deliver n * t(1) / t(n) cores.
 */
std::map<int, double>
hostEffectiveCores()
{
    auto spin = [](uint64_t iters) {
        uint64_t x = 88172645463325252ULL;
        for (uint64_t i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        return x;
    };
    constexpr uint64_t kIters = 30000000;
    std::atomic<uint64_t> sink{0};
    auto run = [&](int threads) {
        return timeMs([&] {
            std::vector<std::thread> pool;
            for (int t = 0; t < threads; ++t) {
                pool.emplace_back([&] { sink += spin(kIters); });
            }
            for (std::thread &th : pool) {
                th.join();
            }
        });
    };
    std::map<int, double> cores;
    double one = run(1);
    for (int n : {1, 2, hostThreads()}) {
        cores[n] = n * one / run(n);
    }
    return cores;
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/** One engine call of the timed window. */
struct Call
{
    /** Request id shared by all spans of the call. */
    int64_t id = 0;
    int64_t stream = 0;  // churn index, or job index for warm
    int variant = 0;
    Op op = Op::kSpmmCsr;
    int requests = 1;
    bool threw = false;
    double ms = 0.0;
    CallInfo info;
    std::vector<uint64_t> hashes;
};

struct Window
{
    std::vector<Call> calls;
    /** Time in engine calls (and span recording when traced). */
    double seconds = 0.0;
    /** Client work paused out of `seconds`: input generation, output
     *  zeroing and hashing. */
    double clientSeconds = 0.0;

    int64_t
    attempted() const
    {
        int64_t n = 0;
        for (const Call &c : calls) {
            n += c.requests;
        }
        return n;
    }

    int64_t
    completed() const
    {
        int64_t n = 0;
        for (const Call &c : calls) {
            n += c.threw ? 0 : c.requests;
        }
        return n;
    }

    double
    throughput() const
    {
        return seconds > 0.0 ? completed() / seconds : 0.0;
    }

    void
    merge(Window &&other)
    {
        for (Call &call : other.calls) {
            calls.push_back(std::move(call));
        }
        seconds += other.seconds;
        clientSeconds += other.clientSeconds;
    }
};

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

class Server
{
  public:
    Server(const Args &args, const WorkloadSpec &spec)
        : args_(args), spec_(spec)
    {
    }

    /** Everything before the first timed request. */
    void
    setUp()
    {
        if (spec_.native) {
            nativeDir_ = freshDir(args_.workDir + "/native-" +
                                  std::to_string(::getpid()));
            ::setenv("SPARSETIR_NATIVE_CACHE_DIR", nativeDir_.c_str(), 1);
        }
        engine_ = std::make_unique<Engine>(servingOptions(spec_));
        if (spec_.churn) {
            // Prime the pool and lazily built state with one request of
            // each op family from a fixed stream, so set-up does the
            // same work for every seed and no timed structure is seen
            // early. The timed stream itself is generated one request
            // at a time while serving (see serve()).
            for (int64_t i = 0; i < 5; ++i) {
                std::unique_ptr<Job> job =
                    makeChurnJob(subSeed(kFixedStructureSeed, 999), i);
                resetOutputs(job->vars[0]);
                dispatch(*engine_, *job, 0);
            }
            return;
        }
        jobs_ = makeWarmJobs(args_.seed, kVariants);
        for (size_t j = 0; j < jobs_.size(); ++j) {
            for (int v = 0; v < kVariants; ++v) {
                resetOutputs(jobs_[j]->vars[v]);
                CallInfo info = dispatch(*engine_, *jobs_[j], v);
                if (!info.cacheHit) {
                    setupMisses_.push_back({static_cast<int>(j), info});
                }
            }
        }
        if (spec_.native) {
            st::engine::NativeStats stats = engine_->nativeStats();
            if (stats.fallbacks != 0 || stats.compiles + stats.diskHits == 0) {
                throw std::runtime_error(
                    "native tier did not promote every kernel (" +
                    std::to_string(stats.fallbacks) + " fallbacks, " +
                    std::to_string(stats.compiles) +
                    " compiles): is a C compiler on PATH?");
            }
        }
    }

    ~Server()
    {
        engine_.reset();
        if (!nativeDir_.empty()) {
            std::error_code ec;
            fs::remove_all(nativeDir_, ec);
        }
    }

    /**
     * Closed-loop serving until `seconds` have been spent in engine
     * calls; spans go to `log` if set. The client's own work between
     * calls (generating a churn request, zeroing outputs, hashing
     * them) is kept off the window's clock, so it cannot dilute an
     * engine change in throughput_rps.
     */
    Window
    serve(double seconds, SpanLog *log)
    {
        Window window;
        Clock::time_point start = Clock::now();
        while (window.seconds < seconds) {
            Call call;
            if (spec_.churn) {
                call.stream = next_++;
            } else {
                int64_t n = static_cast<int64_t>(jobs_.size());
                call.stream = next_ % n;
                call.variant = static_cast<int>((next_ / n) % kVariants);
                ++next_;
            }
            std::shared_ptr<Job> job = this->job(call.stream);
            call.id = nextId_++;
            call.op = job->op;
            call.requests = job->requests();
            Variant &var = job->vars[call.variant];
            resetOutputs(var);
            int64_t start_ns = st::observe::TraceRecorder::nowNs();
            Clock::time_point t0 = Clock::now();
            try {
                call.info = dispatch(*engine_, *job, call.variant);
            } catch (const std::exception &) {
                call.threw = true;
            }
            Clock::time_point t1 = Clock::now();
            call.ms = std::chrono::duration<double, std::milli>(t1 - t0)
                          .count();
            if (log != nullptr) {
                recordSpans(log, call, start_ns);
            }
            window.seconds += secondsBetween(t0, Clock::now());
            if (!call.threw) {
                call.hashes = outputHashes(var);
            }
            window.calls.push_back(std::move(call));
        }
        window.clientSeconds =
            secondsBetween(start, Clock::now()) - window.seconds;
        return window;
    }

    Engine &engine() { return *engine_; }
    /** A request id no served call has used. */
    int64_t newId() { return nextId_++; }
    /** Warm: the served jobs (empty for churn). */
    const std::vector<std::shared_ptr<Job>> &jobs() const { return jobs_; }

    /** Warm jobs' cache misses during set-up: (job, dispatch info). */
    const std::vector<std::pair<int, CallInfo>> &
    setupMisses() const
    {
        return setupMisses_;
    }

    /**
     * The job behind a stream index: the shared warm job, or the churn
     * request rebuilt from (seed, index), so no served churn request
     * outlives its call.
     */
    std::shared_ptr<Job>
    job(int64_t stream) const
    {
        if (spec_.churn) {
            return makeChurnJob(args_.seed, stream);
        }
        return jobs_[static_cast<size_t>(stream)];
    }

    static constexpr int kVariants = 2;

  private:
    static void
    recordSpans(SpanLog *log, const Call &call, int64_t start)
    {
        const int64_t id = call.id;
        log->add("request", id, start, call.ms);
        log->add(std::string("engine.dispatch.") + opName(call.op), id,
                 start, call.ms);
        if (call.threw) {
            return;
        }
        int64_t at = start + static_cast<int64_t>(call.info.decomposeMs * 1e6);
        if (call.info.decomposeMs > 0.0) {
            log->add("format.decompose", id, start, call.info.decomposeMs);
        }
        log->add("engine.resolve", id, at, call.info.resolveMs);
        at += static_cast<int64_t>(call.info.resolveMs * 1e6);
        log->add("engine.bind", id, at, call.info.bindMs);
        at += static_cast<int64_t>(call.info.bindMs * 1e6);
        log->add(std::string("engine.kernel.") + opName(call.op), id, at,
                 call.info.kernelMs);
    }

    const Args &args_;
    WorkloadSpec spec_;
    std::string nativeDir_;
    std::unique_ptr<Engine> engine_;
    std::vector<std::shared_ptr<Job>> jobs_;
    std::vector<std::pair<int, CallInfo>> setupMisses_;
    /** Next request of the stream (churn) or round-robin slot (warm). */
    int64_t next_ = 0;
    int64_t nextId_ = 0;
};

// ---------------------------------------------------------------------
// Correctness: the interpreter oracle, outside the timed window
// ---------------------------------------------------------------------

class Oracle
{
  public:
    explicit Oracle(const Server &server) : server_(server) {}

    /**
     * Compute the oracle output of every (stream, variant) the windows
     * served. Keys are independent, so they are spread over `threads`
     * threads, each with its own interpreter engine.
     */
    void
    prepare(const std::vector<const Window *> &windows, int threads)
    {
        std::vector<Key> keys;
        for (const Window *window : windows) {
            for (const Call &call : window->calls) {
                Key key{call.stream, call.variant};
                if (cache_.emplace(key, std::vector<uint64_t>()).second) {
                    keys.push_back(key);
                }
            }
        }
        std::vector<std::vector<uint64_t>> results(keys.size());
        std::atomic<size_t> next{0};
        auto worker = [&] {
            Engine engine(oracleOptions());
            for (size_t i = next++; i < keys.size(); i = next++) {
                results[i] = compute(&engine, keys[i]);
            }
        };
        std::vector<std::thread> pool;
        for (int t = 0; t < std::max(1, threads); ++t) {
            pool.emplace_back(worker);
        }
        for (std::thread &thread : pool) {
            thread.join();
        }
        for (size_t i = 0; i < keys.size(); ++i) {
            cache_[keys[i]] = std::move(results[i]);
        }
    }

    /** Oracle output hashes for a call's inputs (empty: it threw). */
    const std::vector<uint64_t> &
    hashes(const Call &call)
    {
        Key key{call.stream, call.variant};
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            Engine engine(oracleOptions());
            it = cache_.emplace(key, compute(&engine, key)).first;
        }
        return it->second;
    }

  private:
    using Key = std::pair<int64_t, int>;

    std::vector<uint64_t>
    compute(Engine *engine, const Key &key) const
    {
        try {
            std::shared_ptr<Job> job = server_.job(key.first);
            Variant &var = job->vars[key.second];
            resetOutputs(var);
            dispatch(*engine, *job, key.second);
            return outputHashes(var);
        } catch (const std::exception &) {
            return {};  // no oracle output: every request fails
        }
    }

    const Server &server_;
    std::map<Key, std::vector<uint64_t>> cache_;
};

/** Failed requests of one call: throws, or outputs not bitwise equal. */
int
failedRequests(const Call &call, const std::vector<uint64_t> &oracle)
{
    if (call.threw || oracle.size() != call.hashes.size()) {
        return call.requests;
    }
    int failed = 0;
    for (size_t r = 0; r < oracle.size(); ++r) {
        failed += call.hashes[r] != oracle[r] ? 1 : 0;
    }
    return failed;
}

int64_t
checkWindow(const Window &window, Oracle *oracle)
{
    int64_t failed = 0;
    for (const Call &call : window.calls) {
        failed += failedRequests(call, oracle->hashes(call));
    }
    return failed;
}

/**
 * Proves the check is live: serve one more request, flip one bit of
 * one output element, and require the same check to report it failed.
 */
bool
corruptedOutputIsCaught(Server *server, Oracle *oracle,
                        const Window &window)
{
    Call call = window.calls.front();
    std::shared_ptr<Job> job = server->job(call.stream);
    Variant &var = job->vars[call.variant];
    resetOutputs(var);
    dispatch(server->engine(), *job, call.variant);
    auto *bits = static_cast<uint32_t *>(var.out[0].rawData());
    bits[0] ^= 1u;
    call.hashes = outputHashes(var);
    call.threw = false;
    return failedRequests(call, oracle->hashes(call)) == 1;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** p50 / p90 over per-request latencies (a batch's requests all wait
 *  for the whole call). */
std::vector<double>
requestLatencies(const Window &window)
{
    std::vector<double> ms;
    for (const Call &call : window.calls) {
        if (!call.threw) {
            ms.insert(ms.end(), call.requests, call.ms);
        }
    }
    return ms;
}

// ---------------------------------------------------------------------
// Per-layer breakdown (--trace 1)
// ---------------------------------------------------------------------

/** Per-layer samples, one per replayed miss or per call. */
class Layers
{
  public:
    void
    add(const std::string &name, double value)
    {
        samples_[name].push_back(value);
    }

    /** Add only when the layer ran for this miss. */
    void
    addIfUsed(const std::string &name, double value)
    {
        if (value > 0.0) {
            add(name, value);
        }
    }

    double
    median(const std::string &name) const
    {
        auto it = samples_.find(name);
        return it == samples_.end() ? 0.0 : perfbench::median(it->second);
    }

  private:
    std::map<std::string, std::vector<double>> samples_;
};

void
addMiss(Layers *layers, const MissReplay &miss)
{
    layers->addIfUsed("format.decompose_ms",
                      miss.decomposeMs + miss.clientDecomposeMs);
    layers->addIfUsed("transform.lower_ms", miss.lowerMs);
    layers->addIfUsed("dfg.lower_ms", miss.dfgMs);
    layers->addIfUsed("verify.verify_ms", miss.verifyMs);
    layers->addIfUsed("bytecode.compile_ms", miss.bytecodeMs);
    layers->add("bytecode.program_insns",
                static_cast<double>(miss.programInsns));
}

const Op kRefOps[] = {Op::kSpmmCsr, Op::kSpmmHyb, Op::kSpmmBsr, Op::kSddmm};

/** Reference-loop time on a variant; `hash` gets its output's hash. */
double
referenceMs(const Job &job, int variant, int reps, uint64_t *hash)
{
    const Variant &v = job.vars[variant];
    std::vector<float> out;
    std::vector<double> ms;
    switch (job.op) {
      case Op::kSpmmCsr: {
        out.assign(v.out[0].numel(), 0.0f);
        const auto *b = static_cast<const float *>(v.in[0].rawData());
        for (int r = 0; r < reps; ++r) {
            ms.push_back(timeMs(
                [&] { refSpmmCsr(v.csr, kFeat, b, out.data()); }));
        }
        break;
      }
      case Op::kSpmmHyb: {
        out.assign(v.out[0].numel(), 0.0f);
        st::format::Hyb hyb =
            st::format::hybFromCsr(v.csr, kHybPartitions, -1);
        const auto *b = static_cast<const float *>(v.in[0].rawData());
        for (int r = 0; r < reps; ++r) {
            ms.push_back(
                timeMs([&] { refSpmmHyb(hyb, kFeat, b, out.data()); }));
        }
        break;
      }
      case Op::kSpmmBsr: {
        st::format::Bsr bsr =
            job.convertBsr ? st::format::bsrFromCsr(v.csr, 8) : v.bsr;
        const auto *b = static_cast<const float *>(v.in[0].rawData());
        for (int r = 0; r < reps; ++r) {
            out.assign(v.out[0].numel(), 0.0f);
            ms.push_back(
                timeMs([&] { refSpmmBsr(bsr, kFeat, b, out.data()); }));
        }
        break;
      }
      case Op::kSddmm: {
        out.assign(v.out[0].numel(), 0.0f);
        const auto *x = static_cast<const float *>(v.in[0].rawData());
        const auto *y = static_cast<const float *>(v.in[1].rawData());
        for (int r = 0; r < reps; ++r) {
            ms.push_back(timeMs(
                [&] { refSddmm(v.csr, kFeat, x, y, out.data()); }));
        }
        break;
      }
      default:
        return 0.0;
    }
    *hash = hashBytes(out.data(), out.size() * sizeof(float));
    return median(ms);
}

/**
 * Scratch the executor leases for this traffic on a parallel pool.
 * The serving engine's single worker runs every dispatch serially and
 * leases none, so a second bytecode engine with up to nproc - 1
 * workers serves one warm pass of the workload's structures (the
 * first pass compiles them).
 */
int64_t
parallelScratchPeak(Server *server, const WorkloadSpec &spec,
                    const Window &traced)
{
    EngineOptions options = servingOptions(spec);
    options.backend = st::runtime::Backend::kBytecode;
    options.nativePromoteAfter = -1;
    options.cacheCapacity = 64;
    options.numThreads = std::max(1, std::min(3, hostThreads() - 1));
    Engine engine(options);
    std::vector<std::shared_ptr<Job>> jobs;
    if (spec.churn) {
        size_t n = std::min<size_t>(traced.calls.size(), 25);
        for (size_t i = 0; i < n; ++i) {
            jobs.push_back(server->job(traced.calls[i].stream));
        }
    } else {
        jobs = server->jobs();
    }
    for (int pass = 0; pass < 2; ++pass) {
        engine.resetScratchPeak();
        for (const std::shared_ptr<Job> &job : jobs) {
            resetOutputs(job->vars[0]);
            dispatch(engine, *job, 0);
        }
    }
    return engine.scratchStats().peakLeasedBytes;
}

/**
 * The traced run's per-layer metrics. `untraced` and `traced` are the
 * two halves of the window; replays run after both.
 */
std::vector<Metric>
perLayerMetrics(Server *server, Oracle *oracle, const WorkloadSpec &spec,
                const Args &args, const Window &untraced,
                const Window &traced, uint64_t evictions,
                double effective_cores, SpanLog *log,
                std::vector<std::string> *notes)
{
    Layers layers;
    Engine &engine = server->engine();
    const std::string tier = spec.native ? "native" : "bytecode";

    // Dispatch-path numbers straight from each call's DispatchInfo.
    double hit_requests = 0.0;
    double requests = 0.0;
    for (const Call &call : traced.calls) {
        if (call.threw) {
            continue;
        }
        layers.add("engine.resolve_ms", call.info.resolveMs);
        layers.add("engine.bind_ms", call.info.bindMs);
        layers.add(std::string("engine.kernel_ms.") + opName(call.op),
                   call.info.kernelMs);
        requests += call.requests;
        hit_requests += call.info.cacheHit ? call.requests : 0;
    }

    // Miss-path replay: the warm set-up misses, or every churn call
    // of the traced half (capped to bound the run's length).
    int verify_failures = 0;
    std::string replay_dir = freshDir(args.workDir + "/native-replay-" +
                                      std::to_string(::getpid()));
    if (spec.native) {
        ::setenv("SPARSETIR_NATIVE_CACHE_DIR", replay_dir.c_str(), 1);
    }
    std::vector<double> unattributed;
    auto replay = [&](const Job &job, int variant, int64_t id,
                      double resolve_ms) {
        MissReplay miss = replayMiss(job, variant, log, id);
        addMiss(&layers, miss);
        verify_failures += miss.verifyFailures;
        double gap = resolve_ms - miss.attributedMs();
        unattributed.push_back(gap);
        log->add("engine.unattributed", id,
                 st::observe::TraceRecorder::nowNs(), gap > 0.0 ? gap : 0.0);
        if (spec.native) {
            NativeReplay native = replayNative(
                miss, log, id, "perfbench-" + std::to_string(id));
            layers.add("native.emit_ms", native.emitMs);
            layers.add("native.cc_ms", native.ccMs);
            layers.add("native.source_bytes",
                       static_cast<double>(native.sourceBytes));
        }
    };

    constexpr int kFingerprintReps = 15;
    constexpr int kRefReps = 9;
    constexpr size_t kChurnReplayCap = 150;
    std::map<Op, std::vector<double>> ref_ms;
    std::map<Op, std::vector<double>> efficiency;
    std::map<Op, double> tier_kernel_ms;
    for (Op op : kRefOps) {
        tier_kernel_ms[op] =
            layers.median(std::string("engine.kernel_ms.") + opName(op));
    }
    std::map<Op, bool> ref_mismatch;
    auto reference = [&](const Job &job, const Call &call,
                         double kernel_ms) {
        uint64_t hash = 0;
        double ms = referenceMs(job, call.variant, kRefReps, &hash);
        const std::vector<uint64_t> &want = oracle->hashes(call);
        if (want.empty() || want[0] != hash) {
            ref_mismatch[job.op] = true;
            return;
        }
        ref_ms[job.op].push_back(ms);
        if (kernel_ms > 0.0) {
            efficiency[job.op].push_back(ms / kernel_ms);
        }
    };

    if (spec.churn) {
        size_t n = std::min(traced.calls.size(), kChurnReplayCap);
        for (size_t i = 0; i < n; ++i) {
            const Call &call = traced.calls[i];
            if (call.threw) {
                continue;
            }
            std::shared_ptr<Job> job = server->job(call.stream);
            layers.add("engine.fingerprint_ms",
                       replayFingerprint(*job, 0, log, call.id));
            replay(*job, 0, call.id, call.info.resolveMs);
            for (Op op : kRefOps) {
                if (op == job->op) {
                    reference(*job, call, call.info.kernelMs);
                }
            }
        }
    } else {
        const auto &jobs = server->jobs();
        for (size_t j = 0; j < jobs.size(); ++j) {
            int64_t id = server->newId();
            for (int r = 0; r < kFingerprintReps; ++r) {
                layers.add("engine.fingerprint_ms",
                           replayFingerprint(*jobs[j], 0, log, id));
            }
        }
        for (const auto &[j, info] : server->setupMisses()) {
            replay(*jobs[j], 0, server->newId(), info.resolveMs);
        }
        for (size_t j = 0; j < jobs.size(); ++j) {
            for (Op op : kRefOps) {
                if (jobs[j]->op == op) {
                    Call call;
                    call.stream = static_cast<int64_t>(j);
                    reference(*jobs[j], call, tier_kernel_ms[op]);
                }
            }
        }
    }
    std::error_code ec;
    fs::remove_all(replay_dir, ec);
    for (double gap : unattributed) {
        layers.add("engine.unattributed_ms", gap);
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "engine.unattributed_ms over %zu misses (one span each): "
                  "min %.4f, median %.4f, max %.4f ms",
                  unattributed.size(), quantile(unattributed, 0.0),
                  quantile(unattributed, 0.5), quantile(unattributed, 1.0));
    notes->push_back(line);
    for (const auto &[op, bad] : ref_mismatch) {
        if (bad) {
            notes->push_back(std::string("reference loop for ") +
                             opName(op) +
                             " is not bitwise equal to the oracle; its "
                             "ratio is omitted (0)");
        }
    }

    st::engine::CacheStats cache = engine.cacheStats();
    st::engine::NativeStats native = engine.nativeStats();

    std::vector<Metric> out;
    out.push_back({"engine.fingerprint_ms",
                   layers.median("engine.fingerprint_ms"), "ms"});
    out.push_back({"engine.resolve_ms", layers.median("engine.resolve_ms"),
                   "ms"});
    out.push_back({"engine.bind_ms", layers.median("engine.bind_ms"), "ms"});
    for (int op = 0; op < kNumOps; ++op) {
        std::string name =
            std::string("engine.kernel_ms.") + opName(static_cast<Op>(op));
        out.push_back({name, layers.median(name), "ms"});
    }
    out.push_back({"engine.cache_hit_ratio",
                   requests > 0 ? hit_requests / requests : 0.0, "ratio"});
    out.push_back({"engine.cache_evictions",
                   static_cast<double>(evictions), "count"});
    out.push_back({"engine.unattributed_ms",
                   layers.median("engine.unattributed_ms"), "ms"});
    out.push_back({"executor.scratch_peak_bytes",
                   static_cast<double>(
                       parallelScratchPeak(server, spec, traced)),
                   "bytes"});
    for (const char *name :
         {"format.decompose_ms", "transform.lower_ms", "dfg.lower_ms",
          "verify.verify_ms"}) {
        out.push_back({name, layers.median(name), "ms"});
    }
    out.push_back({"verify.failures",
                   static_cast<double>(verify_failures +
                                       cache.verifyFailures),
                   "count"});
    out.push_back({"bytecode.compile_ms",
                   layers.median("bytecode.compile_ms"), "ms"});
    out.push_back({"bytecode.program_insns",
                   layers.median("bytecode.program_insns"), "count"});
    out.push_back({"native.emit_ms", layers.median("native.emit_ms"), "ms"});
    out.push_back({"native.cc_ms", layers.median("native.cc_ms"), "ms"});
    out.push_back({"native.source_bytes",
                   layers.median("native.source_bytes"), "bytes"});
    out.push_back({"native.compiles", static_cast<double>(native.compiles),
                   "count"});
    out.push_back({"native.disk_hits", static_cast<double>(native.diskHits),
                   "count"});
    out.push_back({"native.fallbacks", static_cast<double>(native.fallbacks),
                   "count"});
    for (Op op : kRefOps) {
        out.push_back({std::string("kernel.ref_ms.") + opName(op),
                       median(ref_ms[op]), "ms"});
    }
    for (const char *t : {"bytecode", "native"}) {
        for (Op op : kRefOps) {
            double ratio = t == tier ? median(efficiency[op]) : 0.0;
            out.push_back({std::string("kernel.efficiency.") + t + "." +
                               opName(op),
                           ratio, "ratio"});
        }
    }
    out.push_back({"observe.trace_overhead",
                   traced.throughput() > 0.0
                       ? untraced.throughput() / traced.throughput()
                       : 0.0,
                   "ratio"});
    out.push_back({"host.effective_cores", effective_cores, "cores"});
    return out;
}

int
run(const Args &args)
{
    WorkloadSpec spec = workloadSpec(args.workload);
    // The measured configuration comes from EngineOptions alone.
    for (const char *var : {"SPARSETIR_NATIVE", "SPARSETIR_VERIFY",
                            "SPARSETIR_TRACE", "SPARSETIR_NATIVE_CC",
                            "SPARSETIR_NATIVE_CACHE_DIR"}) {
        ::unsetenv(var);
    }
    fs::create_directories(args.workDir);

    Server server(args, spec);
    Clock::time_point setup_start = Clock::now();
    server.setUp();
    double setup_s = msSince(setup_start) / 1000.0;
    double ready_rss_mb = peakRssMb();
    std::printf("READY\n");
    std::fflush(stdout);
    if (args.setupOnly) {
        return 0;
    }

    Window window;
    Window traced;
    std::vector<double> slice_rps;
    uint64_t evictions = 0;
    SpanLog log;
    if (args.trace) {
        // Alternate short untraced and traced slices, so host drift
        // hits both halves alike and their throughput ratio is the
        // tracing overhead.
        constexpr double kSlice = 0.25;
        for (double done = 0.0; done < args.seconds; done += 2 * kSlice) {
            window.merge(server.serve(kSlice, nullptr));
            uint64_t before = server.engine().cacheStats().evictions;
            traced.merge(server.serve(kSlice, &log));
            evictions += server.engine().cacheStats().evictions - before;
        }
    } else {
        // The host's speed drifts over seconds, so the window is served
        // as slices with equal pauses between them: a run samples the
        // host over twice its window, and throughput is the median of
        // the slices' rates, so one slow stretch does not move it.
        constexpr int kSlices = 10;
        const double slice = args.seconds / kSlices;
        for (int i = 0; i < kSlices; ++i) {
            if (i > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(slice));
            }
            Window part = server.serve(slice, nullptr);
            slice_rps.push_back(part.throughput());
            window.merge(std::move(part));
        }
    }
    double rss_mb = peakRssMb();

    Clock::time_point check_start = Clock::now();
    Oracle oracle(server);
    oracle.prepare({&window, &traced}, hostThreads());
    int64_t failed = checkWindow(window, &oracle);
    int64_t attempted = window.attempted();
    if (args.trace) {
        failed += checkWindow(traced, &oracle);
        attempted += traced.attempted();
    }
    bool live = corruptedOutputIsCaught(&server, &oracle, window);
    std::printf("phases: set-up %.3f s, oracle check %.3f s\n", setup_s,
                msSince(check_start) / 1000.0);
    std::printf("client work kept off the window clock: %.3f s beside "
                "%.3f s in engine calls (%.1f%%)\n",
                window.clientSeconds, window.seconds,
                100.0 * window.clientSeconds /
                    std::max(1e-9, window.clientSeconds + window.seconds));
    std::printf("peak RSS: %.2f MB at ready, %.2f MB after the window\n",
                ready_rss_mb, rss_mb);

    std::vector<double> lat = requestLatencies(window);
    std::printf("workload %s seed %llu: %lld requests attempted, %lld "
                "failed (error_rate %.6f) over %.3f s in engine calls, "
                "%d worker threads + 1 client\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<long long>(attempted),
                static_cast<long long>(failed),
                attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
                window.seconds, workerThreads());
    if (!slice_rps.empty()) {
        std::printf("throughput: median of %zu slices %.3f/s (min %.3f, "
                    "max %.3f), whole window %.3f/s\n",
                    slice_rps.size(), median(slice_rps),
                    quantile(slice_rps, 0.0), quantile(slice_rps, 1.0),
                    window.throughput());
    }
    std::printf("latency: p50 %.4f ms, p90 %.4f ms over %zu samples "
                "(%zu beyond p90)\n",
                quantile(lat, 0.5), quantile(lat, 0.9), lat.size(),
                lat.size() / 10);
    std::map<std::string, std::vector<double>> by_op;
    for (const Call &call : window.calls) {
        if (!call.threw) {
            by_op[opName(call.op)].push_back(call.ms);
        }
    }
    std::printf("latency p50 by op:");
    for (const auto &[op, ms] : by_op) {
        std::printf(" %s %.3f ms (%zu)", op.c_str(), median(ms), ms.size());
    }
    std::printf("\n");
    double effective_cores = 0.0;
    for (const auto &[threads, cores] : hostEffectiveCores()) {
        std::printf("host: %d thread(s) deliver %.3f cores\n", threads,
                    cores);
        effective_cores = std::max(effective_cores, cores);
    }
    std::printf("self-check: corrupted output %s\n",
                live ? "reported as failed" : "NOT detected");
    if (lat.size() < 100) {
        std::printf("warning: fewer than 100 requests; p90 has under ten "
                    "samples beyond it\n");
    }

    bool correct = live && failed == 0;
    if (!args.trace) {
        printResult(correct, attempted, failed,
                    {{"setup_s", setup_s, "s"},
                     {"throughput_rps", median(slice_rps), "1/s"},
                     {"latency_p50_ms", quantile(lat, 0.5), "ms"},
                     {"latency_p90_ms", quantile(lat, 0.9), "ms"},
                     {"peak_rss_mb", rss_mb, "MB"}});
        return 0;
    }
    std::vector<std::string> notes;
    Clock::time_point replay_start = Clock::now();
    std::vector<Metric> metrics = perLayerMetrics(
        &server, &oracle, spec, args, window, traced, evictions,
        effective_cores, &log, &notes);
    std::string trace_path = args.workDir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    notes.push_back(std::to_string(log.size()) + " spans written to " +
                    trace_path);
    log.write(trace_path);
    notes.push_back("phases: per-layer replay " +
                    std::to_string(msSince(replay_start) / 1000.0) + " s");
    for (const std::string &note : notes) {
        std::printf("%s\n", note.c_str());
    }
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
