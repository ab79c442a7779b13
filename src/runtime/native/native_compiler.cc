#include "runtime/native/native_compiler.h"

#include <dlfcn.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

extern char **environ;

#include "observe/trace.h"
#include "runtime/bytecode/program.h"
#include "runtime/native/c_emitter.h"
#include "support/logging.h"

namespace sparsetir {
namespace runtime {
namespace native {

namespace {

// ---------------------------------------------------------------------
// Cache directory + filenames
// ---------------------------------------------------------------------

/**
 * Flags of every kernel compile, chosen for bitwise parity with the
 * other tiers. `-ffp-contract=off` keeps the host compiler from fusing
 * `a * b + c` into an FMA on targets that have one.
 * `-fno-tree-slp-vectorize` turns off basic-block vectorization, which
 * in GCC 12 dropped the float rounding of a fully unrolled two-lane
 * accumulator between reduction steps; the lane loops of sunk regions
 * are vectorized by the loop vectorizer, which stays on.
 */
constexpr const char kCcFlags[] =
    " -O2 -ffp-contract=off -fno-tree-slp-vectorize -fPIC -shared";

/** FNV-1a over the flags and emitted source; the cache filename. A local copy
 *  rather than the engine's fingerprint helper — runtime/ must not
 *  depend on engine/. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** mkdir -p. Races with other processes are fine (EEXIST ignored). */
void
makeDirs(const std::string &path)
{
    std::string partial;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t next = path.find('/', pos);
        if (next == std::string::npos) {
            next = path.size();
        }
        partial = path.substr(0, next);
        if (!partial.empty() && partial != "/") {
            if (::mkdir(partial.c_str(), 0700) != 0 &&
                errno != EEXIST) {
                USER_CHECK(false)
                    << "cannot create native cache directory '"
                    << partial << "': " << std::strerror(errno);
            }
        }
        pos = next + 1;
    }
}

std::string
compilerCommand()
{
    const char *cc = std::getenv("SPARSETIR_NATIVE_CC");
    return (cc != nullptr && cc[0] != '\0') ? cc : "cc";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------
// Artifact loading
// ---------------------------------------------------------------------

/**
 * dlopen `so_path` and resolve entry + meta; succeeds only when the
 * embedded meta string equals `expected_meta` (same source hash can
 * only come from the same source, but the meta check additionally
 * rejects truncated/corrupted files whose dlopen accidentally
 * succeeds and artifacts from foreign builds at a colliding name).
 */
std::shared_ptr<void>
tryLoad(const std::string &so_path, const std::string &expected_meta,
        KernelEntryFn *entry_out)
{
    void *raw = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (raw == nullptr) {
        return nullptr;
    }
    std::shared_ptr<void> handle(raw,
                                 [](void *h) { ::dlclose(h); });
    const char *meta =
        static_cast<const char *>(::dlsym(raw, kMetaSymbol));
    if (meta == nullptr || expected_meta != meta) {
        return nullptr;
    }
    auto entry = reinterpret_cast<KernelEntryFn>(
        ::dlsym(raw, kEntrySymbol));
    if (entry == nullptr) {
        return nullptr;
    }
    *entry_out = entry;
    return handle;
}

std::atomic<uint64_t> &
compileCounter()
{
    static std::atomic<uint64_t> count{0};
    return count;
}

std::atomic<uint64_t> &
tempCounter()
{
    static std::atomic<uint64_t> count{0};
    return count;
}

// ---------------------------------------------------------------------
// Compiler processes
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** CPUs this process may run on: its affinity mask, else the
 *  hardware count. Bounds a batch's concurrent compiler runs. */
int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0 &&
        CPU_COUNT(&set) > 0) {
        return CPU_COUNT(&set);
    }
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Start `command` under `/bin/sh -c` as the leader of a new process
 * group, so a kill reaches the compiler's own children (cc1, as, ld)
 * too. Returns the pid, or -1 with `*error` set.
 */
pid_t
spawnShell(const std::string &command, std::string *error)
{
    posix_spawnattr_t attr;
    ::posix_spawnattr_init(&attr);
    sigset_t none;
    sigemptyset(&none);
    ::posix_spawnattr_setsigmask(&attr, &none);
    ::posix_spawnattr_setpgroup(&attr, 0);
    ::posix_spawnattr_setflags(
        &attr, POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGMASK);
    const char *argv[] = {"sh", "-c", command.c_str(), nullptr};
    pid_t pid = -1;
    int rc = ::posix_spawn(&pid, "/bin/sh", nullptr, &attr,
                           const_cast<char *const *>(argv), environ);
    ::posix_spawnattr_destroy(&attr);
    if (rc != 0) {
        *error = std::strerror(rc);
        return -1;
    }
    return pid;
}

/** Non-blocking reap of `pid`: true once it exited, with `*status`
 *  (-1 when its status was lost to another waiter). */
bool
reaped(pid_t pid, int *status)
{
    pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == 0) {
        return false;
    }
    if (done != pid) {
        *status = -1;
    }
    return true;
}

/** SIGKILL `pid`'s process group and reap `pid`. */
void
killAndReap(pid_t pid)
{
    ::kill(-pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
}

// ---------------------------------------------------------------------
// Per-path claims
// ---------------------------------------------------------------------

/** What the owner of a path leaves for the callers that waited. */
struct Claim
{
    bool done = false;
    Fallback fallback = Fallback::kNone;
    std::string error;
};

/**
 * The `.so` paths being built in this process. Its mutex is held only
 * to claim, release or check a path, never across a compiler run.
 */
class InFlightTable
{
  public:
    /** Claims `path`: null when the caller now owns it, else the
     *  owner's claim to wait on. */
    std::shared_ptr<Claim>
    claim(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = claims_.try_emplace(path);
        if (inserted) {
            it->second = std::make_shared<Claim>();
            return nullptr;
        }
        return it->second;
    }

    void
    release(const std::string &path, Fallback fallback,
            const std::string &error)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = claims_.find(path);
            it->second->done = true;
            it->second->fallback = fallback;
            it->second->error = error;
            claims_.erase(it);
        }
        cv_.notify_all();
    }

    /** Waits for the owner of `claim` to release it; false when
     *  `cancel` turned true first. */
    bool
    wait(const std::shared_ptr<Claim> &claim,
         const std::atomic<bool> *cancel, Claim *outcome)
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!claim->done) {
            if (cancel != nullptr && cancel->load()) {
                return false;
            }
            cv_.wait_for(lock, std::chrono::milliseconds(10));
        }
        *outcome = *claim;
        return true;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_map<std::string, std::shared_ptr<Claim>> claims_;
};

InFlightTable &
inFlight()
{
    static InFlightTable table;
    return table;
}

// ---------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------

/**
 * A kernel whose path this batch claimed and builds. The destructor
 * kills and reaps a still-running compiler, removes the temporaries
 * and releases the claim, so no exit path leaks any of them.
 */
struct OwnedBuild
{
    size_t job = 0;
    std::shared_ptr<NativeKernel> kernel;
    std::string meta;
    /** Temporaries: <stem>.c, <stem>.so, <stem>.err. */
    std::string stem;
    /** The compiler's shell command, built at emit time so starting
     *  it allocates nothing whenever a CPU frees up. */
    std::string command;
    pid_t pid = -1;
    Clock::time_point started;
    /** Set once the compiler was reaped; installed after the batch. */
    bool exited = false;
    int status = 0;
    double ccMs = 0.0;
    bool released = false;

    OwnedBuild() = default;
    OwnedBuild(const OwnedBuild &) = delete;
    OwnedBuild &operator=(const OwnedBuild &) = delete;

    ~OwnedBuild()
    {
        if (pid > 0) {
            killAndReap(pid);
        }
        removeTemporaries();
        if (!released) {
            inFlight().release(kernel->soPath, Fallback::kCcFailed,
                               "the build of '" + kernel->name +
                                   "' was abandoned");
        }
    }

    void
    removeTemporaries()
    {
        if (stem.empty()) {
            return;
        }
        for (const char *ext : {".c", ".so", ".err"}) {
            ::unlink((stem + ext).c_str());
        }
        stem.clear();
    }
};

/** A kernel whose path another caller owns: loaded once it is done. */
struct ForeignBuild
{
    size_t job = 0;
    std::shared_ptr<NativeKernel> kernel;
    std::string meta;
    std::shared_ptr<Claim> claim;
};

class Batch
{
  public:
    Batch(const std::vector<NativeJob> &jobs,
          std::chrono::milliseconds deadline,
          const std::atomic<bool> *cancel)
        : jobs_(jobs), deadline_(deadline), cancel_(cancel),
          results_(jobs.size()), dir_(nativeCacheDir())
    {
    }

    std::vector<NativeBuild>
    run()
    {
        // Emission overlaps the compiles already started; a drained
        // batch owns no path, so waiting on foreign ones last cannot
        // deadlock against a batch that waits on ours.
        for (size_t i = 0; i < jobs_.size(); ++i) {
            emit(i);
            pump();
        }
        while (running_ > 0 || next_ < owned_.size()) {
            pump();
            if (running_ > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        }
        // Install in emit order, not in the order the compilers
        // happened to finish, and allocate nothing while waiting on
        // them (commands are built at emit time): the heap and the
        // artifacts' mappings are laid out the same way on every run,
        // so warm kernels see the same memory layout whatever the
        // compilers' timing was.
        for (std::unique_ptr<OwnedBuild> &build : owned_) {
            if (build->exited && !build->released) {
                install(build.get());
            }
        }
        owned_.clear();
        for (ForeignBuild &foreign : foreign_) {
            loadForeign(foreign);
        }
        return std::move(results_);
    }

  private:
    bool
    cancelled() const
    {
        return cancel_ != nullptr && cancel_->load();
    }

    /** Emit job `i`, claim its path, and probe the disk cache; a miss
     *  has its source written out and is queued. */
    void
    emit(size_t i)
    {
        auto start = Clock::now();
        NativeBuild &result = results_[i];
        EmitResult emitted;
        try {
            emitted = emitC(jobs_[i].func, jobs_[i].keyTag);
        } catch (const UserError &e) {
            result.fallback = Fallback::kUnsupported;
            result.error = e.what();
            result.ms = msSince(start);
            return;
        }
        auto kernel = std::make_shared<NativeKernel>();
        kernel->name = emitted.name;
        kernel->slotNames = std::move(emitted.slotNames);
        kernel->numParamSlots = emitted.numParamSlots;
        kernel->scalarNames = std::move(emitted.scalarNames);
        kernel->hasWindow = emitted.hasWindow;
        kernel->soPath = dir_ + "/st_" +
                         hex16(fnv1a(kCcFlags + emitted.source)) + ".so";
        std::string meta = "sparsetir-native;abi=" +
                           std::to_string(kNativeAbiVersion) +
                           ";tag=" + jobs_[i].keyTag +
                           ";kernel=" + kernel->name;

        std::shared_ptr<Claim> owner = inFlight().claim(kernel->soPath);
        if (owner != nullptr) {
            foreign_.push_back({i, kernel, meta, owner});
            result.ms = msSince(start);
            return;
        }
        auto build = std::make_unique<OwnedBuild>();
        build->job = i;
        build->kernel = kernel;
        build->meta = meta;
        kernel->handle = tryLoad(kernel->soPath, meta, &kernel->entry);
        if (kernel->handle != nullptr) {
            kernel->diskHit = true;
            resolve(build.get(), Fallback::kNone, "");
            result.ms = msSince(start);
            return;
        }
        try {
            makeDirs(dir_);
            build->stem = dir_ + "/st_build_" +
                          std::to_string(static_cast<long>(::getpid())) +
                          "_" + std::to_string(tempCounter().fetch_add(1));
            std::ofstream out(build->stem + ".c", std::ios::binary);
            out << emitted.source;
            USER_CHECK(out.good()) << "cannot write native kernel source '"
                                   << build->stem << ".c'";
            build->command = compilerCommand() + kCcFlags + " -o '" +
                             build->stem + ".so' '" + build->stem +
                             ".c' 2>'" + build->stem + ".err'";
        } catch (const UserError &e) {
            resolve(build.get(), Fallback::kCcFailed, e.what());
            result.ms = msSince(start);
            return;
        }
        result.ms = msSince(start);
        owned_.push_back(std::move(build));
    }

    /** Reap finished or overdue compilers, then start queued ones up
     *  to the CPU bound. */
    void
    pump()
    {
        bool cancel = cancelled();
        for (size_t i = 0; i < next_; ++i) {
            OwnedBuild &build = *owned_[i];
            if (build.pid <= 0) {
                continue;
            }
            int status = 0;
            if (reaped(build.pid, &status)) {
                build.status = status;
                build.ccMs = endRun(&build);
                build.exited = true;
            } else if (cancel || Clock::now() - build.started >= deadline_) {
                killOverdue(&build, cancel);
            }
        }
        static const int cpus = cpuCount();
        while (next_ < owned_.size() && running_ < cpus) {
            start(owned_[next_++].get());
        }
    }

    void
    start(OwnedBuild *build)
    {
        if (cancelled()) {
            resolve(build, Fallback::kTimeout,
                    "native compilation of '" + build->kernel->name +
                        "' was cancelled");
            return;
        }
        std::string error;
        build->pid = spawnShell(build->command, &error);
        if (build->pid < 0) {
            resolve(build, Fallback::kCcFailed,
                    "cannot start the native compiler: " + error);
            return;
        }
        build->started = Clock::now();
        running_ += 1;
    }

    /** Kill an overdue (or cancelled) compiler; the kernel times out. */
    void
    killOverdue(OwnedBuild *build, bool cancelled)
    {
        killAndReap(build->pid);
        endRun(build);
        std::string why =
            cancelled ? "was cancelled"
                      : "ran past its deadline of " +
                            std::to_string(deadline_.count()) + " ms";
        resolve(build, Fallback::kTimeout,
                "native compilation of '" + build->kernel->name + "' " +
                    why + " and was killed");
    }

    /** The reaped end of a compiler run: records its span, returns
     *  its wall time. */
    double
    endRun(OwnedBuild *build)
    {
        build->pid = -1;
        running_ -= 1;
        double cc_ms = msSince(build->started);
        observe::TraceRecorder &trace = observe::TraceRecorder::global();
        if (trace.enabled()) {
            observe::TraceEvent event;
            event.cat = "native";
            event.name = "native.compile";
            event.durNs = static_cast<int64_t>(cc_ms * 1e6);
            event.startNs = observe::TraceRecorder::nowNs() - event.durNs;
            trace.record(event);
        }
        return cc_ms;
    }

    /** A reaped compiler (status -1: lost): install and load its
     *  artifact if it succeeded. */
    void
    install(OwnedBuild *build)
    {
        const int status = build->status;
        auto start = Clock::now();
        NativeKernel &kernel = *build->kernel;
        std::string cc_err = readFile(build->stem + ".err");
        std::string tmp_so = build->stem + ".so";
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            resolve(build, Fallback::kCcFailed,
                    "native compilation of '" + kernel.name +
                        "' failed (command: " + compilerCommand() +
                        kCcFlags + "): " + cc_err);
            return;
        }
        compileCounter().fetch_add(1, std::memory_order_relaxed);
        // Atomic install: concurrent processes either see the old file
        // or the complete new one, never a partial write.
        if (std::rename(tmp_so.c_str(), kernel.soPath.c_str()) != 0) {
            resolve(build, Fallback::kCcFailed,
                    "cannot install native artifact '" + kernel.soPath +
                        "': " + std::strerror(errno));
            return;
        }
        kernel.handle = tryLoad(kernel.soPath, build->meta, &kernel.entry);
        ICHECK(kernel.handle != nullptr)
            << "freshly built native artifact '" << kernel.soPath
            << "' failed to load";
        results_[build->job].ms += build->ccMs + msSince(start);
        resolve(build, Fallback::kNone, "");
    }

    /** Settle an owned kernel: its result, temporaries and claim. */
    void
    resolve(OwnedBuild *build, Fallback fallback, const std::string &error)
    {
        NativeBuild &result = results_[build->job];
        if (fallback == Fallback::kNone) {
            result.kernel = build->kernel;
        } else {
            result.fallback = fallback;
            result.error = error;
        }
        build->removeTemporaries();
        inFlight().release(build->kernel->soPath, fallback, error);
        build->released = true;
    }

    void
    loadForeign(ForeignBuild &foreign)
    {
        auto start = Clock::now();
        NativeBuild &result = results_[foreign.job];
        Claim outcome;
        if (!inFlight().wait(foreign.claim, cancel_, &outcome)) {
            result.fallback = Fallback::kTimeout;
            result.error = "native compilation cancelled";
            return;
        }
        NativeKernel &kernel = *foreign.kernel;
        if (outcome.fallback == Fallback::kNone) {
            kernel.handle =
                tryLoad(kernel.soPath, foreign.meta, &kernel.entry);
            if (kernel.handle == nullptr) {
                outcome.fallback = Fallback::kCcFailed;
                outcome.error = "native artifact '" + kernel.soPath +
                                "' built by a concurrent caller failed "
                                "to load";
            }
        }
        if (outcome.fallback == Fallback::kNone) {
            kernel.diskHit = true;
            result.kernel = foreign.kernel;
        } else {
            result.fallback = outcome.fallback;
            result.error = outcome.error;
        }
        result.ms += msSince(start);
    }

    const std::vector<NativeJob> &jobs_;
    const std::chrono::milliseconds deadline_;
    const std::atomic<bool> *cancel_;
    std::vector<NativeBuild> results_;
    const std::string dir_;
    /** Owned misses in emit order; [0, next_) have been started. */
    std::vector<std::unique_ptr<OwnedBuild>> owned_;
    size_t next_ = 0;
    int running_ = 0;
    std::vector<ForeignBuild> foreign_;
};

} // namespace

const char *
fallbackName(Fallback reason)
{
    switch (reason) {
      case Fallback::kNone:
        return "none";
      case Fallback::kUnsupported:
        return "unsupported";
      case Fallback::kCcFailed:
        return "cc_failed";
      case Fallback::kTimeout:
        return "timeout";
    }
    return "none";
}

std::string
nativeCacheDir()
{
    const char *dir = std::getenv("SPARSETIR_NATIVE_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') {
        return dir;
    }
    return "/tmp/sparsetir-native-" + std::to_string(::getuid());
}

uint64_t
nativeCompileCount()
{
    return compileCounter().load(std::memory_order_relaxed);
}

bool
nativeEnabledByEnv()
{
    const char *value = std::getenv("SPARSETIR_NATIVE");
    return value != nullptr && value[0] != '\0' &&
           std::string(value) != "0";
}

std::vector<NativeBuild>
compileNativeBatch(const std::vector<NativeJob> &jobs,
                   std::chrono::milliseconds deadline,
                   const std::atomic<bool> *cancel)
{
    return Batch(jobs, deadline, cancel).run();
}

std::shared_ptr<const NativeKernel>
compileNative(const ir::PrimFunc &func, const std::string &key_tag)
{
    std::vector<NativeBuild> built =
        compileNativeBatch({NativeJob{func, key_tag}}, kCcDeadline);
    if (built[0].kernel == nullptr) {
        throw UserError(built[0].error);
    }
    return built[0].kernel;
}

void
execute(const NativeKernel &kernel, const Bindings &bindings,
        const RunOptions &options)
{
    if (options.blockEnd >= 0) {
        USER_CHECK(kernel.hasWindow)
            << "block-windowed execution of '" << kernel.name
            << "': no blockIdx.x-bound loop";
    }

    std::vector<StSlot> slots(kernel.slotNames.size());
    for (int i = 0; i < kernel.numParamSlots; ++i) {
        // Lazy binding, like the VM: a missing parameter array only
        // faults when the kernel actually touches it.
        auto it = bindings.arrays.find(kernel.slotNames[i]);
        if (it == bindings.arrays.end()) {
            continue;
        }
        NDArray *arr = it->second;
        StSlot &s = slots[i];
        s.base = static_cast<unsigned char *>(arr->rawData());
        s.numel = arr->numel();
        s.kind = static_cast<int32_t>(
            bytecode::elemKindOfDtype(arr->dtype()));
        s.ebytes = arr->elemBytes();
        s.bound = 1;
    }
    for (const auto &bv : options.offsetViews) {
        if (bv.view == nullptr) {
            continue;
        }
        for (int i = 0; i < kernel.numParamSlots; ++i) {
            if (kernel.slotNames[i] != bv.name) {
                continue;
            }
            static_assert(sizeof(std::pair<int64_t, int64_t>) ==
                              2 * sizeof(int64_t),
                          "span pairs must be two packed int64s");
            StSlot &s = slots[i];
            s.hasView = 1;
            s.spans = reinterpret_cast<const int64_t *>(
                bv.view->spans.data());
            s.bases = bv.view->bases.data();
            s.numSpans = static_cast<int64_t>(bv.view->spans.size());
        }
    }

    std::vector<int64_t> scalars;
    scalars.reserve(kernel.scalarNames.size());
    for (const auto &name : kernel.scalarNames) {
        auto it = bindings.scalars.find(name);
        ICHECK(it != bindings.scalars.end())
            << "unbound variable '" << name << "'";
        scalars.push_back(it->second);
    }

    StCtx ctx;
    ctx.slots = slots.data();
    ctx.scalars = scalars.data();
    ctx.blockBegin = options.blockBegin;
    ctx.blockEnd = options.blockEnd;

    int32_t rc = kernel.entry(&ctx);

    // Heap scratch slots are calloc'd inside the kernel (stack scratch
    // leaves base null); release them on success and fault paths
    // alike (metadata survives for messages).
    for (size_t i = static_cast<size_t>(kernel.numParamSlots);
         i < slots.size(); ++i) {
        std::free(slots[i].base);
        slots[i].base = nullptr;
    }

    if (rc == ST_OK) {
        return;
    }
    int32_t fs = ctx.faultSlot;
    bool has_slot =
        fs >= 0 && fs < static_cast<int32_t>(slots.size());
    const std::string slot_name =
        has_slot ? kernel.slotNames[fs] : std::string("?");
    switch (rc) {
      case ST_FAULT_ACCESS:
        if (has_slot && slots[fs].bound == 0) {
            ICHECK(false)
                << "no storage bound for buffer '" << slot_name << "'";
        }
        ICHECK_GE(ctx.faultOffset, 0)
            << "negative offset into " << slot_name;
        ICHECK(false) << "offset " << ctx.faultOffset
                      << " out of bounds for buffer '" << slot_name
                      << "' (numel "
                      << (has_slot ? slots[fs].numel : 0) << ")";
        break;
      case ST_FAULT_WINDOW:
        ICHECK(false)
            << "offset " << ctx.faultOffset << " of buffer '"
            << slot_name
            << "' lies outside its rebased window (write-set spans "
               "must cover every touched element)";
        break;
      case ST_FAULT_DIV0:
        ICHECK(false) << "floordiv/floormod by zero in '"
                      << kernel.name << "'";
        break;
      case ST_FAULT_CLASS:
        if (has_slot &&
            (slots[fs].kind ==
                 static_cast<int32_t>(bytecode::ElemKind::kF32) ||
             slots[fs].kind ==
                 static_cast<int32_t>(bytecode::ElemKind::kF64))) {
            ICHECK(false)
                << "integer access to float buffer '" << slot_name
                << "'";
        }
        ICHECK(false) << "float access to integer buffer '"
                      << slot_name << "'";
        break;
      case ST_FAULT_SEARCH:
        if (has_slot && slots[fs].hasView != 0) {
            ICHECK(false) << "binary search over rebased buffer '"
                          << slot_name << "'";
        }
        ICHECK(false) << "binary search range out of bounds for "
                         "buffer '"
                      << slot_name << "' (at " << ctx.faultOffset
                      << ")";
        break;
      case ST_FAULT_NEGALLOC:
        ICHECK(false) << "negative scratch allocation for buffer '"
                      << slot_name << "' (" << ctx.faultOffset << ")";
        break;
      case ST_FAULT_OOM:
        ICHECK(false) << "scratch allocation of " << ctx.faultOffset
                      << " elements for buffer '" << slot_name
                      << "' failed";
        break;
      default:
        ICHECK(false) << "native kernel '" << kernel.name
                      << "' returned unknown fault code " << rc;
    }
}

} // namespace native
} // namespace runtime
} // namespace sparsetir
