/**
 * @file
 * Small shared helpers of the serving benchmark: wall clocks, order
 * statistics, output hashing, seeded input arrays and the in-memory
 * span log the traced run writes out as a Chrome trace.
 */

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "observe/trace.h"
#include "runtime/ndarray.h"
#include "support/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Wall milliseconds of one call. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    Clock::time_point start = Clock::now();
    fn();
    return msSince(start);
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** 64-bit hash of an array's raw bytes (bitwise identity check). */
inline uint64_t
hashBytes(const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ bytes;
    size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0xff51afd7ed558ccdULL;
        h ^= h >> 29;
    }
    for (; i < bytes; ++i) {
        h = (h ^ p[i]) * 0x100000001b3ULL;
    }
    return h ^ (h >> 31);
}

inline uint64_t
hashArray(const sparsetir::runtime::NDArray &a)
{
    return hashBytes(a.rawData(),
                     static_cast<size_t>(a.numel()) * sizeof(float));
}

inline std::vector<float>
randomFloats(int64_t n, uint64_t seed)
{
    sparsetir::Rng rng(seed);
    std::vector<float> out(static_cast<size_t>(n));
    for (float &v : out) {
        v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
    }
    return out;
}

inline sparsetir::runtime::NDArray
randomArray(int64_t n, uint64_t seed)
{
    return sparsetir::runtime::NDArray::fromFloat(randomFloats(n, seed));
}

inline sparsetir::runtime::NDArray
zeroArray(int64_t n)
{
    return sparsetir::runtime::NDArray(
        {n}, sparsetir::ir::DataType::float32());
}

/** Mix a seed with stream/index tags into an independent seed. */
inline uint64_t
subSeed(uint64_t seed, uint64_t a, uint64_t b = 0)
{
    uint64_t h = seed * 0x9e3779b97f4a7c15ULL + a * 0xbf58476d1ce4e5b9ULL +
                 b * 0x94d049bb133111ebULL + 1;
    h ^= h >> 31;
    return h;
}

/**
 * Spans recorded by the benchmark around its calls into each layer,
 * kept in memory (a private observe::TraceRecorder, so the engine's
 * own global recorder stays off) and written out at the end. Every
 * span carries the id of the request it belongs to.
 */
class SpanLog
{
  public:
    SpanLog()
    {
        recorder_.setRingCapacity(1 << 20);
        recorder_.setEnabled(true);
    }

    /** Record [start, start + ms) under `name` for `request`. */
    void
    add(const std::string &name, int64_t request, int64_t start_ns,
        double ms)
    {
        sparsetir::observe::TraceEvent event;
        event.cat = "perfbench";
        event.name = intern(name);
        event.startNs = start_ns;
        event.durNs = static_cast<int64_t>(ms * 1e6);
        event.arg0Name = "request";
        event.arg0 = request;
        recorder_.record(event);
    }

    /** Time `fn`, record it as a span, return its milliseconds. */
    template <typename Fn>
    double
    span(const std::string &name, int64_t request, Fn &&fn)
    {
        int64_t start = sparsetir::observe::TraceRecorder::nowNs();
        double ms = timeMs(fn);
        add(name, request, start, ms);
        return ms;
    }

    uint64_t size() const { return recorder_.eventCount(); }

    bool
    write(const std::string &path) const
    {
        return recorder_.writeChromeTrace(path);
    }

  private:
    /** Span names must outlive the recorder's buffers. */
    const char *
    intern(const std::string &name)
    {
        auto it = names_.find(name);
        if (it == names_.end()) {
            storage_.push_back(name);
            it = names_.emplace(name, storage_.back().c_str()).first;
        }
        return it->second;
    }

    sparsetir::observe::TraceRecorder recorder_;
    std::deque<std::string> storage_;
    std::map<std::string, const char *> names_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H_
