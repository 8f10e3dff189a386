/**
 * @file
 * In-memory span recorder for the end-to-end benchmark's traced runs.
 *
 * Spans are recorded only from the benchmark's own code, around its
 * calls into each layer's public functions.  Each thread appends to a
 * private buffer, so recording takes no lock after a thread's first
 * span.  Nothing is written until the run ends: writeChromeTrace()
 * emits Chrome trace-event JSON (opens in Perfetto), and layerStats()
 * folds the spans into per-layer totals, self time and percentiles.
 */

#ifndef EDGEREASON_BENCH_E2E_TRACER_HH
#define EDGEREASON_BENCH_E2E_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/** @return monotonic host nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span.  Ids are 1-based; parent 0 means a root span. */
struct Span
{
    const char *name = nullptr; //!< static layer name, e.g. "core.pareto"
    std::int64_t start = 0;     //!< host ns
    std::int64_t end = 0;       //!< host ns
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t thread = 0;   //!< recording buffer index
};

/** Aggregate of all spans sharing a name. */
struct LayerStats
{
    std::uint64_t calls = 0;
    double totalS = 0.0;   //!< summed durations
    double selfS = 0.0;    //!< summed durations minus child coverage
    std::vector<double> durS; //!< per-call durations, sorted
};

/**
 * Highest percentile (of 50, 90, 99, 99.9, 99.99) that leaves at
 * least ten samples beyond it; 50 when there are too few samples.
 */
double tailPercentile(std::size_t samples);

/** @return the @p pct percentile of sorted @p v (nearest rank; 0 if
 *  empty). */
double percentileSorted(const std::vector<double> &v, double pct);

/** @return the median of @p v (mean of the middle two; 0 if empty). */
double median(std::vector<double> v);

class Tracer
{
  public:
    /**
     * @param enabled  false makes every span a no-op (the untraced
     *   baseline of the same instrumented code)
     */
    Tracer(bool enabled, std::string workload, std::uint64_t run_id);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span on the calling thread; @return its id (0 when
     *  disabled). */
    std::uint64_t begin(const char *name, std::uint64_t parent);
    /** Close span @p id, which the calling thread opened. */
    void end(std::uint64_t id);

    /** Fold spans into per-name statistics with self time (call after
     *  all threads joined the work that records them). */
    std::map<std::string, LayerStats> layerStats() const;

    /**
     * Write Chrome trace-event JSON.  At most @p max_events spans are
     * written (earliest first); the count left out is recorded in the
     * file's otherData.  @return false if the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          std::size_t max_events) const;

  private:
    std::vector<Span> spans() const;

    struct Buffer
    {
        std::uint32_t index = 0;
        std::vector<Span> spans;
    };
    Buffer &localBuffer();

    const bool enabled_;
    const std::string workload_;
    const std::uint64_t runId_;
    const std::uint64_t serial_; //!< distinguishes tracer instances
    mutable std::mutex mu_;      //!< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span; a null or disabled tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name, std::uint64_t parent = 0)
        : t_(t && t->enabled() ? t : nullptr),
          id_(t_ ? t_->begin(name, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer *t_;
    std::uint64_t id_;
};

} // namespace e2e

#endif // EDGEREASON_BENCH_E2E_TRACER_HH
