/**
 * @file
 * The four end-to-end workloads of the benchmark.  Each repetition
 * builds its inputs from (seed, repetition) alone, sets up the library
 * objects, runs one timed phase through the library's public API, and
 * checks the simulated reports (conservation on every seed, committed
 * %.17g digests on the default seed).
 *
 * Each workload runs in three modes:
 *  - Library: the path a user runs (core::sweepStrategies,
 *    ServingSimulator::run, FleetSimulator::run).  End-to-end metrics
 *    come from this mode only.
 *  - Traced: the benchmark's own instrumented copy of that path, which
 *    records spans around each call into a layer.  For sweep and
 *    node_sessions it reproduces the Library reports bit for bit; for
 *    the fleets it is a simpler replay (no faults, retries or hedges),
 *    so only its outcome counts are printed beside the Library ones.
 *  - Untraced: the Traced mode's code with the tracer off, the fleet
 *    replay's baseline for tracing overhead.
 */

#ifndef EDGEREASON_BENCH_E2E_WORKLOADS_HH
#define EDGEREASON_BENCH_E2E_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tracer.hh"

namespace e2e {

/** Seed whose reports are pinned by committed digests. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Seed never used while tuning; kept for checking later claims. */
constexpr std::uint64_t kHeldOutSeed = 9001;

enum class Mode { Library, Traced, Untraced };

struct RunContext
{
    std::uint64_t seed = kDefaultSeed;
    unsigned threads = 1;    //!< T: pool threads the workload uses
    std::string scratchDir;  //!< journals and checkpoints go here
};

/** Outcome of one repetition. */
struct RepResult
{
    /** CPU seconds of the repetition's one setup, which is cold as in
     *  a CLI run.  Setup runs on the calling thread only. */
    double setupS = 0.0;
    /** CPU seconds of the whole process in the timed phase. */
    double phaseS = 0.0;
    std::uint64_t items = 0;
    bool ok = true;
    std::string error;    //!< first failed check or exception
    /** (report name, FNV-1a of its %.17g rendering), in run order. */
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    /** Per-layer metrics (Traced mode only). */
    std::map<std::string, double> layers;
    /** One-line outcome counts, for humans. */
    std::string outcomes;
};

/**
 * Run one repetition into @p out.  The item count is set as soon as
 * the inputs exist, so a repetition that throws still counts its
 * items as failed.
 */
using WorkloadFn = void (*)(const RunContext &, std::uint64_t rep, Mode,
                            Tracer *, RepResult &out);

struct Workload
{
    const char *name;
    WorkloadFn run;
    /** Whether the Traced mode must reproduce the Library digests
     *  (and so is timed against the Library run for overhead). */
    bool tracedMatchesLibrary;
    /** Whether inputs differ per repetition (else every repetition
     *  repeats repetition 0 and must reproduce its digests). */
    bool perRepInputs;
    /** Whether the Library run's pool has T threads (else one). */
    bool libraryOnT;
    /** Whether the Traced and Untraced runs' pool has T threads. */
    bool tracedOnT;
};

/** @return the workload table, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

} // namespace e2e

#endif // EDGEREASON_BENCH_E2E_WORKLOADS_HH
