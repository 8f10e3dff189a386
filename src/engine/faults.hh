/**
 * @file
 * Deterministic fault injection for the serving simulator.  The paper
 * benchmarks short runs under ideal conditions; sustained edge
 * deployment (a robot's planning server, a kiosk) is instead shaped by
 * thermal throttling, transient SoC brownouts, and memory pressure.  A
 * FaultPlan schedules those events up front from named RNG streams
 * (seed-keyed, evaluation-order independent), so a fault run is
 * bit-reproducible at a fixed seed regardless of thread count, and a
 * plan with every mechanism disabled is indistinguishable from no plan
 * at all.
 *
 * Event taxonomy:
 *  - Thermal derating: not an event list but a coupled RC simulation
 *    (hw/thermal.hh) stepped inside the serving decode loop; the
 *    governed power mode scales step latency and derates power.
 *  - Brownout: the SoC stalls for an exponentially distributed
 *    duration (shared-rail dip, DVFS glitch, host interference).
 *    In-flight work holds its KV and resumes afterwards.
 *  - KvShrink / KvRestore: a fraction of the KV block pool becomes
 *    unavailable for a window (co-tenant allocation, ECC retirement).
 *    The scheduler must preempt victims if the live working set no
 *    longer fits.
 */

#ifndef EDGEREASON_ENGINE_FAULTS_HH
#define EDGEREASON_ENGINE_FAULTS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "hw/thermal.hh"

namespace edgereason {
namespace engine {

/** Kind of an injected fault event. */
enum class FaultKind { Brownout, KvShrink, KvRestore };

/** @return human-readable fault-kind name. */
const char *faultKindName(FaultKind k);

/** One scheduled fault event. */
struct FaultEvent
{
    FaultKind kind = FaultKind::Brownout;
    Seconds time = 0.0;
    /** Brownout: stall length.  KvShrink: length of the window (the
     *  paired KvRestore is scheduled at time + duration). */
    Seconds duration = 0.0;
    /** KvShrink: fraction of KV block capacity removed, in [0, 1). */
    double magnitude = 0.0;
};

/**
 * One gray-failure window: on [start, start + duration) every unit of
 * device work costs @p multiplier× its nominal time — the device stays
 * up, answers health probes, accepts work, and is simply slow (the
 * thermally-wedged-but-alive Jetson).  Fleet nodes draw these per node
 * (fleet/node_faults.hh); the executor latches the scale once per
 * scheduling cycle from its clock.  Neither the fail-stop crash
 * machinery nor the consecutive-failure breaker sees these windows;
 * only latency-based (quantile-adaptive) health can.
 */
struct SlowdownWindow
{
    Seconds start = 0.0;
    Seconds duration = 0.0;
    double multiplier = 1.0; //!< step-cost factor, > 1 slows the node
};

/**
 * Process-death schedule for crash-safety testing.  A crash is not a
 * FaultEvent: fault events change simulator behaviour (and therefore the
 * run's results), whereas a crash only decides *when the process dies* —
 * a run that crashes and resumes must produce bit-identical results to
 * one that never crashed.  Keeping crashes out of the event list (and
 * out of FaultPlan::active()) preserves that separation.
 */
struct CrashSchedule
{
    /** Kill when the executor reaches batch step N (-1 disables). */
    std::int64_t atStep = -1;
    /** Kill at the first step boundary at/after sim time T (<0 off). */
    Seconds atTime = -1.0;
    /** Mean Poisson crashes per hour of sim time (0 disables). */
    double perHour = 0.0;

    bool enabled() const
    {
        return atStep >= 0 || atTime >= 0.0 || perHour > 0.0;
    }
};

/**
 * Thrown by the serving loop when a CrashSchedule fires (a simulated
 * power cut at a batch-step boundary).  Derives from runtime_error so it
 * unwinds like fatal(); the CLI catches it to print a resume hint.
 */
struct SimulatedCrash : std::runtime_error
{
    SimulatedCrash(std::int64_t step_, Seconds clock_);

    std::int64_t step;
    Seconds clock;
};

/** Fault-plan generation parameters. */
struct FaultConfig
{
    /** Root seed of the fault RNG streams ("<streamPrefix>/..."). */
    std::uint64_t seed = 0xFA17;
    /**
     * Stream-name prefix of the RNG streams this plan draws from.  The
     * default reproduces every historical single-node schedule bit for
     * bit; fleet runs scope it per node ("fault/node<i>") so N plans
     * derived from one seed are independent and adding a node never
     * perturbs the existing nodes' schedules.
     */
    std::string streamPrefix = "faults";
    /** Events are scheduled on [0, horizon) seconds of run time. */
    Seconds horizon = 7200.0;

    /** Couple the RC thermal model + power-mode governor into the
     *  serving loop (derates speed and power under sustained load). */
    bool thermal = false;
    hw::ThermalSpec thermalSpec;

    /** Mean brownout arrivals per hour (Poisson; 0 disables). */
    double brownoutsPerHour = 0.0;
    /** Mean stall length of one brownout (exponential). */
    Seconds brownoutMeanStall = 2.0;

    /** Mean KV-shrink windows per hour (Poisson gaps; 0 disables).
     *  Windows never overlap: the next gap starts after the restore. */
    double kvShrinksPerHour = 0.0;
    /** Fraction of KV block capacity removed per window, in [0, 1). */
    double kvShrinkFraction = 0.25;
    /** Length of one shrink window. */
    Seconds kvShrinkDuration = 120.0;

    /** When to simulate process death (never affects results). */
    CrashSchedule crash;
};

/**
 * An immutable, fully materialized fault schedule.  Construction draws
 * every event from named sub-streams of the config seed, so two plans
 * with the same config are identical and adding a new mechanism never
 * perturbs the existing streams.  A default-constructed plan (or one
 * whose config enables nothing) is inactive: the serving simulator
 * then runs the exact legacy ideal-conditions code path.
 */
class FaultPlan
{
  public:
    /** An inactive (zero-fault) plan. */
    FaultPlan() = default;

    /** Materialize the schedule for @p cfg (validates parameters). */
    explicit FaultPlan(const FaultConfig &cfg);

    /**
     * @return true if any *behavioural* fault mechanism is enabled.
     * A crash schedule alone does not make a plan active: crashes must
     * not switch the executor onto the fault-hardened code path, or a
     * crash-only run would stop being bit-identical to a plain run.
     */
    bool active() const { return cfg_.thermal || !events_.empty(); }

    /** @return the generation parameters. */
    const FaultConfig &config() const { return cfg_; }

    /** @return all scheduled events, sorted by time. */
    const std::vector<FaultEvent> &events() const { return events_; }

    /**
     * @return sim times at which the process should die (sorted).
     * Materialized from cfg.crash: explicit atTime plus Poisson draws
     * from the "faults/crash" stream.  atStep kills are matched against
     * the step counter directly and do not appear here.
     */
    const std::vector<Seconds> &crashTimes() const { return crashTimes_; }

  private:
    FaultConfig cfg_{};
    std::vector<FaultEvent> events_;
    std::vector<Seconds> crashTimes_;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_FAULTS_HH
