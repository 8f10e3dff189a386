/**
 * @file
 * Fleet-level node fault schedules.  A fleet run injects two kinds of
 * node trouble on top of the per-node behavioural FaultPlan
 * (engine/faults.hh):
 *
 *  - Node crashes: the whole serving process dies, losing every
 *    pending, queued and in-flight request on the node; the node
 *    rejoins the fleet after an exponentially distributed reboot.
 *    Unlike the single-node CrashSchedule (which only decides when a
 *    recoverable process dies and never changes results), a fleet
 *    crash is *behavioural*: the router must fail the lost requests
 *    over to surviving nodes.
 *  - Degrade windows: the node's health probe reports it unhealthy
 *    (sustained brownout, thermal runaway); the router drains it —
 *    no new dispatches while an alternative exists — but in-flight
 *    work runs to completion.
 *
 * Determinism contract (the node-scoped stream rule): all draws come
 * from named RNG streams "fleet/node<i>/...", keyed by the config
 * seed.  Node i's schedule is therefore a pure function of (seed,
 * i) — deriving plans for an 8-node fleet reproduces the 2-node
 * fleet's schedules for nodes 0 and 1 bit for bit, so growing the
 * fleet never perturbs existing nodes.  The per-node behavioural
 * FaultPlan gets the same treatment via FaultConfig::streamPrefix.
 */

#ifndef EDGEREASON_FLEET_NODE_FAULTS_HH
#define EDGEREASON_FLEET_NODE_FAULTS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "engine/faults.hh"

namespace edgereason {
namespace fleet {

/** One node crash: the node dies at @p time, losing all live work,
 *  and rejoins the fleet @p rebootAfter seconds later. */
struct NodeCrashEvent
{
    Seconds time = 0.0;
    Seconds rebootAfter = 0.0;
};

/** One degrade window: on [start, start + duration) the node reports
 *  unhealthy and the router drains it. */
struct DegradeWindow
{
    Seconds start = 0.0;
    Seconds duration = 0.0;
};

/** Fleet fault-injection parameters (shared by every node; each node
 *  draws its own schedule from node-scoped streams). */
struct NodeFaultConfig
{
    /** Root seed of the "fleet/node<i>/..." streams. */
    std::uint64_t seed = 0xF1EE7;
    /** Events are scheduled on [0, horizon) seconds of fleet time. */
    Seconds horizon = 7200.0;

    /** Mean node crashes per hour (Poisson; 0 disables). */
    double crashesPerHour = 0.0;
    /** Mean reboot length after a crash (exponential). */
    Seconds meanRebootSeconds = 20.0;

    /** Mean degrade windows per hour (Poisson gaps; 0 disables).
     *  Windows never overlap on one node. */
    double degradesPerHour = 0.0;
    /** Mean degrade-window length (exponential). */
    Seconds meanDegradeSeconds = 60.0;

    /** Mean gray-failure slowdown windows per hour (Poisson gaps; 0
     *  disables).  Windows never overlap on one node. */
    double slowdownsPerHour = 0.0;
    /** Mean slowdown-window length (exponential). */
    Seconds meanSlowdownSeconds = 90.0;
    /** Step-cost multiplier inside a slowdown window; each window
     *  draws uniformly from [1 + (m-1)/2, m] so stragglers vary. */
    double slowdownMultiplier = 8.0;

    /** Mean health-flap windows per hour (Poisson gaps; 0 disables).
     *  A flap is a short self-reported unhealthy blip — same router
     *  drain semantics as a degrade window, but drawn from its own
     *  stream with much shorter windows, so flapping nodes re-trip
     *  the breaker while draining. */
    double flapsPerHour = 0.0;
    /** Mean flap-window length (exponential). */
    Seconds meanFlapSeconds = 5.0;

    /**
     * Behavioural fault template applied inside every node (thermal
     * coupling, brownouts, KV shrink).  seed, streamPrefix, and the
     * crash schedule are overridden per node — single-node process
     * crashes do not compose with fleet failover semantics, so
     * behavioural.crash must stay disabled.
     */
    engine::FaultConfig behavioural;
};

/** The materialized fleet-fault schedule of one node. */
struct NodeFaultSchedule
{
    std::vector<NodeCrashEvent> crashes;   //!< sorted by time
    std::vector<DegradeWindow> degrades;   //!< sorted, non-overlapping
    /** Gray-failure windows (engine/faults.hh); sorted,
     *  non-overlapping. */
    std::vector<engine::SlowdownWindow> slowdowns;
    std::vector<DegradeWindow> flaps;      //!< sorted, non-overlapping
    engine::FaultPlan behavioural;         //!< node-scoped streams
};

/**
 * Derive @p n per-node schedules from @p cfg.  Node i draws from the
 * streams "fleet/node<i>/node-crash", "fleet/node<i>/degrade",
 * "fleet/node<i>/slowdown" and "fleet/node<i>/flap", and its
 * behavioural plan from "fleet/node<i>/brownout" etc., so the result
 * for node i is independent of @p n.
 */
std::vector<NodeFaultSchedule>
deriveNodeFaultPlans(const NodeFaultConfig &cfg, std::size_t n);

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_NODE_FAULTS_HH
