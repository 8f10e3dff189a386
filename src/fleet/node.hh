/**
 * @file
 * One fleet node: a complete single-node serving stack (scheduler ->
 * BatchExecutor -> InferenceEngine) wrapped behind a submit/advance
 * interface the fleet driver can compose.  Where ServingSimulator::run
 * pumps a fixed trace to completion, a FleetNode receives requests
 * incrementally from the router (arrival = dispatch time) and advances
 * its simulation on demand, up to a target instant, so the driver can
 * keep N nodes conservatively synchronized.
 *
 * The node's execution is a pure function of its submission sequence:
 * every request is identified by a node-local trace index (a monotone
 * submit counter) mapped to the fleet-global id, and advanceUntil()
 * runs the same BatchExecutor::cycle() as ServingSimulator::run — a
 * node fed a whole trace retires exactly the single-node records — so
 * per-node arithmetic is bit-identical however the driver chunks its
 * advanceUntil() calls and whatever thread advances it.
 *
 * Crash/reboot: crash() discards the executor, scheduling state, and
 * pending arrivals (the fleet driver fails the lost requests over);
 * lifetime accumulator totals are snapshotted first so energy spent by
 * dead incarnations still counts.  reboot() starts a fresh incarnation
 * — cold clock, cold thermal state — over the same engine and the
 * same served-record sink, so node tallies span incarnations.
 */

#ifndef EDGEREASON_FLEET_NODE_HH
#define EDGEREASON_FLEET_NODE_HH

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/executor.hh"
#include "engine/journal.hh"
#include "engine/server.hh"
#include "fleet/node_faults.hh"
#include "hw/gpu_spec.hh"
#include "model/model_id.hh"

namespace edgereason {
namespace fleet {

/** Identity and knobs of one node (heterogeneous fleets vary all
 *  three: model, quantization, power mode). */
struct NodeSpec
{
    model::ModelId model = model::ModelId::Dsr1Qwen1_5B;
    bool quantized = false;
    hw::PowerMode powerMode = hw::PowerMode::MaxN;

    bool operator==(const NodeSpec &) const = default;
};

/** Lifetime totals of one node across all incarnations. */
struct NodeTotals
{
    Joules energy = 0.0;
    Seconds busy = 0.0;
    double generatedTokens = 0.0;
    std::uint64_t crashes = 0;
};

class FleetNode
{
  public:
    /**
     * Build the node's engine and first executor incarnation.
     *
     * @param id  fleet node index (display / tie-breaking)
     * @param spec  model, quantization level, and power mode
     * @param config  scheduler limits (spjf is not supported: nodes
     *   carry no fitted latency model)
     * @param behavioural  node-scoped behavioural fault plan
     * @param journal_dir  when non-empty, each incarnation writes a
     *   WAL to <dir>/node-<id>-inc<k>.bin — replayable with
     *   `edgereason replay`, and tail-verified on fleet resume
     */
    FleetNode(int id, const NodeSpec &spec,
              const engine::ServerConfig &config,
              engine::FaultPlan behavioural,
              std::string journal_dir = {});

    /**
     * Open the first incarnation's journal (no-op without a journal
     * directory).  Called by the fleet driver on a *fresh* run only —
     * a resuming driver instead reopens the pre-crash journal via
     * restore(), and opening it here first would truncate it.
     */
    void beginJournal();

    /**
     * Install the node's gray-failure schedule: inside a window every
     * unit of device work costs multiplier× its nominal time.  Every
     * executor incarnation latches the scale once per scheduling cycle
     * from its clock (BatchExecutor::setSlowdowns).  Must be called
     * before the first advanceUntil.
     */
    void setSlowdowns(std::vector<engine::SlowdownWindow> windows)
    {
        slowdowns_ = std::move(windows);
    }

    int id() const { return id_; }
    const NodeSpec &spec() const { return spec_; }
    bool up() const { return up_; }
    /** @return the node's simulated clock (0 while down). */
    Seconds clock() const { return exec_ ? exec_->clock() : 0.0; }
    /** @return true if the node has any work (pending, queued, or in
     *  flight); a down node is never busy. */
    bool busy() const
    {
        return up_ && (!pending_.empty() || !st_.queue.empty() ||
                       st_.hasInFlight());
    }
    /** @return dispatched-but-unqueued plus queued request count. */
    std::size_t backlog() const
    {
        return pending_.size() + st_.queue.size();
    }
    int inFlight() const { return st_.inFlight(); }
    /** @return true while the node's thermal governor is derated. */
    bool throttled() const { return exec_ && exec_->throttled(); }

    /**
     * Dispatch one request leg to this node.  @p req.arrival must be
     * the fleet dispatch time (>= every earlier submission); the
     * deadline field carries the remaining time budget the node may
     * spend (the node's own deadline machinery then sheds, aborts, or
     * times the leg out, which is how fleet-level per-try timeouts
     * work).  @return the node-local trace index of the leg.
     */
    std::int64_t submit(const engine::ServerRequest &req,
                        std::int64_t gid);

    /**
     * Run scheduling cycles until the clock reaches @p target, the
     * node runs out of work, or (with @p stop_on_outcome) at least one
     * new served record was produced.  The clock may overshoot
     * @p target by up to one cycle (a macro decode segment or prefill
     * chunk is never split); the overshoot is deterministic.
     */
    void advanceUntil(Seconds target, bool stop_on_outcome);

    /**
     * Cancel the live leg with node-local index @p local (hedge loser
     * or failover duplicate).  Pending legs vanish without a record;
     * queued and in-flight legs retire as RequestOutcome::Cancelled at
     * the node's current clock.  @return false when the leg already
     * retired (its outcome record is in flight to the driver).
     */
    bool cancel(std::int64_t local);

    /** Kill the node: snapshot lifetime totals, then discard the
     *  executor, scheduling state, and pending arrivals.  The caller
     *  owns failing over the lost requests. */
    void crash();

    /** Start a fresh incarnation (cold clock and thermal state). */
    void reboot();

    /**
     * Records retired since the last releaseDrained(), in retire
     * order (all incarnations share the sink).  The driver drains
     * these into outcome events, then releases them, so resident
     * records stay O(in-flight) for arbitrarily long traces.
     */
    const std::vector<engine::ServedRequest> &undrained() const
    {
        return served_;
    }

    /** Release every undrained record, folding its outcome into the
     *  lifetime tallies first. */
    void releaseDrained();

    /** Per-outcome record tallies across the node's lifetime,
     *  released records included. */
    struct OutcomeCounts
    {
        std::size_t served = 0;
        std::size_t timedOut = 0;
        std::size_t cancelled = 0;
    };
    OutcomeCounts outcomeCounts() const;

    /** @return the fleet-global id of node-local leg @p local and
     *  erase the mapping (each record is drained exactly once), so
     *  the map tracks live legs, not lifetime submissions.  Panics on
     *  unknown locals. */
    std::int64_t consumeLocal(std::int64_t local);

    /** Erase @p local's mapping without a lookup (cancelled legs,
     *  whose gid the driver already resolved). */
    void dropLocal(std::int64_t local);

    /** @return lifetime totals (dead incarnations + the live one). */
    NodeTotals totals() const;

    /**
     * Optimistic service-time estimate for @p r at the current batch
     * level, from the engine's noiseless query surface (deadline- and
     * cost-aware routing).
     *
     * Invariant the routers' grouped estimates rely on: the result is
     * a pure function of (spec(), inFlight(), @p r), because the
     * engine is a pure function of spec() and its memo is exact.
     */
    Seconds estimateServiceTime(const engine::ServerRequest &r) const;

    /** @return the node engine's step-cost memo counters. */
    engine::KernelCacheStats kernelCacheStats() const
    {
        return engine_->kernelCacheStats();
    }

    /**
     * Serialize the node's complete mutable state into a fleet
     * checkpoint: liveness, incarnation, submission bookkeeping (the
     * local->gid map sorted by local), pending arrivals, lifetime
     * totals, released outcome counts, undrained records, and — for a
     * live node — the full serving stack (scheduler identity,
     * scheduling state, executor incl. thermal and KV state).
     */
    void serialize(ByteWriter &w) const;

    /**
     * Restore serialize() output into a freshly constructed node.
     * When a journal directory is configured and the node is up, the
     * current incarnation's journal is reopened with
     * Journal::resumeAt at the fleet checkpoint mark @p event_mark —
     * the pre-crash tail is truncated and (with @p verify_tail)
     * byte-compared against the resumed run's re-emitted records.
     */
    void restore(ByteReader &r, std::uint64_t event_mark,
                 bool verify_tail);

    /** Emit a CheckpointMark record covering fleet event
     *  @p event into this incarnation's journal (no-op when
     *  journaling is off or the node is down). */
    void journalCheckpointMark(std::uint64_t event);

  private:
    struct Pending
    {
        engine::ServerRequest req;
        std::int64_t local = -1;
    };

    /** The executor cycle's arrival source: the dispatched legs not
     *  yet queued, trace index = node-local index. */
    struct PendingArrivals
    {
        std::deque<Pending> &q;
        Seconds nextArrival() const;
        engine::TrackedRequest pop();
    };

    /** The one codec of serialize()/restore() (node.cc); @p Self is
     *  FleetNode or const FleetNode. */
    template <class Io, class Self> static void codec(Io &io, Self &n);

    /** Start a fresh executor incarnation wired to this node's
     *  gray-failure schedule. */
    void startExecutor();
    void openJournal();
    std::string journalPath() const;
    std::uint64_t journalFingerprint() const;

    int id_;
    NodeSpec spec_;
    engine::ServerConfig cfg_;
    engine::FaultPlan faults_;
    std::string journalDir_;
    std::unique_ptr<engine::InferenceEngine> engine_;
    std::unique_ptr<engine::Scheduler> scheduler_;
    std::vector<engine::ServedRequest> served_;
    engine::ServingState st_;
    std::unique_ptr<engine::BatchExecutor> exec_;
    engine::Journal journal_;

    std::deque<Pending> pending_;
    std::vector<engine::SlowdownWindow> slowdowns_;
    std::int64_t submitted_ = 0;
    bool up_ = true;
    std::uint64_t incarnation_ = 0;

    /** Outcome tallies of records released by releaseDrained. */
    OutcomeCounts releasedCounts_;
    /** local -> gid of every leg whose record is not yet drained. */
    std::unordered_map<std::int64_t, std::int64_t> gidOfLocal_;

    // Accumulator totals of dead incarnations (crash() snapshots).
    NodeTotals life_;
};

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_NODE_HH
