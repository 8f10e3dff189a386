#include "workloads.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>

#include "accuracy/trace_gen.hh"
#include "common/binio.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/edge_reasoning.hh"
#include "engine/checkpoint.hh"
#include "engine/executor.hh"
#include "engine/journal.hh"
#include "engine/server.hh"
#include "fleet/fleet.hh"

namespace e2e {

using namespace edgereason;

namespace {

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

// --- Workload shapes -------------------------------------------------
//
// node_sessions: one DeepScaleR-1.5B node, multi-turn sessions sharing
// a 512-token system prompt, offered near the node's capacity so every
// request is admitted or timed out on its deadline rather than piling
// up.  The scheduler commits 30% of the KV budget, so retired prompts
// fill the pool after about 100 sessions and the prefix index evicts
// in steady state over the second half of the run (about 7 k to 10 k
// evictions per repetition).  With the full budget the pool fills only
// near 510 sessions, and there the eviction count swings by a quarter
// from seed to seed.  200 sessions keep a repetition near one second
// of CPU time, so a 25 s run with T = 4 repetitions at once pools
// about eighty.
constexpr std::size_t kSessions = 200;
constexpr double kKvWatermark = 0.3;
constexpr double kSessionQps = 0.05;
constexpr Seconds kSessionDeadline = 120.0;
/** Scheduler cycles between checkpoints. */
constexpr std::uint64_t kCheckpointEvery = 512;

// fleet_*: the ROADMAP's heavy-token fleet shape.
constexpr std::size_t kFleetNodes = 64;
constexpr double kFleetQps = 16.0;
constexpr double kFleetMeanIn = 512.0;
constexpr double kFleetMeanOut = 1024.0;
constexpr Seconds kFleetRequestDeadline = 300.0;
// Sized for a repetition of about 0.7 s (rr) and 2.7 s (deadline) of
// CPU time, so a 25 s run with T = 4 repetitions at once pools about
// 120 and 35.
constexpr std::size_t kFleetRrRequests = 10000;
constexpr std::size_t kFleetDeadlineRequests = 1500;

constexpr int kMaxBatch = 30;

std::int64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** @return CPU nanoseconds of the calling thread, which runs setup. */
std::int64_t
threadCpuNs()
{
    return cpuNs(CLOCK_THREAD_CPUTIME_ID);
}

/**
 * @return CPU nanoseconds of the whole process, the clock of every
 * timed phase.  Idle pool workers block rather than spin, so a
 * T-thread phase is charged for the work its threads do.  Time the
 * hypervisor gives to other guests is not counted: on a shared VM it
 * took 3% to 12% of a T-thread sweep's wall time from one repetition
 * to the next.
 */
std::int64_t
processCpuNs()
{
    return cpuNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Stream name for repetition @p rep of @p workload. */
std::string
repStream(const char *workload, std::uint64_t rep)
{
    return std::string("e2e/") + workload + "/rep" + std::to_string(rep);
}

/** %.17g rendering of a report, hashed for the digest check. */
class Render
{
  public:
    Render &num(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return field(key, buf);
    }
    Render &field(const char *key, const std::string &v)
    {
        text_ += key;
        text_ += '=';
        text_ += v;
        text_ += ';';
        return *this;
    }
    std::uint64_t hash() const { return fnv1a(text_); }

  private:
    std::string text_;
};

template <typename T>
double
d(T v)
{
    return static_cast<double>(v);
}

std::uint64_t
digest(const core::StrategyReport &r)
{
    Render w;
    w.field("strategy", r.strat.label())
        .num("dataset", d(static_cast<int>(r.dataset)))
        .num("accuracyPct", r.accuracyPct)
        .num("avgTokens", r.avgTokens)
        .num("avgSumTokens", r.avgSumTokens)
        .num("avgLatency", r.avgLatency)
        .num("avgEnergy", r.avgEnergy)
        .num("energyPerMTok", r.cost.energyPerMTok)
        .num("hardwarePerMTok", r.cost.hardwarePerMTok)
        .num("questions", d(r.questions));
    return w.hash();
}

std::uint64_t
digest(const engine::ServingReport &r)
{
    Render w;
    w.num("completed", d(r.completed))
        .num("makespan", r.makespan)
        .num("throughputQps", r.throughputQps)
        .num("avgBatch", r.avgBatch)
        .num("meanLatency", r.meanLatency)
        .num("p50Latency", r.p50Latency)
        .num("p95Latency", r.p95Latency)
        .num("p99Latency", r.p99Latency)
        .num("totalEnergy", r.totalEnergy)
        .num("energyPerQuery", r.energyPerQuery)
        .num("generatedTokens", r.generatedTokens)
        .num("utilization", r.utilization)
        .num("schedulerPolicy", d(static_cast<int>(r.schedulerPolicy)))
        .num("meanQueueDelay", r.meanQueueDelay)
        .num("p95QueueDelay", r.p95QueueDelay)
        .num("p99QueueDelay", r.p99QueueDelay)
        .num("peakQueueDepth", d(r.peakQueueDepth))
        .num("timedOut", d(r.timedOut))
        .num("shed", d(r.shed))
        .num("cancelled", d(r.cancelled))
        .num("retriedCompleted", d(r.retriedCompleted))
        .num("degradedCompleted", d(r.degradedCompleted))
        .num("preemptions", d(r.preemptions))
        .num("goodputQps", r.goodputQps)
        .num("deadlineHitRate", r.deadlineHitRate)
        .num("throttleResidency", r.throttleResidency)
        .num("cachedPrefixTokens", r.cachedPrefixTokens)
        .num("prefixHitRate", r.prefixHitRate)
        .num("prefillSecondsSaved", r.prefillSecondsSaved)
        .num("prefixEvictions", d(r.prefixEvictions));
    return w.hash();
}

std::uint64_t
digest(const fleet::FleetReport &r)
{
    Render w;
    w.num("router", d(static_cast<int>(r.router)))
        .num("arrivals", d(r.arrivals))
        .num("served", d(r.served))
        .num("timedOut", d(r.timedOut))
        .num("shed", d(r.shed))
        .num("offloaded", d(r.offloaded))
        .num("retries", d(r.retries))
        .num("failovers", d(r.failovers))
        .num("hedgesLaunched", d(r.hedgesLaunched))
        .num("hedgeWins", d(r.hedgeWins))
        .num("hedgeWaste", d(r.hedgeWaste))
        .num("cancelledLegs", d(r.cancelledLegs))
        .num("adaptiveHealth", d(r.adaptiveHealth))
        .num("adaptiveEjections", d(r.adaptiveEjections))
        .num("makespan", r.makespan)
        .num("throughput", r.throughput)
        .num("goodput", r.goodput)
        .num("deadlineHitRate", r.deadlineHitRate)
        .num("meanLatency", r.meanLatency)
        .num("p50Latency", r.p50Latency)
        .num("p99Latency", r.p99Latency)
        .num("p999Latency", r.p999Latency)
        .num("totalEnergy", r.totalEnergy)
        .num("energyPerQuery", r.energyPerQuery)
        .num("generatedTokens", r.generatedTokens)
        .num("edgeDollars", r.edgeDollars)
        .num("cloudDollars", r.cloudDollars)
        .num("dollarsPerQuery", r.dollarsPerQuery)
        .num("events", d(r.events))
        .num("approxLatency", d(r.approxLatency));
    for (const auto &n : r.nodes) {
        w.num("node", d(n.id))
            .num("served", d(n.served))
            .num("timedOut", d(n.timedOut))
            .num("cancelled", d(n.cancelled))
            .num("crashes", d(n.crashes))
            .num("energy", n.energy)
            .num("busy", n.busy)
            .num("generatedTokens", n.generatedTokens)
            .num("up", d(n.up));
    }
    return w.hash();
}

void
fail(RepResult &r, const std::string &why)
{
    if (r.ok)
        r.error = why;
    r.ok = false;
}

core::EdgeReasoningOptions
libraryOptions(std::uint64_t seed)
{
    core::EdgeReasoningOptions o;
    o.registry.seed = seed;
    o.eval.seed = seed;
    return o;
}

// --- sweep -----------------------------------------------------------

void
runSweep(const RunContext &ctx, std::uint64_t, Mode mode, Tracer *t,
         RepResult &res)
{
    const auto dataset = acc::Dataset::MmluRedux;

    const std::int64_t s0 = threadCpuNs();
    core::EdgeReasoning er(libraryOptions(ctx.seed));
    const auto grid = er.planner().candidateStrategies(core::PlanRequest{});
    res.setupS = seconds(threadCpuNs() - s0);
    res.items = grid.size() * acc::datasetInfo(dataset).questionCount;

    std::vector<core::StrategyReport> reports, frontier;
    const std::int64_t t0 = processCpuNs();
    if (mode == Mode::Library) {
        reports = core::sweepStrategies(er.evaluator(), grid, dataset);
        frontier = core::paretoFrontier(reports, core::FrontierAxis::Latency);
    } else {
        ScopedSpan root(t, "bench.sweep");
        {
            ScopedSpan pool(t, "common.thread_pool", root.id());
            const std::uint64_t pool_id = pool.id();
            reports = ThreadPool::global().parallelMap(
                grid, [&](const strategy::InferenceStrategy &s) {
                    ScopedSpan e(t, "core.evaluator", pool_id);
                    return er.evaluator().evaluate(s, dataset);
                });
        }
        ScopedSpan p(t, "core.pareto", root.id());
        frontier = core::paretoFrontier(reports, core::FrontierAxis::Latency);
    }
    res.phaseS = seconds(processCpuNs() - t0);

    std::uint64_t evaluated = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto &r = reports[i];
        evaluated += r.questions;
        res.digests.emplace_back("report/" + std::to_string(i), digest(r));
        if (r.questions == 0 || !std::isfinite(r.accuracyPct) ||
            !std::isfinite(r.avgLatency) || !std::isfinite(r.avgEnergy))
            fail(res, "strategy " + r.strat.label() + " has an empty or "
                      "non-finite report");
    }
    Render fr;
    for (const auto &r : frontier)
        fr.field("member", std::to_string(digest(r)));
    res.digests.emplace_back("frontier", fr.hash());
    if (evaluated != res.items || frontier.empty())
        fail(res, "sweep evaluated " + std::to_string(evaluated) + " of " +
                      std::to_string(res.items) +
                      " strategy x question pairs, frontier of " +
                      std::to_string(frontier.size()));
    res.outcomes = std::to_string(grid.size()) + " strategies, " +
        std::to_string(res.items) + " evaluations, frontier of " +
        std::to_string(frontier.size());

    if (mode == Mode::Traced) {
        const auto ls = t->layerStats();
        const auto &ev = ls.at("core.evaluator");
        auto &m = res.layers;
        m["core.evaluator.self_s"] = ev.selfS;
        m["core.evaluator.calls"] = d(ev.calls);
        m["core.evaluator.call_ms.p50"] = 1e3 * percentileSorted(ev.durS, 50);
        m["core.evaluator.call_ms.tail"] =
            1e3 * percentileSorted(ev.durS, tailPercentile(ev.calls));
        m["common.thread_pool.busy_frac"] = ev.totalS /
            (ctx.threads * ls.at("common.thread_pool").totalS);
        m["core.pareto.self_s"] = ls.at("core.pareto").selfS;
        // Memo counters are cumulative since each engine was built.
        std::set<std::pair<model::ModelId, bool>> used;
        for (const auto &s : grid)
            used.emplace(s.model, s.quantized);
        double hits = 0, misses = 0;
        for (const auto &[id, q] : used) {
            const auto st = er.registry().engineFor(id, q).kernelCacheStats();
            hits += d(st.hits);
            misses += d(st.misses);
        }
        m["engine.engine.memo_hits"] = hits;
        m["engine.engine.memo_misses"] = misses;
        m["engine.engine.memo_hit_frac"] =
            hits + misses > 0 ? hits / (hits + misses) : 0.0;
    }
}

// --- node_sessions ---------------------------------------------------

engine::ServerConfig
nodeConfig()
{
    engine::ServerConfig cfg;
    cfg.maxBatch = kMaxBatch;
    cfg.kvWatermark = kKvWatermark;
    cfg.prefixCache.enabled = true;
    cfg.prefixCache.evict = engine::PrefixEvictPolicy::Lru;
    return cfg;
}

std::vector<engine::ServerRequest>
sessionTrace(std::uint64_t seed, std::uint64_t rep)
{
    acc::SessionTraceConfig sc;
    sc.sessions = kSessions;
    sc.turnsPerSession = 4;
    sc.sessionQps = kSessionQps;
    sc.meanTurnGap = 20.0;
    sc.systemPromptTokens = 512;
    sc.meanUserTokens = 120.0;
    sc.meanThinkTokens = 768.0;
    sc.meanAnswerTokens = 256.0;
    Rng rng(seed, repStream("node_sessions", rep));
    auto trace = acc::generateSessionTrace(sc, rng);
    for (auto &r : trace)
        r.deadline = kSessionDeadline;
    return trace;
}

struct PumpCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t admits = 0;
    std::uint64_t ckptWrites = 0;
    std::uint64_t ckptBytes = 0;
    engine::ExecAccumulators acc;
};

/**
 * ServingSimulator::run's durable arrival pump (fresh run: no resume,
 * crash injection or auditor), rebuilt from BatchExecutor's public
 * cycle calls with a span around each.  Its report must equal the
 * library run's bit for bit.
 */
engine::ServingReport
tracedPump(engine::InferenceEngine &eng, const engine::ServerConfig &cfg,
           const std::vector<engine::ServerRequest> &trace,
           const std::string &dir, Tracer *t, PumpCounters &c)
{
    using namespace engine;
    ScopedSpan root(t, "bench.node_pump");
    const std::uint64_t rid = root.id();

    ServingState st;
    for (const auto &r : trace)
        st.haveDeadlines = st.haveDeadlines || r.deadline > 0.0;
    std::vector<ServedRequest> served;
    served.reserve(trace.size());
    const FaultPlan faults;
    BatchExecutor exec(eng, nullptr, cfg, faults, served);
    const auto sched = makeScheduler(cfg.scheduler);
    const std::uint64_t fingerprint =
        runFingerprint(eng, cfg, trace, faults);
    std::filesystem::create_directories(dir);
    Journal journal = Journal::createFresh(
        (std::filesystem::path(dir) / "journal.bin").string(), fingerprint);
    journal.emitRunBegin(trace.size(), sched->policy(),
                         trace.front().arrival);
    exec.setJournal(&journal);

    std::size_t next = 0;
    const auto pull = [&]() {
        while (next < trace.size() &&
               trace[next].arrival <= exec.clock() + kTimeSlack) {
            TrackedRequest r;
            r.req = trace[next];
            r.traceIndex = static_cast<std::int64_t>(next);
            st.enqueueNew(r);
            journal.emitArrival(r, st.queue.size());
            ++next;
        }
    };
    const auto nextArrival = [&]() {
        return next < trace.size() ? trace[next].arrival : kInf;
    };

    std::uint64_t step = 0;
    while (!st.queue.empty() || st.hasInFlight() || next < trace.size()) {
        if (step == 0 || step % kCheckpointEvery == 0) {
            ScopedSpan s(t, "engine.checkpoint.write", rid);
            ByteWriter w;
            w.u64(step);
            sched->serialize(w);
            st.serialize(w);
            w.u64(served.size());
            for (const auto &x : served)
                engine::serialize(w, x);
            w.u64(next);
            exec.serialize(w);
            w.u8(0); // no RngBank
            writeCheckpointFile(checkpointPath(dir, step), fingerprint, w);
            journal.emitCheckpointMark(step);
            ++c.ckptWrites;
            c.ckptBytes += w.size();
        }
        ++step;
        ++c.cycles;
        {
            ScopedSpan s(t, "engine.executor.events", rid);
            pull();
            exec.pumpEvents(st);
            if (st.queue.empty() && !st.hasInFlight() && next < trace.size()) {
                exec.idleTo(trace[next].arrival);
                pull();
                exec.pumpEvents(st);
            }
            if (st.haveDeadlines)
                exec.shedExpiredQueued(st);
        }
        {
            ScopedSpan s(t, "engine.executor.admit", rid);
            exec.beginCycle();
            const int before = st.inFlight();
            exec.admit(st, *sched);
            if (st.inFlight() > before)
                c.admits += static_cast<std::uint64_t>(st.inFlight() - before);
        }
        if (!st.hasInFlight()) {
            if (st.queue.empty())
                continue;
            ScopedSpan s(t, "engine.executor.events", rid);
            exec.sleepUntilWake(st, nextArrival());
            continue;
        }
        {
            ScopedSpan s(t, "engine.executor.prefill", rid);
            exec.prefillStep(st);
            if (st.haveDeadlines)
                exec.abortExpiredPrefills(st);
        }
        if (st.active.empty())
            continue;
        ScopedSpan s(t, "engine.executor.decode", rid);
        exec.decodeSteps(st, nextArrival(), cfg.macroHorizonCap);
    }
    journal.emitRunEnd(exec.accumulators(), st.peakQueueDepth);
    c.acc = exec.accumulators();
    return exec.report(trace.front().arrival, sched->policy(), st);
}

std::uint64_t
fileBytes(const std::filesystem::path &p)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(p, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

void
runNodeSessions(const RunContext &ctx, std::uint64_t rep, Mode mode,
                Tracer *t, RepResult &res)
{
    const std::string dir = ctx.scratchDir + "/node_sessions-rep" +
        std::to_string(rep) + (mode == Mode::Library ? "-lib" : "-traced");
    std::filesystem::remove_all(dir);

    const std::int64_t s0 = threadCpuNs();
    core::EdgeReasoning er(libraryOptions(ctx.seed));
    engine::InferenceEngine &eng =
        er.registry().engineFor(model::ModelId::DeepScaleR1_5B, false);
    const auto trace = sessionTrace(ctx.seed, rep);
    res.setupS = seconds(threadCpuNs() - s0);
    const auto cfg = nodeConfig();
    res.items = trace.size();

    engine::ServingReport report;
    PumpCounters c;
    const std::int64_t t0 = processCpuNs();
    if (mode == Mode::Library) {
        engine::DurabilityOptions dur;
        dur.checkpointDir = dir;
        dur.checkpointEvery = kCheckpointEvery;
        engine::ServingSimulator srv(eng, cfg);
        report = srv.run(trace, engine::FaultPlan(), dur);
    } else {
        report = tracedPump(eng, cfg, trace, dir, t, c);
    }
    res.phaseS = seconds(processCpuNs() - t0);

    res.digests.emplace_back("serving", digest(report));
    const std::size_t ended =
        report.completed + report.timedOut + report.shed + report.cancelled;
    if (ended != trace.size())
        fail(res, "node conservation: " + std::to_string(ended) +
                      " ended of " + std::to_string(trace.size()) +
                      " requests");
    if (report.prefixEvictions == 0)
        fail(res, "node_sessions did not evict from the prefix index");
    res.outcomes = std::to_string(report.completed) + " completed, " +
        std::to_string(report.timedOut) + " timed out, " +
        std::to_string(report.shed) + " shed, " +
        std::to_string(report.cancelled) + " cancelled of " +
        std::to_string(trace.size()) + "; " +
        std::to_string(report.prefixEvictions) + " evictions";

    if (mode == Mode::Traced) {
        const auto ls = t->layerStats();
        const auto total = [&](const char *n) {
            const auto it = ls.find(n);
            return it == ls.end() ? 0.0 : it->second.totalS;
        };
        auto &m = res.layers;
        m["engine.executor.admit_s"] = total("engine.executor.admit");
        m["engine.executor.prefill_s"] = total("engine.executor.prefill");
        m["engine.executor.decode_s"] = total("engine.executor.decode");
        m["engine.executor.events_s"] = total("engine.executor.events");
        m["engine.executor.cycles"] = d(c.cycles);
        m["engine.executor.steps_per_segment"] = c.acc.macroSegments
            ? d(c.acc.decodeSteps) / d(c.acc.macroSegments) : 0.0;
        m["engine.kv_cache.prefix_hit_frac"] = report.prefixHitRate;
        m["engine.kv_cache.evictions"] = d(report.prefixEvictions);
        m["engine.kv_cache.evictions_per_admit"] =
            c.admits ? d(report.prefixEvictions) / d(c.admits) : 0.0;
        m["engine.kv_cache.preemptions"] = d(report.preemptions);
        m["engine.checkpoint.write_s"] = total("engine.checkpoint.write");
        m["engine.checkpoint.writes"] = d(c.ckptWrites);
        m["engine.checkpoint.bytes"] = d(c.ckptBytes);
        m["engine.journal.bytes"] =
            d(fileBytes(std::filesystem::path(dir) / "journal.bin"));
        // Memo counters are cumulative since the engine was built.
        const auto st = eng.kernelCacheStats();
        m["engine.engine.memo_hits"] = d(st.hits);
        m["engine.engine.memo_misses"] = d(st.misses);
        m["engine.engine.memo_hit_frac"] = st.hits + st.misses
            ? d(st.hits) / d(st.hits + st.misses) : 0.0;
    }
    std::filesystem::remove_all(dir);
}

// --- fleet_rr / fleet_deadline ---------------------------------------

struct FleetShape
{
    const char *name;
    fleet::RouterPolicy router;
    std::size_t requests;
    bool resilience; //!< crash and slowdown windows, retries, hedging
};

const FleetShape kFleetRr{"fleet_rr", fleet::RouterPolicy::RoundRobin,
                          kFleetRrRequests, false};
const FleetShape kFleetDeadline{"fleet_deadline",
                                fleet::RouterPolicy::DeadlineAware,
                                kFleetDeadlineRequests, true};

fleet::FleetConfig
fleetConfig(const FleetShape &shape, std::uint64_t seed, std::uint64_t rep,
            Seconds last_arrival)
{
    fleet::FleetConfig fc;
    fc.nodes.assign(kFleetNodes,
                    fleet::NodeSpec{model::ModelId::DeepScaleR1_5B, false,
                                    hw::PowerMode::MaxN});
    fc.server.maxBatch = kMaxBatch;
    fc.router = shape.router;
    fc.nodeFaults.seed = Rng::hashString(
        repStream(shape.name, rep) + "/faults/" + std::to_string(seed));
    fc.nodeFaults.horizon = last_arrival + 3600.0;
    if (shape.resilience) {
        fc.nodeFaults.crashesPerHour = 2.0;
        fc.nodeFaults.slowdownsPerHour = 2.0;
        fc.maxRetries = 3;
        fc.hedgeFraction = 0.5;
    } else {
        fc.maxRetries = 0;
    }
    return fc;
}

std::vector<engine::ServerRequest>
fleetTrace(const FleetShape &shape, std::uint64_t seed, std::uint64_t rep)
{
    Rng rng(seed, repStream(shape.name, rep));
    auto trace = engine::ServingSimulator::poissonTrace(
        rng, shape.requests, kFleetQps, kFleetMeanIn, kFleetMeanOut);
    for (auto &r : trace)
        r.deadline = kFleetRequestDeadline;
    return trace;
}

/**
 * The benchmark's traced fleet replay.  Per arrival: fan
 * advanceUntil(arrival) out over the busy nodes on the pool, build
 * the NodeViews, route, submit.  No faults, retries or hedges.
 */
void
fleetReplay(const RunContext &ctx, const FleetShape &shape,
            std::uint64_t rep, Tracer *t, RepResult &res)
{
    const std::int64_t s0 = threadCpuNs();
    const auto trace = fleetTrace(shape, ctx.seed, rep);
    const auto fc = fleetConfig(shape, ctx.seed, rep, trace.back().arrival);
    std::vector<std::unique_ptr<fleet::FleetNode>> nodes;
    for (std::size_t i = 0; i < fc.nodes.size(); ++i)
        nodes.push_back(std::make_unique<fleet::FleetNode>(
            static_cast<int>(i), fc.nodes[i], fc.server, engine::FaultPlan()));
    const auto router = fleet::makeRouter(fc.router);
    res.setupS = seconds(threadCpuNs() - s0);
    res.items = trace.size();

    std::vector<fleet::NodeView> views(nodes.size());
    std::vector<fleet::FleetNode *> busy;
    busy.reserve(nodes.size());
    std::uint64_t advances = 0, candidates = 0, gen = 0;
    std::size_t rejected = 0;
    // Candidates the router evaluates per call: round-robin takes one
    // by binary search over the candidate list, and the other policies
    // score every candidate.  In the replay the candidates are the up
    // nodes, since it drains and excludes none.
    const bool scansAll = shape.router != fleet::RouterPolicy::RoundRobin;

    const std::int64_t t0 = processCpuNs();
    {
        ScopedSpan root(t, "bench.fleet_replay");
        const std::uint64_t rid = root.id();
        const auto sync = [&](Seconds target) {
            busy.clear();
            for (auto &n : nodes)
                if (n->busy())
                    busy.push_back(n.get());
            if (busy.empty())
                return;
            ScopedSpan s(t, "fleet.sync", rid);
            const std::uint64_t sid = s.id();
            ThreadPool::global().parallelFor(
                busy.size(),
                [&](std::size_t i) {
                    ScopedSpan a(t, "fleet.node.advance", sid);
                    busy[i]->advanceUntil(target, false);
                },
                1);
            advances += busy.size();
        };
        for (std::size_t g = 0; g < trace.size(); ++g) {
            const auto &req = trace[g];
            sync(req.arrival);
            std::uint64_t up = 0;
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                views[i].node = nodes[i].get();
                views[i].up = nodes[i]->up();
                views[i].draining = false;
                up += views[i].up ? 1 : 0;
            }
            candidates += scansAll ? up : std::min<std::uint64_t>(up, 1);
            ++gen;
            fleet::RouteDecision dec;
            {
                ScopedSpan s(t, "fleet.router.route", rid);
                dec = router->route(
                    req, req.arrival,
                    req.deadline > 0.0 ? req.arrival + req.deadline : kInf,
                    views, gen, fc.cloud, -1);
            }
            if (dec.node >= 0) {
                ScopedSpan s(t, "fleet.node.submit", rid);
                nodes[static_cast<std::size_t>(dec.node)]->submit(
                    req, static_cast<std::int64_t>(g));
            } else {
                ++rejected;
            }
        }
        sync(kInf);
    }
    res.phaseS = seconds(processCpuNs() - t0);

    std::size_t served = 0, timedOut = 0, cancelled = 0;
    for (const auto &n : nodes) {
        const auto oc = n->outcomeCounts();
        served += oc.served;
        timedOut += oc.timedOut;
        cancelled += oc.cancelled;
    }
    if (served + timedOut + cancelled + rejected != trace.size())
        fail(res, "fleet replay conservation: " +
                      std::to_string(served + timedOut + cancelled + rejected) +
                      " ended of " + std::to_string(trace.size()));
    res.outcomes = "replay: " + std::to_string(served) + " served, " +
        std::to_string(timedOut) + " timed out, " + std::to_string(rejected) +
        " shed of " + std::to_string(trace.size());

    if (t->enabled()) {
        const auto ls = t->layerStats();
        const auto get = [&](const char *n) {
            const auto it = ls.find(n);
            return it == ls.end() ? LayerStats{} : it->second;
        };
        const auto route = get("fleet.router.route");
        const auto adv = get("fleet.node.advance");
        const auto sync = get("fleet.sync");
        auto &m = res.layers;
        m["fleet.router.route_s"] = route.selfS;
        m["fleet.router.calls"] = d(route.calls);
        m["fleet.router.call_us.p50"] = 1e6 * percentileSorted(route.durS, 50);
        m["fleet.router.call_us.tail"] =
            1e6 * percentileSorted(route.durS, tailPercentile(route.calls));
        m["fleet.router.candidates_per_call"] =
            route.calls ? d(candidates) / d(route.calls) : 0.0;
        m["fleet.node.advance_s"] = adv.totalS;
        m["fleet.node.advance_calls"] = d(advances);
        m["fleet.node.advances_per_arrival"] = d(advances) / d(trace.size());
        m["fleet.node.submit_s"] = get("fleet.node.submit").totalS;
        m["fleet.sync.wall_s"] = sync.totalS;
        m["fleet.sync.busy_frac"] =
            sync.totalS > 0 ? adv.totalS / (ctx.threads * sync.totalS) : 0.0;
    }
}

void
runFleet(const FleetShape &shape, const RunContext &ctx, std::uint64_t rep,
         Mode mode, Tracer *t, RepResult &res)
{
    if (mode != Mode::Library)
        return fleetReplay(ctx, shape, rep, t, res);

    const std::int64_t s0 = threadCpuNs();
    const auto trace = fleetTrace(shape, ctx.seed, rep);
    fleet::FleetSimulator sim(
        fleetConfig(shape, ctx.seed, rep, trace.back().arrival));
    res.setupS = seconds(threadCpuNs() - s0);
    res.items = trace.size();

    const std::int64_t t0 = processCpuNs();
    const fleet::FleetReport r = sim.run(trace);
    res.phaseS = seconds(processCpuNs() - t0);

    res.digests.emplace_back("fleet", digest(r));
    const std::size_t ended = r.served + r.timedOut + r.shed + r.offloaded;
    if (ended != r.arrivals || r.arrivals != trace.size() ||
        r.nodes.size() != kFleetNodes)
        fail(res, "fleet conservation: " + std::to_string(ended) +
                      " ended of " + std::to_string(r.arrivals) +
                      " arrivals (" + std::to_string(trace.size()) +
                      " requests, " + std::to_string(r.nodes.size()) +
                      " node rows)");
    res.outcomes = std::to_string(r.served) + " served, " +
        std::to_string(r.timedOut) + " timed out, " +
        std::to_string(r.shed) + " shed, " + std::to_string(r.offloaded) +
        " offloaded of " + std::to_string(r.arrivals) + "; " +
        std::to_string(r.retries) + " retries, " +
        std::to_string(r.failovers) + " failovers, " +
        std::to_string(r.hedgesLaunched) + " hedges";
    if (r.events > 0)
        res.layers["fleet.fleet.us_per_event"] = 1e6 * res.phaseS / d(r.events);
}

void
runFleetRr(const RunContext &ctx, std::uint64_t rep, Mode mode, Tracer *t,
           RepResult &res)
{
    runFleet(kFleetRr, ctx, rep, mode, t, res);
}

void
runFleetDeadline(const RunContext &ctx, std::uint64_t rep, Mode mode,
                 Tracer *t, RepResult &res)
{
    runFleet(kFleetDeadline, ctx, rep, mode, t, res);
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"sweep", runSweep, true, false, true, true},
        // ServingSimulator::run does not use the pool, so node_sessions
        // runs on one pool thread.
        {"node_sessions", runNodeSessions, true, true, false, false},
        // The fleets' end-to-end runs use one pool thread: node sync
        // forks and joins the pool on every event, and on a shared VM
        // that swung a T-thread fleet_rr repetition between 1.7 k and
        // 7.2 k items/s.  The traced fleet_rr replay keeps T threads,
        // so fleet.sync.* still shows what the fan-out costs.
        {"fleet_rr", runFleetRr, false, true, false, true},
        {"fleet_deadline", runFleetDeadline, false, true, false, false},
    };
    return table;
}

} // namespace e2e
