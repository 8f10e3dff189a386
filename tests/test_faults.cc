/**
 * @file
 * Tests for fault injection and graceful degradation: zero-fault
 * bit-exactness, plan determinism (across repeats and thread counts),
 * deadline admission control, KV-shrink preemption/recovery, brownout
 * stalls, thermal throttling, and trace-contract validation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.hh"
#include "engine/faults.hh"
#include "engine/server.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::model::ModelId;

namespace {

InferenceEngine
makeEngine(ModelId id = ModelId::DeepScaleR1_5B)
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(er::model::spec(id),
                           er::model::calibration(id), cfg);
}

std::vector<ServerRequest>
uniformTrace(std::size_t n, double interval, er::Tokens in,
             er::Tokens out, er::Seconds deadline = 0.0)
{
    std::vector<ServerRequest> t;
    for (std::size_t i = 0; i < n; ++i)
        t.push_back({interval * static_cast<double>(i), in, out, 0,
                     deadline});
    return t;
}

/** Bitwise equality of two reports (no tolerance: determinism and
 *  zero-fault exactness are exact claims). */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughputQps, b.throughputQps);
    EXPECT_EQ(a.avgBatch, b.avgBatch);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.energyPerQuery, b.energyPerQuery);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.retriedCompleted, b.retriedCompleted);
    EXPECT_EQ(a.degradedCompleted, b.degradedCompleted);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.goodputQps, b.goodputQps);
    EXPECT_EQ(a.deadlineHitRate, b.deadlineHitRate);
    EXPECT_EQ(a.throttleResidency, b.throttleResidency);
}

void
expectServedIdentical(const std::vector<ServedRequest> &a,
                      const std::vector<ServedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_EQ(a[i].queueDelay, b[i].queueDelay);
        EXPECT_EQ(a[i].serviceTime, b[i].serviceTime);
        EXPECT_EQ(a[i].finish, b[i].finish);
        EXPECT_EQ(a[i].generated, b[i].generated);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].degraded, b[i].degraded);
    }
}

/** Every record must be finite and self-consistent whatever its
 *  outcome (satellite: no NaNs for shed / timed-out requests). */
void
expectRecordsWellDefined(const std::vector<ServedRequest> &served)
{
    for (const auto &s : served) {
        EXPECT_TRUE(std::isfinite(s.queueDelay));
        EXPECT_TRUE(std::isfinite(s.serviceTime));
        EXPECT_TRUE(std::isfinite(s.finish));
        EXPECT_TRUE(std::isfinite(s.latency()));
        EXPECT_GE(s.queueDelay, -1e-9);
        EXPECT_GE(s.serviceTime, 0.0);
        EXPECT_GE(s.generated, 0);
        EXPECT_GE(s.preemptions, 0);
        EXPECT_NEAR(s.latency(), s.finish - s.request.arrival, 1e-6);
        if (s.outcome == RequestOutcome::Shed) {
            EXPECT_EQ(s.serviceTime, 0.0);
            EXPECT_EQ(s.generated, 0);
        }
        if (s.outcome == RequestOutcome::Completed) {
            EXPECT_GT(s.generated, 0);
        }
    }
}

/** A plan with thermal coupling and both event mechanisms enabled. */
FaultPlan
stressPlan(std::uint64_t seed = 0xFA17)
{
    FaultConfig fc;
    fc.seed = seed;
    fc.horizon = 3600.0;
    fc.thermal = true;
    fc.thermalSpec.rThermal = 2.0;
    fc.thermalSpec.cThermal = 50.0;
    fc.thermalSpec.ambientC = 40.0;
    fc.thermalSpec.initialC = 40.0;
    fc.brownoutsPerHour = 30.0;
    fc.kvShrinksPerHour = 6.0;
    return FaultPlan(fc);
}

} // namespace

TEST(Faults, InactivePlanReproducesPlainRunExactly)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    const auto trace = uniformTrace(24, 2.0, 128, 256);

    const auto plain = srv.run(trace);
    const auto plain_served = srv.served();
    const auto zero = srv.run(trace, FaultPlan());
    expectReportsIdentical(plain, zero);
    expectServedIdentical(plain_served, srv.served());

    // A config with every mechanism disabled is inactive too.
    FaultConfig fc;
    const FaultPlan noop(fc);
    EXPECT_FALSE(noop.active());
    const auto noop_rep = srv.run(trace, noop);
    expectReportsIdentical(plain, noop_rep);
}

TEST(Faults, PlanGenerationIsDeterministic)
{
    const auto a = stressPlan();
    const auto b = stressPlan();
    ASSERT_EQ(a.events().size(), b.events().size());
    EXPECT_FALSE(a.events().empty());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].time, b.events()[i].time);
        EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
        EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    }
    // Events are sorted and a different seed reshuffles them.
    for (std::size_t i = 1; i < a.events().size(); ++i)
        EXPECT_LE(a.events()[i - 1].time, a.events()[i].time);
    const auto c = stressPlan(1234);
    bool differs = c.events().size() != a.events().size();
    for (std::size_t i = 0; !differs && i < a.events().size(); ++i)
        differs = c.events()[i].time != a.events()[i].time;
    EXPECT_TRUE(differs);
}

TEST(Faults, MechanismStreamsAreIndependent)
{
    // Enabling KV shrinks must not perturb the brownout schedule:
    // each mechanism draws from its own named RNG stream.
    FaultConfig fc;
    fc.brownoutsPerHour = 20.0;
    const FaultPlan alone(fc);
    fc.kvShrinksPerHour = 10.0;
    const FaultPlan both(fc);

    std::vector<FaultEvent> alone_b, both_b;
    for (const auto &e : alone.events())
        if (e.kind == FaultKind::Brownout)
            alone_b.push_back(e);
    for (const auto &e : both.events())
        if (e.kind == FaultKind::Brownout)
            both_b.push_back(e);
    ASSERT_EQ(alone_b.size(), both_b.size());
    for (std::size_t i = 0; i < alone_b.size(); ++i) {
        EXPECT_EQ(alone_b[i].time, both_b[i].time);
        EXPECT_EQ(alone_b[i].duration, both_b[i].duration);
    }
}

TEST(Faults, PlanValidatesConfig)
{
    FaultConfig fc;
    fc.horizon = 0.0;
    EXPECT_THROW(FaultPlan{fc}, std::runtime_error);
    fc = FaultConfig{};
    fc.brownoutsPerHour = -1.0;
    EXPECT_THROW(FaultPlan{fc}, std::runtime_error);
    fc = FaultConfig{};
    fc.kvShrinkFraction = 1.0;
    fc.kvShrinksPerHour = 1.0;
    EXPECT_THROW(FaultPlan{fc}, std::runtime_error);
    fc = FaultConfig{};
    fc.kvShrinksPerHour = 1.0;
    fc.kvShrinkDuration = 0.0;
    EXPECT_THROW(FaultPlan{fc}, std::runtime_error);
}

TEST(Faults, RunIsDeterministicAcrossRepeatsAndThreadCounts)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.degrade.mode = DegradeMode::Budget;
    ServingSimulator srv(eng, cfg);
    const auto trace = uniformTrace(30, 3.0, 128, 384, 600.0);
    const auto plan = stressPlan();

    er::ThreadPool::setGlobalThreads(1);
    const auto one = srv.run(trace, plan);
    const auto one_served = srv.served();
    er::ThreadPool::setGlobalThreads(4);
    const auto four = srv.run(trace, plan);
    expectReportsIdentical(one, four);
    expectServedIdentical(one_served, srv.served());
    const auto again = srv.run(trace, plan);
    expectReportsIdentical(one, again);
}

TEST(Faults, DeadlinesShedAndTimeOutWithWellDefinedRecords)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    // A burst far beyond what the deadline allows: some complete in
    // time, the rest must be shed up front or aborted mid-flight --
    // never silently dropped.
    auto trace = uniformTrace(40, 0.0, 256, 512, 25.0);
    const auto rep = srv.run(trace);

    EXPECT_EQ(srv.served().size(), trace.size());
    EXPECT_EQ(rep.completed + rep.timedOut + rep.shed, trace.size());
    EXPECT_GT(rep.shed + rep.timedOut, 0u);
    EXPECT_GT(rep.completed, 0u);
    EXPECT_LT(rep.deadlineHitRate, 1.0);
    EXPECT_LE(rep.goodputQps, rep.throughputQps + 1e-12);
    expectRecordsWellDefined(srv.served());
    // Completed-within-deadline requests really did finish in time.
    for (const auto &s : srv.served()) {
        if (s.deadlineMet()) {
            EXPECT_LE(s.finish,
                      s.request.arrival + s.request.deadline + 1e-6);
        }
    }
}

TEST(Faults, NonMonotoneTraceThrows)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    std::vector<ServerRequest> bad = {{10.0, 64, 64}, {5.0, 64, 64}};
    EXPECT_THROW(srv.run(bad), std::runtime_error);
    std::vector<ServerRequest> neg = {{0.0, 64, 64, 0, -1.0}};
    EXPECT_THROW(srv.run(neg), std::runtime_error);
    // Non-positive token counts are rejected at the trace boundary,
    // naming the request, in both stepping modes (macro-stepping used
    // to "complete" a 0-output request after 0 tokens and exact mode
    // after 1).
    for (const bool exact : {true, false}) {
        ServerConfig cfg;
        cfg.exactSteps = exact;
        ServingSimulator s(eng, cfg);
        for (const auto &[in, out] :
             {std::pair<er::Tokens, er::Tokens>{100, 0}, {100, -5},
              {0, 64}}) {
            std::vector<ServerRequest> t = {{0.0, 64, 64},
                                            {1.0, in, out}};
            try {
                s.run(t);
                ADD_FAILURE() << "accepted " << in << "-in/" << out
                              << "-out request";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("request 1 has"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Faults, FallbackModeRequiresFallbackEngine)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.degrade.mode = DegradeMode::Fallback;
    ServingSimulator srv(eng, cfg);
    const auto trace = uniformTrace(4, 1.0, 64, 64);
    // Zero-fault runs never consult the degrade policy...
    EXPECT_NO_THROW(srv.run(trace));
    // ...but an active plan demands the fallback engine up front.
    EXPECT_THROW(srv.run(trace, stressPlan()), std::runtime_error);
}

TEST(Faults, KvShrinkForcesPreemptionAndRecovery)
{
    // The 14B KV pool fits only ~4 concurrent 31.5k-token sequences;
    // halving the pool mid-run must evict victims, which then retry
    // after backoff and complete once the pool is restored.
    auto eng = makeEngine(ModelId::Dsr1Qwen14B);
    ServingSimulator srv(eng);
    FaultConfig fc;
    fc.horizon = 3600.0;
    fc.kvShrinksPerHour = 40.0;
    fc.kvShrinkFraction = 0.5;
    fc.kvShrinkDuration = 150.0;
    const FaultPlan plan(fc);
    ASSERT_FALSE(plan.events().empty());

    const auto trace = uniformTrace(6, 0.0, 512, 31000);
    const auto rep = srv.run(trace, plan);
    EXPECT_EQ(srv.served().size(), trace.size());
    EXPECT_GT(rep.preemptions, 0u);
    EXPECT_EQ(rep.completed + rep.shed + rep.timedOut, trace.size());
    EXPECT_GT(rep.retriedCompleted, 0u);
    expectRecordsWellDefined(srv.served());
}

TEST(Faults, BrownoutsStretchTheRunWithoutLosingWork)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    const auto trace = uniformTrace(16, 0.0, 120, 512);
    const auto base = srv.run(trace);

    FaultConfig fc;
    fc.horizon = 3600.0;
    fc.brownoutsPerHour = 720.0;
    fc.brownoutMeanStall = 3.0;
    const FaultPlan plan(fc);
    ASSERT_FALSE(plan.events().empty());
    const auto rep = srv.run(trace, plan);

    EXPECT_EQ(rep.completed, trace.size());
    EXPECT_GT(rep.makespan, base.makespan);
    EXPECT_GT(rep.totalEnergy, base.totalEnergy);
    // Stall time is idle, not busy: utilization drops.
    EXPECT_LT(rep.utilization, base.utilization);
}

TEST(Faults, ThermalThrottlingDeratesSustainedLoad)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    const auto trace = uniformTrace(48, 0.0, 120, 512);
    const auto base = srv.run(trace);

    // Passively cooled enclosure with a tiny thermal mass: sustained
    // decode power crosses the throttle point within the run.
    FaultConfig fc;
    fc.thermal = true;
    fc.thermalSpec.rThermal = 2.5;
    fc.thermalSpec.cThermal = 10.0;
    fc.thermalSpec.ambientC = 45.0;
    fc.thermalSpec.initialC = 45.0;
    const FaultPlan plan(fc);
    EXPECT_TRUE(plan.active());
    EXPECT_TRUE(plan.events().empty());
    const auto rep = srv.run(trace, plan);

    EXPECT_EQ(rep.completed, trace.size());
    EXPECT_GT(rep.throttleResidency, 0.0);
    EXPECT_LE(rep.throttleResidency, 1.0);
    EXPECT_GT(rep.makespan, base.makespan);
    // Derated steps draw less power than MAXN steps.
    EXPECT_LT(rep.totalEnergy, base.totalEnergy * 1.5);
}

TEST(Faults, BudgetDegradeShrinksAdmissionsUnderThrottle)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.degrade.mode = DegradeMode::Budget;
    cfg.degrade.budget = er::strategy::TokenPolicy::hard(128);
    ServingSimulator srv(eng, cfg);
    // Steady stream long enough that later admissions land while the
    // governor is throttled.
    const auto trace = uniformTrace(64, 4.0, 120, 512);

    FaultConfig fc;
    fc.thermal = true;
    fc.thermalSpec.rThermal = 2.5;
    fc.thermalSpec.cThermal = 40.0;
    fc.thermalSpec.ambientC = 45.0;
    fc.thermalSpec.initialC = 45.0;
    const auto rep = srv.run(trace, FaultPlan(fc));

    EXPECT_GT(rep.throttleResidency, 0.0);
    EXPECT_GT(rep.degradedCompleted, 0u);
    // Degraded completions kept at most the clamped budget.
    bool saw_clamped = false;
    for (const auto &s : srv.served()) {
        if (s.degraded && s.outcome == RequestOutcome::Completed) {
            EXPECT_LE(s.generated, 128);
            saw_clamped = true;
        }
    }
    EXPECT_TRUE(saw_clamped);
    // Shrunk budgets generate fewer tokens than the ideal run.
    ServingSimulator plain(eng);
    const auto base = plain.run(trace);
    EXPECT_LT(rep.generatedTokens, base.generatedTokens);
}

TEST(Faults, FallbackDegradeServesFromSmallerModel)
{
    auto eng = makeEngine(ModelId::Dsr1Llama8B);
    auto small = makeEngine(ModelId::DeepScaleR1_5B);
    ServerConfig cfg;
    cfg.degrade.mode = DegradeMode::Fallback;
    ServingSimulator srv(eng, cfg);
    srv.setFallbackEngine(small);
    const auto trace = uniformTrace(32, 8.0, 120, 384);

    FaultConfig fc;
    fc.thermal = true;
    fc.thermalSpec.rThermal = 2.5;
    fc.thermalSpec.cThermal = 40.0;
    fc.thermalSpec.ambientC = 45.0;
    fc.thermalSpec.initialC = 45.0;
    const auto rep = srv.run(trace, FaultPlan(fc));
    EXPECT_GT(rep.throttleResidency, 0.0);
    EXPECT_EQ(rep.completed + rep.shed + rep.timedOut, trace.size());

    // Riding the throttle out on the big model is slower than hot-
    // swapping to the 1.5B while derated.
    ServerConfig none;
    ServingSimulator ride(eng, none);
    const auto base = ride.run(trace, FaultPlan(fc));
    EXPECT_LT(rep.makespan, base.makespan);
}
