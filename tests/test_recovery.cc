/**
 * @file
 * Crash/recovery tests (DESIGN.md §9).  The central claim under test:
 * a run that crashes at an arbitrary batch-step boundary and resumes
 * from its latest checkpoint + journal tail produces a ServingReport
 * that is bit-identical to the uninterrupted run — every counter and
 * every double (p50/p95/p99, goodput, throttle residency) compared
 * with EXPECT_EQ, never EXPECT_NEAR.  The matrix covers the three
 * golden scenarios (zero-fault, faulted with brownouts + thermal,
 * KV-pressure with preemption backoff) under all three schedulers,
 * with crash points at step 0, mid prefill chunk, during retry
 * backoff, and inside fault windows.  Journal replay must re-derive
 * the same report, and the invariant auditor must pass every healthy
 * run while catching seeded accounting bugs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "accuracy/trace_gen.hh"
#include "common/binio.hh"
#include "common/rng.hh"
#include "engine/auditor.hh"
#include "engine/checkpoint.hh"
#include "engine/executor.hh"
#include "engine/journal.hh"
#include "engine/server.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::Seconds;
using er::Tokens;
using er::model::ModelId;
namespace fs = std::filesystem;

namespace {

InferenceEngine
makeEngine(ModelId id = ModelId::DeepScaleR1_5B)
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(er::model::spec(id),
                           er::model::calibration(id), cfg);
}

er::perf::LatencyModel
toyModel()
{
    er::perf::LatencyModel m;
    m.prefill.a = 0.0;
    m.prefill.b = 1e-4;
    m.prefill.c = 0.01;
    m.decode.m = 1e-6;
    m.decode.n = 0.02;
    return m;
}

std::string
scratchDir(const std::string &tag)
{
    const auto dir = fs::temp_directory_path() /
        ("edgereason_recovery_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** One serving scenario: config, trace, and behavioural fault config
 *  (crash schedule left empty; tests add it per run). */
struct Scenario
{
    ServerConfig cfg;
    std::vector<ServerRequest> trace;
    FaultConfig fc;
    bool faulted = false;
};

/** The zero-fault golden trace, with chunked prefill so a crash can
 *  land mid prefill chunk. */
Scenario
zeroFaultScenario()
{
    Scenario s;
    s.cfg.prefillChunk = 64;
    er::Rng rng(42, "golden");
    s.trace = ServingSimulator::poissonTrace(rng, 40, 0.5, 120, 256);
    return s;
}

/** The faulted golden trace: deadlines, thermal throttling, frequent
 *  brownouts, KV shrink windows, budget degradation. */
Scenario
faultedScenario()
{
    Scenario s;
    s.cfg.maxBatch = 8;
    s.cfg.degrade.mode = DegradeMode::Budget;
    s.cfg.degrade.budget = er::strategy::TokenPolicy::hard(128);
    er::Rng rng(42, "golden-faults");
    s.trace = ServingSimulator::poissonTrace(rng, 50, 2.0, 120, 512);
    for (auto &r : s.trace)
        r.deadline = 30.0;
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.thermal = true;
    s.fc.thermalSpec.rThermal = 2.5;
    s.fc.thermalSpec.cThermal = 20.0;
    s.fc.thermalSpec.ambientC = 55.0;
    s.fc.thermalSpec.initialC = 55.0;
    s.fc.brownoutsPerHour = 300.0;
    s.fc.kvShrinksPerHour = 200.0;
    s.fc.kvShrinkFraction = 0.6;
    s.fc.kvShrinkDuration = 15.0;
    s.faulted = true;
    return s;
}

/** The KV-pressure golden trace: long outputs force preemption with
 *  retry backoff under severe shrink windows. */
Scenario
kvPressureScenario()
{
    Scenario s;
    er::Rng rng(7, "golden-kv");
    s.trace = ServingSimulator::poissonTrace(rng, 30, 4.0, 120, 3000);
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.kvShrinksPerHour = 240.0;
    s.fc.kvShrinkFraction = 0.97;
    s.fc.kvShrinkDuration = 30.0;
    s.faulted = true;
    return s;
}

ServingSimulator
makeServer(InferenceEngine &eng, const Scenario &s,
           SchedulerPolicy policy)
{
    ServerConfig cfg = s.cfg;
    cfg.scheduler = policy;
    if (policy == SchedulerPolicy::Spjf)
        cfg.spjfModel = toyModel();
    return ServingSimulator(eng, cfg);
}

FaultPlan
planOf(const Scenario &s, std::int64_t crash_at_step = -1)
{
    if (!s.faulted && crash_at_step < 0)
        return FaultPlan();
    FaultConfig fc = s.fc;
    fc.crash.atStep = crash_at_step;
    return FaultPlan(fc);
}

/** Bit-exact comparison of every ServingReport field. */
void
expectIdenticalReports(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughputQps, b.throughputQps);
    EXPECT_EQ(a.avgBatch, b.avgBatch);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.energyPerQuery, b.energyPerQuery);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.schedulerPolicy, b.schedulerPolicy);
    EXPECT_EQ(a.meanQueueDelay, b.meanQueueDelay);
    EXPECT_EQ(a.p95QueueDelay, b.p95QueueDelay);
    EXPECT_EQ(a.p99QueueDelay, b.p99QueueDelay);
    EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
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
expectIdenticalServed(const std::vector<ServedRequest> &a,
                      const std::vector<ServedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].traceIndex, b[i].traceIndex);
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_EQ(a[i].queueDelay, b[i].queueDelay);
        EXPECT_EQ(a[i].serviceTime, b[i].serviceTime);
        EXPECT_EQ(a[i].finish, b[i].finish);
        EXPECT_EQ(a[i].generated, b[i].generated);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].degraded, b[i].degraded);
    }
}

/**
 * Run a scenario to completion uninterrupted, then crash it at
 * @p crash_step and resume; assert the resumed run is bit-identical.
 * The crashing run checkpoints every 4 steps, so most crash points
 * land several steps past the restored checkpoint and genuinely
 * exercise journal-tail re-execution (with byte-level verification).
 */
void
crashResumeRoundTrip(const Scenario &s, SchedulerPolicy policy,
                     std::int64_t crash_step, const std::string &tag)
{
    SCOPED_TRACE(tag + " policy=" +
                 std::string(schedulerPolicyName(policy)) +
                 " crash-step=" + std::to_string(crash_step));
    auto eng = makeEngine();

    auto baseline_srv = makeServer(eng, s, policy);
    const auto baseline = baseline_srv.run(s.trace, planOf(s));
    const auto baseline_served = baseline_srv.served();

    const auto dir = scratchDir(
        tag + "_" + schedulerPolicyName(policy) + "_" +
        std::to_string(crash_step));
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;
    dur.paranoid = true;

    auto crash_srv = makeServer(eng, s, policy);
    bool crashed = false;
    ServingReport rep;
    try {
        rep = crash_srv.run(s.trace, planOf(s, crash_step), dur);
    } catch (const SimulatedCrash &c) {
        crashed = true;
        EXPECT_EQ(c.step, crash_step);
    }

    if (crashed) {
        auto resume_srv = makeServer(eng, s, policy);
        DurabilityOptions res = dur;
        res.resume = true;
        rep = resume_srv.run(s.trace, planOf(s), res);
        expectIdenticalServed(baseline_served, resume_srv.served());
    } else {
        // The schedule outlived the run; the durable run completed
        // and must still match.
        expectIdenticalServed(baseline_served, crash_srv.served());
    }
    expectIdenticalReports(baseline, rep);

    // The journal now covers the whole run: replay must re-derive the
    // exact same report through buildServingReport().
    expectIdenticalReports(
        baseline, replayServingReport(dir + "/journal.bin"));
    fs::remove_all(dir);
}

} // namespace

// ---------------------------------------------------------------------
// Crash/resume bit-identity matrix.
// ---------------------------------------------------------------------

TEST(Recovery, ZeroFaultCrashMatrix)
{
    const auto s = zeroFaultScenario();
    for (const auto policy :
         {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
          SchedulerPolicy::Spjf}) {
        // Step 0 (before any work), step 2 (mid prefill chunk of the
        // first long prompt), and a mid-run decode step.
        for (const std::int64_t step : {0, 2, 57})
            crashResumeRoundTrip(s, policy, step, "zero");
    }
}

TEST(Recovery, FaultedCrashMatrix)
{
    const auto s = faultedScenario();
    for (const auto policy :
         {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
          SchedulerPolicy::Spjf}) {
        // The faulted trace averages a brownout every 12 s of sim
        // time, so mid-run crash points land inside/around brownout
        // windows; early points land during chunkless prefill.
        for (const std::int64_t step : {0, 3, 41, 90})
            crashResumeRoundTrip(s, policy, step, "faulted");
    }
}

TEST(Recovery, KvPressureCrashMatrix)
{
    const auto s = kvPressureScenario();
    for (const auto policy :
         {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
          SchedulerPolicy::Spjf}) {
        // Severe shrink windows (97% of the pool for 30 s) keep the
        // queue in retry backoff for long stretches: the mid and late
        // crash points land during backoff sleeps.
        for (const std::int64_t step : {0, 25, 160})
            crashResumeRoundTrip(s, policy, step, "kv");
    }
}

// ---------------------------------------------------------------------
// Resume validation: corrupted inputs must never partially restore.
// ---------------------------------------------------------------------

TEST(Recovery, ResumeRefusesMismatchedRun)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("mismatch");
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;

    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s, 20), dur), SimulatedCrash);

    // A different trace is a different run: its fingerprint differs
    // and the restore must be refused outright.
    er::Rng rng(1234, "other");
    const auto other =
        ServingSimulator::poissonTrace(rng, 40, 0.5, 120, 256);
    DurabilityOptions res = dur;
    res.resume = true;
    auto srv2 = makeServer(eng, s, SchedulerPolicy::Fcfs);
    try {
        srv2.run(other, planOf(s), res);
        FAIL() << "expected a fingerprint fatal()";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }

    // So must a scheduler-policy switch (policy is fingerprinted).
    auto srv3 = makeServer(eng, s, SchedulerPolicy::Edf);
    EXPECT_THROW(srv3.run(s.trace, planOf(s), res),
                 std::runtime_error);
    fs::remove_all(dir);
}

TEST(Recovery, ResumeRefusesCorruptCheckpoint)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("corrupt_ckpt");
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;

    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s, 20), dur), SimulatedCrash);

    // Flip one payload bit in the newest checkpoint.
    const auto ckpts = listCheckpoints(dir);
    ASSERT_FALSE(ckpts.empty());
    const std::string victim = ckpts.back().second;
    std::string data;
    {
        std::ifstream in(victim, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        data = buf.str();
    }
    data[data.size() / 2] ^= 0x01;
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out << data;
    }

    DurabilityOptions res = dur;
    res.resume = true;
    auto srv2 = makeServer(eng, s, SchedulerPolicy::Fcfs);
    try {
        srv2.run(s.trace, planOf(s), res);
        FAIL() << "expected a checksum fatal()";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("corrupt at offset"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
    }
    fs::remove_all(dir);
}

TEST(Recovery, ResumeWithoutCheckpointsFails)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("empty");
    DurabilityOptions res;
    res.checkpointDir = dir;
    res.resume = true;
    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s), res),
                 std::runtime_error);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// RNG bank capture.
// ---------------------------------------------------------------------

TEST(Recovery, RngBankRoundTripsThroughCheckpoint)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("rngbank");
    er::RngBank bank(99);
    auto &harness = bank.create("harness/noise");
    for (int i = 0; i < 11; ++i)
        harness.uniform();
    const auto expected_states = bank.serialize();

    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;
    dur.rngBank = &bank;
    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s, 8), dur), SimulatedCrash);

    // Perturb the bank, then resume: the checkpointed states win.
    for (int i = 0; i < 100; ++i)
        harness.uniform();
    DurabilityOptions res = dur;
    res.resume = true;
    auto srv2 = makeServer(eng, s, SchedulerPolicy::Fcfs);
    srv2.run(s.trace, planOf(s), res);
    EXPECT_EQ(bank.serialize(), expected_states);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Mutation sweep: every bit-flipped checkpoint or journal either
// resumes to completion or fatal()s.  Re-signing the checksum after a
// flip gets the mutation past the container check, so it reaches the
// payload decoders: a count, enum, flag or index they fail to bound
// shows up here as a signal, a sanitizer report, std::bad_alloc or
// std::length_error instead of a fatal().
// ---------------------------------------------------------------------

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
}

/** Re-sign a checkpoint file: its last 8 bytes are the FNV-1a of all
 *  the bytes before them. */
void
resignCheckpoint(std::string &file)
{
    const std::size_t body = file.size() - 8;
    er::ByteWriter ck;
    ck.u64(er::fnv1a(std::string_view(file).substr(0, body)));
    file.replace(body, 8, ck.bytes());
}

/** Outcomes of one mutation sweep. */
struct MutationTally
{
    std::size_t completed = 0;
    std::size_t fatals = 0;
    std::vector<std::string> failures; //!< anything but the two above

    /** Run @p attempt and file its outcome under byte @p offset. */
    template <class F> void run(std::size_t offset, F &&attempt)
    {
        try {
            attempt();
            ++completed;
        } catch (const std::runtime_error &) {
            ++fatals;
        } catch (const std::exception &e) {
            failures.push_back("byte " + std::to_string(offset) + ": " +
                               e.what());
        }
    }

    std::string report() const
    {
        std::string out = std::to_string(failures.size()) +
            " resume(s) neither completed nor fatal()ed:";
        for (std::size_t i = 0; i < failures.size() && i < 10; ++i)
            out += "\n  " + failures[i];
        return out;
    }
};

/** Header bytes of a checkpoint file before its payload. */
constexpr std::size_t kCheckpointHeaderBytes = 8 + 4 + 8 + 8;

} // namespace

TEST(Recovery, MutatedCheckpointsAndJournalsFatalOrComplete)
{
    // A small durable run with faults (brownouts, KV shrinks, thermal)
    // and the prefix cache on paged KV, crashed late so each resume is
    // short.
    auto eng = makeEngine();
    Scenario s;
    s.cfg.maxBatch = 4;
    s.cfg.prefillChunk = 64;
    s.cfg.prefixCache.enabled = true;
    er::acc::SessionTraceConfig sc;
    sc.sessions = 3;
    sc.turnsPerSession = 2;
    sc.sessionQps = 1.0;
    sc.meanTurnGap = 2.0;
    sc.systemPromptTokens = 48;
    sc.meanUserTokens = 16.0;
    sc.meanAnswerTokens = 8.0;
    sc.meanThinkTokens = 16.0;
    er::Rng rng(5, "mutation");
    s.trace = er::acc::generateSessionTrace(sc, rng);
    for (auto &r : s.trace)
        r.deadline = 60.0;
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.thermal = true;
    s.fc.brownoutsPerHour = 600.0;
    s.fc.kvShrinksPerHour = 600.0;
    s.fc.kvShrinkFraction = 0.5;
    s.fc.kvShrinkDuration = 5.0;
    s.faulted = true;

    // Per-process directory: the sweep rewrites its files thousands of
    // times, so two build trees testing at once must not share it.
    const auto dir = scratchDir("mutation_" + std::to_string(::getpid()));
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 2;
    auto srv = makeServer(eng, s, SchedulerPolicy::Edf);
    const ServingReport full = srv.run(s.trace, planOf(s), dur);
    const auto ckpts = listCheckpoints(dir);
    ASSERT_GE(ckpts.size(), 3u);
    // Crash a step past the second-to-last checkpoint: its resume
    // re-executes a verified journal tail.
    const std::uint64_t crash_step = ckpts[ckpts.size() - 2].first + 1;
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto crasher = makeServer(eng, s, SchedulerPolicy::Edf);
    EXPECT_THROW(crasher.run(s.trace,
                             planOf(s, static_cast<std::int64_t>(
                                           crash_step)),
                             dur),
                 SimulatedCrash);
    const auto [step, ckpt_path] = listCheckpoints(dir).back();
    const std::string ckpt = readFile(ckpt_path);
    const std::string journal_path = dir + "/journal.bin";
    const std::string journal = readFile(journal_path);
    ASSERT_GT(ckpt.size(), kCheckpointHeaderBytes + 8);

    DurabilityOptions res = dur;
    res.resume = true;
    res.checkpointEvery = 0; // the mutated checkpoint stays the latest
    const auto resume = [&](const std::string &c, const std::string &j) {
        writeFile(ckpt_path, c);
        writeFile(journal_path, j);
        auto r = makeServer(eng, s, SchedulerPolicy::Edf);
        r.run(s.trace, planOf(s), res);
    };
    // The pristine pair resumes to the uninterrupted report, and
    // leaves the whole run's journal behind.
    resume(ckpt, journal);
    const std::string whole = readFile(journal_path);
    auto check = makeServer(eng, s, SchedulerPolicy::Edf);
    writeFile(ckpt_path, ckpt);
    writeFile(journal_path, journal);
    expectIdenticalReports(full, check.run(s.trace, planOf(s), res));

    MutationTally resigned, plain;
    for (std::size_t i = kCheckpointHeaderBytes; i + 8 < ckpt.size();
         ++i) {
        std::string c = ckpt;
        c[i] = static_cast<char>(c[i] ^ (1 << (i % 8)));
        plain.run(i, [&] { resume(c, journal); });
        resignCheckpoint(c);
        resigned.run(i, [&] { resume(c, journal); });
    }
    for (std::size_t i = 0; i < journal.size(); ++i) {
        std::string j = journal;
        j[i] = static_cast<char>(j[i] ^ (1 << (i % 8)));
        plain.run(i, [&] { resume(ckpt, j); });
    }
    // Re-signed records of the whole run's journal, read back by
    // replay and by the dump.
    MutationTally records;
    const std::string copy = dir + "/mutated.bin";
    writeFile(copy, whole);
    for (const auto &rec : readJournal(copy).records) {
        const std::size_t end = rec.offset + 5 + rec.payload.size();
        for (std::size_t i = rec.offset; i < end; ++i) {
            std::string j = whole;
            j[i] = static_cast<char>(j[i] ^ (1 << (i % 8)));
            er::ByteWriter ck;
            ck.u64(er::fnv1a(std::string_view(j).substr(
                rec.offset, end - rec.offset)));
            j.replace(end, 8, ck.bytes());
            writeFile(copy, j);
            records.run(i, [&] { replayServingReport(copy); });
            records.run(i, [&] {
                std::ostringstream os;
                dumpJournalText(copy, os);
            });
        }
    }
    EXPECT_TRUE(resigned.failures.empty()) << resigned.report();
    EXPECT_TRUE(records.failures.empty()) << records.report();
    EXPECT_TRUE(plain.failures.empty()) << plain.report();
    // A flip the checksum still covers never gets past it.
    EXPECT_EQ(plain.completed, 0u);
    std::printf("checkpoint %zu B: %zu re-signed flips resumed, %zu "
                "fatal; journal %zu B: %zu re-signed reads completed, "
                "%zu fatal\n",
                ckpt.size(), resigned.completed, resigned.fatals,
                whole.size(), records.completed, records.fatals);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Invariant auditor: healthy views pass, seeded bugs panic.
// ---------------------------------------------------------------------

namespace {

/** A small self-consistent AuditView over local containers. */
struct AuditFixture
{
    ServingState st;
    std::vector<ServedRequest> served;

    AuditView view()
    {
        AuditView v;
        v.traceSize = 2;
        v.nextArrival = 1;
        v.served = &served;
        v.state = &st;
        v.acc.clock = 1.0;
        v.acc.busy = 0.5;
        v.kvBudget = 1e9;
        v.kvPerToken = 1000.0;
        return v;
    }

    AuditFixture()
    {
        TrackedRequest t;
        t.req.arrival = 0.0;
        t.req.inputTokens = 100;
        t.req.outputTokens = 100;
        t.traceIndex = 0;
        st.enqueueNew(t); // 1 queued + 1 not yet arrived == traceSize 2
    }
};

} // namespace

TEST(Auditor, AcceptsConsistentState)
{
    AuditFixture f;
    Auditor a;
    EXPECT_NO_THROW(a.check(f.view()));
    EXPECT_EQ(a.checksPassed(), 1u);
}

TEST(Auditor, CatchesSeededAccountingBugs)
{
    // Each seeded bug is the silent-corruption class the auditor
    // exists to catch; all must panic (std::logic_error), not warn.
    {
        AuditFixture f; // lost request: cursor claims 2 pulled
        auto v = f.view();
        v.nextArrival = 2;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // KV bytes committed with nothing in flight
        auto v = f.view();
        v.acc.committedKv = 4096.0;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // busy time exceeding the wall clock
        auto v = f.view();
        v.acc.busy = 2.0;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // negative energy integrator
        auto v = f.view();
        v.acc.energy = -1.0;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // illegal lifecycle state in the wait queue
        f.st.pool.overrideState(f.st.queue[0], RequestState::Decoding);
        EXPECT_THROW(Auditor().check(f.view()), std::logic_error);
    }
    {
        AuditFixture f; // clock moving backwards between boundaries
        Auditor a;
        a.check(f.view());
        auto v = f.view();
        v.acc.clock = 0.25;
        v.acc.busy = 0.1;
        EXPECT_THROW(a.check(v), std::logic_error);
    }
    {
        AuditFixture f; // peak queue depth below the live depth
        f.st.peakQueueDepth = 0;
        EXPECT_THROW(Auditor().check(f.view()), std::logic_error);
    }
    {
        AuditFixture f; // retired record finishing in the future
        ServedRequest s;
        s.outcome = RequestOutcome::Completed;
        s.finish = 5.0;
        f.served.push_back(s);
        auto v = f.view();
        v.nextArrival = 2; // conservation holds: 1 served + 1 queued
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
}
