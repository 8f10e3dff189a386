/**
 * @file
 * End-to-end benchmark program: runs ONE repetition of one workload in
 * this process, so the process's peak resident memory is that
 * repetition's, and prints as its last stdout line one JSON object
 * with the repetition's timings, checks and (with --trace 1) per-layer
 * metrics.  run.py builds this binary, repeats it for the requested
 * host time and aggregates:
 *
 *   e2e_bench --workload sweep --seed 1 --rep 0 --trace 0 \
 *             --digests bench_e2e/digests.txt
 *   e2e_bench --record-digests bench_e2e/digests.txt
 */

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/thread_pool.hh"
#include "tracer.hh"
#include "workloads.hh"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;

/** Repetitions whose digests --record-digests writes per workload whose
 *  inputs differ per repetition. */
constexpr std::uint64_t kRecordedReps = 24;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    std::uint64_t rep = 0;
    bool trace = false;
    std::string digests;
    std::string recordDigests;
    std::string scratch = ".bench_build/scratch";
    std::string traceFile;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: e2e_bench --workload NAME --seed N --rep R "
                 "--trace 0|1 --digests FILE [--scratch DIR] "
                 "[--trace-file FILE]\n"
                 "       e2e_bench --record-digests FILE [--scratch DIR]\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-')
        usage("invalid value for " + flag + ": " + v);
    return x;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = parseUint(flag, v);
        else if (flag == "--rep")
            o.rep = parseUint(flag, v);
        else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--digests")
            o.digests = v;
        else if (flag == "--record-digests")
            o.recordDigests = v;
        else if (flag == "--scratch")
            o.scratch = v;
        else if (flag == "--trace-file")
            o.traceFile = v;
        else
            usage("unknown flag " + flag);
    }
    return o;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

/** @return peak resident set of this process in MB (10^6 bytes). */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return static_cast<double>(std::stoull(line.substr(6))) * 1024.0 /
                1e6;
    return 0.0;
}

std::string
hex(std::uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Committed digests: "workload rep report hex" per line. */
using DigestTable = std::map<std::string, std::uint64_t>;

std::string
digestKey(const std::string &workload, std::uint64_t rep,
          const std::string &report)
{
    return workload + "/" + std::to_string(rep) + "/" + report;
}

DigestTable
loadDigests(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        usage("cannot read digests file " + path);
    DigestTable t;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, report, h;
        std::uint64_t rep = 0;
        if (!(ls >> w >> rep >> report >> h))
            usage("malformed digests line: " + line);
        t[digestKey(w, rep, report)] = std::stoull(h, nullptr, 16);
    }
    return t;
}

/** Run one repetition, turning a throw into a failed result. */
RepResult
safeRun(const Workload &w, const RunContext &ctx, std::uint64_t rep,
        Mode mode, Tracer *t)
{
    RepResult r;
    try {
        w.run(ctx, rep, mode, t, r);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = std::string("threw: ") + e.what();
    }
    return r;
}

/** Compare @p r against committed digests or a reference run. */
void
checkDigests(RepResult &r, const std::vector<std::pair<std::string,
                                                       std::uint64_t>> &want,
             const std::string &what)
{
    if (!r.ok)
        return;
    bool same = want.size() == r.digests.size();
    for (std::size_t i = 0; same && i < want.size(); ++i)
        same = want[i] == r.digests[i];
    if (!same) {
        r.ok = false;
        r.error = "reports differ from " + what;
    }
}

std::vector<std::pair<std::string, std::uint64_t>>
committedFor(const DigestTable &table, const Workload &w, std::uint64_t rep,
             const std::vector<std::pair<std::string, std::uint64_t>> &got)
{
    std::vector<std::pair<std::string, std::uint64_t>> want;
    for (const auto &[name, h] : got) {
        (void)h;
        const auto it = table.find(digestKey(w.name, rep, name));
        if (it == table.end())
            return {};
        want.emplace_back(name, it->second);
    }
    return want;
}

int
recordDigests(const Options &o, unsigned threads)
{
    // Built in memory and written only when every repetition passed,
    // so a failed recording leaves the committed table as it was.
    std::ostringstream out;
    out << "# %.17g report digests (FNV-1a 64) at seed " << kDefaultSeed
        << ": workload rep report digest\n";
    for (const auto &w : workloads()) {
        const RunContext ctx{kDefaultSeed, w.libraryOnT ? threads : 1,
                             o.scratch};
        edgereason::ThreadPool::setGlobalThreads(ctx.threads);
        const std::uint64_t reps = w.perRepInputs ? kRecordedReps : 1;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            RepResult r = safeRun(w, ctx, rep, Mode::Library, nullptr);
            if (!r.ok) {
                std::fprintf(stderr, "%s rep %" PRIu64 ": %s\n", w.name, rep,
                             r.error.c_str());
                return 1;
            }
            for (const auto &[name, h] : r.digests)
                out << w.name << ' ' << rep << ' ' << name << ' ' << hex(h)
                    << '\n';
            std::printf("%s rep %" PRIu64 ": %zu digests (%s)\n", w.name, rep,
                        r.digests.size(), r.outcomes.c_str());
            std::fflush(stdout);
        }
    }
    std::ofstream f(o.recordDigests);
    f << out.str();
    if (!f.flush()) {
        std::fprintf(stderr, "cannot write %s\n", o.recordDigests.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    const auto poolThreads = static_cast<unsigned>(std::min(nproc, 4L));
    std::filesystem::create_directories(o.scratch);

    if (!o.recordDigests.empty()) {
        if (!o.workload.empty())
            usage("--record-digests rewrites every workload's digests");
        return recordDigests(o, poolThreads);
    }

    const Workload *w = findWorkload(o.workload);
    if (!w)
        usage("unknown workload '" + o.workload + "'");
    const DigestTable committed = loadDigests(o.digests);
    const auto context = [&](bool on_t) {
        const unsigned n = on_t ? poolThreads : 1;
        edgereason::ThreadPool::setGlobalThreads(n);
        return RunContext{o.seed, n, o.scratch};
    };

    std::uint64_t attempted = 0, failed = 0;
    bool ok = true;
    const auto account = [&](const RepResult &r, const char *label) {
        attempted += r.items;
        ok = ok && r.ok;
        if (!r.ok)
            failed += r.items;
        std::printf("%s rep %" PRIu64 " %-8s setup %.4f s, phase %.4f s, "
                    "%" PRIu64 " items (%.1f items/s); %s%s%s\n",
                    w->name, o.rep, label, r.setupS, r.phaseS, r.items,
                    r.phaseS > 0 ? static_cast<double>(r.items) / r.phaseS
                                 : 0.0,
                    r.outcomes.c_str(), r.ok ? "" : "; FAILED: ",
                    r.error.c_str());
    };

    const RunContext libCtx = context(w->libraryOnT);
    RepResult lib = safeRun(*w, libCtx, o.rep, Mode::Library, nullptr);
    if (lib.ok && o.seed == kDefaultSeed) {
        const std::uint64_t key = w->perRepInputs ? o.rep : 0;
        const auto want = committedFor(committed, *w, key, lib.digests);
        // Repetition 0 must be pinned; later ones are checked while the
        // committed table reaches them.
        if (!want.empty() || key == 0)
            checkDigests(lib, want, "the committed digests");
    }
    account(lib, "library");

    std::map<std::string, double> layers;
    unsigned tracedThreads = 0;
    if (o.trace) {
        const RunContext ctx = context(w->tracedOnT);
        tracedThreads = ctx.threads;
        Tracer tracer(true, w->name, o.rep);
        RepResult traced = safeRun(*w, ctx, o.rep, Mode::Traced, &tracer);
        double base = lib.phaseS;
        if (w->tracedMatchesLibrary) {
            checkDigests(traced, lib.digests, "the untraced library run");
        } else {
            Tracer off(false, w->name, o.rep);
            RepResult untraced =
                safeRun(*w, ctx, o.rep, Mode::Untraced, &off);
            account(untraced, "untraced");
            base = untraced.phaseS;
        }
        account(traced, "traced");
        layers = traced.layers;
        for (const auto &[k, v] : lib.layers)
            layers[k] = v;
        layers["trace.overhead_frac"] =
            base > 0 ? (traced.phaseS - base) / base : 0.0;
        if (!o.traceFile.empty()) {
            const std::filesystem::path p(o.traceFile);
            if (p.has_parent_path())
                std::filesystem::create_directories(p.parent_path());
            if (tracer.writeChromeTrace(o.traceFile, 100000))
                std::printf("chrome trace: %s\n", o.traceFile.c_str());
            else
                std::printf("warning: cannot write %s\n",
                            o.traceFile.c_str());
        }
    }

    std::string all;
    for (const auto &[name, h] : lib.digests)
        all += name + "=" + hex(h) + ";";
    std::ostringstream out;
    out << "{\"workload\": \"" << w->name << "\", \"seed\": " << o.seed
        << ", \"rep\": " << o.rep << ", \"trace\": " << (o.trace ? 1 : 0)
        << ", \"nproc\": " << nproc << ", \"T\": " << poolThreads
        << ", \"threads\": " << libCtx.threads
        << ", \"traced_threads\": " << tracedThreads
        << ", \"compiler\": \"" << E2E_COMPILER << "\", \"build_type\": \""
        << E2E_BUILD_TYPE << "\", \"per_rep_inputs\": "
        << (w->perRepInputs ? "true" : "false")
        << ", \"ok\": " << (ok ? "true" : "false")
        << ", \"items\": " << lib.items << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed
        << ", \"setup_s\": " << jsonNumber(lib.setupS)
        << ", \"phase_s\": " << jsonNumber(lib.phaseS)
        << ", \"peak_rss_mb\": " << jsonNumber(peakRssMb())
        << ", \"digest\": \"" << hex(edgereason::fnv1a(all))
        << "\", \"layers\": {";
    bool first = true;
    for (const auto &[k, v] : layers) {
        out << (first ? "" : ", ") << '"' << k << "\": " << jsonNumber(v);
        first = false;
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    return 0;
}
