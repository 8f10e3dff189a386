#include "tracer.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace e2e {

namespace {

std::atomic<std::uint64_t> nextSerial{1};

struct ThreadSlot
{
    std::uint64_t serial = 0;
    void *buffer = nullptr;
};
thread_local ThreadSlot tlSlot;

std::uint64_t
makeId(std::uint32_t buffer, std::size_t index)
{
    return ((static_cast<std::uint64_t>(buffer) << 32) |
            static_cast<std::uint64_t>(index)) + 1;
}

} // namespace

double
tailPercentile(std::size_t samples)
{
    static const double kPcts[] = {99.99, 99.9, 99.0, 90.0};
    for (double p : kPcts)
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0)
            return p;
    return 50.0;
}

double
percentileSorted(const std::vector<double> &v, double pct)
{
    if (v.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tracer::Tracer(bool enabled, std::string workload, std::uint64_t run_id)
    : enabled_(enabled), workload_(std::move(workload)), runId_(run_id),
      serial_(nextSerial.fetch_add(1))
{
}

Tracer::Buffer &
Tracer::localBuffer()
{
    if (tlSlot.serial != serial_) {
        std::lock_guard<std::mutex> lock(mu_);
        auto buf = std::make_unique<Buffer>();
        buf->index = static_cast<std::uint32_t>(buffers_.size());
        buf->spans.reserve(4096);
        tlSlot.serial = serial_;
        tlSlot.buffer = buf.get();
        buffers_.push_back(std::move(buf));
    }
    return *static_cast<Buffer *>(tlSlot.buffer);
}

std::uint64_t
Tracer::begin(const char *name, std::uint64_t parent)
{
    Buffer &b = localBuffer();
    Span s;
    s.name = name;
    s.id = makeId(b.index, b.spans.size());
    s.parent = parent;
    s.thread = b.index;
    s.start = nowNs();
    b.spans.push_back(s);
    return s.id;
}

void
Tracer::end(std::uint64_t id)
{
    const std::int64_t t = nowNs();
    Buffer &b = localBuffer();
    b.spans[static_cast<std::size_t>((id - 1) & 0xffffffffu)].end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

std::map<std::string, LayerStats>
Tracer::layerStats() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::size_t> pos;
    pos.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        pos.emplace(all[i].id, i);

    // Child time covered inside each parent: the union of the child
    // intervals clipped to the parent, so overlapping children on
    // different threads are not double-counted.
    std::vector<std::size_t> kids;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].parent != 0 && pos.count(all[i].parent))
            kids.push_back(i);
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
        if (all[a].parent != all[b].parent)
            return all[a].parent < all[b].parent;
        return all[a].start < all[b].start;
    });
    std::vector<std::int64_t> covered(all.size(), 0);
    for (std::size_t k = 0; k < kids.size();) {
        const std::uint64_t parent = all[kids[k]].parent;
        const Span &p = all[pos.at(parent)];
        std::int64_t lo = 0, hi = -1, sum = 0;
        for (; k < kids.size() && all[kids[k]].parent == parent; ++k) {
            const std::int64_t s = std::max(all[kids[k]].start, p.start);
            const std::int64_t e = std::min(all[kids[k]].end, p.end);
            if (e <= s)
                continue;
            if (s > hi) {
                if (hi > lo)
                    sum += hi - lo;
                lo = s;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        if (hi > lo)
            sum += hi - lo;
        covered[pos.at(parent)] = sum;
    }

    std::map<std::string, LayerStats> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        LayerStats &ls = out[all[i].name];
        const double dur =
            static_cast<double>(all[i].end - all[i].start) * 1e-9;
        ++ls.calls;
        ls.totalS += dur;
        ls.selfS += dur - static_cast<double>(covered[i]) * 1e-9;
        ls.durS.push_back(dur);
    }
    for (auto &[name, ls] : out)
        std::sort(ls.durS.begin(), ls.durS.end());
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         std::size_t max_events) const
{
    std::vector<Span> all = spans();
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.start < b.start;
    });
    const std::int64_t t0 = all.empty() ? 0 : all.front().start;
    const std::size_t n = std::min(all.size(), max_events);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = all[i];
        const std::string layer(s.name);
        const std::string cat = layer.substr(0, layer.rfind('.'));
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                     ",\"workload\":\"%s\",\"run\":%" PRIu64 "}}\n",
                     i ? "," : "", s.name, cat.c_str(),
                     static_cast<double>(s.start - t0) * 1e-3,
                     static_cast<double>(s.end - s.start) * 1e-3,
                     s.thread, s.id, s.parent, workload_.c_str(), runId_);
    }
    std::fprintf(f,
                 "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                 "\"workload\":\"%s\",\"run\":%" PRIu64
                 ",\"spans\":%zu,\"written\":%zu,\"dropped\":%zu}}\n",
                 workload_.c_str(), runId_, all.size(), n, all.size() - n);
    return std::fclose(f) == 0;
}

} // namespace e2e
