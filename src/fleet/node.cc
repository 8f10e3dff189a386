#include "fleet/node.hh"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <unordered_set>

#include "common/logging.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace edgereason {
namespace fleet {

using engine::kTimeSlack;

FleetNode::FleetNode(int id, const NodeSpec &spec,
                     const engine::ServerConfig &config,
                     engine::FaultPlan behavioural,
                     std::string journal_dir)
    : id_(id), spec_(spec), cfg_(config), faults_(std::move(behavioural)),
      journalDir_(std::move(journal_dir))
{
    fatal_if(cfg_.scheduler == engine::SchedulerPolicy::Spjf,
             "fleet nodes do not support the spjf scheduler (no "
             "fitted latency model)");
    fatal_if(cfg_.degrade.mode == engine::DegradeMode::Fallback,
             "fleet nodes do not support fallback degradation (no "
             "per-node fallback engine)");
    engine::EngineConfig ec;
    ec.powerMode = spec_.powerMode;
    engine_ = std::make_unique<engine::InferenceEngine>(
        spec_.quantized ? model::quantizedSpec(spec_.model)
                        : model::spec(spec_.model),
        model::calibration(spec_.model, spec_.quantized
                                            ? DType::W4A16
                                            : DType::FP16),
        ec);
    scheduler_ = engine::makeScheduler(cfg_.scheduler);
    startExecutor();
}

void
FleetNode::startExecutor()
{
    exec_ = std::make_unique<engine::BatchExecutor>(
        *engine_, nullptr, cfg_, faults_, served_);
    exec_->setSlowdowns(&slowdowns_);
}

void
FleetNode::beginJournal()
{
    openJournal();
}

std::string
FleetNode::journalPath() const
{
    return (std::filesystem::path(journalDir_) /
            ("node-" + std::to_string(id_) + "-inc" +
             std::to_string(incarnation_) + ".bin"))
        .string();
}

std::uint64_t
FleetNode::journalFingerprint() const
{
    // Keys the journal to (node, incarnation): a resume that would
    // mix up files is refused by the header check.
    return 0xF1EE70000000000ull ^
        (static_cast<std::uint64_t>(id_) << 32) ^ incarnation_;
}

void
FleetNode::openJournal()
{
    if (journalDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(journalDir_, ec);
    fatal_if(ec, "cannot create fleet journal directory ", journalDir_,
             ": ", ec.message());
    // Fleet journals are full WALs: per-node crash artifacts that
    // `edgereason replay` re-derives reports from, and — under fleet
    // checkpointing — resumed with byte-for-byte tail verification
    // (restore() reopens them via Journal::resumeAt).
    journal_ =
        engine::Journal::createFresh(journalPath(), journalFingerprint());
    journal_.emitRunBegin(0, cfg_.scheduler, 0.0);
    exec_->setJournal(&journal_);
}

void
FleetNode::journalCheckpointMark(std::uint64_t event)
{
    if (journal_.active())
        journal_.emitCheckpointMark(event);
}

std::int64_t
FleetNode::submit(const engine::ServerRequest &req, std::int64_t gid)
{
    panic_if(!up_, "submit to down fleet node ", id_);
    panic_if(!pending_.empty() &&
                 req.arrival < pending_.back().req.arrival,
             "fleet node ", id_, ": dispatch times must be monotone");
    const std::int64_t local = submitted_++;
    gidOfLocal_.emplace(local, gid);
    pending_.push_back({req, local});
    return local;
}

Seconds
FleetNode::PendingArrivals::nextArrival() const
{
    return q.empty() ? std::numeric_limits<Seconds>::infinity()
                     : q.front().req.arrival;
}

engine::TrackedRequest
FleetNode::PendingArrivals::pop()
{
    engine::TrackedRequest t;
    t.req = q.front().req;
    t.traceIndex = q.front().local;
    q.pop_front();
    return t;
}

void
FleetNode::advanceUntil(Seconds target, bool stop_on_outcome)
{
    if (!up_)
        return;
    PendingArrivals arrivals{pending_};
    while (busy() && exec_->clock() + kTimeSlack < target) {
        const std::size_t before = served_.size();
        exec_->cycle(st_, *scheduler_, arrivals, target);
        if (stop_on_outcome && served_.size() > before)
            return;
    }
}

bool
FleetNode::cancel(std::int64_t local)
{
    if (!up_)
        return false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->local == local) {
            // A pending leg vanishes without a record, so no drain
            // will ever consume its mapping.
            gidOfLocal_.erase(local);
            pending_.erase(it);
            return true;
        }
    }
    return exec_->cancelByTraceIndex(st_, local);
}

void
FleetNode::crash()
{
    panic_if(!up_, "double crash of fleet node ", id_);
    const auto &acc = exec_->accumulators();
    life_.energy += acc.energy;
    life_.busy += acc.busy;
    life_.generatedTokens += acc.generatedTokens;
    ++life_.crashes;
    up_ = false;
    pending_.clear();
    // Undrained records (cancel echoes retired since the last drain)
    // still need their local->gid mappings when the driver eventually
    // drains them; every other mapping on this incarnation — pending
    // or in flight — dies with the node (the driver fails those legs
    // over).
    std::unordered_map<std::int64_t, std::int64_t> keep;
    for (const auto &rec : served_) {
        const auto it = gidOfLocal_.find(rec.traceIndex);
        if (it != gidOfLocal_.end())
            keep.insert(*it);
    }
    gidOfLocal_.swap(keep);
    exec_->setJournal(nullptr);
    journal_ = engine::Journal();
    exec_.reset();
    st_ = engine::ServingState();
}

void
FleetNode::reboot()
{
    panic_if(up_, "reboot of a live fleet node ", id_);
    ++incarnation_;
    st_ = engine::ServingState();
    startExecutor();
    up_ = true;
    openJournal();
}

namespace {

/** Add @p recs' outcomes to @p c. */
void
tally(FleetNode::OutcomeCounts &c,
      const std::vector<engine::ServedRequest> &recs)
{
    for (const auto &rec : recs) {
        switch (rec.outcome) {
        case engine::RequestOutcome::Completed:
            ++c.served;
            break;
        case engine::RequestOutcome::Cancelled:
            ++c.cancelled;
            break;
        default:
            ++c.timedOut;
            break;
        }
    }
}

} // namespace

FleetNode::OutcomeCounts
FleetNode::outcomeCounts() const
{
    OutcomeCounts c = releasedCounts_;
    tally(c, served_);
    return c;
}

void
FleetNode::releaseDrained()
{
    tally(releasedCounts_, served_);
    served_.clear();
}

std::int64_t
FleetNode::consumeLocal(std::int64_t local)
{
    const auto it = gidOfLocal_.find(local);
    panic_if(it == gidOfLocal_.end(), "fleet node ", id_,
             ": unknown local index ", local);
    const std::int64_t gid = it->second;
    gidOfLocal_.erase(it);
    return gid;
}

void
FleetNode::dropLocal(std::int64_t local)
{
    gidOfLocal_.erase(local);
}

NodeTotals
FleetNode::totals() const
{
    NodeTotals t = life_;
    if (exec_) {
        const auto &acc = exec_->accumulators();
        t.energy += acc.energy;
        t.busy += acc.busy;
        t.generatedTokens += acc.generatedTokens;
    }
    return t;
}

template <class Io, class Self>
void
FleetNode::codec(Io &io, Self &n)
{
    io.flag(n.up_);
    io.u64(n.incarnation_);
    io.i64(n.submitted_);
    io.check(n.submitted_ >= 0, "fleet node ", n.id_,
             " checkpoint: negative submission count");
    // The local -> gid map travels sorted by local index.
    std::vector<std::pair<std::int64_t, std::int64_t>> locals;
    if constexpr (!Io::kDecoding) {
        locals.assign(n.gidOfLocal_.begin(), n.gidOfLocal_.end());
        std::sort(locals.begin(), locals.end());
    }
    io.list(locals, 8 + 8, [&](auto &e) {
        io.i64(e.first);
        io.i64(e.second);
    });
    if constexpr (Io::kDecoding) {
        n.gidOfLocal_.clear();
        for (const auto &[local, gid] : locals)
            io.check(local >= 0 && local < n.submitted_ &&
                         n.gidOfLocal_.emplace(local, gid).second,
                     "fleet node ", n.id_, " checkpoint: local index ",
                     local, " is out of range or duplicated");
    }
    io.list(n.pending_, 8, [&](auto &p) {
        io.obj(p.req);
        io.i64(p.local);
    });
    io.f64(n.life_.energy);
    io.f64(n.life_.busy);
    io.f64(n.life_.generatedTokens);
    io.u64(n.life_.crashes);
    io.u64(n.releasedCounts_.served);
    io.u64(n.releasedCounts_.timedOut);
    io.u64(n.releasedCounts_.cancelled);
    io.list(n.served_, 8, [&](auto &rec) { io.obj(rec); });
    if (!n.up_)
        return;
    if constexpr (Io::kDecoding) {
        n.scheduler_->verifyMatches(io.reader());
        n.startExecutor();
    } else {
        n.scheduler_->serialize(io.writer());
    }
    io.obj(n.st_);
    io.obj(*n.exec_);
}

void
FleetNode::serialize(ByteWriter &w) const
{
    WireWriter io(w);
    codec(io, *this);
}

void
FleetNode::restore(ByteReader &r, std::uint64_t event_mark,
                   bool verify_tail)
{
    WireReader io(r);
    codec(io, *this);
    // Every leg the node still holds is held once, and all but the
    // cancel echoes map back to their fleet request.
    std::unordered_set<std::int64_t> held;
    const auto hold = [&](std::int64_t local, bool needs_gid = true) {
        fatal_if(!held.insert(local).second ||
                     (needs_gid && gidOfLocal_.count(local) == 0),
                 "fleet node ", id_, " checkpoint: leg ", local,
                 " is held twice or has no fleet request");
    };
    for (const Pending &p : pending_)
        hold(p.local);
    for (const auto &rec : served_)
        hold(rec.traceIndex,
             rec.outcome != engine::RequestOutcome::Cancelled);
    if (up_) {
        for (std::size_t i = 0; i < st_.queue.size(); ++i)
            hold(st_.pool.traceIndex(st_.queue[i]));
        for (const auto *ids : {&st_.prefilling, &st_.active})
            for (const engine::ReqId id : *ids)
                hold(st_.pool.traceIndex(id));
    }
    if (!up_) {
        // Down at checkpoint time: no executor, no journal.  A later
        // reboot starts the next incarnation fresh; its journal file
        // is recreated and deterministically re-emitted.
        journal_ = engine::Journal();
        exec_.reset();
        st_ = engine::ServingState();
    } else if (!journalDir_.empty()) {
        journal_ = engine::Journal::resumeAt(
            journalPath(), journalFingerprint(), event_mark,
            verify_tail);
        exec_->setJournal(&journal_);
    }
}

Seconds
FleetNode::estimateServiceTime(const engine::ServerRequest &r) const
{
    const int batch = std::max(1, st_.inFlight() + 1);
    const Tokens mid_ctx = r.inputTokens + r.outputTokens / 2;
    return engine_->prefillLatency(r.inputTokens) +
        static_cast<double>(r.outputTokens) *
        engine_->decodeStepLatency(mid_ctx, batch);
}

} // namespace fleet
} // namespace edgereason
