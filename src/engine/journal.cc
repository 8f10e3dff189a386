#include "engine/journal.hh"

#include <filesystem>
#include <iomanip>
#include <ios>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

namespace {

constexpr char kJournalMagic[8] = {'E', 'D', 'G', 'E',
                                   'R', 'J', 'N', 'L'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;

std::string
headerBytes(std::uint64_t fingerprint)
{
    ByteWriter w;
    for (char c : kJournalMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kJournalVersion);
    w.u64(fingerprint);
    return w.bytes();
}

/** Frame one record: type | len | payload | fnv1a(everything before). */
std::string
frameRecord(JournalRecordType type, const std::string &payload)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    std::string frame = w.bytes() + payload;
    ByteWriter ck;
    ck.u64(fnv1a(frame));
    return frame + ck.bytes();
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open journal file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    fatal_if(!in.good() && !in.eof(), "read error on journal file: ",
             path);
    return buf.str();
}

} // namespace

const char *
journalRecordTypeName(JournalRecordType t)
{
    switch (t) {
      case JournalRecordType::RunBegin:
        return "run-begin";
      case JournalRecordType::Arrival:
        return "arrival";
      case JournalRecordType::Admit:
        return "admit";
      case JournalRecordType::Step:
        return "step";
      case JournalRecordType::Preempt:
        return "preempt";
      case JournalRecordType::Fault:
        return "fault";
      case JournalRecordType::Retire:
        return "retire";
      case JournalRecordType::CheckpointMark:
        return "checkpoint-mark";
      case JournalRecordType::RunEnd:
        return "run-end";
    }
    panic("unknown journal record type");
}

namespace {

template <class Io, WireOf<ExecAccumulators> R>
void
codec(Io &io, R &acc)
{
    io.f64(acc.clock);
    io.f64(acc.busy);
    io.f64(acc.throttledBusy);
    io.f64(acc.energy);
    io.f64(acc.batchTimeWeighted);
    io.f64(acc.committedKv);
    io.f64(acc.generatedTokens);
    io.u64(acc.preemptions);
    io.u64(acc.nextEvent);
    io.u64(acc.decodeSteps);
    io.u64(acc.macroSegments);
    io.f64(acc.admittedPromptTokens);
    io.f64(acc.cachedPrefixTokens);
    io.f64(acc.prefillSecondsSaved);
    io.u64(acc.prefixEvictions);
}

// --- Record payloads ---------------------------------------------------
// One struct per record type, whose codec is the one statement of its
// layout: the emitters, the replay and the text dump all go through
// it.  Retire's payload is the ServedRequest record itself.

struct RunBeginRecord
{
    std::uint64_t traceSize = 0; //!< informational
    SchedulerPolicy policy = SchedulerPolicy::Fcfs;
    Seconds firstArrival = 0.0;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.u64(r.traceSize);
        io.choice(r.policy, SchedulerPolicy::Spjf, "scheduler policy");
        io.f64(r.firstArrival);
    }
};

struct ArrivalRecord
{
    std::int64_t traceIndex = -1;
    ServerRequest req;
    std::uint64_t queueDepth = 0;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.i64(r.traceIndex);
        io.obj(r.req);
        io.u64(r.queueDepth);
    }
};

struct AdmitRecord
{
    std::int64_t traceIndex = -1;
    Seconds clock = 0.0;
    Tokens effOut = 0;
    bool degraded = false;
    SeqId seq = 0;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.i64(r.traceIndex);
        io.f64(r.clock);
        io.i64(r.effOut);
        io.flag(r.degraded);
        io.u64(r.seq);
    }
};

struct StepRecord
{
    std::uint8_t kind = 0;   //!< 0 = prefill chunk, 1 = decode step
    std::uint32_t count = 0; //!< coalesced steps (observability only)
    ExecAccumulators acc;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.choice(r.kind, std::uint8_t{1}, "step kind");
        io.u32(r.count);
        io.obj(r.acc);
    }
};

struct PreemptRecord
{
    std::int64_t traceIndex = -1;
    bool requeued = false;
    std::uint64_t queueDepth = 0;
    std::uint64_t totalPreemptions = 0; //!< Step carries it too

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.i64(r.traceIndex);
        io.flag(r.requeued);
        io.u64(r.queueDepth);
        io.u64(r.totalPreemptions);
    }
};

struct FaultRecord
{
    FaultEvent event;
    Seconds clockAfter = 0.0;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.choice(r.event.kind, FaultKind::KvRestore, "fault kind");
        io.f64(r.event.time);
        io.f64(r.event.duration);
        io.f64(r.event.magnitude);
        io.f64(r.clockAfter);
    }
};

struct MarkRecord
{
    std::uint64_t step = 0;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.u64(r.step);
    }
};

struct RunEndRecord
{
    ExecAccumulators acc;
    std::uint64_t peakQueueDepth = 0;

    template <class Io, class R> static void codec(Io &io, R &r)
    {
        io.obj(r.acc);
        io.u64(r.peakQueueDepth);
    }
};

template <class Rec>
ByteWriter
encodePayload(const Rec &rec)
{
    ByteWriter w;
    WireWriter io(w);
    Rec::codec(io, rec);
    return w;
}

/** Decode @p raw's whole payload as a @p Rec: fatal() naming the file
 *  offset on any bad byte, or on bytes left over. */
template <class Rec>
Rec
decodePayload(const JournalRawRecord &raw)
{
    ByteReader r(raw.payload, raw.offset + 5);
    WireReader io(r);
    Rec rec;
    if constexpr (std::is_same_v<Rec, ServedRequest>)
        io.obj(rec);
    else
        Rec::codec(io, rec);
    r.expectEnd(journalRecordTypeName(raw.type));
    return rec;
}

} // namespace

void
serialize(ByteWriter &w, const ExecAccumulators &acc)
{
    WireWriter io(w);
    codec(io, acc);
}

void
restore(ByteReader &r, ExecAccumulators &acc)
{
    WireReader io(r);
    ExecAccumulators t;
    codec(io, t);
    acc = t;
}

Journal
Journal::createFresh(const std::string &path, std::uint64_t fingerprint)
{
    Journal j;
    j.path_ = path;
    j.out_ = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::trunc);
    fatal_if(!*j.out_, "cannot create journal file: ", path);
    *j.out_ << headerBytes(fingerprint);
    j.out_->flush();
    fatal_if(!*j.out_, "write failed on journal file: ", path);
    return j;
}

Journal
Journal::resumeAt(const std::string &path, std::uint64_t fingerprint,
                  std::uint64_t step, bool verify_tail)
{
    const JournalContents contents = readJournal(path);
    fatal_if(contents.fingerprint != fingerprint,
             "journal ", path, " belongs to a different run: ",
             "fingerprint 0x", std::hex, contents.fingerprint,
             " vs expected 0x", fingerprint, std::dec,
             "; refusing to resume");

    // Locate the CheckpointMark covering the checkpoint we restored.
    std::size_t mark = contents.records.size();
    for (std::size_t i = 0; i < contents.records.size(); ++i) {
        const auto &rec = contents.records[i];
        if (rec.type == JournalRecordType::CheckpointMark &&
            decodePayload<MarkRecord>(rec).step == step)
            mark = i;
    }
    fatal_if(mark == contents.records.size(),
             "journal ", path, " has no checkpoint-mark for step ",
             step, "; cannot resume");

    const std::uint64_t keep = mark + 1 < contents.records.size()
        ? contents.records[mark + 1].offset
        : contents.endOffset;

    Journal j;
    j.path_ = path;
    j.verifyTail_ = verify_tail;
    for (std::size_t i = mark + 1; i < contents.records.size(); ++i)
        j.tail_.push_back(contents.records[i]);

    // Truncate the tail on disk: the resumed run re-emits it (and, with
    // verify_tail, proves it re-emits it identically).
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    fatal_if(ec, "cannot truncate journal ", path, ": ", ec.message());
    j.out_ = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::app);
    fatal_if(!*j.out_, "cannot reopen journal file: ", path);
    return j;
}

void
Journal::emit(JournalRecordType type, const ByteWriter &payload)
{
    if (!out_)
        return;
    if (!tail_.empty()) {
        const JournalRawRecord expected = tail_.front();
        tail_.pop_front();
        if (verifyTail_) {
            fatal_if(expected.type != type ||
                         expected.payload != payload.bytes(),
                     "deterministic replay divergence in journal ",
                     path_, " at offset ", expected.offset,
                     ": pre-crash run recorded ",
                     journalRecordTypeName(expected.type), " (",
                     expected.payload.size(),
                     " bytes) but the resumed run emitted ",
                     journalRecordTypeName(type), " (",
                     payload.size(), " bytes)");
        }
    }
    *out_ << frameRecord(type, payload.bytes());
    out_->flush(); // write-ahead: durable before the simulator proceeds
    fatal_if(!*out_, "write failed on journal file: ", path_);
}

void
Journal::emitRunBegin(std::size_t trace_size, SchedulerPolicy policy,
                      Seconds first_arrival)
{
    emit(JournalRecordType::RunBegin,
         encodePayload(RunBeginRecord{trace_size, policy, first_arrival}));
}

void
Journal::emitArrival(const TrackedRequest &r, std::size_t queue_depth)
{
    emit(JournalRecordType::Arrival,
         encodePayload(ArrivalRecord{r.traceIndex, r.req, queue_depth}));
}

void
Journal::emitAdmit(const TrackedRequest &r, Seconds clock)
{
    emit(JournalRecordType::Admit,
         encodePayload(AdmitRecord{r.traceIndex, clock, r.effOut,
                                   r.degraded, r.seq}));
}

void
Journal::emitStep(std::uint8_t kind, std::uint32_t count,
                  const ExecAccumulators &acc)
{
    emit(JournalRecordType::Step,
         encodePayload(StepRecord{kind, count, acc}));
}

void
Journal::emitPreempt(const TrackedRequest &r, bool requeued,
                     std::size_t queue_depth,
                     std::uint64_t total_preemptions)
{
    emit(JournalRecordType::Preempt,
         encodePayload(PreemptRecord{r.traceIndex, requeued, queue_depth,
                                     total_preemptions}));
}

void
Journal::emitFault(const FaultEvent &e, Seconds clock_after)
{
    emit(JournalRecordType::Fault,
         encodePayload(FaultRecord{e, clock_after}));
}

void
Journal::emitRetire(const ServedRequest &s)
{
    ByteWriter w;
    serialize(w, s);
    emit(JournalRecordType::Retire, w);
}

void
Journal::emitCheckpointMark(std::uint64_t step)
{
    emit(JournalRecordType::CheckpointMark,
         encodePayload(MarkRecord{step}));
}

void
Journal::emitRunEnd(const ExecAccumulators &acc,
                    std::size_t peak_queue_depth)
{
    emit(JournalRecordType::RunEnd,
         encodePayload(RunEndRecord{acc, peak_queue_depth}));
}

JournalContents
readJournal(const std::string &path)
{
    const std::string data = readWholeFile(path);
    fatal_if(data.size() < kHeaderBytes,
             "journal ", path, " truncated: ", data.size(),
             " byte(s), header needs ", kHeaderBytes);
    fatal_if(std::string_view(data.data(), 8) !=
                 std::string_view(kJournalMagic, 8),
             "journal ", path, " has a bad magic at offset 0 "
             "(not a journal file?)");

    JournalContents out;
    ByteReader header(std::string_view(data).substr(8, 12));
    out.version = header.u32();
    out.fingerprint = header.u64();
    fatal_if(out.version != kJournalVersion,
             "journal ", path, " has format version ", out.version,
             " but this build reads version ", kJournalVersion);

    std::size_t pos = kHeaderBytes;
    while (pos < data.size()) {
        fatal_if(data.size() - pos < 5,
                 "journal ", path, " truncated at offset ", pos,
                 ": record header cut short");
        ByteReader rh(std::string_view(data).substr(pos, 5));
        const std::uint8_t type = rh.u8();
        const std::uint32_t len = rh.u32();
        fatal_if(type < 1 ||
                     type > static_cast<std::uint8_t>(
                                JournalRecordType::RunEnd),
                 "journal ", path, " corrupt at offset ", pos,
                 ": unknown record type ", int(type));
        fatal_if(data.size() - pos < 5ULL + len + 8,
                 "journal ", path, " truncated at offset ", pos,
                 ": record needs ", 5ULL + len + 8,
                 " byte(s) but only ", data.size() - pos, " remain");
        const std::string_view frame(data.data() + pos, 5 + len);
        ByteReader ck(std::string_view(data).substr(pos + 5 + len, 8));
        const std::uint64_t found = ck.u64();
        const std::uint64_t expected = fnv1a(frame);
        fatal_if(found != expected,
                 "journal ", path, " corrupt at offset ", pos,
                 ": expected checksum 0x", std::hex, expected,
                 " found 0x", found, std::dec);
        JournalRawRecord rec;
        rec.type = static_cast<JournalRecordType>(type);
        rec.payload.assign(data, pos + 5, len);
        rec.offset = pos;
        out.records.push_back(std::move(rec));
        pos += 5ULL + len + 8;
    }
    out.endOffset = pos;
    return out;
}

ServingReport
replayServingReport(const std::string &path)
{
    const JournalContents contents = readJournal(path);

    bool haveBegin = false;
    bool haveAcc = false;
    bool haveEnd = false;
    SchedulerPolicy policy = SchedulerPolicy::Fcfs;
    Seconds firstArrival = 0.0;
    ExecAccumulators acc;
    std::size_t peak = 0;
    std::vector<ServedRequest> served;

    for (const auto &rec : contents.records) {
        switch (rec.type) {
          case JournalRecordType::RunBegin: {
            const auto b = decodePayload<RunBeginRecord>(rec);
            policy = b.policy;
            firstArrival = b.firstArrival;
            haveBegin = true;
            break;
          }
          case JournalRecordType::Arrival:
            peak = std::max<std::size_t>(
                peak, decodePayload<ArrivalRecord>(rec).queueDepth);
            break;
          case JournalRecordType::Admit:
            decodePayload<AdmitRecord>(rec);
            break;
          case JournalRecordType::Step:
            acc = decodePayload<StepRecord>(rec).acc;
            haveAcc = true;
            break;
          case JournalRecordType::Preempt:
            peak = std::max<std::size_t>(
                peak, decodePayload<PreemptRecord>(rec).queueDepth);
            break;
          case JournalRecordType::Fault:
            decodePayload<FaultRecord>(rec);
            break;
          case JournalRecordType::Retire:
            served.push_back(decodePayload<ServedRequest>(rec));
            break;
          case JournalRecordType::CheckpointMark:
            decodePayload<MarkRecord>(rec);
            break;
          case JournalRecordType::RunEnd: {
            const auto e = decodePayload<RunEndRecord>(rec);
            acc = e.acc;
            peak = std::max<std::size_t>(peak, e.peakQueueDepth);
            haveAcc = true;
            haveEnd = true;
            break;
          }
        }
    }

    fatal_if(!haveBegin, "journal ", path,
             " has no run-begin record; nothing to replay");
    fatal_if(!haveAcc, "journal ", path,
             " has no step or run-end record; nothing to replay");
    if (!haveEnd)
        warn("journal ", path, " has no run-end record (crashed run): "
             "replaying the prefix that was journaled");
    return buildServingReport(served, acc, firstArrival, policy, peak);
}

void
dumpJournalText(const std::string &path, std::ostream &os)
{
    const JournalContents contents = readJournal(path);
    os << "journal " << path << " version " << contents.version
       << " fingerprint 0x" << std::hex << contents.fingerprint
       << std::dec << " (" << contents.records.size() << " records)\n";
    os << std::setprecision(17);
    for (const auto &rec : contents.records) {
        os << rec.offset << " " << journalRecordTypeName(rec.type);
        switch (rec.type) {
          case JournalRecordType::RunBegin: {
            const auto b = decodePayload<RunBeginRecord>(rec);
            os << " trace=" << b.traceSize
               << " policy=" << schedulerPolicyName(b.policy)
               << " first-arrival=" << b.firstArrival;
            break;
          }
          case JournalRecordType::Arrival: {
            const auto a = decodePayload<ArrivalRecord>(rec);
            os << " idx=" << a.traceIndex << " arrival=" << a.req.arrival
               << " in=" << a.req.inputTokens
               << " out=" << a.req.outputTokens
               << " prio=" << a.req.priority
               << " deadline=" << a.req.deadline
               << " depth=" << a.queueDepth;
            break;
          }
          case JournalRecordType::Admit: {
            const auto a = decodePayload<AdmitRecord>(rec);
            os << " idx=" << a.traceIndex << " clock=" << a.clock
               << " eff-out=" << a.effOut
               << " degraded=" << int(a.degraded) << " seq=" << a.seq;
            break;
          }
          case JournalRecordType::Step: {
            const auto st = decodePayload<StepRecord>(rec);
            os << (st.kind == 0 ? " prefill" : " decode")
               << " x" << st.count
               << " clock=" << st.acc.clock << " busy=" << st.acc.busy
               << " energy=" << st.acc.energy
               << " generated=" << st.acc.generatedTokens
               << " preemptions=" << st.acc.preemptions;
            break;
          }
          case JournalRecordType::Preempt: {
            const auto p = decodePayload<PreemptRecord>(rec);
            os << " idx=" << p.traceIndex
               << " requeued=" << int(p.requeued)
               << " depth=" << p.queueDepth
               << " total=" << p.totalPreemptions;
            break;
          }
          case JournalRecordType::Fault: {
            const auto f = decodePayload<FaultRecord>(rec);
            os << " kind=" << faultKindName(f.event.kind)
               << " time=" << f.event.time
               << " duration=" << f.event.duration
               << " magnitude=" << f.event.magnitude
               << " clock=" << f.clockAfter;
            break;
          }
          case JournalRecordType::Retire: {
            const auto s = decodePayload<ServedRequest>(rec);
            os << " idx=" << s.traceIndex << " outcome="
               << requestOutcomeName(s.outcome) << " finish="
               << s.finish << " latency=" << s.latency()
               << " generated=" << s.generated << " preemptions="
               << s.preemptions << " degraded=" << int(s.degraded);
            break;
          }
          case JournalRecordType::CheckpointMark:
            os << " step=" << decodePayload<MarkRecord>(rec).step;
            break;
          case JournalRecordType::RunEnd: {
            const auto e = decodePayload<RunEndRecord>(rec);
            os << " clock=" << e.acc.clock << " busy=" << e.acc.busy
               << " energy=" << e.acc.energy
               << " peak-depth=" << e.peakQueueDepth;
            break;
          }
        }
        os << "\n";
    }
}

} // namespace engine
} // namespace edgereason
