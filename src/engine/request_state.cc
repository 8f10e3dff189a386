#include "engine/request_state.hh"

#include <cmath>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

const char *
requestOutcomeName(RequestOutcome o)
{
    switch (o) {
      case RequestOutcome::Completed:
        return "completed";
      case RequestOutcome::TimedOut:
        return "timed-out";
      case RequestOutcome::Shed:
        return "shed";
      case RequestOutcome::Cancelled:
        return "cancelled";
    }
    panic("unknown request outcome");
}

const char *
requestStateName(RequestState s)
{
    switch (s) {
      case RequestState::Queued:
        return "queued";
      case RequestState::Prefilling:
        return "prefilling";
      case RequestState::Decoding:
        return "decoding";
      case RequestState::Preempted:
        return "preempted";
      case RequestState::Done:
        return "done";
    }
    panic("unknown request state");
}

bool
requestTransitionAllowed(RequestState from, RequestState to)
{
    switch (from) {
      case RequestState::Queued:
        return to == RequestState::Prefilling ||
            to == RequestState::Done;
      case RequestState::Prefilling:
        return to == RequestState::Decoding ||
            to == RequestState::Preempted || to == RequestState::Done;
      case RequestState::Decoding:
        return to == RequestState::Preempted ||
            to == RequestState::Done;
      case RequestState::Preempted:
        return to == RequestState::Prefilling ||
            to == RequestState::Done;
      case RequestState::Done:
        return false; // terminal
    }
    panic("unknown request state");
}

namespace {

// Request codecs (common/binio.hh): the one statement of each layout.

template <class Io, WireOf<ServerRequest> R>
void
codec(Io &io, R &r)
{
    io.f64(r.arrival);
    io.i64(r.inputTokens);
    io.i64(r.outputTokens);
    io.i64(r.priority);
    io.f64(r.deadline);
    io.check(std::isfinite(r.arrival) && std::isfinite(r.deadline) &&
                 r.inputTokens >= 1 && r.outputTokens >= 1,
             "request with arrival ", r.arrival, ", deadline ", r.deadline,
             ", ", r.inputTokens, " input and ", r.outputTokens,
             " output tokens");
    io.i64(r.sessionId);
    io.list(r.prefixHashes, 8, [&](auto &h) { io.u64(h); });
}

template <class Io, WireOf<ServedRequest> R>
void
codec(Io &io, R &r)
{
    codec(io, r.request);
    io.choice(r.outcome, RequestOutcome::Cancelled, "request outcome");
    io.f64(r.queueDelay);
    io.f64(r.serviceTime);
    io.f64(r.finish);
    io.i64(r.generated);
    io.i64(r.preemptions);
    io.flag(r.degraded);
    io.i64(r.traceIndex);
    io.i64(r.cachedPrefix);
    io.f64(r.firstToken);
}

template <class Io, WireOf<TrackedRequest> R>
void
codec(Io &io, R &r)
{
    codec(io, r.req);
    io.choice(r.state, RequestState::Done, "request state");
    io.i64(r.traceIndex);
    io.f64(r.notBefore);
    io.check(std::isfinite(r.notBefore), "non-finite retry gate");
    io.i64(r.effOut);
    io.f64(r.prefillStart);
    io.i64(r.prefillDone);
    io.i64(r.generated);
    io.i64(r.preemptions);
    io.flag(r.degraded);
    io.u64(r.seq);
    io.i64(r.cachedPrefix);
    io.f64(r.prefillEnd);
    io.check(0 <= r.generated && r.generated <= r.effOut &&
                 r.effOut <= r.req.outputTokens && 0 <= r.prefillDone &&
                 r.prefillDone <= r.req.inputTokens &&
                 0 <= r.cachedPrefix &&
                 r.cachedPrefix <= r.req.inputTokens &&
                 r.preemptions >= 0,
             "request progress out of range");
}

template <class T>
void
encode(ByteWriter &w, const T &v)
{
    WireWriter io(w);
    codec(io, v);
}

template <class T>
void
decode(ByteReader &r, T &out)
{
    WireReader io(r);
    T t;
    codec(io, t);
    out = std::move(t);
}

} // namespace

void serialize(ByteWriter &w, const ServerRequest &r) { encode(w, r); }
void restore(ByteReader &r, ServerRequest &out) { decode(r, out); }
void serialize(ByteWriter &w, const ServedRequest &r) { encode(w, r); }
void restore(ByteReader &r, ServedRequest &out) { decode(r, out); }
void serialize(ByteWriter &w, const TrackedRequest &r) { encode(w, r); }
void restore(ByteReader &r, TrackedRequest &out) { decode(r, out); }

} // namespace engine
} // namespace edgereason
