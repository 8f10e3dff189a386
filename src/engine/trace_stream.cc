#include "engine/trace_stream.hh"

#include <cmath>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

PoissonTraceStream::PoissonTraceStream(Rng &rng, std::size_t n,
                                       double qps, double mean_in,
                                       double mean_out, double cv)
    : rng_(&rng), n_(n), qps_(qps), meanIn_(mean_in),
      meanOut_(mean_out), cv_(cv)
{
    fatal_if(qps_ <= 0.0, "qps must be positive");
}

PoissonTraceStream::PoissonTraceStream(std::uint64_t seed,
                                       std::string_view name,
                                       std::size_t n, double qps,
                                       double mean_in, double mean_out,
                                       double cv)
    : own_(seed, name), rng_(&own_), n_(n), qps_(qps),
      meanIn_(mean_in), meanOut_(mean_out), cv_(cv)
{
    fatal_if(qps_ <= 0.0, "qps must be positive");
}

ServerRequest
VectorTraceSource::next()
{
    panic_if(pos_ >= trace_->size(), "trace exhausted after ",
             trace_->size(), " requests");
    return (*trace_)[pos_++];
}

void
VectorTraceSource::seek(std::size_t pos)
{
    fatal_if(pos > trace_->size(), "trace position ", pos,
             " is past the trace end ", trace_->size());
    pos_ = pos;
}

ServerRequest
PoissonTraceStream::next()
{
    panic_if(drawn_ >= n_, "trace stream exhausted after ", n_,
             " requests");
    // The draw sequence below is poissonTrace's, verbatim: one
    // uniform for the inter-arrival gap, then the two log-normal
    // length draws, per request.
    t_ += -std::log(1.0 - rng_->uniform()) / qps_;
    ServerRequest r;
    r.arrival = t_;
    r.inputTokens = std::max<Tokens>(
        8, static_cast<Tokens>(std::llround(
               rng_->logNormalMeanStd(meanIn_, cv_ * meanIn_))));
    r.outputTokens = std::max<Tokens>(
        8, static_cast<Tokens>(std::llround(
               rng_->logNormalMeanStd(meanOut_, cv_ * meanOut_))));
    if (deadline_ > 0.0)
        r.deadline = deadline_;
    ++drawn_;
    return r;
}

} // namespace engine
} // namespace edgereason
