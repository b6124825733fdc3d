#include "llm/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ebs::llm {

namespace {

/** Penalty applied to quality when the prompt was truncated. */
constexpr double kTruncationQualityFactor = 0.80;

/** Base quality axis of the profile for a call kind. */
double
baseQuality(const ModelProfile &profile, CallKind kind)
{
    switch (kind) {
      case CallKind::Planning:
        return profile.plan_quality;
      case CallKind::Communication:
        return profile.comm_quality;
      case CallKind::Reflection:
        return profile.reflect_quality;
      case CallKind::ActionSelection:
        // Menu-style selection is easier than free-form planning.
        return std::min(1.0, profile.plan_quality * 1.05);
    }
    return 0.5;
}

double
qualityFor(const ModelProfile &profile, const LlmRequest &request,
           int effective_in)
{
    double q = baseQuality(profile, request.kind);
    q *= profile.dilutionFactor(effective_in);
    q *= std::clamp(1.0 - request.complexity, 0.0, 1.0);
    if (request.tokens_in > profile.context_limit)
        q *= kTruncationQualityFactor;
    return std::clamp(q, 0.0, 1.0);
}

} // namespace

LlmResponse
sampleCompletion(const ModelProfile &profile, const LlmRequest &request,
                 sim::Rng &rng)
{
    if (request.tokens_in < 0)
        throw std::invalid_argument(
            "sampleCompletion: request.tokens_in must be >= 0, got " +
            std::to_string(request.tokens_in));

    LlmResponse resp;
    resp.truncated = request.tokens_in > profile.context_limit;
    resp.tokens_in = std::min(request.tokens_in, profile.context_limit);

    // Generation length varies around the mean (+/- ~25%).
    const double out_mean = std::max(1.0, double(request.tokens_out_mean));
    resp.tokens_out =
        std::max(1, static_cast<int>(rng.lognormal(out_mean, 0.25)));

    double latency = 0.0;
    if (profile.remote)
        latency += rng.lognormal(profile.api_rtt_mean_s, profile.api_rtt_cv);
    latency += resp.tokens_in / profile.prefill_tok_per_s;
    latency += resp.tokens_out / profile.decode_tok_per_s;
    resp.latency_s = latency;

    resp.parse_ok = rng.bernoulli(profile.format_compliance);
    const double q = qualityFor(profile, request, resp.tokens_in);
    resp.good = resp.parse_ok && rng.bernoulli(q);
    return resp;
}

double
expectedCompletionLatency(const ModelProfile &profile,
                          const LlmRequest &request)
{
    const int in = std::min(request.tokens_in, profile.context_limit);
    double latency = 0.0;
    if (profile.remote)
        latency += profile.api_rtt_mean_s;
    latency += in / profile.prefill_tok_per_s;
    latency += request.tokens_out_mean / profile.decode_tok_per_s;
    return latency;
}

double
expectedBatchLatency(const ModelProfile &profile,
                     const std::vector<LlmRequest> &requests)
{
    if (requests.empty())
        return 0.0;
    double prefill_s = 0.0;
    double max_decode_s = 0.0;
    double baseline_s = 0.0;
    for (const auto &req : requests) {
        const int in = std::min(req.tokens_in, profile.context_limit);
        prefill_s += in / profile.prefill_tok_per_s;
        max_decode_s = std::max(
            max_decode_s, req.tokens_out_mean / profile.decode_tok_per_s);
        baseline_s += expectedCompletionLatency(profile, req);
    }
    // The expected sequential baseline never undercuts the joint time
    // (summed decode >= longest decode, n RTTs >= one), so the clamp is
    // inert here and the singleton rule reduces to the member's own
    // expected latency.
    return jointBatchTime(static_cast<int>(requests.size()), prefill_s,
                          max_decode_s, profile.remote,
                          profile.api_rtt_mean_s, baseline_s);
}

double
jointBatchTime(int requests, double prefill_s, double max_decode_s,
               bool remote, double rtt_mean_s, double baseline_s)
{
    if (requests <= 1)
        return baseline_s;
    double latency = prefill_s + max_decode_s;
    if (remote)
        latency += rtt_mean_s;
    return std::min(latency, baseline_s);
}

void
LlmUsage::add(const LlmResponse &resp)
{
    ++calls;
    tokens_in += resp.tokens_in;
    tokens_out += resp.tokens_out;
    total_latency_s += resp.latency_s;
}

LlmUsage &
LlmUsage::operator+=(const LlmUsage &other)
{
    calls += other.calls;
    tokens_in += other.tokens_in;
    tokens_out += other.tokens_out;
    total_latency_s += other.total_latency_s;
    return *this;
}

} // namespace ebs::llm
