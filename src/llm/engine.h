#ifndef EBS_LLM_ENGINE_H
#define EBS_LLM_ENGINE_H

#include <cstddef>
#include <vector>

#include "llm/model_profile.h"
#include "sim/rng.h"

namespace ebs::llm {

/** Purpose of an LLM call; selects the capability axis that gates it. */
enum class CallKind
{
    Planning,        ///< high-level plan / subgoal proposal
    Communication,   ///< message generation or comprehension
    Reflection,      ///< outcome judgment / self-correction
    ActionSelection, ///< choosing among primitive/menu actions
};

/** One simulated completion request. */
struct LlmRequest
{
    CallKind kind = CallKind::Planning;
    int tokens_in = 0;        ///< prompt size
    int tokens_out_mean = 64; ///< expected generation length
    /**
     * Extra task complexity in [0, 1): joint multi-agent reasoning, deep
     * dependency chains. Multiplies quality by (1 - complexity).
     */
    double complexity = 0.0;
};

/** Result of one simulated completion. */
struct LlmResponse
{
    double latency_s = 0.0;  ///< end-to-end inference latency
    int tokens_in = 0;       ///< prompt tokens actually consumed
    int tokens_out = 0;      ///< generated tokens
    bool truncated = false;  ///< prompt exceeded the context window
    bool parse_ok = true;    ///< output was format-compliant
    /**
     * True when the model produced the *good* output for this call — a
     * correct plan, a useful message, an accurate reflection. Sampled from
     * the profile's quality, degraded by dilution, truncation, and
     * complexity.
     */
    bool good = true;
};

/** Aggregate usage counters of completions (per handle, per backend). */
struct LlmUsage
{
    std::size_t calls = 0;
    long tokens_in = 0;
    long tokens_out = 0;
    double total_latency_s = 0.0;

    /** Fold one completed call in. */
    void
    add(const LlmResponse &resp);

    /** Merge another aggregate in (the single usage-fold definition —
     * every aggregation site uses this, so adding a counter means
     * touching exactly one place). */
    LlmUsage &operator+=(const LlmUsage &other);
};

/**
 * Sample one completion: the response model behind every
 * EngineHandle::complete() (engine_service.h). Latency is RTT (remote
 * only) + prefill + decode at the profile's rates; the prompt is clamped
 * to the context window; quality is the profile's capability axis for
 * the call kind, degraded by dilution, truncation, and complexity. All
 * randomness comes from `rng`, so runs are reproducible. Throws
 * std::invalid_argument when `request.tokens_in` is negative.
 *
 * Draw order from `rng` is part of the determinism contract (tokens_out,
 * RTT if remote, parse_ok, good): batching never draws, so a handle's
 * response stream is the same whatever batch its calls join.
 */
LlmResponse sampleCompletion(const ModelProfile &profile,
                             const LlmRequest &request, sim::Rng &rng);

/** Deterministic latency mean of one completion (no sampling). */
double expectedCompletionLatency(const ModelProfile &profile,
                                 const LlmRequest &request);

/**
 * Deterministic mean completion time of a *batch* (Recommendation 1):
 * summed prefill at batch throughput, decode for the longest stream, one
 * mean RTT for the whole batch. Empty batches cost nothing.
 */
double expectedBatchLatency(const ModelProfile &profile,
                            const std::vector<LlmRequest> &requests);

/**
 * The single definition of the joint-batch cost model, shared by
 * expectedBatchLatency() and the engine service's BatchRecord folds
 * (engine_service.cpp): summed prefill + longest member decode + one
 * mean RTT for remote backends, clamped so a batch never costs more
 * than its members run sequentially
 * (`baseline_s`). A group of one IS the sequential call and keeps its
 * baseline exactly — substituting the mean RTT for a sampled RTT under
 * a one-sided clamp would manufacture savings out of RTT jitter.
 */
double jointBatchTime(int requests, double prefill_s, double max_decode_s,
                      bool remote, double rtt_mean_s, double baseline_s);

} // namespace ebs::llm

#endif // EBS_LLM_ENGINE_H
