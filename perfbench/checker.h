#ifndef EBS_PERFBENCH_CHECKER_H
#define EBS_PERFBENCH_CHECKER_H

#include <cstdint>

#include "core/episode.h"

namespace ebs::perfbench {

/**
 * Order-sensitive FNV-1a digest over the deterministic outputs of a
 * sequence of episodes: success, steps, the bit pattern of sim_seconds,
 * and LLM calls and tokens. Any perf change must leave it unchanged, at
 * any worker count and with tracing on or off.
 */
class Digest
{
  public:
    void add(const core::EpisodeResult &result);
    std::uint64_t value() const { return hash_; }

  private:
    void mix(std::uint64_t word);

    std::uint64_t hash_ = 14695981039346656037ULL;
};

/** Why one episode's output breaks an invariant, or nullptr when it is
 * valid: `sim_seconds` finite and nonnegative, `steps` in [1, budget]. */
const char *invalidReason(const core::EpisodeResult &result,
                          int step_budget);

/**
 * Attempted and failed episode counts behind `failed_frac`. An episode
 * fails when it throws, breaks an invariant, or belongs to a set whose
 * digest mismatches. A failure is counted; it never aborts the run.
 */
struct Outcome
{
    long long attempted = 0;
    long long failed = 0;

    /** Count one episode; returns false when it failed. */
    bool record(const core::EpisodeResult &result, int step_budget,
                bool threw);

    /**
     * Close a digest-checked set: the episodes counted since `at_start`
     * was copied. On a mismatch every one of them that had not already
     * failed is counted failed. Returns whether the digests matched.
     */
    bool settleSet(const Outcome &at_start, std::uint64_t got,
                   std::uint64_t want);

    double
    failedFrac() const
    {
        return attempted > 0 ? static_cast<double>(failed) / attempted
                             : 0.0;
    }
};

} // namespace ebs::perfbench

#endif // EBS_PERFBENCH_CHECKER_H
