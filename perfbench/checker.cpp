#include "checker.h"

#include <cmath>
#include <cstring>

namespace ebs::perfbench {

void
Digest::mix(std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (word >> (8 * i)) & 0xffU;
        hash_ *= 1099511628211ULL;
    }
}

void
Digest::add(const core::EpisodeResult &result)
{
    std::uint64_t seconds_bits = 0;
    static_assert(sizeof(seconds_bits) == sizeof(result.sim_seconds));
    std::memcpy(&seconds_bits, &result.sim_seconds, sizeof(seconds_bits));
    mix(result.success ? 1 : 0);
    mix(static_cast<std::uint64_t>(result.steps));
    mix(seconds_bits);
    mix(result.llm.calls);
    mix(static_cast<std::uint64_t>(result.llm.tokens_in));
    mix(static_cast<std::uint64_t>(result.llm.tokens_out));
}

const char *
invalidReason(const core::EpisodeResult &result, int step_budget)
{
    if (!std::isfinite(result.sim_seconds))
        return "sim_seconds is not finite";
    if (result.sim_seconds < 0.0)
        return "sim_seconds is negative";
    if (result.steps < 1 || result.steps > step_budget)
        return "steps outside [1, step budget]";
    return nullptr;
}

bool
Outcome::record(const core::EpisodeResult &result, int step_budget,
                bool threw)
{
    ++attempted;
    if (threw || invalidReason(result, step_budget) != nullptr) {
        ++failed;
        return false;
    }
    return true;
}

bool
Outcome::settleSet(const Outcome &at_start, std::uint64_t got,
                   std::uint64_t want)
{
    if (got == want)
        return true;
    const long long episodes = attempted - at_start.attempted;
    const long long already = failed - at_start.failed;
    failed += episodes - already;
    return false;
}

} // namespace ebs::perfbench
