#include "runner/run_stats.h"

namespace ebs::runner {

double
RunStats::llmCallsPerEpisode() const
{
    return episodes > 0 ? static_cast<double>(llm_calls) / episodes : 0.0;
}

double
RunStats::tokensPerEpisode() const
{
    return episodes > 0 ? static_cast<double>(tokens) / episodes : 0.0;
}

double
RunStats::specConflictRate() const
{
    return spec_exec.speculated > 0
               ? static_cast<double>(spec_exec.conflicts +
                                     spec_exec.aborted) /
                     static_cast<double>(spec_exec.speculated)
               : 0.0;
}

double
RunStats::specReexecFraction() const
{
    return spec_exec.turns > 0
               ? static_cast<double>(spec_exec.turns -
                                     spec_exec.committed) /
                     static_cast<double>(spec_exec.turns)
               : 0.0;
}

double
RunStats::specExecSpeedup() const
{
    return spec_exec.exec_critical_s > 0.0
               ? spec_exec.exec_total_s / spec_exec.exec_critical_s
               : 1.0;
}

double
RunStats::queueDelayShare() const
{
    return sim_seconds > 0.0 ? batching.queue_delay_s / sim_seconds : 0.0;
}

RunStats
foldEpisodes(std::span<const core::EpisodeResult> episodes)
{
    RunStats out;
    for (const auto &r : episodes) {
        out.success_rate += r.success;
        out.avg_steps += r.steps;
        out.avg_runtime_min += r.sim_seconds / 60.0;
        out.sim_seconds += r.sim_seconds;
        for (const auto &batch : r.llm_batches)
            out.batching.add(batch);
        out.avg_step_latency_s += r.secondsPerStep();
        out.latency.merge(r.latency);
        out.msgs_generated += r.messages_generated;
        out.msgs_useful += r.messages_useful;
        out.llm_calls += static_cast<long long>(r.llm.calls);
        out.tokens += r.llm.tokens_in + r.llm.tokens_out;
        out.spec_exec.turns += r.spec_exec.turns;
        out.spec_exec.speculated += r.spec_exec.speculated;
        out.spec_exec.committed += r.spec_exec.committed;
        out.spec_exec.conflicts += r.spec_exec.conflicts;
        out.spec_exec.aborted += r.spec_exec.aborted;
        out.spec_exec.exec_total_s += r.spec_exec.exec_total_s;
        out.spec_exec.exec_critical_s += r.spec_exec.exec_critical_s;
    }
    out.episodes = static_cast<int>(episodes.size());
    if (out.episodes > 0) {
        out.success_rate /= out.episodes;
        out.avg_steps /= out.episodes;
        out.avg_runtime_min /= out.episodes;
        out.avg_step_latency_s /= out.episodes;
        out.msgs_generated /= out.episodes;
        out.msgs_useful /= out.episodes;
    }
    return out;
}

} // namespace ebs::runner
