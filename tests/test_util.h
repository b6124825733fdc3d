#ifndef EBS_TESTS_TEST_UTIL_H
#define EBS_TESTS_TEST_UTIL_H

#include <string>

#include <gtest/gtest.h>

#include "core/episode.h"
#include "env/env.h"
#include "plan/controller.h"
#include "stats/module_kind.h"

namespace ebs::test {

/**
 * Every *simulated-result* field of two EpisodeResults must match
 * exactly — bitwise for the doubles, since the parallel episode runner
 * promises results bit-identical to the serial run. Shared by
 * runner_test, engine_service_test and the other determinism tests.
 *
 * Deliberately excluded: `llm_batches`, which is service telemetry, not
 * a simulated result; its own worker-count determinism is asserted
 * separately
 * (EngineService.BatchAssemblyIsDeterministicAcrossWorkerCounts).
 */
inline void
expectEpisodeIdentical(const core::EpisodeResult &a,
                       const core::EpisodeResult &b)
{
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.final_progress, b.final_progress);
    for (std::size_t k = 0; k < stats::kNumModuleKinds; ++k) {
        const auto kind = static_cast<stats::ModuleKind>(k);
        EXPECT_EQ(a.latency.total(kind), b.latency.total(kind));
        EXPECT_EQ(a.latency.count(kind), b.latency.count(kind));
    }
    EXPECT_EQ(a.llm.calls, b.llm.calls);
    EXPECT_EQ(a.llm.tokens_in, b.llm.tokens_in);
    EXPECT_EQ(a.llm.tokens_out, b.llm.tokens_out);
    EXPECT_EQ(a.llm.total_latency_s, b.llm.total_latency_s);
    EXPECT_EQ(a.messages_generated, b.messages_generated);
    EXPECT_EQ(a.messages_useful, b.messages_useful);
    ASSERT_EQ(a.token_series.size(), b.token_series.size());
    for (std::size_t i = 0; i < a.token_series.size(); ++i) {
        EXPECT_EQ(a.token_series[i].step, b.token_series[i].step);
        EXPECT_EQ(a.token_series[i].agent, b.token_series[i].agent);
        EXPECT_EQ(a.token_series[i].plan_tokens,
                  b.token_series[i].plan_tokens);
        EXPECT_EQ(a.token_series[i].message_tokens,
                  b.token_series[i].message_tokens);
    }
}

/**
 * Scripted oracle rollout: every agent executes the first useful subgoal
 * from the environment's oracle each step, with perfect knowledge and no
 * LLM in the loop. Used to prove tasks are solvable and oracles are
 * coherent: if this fails, the environment (not the agent model) is broken.
 *
 * @return number of steps used, or -1 if the step cap was hit.
 */
inline int
oracleRollout(env::Environment &environment, int max_steps = 0)
{
    const int cap = max_steps > 0 ? max_steps : environment.task().maxSteps();
    for (int step = 0; step < cap; ++step) {
        environment.beginStep();
        for (int a = 0; a < environment.world().agentCount(); ++a) {
            auto useful = environment.usefulSubgoals(a);
            if (useful.empty())
                continue;
            // Deterministic: spread agents across the useful list so they
            // do not all chase the same object.
            const auto &sg = useful[static_cast<std::size_t>(a) %
                                    useful.size()];
            const auto compiled = plan::compileSubgoal(environment, a, sg);
            if (!compiled.feasible)
                continue;
            for (const auto &prim : compiled.prims)
                if (!environment.applyPrimitive(a, prim).ok)
                    break;
        }
        if (environment.task().satisfied(environment.world()))
            return step + 1;
    }
    return -1;
}

} // namespace ebs::test

#endif // EBS_TESTS_TEST_UTIL_H
