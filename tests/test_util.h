#ifndef EBS_TESTS_TEST_UTIL_H
#define EBS_TESTS_TEST_UTIL_H

#include <string>

#include <gtest/gtest.h>

#include "core/episode.h"
#include "env/env.h"
#include "plan/controller.h"
#include "stats/module_kind.h"

namespace ebs::test {

/** Every path-query work counter of two episodes must match exactly. */
inline void
expectPathWorkIdentical(const env::PathWork &a, const env::PathWork &b)
{
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.searches, b.searches);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.fast_rejections, b.fast_rejections);
    EXPECT_EQ(a.expanded, b.expanded);
    EXPECT_EQ(a.flood_cells, b.flood_cells);
}

/**
 * Every *simulated-result* field of two EpisodeResults must match
 * exactly — bitwise for the doubles — including the path-query work.
 * The speculative-execute tests compare a run with speculation on
 * against one with it off this way: speculation analyses the one serial
 * run, so only its own tallies (`spec_exec`) may differ.
 *
 * Deliberately excluded: `llm_batches`, which is service telemetry, not
 * a simulated result; its own worker-count determinism is asserted
 * separately
 * (EngineService.BatchAssemblyIsDeterministicAcrossWorkerCounts).
 */
inline void
expectSameSimulation(const core::EpisodeResult &a,
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
    expectPathWorkIdentical(a.path_work, b.path_work);
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
 * expectSameSimulation plus the speculation tallies: two runs of the
 * same options must agree on everything, at any worker count, pool size
 * or tracing setting. Shared by runner_test, engine_service_test and
 * the other determinism tests.
 */
inline void
expectEpisodeIdentical(const core::EpisodeResult &a,
                       const core::EpisodeResult &b)
{
    expectSameSimulation(a, b);
    EXPECT_EQ(a.spec_exec.turns, b.spec_exec.turns);
    EXPECT_EQ(a.spec_exec.speculated, b.spec_exec.speculated);
    EXPECT_EQ(a.spec_exec.committed, b.spec_exec.committed);
    EXPECT_EQ(a.spec_exec.conflicts, b.spec_exec.conflicts);
    EXPECT_EQ(a.spec_exec.aborted, b.spec_exec.aborted);
    EXPECT_EQ(a.spec_exec.exec_total_s, b.spec_exec.exec_total_s);
    EXPECT_EQ(a.spec_exec.exec_critical_s, b.spec_exec.exec_critical_s);
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
