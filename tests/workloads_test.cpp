#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "envs/boxlift_env.h"
#include "envs/boxnet_env.h"
#include "envs/craft_env.h"
#include "envs/household_env.h"
#include "envs/kitchen_env.h"
#include "envs/manipulation_env.h"
#include "envs/transport_env.h"
#include "workloads/workload.h"

namespace ebs::workloads {
namespace {

TEST(Suite, HasFourteenWorkloads)
{
    EXPECT_EQ(suite().size(), 14u);
}

TEST(Suite, NamesAreUniqueAndLookupWorks)
{
    std::set<std::string> names;
    for (const auto &spec : suite()) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate workload " << spec.name;
        EXPECT_EQ(&workload(spec.name), &spec);
    }
}

TEST(Workloads, UnknownNameThrows)
{
    EXPECT_THROW(workload("NoSuchSystem"), std::invalid_argument);
    try {
        (void)workload("NoSuchSystem");
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("NoSuchSystem"),
                  std::string::npos)
            << e.what();
    }
}

/** The concrete class of `environment` is the domain `env_name` names. */
bool
isDomain(const env::Environment &environment, const std::string &env_name)
{
    const env::Environment *e = &environment;
    if (env_name == "household")
        return dynamic_cast<const envs::HouseholdEnv *>(e) != nullptr;
    if (env_name == "craft")
        return dynamic_cast<const envs::CraftEnv *>(e) != nullptr;
    if (env_name == "transport")
        return dynamic_cast<const envs::TransportEnv *>(e) != nullptr;
    if (env_name == "kitchen")
        return dynamic_cast<const envs::KitchenEnv *>(e) != nullptr;
    if (env_name == "boxnet")
        return dynamic_cast<const envs::BoxNetEnv *>(e) != nullptr;
    if (env_name == "manipulation")
        return dynamic_cast<const envs::ManipulationEnv *>(e) != nullptr;
    if (env_name == "boxlift")
        return dynamic_cast<const envs::BoxLiftEnv *>(e) != nullptr;
    return false;
}

TEST(Workloads, MakeEnvBuildsTheDomainEnvNameNames)
{
    std::set<std::string> domains;
    for (const auto &spec : suite()) {
        const auto environment =
            spec.make_env(env::Difficulty::Easy, spec.default_agents,
                          sim::Rng(3));
        ASSERT_NE(environment, nullptr) << spec.name;
        EXPECT_TRUE(isDomain(*environment, spec.env_name))
            << spec.name << " built no " << spec.env_name << " environment";
        EXPECT_EQ(environment->world().agentCount(), spec.default_agents)
            << spec.name;
        domains.insert(spec.env_name);
    }
    EXPECT_EQ(domains.size(), 7u); // the paper's seven task domains

    WorkloadSpec spec = workload("CoELA");
    for (const char *bad : {"", "Transport", "warehouse", "no-such-domain"}) {
        spec.env_name = bad;
        try {
            (void)spec.make_env(env::Difficulty::Easy, 2, sim::Rng(3));
            ADD_FAILURE() << "env_name \"" << bad << "\" built a domain";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("WorkloadSpec::env_name"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Suite, ParadigmCountsMatchPaper)
{
    int single = 0, central = 0, decentral = 0;
    for (const auto &spec : suite()) {
        switch (spec.paradigm) {
          case Paradigm::SingleModular:
            ++single;
            break;
          case Paradigm::MultiCentralized:
            ++central;
            break;
          case Paradigm::MultiDecentralized:
            ++decentral;
            break;
        }
    }
    EXPECT_EQ(single, 5);    // EmbodiedGPT, JARVIS-1, DaDu-E, MP5, DEPS
    EXPECT_EQ(central, 4);   // MindAgent, OLA, COHERENT, CMAS
    EXPECT_EQ(decentral, 5); // CoELA, COMBO, RoCo, DMAS, HMAS
}

TEST(Suite, TableIiModuleCompositions)
{
    // Spot-check the module composition columns of Table II.
    const auto &coela = workload("CoELA");
    EXPECT_TRUE(coela.config.has_communication);
    EXPECT_FALSE(coela.config.has_reflection);
    EXPECT_TRUE(coela.config.llm_action_selection);

    const auto &jarvis = workload("JARVIS-1");
    EXPECT_FALSE(jarvis.config.has_communication);
    EXPECT_TRUE(jarvis.config.has_memory);
    EXPECT_TRUE(jarvis.config.has_reflection);

    const auto &mp5 = workload("MP5");
    EXPECT_FALSE(mp5.config.has_memory);
    EXPECT_TRUE(mp5.config.has_reflection);

    const auto &mindagent = workload("MindAgent");
    EXPECT_FALSE(mindagent.config.has_sensing);
    EXPECT_FALSE(mindagent.config.has_reflection);

    const auto &embodied_gpt = workload("EmbodiedGPT");
    EXPECT_FALSE(embodied_gpt.config.has_memory);
    EXPECT_FALSE(embodied_gpt.config.has_reflection);
    EXPECT_FALSE(embodied_gpt.config.has_communication);
}

TEST(Suite, BackendsMatchTableIi)
{
    EXPECT_TRUE(workload("JARVIS-1").config.planner_model.remote); // GPT-4
    EXPECT_FALSE(workload("DaDu-E").config.planner_model.remote); // Llama-8B
    EXPECT_FALSE(workload("COMBO").config.planner_model.remote); // LLaVA-7B
    EXPECT_FALSE(
        workload("EmbodiedGPT").config.planner_model.remote); // Llama-7B
    EXPECT_TRUE(workload("RoCo").config.planner_model.remote);
}

TEST(Suite, SingleAgentWorkloadsForceOneAgent)
{
    // A single-agent system runs one agent for the default team (-1) and
    // for an explicit 1; a larger team is rejected (RejectsBadAgentCount).
    const auto &spec = workload("JARVIS-1");
    core::EpisodeOptions options;
    options.seed = 1;
    options.max_steps_override = 2;
    options.record_tokens = true;
    for (const int n_agents : {-1, 1}) {
        const auto result = spec.run(env::Difficulty::Easy, options, n_agents);
        EXPECT_GT(result.steps, 0);
        ASSERT_FALSE(result.token_series.empty());
        for (const auto &sample : result.token_series)
            EXPECT_EQ(sample.agent, 0) << n_agents;
    }
}

TEST(Suite, RejectsBadAgentCount)
{
    // 0 and values below -1 are errors, not requests for the default
    // team, and a team on a single-agent system is an error, not one
    // agent.
    const struct
    {
        const char *system;
        int n_agents;
    } cases[] = {{"MindAgent", 0}, {"MindAgent", -2}, {"JARVIS-1", 0},
                 {"JARVIS-1", -3}, {"JARVIS-1", 2}, {"JARVIS-1", 4}};
    core::EpisodeOptions options;
    options.seed = 1;
    options.max_steps_override = 2;
    for (const auto &c : cases) {
        try {
            workload(c.system).run(env::Difficulty::Easy, options, c.n_agents);
            ADD_FAILURE() << c.system << " ran with n_agents " << c.n_agents;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("n_agents"),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Every registered workload's environment, at every difficulty, carries a
 * room-anchor table equal to the reference scan of its final grid. */
TEST(Suite, RoomAnchorTablesMatchScanForEveryEnvironment)
{
    for (const auto &spec : suite()) {
        for (const auto difficulty :
             {env::Difficulty::Easy, env::Difficulty::Medium,
              env::Difficulty::Hard}) {
            const auto environment =
                spec.make_env(difficulty, spec.default_agents, sim::Rng(11));
            const env::GridMap &grid = environment->world().grid();
            const auto table = env::roomAnchorTable(grid);
            ASSERT_EQ(table.size(),
                      static_cast<std::size_t>(grid.roomCount()));
            for (int room = 0; room < grid.roomCount(); ++room) {
                const env::Vec2i want = env::scanRoomAnchor(grid, room);
                EXPECT_EQ(table[static_cast<std::size_t>(room)], want)
                    << spec.name << " room " << room;
                EXPECT_EQ(environment->roomAnchor(room), want)
                    << spec.name << " room " << room;
            }
        }
    }
}

/** Every workload runs an easy episode without tripping assertions and
 * produces sane accounting. */
class SuiteRunSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteRunSweep, EasyEpisodeIsSane)
{
    const auto &spec = suite()[static_cast<std::size_t>(GetParam())];
    core::EpisodeOptions options;
    options.seed = 42;
    const auto result = spec.run(env::Difficulty::Easy, options);

    EXPECT_GT(result.steps, 0);
    EXPECT_GT(result.sim_seconds, 0.0);
    EXPECT_GT(result.llm.calls, 0u);
    EXPECT_GE(result.final_progress, 0.0);
    EXPECT_LE(result.final_progress, 1.0);
    // LLM-based modules are the dominant latency contributors (paper
    // Takeaway 1: ~70% on average; allow a broad band per system).
    const double llm_share =
        result.latency.fraction(stats::ModuleKind::Planning) +
        result.latency.fraction(stats::ModuleKind::Communication) +
        result.latency.fraction(stats::ModuleKind::Reflection);
    EXPECT_GT(llm_share, 0.2);
    EXPECT_LT(llm_share, 1.0);
}

TEST_P(SuiteRunSweep, EasyMostlySucceedsAcrossSeeds)
{
    const auto &spec = suite()[static_cast<std::size_t>(GetParam())];
    int ok = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        core::EpisodeOptions options;
        options.seed = seed;
        ok += spec.run(env::Difficulty::Easy, options).success;
    }
    // State-of-the-art systems complete their easy benchmark tasks most of
    // the time.
    EXPECT_GE(ok, 3) << spec.name;
}

TEST_P(SuiteRunSweep, DeterministicForSameSeed)
{
    const auto &spec = suite()[static_cast<std::size_t>(GetParam())];
    core::EpisodeOptions options;
    options.seed = 77;
    options.max_steps_override = 6;
    const auto a = spec.run(env::Difficulty::Easy, options);
    const auto b = spec.run(env::Difficulty::Easy, options);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.success, b.success);
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.llm.tokens_in, b.llm.tokens_in);
}

INSTANTIATE_TEST_SUITE_P(All14, SuiteRunSweep, ::testing::Range(0, 14),
                         [](const auto &info) {
                             std::string name =
                                 suite()[static_cast<std::size_t>(info.param)]
                                     .name;
                             for (auto &ch : name)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(ch)))
                                     ch = '_';
                             return name;
                         });

} // namespace
} // namespace ebs::workloads
