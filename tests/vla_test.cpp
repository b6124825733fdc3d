#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/vla.h"
#include "envs/craft_env.h"
#include "envs/manipulation_env.h"

namespace ebs::core {
namespace {

TEST(VlaProfile, PresetsAreDistinctAndSane)
{
    const auto rt2 = VlaProfile::rt2();
    const auto octo = VlaProfile::octo();
    const auto diffusion = VlaProfile::diffusionPolicy();
    // The 55B model runs slower than the small policies.
    EXPECT_GT(rt2.tick_latency_mean_s, octo.tick_latency_mean_s);
    EXPECT_GT(rt2.tick_latency_mean_s, diffusion.tick_latency_mean_s);
    // ...but generalizes better per primitive.
    EXPECT_GE(rt2.primitive_quality, octo.primitive_quality);
    for (const auto &p : {rt2, octo, diffusion}) {
        EXPECT_GT(p.primitive_quality, 0.0);
        EXPECT_LE(p.primitive_quality, 1.0);
        EXPECT_GT(p.horizon_decay, 0.0);
        EXPECT_LT(p.horizon_decay, 1.0);
        EXPECT_FALSE(p.name.empty());
    }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** A 3-tick end-to-end episode of RT-2 with `member` set to `value`. */
EpisodeResult
runWith(double VlaProfile::*member, double value)
{
    envs::ManipulationEnv environment(env::Difficulty::Easy, 1,
                                      sim::Rng(1).fork(7));
    VlaProfile profile = VlaProfile::rt2();
    profile.*member = value;
    EpisodeOptions options;
    options.seed = 1;
    options.max_steps_override = 3;
    return runEndToEnd(environment, profile, options);
}

/** Each of `bad` is rejected at entry naming `field`; each of `good` runs. */
void
expectValidated(double VlaProfile::*member, const std::string &field,
                std::initializer_list<double> bad,
                std::initializer_list<double> good)
{
    for (const double value : bad) {
        try {
            (void)runWith(member, value);
            ADD_FAILURE() << field << " = " << value << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("VlaProfile::" + field),
                      std::string::npos)
                << e.what();
        }
    }
    for (const double value : good) {
        const EpisodeResult r = runWith(member, value);
        EXPECT_TRUE(std::isfinite(r.sim_seconds)) << field << " = " << value;
        EXPECT_GE(r.sim_seconds, 0.0) << field << " = " << value;
    }
}

TEST(EndToEndValidation, LatenciesMustBeFiniteAndPositive)
{
    expectValidated(&VlaProfile::tick_latency_mean_s, "tick_latency_mean_s",
                    {-0.3, 0.0, kNan, kInf}, {1e-6, 0.33});
    expectValidated(&VlaProfile::actuation_s, "actuation_s",
                    {-0.5, 0.0, kNan, kInf}, {1e-6, 0.5});
}

TEST(EndToEndValidation, JitterAndMotionTimeMustBeFiniteAndNonnegative)
{
    expectValidated(&VlaProfile::tick_latency_cv, "tick_latency_cv",
                    {-0.2, kNan, kInf}, {0.0, 0.2});
    expectValidated(&VlaProfile::move_per_cell_s, "move_per_cell_s",
                    {-0.12, kNan, kInf}, {0.0, 0.12});
}

TEST(EndToEndValidation, QualitiesMustLieInUnitInterval)
{
    for (const auto &[member, field] :
         {std::pair{&VlaProfile::primitive_quality, "primitive_quality"},
          std::pair{&VlaProfile::horizon_decay, "horizon_decay"},
          std::pair{&VlaProfile::out_of_sight_follow,
                    "out_of_sight_follow"}})
        expectValidated(member, field, {-0.1, 1.0000001, 7.0, kNan, kInf},
                        {0.0, 1.0});
}

TEST(EndToEnd, SolvesShortHorizonManipulation)
{
    int ok = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        envs::ManipulationEnv environment(env::Difficulty::Easy, 1,
                                          sim::Rng(seed).fork(7));
        EpisodeOptions options;
        options.seed = seed;
        const auto r =
            runEndToEnd(environment, VlaProfile::rt2(), options);
        ok += r.success;
        EXPECT_GT(r.steps, 0);
        EXPECT_GT(r.sim_seconds, 0.0);
    }
    EXPECT_GE(ok, 4);
}

TEST(EndToEnd, FailsLongHorizonCrafting)
{
    int ok = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        envs::CraftEnv environment(env::Difficulty::Medium, 1,
                                   sim::Rng(seed).fork(7));
        EpisodeOptions options;
        options.seed = seed;
        ok += runEndToEnd(environment, VlaProfile::rt2(), options).success;
    }
    // The reactive paradigm cannot sustain the tech-tree dependency chain.
    EXPECT_LE(ok, 1);
}

TEST(EndToEnd, PerDecisionLatencyIsTiny)
{
    envs::ManipulationEnv environment(env::Difficulty::Easy, 1,
                                      sim::Rng(3).fork(7));
    EpisodeOptions options;
    options.seed = 3;
    const auto r = runEndToEnd(environment, VlaProfile::octo(), options);
    ASSERT_GT(r.steps, 0);
    EXPECT_LT(r.secondsPerStep(), 1.0); // vs ~10 s for the modular agent
}

TEST(EndToEnd, DeterministicForSameSeed)
{
    EpisodeOptions options;
    options.seed = 9;
    envs::ManipulationEnv env_a(env::Difficulty::Easy, 1,
                                sim::Rng(9).fork(7));
    envs::ManipulationEnv env_b(env::Difficulty::Easy, 1,
                                sim::Rng(9).fork(7));
    const auto a = runEndToEnd(env_a, VlaProfile::rt2(), options);
    const auto b = runEndToEnd(env_b, VlaProfile::rt2(), options);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(EndToEnd, RespectsTickBudgetOverride)
{
    envs::CraftEnv environment(env::Difficulty::Hard, 1,
                               sim::Rng(5).fork(7));
    EpisodeOptions options;
    options.seed = 5;
    options.max_steps_override = 20;
    const auto r =
        runEndToEnd(environment, VlaProfile::octo(), options);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.steps, 20);
}

TEST(EndToEnd, LatencyChargedToPlanningAndExecution)
{
    envs::ManipulationEnv environment(env::Difficulty::Easy, 1,
                                      sim::Rng(7).fork(7));
    EpisodeOptions options;
    options.seed = 7;
    const auto r = runEndToEnd(environment, VlaProfile::rt2(), options);
    EXPECT_GT(r.latency.total(stats::ModuleKind::Planning), 0.0);
    // No modular machinery ran.
    EXPECT_DOUBLE_EQ(r.latency.total(stats::ModuleKind::Memory), 0.0);
    EXPECT_DOUBLE_EQ(r.latency.total(stats::ModuleKind::Communication),
                     0.0);
    EXPECT_DOUBLE_EQ(r.latency.total(stats::ModuleKind::Reflection), 0.0);
}

} // namespace
} // namespace ebs::core
