#include "workloads/workload.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "envs/boxlift_env.h"
#include "envs/boxnet_env.h"
#include "envs/craft_env.h"
#include "envs/household_env.h"
#include "envs/kitchen_env.h"
#include "envs/manipulation_env.h"
#include "envs/transport_env.h"

namespace ebs::workloads {

const char *
paradigmName(Paradigm paradigm)
{
    switch (paradigm) {
      case Paradigm::SingleModular:
        return "Single-Agent Modularized";
      case Paradigm::MultiCentralized:
        return "Multi-Agent Centralized";
      case Paradigm::MultiDecentralized:
        return "Multi-Agent Decentralized";
    }
    return "?";
}

namespace {

template <typename Env>
std::unique_ptr<env::Environment>
build(env::Difficulty difficulty, int n_agents, sim::Rng rng)
{
    return std::make_unique<Env>(difficulty, n_agents, rng);
}

/** The task domains of the suite, by env_name. */
constexpr std::pair<const char *, decltype(&build<envs::CraftEnv>)>
    kDomains[] = {
        {"household", &build<envs::HouseholdEnv>},
        {"craft", &build<envs::CraftEnv>},
        {"transport", &build<envs::TransportEnv>},
        {"kitchen", &build<envs::KitchenEnv>},
        {"boxnet", &build<envs::BoxNetEnv>},
        {"manipulation", &build<envs::ManipulationEnv>},
        {"boxlift", &build<envs::BoxLiftEnv>},
};

} // namespace

std::unique_ptr<env::Environment>
WorkloadSpec::make_env(env::Difficulty difficulty, int n_agents,
                       sim::Rng rng) const
{
    for (const auto &[domain, builder] : kDomains)
        if (env_name == domain)
            return builder(difficulty, n_agents, rng);
    throw std::invalid_argument("WorkloadSpec::env_name of " + name +
                                " names no domain, got \"" + env_name +
                                "\"");
}

core::EpisodeResult
WorkloadSpec::run(env::Difficulty difficulty,
                  const core::EpisodeOptions &options, int n_agents) const
{
    return runWithConfig(config, difficulty, options, n_agents);
}

core::EpisodeResult
WorkloadSpec::runWithConfig(const core::AgentConfig &config_override,
                            env::Difficulty difficulty,
                            const core::EpisodeOptions &options,
                            int n_agents) const
{
    if (n_agents == 0 || n_agents < -1)
        throw std::invalid_argument(
            "n_agents must be -1 (the workload default) or >= 1, got " +
            std::to_string(n_agents));
    if (paradigm == Paradigm::SingleModular && n_agents > 1)
        throw std::invalid_argument(
            "n_agents must be 1 or -1 for the single-agent workload " + name +
            ", got " + std::to_string(n_agents));
    const int agents = n_agents > 0 ? n_agents : default_agents;

    sim::Rng env_rng = sim::Rng(options.seed).fork(7);
    const auto environment = make_env(difficulty, agents, env_rng);

    core::EpisodeOptions effective = options;
    if (effective.max_steps_override <= 0 && step_budget_factor < 1.0) {
        effective.max_steps_override = std::max(
            5, static_cast<int>(environment->task().maxSteps() *
                                step_budget_factor));
    }

    switch (paradigm) {
      case Paradigm::SingleModular:
        return core::runSingleAgent(*environment, config_override, effective);
      case Paradigm::MultiCentralized:
        return core::runCentralized(*environment, config_override, effective);
      case Paradigm::MultiDecentralized:
        return core::runDecentralized(*environment, config_override,
                                      effective);
    }
    return {};
}

const std::vector<WorkloadSpec> &
suite()
{
    static const std::vector<WorkloadSpec> kSuite = [] {
        std::vector<WorkloadSpec> all;
        all.push_back(makeEmbodiedGpt());
        all.push_back(makeJarvis1());
        all.push_back(makeDaduE());
        all.push_back(makeMp5());
        all.push_back(makeDeps());
        all.push_back(makeMindAgent());
        all.push_back(makeOla());
        all.push_back(makeCoherent());
        all.push_back(makeCmas());
        all.push_back(makeCoela());
        all.push_back(makeCombo());
        all.push_back(makeRoco());
        all.push_back(makeDmas());
        all.push_back(makeHmas());
        return all;
    }();
    return kSuite;
}

const WorkloadSpec &
workload(const std::string &name)
{
    for (const auto &spec : suite())
        if (spec.name == name)
            return spec;
    throw std::invalid_argument("unknown workload \"" + name + "\"");
}

} // namespace ebs::workloads
