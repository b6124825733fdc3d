#ifndef EBS_WORKLOADS_WORKLOAD_H
#define EBS_WORKLOADS_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "env/env.h"

namespace ebs::workloads {

/** The four system paradigms of paper Sec. II (end-to-end systems are
 * profiled separately and not part of the 14-workload suite). */
enum class Paradigm
{
    SingleModular,      ///< Fig. 1b
    MultiCentralized,   ///< Fig. 1d
    MultiDecentralized, ///< Fig. 1e
};

/** Display name of a paradigm. */
const char *paradigmName(Paradigm paradigm);

/**
 * One benchmarked embodied AI system: its module composition (Table II),
 * calibrated agent configuration, environment factory, and default scale.
 */
struct WorkloadSpec
{
    std::string name;
    Paradigm paradigm = Paradigm::SingleModular;

    // Documentation columns of Table II.
    std::string sensing_desc;
    std::string planning_desc;
    std::string comm_desc;
    std::string memory_desc;
    std::string reflection_desc;
    std::string execution_desc;
    std::string tasks_desc;

    /** Environment domain this workload is evaluated on. */
    std::string env_name;

    /** Default team size used in the paper's main experiments. */
    int default_agents = 1;

    /**
     * Fraction of the environment's generic step budget this system is
     * given as its L_max. Environments size budgets for their slowest
     * users; efficient systems are evaluated against proportionally
     * tighter deadlines so the cap is meaningful (as in the paper, where
     * L_max binds for degraded configurations).
     */
    double step_budget_factor = 1.0;

    /** Calibrated agent configuration (GPT-4 backends where Table II
     * says so). */
    core::AgentConfig config;

    /**
     * Build a fresh task instance of the domain env_name names
     * ("household", "craft", "transport", "kitchen", "boxnet",
     * "manipulation" or "boxlift"). Throws std::invalid_argument naming
     * WorkloadSpec::env_name for any other name.
     */
    std::unique_ptr<env::Environment>
    make_env(env::Difficulty difficulty, int n_agents, sim::Rng rng) const;

    /**
     * Run one episode at the given difficulty with the workload's default
     * configuration.
     *
     * @param n_agents team size; -1 uses default_agents. Throws
     *                 std::invalid_argument naming n_agents for 0, a value
     *                 below -1, or a team larger than 1 on a single-agent
     *                 workload.
     */
    core::EpisodeResult run(env::Difficulty difficulty,
                            const core::EpisodeOptions &options,
                            int n_agents = -1) const;

    /** Run with an overridden agent configuration (ablations, Fig. 3/4). */
    core::EpisodeResult runWithConfig(const core::AgentConfig &config_override,
                                      env::Difficulty difficulty,
                                      const core::EpisodeOptions &options,
                                      int n_agents = -1) const;
};

/** The 14-workload suite of paper Table II, in paper order. */
const std::vector<WorkloadSpec> &suite();

/** Lookup by name; throws std::invalid_argument naming an unknown
 * workload. */
const WorkloadSpec &workload(const std::string &name);

// Factories for each system (defined one per .cpp).
WorkloadSpec makeEmbodiedGpt();
WorkloadSpec makeJarvis1();
WorkloadSpec makeDaduE();
WorkloadSpec makeMp5();
WorkloadSpec makeDeps();
WorkloadSpec makeMindAgent();
WorkloadSpec makeOla();
WorkloadSpec makeCoherent();
WorkloadSpec makeCmas();
WorkloadSpec makeCoela();
WorkloadSpec makeCombo();
WorkloadSpec makeRoco();
WorkloadSpec makeDmas();
WorkloadSpec makeHmas();

} // namespace ebs::workloads

#endif // EBS_WORKLOADS_WORKLOAD_H
