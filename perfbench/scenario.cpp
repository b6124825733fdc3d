#include "scenario.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "stats/host_clock.h"

namespace ebs::perfbench {

namespace {

constexpr env::Difficulty kAllDifficulties[] = {
    env::Difficulty::Easy, env::Difficulty::Medium, env::Difficulty::Hard};

/** Fig. 7's systems: one centralized, two decentralized. */
constexpr const char *kScaleSystems[] = {"COMBO", "CoELA", "MindAgent"};

int
stepBudget(const Variant &variant)
{
    // Budgets come from per-(domain, difficulty) layouts, so any seed's
    // environment gives the same number.
    const auto environment = variant.spec->make_env(
        variant.difficulty, teamSize(variant), sim::Rng(1).fork(7));
    const int max_steps = environment->task().maxSteps();
    if (variant.spec->step_budget_factor < 1.0)
        return std::max(5, static_cast<int>(max_steps *
                                            variant.spec->step_budget_factor));
    return max_steps;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-episode slot the job wrapper fills from whichever thread ran it. */
struct Slot
{
    double host_s = 0.0;
    std::string error; ///< what the episode threw; empty when it returned
    obs::EpisodeTraceLog *trace = nullptr;
};

runner::EpisodeJob
makeJob(const Scenario &scenario, const Variant &variant,
        std::uint64_t seed, Services &services, Slot &slot)
{
    runner::EpisodeJob job;
    job.workload = variant.spec;
    job.config = variant.spec->config;
    job.difficulty = variant.difficulty;
    job.seed = seed;
    job.n_agents = variant.n_agents;
    job.pipeline = scenario.pipeline;
    job.engine_service = &services.engine;
    job.scheduler = &services.scheduler;
    job.phase_wall = &services.phase_wall;
    job.tracer = &services.tracer;
    // The custom entry point runs the same workload path as a plain job,
    // plus the per-episode timer, exception capture and trace log.
    job.custom = [&variant, &slot](const core::EpisodeOptions &options) {
        core::EpisodeOptions traced = options;
        traced.trace = slot.trace;
        core::EpisodeResult result;
        const double begin = stats::hostNow();
        try {
            result = variant.spec->runWithConfig(variant.spec->config,
                                                 variant.difficulty, traced,
                                                 variant.n_agents);
        } catch (const std::exception &failure) {
            slot.error = failure.what();
        } catch (...) {
            slot.error = "unknown exception";
        }
        slot.host_s = stats::hostNow() - begin;
        return result;
    };
    return job;
}

} // namespace

const std::vector<std::string> &
scenarioNames()
{
    static const std::vector<std::string> kNames = {
        "paper_suite", "team_scale", "pipeline_opts"};
    return kNames;
}

int
teamSize(const Variant &variant)
{
    if (variant.spec->paradigm == workloads::Paradigm::SingleModular)
        return 1;
    return variant.n_agents > 0 ? variant.n_agents
                                : variant.spec->default_agents;
}

Scenario
makeScenario(const std::string &name)
{
    Scenario scenario;
    scenario.name = name;
    if (name == "paper_suite") {
        // Table II traffic: every system at every difficulty, defaults.
        for (const auto &spec : workloads::suite())
            for (const env::Difficulty difficulty : kAllDifficulties)
                scenario.variants.push_back({&spec, difficulty, -1, 0});
        scenario.rounds_per_chunk = 4;
        scenario.warmup_rounds = 3;
        scenario.reference_digest = 0x239782c02097129eULL;
    } else if (name == "team_scale") {
        // Fig. 7 traffic: team growth under the default serial pipeline.
        for (const char *system : kScaleSystems)
            for (const int agents : {12, 8, 4})
                scenario.variants.push_back({&workloads::workload(system),
                                             env::Difficulty::Medium,
                                             agents, 0});
        scenario.rounds_per_chunk = 4;
        scenario.warmup_rounds = 4;
        scenario.reference_digest = 0x32ef60d8cc918114ULL;
    } else if (name == "pipeline_opts") {
        // Every Sec. V-D switch on: the only workload that runs
        // speculation, buffered agent turns and plan reuse. One client,
        // like the others: on a shared 4-core machine a 3-thread pool
        // spread 2-4x wider than the serial workloads (episode_ms.p99
        // IQR/median up to 0.54), past any bound the benchmark may set.
        for (const int agents : {12, 8})
            for (const char *system : kScaleSystems)
                scenario.variants.push_back({&workloads::workload(system),
                                             env::Difficulty::Medium,
                                             agents, 0});
        scenario.pipeline.parallel_agents = true;
        scenario.pipeline.speculative_execute = true;
        scenario.pipeline.batch_llm_calls = true;
        scenario.pipeline.comm_on_demand = true;
        scenario.pipeline.plan_every_k = 2;
        scenario.pipeline.context_compression = 0.5;
        scenario.rounds_per_chunk = 4;
        scenario.warmup_rounds = 4;
        scenario.reference_digest = 0xef19523bcd8513f7ULL;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    for (Variant &variant : scenario.variants)
        variant.step_budget = stepBudget(variant);
    return scenario;
}

std::uint64_t
episodeSeed(std::uint64_t run_seed, long long round, std::size_t variant)
{
    return splitmix(splitmix(splitmix(run_seed) ^
                             static_cast<std::uint64_t>(round)) ^
                    variant);
}

Services::Services(int threads)
    // The caller helps execute its batch, so the pool adds threads - 1.
    : scheduler(std::max(1, threads - 1)),
      runner(threads, &scheduler, &tracer)
{
}

void
runRounds(const Scenario &scenario, Services &services,
          std::uint64_t run_seed, long long first, int count, bool traced,
          const EpisodeSink &sink)
{
    const std::size_t per_round = scenario.variants.size();
    const std::size_t total = per_round * static_cast<std::size_t>(count);
    std::vector<Slot> slots(total);
    std::vector<obs::EpisodeTraceLog> logs;
    if (traced) {
        logs.reserve(total);
        for (std::size_t i = 0; i < total; ++i) {
            logs.emplace_back(i + 1);
            slots[i].trace = &logs[i];
        }
    }

    // Variant-major order; the recorded digests fold episodes in it.
    std::vector<runner::EpisodeJob> jobs;
    jobs.reserve(total);
    for (std::size_t v = 0; v < per_round; ++v)
        for (int r = 0; r < count; ++r)
            jobs.push_back(makeJob(scenario, scenario.variants[v],
                                   episodeSeed(run_seed, first + r, v),
                                   services, slots[jobs.size()]));

    // A one-thread runner runs the batch in order on the calling thread.
    const std::vector<core::EpisodeResult> results = services.runner.run(jobs);

    for (std::size_t i = 0; i < total; ++i)
        sink({&scenario.variants[i / static_cast<std::size_t>(count)],
              &results[i], slots[i].host_s,
              slots[i].error.empty() ? nullptr : slots[i].error.c_str(),
              slots[i].trace});
}

} // namespace ebs::perfbench
