#ifndef EBS_PERFBENCH_SCENARIO_H
#define EBS_PERFBENCH_SCENARIO_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "llm/engine_service.h"
#include "obs/trace.h"
#include "runner/episode_runner.h"
#include "sched/fleet_scheduler.h"
#include "stats/phase_wall.h"
#include "workloads/workload.h"

namespace ebs::perfbench {

/** One (system, difficulty, team size) cell of a workload's episode mix. */
struct Variant
{
    const workloads::WorkloadSpec *spec = nullptr;
    env::Difficulty difficulty = env::Difficulty::Medium;
    int n_agents = -1;   ///< -1 = the system's default team
    int step_budget = 0; ///< L_max an episode of this cell may use
};

/**
 * One benchmark workload. Episodes are generated in rounds — one episode
 * per variant — so every timing chunk holds the same mix.
 */
struct Scenario
{
    std::string name;
    std::vector<Variant> variants;
    core::PipelineOptions pipeline;
    int rounds_per_chunk = 1; ///< one chunk = one timing sample / batch
    int warmup_rounds = 1;    ///< reference rounds run during set-up
    /** Digest of the warm-up rounds, recorded with the benchmark. */
    std::uint64_t reference_digest = 0;
};

/** Seed of the warm-up rounds whose digest is recorded with each
 * workload (Scenario::reference_digest). */
inline constexpr std::uint64_t kReferenceSeed = 20250301;

/** Threads of the traced run's pooled pass: the helping caller and two
 * workers, the smallest pool on which the coordinator also fans each
 * episode's agents out (it stays inline on a one-worker pool). */
inline constexpr int kPoolThreads = 3;

/** The benchmark's workload names, in reporting order. */
const std::vector<std::string> &scenarioNames();

/**
 * Build a workload's variant table, with each cell's step budget taken
 * from an environment built the way WorkloadSpec::runWithConfig builds
 * it.
 * @throws std::invalid_argument on an unknown name.
 */
Scenario makeScenario(const std::string &name);

/** Seed of the episode at (round, variant) of a run seeded `run_seed`;
 * a pure function, so one seed always yields one episode stream. */
std::uint64_t episodeSeed(std::uint64_t run_seed, long long round,
                          std::size_t variant);

/** Team size an episode of `variant` runs with (runWithConfig's rule). */
int teamSize(const Variant &variant);

/**
 * The private services of one workload run; nothing process-wide.
 * `threads` counts the runner's helping caller. Timed runs use one
 * client (1); the traced run's pooled pass and the checker test use
 * kPoolThreads.
 */
struct Services
{
    explicit Services(int threads = 1);

    sched::FleetScheduler scheduler;
    llm::LlmEngineService engine;
    stats::PhaseWallClock phase_wall;
    obs::Tracer tracer;
    runner::EpisodeRunner runner;
};

/** One finished episode as a sink sees it. */
struct Episode
{
    const Variant *variant = nullptr;
    const core::EpisodeResult *result = nullptr;
    double host_s = 0.0; ///< host time of this episode alone
    const char *error = nullptr; ///< what it threw; null when it returned
    /** The episode's trace log; null on untraced rounds. */
    const obs::EpisodeTraceLog *trace = nullptr;
};

using EpisodeSink = std::function<void(const Episode &)>;

/**
 * Run rounds [first, first + count) of `scenario` and hand every
 * episode to `sink`, in submission order, after the last one finishes.
 * The rounds go to the workload's EpisodeRunner as one batch. `traced`
 * gives every episode its own EpisodeTraceLog through
 * EpisodeOptions::trace.
 * A throwing episode is reported with `error` set; it never propagates.
 */
void runRounds(const Scenario &scenario, Services &services,
               std::uint64_t run_seed, long long first, int count,
               bool traced, const EpisodeSink &sink);

} // namespace ebs::perfbench

#endif // EBS_PERFBENCH_SCENARIO_H
