/**
 * @file
 * Host-performance benchmark of the ebs simulator.
 *
 *   perfbench --workload <paper_suite|team_scale|pipeline_opts>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (closed loops over a seed-generated episode stream, one
 * client running every episode on the calling thread through a private
 * EpisodeRunner; see scenario.cpp for the variant tables):
 *  - paper_suite: all 14 Table II systems x {Easy, Medium, Hard}.
 *    Host time is mostly `plan`.
 *  - team_scale: MindAgent, CoELA, COMBO at 4/8/12 agents (Medium).
 *    Quadratic `comm.dialogue` and per-agent `plan` dominate.
 *  - pipeline_opts: the same systems at 8/12 agents with every Sec. V-D
 *    switch on. The only workload running speculation, buffered agent
 *    turns and plan reuse; host time is mostly `execute`.
 *
 * --trace 0 measures the end-to-end metrics with tracing off:
 * episodes_per_s (median over timing chunks), episode_ms.p50/.p99 (per
 * episode host time), peak_rss_mb, and setup_s (median of several
 * set-ups in one process; each covers everything before the first timed
 * episode: the workload table and step budgets, pool spawn,
 * engine-service construction, and warm-up episodes checked against a
 * recorded digest). Only the first set-up pays the once-per-process
 * costs (the workload registry's statics, first-touch pages, allocator
 * growth), so setup_s measures warm set-up; the table also prints that
 * first, cold set-up as setup_s.cold.
 * failed_frac is printed in the table and carried by the JSON's
 * `attempted` / `failed` fields.
 *
 * --trace 1 runs the same rounds untraced, then traced (each episode
 * with its own EpisodeTraceLog), then untraced on a kPoolThreads pool,
 * and probes the substrate layers on the workload's own worlds. Layer -> end-to-end metric it should move:
 *  - core.{sense,plan,comm,execute,reflect}_us (phase self time per
 *    step) -> episodes_per_s, episode_ms.p50; plan on paper_suite, comm
 *    on team_scale's p99, execute on pipeline_opts; core.step_us is
 *    the untraced episode host time per step they are shown against;
 *  - memory.retrieve_us, env.valid_subgoals_us, env.subgoals_per_call
 *    -> episode_ms.p50 on paper_suite and team_scale;
 *  - plan.astar_us, plan.astar_expanded -> episodes_per_s on
 *    pipeline_opts and team_scale;
 *  - env.spec_commit_ratio -> episodes_per_s, peak_rss_mb on
 *    pipeline_opts only;
 *  - sched.busy_frac, sched.tasks_per_ep (pooled pass) ->
 *    episodes_per_s of a pooled deployment; pipeline_opts is the only
 *    workload whose episodes fan their agents out on the pool;
 *  - core.steps_per_ep, core.msg_useful_ratio, llm.*: deterministic
 *    tallies that no perf change may move;
 *  - obs.trace_overhead, obs.trace_events_per_ep: cost of tracing.
 *
 * The last stdout line is one JSON object with the keys `correct`,
 * `attempted`, `failed` and `metrics`.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"
#include "scenario.h"

#include "memory/memory.h"
#include "plan/astar.h"
#include "stats/aggregate.h"
#include "stats/host_clock.h"

namespace {

using namespace ebs;
using namespace ebs::perfbench;

/** Set-ups per end-to-end run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Steps of observations a probed memory ingests; past the default
 * 40-step capacity window, so retrieval sees a full store. */
constexpr int kProbeSteps = 60;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0.0 && args.seconds <= 600.0))
                return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return have_workload && argc % 2 == 1;
}

/** Nearest-rank percentile of an ascending-sorted sample. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
};

/** Print the result line the benchmark contract asks for. */
void
printJson(const Outcome &outcome, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                outcome.failed == 0 ? "true" : "false", outcome.attempted,
                outcome.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

void
printTable(const std::vector<Metric> &metrics)
{
    for (const Metric &metric : metrics)
        std::printf("  %-24s %14.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit);
}

/** Count an episode and report any invariant it breaks, once. */
void
check(Outcome &outcome, const Episode &ep)
{
    if (outcome.record(*ep.result, ep.variant->step_budget,
                       ep.error != nullptr))
        return;
    if (outcome.failed == 1)
        std::fprintf(stderr, "perfbench: %s episode failed: %s\n",
                     ep.variant->spec->name.c_str(),
                     ep.error != nullptr
                         ? ep.error
                         : invalidReason(*ep.result, ep.variant->step_budget));
}

/** A workload ready to time: its table and its private services. */
struct Bench
{
    Scenario scenario;
    std::unique_ptr<Services> services;
};

/**
 * Everything before the first timed episode: the workload table (with
 * step budgets), the pool and engine service, and warm-up rounds whose
 * digest must equal the one recorded with the benchmark.
 */
Bench
setUp(const std::string &workload, Outcome &outcome)
{
    Bench bench{makeScenario(workload), nullptr};
    bench.services = std::make_unique<Services>();
    const Outcome at_start = outcome;
    Digest digest;
    runRounds(bench.scenario, *bench.services, kReferenceSeed, 0,
              bench.scenario.warmup_rounds, false, [&](const Episode &ep) {
                  check(outcome, ep);
                  digest.add(*ep.result);
              });
    if (!outcome.settleSet(at_start, digest.value(),
                           bench.scenario.reference_digest))
        std::fprintf(stderr,
                     "perfbench: %s warm-up digest %016" PRIx64
                     " differs from the recorded %016" PRIx64 "\n",
                     workload.c_str(), digest.value(),
                     bench.scenario.reference_digest);
    return bench;
}

int
runEndToEnd(const Args &args)
{
    Outcome outcome;
    std::vector<double> setup_s;
    std::optional<Bench> bench;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        bench.reset(); // the previous rep's teardown is not set-up
        const double begin = stats::hostNow();
        bench.emplace(setUp(args.workload, outcome));
        setup_s.push_back(stats::hostNow() - begin);
    }
    const Scenario &scenario = bench->scenario;

    std::vector<double> latency_ms;
    std::vector<double> chunk_rates;
    long long round = 0;
    const double deadline = stats::hostNow() + args.seconds;
    do {
        const std::size_t before = latency_ms.size();
        const double begin = stats::hostNow();
        runRounds(scenario, *bench->services, args.seed, round,
                  scenario.rounds_per_chunk, false, [&](const Episode &ep) {
                      check(outcome, ep);
                      latency_ms.push_back(ep.host_s * 1e3);
                  });
        const double wall = stats::hostNow() - begin;
        chunk_rates.push_back(
            static_cast<double>(latency_ms.size() - before) / wall);
        round += scenario.rounds_per_chunk;
    } while (stats::hostNow() < deadline);

    std::sort(latency_ms.begin(), latency_ms.end());
    const std::vector<Metric> metrics = {
        {"episodes_per_s", stats::percentile(chunk_rates, 50.0), "1/s"},
        {"episode_ms.p50", percentile(latency_ms, 0.50), "ms"},
        {"episode_ms.p99", percentile(latency_ms, 0.99), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", stats::percentile(setup_s, 50.0), "s"},
    };
    std::printf("perfbench %s: seed %" PRIu64 ", %zu "
                "episodes in %lld rounds of %zu (%zu slower than p99), "
                "%zu timing chunks, %d set-ups\n",
                scenario.name.c_str(), args.seed, latency_ms.size(), round, scenario.variants.size(),
                latency_ms.size() / 100, chunk_rates.size(), kSetupReps);
    printTable(metrics);
    std::printf("  %-24s %14.6g s (first set-up; not in setup_s)\n",
                "setup_s.cold", setup_s.front());
    std::printf("  %-24s %14.6g ratio (%lld of %lld episodes)\n",
                "failed_frac", outcome.failedFrac(), outcome.failed,
                outcome.attempted);
    printJson(outcome, metrics);
    return 0;
}

// ---------------------------------------------------------------- traced

/** Phase-span families, named after the coordinator's phase prefixes. */
constexpr std::array<const char *, 5> kFamilies = {"sense", "plan", "comm.",
                                                   "execute", "reflect"};

int
familyOf(const std::string &phase)
{
    for (std::size_t f = 0; f < kFamilies.size(); ++f)
        if (phase.rfind(kFamilies[f], 0) == 0)
            return static_cast<int>(f);
    return -1;
}

/** Episode tallies folded as episodes finish (no result is kept). */
struct Tally
{
    long long episodes = 0;
    long long steps = 0;
    long long messages = 0;
    long long messages_useful = 0;
    long long llm_calls = 0;
    long long tokens_in = 0;
    long long batches = 0;
    long long batch_requests = 0;
    long long speculated = 0;
    long long committed = 0;
    long long trace_events = 0;
    double host_s = 0.0;
    std::array<double, kFamilies.size()> phase_s{};

    void
    add(const Episode &ep)
    {
        const core::EpisodeResult &r = *ep.result;
        ++episodes;
        steps += r.steps;
        messages += r.messages_generated;
        messages_useful += r.messages_useful;
        llm_calls += static_cast<long long>(r.llm.calls);
        tokens_in += r.llm.tokens_in;
        batches += static_cast<long long>(r.llm_batches.size());
        for (const llm::BatchRecord &batch : r.llm_batches)
            batch_requests += batch.requests;
        speculated += r.spec_exec.speculated;
        committed += r.spec_exec.committed;
        host_s += ep.host_s;
        if (ep.trace != nullptr)
            addSelfTimes(*ep.trace);
    }

    /** Fold a log's host-stamped phase spans in as self time: duration
     * minus the host-stamped spans nested inside it. */
    void
    addSelfTimes(const obs::EpisodeTraceLog &log)
    {
        struct Open
        {
            int family;
            double begin_s;
            double children_s;
        };
        std::vector<Open> open;
        trace_events += static_cast<long long>(log.events().size());
        for (const obs::TraceEvent &event : log.events()) {
            if (event.ph == 'B') {
                open.push_back({familyOf(event.name), event.host_s, 0.0});
            } else if (event.ph == 'E' && !open.empty()) {
                const Open span = open.back();
                open.pop_back();
                // Sim-only spans (step brackets) have no host time.
                if (span.begin_s < 0.0 || event.host_s < 0.0)
                    continue;
                const double duration = event.host_s - span.begin_s;
                if (span.family >= 0)
                    phase_s[static_cast<std::size_t>(span.family)] +=
                        duration - span.children_s;
                for (auto it = open.rbegin(); it != open.rend(); ++it) {
                    if (it->begin_s >= 0.0) {
                        it->children_s += duration;
                        break;
                    }
                }
            }
        }
    }
};

/** Host time and work counts of direct calls into substrate layers. */
struct Probe
{
    double retrieve_s = 0.0;
    long long retrieves = 0;
    double subgoal_s = 0.0;
    long long subgoal_calls = 0;
    long long subgoals = 0;
    double astar_s = 0.0;
    long long astar_calls = 0;
    long long expanded = 0;
};

/**
 * Time the memory, subgoal and A* layers on the world an episode of
 * `variant` with `seed` starts from, built by the same make_env call
 * WorkloadSpec::runWithConfig makes.
 */
void
probeVariant(const Variant &variant, std::uint64_t seed, Probe &probe)
{
    const int agents = teamSize(variant);
    const auto environment = variant.spec->make_env(
        variant.difficulty, agents, sim::Rng(seed).fork(7));
    env::World &world = environment->world();
    const env::GridMap &grid = world.grid();

    // Subgoal menus and paths to every menu target, from the start cells.
    for (int agent = 0; agent < agents; ++agent) {
        const double begin = stats::hostNow();
        const std::vector<env::Subgoal> menu =
            environment->validSubgoals(agent);
        probe.subgoal_s += stats::hostNow() - begin;
        ++probe.subgoal_calls;
        probe.subgoals += static_cast<long long>(menu.size());

        const env::Vec2i start = world.agent(agent).pos;
        for (const env::Subgoal &subgoal : menu) {
            const env::Vec2i goal = subgoal.target != env::kNoObject
                                        ? world.effectivePos(subgoal.target)
                                        : subgoal.dest;
            if (!grid.inBounds(goal))
                continue;
            const double search_begin = stats::hostNow();
            plan::aStar(grid, start, goal, true);
            probe.astar_s += stats::hostNow() - search_begin;
            ++probe.astar_calls;
            probe.expanded +=
                static_cast<long long>(plan::aStarLastExpanded());
        }
    }

    // Memory of an exploring agent: each step it stands in the next room
    // and records what it sees, so the store fills the way an episode's
    // does rather than with one room's repeated sightings.
    for (int agent = 0; agent < agents; ++agent) {
        memory::MemoryModule memory(variant.spec->config.memory,
                                    sim::Rng(seed).fork(1000 + agent));
        for (int step = 0; step < kProbeSteps; ++step) {
            const env::Vec2i anchor =
                environment->roomAnchor((agent + step) % grid.roomCount());
            if (grid.inBounds(anchor))
                world.agent(agent).pos = anchor;
            memory.recordObservation(environment->observe(agent, step));
            memory.advanceStep(step);
            const double begin = stats::hostNow();
            memory.retrieve(step);
            probe.retrieve_s += stats::hostNow() - begin;
            ++probe.retrieves;
        }
    }
}

int
runTraced(const Args &args)
{
    Outcome outcome;
    Bench bench = setUp(args.workload, outcome);
    const Scenario &scenario = bench.scenario;
    Services &services = *bench.services;
    const int chunk = scenario.rounds_per_chunk;

    // Untraced rounds first: the baseline for trace overhead and digest.
    Tally untraced;
    Digest untraced_digest;
    long long rounds = 0;
    double untraced_wall = 0.0;
    do {
        const double begin = stats::hostNow();
        runRounds(scenario, services, args.seed, rounds, chunk, false,
                  [&](const Episode &ep) {
                      check(outcome, ep);
                      untraced.add(ep);
                      untraced_digest.add(*ep.result);
                  });
        untraced_wall += stats::hostNow() - begin;
        rounds += chunk;
    } while (untraced_wall < 0.35 * args.seconds);

    // The same rounds traced: their digest must not move.
    Tally traced;
    Digest traced_digest;
    double traced_wall = 0.0;
    const Outcome at_traced = outcome;
    for (long long round = 0; round < rounds; round += chunk) {
        const double begin = stats::hostNow();
        runRounds(scenario, services, args.seed, round, chunk, true,
                  [&](const Episode &ep) {
                      check(outcome, ep);
                      traced.add(ep);
                      traced_digest.add(*ep.result);
                  });
        traced_wall += stats::hostNow() - begin;
    }
    if (!outcome.settleSet(at_traced, traced_digest.value(),
                           untraced_digest.value()))
        std::fprintf(stderr, "perfbench: traced digest differs from the "
                             "untraced one\n");

    // The same rounds once more on a pool, for the scheduler's figures
    // only: pooled timings on a shared machine spread too wide to bound.
    // Their digest must not move either.
    Services pool(kPoolThreads);
    Tally pooled;
    Digest pooled_digest;
    double pooled_wall = 0.0;
    const Outcome at_pooled = outcome;
    for (long long round = 0; round < rounds; round += chunk) {
        const double begin = stats::hostNow();
        runRounds(scenario, pool, args.seed, round, chunk, false,
                  [&](const Episode &ep) {
                      check(outcome, ep);
                      pooled.add(ep);
                      pooled_digest.add(*ep.result);
                  });
        pooled_wall += stats::hostNow() - begin;
    }
    if (!outcome.settleSet(at_pooled, pooled_digest.value(),
                           untraced_digest.value()))
        std::fprintf(stderr, "perfbench: pooled digest differs from the "
                             "serial one\n");

    // Whole passes over the workload's worlds, so the per-call counts
    // are exact; seeds are those of the first measured round.
    Probe probe;
    const double probe_end = stats::hostNow() + 0.1 * args.seconds;
    do {
        for (std::size_t v = 0; v < scenario.variants.size(); ++v)
            probeVariant(scenario.variants[v],
                         episodeSeed(args.seed, 0, v), probe);
    } while (stats::hostNow() < probe_end);

    const double steps = static_cast<double>(traced.steps);
    const double episodes = static_cast<double>(untraced.episodes);
    const std::vector<Metric> metrics = {
        {"core.sense_us", ratio(traced.phase_s[0], steps) * 1e6, "us"},
        {"core.plan_us", ratio(traced.phase_s[1], steps) * 1e6, "us"},
        {"core.comm_us", ratio(traced.phase_s[2], steps) * 1e6, "us"},
        {"core.execute_us", ratio(traced.phase_s[3], steps) * 1e6, "us"},
        {"core.reflect_us", ratio(traced.phase_s[4], steps) * 1e6, "us"},
        {"core.step_us",
         ratio(untraced.host_s, static_cast<double>(untraced.steps)) * 1e6,
         "us"},
        {"memory.retrieve_us",
         ratio(probe.retrieve_s, static_cast<double>(probe.retrieves)) *
             1e6,
         "us"},
        {"env.valid_subgoals_us",
         ratio(probe.subgoal_s, static_cast<double>(probe.subgoal_calls)) *
             1e6,
         "us"},
        {"env.subgoals_per_call",
         ratio(static_cast<double>(probe.subgoals),
               static_cast<double>(probe.subgoal_calls)),
         "count"},
        {"plan.astar_us",
         ratio(probe.astar_s, static_cast<double>(probe.astar_calls)) * 1e6,
         "us"},
        {"plan.astar_expanded",
         ratio(static_cast<double>(probe.expanded),
               static_cast<double>(probe.astar_calls)),
         "count"},
        {"env.spec_commit_ratio",
         ratio(static_cast<double>(untraced.committed),
               static_cast<double>(untraced.speculated)),
         "ratio"},
        {"sched.busy_frac",
         ratio(pooled.host_s, pooled_wall * kPoolThreads), "ratio"},
        {"sched.tasks_per_ep",
         ratio(static_cast<double>(pool.scheduler.tasksExecuted()),
               static_cast<double>(pooled.episodes)),
         "count"},
        {"core.steps_per_ep",
         ratio(static_cast<double>(untraced.steps), episodes), "count"},
        {"core.msg_useful_ratio",
         ratio(static_cast<double>(untraced.messages_useful),
               static_cast<double>(untraced.messages)),
         "ratio"},
        {"llm.calls_per_ep",
         ratio(static_cast<double>(untraced.llm_calls), episodes), "count"},
        {"llm.tokens_in_per_ep",
         ratio(static_cast<double>(untraced.tokens_in), episodes), "count"},
        {"llm.batch_occupancy",
         ratio(static_cast<double>(untraced.batch_requests),
               static_cast<double>(untraced.batches)),
         "count"},
        {"obs.trace_overhead", ratio(traced_wall, untraced_wall), "ratio"},
        {"obs.trace_events_per_ep",
         ratio(static_cast<double>(traced.trace_events),
               static_cast<double>(traced.episodes)),
         "count"},
    };

    double phases_s = 0.0;
    for (const double seconds : traced.phase_s)
        phases_s += seconds;
    std::printf("perfbench %s traced: seed %" PRIu64 ", %lld episodes "
                "untraced then traced, digest %016" PRIx64 "\n",
                scenario.name.c_str(), args.seed, untraced.episodes,
                untraced_digest.value());
    std::printf("  host time per step: phases %.2f us (traced) against "
                "%.2f us per episode step traced, %.2f us untraced; "
                "unaccounted %.1f%% of traced episode time\n",
                ratio(phases_s, steps) * 1e6,
                ratio(traced.host_s, steps) * 1e6,
                ratio(untraced.host_s, static_cast<double>(untraced.steps)) *
                    1e6,
                100.0 * (1.0 - ratio(phases_s, traced.host_s)));
    for (std::size_t f = 0; f < kFamilies.size(); ++f)
        std::printf("  phase %-8s %5.1f%% of traced episode time\n",
                    kFamilies[f],
                    100.0 * ratio(traced.phase_s[f], traced.host_s));
    printTable(metrics);
    std::printf("  %-24s %14.6g ratio (%lld of %lld episodes)\n",
                "failed_frac", outcome.failedFrac(), outcome.failed,
                outcome.attempted);
    printJson(outcome, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    const auto &names = scenarioNames();
    if (std::find(names.begin(), names.end(), args.workload) ==
        names.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    try {
        return args.trace ? runTraced(args) : runEndToEnd(args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
