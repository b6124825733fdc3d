/**
 * @file
 * Google-benchmark microbenchmarks of the substrate components whose
 * compute cost backs the execution-module latency story: A* grid search
 * (bare, and as motionCost calls it with other bodies and a read set),
 * RRT motion planning, memory retrieval, and the LLM engine's sampling
 * path.
 *
 * Honors smoke mode (ctx.smoke(), set by `run_all --smoke`) by clamping
 * --benchmark_min_time to a few milliseconds so the suite stops dominating smoke runs. Full runs use
 * a 0.05 s window instead of Google Benchmark's 0.5 s default — every
 * op here is ns-to-µs scale, so that still means 1e4-1e7 iterations per
 * measurement while keeping `run_all` wall-clock dominated by the
 * episode suites the runner can actually parallelize.
 *
 * The console report is rendered into a string and forwarded to the
 * suite's stdout sink in one write. The numbers are host timings, so
 * this is the one suite whose stdout is *not* byte-stable across runs —
 * the fleet equivalence gate skips it (it emits no EBS_METRIC lines).
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "suite.h"

#include "core/coordinator.h"
#include "envs/transport_env.h"
#include "llm/engine_service.h"
#include "memory/memory.h"
#include "plan/astar.h"
#include "plan/rrt.h"
#include "sim/rng.h"

namespace {

using namespace ebs;

void
BM_AStarOpenGrid(benchmark::State &state)
{
    const int side = static_cast<int>(state.range(0));
    env::GridMap grid(side, side);
    for (auto _ : state) {
        auto path = plan::aStar(grid, {0, 0}, {side - 1, side - 1});
        benchmark::DoNotOptimize(path);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AStarOpenGrid)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void
BM_AStarApartment(benchmark::State &state)
{
    const env::GridMap grid = env::GridMap::apartment(3, 3, 8, 8);
    for (auto _ : state) {
        auto path = plan::aStar(grid, {1, 1},
                                {grid.width() - 2, grid.height() - 2});
        benchmark::DoNotOptimize(path);
    }
}
BENCHMARK(BM_AStarApartment);

/** The query motionCost makes for one agent of a 12-agent team: adjacent
 * arrival, the other 11 bodies blocked, and the probed cells collected
 * for the access log. */
void
BM_AStarBodies(benchmark::State &state)
{
    const env::GridMap grid = env::GridMap::apartment(3, 3, 8, 8);
    const env::Vec2i start{1, 1};
    const env::Vec2i goal{grid.width() - 2, grid.height() - 2};
    sim::Rng rng(11);
    std::vector<env::Vec2i> blocked;
    while (blocked.size() < 11) {
        const env::Vec2i cell{rng.uniformInt(0, grid.width() - 1),
                              rng.uniformInt(0, grid.height() - 1)};
        if (grid.walkable(cell) && !(cell == start) && !(cell == goal))
            blocked.push_back(cell);
    }
    std::vector<env::Vec2i> queried;
    for (auto _ : state) {
        queried.clear();
        auto path = plan::aStar(grid, start, goal, /*adjacent_ok=*/true,
                                &blocked, &queried);
        benchmark::DoNotOptimize(path);
        benchmark::DoNotOptimize(queried.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_AStarBodies);

void
BM_RrtCluttered(benchmark::State &state)
{
    plan::Workspace ws;
    ws.max_x = 20.0;
    ws.max_y = 20.0;
    ws.obstacles = {{{7.0, 7.0}, 2.0}, {{13.0, 13.0}, 2.0},
                    {{7.0, 13.0}, 1.5}, {{13.0, 7.0}, 1.5}};
    sim::Rng rng(5);
    plan::RrtParams params;
    params.step_size = 0.8;
    for (auto _ : state) {
        auto path = plan::rrtPlan(ws, {1.0, 1.0}, {19.0, 19.0}, rng, params);
        benchmark::DoNotOptimize(path);
    }
}
BENCHMARK(BM_RrtCluttered);

void
BM_MemoryRetrieve(benchmark::State &state)
{
    memory::MemoryModule::Config cfg;
    cfg.capacity_steps = 0;
    memory::MemoryModule mem(cfg, sim::Rng(7));
    const int records = static_cast<int>(state.range(0));
    for (int step = 0; step < records; ++step) {
        env::Observation obs;
        obs.step = step;
        obs.room = step % 6;
        env::ObservedObject seen;
        seen.id = step % 40;
        seen.pos = {step % 13, step % 11};
        obs.objects.push_back(seen);
        mem.recordObservation(obs);
    }
    for (auto _ : state) {
        auto ctx = mem.retrieve(records);
        benchmark::DoNotOptimize(ctx);
    }
}
BENCHMARK(BM_MemoryRetrieve)->Arg(64)->Arg(512)->Arg(4096);

void
BM_EngineHandleComplete(benchmark::State &state)
{
    // The call every agent module makes: a handle on an attached
    // session, each completion joining the session's open batch group.
    llm::EngineSession session =
        llm::LlmEngineService::shared().openSession();
    llm::EngineHandle handle =
        session.handle(llm::ModelProfile::gpt4Api(), sim::Rng(9));
    llm::LlmRequest req;
    req.tokens_in = 1500;
    req.tokens_out_mean = 100;
    for (auto _ : state)
        benchmark::DoNotOptimize(handle.complete(req));
}
BENCHMARK(BM_EngineHandleComplete);

void
BM_EpisodeTransportEasy(benchmark::State &state)
{
    for (auto _ : state) {
        envs::TransportEnv environment(env::Difficulty::Easy, 1,
                                       sim::Rng(3));
        core::AgentConfig config;
        core::EpisodeOptions options;
        options.seed = 3;
        auto result =
            core::runSingleAgent(environment, config, options);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_EpisodeTransportEasy);

int
run(ebs::bench::SuiteContext &ctx)
{
    // Rebuild an argv for Google Benchmark from the suite arguments.
    // Our min-time clamp (hard in smoke mode, mild in full mode) is
    // inserted before any caller flags, and Google Benchmark lets the
    // last occurrence win, so an explicit --benchmark_min_time on the
    // command line still takes precedence.
    std::vector<std::string> arg_storage;
    arg_storage.emplace_back("bench_micro_substrate");
    arg_storage.emplace_back(ctx.smoke() ? "--benchmark_min_time=0.005"
                                         : "--benchmark_min_time=0.05");
    for (const auto &arg : ctx.args())
        arg_storage.push_back(arg);
    std::vector<char *> args;
    args.reserve(arg_storage.size());
    for (auto &arg : arg_storage)
        args.push_back(arg.data());

    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;

    // Render the console report into strings and hand them to the
    // suite's sinks, so the fleet captures this suite's output the same
    // way it captures every other suite's.
    std::ostringstream report;
    std::ostringstream errors;
    // OO_Tabular without OO_Color: the report lands in a log file, so
    // it must carry no ANSI escapes.
    benchmark::ConsoleReporter reporter(
        benchmark::ConsoleReporter::OO_Tabular);
    reporter.SetOutputStream(&report);
    reporter.SetErrorStream(&errors);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    ctx.write(report.str());
    if (!errors.str().empty())
        ctx.eprintf("%s", errors.str().c_str());
    return 0;
}

} // namespace

EBS_BENCH_SUITE("bench_micro_substrate",
                "Google-benchmark micro timings of the substrate: A*, "
                "RRT, memory retrieval, token counting, LLM sampling",
                run);
