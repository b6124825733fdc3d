#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "stats/metric_diff.h"

/**
 * The fleet determinism gate: the smoke fleet must produce byte-identical
 * per-suite stdout and exactly equal paper metrics at --jobs 1 and
 * --jobs 8 — suite tasks and every suite's episode fan-out share one
 * scheduler pool, and the worker count must never leak into a result.
 *
 * bench_micro_substrate is excluded from the *byte* comparison: its
 * stdout is Google Benchmark's console report of host timings, not
 * byte-stable across runs by design (it emits no EBS_METRIC lines, so
 * the metric comparison is unaffected). The `.err.log` diagnostics (host
 * timings) are likewise host-dependent and outside the contract.
 *
 * The FleetArgs cases pin `run_all --suites NAME -- ARGS...`, the one
 * spelling of suite arguments.
 */

namespace {

namespace fs = std::filesystem;

struct FleetRun
{
    int exit_code = -1;
    fs::path dir;
    fs::path json;
    fs::path logs;
};

fs::path
runAllBinary()
{
    return fs::path(EBS_BENCH_BIN_DIR) / "run_all";
}

/** Run `run_all --smoke FLAGS` with every output inside a fresh
 * per-label temp directory. */
FleetRun
runFleet(const std::string &label, const std::string &flags)
{
    FleetRun run;
    run.dir = fs::path(testing::TempDir()) / ("fleet_" + label);
    fs::remove_all(run.dir);
    fs::create_directories(run.dir);
    run.json = run.dir / "results.json";
    run.logs = run.dir / "logs";
    std::ostringstream cmd;
    cmd << runAllBinary() << " --smoke --out " << run.json << " --logs "
        << run.logs << " --timeline " << (run.dir / "timeline.json")
        << " " << flags << " > " << (run.dir / "driver.out") << " 2> "
        << (run.dir / "driver.err");
    const int status = std::system(cmd.str().c_str());
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The per-suite stdout logs of one fleet run (optionally without the
 * host-timing bench_micro_substrate report). */
std::set<std::string>
suiteLogs(const FleetRun &run, bool byte_stable_only)
{
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(run.logs)) {
        const std::string name = entry.path().filename().string();
        if (name.ends_with(".log") && !name.ends_with(".err.log") &&
            !(byte_stable_only && name == "bench_micro_substrate.log"))
            names.insert(name);
    }
    return names;
}

/** (suite, case) -> exact metric values of one BENCH_results.json. */
std::map<std::pair<std::string, std::string>,
         std::map<std::string, double>>
paperMetrics(const fs::path &json_path)
{
    std::string error;
    const auto entries =
        ebs::stats::parseBenchResults(readFile(json_path), &error);
    EXPECT_TRUE(error.empty()) << json_path << ": " << error;
    std::map<std::pair<std::string, std::string>,
             std::map<std::string, double>>
        by_case;
    for (const auto &entry : entries)
        by_case[{entry.suite, entry.case_name}] = entry.values;
    return by_case;
}

std::size_t
occurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++count;
    return count;
}

TEST(FleetEquivalence, JobsOneMatchesJobsEightAtZeroTolerance)
{
    if (!fs::exists(runAllBinary()))
        GTEST_SKIP() << "bench targets not built";

    const FleetRun wide = runFleet("j8", "--jobs 8");
    const FleetRun serial = runFleet("j1", "--jobs 1");
    ASSERT_EQ(wide.exit_code, 0);
    ASSERT_EQ(serial.exit_code, 0);

    const auto logs = suiteLogs(wide, true);
    ASSERT_GE(logs.size(), 10u) << "smoke fleet unexpectedly small";
    EXPECT_EQ(suiteLogs(serial, true), logs);
    for (const auto &name : logs)
        EXPECT_EQ(readFile(serial.logs / name), readFile(wide.logs / name))
            << "per-suite stdout diverged in " << name;

    // Exact equality — the zero-tolerance paper-metric gate.
    const auto metrics = paperMetrics(wide.json);
    ASSERT_GE(metrics.size(), 50u) << "paper metrics unexpectedly sparse";
    EXPECT_EQ(paperMetrics(serial.json), metrics);

    // Logs are files, not terminals: no ANSI escapes anywhere.
    for (const auto &name : suiteLogs(wide, false))
        EXPECT_EQ(readFile(wide.logs / name).find('\x1b'),
                  std::string::npos)
            << name << " carries terminal escapes";

    // Every suite that runs episodes reports its phase split.
    const std::string timeline = readFile(wide.dir / "timeline.json");
    const std::size_t with_episodes = occurrences(timeline, "\"episodes\":");
    EXPECT_GE(with_episodes, 10u) << timeline;
    EXPECT_EQ(occurrences(timeline, "\"phase_compute_s\":"), with_episodes);
    EXPECT_EQ(occurrences(timeline, "\"phase_execute_s\":"), with_episodes);
}

TEST(FleetArgs, MalformedWindowFailsTheSuite)
{
    if (!fs::exists(runAllBinary()))
        GTEST_SKIP() << "bench targets not built";
    const FleetRun run =
        runFleet("bad_window", "--suites engine_service -- --window=oops");
    EXPECT_NE(run.exit_code, 0);
    EXPECT_NE(readFile(run.logs / "bench_engine_service.err.log")
                  .find("--window"),
              std::string::npos);
}

TEST(FleetArgs, NeedExactlyOneSuite)
{
    if (!fs::exists(runAllBinary()))
        GTEST_SKIP() << "bench targets not built";
    EXPECT_EQ(runFleet("two_suites", "--suites fig2,fig3 -- x").exit_code, 2);
}

TEST(FleetArgs, Fig7WritesCsvIntoTheArgDirectory)
{
    if (!fs::exists(runAllBinary()))
        GTEST_SKIP() << "bench targets not built";
    const fs::path csv_dir = fs::path(testing::TempDir()) / "fleet_fig7_csv";
    fs::remove_all(csv_dir);
    fs::create_directories(csv_dir);
    const FleetRun run =
        runFleet("fig7_csv", "--suites fig7 -- " + csv_dir.string());
    EXPECT_EQ(run.exit_code, 0);
    const std::string csv = readFile(csv_dir / "fig7_scalability.csv");
    EXPECT_EQ(csv.rfind("system,paradigm,difficulty,agents", 0), 0u)
        << csv.substr(0, 200);
}

} // namespace
