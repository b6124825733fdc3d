/**
 * @file
 * Benchmark fleet driver — the one way to run a suite. Suites are library
 * functions registered in bench::SuiteRegistry (see suite.h); the driver
 * submits the selected suites as one dependency-free sched::TaskGraph
 * onto a single FleetScheduler pool of `--jobs` workers. A suite's
 * episodes fan onto the same shared pool its siblings run on, so when a
 * short suite drains, its workers immediately start absorbing the
 * straggler's episodes.
 *
 * Each suite writes its stdout sink to `<logs>/<suite>.log` and its
 * stderr sink to `<logs>/<suite>.err.log`; the stdout logs are
 * byte-identical at any `--jobs` (the SuiteContext contract, pinned by
 * the fleet equivalence test). The captured stdout is scanned for
 * `EBS_METRIC {...}` lines and folded into `BENCH_results.json` (suite
 * -> paper_metrics) so successive PRs have a perf trajectory; the
 * scheduler's task timeline plus each suite's phase-wall clock become
 * the per-suite wall-clock / straggler summary and `BENCH_timeline.json`.
 *
 * Flags:
 *   --smoke        run each suite with tiny iteration counts
 *   --jobs N       global worker budget (default: EBS_JOBS, else the
 *                  hardware concurrency)
 *   --serial       suites one at a time (each still using the whole
 *                  pool for its own episodes)
 *   --out PATH     output JSON path (default: BENCH_results.json in cwd)
 *   --logs DIR     per-suite logs (default: BENCH_logs in cwd)
 *   --timeline P   scheduler timeline JSON (default: BENCH_timeline.json)
 *   --trace-out P  merged Chrome trace path (with EBS_TRACE=1)
 *   --filter STR   only run suites whose name contains STR
 *   --suites LIST  comma-separated suite names to run (with or without
 *                  the bench_ prefix; substrings accepted when unique;
 *                  misses fail with near-miss suggestions)
 *   --list         print the selected suite names and exit
 *   --list-suites  print every registered suite with its description
 *   -- ARGS...     suite arguments (CSV directory, --window, Google
 *                  Benchmark flags); the selection must be exactly one
 *                  suite
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/sync.h"
#include "fleet_plan.h"
#include "obs/trace.h"
#include "sched/fleet_scheduler.h"
#include "stats/host_clock.h"
#include "stats/phase_wall.h"
#include "suite.h"

namespace {

namespace fs = std::filesystem;

struct SuiteResult
{
    std::string name;
    int exit_code = -1;
    double wall_seconds = 0.0;
    double user_seconds = 0.0;
    double sys_seconds = 0.0;
    long max_rss_kb = 0;
    std::vector<std::string> paper_metrics; ///< raw EBS_METRIC objects
    /** Host compute/execute phase split of the suite's episodes, read
     * from its SuiteContext once it finished (episodes == 0 when the
     * suite runs none). */
    ebs::stats::PhaseWallClock::Snapshot phase_wall;
};

/**
 * Collect the JSON objects of `EBS_METRIC {...}` lines from a suite's
 * captured stdout. The objects are emitted by SuiteContext and embedded
 * verbatim, so run_all needs no JSON parser — only a sanity check that
 * the payload looks like a single-line object.
 */
std::vector<std::string>
collectMetricLines(const fs::path &log_path)
{
    static const std::string kPrefix = "EBS_METRIC ";
    std::vector<std::string> metrics;
    std::ifstream log(log_path);
    std::string line;
    while (std::getline(log, line)) {
        if (line.rfind(kPrefix, 0) != 0)
            continue;
        std::string payload = line.substr(kPrefix.size());
        if (!payload.empty() && payload.back() == '\r')
            payload.pop_back();
        if (payload.size() >= 2 && payload.front() == '{' &&
            payload.back() == '}')
            metrics.push_back(std::move(payload));
    }
    return metrics;
}

/**
 * Run one registered suite through its SuiteContext. The suite
 * function's sinks are already bound to the per-suite log files; this
 * wrapper adds wall clock, CPU accounting, an RSS reading, and exception
 * containment (a throwing suite must report a failing exit code, not
 * kill the fleet).
 */
SuiteResult
runSuite(const ebs::bench::SuiteInfo &suite,
         ebs::bench::SuiteContext &context)
{
    SuiteResult result;
    result.name = suite.name;

    struct rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    const double start = ebs::stats::hostNow();
    try {
        result.exit_code = suite.fn(context);
    } catch (const std::exception &e) {
        context.eprintf("run_all: suite %s threw: %s\n",
                        suite.name.c_str(), e.what());
        result.exit_code = 1;
    } catch (...) {
        context.eprintf("run_all: suite %s threw a non-std exception\n",
                        suite.name.c_str());
        result.exit_code = 1;
    }
    result.wall_seconds = ebs::stats::hostNow() - start;
    struct rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    // CPU time is a process-wide delta over the suite's window:
    // concurrently running suites overlap, so per-suite user/sys can
    // sum to more than the fleet total. Wall and paper metrics are the
    // comparable numbers; these stay for rough cost attribution.
    result.user_seconds =
        static_cast<double>(after.ru_utime.tv_sec -
                            before.ru_utime.tv_sec) +
        (after.ru_utime.tv_usec - before.ru_utime.tv_usec) / 1e6;
    result.sys_seconds =
        static_cast<double>(after.ru_stime.tv_sec -
                            before.ru_stime.tv_sec) +
        (after.ru_stime.tv_usec - before.ru_stime.tv_usec) / 1e6;
    // ru_maxrss is the process high-water mark — monotone, so this is
    // "fleet peak as of this suite's completion", not a per-suite peak.
    result.max_rss_kb = after.ru_maxrss;
    return result;
}

void
writeJson(const fs::path &out_path, const std::vector<SuiteResult> &results,
          bool smoke)
{
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "run_all: cannot write %s: %s\n",
                     out_path.c_str(), std::strerror(errno));
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema_version\": 2,\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"suites\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SuiteResult &r = results[i];
        std::fprintf(f,
                     "    \"%s\": {\n"
                     "      \"exit_code\": %d,\n"
                     "      \"wall_seconds\": %.6f,\n"
                     "      \"user_seconds\": %.6f,\n"
                     "      \"sys_seconds\": %.6f,\n"
                     "      \"max_rss_kb\": %ld,\n"
                     "      \"paper_metrics\": [",
                     r.name.c_str(), r.exit_code, r.wall_seconds,
                     r.user_seconds, r.sys_seconds, r.max_rss_kb);
        for (std::size_t m = 0; m < r.paper_metrics.size(); ++m)
            std::fprintf(f, "\n        %s%s", r.paper_metrics[m].c_str(),
                         m + 1 < r.paper_metrics.size() ? "," : "\n      ");
        std::fprintf(f, "]\n    }%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
}

/**
 * The scheduler-side view of the fleet run: how the suite tasks packed
 * onto the single shared pool (`budget` workers), who the straggler was,
 * and how busy the capacity stayed.
 */
struct FleetSummary
{
    int budget = 1;
    double makespan_s = 0.0;
    double busy_s = 0.0; ///< summed per-suite wall inside the schedule
    double utilization = 0.0;
    std::size_t straggler = 0; ///< index into the timings
};

FleetSummary
summarize(const std::vector<ebs::sched::TaskTiming> &timings, int budget)
{
    FleetSummary s;
    s.budget = budget;
    if (timings.empty())
        return s;
    double first_start = timings[0].start_s;
    double last_end = timings[0].end_s;
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const auto &t = timings[i];
        first_start = std::min(first_start, t.start_s);
        last_end = std::max(last_end, t.end_s);
        s.busy_s += t.duration();
        if (t.duration() > timings[s.straggler].duration())
            s.straggler = i;
    }
    s.makespan_s = last_end - first_start;
    // Suites share one pool and their episodes interleave, so "suite
    // wall over budget slots" is a lower bound on pool business.
    const double capacity = s.makespan_s * budget;
    s.utilization = capacity > 0.0 ? s.busy_s / capacity : 0.0;
    return s;
}

void
writeTimeline(const fs::path &path,
              const std::vector<ebs::sched::TaskTiming> &timings,
              const std::vector<SuiteResult> &results,
              const FleetSummary &s,
              const std::vector<std::size_t> &order)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "run_all: cannot write %s: %s\n",
                     path.c_str(), std::strerror(errno));
        return;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"budget\": %d,\n"
                 "  \"pool_workers\": %d,\n"
                 "  \"makespan_seconds\": %.6f,\n"
                 "  \"busy_seconds\": %.6f,\n"
                 "  \"utilization\": %.4f,\n"
                 "  \"straggler\": \"%s\",\n"
                 "  \"suites\": [",
                 s.budget, s.budget, s.makespan_s, s.busy_s, s.utilization,
                 timings.empty() ? "" : timings[s.straggler].label.c_str());
    for (std::size_t i = 0; i < timings.size(); ++i) {
        // Timings are in submission (schedule) order; map each back to
        // its suite's result slot.
        const SuiteResult &result = results[order[i]];
        std::fprintf(f,
                     "%s\n    {\"name\": \"%s\", \"start_s\": %.6f, "
                     "\"end_s\": %.6f, \"wall_seconds\": %.6f, "
                     "\"exit_code\": %d, \"max_rss_kb\": %ld",
                     i > 0 ? "," : "", timings[i].label.c_str(),
                     timings[i].start_s, timings[i].end_s,
                     timings[i].duration(), result.exit_code,
                     result.max_rss_kb);
        if (result.phase_wall.episodes > 0)
            std::fprintf(f,
                         ", \"phase_compute_s\": %.6f, "
                         "\"phase_execute_s\": %.6f, \"episodes\": %lld",
                         result.phase_wall.compute_s,
                         result.phase_wall.execute_s,
                         result.phase_wall.episodes);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
}

/** The driver's own fleet-level trace lines: a process-name metadata
 * record and one 'X' slice per suite on pid 1 (tid = the pool worker
 * that ran, or babysat, the suite). */
std::vector<std::string>
fleetTraceLines(const std::vector<ebs::sched::TaskTiming> &timings,
                const std::vector<SuiteResult> &results,
                const std::vector<std::size_t> &order)
{
    std::vector<std::string> lines;
    lines.push_back("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
                    "\"name\":\"process_name\","
                    "\"args\":{\"name\":\"run_all fleet\"}}");
    // Suite slices in submission order: tasks of one worker are claimed
    // in submission order, so each (pid 1, tid) track's timestamps come
    // out nondecreasing — the invariant trace_summarize --validate pins.
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const SuiteResult &result = results[order[i]];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"cat\":\"suite\",\"name\":\"%s\","
                      "\"args\":{\"exit_code\":%d,\"max_rss_kb\":%ld}}",
                      timings[i].worker, timings[i].start_s * 1e6,
                      timings[i].duration() * 1e6,
                      timings[i].label.c_str(), result.exit_code,
                      result.max_rss_kb);
        lines.push_back(buf);
    }
    return lines;
}

void
writeTraceFile(const fs::path &trace_path,
               const std::vector<std::string> &lines)
{
    std::FILE *f = std::fopen(trace_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "run_all: cannot write %s: %s\n",
                     trace_path.c_str(), std::strerror(errno));
        return;
    }
    std::fputs("{ \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::fputs(lines[i].c_str(), f);
        std::fputs(i + 1 < lines.size() ? ",\n" : "\n", f);
    }
    std::fputs("] }\n", f);
    std::fclose(f);
}

/**
 * The merged fleet trace: the driver's suite slices, every suite's
 * private Tracer rendered in memory under its own disjoint 10 + 10*i pid
 * block, and the shared Tracer's scheduler host-task track — the single
 * pool every suite's episodes actually ran on.
 */
void
writeMergedTrace(
    const fs::path &trace_path,
    const std::vector<ebs::sched::TaskTiming> &timings,
    const std::vector<SuiteResult> &results,
    const std::vector<std::size_t> &order,
    const std::vector<std::string> &names,
    const std::vector<std::unique_ptr<ebs::bench::SuiteContext>> &contexts)
{
    std::vector<std::string> lines =
        fleetTraceLines(timings, results, order);
    for (const auto &line : ebs::obs::Tracer::shared().chromeLines(
             "run_all scheduler", /*pid_base=*/4))
        lines.push_back(line);
    for (std::size_t i = 0; i < contexts.size(); ++i)
        for (const auto &line : contexts[i]->tracer().chromeLines(
                 names[i], /*pid_base=*/static_cast<int>(10 + 10 * i)))
            lines.push_back(line);
    writeTraceFile(trace_path, lines);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool list_only = false;
    bool list_suites = false;
    bool serial = false;
    std::string filter;
    std::string suites_arg;
    std::vector<std::string> suite_args; // everything after `--`
    int budget = 0; // 0 = EBS_JOBS / hardware default
    fs::path out_path = "BENCH_results.json";
    fs::path log_dir = "BENCH_logs";
    fs::path timeline_path = "BENCH_timeline.json";
    fs::path trace_path = "BENCH_trace.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--") {
            suite_args.assign(argv + i + 1, argv + argc);
            break;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--list-suites") {
            list_suites = true;
        } else if (arg == "--serial") {
            serial = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--logs" && i + 1 < argc) {
            log_dir = argv[++i];
        } else if (arg == "--timeline" && i + 1 < argc) {
            timeline_path = argv[++i];
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--filter" && i + 1 < argc) {
            filter = argv[++i];
        } else if (arg == "--suites" && i + 1 < argc) {
            suites_arg = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            const std::string jobs = argv[++i];
            char *end = nullptr;
            const long parsed = std::strtol(jobs.c_str(), &end, 10);
            if (end == jobs.c_str() || *end != '\0' || parsed <= 0 ||
                parsed > 1024) {
                std::fprintf(stderr,
                             "run_all: --jobs wants an integer in "
                             "1..1024, got '%s'\n",
                             jobs.c_str());
                return 2;
            }
            budget = static_cast<int>(parsed);
        } else {
            std::fprintf(stderr,
                         "usage: run_all [--smoke] [--list] "
                         "[--list-suites] [--serial] "
                         "[--out PATH] [--logs DIR] [--timeline PATH] "
                         "[--trace-out PATH] [--filter STR] "
                         "[--suites a,b,c] [--jobs N] [-- SUITE_ARGS...]\n");
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    if (budget <= 0)
        budget = ebs::sched::FleetScheduler::defaultWorkers();

    const auto &registry = ebs::bench::SuiteRegistry::instance();
    if (list_suites) {
        for (const auto &suite : registry.suites())
            std::printf("%-28s %s\n", suite.name.c_str(),
                        suite.description.c_str());
        return 0;
    }

    std::vector<std::string> names;
    for (const auto &suite : registry.suites())
        names.push_back(suite.name);
    if (names.empty()) {
        std::fprintf(stderr, "run_all: no suites registered\n");
        return 1;
    }

    // --suites: an explicit, validated selection in list order; a miss
    // fails loudly with near-miss suggestions instead of silently
    // shrinking the fleet.
    std::vector<std::size_t> selected;
    if (!suites_arg.empty()) {
        for (const auto &entry : ebs::bench::splitList(suites_arg)) {
            const auto resolution = ebs::bench::resolveSuite(entry, names);
            if (!resolution.ok()) {
                std::fprintf(stderr, "run_all: --suites entry '%s' %s\n",
                             entry.c_str(),
                             resolution.ambiguous ? "is ambiguous"
                                                  : "matches no suite");
                for (const auto &candidate : resolution.candidates)
                    std::fprintf(stderr, "run_all:   %s %s\n",
                                 resolution.ambiguous ? "candidate:"
                                                      : "did you mean:",
                                 candidate.c_str());
                return 2;
            }
            if (std::find(selected.begin(), selected.end(),
                          resolution.index) == selected.end())
                selected.push_back(resolution.index);
        }
    } else {
        selected.resize(names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
            selected[i] = i;
    }
    if (!filter.empty()) {
        std::erase_if(selected, [&](std::size_t i) {
            return names[i].find(filter) == std::string::npos;
        });
        if (selected.empty()) {
            std::fprintf(stderr,
                         "run_all: --filter '%s' matched none of the %zu "
                         "known suites\n",
                         filter.c_str(), names.size());
            return 1;
        }
    }
    // Suite arguments mean one suite's command line (a CSV directory,
    // --window, Google Benchmark flags); handing them to several suites
    // at once would be a guess.
    if (!suite_args.empty() && selected.size() != 1) {
        std::fprintf(stderr,
                     "run_all: suite arguments after '--' need exactly one "
                     "selected suite, got %zu (use --suites NAME)\n",
                     selected.size());
        return 2;
    }
    if (list_only) {
        for (const std::size_t i : selected)
            std::printf("%s\n", names[i].c_str());
        return 0;
    }

    std::error_code ec;
    fs::create_directories(log_dir, ec);
    if (ec || !fs::is_directory(log_dir)) {
        std::fprintf(stderr, "run_all: cannot create log dir %s: %s\n",
                     log_dir.c_str(),
                     ec ? ec.message().c_str() : "not a directory");
        return 1;
    }

    const std::size_t n_suites = selected.size();
    std::vector<std::string> sel_names;
    std::vector<fs::path> log_paths, err_paths;
    for (const std::size_t i : selected) {
        sel_names.push_back(names[i]);
        log_paths.push_back(log_dir / (names[i] + ".log"));
        err_paths.push_back(log_dir / (names[i] + ".err.log"));
    }

    // Seed the submission order from the previous run's timeline
    // (longest suite first): the scheduler starts tasks in submission
    // order, so known stragglers begin immediately instead of last.
    const auto previous_durations =
        ebs::bench::readTimelineDurations(timeline_path.string());
    const std::vector<std::size_t> order =
        ebs::bench::scheduleOrder(sel_names, previous_durations);

    // One shared FleetScheduler pool for the suite tasks AND every
    // suite's episode fan-out. The pool is built here (not
    // FleetScheduler::shared()) so --jobs sizes it regardless of when
    // EBS_JOBS was read. No budget split: a draining suite's workers
    // immediately absorb the straggler's episodes.
    std::printf("[run_all] fleet: %zu suites, budget %d "
                "(one shared pool%s)\n",
                n_suites, budget, serial ? ", --serial" : "");
    if (!previous_durations.empty())
        std::printf("[run_all] schedule seeded from %s "
                    "(longest suite first)\n",
                    timeline_path.c_str());

    ebs::sched::FleetScheduler scheduler(budget);
    std::vector<const ebs::bench::SuiteInfo *> infos;
    std::vector<std::FILE *> outs(n_suites, nullptr);
    std::vector<std::FILE *> errs(n_suites, nullptr);
    std::vector<std::unique_ptr<ebs::bench::SuiteContext>> contexts;
    for (std::size_t i = 0; i < n_suites; ++i) {
        infos.push_back(registry.find(sel_names[i]));
        outs[i] = std::fopen(log_paths[i].c_str(), "w");
        errs[i] = std::fopen(err_paths[i].c_str(), "w");
        if (outs[i] == nullptr || errs[i] == nullptr) {
            std::fprintf(stderr, "run_all: cannot open logs for %s: %s\n",
                         sel_names[i].c_str(), std::strerror(errno));
            return 1;
        }
        ebs::bench::SuiteContext::Config config;
        config.out = outs[i];
        config.err = errs[i];
        config.smoke = smoke;
        config.args = suite_args;
        config.scheduler = &scheduler;
        config.jobs = budget;
        contexts.push_back(
            std::make_unique<ebs::bench::SuiteContext>(config));
    }

    std::vector<SuiteResult> results(n_suites);
    ebs::core::Mutex print_mutex;
    ebs::sched::TaskGraph graph;
    for (const std::size_t i : order) {
        graph.add(
            [&, i] {
                results[i] = runSuite(*infos[i], *contexts[i]);
                std::fflush(outs[i]);
                std::fflush(errs[i]);
                ebs::core::MutexLock lock(print_mutex);
                std::printf("[run_all] %-32s exit=%d wall=%.2fs\n",
                            results[i].name.c_str(), results[i].exit_code,
                            results[i].wall_seconds);
                std::fflush(stdout);
            },
            sel_names[i]);
    }
    // Cap at the pool width so the help-executing run() caller cannot
    // add a (budget+1)-th in-flight suite; --serial runs suites one at a
    // time, each still fanning episodes across the whole pool.
    const std::vector<ebs::sched::TaskTiming> timings =
        scheduler.run(std::move(graph), serial ? 1 : budget);

    for (std::size_t i = 0; i < n_suites; ++i) {
        std::fclose(outs[i]);
        std::fclose(errs[i]);
        results[i].paper_metrics = collectMetricLines(log_paths[i]);
        results[i].phase_wall = contexts[i]->phaseWall().snapshot();
    }

    const FleetSummary summary = summarize(timings, budget);
    std::printf("[run_all] schedule: makespan %.2fs, suite wall sum "
                "%.2fs, single shared pool (%d workers)\n",
                summary.makespan_s, summary.busy_s, budget);
    if (!timings.empty()) {
        const auto &straggler = timings[summary.straggler];
        std::printf("[run_all] straggler: %s (%.2fs, %.0f%% of makespan)\n",
                    straggler.label.c_str(), straggler.duration(),
                    summary.makespan_s > 0.0
                        ? 100.0 * straggler.duration() / summary.makespan_s
                        : 0.0);
    }
    writeTimeline(timeline_path, timings, results, summary, order);
    if (ebs::obs::traceEnabled()) {
        writeMergedTrace(trace_path, timings, results, order, sel_names,
                         contexts);
        std::printf("[run_all] wrote %s (merged %zu suite tracks)\n",
                    trace_path.c_str(), contexts.size());
    }

    int failures = 0;
    for (const auto &r : results)
        failures += r.exit_code != 0;

    // Memory high-water mark of the fleet: suites share one process, so
    // there is one peak and no suite to credit it to.
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    std::printf("[run_all] peak rss: %ld KB (process high-water)\n",
                usage.ru_maxrss);

    // Per-episode compute/execute host split across every suite that
    // ran episodes: makes the speculative execute-phase win visible at
    // fleet level and in BENCH_timeline.json.
    {
        ebs::stats::PhaseWallClock::Snapshot total;
        int reporting = 0;
        for (const auto &r : results) {
            if (r.phase_wall.episodes == 0)
                continue;
            total.compute_s += r.phase_wall.compute_s;
            total.execute_s += r.phase_wall.execute_s;
            total.episodes += r.phase_wall.episodes;
            ++reporting;
        }
        if (total.episodes > 0)
            std::printf("[run_all] phase wall (%d suites, %lld episodes): "
                        "compute %.2fs + execute %.2fs "
                        "(%.1fms + %.1fms per episode)\n",
                        reporting, total.episodes, total.compute_s,
                        total.execute_s,
                        1000.0 * total.compute_s / total.episodes,
                        1000.0 * total.execute_s / total.episodes);
    }

    writeJson(out_path, results, smoke);
    std::printf("[run_all] wrote %s (%zu suites, %d failed)\n",
                out_path.c_str(), results.size(), failures);
    return failures == 0 ? 0 : 1;
}
