#ifndef EBS_BENCH_SUITE_H
#define EBS_BENCH_SUITE_H

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/trace.h"
#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "sched/fleet_scheduler.h"
#include "stats/phase_wall.h"

/**
 * The suite registry. Every bench is a library function
 * `int fn(SuiteContext &)` registered under its suite name; `run_all`
 * (the one entry point) runs the selected suites as one dependency-free
 * TaskGraph on a single FleetScheduler pool.
 *
 * SuiteContext carries everything a suite would otherwise take from
 * process-global state:
 *
 *  - the **output sinks**: all stdout emission (tables, EBS_METRIC
 *    lines) goes through ctx.printf()/ctx.write() and all stderr
 *    diagnostics (host timings) through ctx.eprintf(), so a suite's
 *    captured log never interleaves with its siblings' (the `suite-io`
 *    lint rule bans direct printf/stdout writes under bench/ to keep it
 *    that way);
 *  - **smoke mode** and the suite's **arguments** (`run_all -- ARGS`);
 *  - the **scheduler** episodes fan out on (one shared pool for the
 *    whole fleet — stragglers absorb freed capacity);
 *  - a per-suite **PhaseWallClock** and **Tracer**, substituted for the
 *    process-wide defaults when a variant/job left them at their
 *    defaults, so phase-wall splits and trace tracks stay per-suite
 *    while every suite shares one process.
 */
namespace ebs::bench {

class SuiteContext
{
  public:
    struct Config
    {
        // EBS_LINT_ALLOW(suite-io): the sink defaults themselves
        std::FILE *out = stdout; ///< stdout sink (captured log)
        // EBS_LINT_ALLOW(suite-io): the sink defaults themselves
        std::FILE *err = stderr; ///< stderr sink (diagnostics log)
        bool smoke = false;      ///< single-seed CI mode
        /** Suite arguments: what follows `--` on the run_all command
         * line (empty unless exactly one suite was selected). */
        std::vector<std::string> args;
        /** Pool episodes fan out on; nullptr = FleetScheduler::shared().
         * run_all passes its own budget-sized pool. */
        sched::FleetScheduler *scheduler = nullptr;
        /** In-flight episode cap of the context's runner; <= 0 selects
         * EpisodeRunner::defaultJobs() (EBS_JOBS). */
        int jobs = 0;
    };

    explicit SuiteContext(const Config &config);

    SuiteContext(const SuiteContext &) = delete;
    SuiteContext &operator=(const SuiteContext &) = delete;

    /** Smoke mode: run a single seed per variant (see seedCount). */
    bool smoke() const { return smoke_; }

    /** Requested seed count, clamped to 1 in smoke mode. */
    int seedCount(int requested) const { return smoke_ ? 1 : requested; }

    /** Suite arguments (never includes the program name). */
    const std::vector<std::string> &args() const { return args_; }

    /** The suite's stdout sink (the captured `<suite>.log`). */
    std::FILE *out() const { return out_; }

    /** The suite's stderr sink (host timings, usage errors). */
    std::FILE *err() const { return err_; }

    /** printf to the suite's stdout sink. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    // EBS_LINT_ALLOW(suite-io): the sink's own declaration
    void printf(const char *format, ...);

    /** printf to the suite's stderr sink. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    void eprintf(const char *format, ...);

    /** Write raw bytes to the suite's stdout sink (pre-rendered text,
     * e.g. Google Benchmark's console report). */
    void write(const std::string &text);

    /** The pool this suite's episodes fan out on (never null). */
    sched::FleetScheduler &scheduler() { return *scheduler_; }

    /** The suite's episode runner: bound to scheduler() and tracer(). */
    const runner::EpisodeRunner &runner() const { return runner_; }

    /** The suite's phase-wall accumulator. Variants/jobs left at
     * PhaseWallClock::shared() are re-pointed here by the stamping
     * runners below; run_all reads its snapshot into the phase-wall
     * summary and BENCH_timeline.json once the suite finished. */
    stats::PhaseWallClock &phaseWall() { return phase_wall_; }

    /** The suite's trace sink; run_all merges its chromeLines() into
     * BENCH_trace.json after the fleet completes. */
    obs::Tracer &tracer() { return tracer_; }

    /**
     * Re-point a job's process-global defaults at this suite's
     * instances: a phase_wall left at PhaseWallClock::shared() becomes
     * phaseWall(), and an unset tracer becomes tracer(). Deliberately
     * stamped fields pass through untouched.
     */
    runner::EpisodeJob stamped(runner::EpisodeJob job);

    /** See stamped(EpisodeJob) — the RunVariant equivalent. */
    runner::RunVariant stamped(runner::RunVariant variant);

    /** Stamp every variant and fan out through the suite's runner. */
    std::vector<RunStats>
    runAveragedMany(std::vector<runner::RunVariant> variants);

    /** Stamp every job and run the batch on the suite's runner. */
    std::vector<core::EpisodeResult>
    run(std::vector<runner::EpisodeJob> jobs);

    /** Emit one EBS_METRIC headline line (see bench_util.h history). */
    void emitMetric(const std::string &bench_case, const RunStats &r);

    /** Emit a single named scalar as an EBS_METRIC line. */
    void emitScalarMetric(const std::string &bench_case,
                          const std::string &name, double value);

    /** Emit the charged-batching metric pair; returns the saved
     * fraction for the suite's own table. */
    double emitChargedMetrics(const std::string &bench_case,
                              double sequential_s_per_step,
                              double charged_s_per_step);

    /** Emit the speculative-execute metric triple. */
    void emitSpeculativeMetrics(const std::string &bench_case,
                                const RunStats &r);

    /**
     * Report what the shared engine service served across `rows` (call
     * volume, cross-agent batch occupancy), folded from their
     * RunStats::llm_calls and RunStats::batching.
     */
    void emitSharedServiceSummary(const std::string &bench_case,
                                  std::span<const RunStats> rows);

  private:
    std::FILE *out_;
    std::FILE *err_;
    bool smoke_;
    std::vector<std::string> args_;
    sched::FleetScheduler *scheduler_;
    obs::Tracer tracer_;
    stats::PhaseWallClock phase_wall_;
    runner::EpisodeRunner runner_;
};

/** A registered suite: its fn plus what --list-suites prints. The name
 * is what `run_all --suites` resolves and names the suite's logs. */
struct SuiteInfo
{
    std::string name;
    std::string description;
    int (*fn)(SuiteContext &) = nullptr;
};

/**
 * The process-wide suite registry. Registration happens from static
 * initializers (EBS_BENCH_SUITE), so link order decides insertion
 * order; suites() sorts by name so the fleet order is stable.
 */
class SuiteRegistry
{
  public:
    static SuiteRegistry &instance();

    void add(SuiteInfo info);

    /** Every registered suite, sorted by name. */
    const std::vector<SuiteInfo> &suites() const;

    /** Exact-name lookup; nullptr when absent. */
    const SuiteInfo *find(const std::string &name) const;

  private:
    SuiteRegistry() = default;

    mutable std::vector<SuiteInfo> suites_;
    mutable bool sorted_ = false;
};

/** Registers one suite from a static initializer. */
struct SuiteRegistrar
{
    SuiteRegistrar(const char *name, const char *description,
                   int (*fn)(SuiteContext &));
};

/**
 * Register `fn` (an `int(SuiteContext &)`) under `name`. Use at
 * namespace scope, once per translation unit:
 *
 *     EBS_BENCH_SUITE("bench_fig2_latency", "Fig. 2 ...", suiteMain);
 */
#define EBS_BENCH_SUITE(name, description, fn)                             \
    static const ::ebs::bench::SuiteRegistrar kEbsSuiteRegistrar {         \
        (name), (description), (fn)                                       \
    }

} // namespace ebs::bench

#endif // EBS_BENCH_SUITE_H
