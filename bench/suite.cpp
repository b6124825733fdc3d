#include "suite.h"

#include <algorithm>
#include <cstdarg>

#include "obs/json.h"

namespace ebs::bench {

namespace {

/** `text` as a JSON string literal, quotes included. */
std::string
quoted(const std::string &text)
{
    std::string out;
    obs::appendJsonString(out, text);
    return out;
}

} // namespace

SuiteContext::SuiteContext(const Config &config)
    : out_(config.out), err_(config.err), smoke_(config.smoke),
      args_(config.args),
      scheduler_(config.scheduler != nullptr
                     ? config.scheduler
                     : &sched::FleetScheduler::shared()),
      runner_(config.jobs, scheduler_, &tracer_)
{
}

void
// EBS_LINT_ALLOW(suite-io): the sink's own definition
SuiteContext::printf(const char *format, ...)
{
    std::va_list args;
    va_start(args, format);
    // EBS_LINT_ALLOW(suite-io): the SuiteContext sink itself
    std::vfprintf(out_, format, args);
    va_end(args);
}

void
SuiteContext::eprintf(const char *format, ...)
{
    std::va_list args;
    va_start(args, format);
    // EBS_LINT_ALLOW(suite-io): the SuiteContext sink itself
    std::vfprintf(err_, format, args);
    va_end(args);
}

void
SuiteContext::write(const std::string &text)
{
    // EBS_LINT_ALLOW(suite-io): the SuiteContext sink itself
    std::fwrite(text.data(), 1, text.size(), out_);
}

runner::EpisodeJob
SuiteContext::stamped(runner::EpisodeJob job)
{
    if (job.phase_wall == &stats::PhaseWallClock::shared())
        job.phase_wall = &phase_wall_;
    if (job.tracer == nullptr)
        job.tracer = &tracer_;
    return job;
}

runner::RunVariant
SuiteContext::stamped(runner::RunVariant variant)
{
    if (variant.phase_wall == &stats::PhaseWallClock::shared())
        variant.phase_wall = &phase_wall_;
    return variant;
}

std::vector<RunStats>
SuiteContext::runAveragedMany(std::vector<runner::RunVariant> variants)
{
    for (auto &variant : variants)
        variant = stamped(std::move(variant));
    return runner::runAveragedMany(runner_, variants);
}

std::vector<core::EpisodeResult>
SuiteContext::run(std::vector<runner::EpisodeJob> jobs)
{
    for (auto &job : jobs)
        job = stamped(std::move(job));
    return runner_.run(jobs);
}

void
SuiteContext::emitMetric(const std::string &bench_case, const RunStats &r)
{
    this->printf("EBS_METRIC {\"case\":%s,\"episodes\":%d,"
           "\"success_rate\":%s,\"avg_steps\":%s,"
           "\"s_per_step\":%s,\"runtime_min\":%s,"
           "\"llm_calls_per_episode\":%s,"
           "\"tokens_per_episode\":%s}\n",
           quoted(bench_case).c_str(), r.episodes,
           jsonNum(r.success_rate, 4).c_str(),
           jsonNum(r.avg_steps, 2).c_str(),
           jsonNum(r.avg_step_latency_s, 3).c_str(),
           jsonNum(r.avg_runtime_min, 3).c_str(),
           jsonNum(r.llmCallsPerEpisode(), 1).c_str(),
           jsonNum(r.tokensPerEpisode(), 0).c_str());
}

void
SuiteContext::emitScalarMetric(const std::string &bench_case,
                               const std::string &name, double value)
{
    this->printf("EBS_METRIC {\"case\":%s,%s:%s}\n",
           quoted(bench_case).c_str(), quoted(name).c_str(),
           jsonNum(value, 6).c_str());
}

double
SuiteContext::emitChargedMetrics(const std::string &bench_case,
                                 double sequential_s_per_step,
                                 double charged_s_per_step)
{
    const double saved =
        chargedSavedFraction(sequential_s_per_step, charged_s_per_step);
    emitScalarMetric(bench_case, "batched_s_per_step", charged_s_per_step);
    emitScalarMetric(bench_case, "batch_charge_saved_pct", 100.0 * saved);
    return saved;
}

void
SuiteContext::emitSpeculativeMetrics(const std::string &bench_case,
                                     const RunStats &r)
{
    emitScalarMetric(bench_case, "spec_exec_speedup", r.specExecSpeedup());
    emitScalarMetric(bench_case, "spec_conflict_rate",
                     r.specConflictRate());
    emitScalarMetric(bench_case, "spec_reexec_fraction",
                     r.specReexecFraction());
}

void
SuiteContext::emitSharedServiceSummary(const std::string &bench_case,
                                       std::span<const RunStats> rows)
{
    long long calls = 0;
    llm::BatchStats stats;
    for (const RunStats &row : rows) {
        calls += row.llm_calls;
        stats.merge(row.batching);
    }
    this->printf("shared engine service: %lld calls, %lld batches "
           "(%lld cross-agent), occupancy %.2f\n",
           calls, stats.batches, stats.cross_agent_batches,
           stats.occupancy());
    emitScalarMetric(bench_case, "batch_occupancy", stats.occupancy());
}

SuiteRegistry &
SuiteRegistry::instance()
{
    static SuiteRegistry registry;
    return registry;
}

void
SuiteRegistry::add(SuiteInfo info)
{
    suites_.push_back(std::move(info));
    sorted_ = false;
}

const std::vector<SuiteInfo> &
SuiteRegistry::suites() const
{
    if (!sorted_) {
        std::sort(suites_.begin(), suites_.end(),
                  [](const SuiteInfo &a, const SuiteInfo &b) {
                      return a.name < b.name;
                  });
        sorted_ = true;
    }
    return suites_;
}

const SuiteInfo *
SuiteRegistry::find(const std::string &name) const
{
    for (const SuiteInfo &suite : suites())
        if (suite.name == name)
            return &suite;
    return nullptr;
}

SuiteRegistrar::SuiteRegistrar(const char *name, const char *description,
                               int (*fn)(SuiteContext &))
{
    SuiteRegistry::instance().add(SuiteInfo{name, description, fn});
}

} // namespace ebs::bench
