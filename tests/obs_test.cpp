/**
 * @file
 * Tests for src/obs (dual-clock tracing + metrics registry): metric
 * merge semantics, episode trace log begin/end balance, and the
 * subsystem's headline contracts — the sim-time span stream is
 * byte-identical at EBS_JOBS 1 vs 8, simulated results are untouched by
 * tracing, and per-episode metrics fold through runner::RunStats like
 * every other tally.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "runner/run_stats.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace {

using namespace ebs;

/** Restore tracing-off and an empty tracer no matter how a test exits:
 * a leaked enable would silently slow (and trace) every later test. */
class ScopedTracing
{
  public:
    explicit ScopedTracing(bool on)
    {
        obs::setTraceEnabled(on);
        obs::Tracer::shared().clear();
    }
    ~ScopedTracing()
    {
        obs::setTraceEnabled(false);
        obs::Tracer::shared().clear();
    }
    ScopedTracing(const ScopedTracing &) = delete;
    ScopedTracing &operator=(const ScopedTracing &) = delete;
};

/**
 * A fixed-seed episode grid across all three paradigms with the full
 * optimization pipeline on — modeled parallel agents, LLM batch
 * assembly, speculative execute — so the trace exercises phase spans,
 * batch instants, and commit-outcome instants at once.
 */
std::vector<runner::EpisodeJob>
tracedGrid()
{
    std::vector<runner::EpisodeJob> jobs;
    for (const char *name : {"EmbodiedGPT", "MindAgent", "RoCo"}) {
        const auto &spec = workloads::workload(name);
        for (int seed = 1; seed <= 2; ++seed) {
            runner::EpisodeJob job;
            job.workload = &spec;
            job.config = spec.config;
            job.difficulty = env::Difficulty::Easy;
            job.seed = runner::episodeSeed(seed);
            job.pipeline.parallel_agents = true;
            job.pipeline.batch_llm_calls = true;
            job.pipeline.speculative_execute = true;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(MetricSet, CountersGaugesHistograms)
{
    obs::MetricSet m;
    EXPECT_TRUE(m.empty());
    m.add("calls");
    m.add("calls", 2);
    EXPECT_EQ(m.counter("calls"), 3);
    EXPECT_EQ(m.counter("absent"), 0);

    m.gaugeMax("peak", 2.0);
    m.gaugeMax("peak", 1.0); // lower value must not regress the gauge
    EXPECT_EQ(m.gauges().at("peak"), 2.0);

    const double bounds[] = {1.0, 2.0, 4.0};
    m.observe("occ", 0.5, bounds); // bucket 0
    m.observe("occ", 2.0, bounds); // inclusive upper bound -> bucket 1
    m.observe("occ", 9.0, bounds); // overflow
    const auto &hist = m.histograms().at("occ");
    ASSERT_EQ(hist.counts.size(), 4u);
    EXPECT_EQ(hist.counts[0], 1);
    EXPECT_EQ(hist.counts[1], 1);
    EXPECT_EQ(hist.counts[2], 0);
    EXPECT_EQ(hist.counts[3], 1);
    EXPECT_EQ(hist.total, 3);
    EXPECT_EQ(hist.sum, 11.5);
    EXPECT_FALSE(m.empty());
}

TEST(MetricSet, MergeAddsMaxesAndNeverLosesObservations)
{
    const double bounds[] = {1.0, 2.0};
    const double other_bounds[] = {5.0};

    obs::MetricSet a;
    a.add("n", 2);
    a.gaugeMax("g", 1.0);
    a.observe("h", 0.5, bounds);
    a.observe("mismatch", 0.5, bounds);

    obs::MetricSet b;
    b.add("n", 3);
    b.gaugeMax("g", 4.0);
    b.observe("h", 1.5, bounds);
    b.observe("mismatch", 0.5, other_bounds);
    b.observe("fresh", 7.0, bounds);

    a.merge(b);
    EXPECT_EQ(a.counter("n"), 5);
    EXPECT_EQ(a.gauges().at("g"), 4.0);

    const auto &h = a.histograms().at("h");
    EXPECT_EQ(h.counts[0], 1);
    EXPECT_EQ(h.counts[1], 1);
    EXPECT_EQ(h.total, 2);

    // Disagreeing bounds (never happens for in-tree names) land in the
    // overflow bucket rather than disappearing.
    const auto &mismatch = a.histograms().at("mismatch");
    EXPECT_EQ(mismatch.counts.back(), 1);
    EXPECT_EQ(mismatch.total, 2);

    // A histogram only the other side has is adopted wholesale.
    EXPECT_EQ(a.histograms().at("fresh").total, 1);
}

TEST(EpisodeTraceLog, SpansBalanceAndHostFlagsPropagate)
{
    obs::EpisodeTraceLog log(42);
    EXPECT_EQ(log.episodeId(), 42u);

    log.beginSpan("episode", "e", 0.0, 100.0); // host-stamped
    log.beginSpan("step", "step 0", 0.0);      // sim-only
    log.instant("spec", "spec.commit", 1.0, 2, {{"latency_s", 0.5}});
    // The E of a sim-only B must drop its host stamp even when the
    // caller passes one, so the host projection stays B/E-balanced.
    log.endSpan(3.0, 103.0);
    EXPECT_EQ(log.openSpans(), 1);
    log.closeOpenSpans(5.0, 105.0);
    EXPECT_EQ(log.openSpans(), 0);

    const auto &events = log.events();
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].ph, 'B');
    EXPECT_GE(events[0].host_s, 0.0);
    EXPECT_EQ(events[1].ph, 'B');
    EXPECT_LT(events[1].host_s, 0.0);
    EXPECT_EQ(events[2].ph, 'i');
    EXPECT_EQ(events[2].agent, 2);
    EXPECT_EQ(events[3].ph, 'E');
    EXPECT_LT(events[3].host_s, 0.0) << "sim-only span grew a host end";
    EXPECT_EQ(events[4].ph, 'E');
    EXPECT_GE(events[4].host_s, 0.0);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, i) << "sequence numbers must be dense";

    // A stray endSpan with nothing open is a no-op, not a crash.
    log.endSpan(6.0);
    EXPECT_EQ(log.events().size(), 5u);
}

TEST(Tracer, SimStreamByteIdenticalAcrossWorkerCounts)
{
    const auto jobs = tracedGrid();
    ScopedTracing tracing(true);
    obs::Tracer &tracer = obs::Tracer::shared();

    runner::EpisodeRunner(1).run(jobs);
    const std::string serial = tracer.simStream();

    tracer.clear(); // resets the batch ordinal: same episode ids again
    runner::EpisodeRunner(8).run(jobs);
    const std::string parallel = tracer.simStream();

    ASSERT_FALSE(serial.empty());
    // The stream must carry all three instrumented layers.
    EXPECT_NE(serial.find("cat=phase"), std::string::npos);
    EXPECT_NE(serial.find("cat=llm"), std::string::npos);
    EXPECT_NE(serial.find("cat=spec"), std::string::npos);
    EXPECT_TRUE(serial == parallel)
        << "sim-time span stream differs between EBS_JOBS 1 and 8 "
           "(serial " << serial.size() << " bytes, parallel "
        << parallel.size() << " bytes)";
}

TEST(Tracer, TracingDoesNotPerturbSimulatedResults)
{
    const auto jobs = tracedGrid();
    std::vector<core::EpisodeResult> plain;
    {
        ScopedTracing tracing(false);
        plain = runner::EpisodeRunner(4).run(jobs);
    }
    std::vector<core::EpisodeResult> traced;
    {
        ScopedTracing tracing(true);
        traced = runner::EpisodeRunner(4).run(jobs);
    }
    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        test::expectEpisodeIdentical(plain[i], traced[i]);
    }
}

TEST(Metrics, FoldThroughRunStats)
{
    // Metrics are always on (no EBS_TRACE needed): every episode fills
    // its MetricSet at finish and foldEpisodes merges them.
    const auto jobs = tracedGrid();
    const auto results = runner::EpisodeRunner(2).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const auto &r : results)
        EXPECT_FALSE(r.metrics.empty());

    const auto stats = runner::foldEpisodes(results);
    EXPECT_EQ(stats.metrics.counter("episode.count"),
              static_cast<long long>(jobs.size()));
    EXPECT_GT(stats.metrics.counter("episode.steps"), 0);
    EXPECT_GT(stats.metrics.counter("llm.calls"), 0);
    EXPECT_GT(stats.metrics.counter("llm.batches"), 0);
    EXPECT_GT(stats.metrics.counter("spec.turns"), 0);
    EXPECT_GT(stats.metrics.histograms().at("llm.batch_occupancy").total,
              0);

    // The metric mirrors of existing tallies must agree with them.
    long long steps = 0;
    for (const auto &r : results)
        steps += r.steps;
    EXPECT_EQ(stats.metrics.counter("episode.steps"), steps);
}

} // namespace
