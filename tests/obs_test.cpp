/**
 * @file
 * Tests for src/obs dual-clock tracing: episode trace log begin/end
 * balance, and the subsystem's headline contracts — the sim-time span
 * stream is byte-identical at EBS_JOBS 1 vs 8, and simulated results are
 * untouched by tracing.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "runner/averaged.h"
#include "runner/episode_runner.h"
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

} // namespace
