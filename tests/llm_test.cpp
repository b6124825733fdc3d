#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "llm/engine_service.h"
#include "llm/model_profile.h"
#include "sim/rng.h"

namespace ebs::llm {
namespace {

TEST(ModelProfile, PresetsAreOrderedByCapability)
{
    const auto gpt4 = ModelProfile::gpt4Api();
    const auto l8 = ModelProfile::llama3_8bLocal();
    const auto l13 = ModelProfile::llama13bLocal();
    EXPECT_GT(gpt4.plan_quality, l13.plan_quality);
    EXPECT_GT(l13.plan_quality, l8.plan_quality);
    EXPECT_TRUE(gpt4.remote);
    EXPECT_FALSE(l8.remote);
    // Local models decode faster per token than the API model here (small
    // models on a dedicated GPU).
    EXPECT_GT(l8.decode_tok_per_s, gpt4.decode_tok_per_s);
}

TEST(ModelProfile, DilutionFactorMonotone)
{
    const auto p = ModelProfile::gpt4Api();
    EXPECT_DOUBLE_EQ(p.dilutionFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(p.dilutionFactor(1000), 1.0);
    const double mid = p.dilutionFactor(20000);
    const double far = p.dilutionFactor(60000);
    EXPECT_LT(mid, 1.0);
    EXPECT_LT(far, mid);
    EXPECT_GT(far, 0.0);
}

TEST(ModelProfile, QuantizedIsFasterSlightlyWorse)
{
    const auto base = ModelProfile::llama3_8bLocal();
    const auto q = ModelProfile::quantized(base);
    EXPECT_GT(q.decode_tok_per_s, base.decode_tok_per_s);
    EXPECT_LT(q.plan_quality, base.plan_quality);
    EXPECT_NE(q.name, base.name);
}

TEST(ModelProfile, LoraTuningClosesQualityGap)
{
    const auto base = ModelProfile::llama3_8bLocal();
    const auto tuned = ModelProfile::loraTuned(base, 0.5);
    EXPECT_NEAR(tuned.plan_quality,
                base.plan_quality + 0.5 * (1.0 - base.plan_quality), 1e-9);
    EXPECT_GT(tuned.comm_quality, base.comm_quality);
    EXPECT_GT(tuned.format_compliance, base.format_compliance);
    // Inference speed unchanged: LoRA adds negligible compute.
    EXPECT_DOUBLE_EQ(tuned.decode_tok_per_s, base.decode_tok_per_s);
    // Gain is clamped.
    const auto maxed = ModelProfile::loraTuned(base, 5.0);
    EXPECT_DOUBLE_EQ(maxed.plan_quality, 1.0);
    const auto zero = ModelProfile::loraTuned(base, 0.0);
    EXPECT_DOUBLE_EQ(zero.plan_quality, base.plan_quality);
}

/**
 * The LLM engine under test: one handle on a session of a local service,
 * the path every agent module's LLM call takes. complete() is a per-call
 * completion; completeBatch() sends its requests as one batch group and
 * returns the group's BatchRecord.
 */
class TestEngine
{
  public:
    TestEngine(const ModelProfile &profile, std::uint64_t seed)
        : handle_(session_.handle(profile, sim::Rng(seed)))
    {
    }

    LlmResponse complete(const LlmRequest &request)
    {
        return handle_.complete(request);
    }

    BatchRecord
    completeBatch(const std::vector<LlmRequest> &requests,
                  std::vector<LlmResponse> *responses = nullptr)
    {
        for (const auto &request : requests) {
            const LlmResponse resp = handle_.complete(request);
            if (responses != nullptr)
                responses->push_back(resp);
        }
        session_.flush();
        return session_.log().back();
    }

    EngineHandle &handle() { return handle_; }
    EngineSession &session() { return session_; }

  private:
    LlmEngineService service_;
    EngineSession session_ = service_.openSession();
    EngineHandle handle_;
};

TEST(LlmEngine, LatencyCompositionRemote)
{
    const auto profile = ModelProfile::gpt4Api();
    LlmRequest req;
    req.tokens_in = 5000;
    req.tokens_out_mean = 110;
    // RTT + prefill + decode, using means.
    EXPECT_NEAR(expectedCompletionLatency(profile, req),
                profile.api_rtt_mean_s + 5000 / profile.prefill_tok_per_s +
                    110 / profile.decode_tok_per_s,
                1e-9);

    // A sampled call pays its prefill and decode plus a positive RTT on
    // the remote backend, and no RTT on a local one.
    TestEngine remote(profile, 1);
    const auto r = remote.complete(req);
    EXPECT_GT(r.latency_s - r.tokens_in / profile.prefill_tok_per_s -
                  r.tokens_out / profile.decode_tok_per_s,
              0.0);
    const auto local_profile = ModelProfile::llama3_8bLocal();
    TestEngine local(local_profile, 1);
    const auto l = local.complete(req);
    EXPECT_NEAR(l.latency_s,
                l.tokens_in / local_profile.prefill_tok_per_s +
                    l.tokens_out / local_profile.decode_tok_per_s,
                1e-9);
}

TEST(LlmEngine, SampledLatencyNearExpected)
{
    const auto profile = ModelProfile::gpt4Api();
    TestEngine engine(profile, 2);
    LlmRequest req;
    req.tokens_in = 2000;
    req.tokens_out_mean = 100;
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        sum += engine.complete(req).latency_s;
    const double expected = expectedCompletionLatency(profile, req);
    EXPECT_NEAR(sum / n, expected, expected * 0.1);
}

TEST(LlmEngine, TruncatesAtContextLimit)
{
    auto profile = ModelProfile::llama3_8bLocal();
    profile.context_limit = 1000;
    TestEngine engine(profile, 3);
    LlmRequest req;
    req.tokens_in = 5000;
    const auto resp = engine.complete(req);
    EXPECT_TRUE(resp.truncated);
    EXPECT_EQ(resp.tokens_in, 1000);
}

TEST(LlmEngine, RejectsNegativePromptTokens)
{
    // Unchecked in a Release build, a negative prompt is clamped to a
    // negative prefill that subtracts from the call's latency.
    LlmRequest req;
    req.tokens_in = -1;
    sim::Rng rng(4);
    try {
        sampleCompletion(ModelProfile::gpt4Api(), req, rng);
        ADD_FAILURE() << "tokens_in -1 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("tokens_in"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LlmEngine, QualityDropsWithDilution)
{
    auto profile = ModelProfile::gpt4Api();
    TestEngine short_engine(profile, 4);
    TestEngine long_engine(profile, 4);
    int short_good = 0, long_good = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        LlmRequest small;
        small.tokens_in = 500;
        short_good += short_engine.complete(small).good;
        LlmRequest large;
        large.tokens_in = 30000;
        long_good += long_engine.complete(large).good;
    }
    EXPECT_GT(short_good, long_good + n / 20);
}

TEST(LlmEngine, ComplexityReducesQuality)
{
    TestEngine a(ModelProfile::gpt4Api(), 5);
    TestEngine b(ModelProfile::gpt4Api(), 5);
    int easy = 0, complex_good = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        LlmRequest req;
        req.tokens_in = 500;
        easy += a.complete(req).good;
        req.complexity = 0.5;
        complex_good += b.complete(req).good;
    }
    EXPECT_GT(easy, complex_good + n / 10);
}

TEST(LlmEngine, UsageAccounting)
{
    TestEngine engine(ModelProfile::gpt4Api(), 6);
    LlmRequest req;
    req.tokens_in = 100;
    req.tokens_out_mean = 10;
    engine.complete(req);
    engine.complete(req);
    const LlmUsage &usage = engine.handle().usage();
    EXPECT_EQ(usage.calls, 2u);
    EXPECT_EQ(usage.tokens_in, 200);
    EXPECT_GT(usage.tokens_out, 0);
    EXPECT_GT(usage.total_latency_s, 0.0);
}

TEST(LlmEngine, BatchIsFasterThanSequential)
{
    TestEngine seq(ModelProfile::gpt4Api(), 7);
    TestEngine bat(ModelProfile::gpt4Api(), 7);
    std::vector<LlmRequest> requests(6);
    for (auto &r : requests) {
        r.tokens_in = 800;
        r.tokens_out_mean = 80;
    }
    double sequential = 0.0;
    for (const auto &r : requests)
        sequential += seq.complete(r).latency_s;
    const BatchRecord batch = bat.completeBatch(requests);
    EXPECT_EQ(batch.requests, 6);
    EXPECT_LT(batch.batched_s, sequential * 0.6);
}

TEST(LlmEngine, BatchEmptyIsEmpty)
{
    // A flush with nothing open logs nothing, costs nothing, and
    // consumes no randomness.
    TestEngine engine(ModelProfile::gpt4Api(), 8);
    engine.session().flush();
    EXPECT_TRUE(engine.session().log().empty());
    EXPECT_EQ(engine.session().takePendingCharge(), 0.0);
    EXPECT_EQ(engine.handle().usage().calls, 0u);
    TestEngine untouched(ModelProfile::gpt4Api(), 8);
    LlmRequest req;
    req.tokens_in = 500;
    EXPECT_EQ(engine.complete(req).latency_s,
              untouched.complete(req).latency_s);
}

TEST(LlmEngine, BatchOfOneIsExactlyComplete)
{
    // A group of one costs exactly its sampled latency.
    LlmRequest req;
    req.tokens_in = 1200;
    req.tokens_out_mean = 70;

    TestEngine single(ModelProfile::gpt4Api(), 21);
    TestEngine batched(ModelProfile::gpt4Api(), 21);
    const auto a = single.complete(req);
    std::vector<LlmResponse> responses;
    const BatchRecord batch = batched.completeBatch({req}, &responses);
    ASSERT_EQ(responses.size(), 1u);
    const auto &b = responses.front();
    EXPECT_EQ(batch.requests, 1);
    EXPECT_EQ(batch.batched_s, a.latency_s); // bitwise: same draws
    EXPECT_EQ(batch.baseline_s, a.latency_s);
    EXPECT_EQ(a.latency_s, b.latency_s);
    EXPECT_EQ(a.tokens_in, b.tokens_in);
    EXPECT_EQ(a.tokens_out, b.tokens_out);
    EXPECT_EQ(a.parse_ok, b.parse_ok);
    EXPECT_EQ(a.good, b.good);
}

TEST(LlmEngine, BatchResponseStreamMatchesSequential)
{
    // Batching is a latency model only: every response is bit-identical
    // to issuing the same requests one group at a time on the same
    // stream.
    std::vector<LlmRequest> requests(5);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].tokens_in = 400 + 300 * static_cast<int>(i);
        requests[i].tokens_out_mean = 40 + 10 * static_cast<int>(i);
    }
    TestEngine seq(ModelProfile::gpt4Api(), 22);
    TestEngine bat(ModelProfile::gpt4Api(), 22);
    std::vector<LlmResponse> sequential;
    for (const auto &r : requests)
        seq.completeBatch({r}, &sequential);
    std::vector<LlmResponse> batched;
    const BatchRecord batch = bat.completeBatch(requests, &batched);
    EXPECT_EQ(batch.requests, static_cast<int>(requests.size()));
    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto &a = sequential[i];
        const auto &b = batched[i];
        EXPECT_EQ(a.latency_s, b.latency_s);
        EXPECT_EQ(a.tokens_in, b.tokens_in);
        EXPECT_EQ(a.tokens_out, b.tokens_out);
        EXPECT_EQ(a.parse_ok, b.parse_ok);
        EXPECT_EQ(a.good, b.good);
        EXPECT_EQ(a.truncated, b.truncated);
    }
    EXPECT_EQ(seq.handle().usage().total_latency_s,
              bat.handle().usage().total_latency_s);
}

TEST(LlmEngine, BatchTruncatesOversizedMemberOnly)
{
    auto profile = ModelProfile::llama3_8bLocal();
    profile.context_limit = 1000;
    TestEngine engine(profile, 23);

    std::vector<LlmRequest> requests(3);
    requests[0].tokens_in = 300;
    requests[1].tokens_in = 5000; // exceeds the window
    requests[2].tokens_in = 800;
    std::vector<LlmResponse> batched;
    const BatchRecord batch = engine.completeBatch(requests, &batched);
    ASSERT_EQ(batched.size(), 3u);
    EXPECT_FALSE(batched[0].truncated);
    EXPECT_TRUE(batched[1].truncated);
    EXPECT_FALSE(batched[2].truncated);
    EXPECT_EQ(batched[1].tokens_in, 1000);
    // Usage and the group's prefill count the clamped prompt sizes.
    EXPECT_EQ(engine.handle().usage().tokens_in, 300 + 1000 + 800);
    EXPECT_EQ(engine.handle().usage().calls, 3u);
    EXPECT_EQ(batch.requests, 3);
    EXPECT_NEAR(batch.prefill_s, 2100 / profile.prefill_tok_per_s, 1e-12);
}

TEST(LlmEngine, BatchLatencyNeverExceedsSequentialSum)
{
    TestEngine seq(ModelProfile::gpt4Api(), 24);
    TestEngine bat(ModelProfile::gpt4Api(), 24);
    for (int round = 0; round < 20; ++round) {
        std::vector<LlmRequest> requests(
            static_cast<std::size_t>(2 + round % 5));
        for (auto &r : requests) {
            r.tokens_in = 300 + 100 * (round % 7);
            r.tokens_out_mean = 30 + 10 * (round % 4);
        }
        double sequential = 0.0;
        for (const auto &r : requests)
            sequential += seq.complete(r).latency_s;
        const BatchRecord batch = bat.completeBatch(requests);
        EXPECT_EQ(batch.baseline_s, sequential);
        EXPECT_LE(batch.batched_s, sequential);
    }
}

TEST(LlmEngine, ExpectedBatchLatencyMatchesSampledMean)
{
    const auto profile = ModelProfile::gpt4Api();
    std::vector<LlmRequest> requests(4);
    for (auto &r : requests) {
        r.tokens_in = 1500;
        r.tokens_out_mean = 20;
    }
    // One member dominates decode so the sampled max is centered on the
    // model's max-of-means (the max over several same-mean lognormals
    // would sit systematically above it).
    requests.front().tokens_out_mean = 240;
    const double expected = expectedBatchLatency(profile, requests);
    // Joint model: one mean RTT + summed prefill + longest decode.
    EXPECT_GT(expected, profile.api_rtt_mean_s);
    EXPECT_LT(expected, 4 * expectedCompletionLatency(profile,
                                                      requests.front()));

    TestEngine engine(profile, 25);
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        sum += engine.completeBatch(requests).batched_s;
    EXPECT_NEAR(sum / n, expected, expected * 0.1);
}

TEST(LlmEngine, ExpectedBatchLatencyEmptyIsZero)
{
    EXPECT_EQ(expectedBatchLatency(ModelProfile::gpt4Api(), {}), 0.0);
}

/** Property sweep: latency is monotone in both token dimensions for every
 * model preset. */
class EngineMonotoneSweep : public ::testing::TestWithParam<int>
{
  protected:
    ModelProfile
    profileFor(int index)
    {
        switch (index) {
          case 0:
            return ModelProfile::gpt4Api();
          case 1:
            return ModelProfile::llama3_8bLocal();
          case 2:
            return ModelProfile::llama13bLocal();
          case 3:
            return ModelProfile::llama7bLocal();
          default:
            return ModelProfile::llava7bLocal();
        }
    }
};

TEST_P(EngineMonotoneSweep, ExpectedLatencyMonotone)
{
    const ModelProfile profile = profileFor(GetParam());
    LlmRequest small;
    small.tokens_in = 100;
    small.tokens_out_mean = 20;
    LlmRequest more_in = small;
    more_in.tokens_in = 2000;
    LlmRequest more_out = small;
    more_out.tokens_out_mean = 200;
    EXPECT_LT(expectedCompletionLatency(profile, small),
              expectedCompletionLatency(profile, more_in));
    EXPECT_LT(expectedCompletionLatency(profile, small),
              expectedCompletionLatency(profile, more_out));
}

INSTANTIATE_TEST_SUITE_P(AllModels, EngineMonotoneSweep,
                         ::testing::Range(0, 5));

} // namespace
} // namespace ebs::llm
