#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/clock.h"
#include "sim/distribution.h"
#include "sim/rng.h"

namespace ebs::sim {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(5);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-1.0));
        EXPECT_TRUE(rng.bernoulli(2.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(5.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalMeanAndPositivity)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.lognormal(3.0, 0.4);
        ASSERT_GT(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng rng(21);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(rng.lognormal(2.5, 0.0), 2.5);
}

TEST(Rng, ForkIsDeterministicAndIndependent)
{
    Rng parent(42);
    Rng a = parent.fork(1);
    Rng b = parent.fork(1);
    Rng c = parent.fork(2);
    EXPECT_EQ(a.next(), b.next());
    // Independent streams should not collide on the next draws.
    int equal = 0;
    for (int i = 0; i < 50; ++i)
        equal += a.next() == c.next();
    EXPECT_LT(equal, 2);
}

TEST(Rng, ForkDoesNotAdvanceParent)
{
    Rng a(42), b(42);
    (void)a.fork(5);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, PickIndexInRange)
{
    Rng rng(31);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.pickIndex(7), 7u);
}

TEST(Rng, PickReturnsElement)
{
    Rng rng(33);
    const std::vector<int> v = {10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        const int x = rng.pick(v);
        EXPECT_TRUE(x == 10 || x == 20 || x == 30);
    }
}

TEST(SimClock, AdvancesMonotonically)
{
    SimClock clock;
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
    clock.advance(1.5);
    clock.advance(0.0);
    clock.advance(2.5);
    EXPECT_DOUBLE_EQ(clock.now(), 4.0);
    clock.reset();
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(LatencyDist, SampleMatchesMean)
{
    Rng rng(37);
    LatencyDist dist{2.0, 0.3};
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += dist.sample(rng);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(LatencyDist, ZeroMeanSamplesZero)
{
    Rng rng(39);
    LatencyDist dist{0.0, 0.5};
    EXPECT_DOUBLE_EQ(dist.sample(rng), 0.0);
}

/** Property sweep: lognormal mean holds across parameter grid. */
class LognormalSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(LognormalSweep, MeanMatches)
{
    const auto [mean, cv] = GetParam();
    Rng rng(101);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormal(mean, cv);
    EXPECT_NEAR(sum / n, mean, mean * 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LognormalSweep,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0, 100.0),
                       ::testing::Values(0.0, 0.2, 0.5, 1.0)));

} // namespace
} // namespace ebs::sim
