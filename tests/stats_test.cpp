#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats/aggregate.h"
#include "stats/csv.h"
#include "stats/latency_recorder.h"
#include "stats/phase_wall.h"
#include "stats/table.h"

namespace ebs::stats {
namespace {

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(4.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0); // classic population-stddev example
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Percentile, MedianAndExtremes)
{
    std::vector<double> v = {5, 1, 3, 2, 4};
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, Interpolates)
{
    std::vector<double> v = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Percentile, SingleSample)
{
    EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
}

TEST(Percentile, RejectsEmptySamplesAndOutOfRangeP)
{
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
    const std::vector<double> v = {1.0, 2.0};
    for (const double p : {-1.0, 101.0, std::nan("")})
        EXPECT_THROW(percentile(v, p), std::invalid_argument) << p;
}

TEST(Table, AlignedRender)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.425, 1), "42.5%");
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows)
{
    std::ostringstream os;
    CsvWriter csv(os, {"x", "y"});
    csv.row({"1", "2"});
    csv.row({"a,b", "3"});
    EXPECT_EQ(os.str(), "x,y\n1,2\n\"a,b\",3\n");
}

TEST(LatencyRecorder, AccumulatesPerModule)
{
    LatencyRecorder rec;
    rec.record(ModuleKind::Planning, 2.0);
    rec.record(ModuleKind::Planning, 3.0);
    rec.record(ModuleKind::Execution, 5.0);
    EXPECT_DOUBLE_EQ(rec.total(ModuleKind::Planning), 5.0);
    EXPECT_EQ(rec.count(ModuleKind::Planning), 2u);
    EXPECT_DOUBLE_EQ(rec.grandTotal(), 10.0);
    EXPECT_DOUBLE_EQ(rec.fraction(ModuleKind::Planning), 0.5);
    EXPECT_DOUBLE_EQ(rec.fraction(ModuleKind::Sensing), 0.0);
}

TEST(LatencyRecorder, EmptyFractionIsZero)
{
    LatencyRecorder rec;
    EXPECT_DOUBLE_EQ(rec.fraction(ModuleKind::Planning), 0.0);
}

TEST(LatencyRecorder, MergeAndReset)
{
    LatencyRecorder a, b;
    a.record(ModuleKind::Memory, 1.0);
    b.record(ModuleKind::Memory, 2.0);
    b.record(ModuleKind::Sensing, 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.total(ModuleKind::Memory), 3.0);
    EXPECT_DOUBLE_EQ(a.total(ModuleKind::Sensing), 4.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.grandTotal(), 0.0);
}

TEST(PhaseWallClock, BucketsAndResetAreExact)
{
    // A private instance, not shared(): the process-wide one is fed by
    // any episode the other tests run, so exact-equality asserts would
    // race. reset()/snapshot() bracket a measured section.
    PhaseWallClock clock;
    clock.addCompute(0.25);
    clock.addCompute(0.25);
    clock.addExecute(0.5);
    clock.addEpisode();
    const auto snap = clock.snapshot();
    EXPECT_EQ(snap.compute_s, 0.5); // 0.25 sums are exact in binary
    EXPECT_EQ(snap.execute_s, 0.5);
    EXPECT_EQ(snap.episodes, 1);

    clock.reset();
    const auto zeroed = clock.snapshot();
    EXPECT_EQ(zeroed.compute_s, 0.0);
    EXPECT_EQ(zeroed.execute_s, 0.0);
    EXPECT_EQ(zeroed.episodes, 0);

    // The buckets keep accumulating after a reset (benches never reset;
    // tests may bracket repeatedly).
    clock.addExecute(0.25);
    EXPECT_EQ(clock.snapshot().execute_s, 0.25);
}

TEST(PhaseWallClock, ConcurrentAddsNeverDropABucket)
{
    // Hammer one instance from several threads with exactly
    // representable increments: the mutex-guarded tallies must come out
    // exact (a lost update would show as a missing multiple of 0.25).
    PhaseWallClock clock;
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 1000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&clock] {
            for (int i = 0; i < kAddsPerThread; ++i) {
                clock.addCompute(0.25);
                clock.addExecute(0.25);
            }
            clock.addEpisode();
        });
    }
    for (auto &thread : threads)
        thread.join();
    const auto snap = clock.snapshot();
    EXPECT_EQ(snap.compute_s, 0.25 * kThreads * kAddsPerThread);
    EXPECT_EQ(snap.execute_s, 0.25 * kThreads * kAddsPerThread);
    EXPECT_EQ(snap.episodes, kThreads);
}

TEST(ModuleKind, NamesAndIteration)
{
    EXPECT_EQ(moduleKindName(ModuleKind::Planning), "Planning");
    EXPECT_EQ(moduleKindName(ModuleKind::Communication), "Communication");
    const auto all = allModuleKinds();
    EXPECT_EQ(all.size(), kNumModuleKinds);
    EXPECT_EQ(all.front(), ModuleKind::Sensing);
    EXPECT_EQ(all.back(), ModuleKind::Other);
}

} // namespace
} // namespace ebs::stats
