#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <stdexcept>
#include <string>

#include "memory/memory.h"

namespace ebs::memory {
namespace {

env::Observation
makeObs(int step, int room, std::vector<std::pair<env::ObjectId, env::Vec2i>>
                                sightings)
{
    env::Observation obs;
    obs.agent_id = 0;
    obs.step = step;
    obs.room = room;
    for (const auto &[id, pos] : sightings) {
        env::ObservedObject seen;
        seen.id = id;
        seen.pos = pos;
        seen.room = room;
        obs.objects.push_back(seen);
    }
    return obs;
}

MemoryModule
makeMemory(int capacity, bool enabled = true)
{
    MemoryModule::Config cfg;
    cfg.enabled = enabled;
    cfg.capacity_steps = capacity;
    return MemoryModule(cfg, sim::Rng(5));
}

TEST(Memory, RemembersObservedObjects)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 2, {{7, {3, 4}}}));
    EXPECT_TRUE(mem.knowsObject(7));
    const auto belief = mem.belief(7);
    ASSERT_TRUE(belief.has_value());
    EXPECT_EQ(belief->pos, (env::Vec2i{3, 4}));
    EXPECT_EQ(belief->room, 2);
}

TEST(Memory, LatestBeliefWins)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.recordObservation(makeObs(1, 1, {{7, {5, 5}}}));
    EXPECT_EQ(mem.belief(7)->pos, (env::Vec2i{5, 5}));
}

TEST(Memory, CapacityWindowPrunes)
{
    auto mem = makeMemory(5);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.advanceStep(4);
    EXPECT_TRUE(mem.knowsObject(7));
    mem.advanceStep(6); // record at step 0 falls outside a 5-step window
    EXPECT_FALSE(mem.knowsObject(7));
}

TEST(Memory, UnlimitedCapacityNeverPrunes)
{
    auto mem = makeMemory(0);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.advanceStep(10000);
    EXPECT_TRUE(mem.knowsObject(7));
}

TEST(Memory, DisabledStoresNothing)
{
    auto mem = makeMemory(10, /*enabled=*/false);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.recordAction(0);
    EXPECT_FALSE(mem.knowsObject(7));
    EXPECT_EQ(mem.liveRecords(), 0u);
    EXPECT_DOUBLE_EQ(mem.retrievalLatency(), 0.0);
    EXPECT_EQ(mem.retrieve(0).totalTokens(), 0);
}

TEST(Memory, KnownObjectsDeduplicated)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}, {8, {2, 2}}}));
    mem.recordObservation(makeObs(1, 1, {{7, {3, 3}}}));
    const auto known = mem.knownObjects();
    EXPECT_EQ(known.size(), 2u);
    // Newest sighting of 7 is the belief.
    for (const auto &rec : known)
        if (rec.id == 7) {
            EXPECT_EQ(rec.pos, (env::Vec2i{3, 3}));
        }
}

TEST(Memory, VisitedRoomsTracked)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 2, {}));
    mem.recordObservation(makeObs(1, 3, {}));
    EXPECT_EQ(mem.lastVisit(2), 0);
    EXPECT_EQ(mem.lastVisit(3), 1);
    EXPECT_EQ(mem.lastVisit(9), -1);
}

TEST(Memory, RoomVisitsForgottenOutsideWindow)
{
    auto mem = makeMemory(5);
    mem.recordObservation(makeObs(0, 2, {}));
    mem.advanceStep(10);
    EXPECT_EQ(mem.lastVisit(2), -1);
}

TEST(Memory, SharedBeliefsIntegrate)
{
    auto mem = makeMemory(10);
    ObservationRecord rec;
    rec.id = 9;
    rec.pos = {4, 4};
    rec.room = 1;
    mem.recordSharedBelief(3, rec);
    EXPECT_TRUE(mem.knowsObject(9));
    EXPECT_EQ(mem.belief(9)->step, 3);
}

TEST(Memory, RetrievalTokensGrowWithContent)
{
    auto mem = makeMemory(50);
    const auto empty = mem.retrieve(0);
    EXPECT_EQ(empty.totalTokens(), 0);

    mem.recordObservation(makeObs(0, 1, {{1, {1, 1}}, {2, {2, 2}}}));
    mem.recordAction(0);
    mem.recordDialogue({0, 40});
    const auto ctx = mem.retrieve(1);
    EXPECT_GT(ctx.observation_tokens, 0);
    EXPECT_GT(ctx.action_tokens, 0);
    EXPECT_EQ(ctx.dialogue_tokens, 40);
    EXPECT_EQ(ctx.known_objects, 2);
}

TEST(Memory, RetrievalLatencyGrowsWithRecords)
{
    auto mem = makeMemory(0);
    const double before = mem.retrievalLatency();
    for (int step = 0; step < 50; ++step)
        mem.recordObservation(makeObs(step, 1, {{1, {1, 1}}, {2, {2, 2}}}));
    EXPECT_GT(mem.retrievalLatency(), before);
}

TEST(Memory, InconsistencyAppearsAtScale)
{
    MemoryModule::Config cfg;
    cfg.capacity_steps = 0; // unlimited
    cfg.inconsistency_onset = 100;
    cfg.inconsistency_rate = 5e-4;
    MemoryModule mem(cfg, sim::Rng(11));
    for (int step = 0; step < 400; ++step)
        mem.recordObservation(
            makeObs(step, 1, {{step % 20, {step % 7, step % 5}}}));
    int stale = 0;
    for (int i = 0; i < 50; ++i)
        stale += mem.retrieve(400).stale_beliefs;
    EXPECT_GT(stale, 0);
}

TEST(Memory, SmallStoreHasNoInconsistency)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 1, {{1, {1, 1}}}));
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(mem.retrieve(1).stale_beliefs, 0);
}

TEST(Memory, DualMemoryKeepsFixturesForever)
{
    MemoryModule::Config cfg;
    cfg.capacity_steps = 5;
    cfg.dual_memory = true;
    MemoryModule mem(cfg, sim::Rng(13));

    env::Observation obs = makeObs(0, 1, {});
    env::ObservedObject station;
    station.id = 3;
    station.cls = env::ObjectClass::Station;
    station.pos = {2, 2};
    station.room = 1;
    obs.objects.push_back(station);
    env::ObservedObject item;
    item.id = 4;
    item.cls = env::ObjectClass::Item;
    item.pos = {3, 3};
    item.room = 1;
    obs.objects.push_back(item);
    mem.recordObservation(obs);

    mem.advanceStep(50); // both fall outside the short-term window
    EXPECT_TRUE(mem.knowsObject(3));  // fixture survives in long-term
    EXPECT_FALSE(mem.knowsObject(4)); // item is forgotten
}

TEST(Memory, DualMemoryCompressesRetrieval)
{
    MemoryModule::Config base_cfg;
    base_cfg.capacity_steps = 0;
    MemoryModule plain(base_cfg, sim::Rng(17));
    base_cfg.dual_memory = true;
    MemoryModule dual(base_cfg, sim::Rng(17));

    for (int step = 0; step < 30; ++step) {
        const auto obs = makeObs(step, 1, {{step % 6, {1, 1}}});
        plain.recordObservation(obs);
        dual.recordObservation(obs);
    }
    EXPECT_LE(dual.retrieve(30).observation_tokens,
              plain.retrieve(30).observation_tokens);
}

TEST(Memory, ClearEmptiesEverything)
{
    auto mem = makeMemory(20);
    mem.recordObservation(makeObs(0, 1, {{1, {1, 1}}}));
    mem.recordAction(0);
    mem.clear();
    EXPECT_EQ(mem.liveRecords(), 0u);
    EXPECT_FALSE(mem.knowsObject(1));
    EXPECT_EQ(mem.lastVisit(1), -1);
}

/** Property sweep: live records never exceed what the window admits. */
class MemoryCapacitySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MemoryCapacitySweep, WindowBoundsRecords)
{
    const int capacity = GetParam();
    auto mem = makeMemory(capacity);
    for (int step = 0; step < 200; ++step) {
        mem.recordObservation(makeObs(step, 1, {{1, {1, 1}}}));
        mem.recordAction(step);
        mem.advanceStep(step);
    }
    // One observation + one action per step inside the window.
    EXPECT_LE(mem.liveRecords(), static_cast<std::size_t>(2 * capacity));
}

INSTANTIATE_TEST_SUITE_P(Windows, MemoryCapacitySweep,
                         ::testing::Values(1, 5, 10, 30, 60));

/**
 * Seeded property: across random interleavings of every store mutation
 * (observations with and without dual memory, shared beliefs, window
 * pruning, invalidation — of unseen ids too — and clear), retrieve's
 * known-object count equals a std::set of the ids knowsObject() reports,
 * and retrieve makes exactly one retrieval-noise draw per known object.
 */
class MemoryKnownCountProperty
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

TEST_P(MemoryKnownCountProperty, CountAndDrawsMatchReference)
{
    const auto [dual, seed] = GetParam();
    constexpr env::ObjectId kSeenIds = 30;  // ids records may carry
    constexpr env::ObjectId kAllIds = 40;   // plus ids never recorded
    sim::Rng ops(static_cast<std::uint64_t>(seed));

    MemoryModule::Config cfg;
    cfg.capacity_steps = ops.uniformInt(2, 20);
    cfg.dual_memory = dual;
    // Onset 0 and a huge rate clamp the per-object noise probability at
    // 0.5 whenever a record is live, so the reference knows every draw.
    cfg.inconsistency_onset = 0;
    cfg.inconsistency_rate = 10.0;
    const std::uint64_t memory_seed = 1000 + static_cast<std::uint64_t>(seed);
    MemoryModule mem(cfg, sim::Rng(memory_seed));
    sim::Rng reference(memory_seed);

    int step = 0;
    int retrievals = 0;
    for (int op = 0; op < 600; ++op) {
        const int kind = ops.uniformInt(0, 99);
        if (kind < 35) {
            env::Observation obs = makeObs(step, ops.uniformInt(0, 4), {});
            const int sightings = ops.uniformInt(0, 4);
            for (int i = 0; i < sightings; ++i) {
                env::ObservedObject seen;
                seen.id = ops.uniformInt(0, kSeenIds - 1);
                seen.cls = ops.bernoulli(0.5) ? env::ObjectClass::Item
                                              : env::ObjectClass::Station;
                seen.room = obs.room;
                obs.objects.push_back(seen);
            }
            mem.recordObservation(obs);
        } else if (kind < 50) {
            ObservationRecord rec;
            rec.id = ops.uniformInt(0, kSeenIds - 1);
            mem.recordSharedBelief(step, rec);
        } else if (kind < 65) {
            step += ops.uniformInt(0, 4);
            mem.advanceStep(step);
        } else if (kind < 75) {
            mem.invalidate(ops.uniformInt(0, kAllIds - 1));
        } else if (kind < 77) {
            mem.clear();
        } else {
            std::set<env::ObjectId> known;
            for (env::ObjectId id = 0; id < kAllIds; ++id)
                if (mem.knowsObject(id))
                    known.insert(id);
            int stale = 0;
            if (mem.liveRecords() > 0)
                for (std::size_t i = 0; i < known.size(); ++i)
                    stale += reference.bernoulli(0.5) ? 1 : 0;

            const RetrievedContext ctx = mem.retrieve(step);
            ++retrievals;
            ASSERT_EQ(ctx.known_objects, static_cast<int>(known.size()))
                << "op " << op;
            ASSERT_EQ(ctx.stale_beliefs, stale) << "op " << op;
            ASSERT_TRUE(mem.rng() == reference) << "op " << op;

            std::set<env::ObjectId> listed;
            for (const auto &rec : mem.knownObjects())
                EXPECT_TRUE(listed.insert(rec.id).second) << "op " << op;
            ASSERT_EQ(listed, known) << "op " << op;
        }
    }
    EXPECT_GT(retrievals, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeded, MemoryKnownCountProperty,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Range(1, 9)));

/** retrieve's dialogue token count is kept incrementally; it must equal
 * a fresh sum over the records the window still holds, through pushes,
 * prunes, an unlimited window and clear(). */
TEST(Memory, DialogueTokensMatchResumOfLiveRecords)
{
    for (const int capacity : {3, 0}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        auto mem = makeMemory(capacity);
        std::deque<DialogueRecord> live;
        auto resum = [&] {
            int sum = 0;
            for (const DialogueRecord &d : live)
                sum += d.tokens;
            return sum;
        };
        sim::Rng rng(11);
        for (int step = 0; step < 30; ++step) {
            if (step == 20) {
                mem.clear();
                live.clear();
                EXPECT_EQ(mem.retrieve(step).dialogue_tokens, 0);
            }
            mem.advanceStep(step);
            if (capacity > 0)
                while (!live.empty() &&
                       live.front().step <= step - capacity)
                    live.pop_front();
            for (int k = rng.uniformInt(0, 3); k > 0; --k) {
                const DialogueRecord record{step, rng.uniformInt(1, 60)};
                mem.recordDialogue(record);
                live.push_back(record);
            }
            ASSERT_EQ(mem.dialogueCount(), live.size());
            EXPECT_EQ(mem.retrieve(step).dialogue_tokens, resum());
        }
        if (capacity == 0) {
            EXPECT_GT(live.size(), 10u); // nothing was pruned since clear
        }
    }
}

TEST(Memory, NegativeObjectIdRejected)
{
    auto mem = makeMemory(10);
    ObservationRecord rec;
    rec.id = env::kNoObject;
    EXPECT_THROW(mem.recordSharedBelief(0, rec), std::invalid_argument);
    EXPECT_EQ(mem.retrieve(0).known_objects, 0);
}

} // namespace
} // namespace ebs::memory
