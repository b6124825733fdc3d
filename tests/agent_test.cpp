#include <gtest/gtest.h>

#include <memory>

#include "core/agent.h"
#include "envs/transport_env.h"

namespace ebs::core {
namespace {

/** Fixture wiring one agent into a small transport world. */
class AgentTest : public ::testing::Test
{
  protected:
    AgentTest()
        : env_(env::Difficulty::Easy, 1, sim::Rng(3))
    {
    }

    std::unique_ptr<Agent>
    makeAgent(AgentConfig config, std::uint64_t seed = 10)
    {
        return std::make_unique<Agent>(0, std::move(config), &env_,
                                       sim::Rng(seed), &recorder_, session_);
    }

    envs::TransportEnv env_;
    stats::LatencyRecorder recorder_;
    llm::LlmEngineService service_;
    llm::EngineSession session_ = service_.openSession();
};

TEST_F(AgentTest, SenseChargesSensingAndFeedsMemory)
{
    auto agent = makeAgent(AgentConfig{});
    agent->sense(0);
    EXPECT_GT(recorder_.total(stats::ModuleKind::Sensing), 0.0);
    // The agent's own room contents are now remembered.
    const auto obs = env_.observe(0, 0);
    for (const auto &seen : obs.objects)
        EXPECT_TRUE(agent->memory().knowsObject(seen.id));
}

TEST_F(AgentTest, NoSensingModuleSeesFullState)
{
    AgentConfig config;
    config.has_sensing = false;
    auto agent = makeAgent(config);
    agent->sense(0);
    EXPECT_DOUBLE_EQ(recorder_.total(stats::ModuleKind::Sensing), 0.0);
    // Full symbolic state: every object remembered regardless of room.
    for (const auto &obj : env_.world().objects())
        EXPECT_TRUE(agent->memory().knowsObject(obj.id));
}

TEST_F(AgentTest, PlanChargesPlanningAndMemory)
{
    auto agent = makeAgent(AgentConfig{});
    agent->sense(0);
    PlanContext context;
    const auto decision = agent->plan(0, context);
    EXPECT_GT(recorder_.total(stats::ModuleKind::Planning), 0.0);
    EXPECT_GT(recorder_.total(stats::ModuleKind::Memory), 0.0);
    EXPECT_GT(decision.prompt_tokens, 0);
}

TEST_F(AgentTest, ActionSelectionAddsSecondPlanningCall)
{
    AgentConfig base;
    auto plain = makeAgent(base, 10);
    plain->sense(0);
    plain->plan(0, PlanContext{});
    const auto plain_calls = plain->llmUsage().calls;

    AgentConfig coela = base;
    coela.llm_action_selection = true;
    stats::LatencyRecorder other;
    Agent with_selection(0, coela, &env_, sim::Rng(10), &other, session_);
    with_selection.sense(0);
    with_selection.plan(0, PlanContext{});
    EXPECT_EQ(with_selection.llmUsage().calls, plain_calls + 1);
}

TEST_F(AgentTest, GoodPlansComeFromOracle)
{
    // A perfect planner should essentially always act on oracle subgoals.
    AgentConfig config;
    config.planner_model.plan_quality = 1.0;
    config.planner_model.format_compliance = 1.0;
    auto agent = makeAgent(config);
    agent->sense(0);
    for (int i = 0; i < 20; ++i) {
        const auto decision = agent->plan(0, PlanContext{});
        EXPECT_TRUE(decision.from_oracle);
    }
}

TEST_F(AgentTest, BrokenPlannerNeverUsesOracle)
{
    AgentConfig config;
    config.planner_model.plan_quality = 0.0;
    auto agent = makeAgent(config);
    agent->sense(0);
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(agent->plan(0, PlanContext{}).from_oracle);
}

TEST_F(AgentTest, ExecuteCompletesOracleSubgoal)
{
    AgentConfig config;
    config.planner_model.plan_quality = 1.0;
    config.planner_model.format_compliance = 1.0;
    auto agent = makeAgent(config);
    agent->sense(0);
    const auto decision = agent->plan(0, PlanContext{});
    EXPECT_TRUE(agent->execute(0, decision.subgoal));
    EXPECT_GT(recorder_.total(stats::ModuleKind::Execution), 0.0);
}

TEST_F(AgentTest, LlmDirectControlChargesLlmPerPrimitive)
{
    AgentConfig config;
    config.has_execution = false;
    auto agent = makeAgent(config);
    agent->sense(0);
    const auto before = agent->llmUsage().calls;
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::Explore;
    sg.dest = env_.roomAnchor(1);
    sg.param = 1;
    agent->execute(0, sg);
    // One LLM call per primitive executed.
    EXPECT_GT(agent->llmUsage().calls, before + 1);
}

TEST_F(AgentTest, ReflectionChargesLatencyAndDetectsFailures)
{
    AgentConfig config;
    config.reflect_model.reflect_quality = 1.0;
    config.reflect_model.format_compliance = 1.0;
    auto agent = makeAgent(config);
    agent->sense(0);

    env::Subgoal sg;
    sg.kind = env::SubgoalKind::PickUp;
    sg.target = 0; // the goal zone object: pick fails (not graspable)
    agent->reflect(0, sg, false);
    EXPECT_GT(recorder_.total(stats::ModuleKind::Reflection), 0.0);
    // Detected failure: no phantom completion recorded.
    EXPECT_TRUE(agent->believedDone().empty());
}

TEST_F(AgentTest, UndetectedFailuresCausePhantomOrLoop)
{
    AgentConfig config;
    config.has_reflection = false;
    config.env_feedback_detection = 0.0; // never detected
    config.phantom_completion = 1.0;     // always phantom
    auto agent = makeAgent(config);
    agent->sense(0);

    env::Subgoal sg;
    sg.kind = env::SubgoalKind::PickUp;
    sg.target = 1;
    agent->reflect(0, sg, false);
    EXPECT_EQ(agent->believedDone().count(1), 1u);
}

TEST_F(AgentTest, SuccessfulActionsNeverPhantom)
{
    AgentConfig config;
    config.has_reflection = false;
    config.env_feedback_detection = 0.0;
    auto agent = makeAgent(config);
    agent->sense(0);
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::Wait;
    agent->reflect(0, sg, true);
    EXPECT_TRUE(agent->believedDone().empty());
}

TEST_F(AgentTest, EveryReflectedTurnRecordsOneAction)
{
    // Each outcome branch of reflect() (with raw environment feedback as
    // the only detector) logs exactly one action, which retrieval sizes
    // at 7 tokens.
    struct Case
    {
        const char *name;
        bool success;
        bool plan_was_sound;
        double detection;
    };
    const Case cases[] = {
        {"sound success", true, true, 0.0},
        {"ineffective, detected", true, false, 1.0},
        {"ineffective, undetected", true, false, 0.0},
        {"failed, detected", false, true, 1.0},
        {"failed, undetected", false, true, 0.0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        AgentConfig config;
        config.has_reflection = false;
        config.env_feedback_detection = c.detection;
        auto agent = makeAgent(config);
        agent->sense(0);
        const std::size_t records = agent->memory().liveRecords();
        const int tokens = agent->memory().retrieve(0).action_tokens;

        env::Subgoal sg;
        sg.kind = env::SubgoalKind::PickUp;
        sg.target = 1;
        agent->reflect(0, sg, c.success, c.plan_was_sound);
        EXPECT_EQ(agent->memory().liveRecords(), records + 1);
        EXPECT_EQ(agent->memory().retrieve(0).action_tokens, tokens + 7);
    }
}

TEST_F(AgentTest, CommunicationDisabledProducesNoMessage)
{
    AgentConfig config;
    config.has_communication = false;
    auto agent = makeAgent(config);
    const auto msg = agent->generateMessage(0, 2);
    EXPECT_EQ(msg.tokens, 0);
    EXPECT_FALSE(msg.useful);
    EXPECT_DOUBLE_EQ(recorder_.total(stats::ModuleKind::Communication), 0.0);
}

TEST_F(AgentTest, CommunicationChargesLatency)
{
    AgentConfig config;
    config.has_communication = true;
    auto agent = makeAgent(config);
    agent->sense(0);
    const auto msg = agent->generateMessage(0, 2);
    EXPECT_GT(msg.tokens, 0);
    EXPECT_GT(recorder_.total(stats::ModuleKind::Communication), 0.0);
    EXPECT_GT(agent->lastMessageTokens(), 0);
}

TEST_F(AgentTest, MessageUtilityRateIsCalibrated)
{
    AgentConfig config;
    config.has_communication = true;
    config.comm_model.comm_quality = 1.0;
    config.comm_model.format_compliance = 1.0;
    config.message_utility = 0.2;
    auto agent = makeAgent(config);
    agent->sense(0);
    int useful = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        useful += agent->generateMessage(0, 2).useful;
    // ~20% of generated messages carry information (paper Sec. V-D).
    EXPECT_NEAR(static_cast<double>(useful) / n, 0.2, 0.04);
}

TEST_F(AgentTest, ReceivedUsefulBeliefsEnterMemory)
{
    AgentConfig config;
    auto agent = makeAgent(config);
    Message msg;
    msg.from_agent = 1;
    msg.useful = true;
    msg.tokens = 30;
    memory::ObservationRecord rec;
    rec.id = 2;
    rec.pos = {1, 1};
    msg.shared_beliefs.push_back(rec);
    agent->receiveMessage(msg, 0);
    EXPECT_TRUE(agent->memory().knowsObject(2));
    EXPECT_EQ(agent->memory().dialogueCount(), 1u);
}

TEST_F(AgentTest, UselessMessagesOnlyAddDialogueTokens)
{
    auto agent = makeAgent(AgentConfig{});
    Message msg;
    msg.from_agent = 1;
    msg.useful = false;
    msg.tokens = 30;
    memory::ObservationRecord rec;
    rec.id = 2;
    msg.shared_beliefs.push_back(rec);
    agent->receiveMessage(msg, 0);
    EXPECT_FALSE(agent->memory().knowsObject(2));
    EXPECT_EQ(agent->memory().dialogueCount(), 1u);
}

TEST_F(AgentTest, MemoryAblationDisablesStorage)
{
    AgentConfig config;
    config.has_memory = false;
    auto agent = makeAgent(config);
    agent->sense(0);
    EXPECT_EQ(agent->memory().liveRecords(), 0u);
}

TEST_F(AgentTest, PlanPromptGrowsWithDialogueHistory)
{
    AgentConfig config;
    config.has_communication = true;
    auto agent = makeAgent(config);
    agent->sense(0);
    const int before = agent->plan(0, PlanContext{}).prompt_tokens;
    for (int i = 0; i < 20; ++i) {
        Message msg;
        msg.from_agent = 1;
        msg.tokens = 80;
        agent->receiveMessage(msg, 1);
    }
    const int after = agent->plan(1, PlanContext{}).prompt_tokens;
    EXPECT_GT(after, before + 1000);
}

TEST_F(AgentTest, SensingMissRateHidesObjects)
{
    AgentConfig lossy;
    lossy.lat.sensing_miss_rate = 1.0; // detector misses everything
    auto blind = makeAgent(lossy, 21);
    blind->sense(0);
    EXPECT_EQ(blind->memory().liveRecords(), 0u);

    AgentConfig perfect;
    perfect.lat.sensing_miss_rate = 0.0;
    stats::LatencyRecorder other;
    Agent sharp(0, perfect, &env_, sim::Rng(21), &other, session_);
    sharp.sense(0);
    EXPECT_GT(sharp.memory().liveRecords(), 0u);
}

TEST_F(AgentTest, CarriedObjectSurvivesDetectorMisses)
{
    // Grab something first with a perfect detector. Stand the agent on a
    // loose item and execute the pickup directly so the carried state is
    // guaranteed, instead of hoping the planner's first subgoal is a
    // pickup.
    env::ObjectId item = env::kNoObject;
    for (const auto &obj : env_.world().objects())
        if (obj.cls == env::ObjectClass::Item && obj.loose())
            item = obj.id;
    ASSERT_NE(item, env::kNoObject) << "layout generated no loose item";
    env_.world().agent(0).pos = env_.world().object(item).pos;

    AgentConfig config;
    config.lat.sensing_miss_rate = 0.0;
    auto agent = makeAgent(config, 23);
    agent->sense(0);
    ASSERT_TRUE(agent->memory().knowsObject(item));

    env::Subgoal pick;
    pick.kind = env::SubgoalKind::PickUp;
    pick.target = item;
    ASSERT_TRUE(agent->execute(0, pick));
    ASSERT_EQ(env_.world().agent(0).carrying, item);

    // ...then degrade perception completely: proprioception still reports
    // the carried object.
    stats::LatencyRecorder other;
    AgentConfig lossy = config;
    lossy.lat.sensing_miss_rate = 1.0;
    Agent blind(0, lossy, &env_, sim::Rng(24), &other, session_);
    blind.sense(1);
    EXPECT_TRUE(
        blind.memory().knowsObject(env_.world().agent(0).carrying));
}

TEST_F(AgentTest, ContextCompressionShrinksPrompt)
{
    auto agent = makeAgent(AgentConfig{});
    agent->sense(0);
    for (int i = 0; i < 20; ++i) {
        Message msg;
        msg.from_agent = 1;
        msg.tokens = 100;
        agent->receiveMessage(msg, 0);
    }
    PlanContext plain;
    const int full = agent->plan(0, plain).prompt_tokens;
    PlanContext squeezed;
    squeezed.compression = 0.2;
    const int small = agent->plan(0, squeezed).prompt_tokens;
    EXPECT_LT(small, full);
}

} // namespace
} // namespace ebs::core
