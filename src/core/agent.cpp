#include "core/agent.h"

#include <algorithm>
#include <cassert>

#include "plan/controller.h"

namespace ebs::core {

namespace {

/** Probability that a stuck agent abandons a repeated failing intent. */
constexpr double kLoopEscapeProb = 0.15;

/** Planning-complexity penalty per corrupted action record: failures
 * logged as successes mislead subsequent planning calls, so plan quality
 * decays as the uncorrected history accumulates (the compounding error
 * the reflection module exists to stop). */
constexpr double kCorruptedRecordComplexity = 0.07;
constexpr double kMaxCorruptionComplexity = 0.45;

/** LLM-direct low-level control: per-primitive reliability multiplier.
 * Choosing among hundreds of raw primitives (instead of a curated menu)
 * is far outside the model's competence — the paper observes that systems
 * without an execution module fail outright and hit the step limit. */
constexpr double kDirectControlReliability = 0.55;

} // namespace

Agent::Agent(int id, AgentConfig config, env::Environment *environment,
             sim::Rng rng, stats::LatencyRecorder *recorder,
             llm::EngineSession &llm_session)
    : id_(id), config_(std::move(config)), env_(environment), rng_(rng),
      recorder_(recorder),
      planner_engine_(
          llm_session.handle(config_.planner_model, rng_.fork(1))),
      comm_engine_(llm_session.handle(config_.comm_model, rng_.fork(2))),
      reflect_engine_(
          llm_session.handle(config_.reflect_model, rng_.fork(3))),
      memory_(config_.memory, rng_.fork(4))
{
    assert(env_ != nullptr && recorder_ != nullptr);
    if (!config_.has_memory) {
        auto cfg = memory_.config();
        // The ablation disables the module entirely.
        cfg.enabled = false;
        memory_ = memory::MemoryModule(cfg, rng_.fork(4));
    }
}

llm::LlmUsage
Agent::llmUsage() const
{
    llm::LlmUsage usage = planner_engine_.usage();
    usage += comm_engine_.usage();
    usage += reflect_engine_.usage();
    return usage;
}

void
Agent::charge(stats::ModuleKind kind, double seconds)
{
    recorder_->record(kind, seconds);
}

void
Agent::sense(int step)
{
    if (config_.has_sensing) {
        percept_ = env_->observe(id_, step);
        // Detector misses: some in-view objects go unseen this step. The
        // carried object is always known (proprioception).
        if (config_.lat.sensing_miss_rate > 0.0) {
            std::erase_if(percept_.objects,
                          [&](const env::ObservedObject &seen) {
                              return seen.held_by != id_ &&
                                     rng_.bernoulli(
                                         config_.lat.sensing_miss_rate);
                          });
        }
        charge(stats::ModuleKind::Sensing, config_.lat.sensing.sample(rng_));
    } else {
        // No sensing module: the system receives the full symbolic game
        // state directly (MindAgent/OLA style), at no perception cost.
        percept_ = env::Observation{};
        percept_.agent_id = id_;
        percept_.step = step;
        const env::AgentBody &body = env_->world().agent(id_);
        percept_.self_pos = body.pos;
        percept_.room = env_->world().grid().room(body.pos);
        percept_.carrying = body.carrying != env::kNoObject;
        percept_.carried = body.carrying;
        for (const auto &obj : env_->world().objects()) {
            env::ObservedObject seen;
            seen.id = obj.id;
            seen.cls = obj.cls;
            seen.kind = obj.kind;
            seen.state = obj.state;
            seen.pos = env_->world().effectivePos(obj.id);
            seen.room = env_->world().grid().room(seen.pos);
            seen.inside = obj.inside;
            seen.held_by = obj.held_by;
            seen.openable = obj.openable;
            seen.open = obj.open;
            percept_.objects.push_back(seen);
        }
    }

    memory_.recordObservation(percept_);
    memory_.advanceStep(step);

    // Direct observation can contradict phantom "already handled"
    // beliefs, but the agent does not always reconcile the conflict (its
    // memory still claims the object was dealt with).
    for (const auto &seen : percept_.objects) {
        if (believed_done_.count(seen.id) == 0)
            continue;
        const env::Object &obj = env_->world().object(seen.id);
        if (obj.loose() && rng_.bernoulli(0.3))
            believed_done_.erase(seen.id);
    }
}

void
Agent::receiveMessage(const Message &message, int step)
{
    memory_.recordDialogue({step, message.tokens});

    if (message.useful) {
        for (const auto &belief : message.shared_beliefs)
            memory_.recordSharedBelief(step, belief);
    }
}

Message
Agent::generateMessage(int step, int n_agents)
{
    Message message;
    message.from_agent = id_;
    if (!config_.has_communication)
        return message;

    // The communication module retrieves context before generating.
    const auto retrieved = memory_.retrieve(step);
    charge(stats::ModuleKind::Memory, memory_.retrievalLatency());

    llm::LlmRequest request;
    request.kind = llm::CallKind::Communication;
    request.tokens_in = config_.lat.comm_prompt_base +
                        retrieved.dialogue_tokens +
                        retrieved.observation_tokens +
                        (n_agents - 1) * 24;
    request.tokens_out_mean = config_.lat.comm_out_tokens;
    const auto response = comm_engine_.complete(request);
    charge(stats::ModuleKind::Communication, response.latency_s);

    message.tokens = response.tokens_out;
    last_message_tokens_ = request.tokens_in + response.tokens_out;
    message.useful = response.good && rng_.bernoulli(config_.message_utility);
    if (message.useful) {
        // Share the freshest sightings.
        auto known = memory_.knownObjects();
        const std::size_t share =
            std::min<std::size_t>(known.size(), 8);
        message.shared_beliefs.assign(known.begin(),
                                      known.begin() + share);
    }
    return message;
}

bool
Agent::knows(env::ObjectId id) const
{
    if (id == env::kNoObject)
        return true;
    for (const auto &seen : percept_.objects)
        if (seen.id == id)
            return true;
    return memory_.knowsObject(id);
}

std::optional<env::Vec2i>
Agent::believedPos(env::ObjectId id) const
{
    for (const auto &seen : percept_.objects)
        if (seen.id == id)
            return seen.pos;
    const auto belief = memory_.belief(id);
    if (belief.has_value())
        return belief->pos;
    return std::nullopt;
}

std::vector<env::Subgoal>
Agent::knownUsefulSubgoals() const
{
    std::vector<env::Subgoal> out;
    for (const auto &sg : env_->usefulSubgoals(id_)) {
        if (!knows(sg.target) || !knows(sg.dest_obj))
            continue;
        if (sg.target != env::kNoObject &&
            believed_done_.count(sg.target) > 0)
            continue;
        out.push_back(sg);
    }
    return out;
}

env::Subgoal
Agent::exploreSubgoal()
{
    const int rooms = env_->world().grid().roomCount();
    const int here = percept_.room;

    // Prefer unvisited rooms, then the least recently visited one.
    std::vector<int> unvisited;
    int oldest_room = -1;
    int oldest_step = 0;
    for (int room = 0; room < rooms; ++room) {
        if (room == here)
            continue;
        const int visited = memory_.lastVisit(room);
        if (visited < 0) {
            unvisited.push_back(room);
        } else if (oldest_room < 0 || visited < oldest_step) {
            oldest_room = room;
            oldest_step = visited;
        }
    }

    int room;
    if (!unvisited.empty())
        room = unvisited[rng_.pickIndex(unvisited.size())];
    else if (oldest_room >= 0)
        room = oldest_room;
    else
        room = rooms > 1 ? (here + 1 + rng_.uniformInt(0, rooms - 2)) % rooms
                         : here;

    env::Subgoal sg;
    sg.kind = env::SubgoalKind::Explore;
    sg.dest = env_->roomAnchor(room);
    sg.param = room;
    return sg;
}

env::Subgoal
Agent::searchOrExploreSubgoal()
{
    // Unvisited rooms take priority: cheap information gain.
    const int rooms = env_->world().grid().roomCount();
    for (int room = 0; room < rooms; ++room)
        if (memory_.lastVisit(room) < 0 && room != percept_.room)
            return exploreSubgoal();

    // Map covered: open the nearest known closed container — goal items
    // may be hiding inside (TDW-MAT / C-WAH style search).
    const env::Vec2i here = env_->world().agent(id_).pos;
    env::ObjectId best = env::kNoObject;
    int best_dist = 0;
    auto consider = [&](env::ObjectId id, bool openable, bool open,
                        const env::Vec2i &pos) {
        if (!openable || open || believed_done_.count(id) > 0)
            return;
        const int d = env::manhattan(here, pos);
        if (best == env::kNoObject || d < best_dist) {
            best = id;
            best_dist = d;
        }
    };
    for (const auto &seen : percept_.objects)
        consider(seen.id, seen.openable, seen.open, seen.pos);
    for (const auto &rec : memory_.knownObjects())
        consider(rec.id, rec.openable, rec.open, rec.pos);

    if (best != env::kNoObject) {
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::OpenObj;
        sg.target = best;
        return sg;
    }
    return exploreSubgoal();
}

env::Subgoal
Agent::suboptimalSubgoal()
{
    const auto menu = env_->validSubgoals(id_);
    if (menu.empty())
        return env::Subgoal{};
    return menu[rng_.pickIndex(menu.size())];
}

env::Subgoal
Agent::hallucinatedSubgoal()
{
    const auto &objects = env_->world().objects();
    env::Subgoal sg;
    if (objects.empty()) {
        sg.kind = env::SubgoalKind::Wait;
        return sg;
    }
    const auto &target = objects[rng_.pickIndex(objects.size())];
    switch (rng_.uniformInt(0, 2)) {
      case 0:
        sg.kind = env::SubgoalKind::PickUp;
        break;
      case 1:
        sg.kind = env::SubgoalKind::OpenObj;
        break;
      default:
        sg.kind = env::SubgoalKind::Mine;
        break;
    }
    sg.target = target.id;
    return sg;
}

PlanDecision
Agent::plan(int step, const PlanContext &context)
{
    PlanDecision decision;

    // Memory retrieval feeding the planning prompt.
    const auto retrieved = memory_.retrieve(step);
    charge(stats::ModuleKind::Memory, memory_.retrievalLatency());

    const auto menu = env_->validSubgoals(id_);
    const int menu_tokens = static_cast<int>(menu.size()) *
                            config_.lat.menu_tokens_per_option;
    const double compression =
        std::clamp(context.compression, 0.05, 1.0);

    llm::LlmRequest request;
    request.kind = llm::CallKind::Planning;
    request.tokens_in =
        config_.lat.plan_prompt_base +
        static_cast<int>(retrieved.totalTokens() * compression) +
        menu_tokens;
    request.tokens_out_mean = config_.lat.plan_out_tokens;
    request.complexity =
        std::clamp(config_.decentralized_complexity * (context.n_agents - 1) +
                       std::min(0.2,
                                static_cast<double>(menu.size()) / 400.0) +
                       std::min(kMaxCorruptionComplexity,
                                kCorruptedRecordComplexity *
                                    corrupted_records_) +
                       // Memory inconsistency: conflicting beliefs in an
                       // oversized store confuse the model (Takeaway 4).
                       std::min(0.25, 0.05 * retrieved.stale_beliefs),
                   0.0, 0.95);
    const auto response = planner_engine_.complete(request);
    charge(stats::ModuleKind::Planning, response.latency_s);
    decision.prompt_tokens = request.tokens_in + response.tokens_out;

    // Stuck-loop: an undetected failure makes the agent re-issue the same
    // subgoal (its context claims it should work).
    if (repeat_intent_.has_value()) {
        decision.subgoal = *repeat_intent_;
        repeat_intent_.reset();
        decision.from_oracle = false;
        return decision;
    }

    bool good = response.good;

    // CoELA-style third LLM call: select the concrete action from a menu.
    if (config_.llm_action_selection) {
        llm::LlmRequest select;
        select.kind = llm::CallKind::ActionSelection;
        select.tokens_in = 240 + menu_tokens;
        select.tokens_out_mean = config_.lat.action_select_out_tokens;
        const auto sel = planner_engine_.complete(select);
        charge(stats::ModuleKind::Planning, sel.latency_s);
        good = good && sel.good;
    }

    decision.from_oracle = good;
    const bool hallucinated =
        !good && rng_.bernoulli(config_.hallucination_rate);
    decision.subgoal = chooseSubgoal(good, hallucinated, step);

    decision.wants_comm =
        config_.has_communication && rng_.bernoulli(config_.message_utility);
    return decision;
}

env::Subgoal
Agent::chooseSubgoal(bool good_plan, bool hallucinate, int step)
{
    (void)step;
    if (repeat_intent_.has_value()) {
        const env::Subgoal sg = *repeat_intent_;
        repeat_intent_.reset();
        return sg;
    }
    if (good_plan) {
        const auto known = knownUsefulSubgoals();
        if (!known.empty())
            return known[rng_.pickIndex(known.size())];
        // A good plan with no actionable knowledge means search.
        return searchOrExploreSubgoal();
    }
    if (hallucinate)
        return hallucinatedSubgoal();
    return suboptimalSubgoal();
}

bool
Agent::execute(int step, const env::Subgoal &subgoal)
{
    (void)step;

    // Stale-belief check: if the agent's belief about the target's location
    // is wrong, it navigates to the remembered spot and comes up empty.
    if (subgoal.target != env::kNoObject &&
        subgoal.kind != env::SubgoalKind::PutInto &&
        subgoal.kind != env::SubgoalKind::Wait) {
        const auto believed = believedPos(subgoal.target);
        const env::Vec2i actual =
            env_->world().effectivePos(subgoal.target);
        if (believed.has_value() && env::manhattan(*believed, actual) > 1) {
            // Walk to the believed position (real movement cost)...
            std::vector<env::Vec2i> path;
            const double cost = env_->motionCost(
                env_->world().agent(id_).pos, *believed, &path);
            charge(stats::ModuleKind::Execution,
                   config_.lat.motion_planner.sample(rng_));
            if (cost > 0) {
                for (std::size_t i = 1; i < path.size(); ++i) {
                    env::Primitive move;
                    move.op = env::PrimOp::MoveStep;
                    move.dest = path[i];
                    if (!env_->applyPrimitive(id_, move).ok)
                        break;
                    charge(stats::ModuleKind::Execution,
                           config_.lat.move_per_cell_s);
                }
            }
            // The object is not at the remembered location. The agent has
            // verified the belief is wrong: drop it so the next plan
            // searches instead of returning here.
            memory_.invalidate(subgoal.target);
            return false;
        }
    }

    // Compile the subgoal with the low-level planner.
    plan::Compiled compiled = plan::compileSubgoal(*env_, id_, subgoal);
    charge(stats::ModuleKind::Execution,
           config_.lat.motion_planner.sample(rng_));
    if (!compiled.feasible)
        return false;

    const bool llm_direct = !config_.has_execution;
    int recompiles = 0;
    std::size_t index = 0;
    while (index < compiled.prims.size()) {
        env::Primitive prim = compiled.prims[index];

        if (llm_direct) {
            // Without the execution module the LLM must choose every
            // primitive itself: one inference per primitive, with a real
            // chance of picking the wrong one in the huge action space.
            llm::LlmRequest request;
            request.kind = llm::CallKind::ActionSelection;
            request.tokens_in = 500 + 8 * static_cast<int>(
                                          compiled.prims.size());
            request.tokens_out_mean = config_.lat.action_select_out_tokens;
            const auto response = planner_engine_.complete(request);
            charge(stats::ModuleKind::Planning, response.latency_s);
            const double reliability =
                config_.planner_model.format_compliance *
                kDirectControlReliability;
            if (!rng_.bernoulli(reliability))
                return false; // corrupted primitive: the sequence derails
        }

        // Actuation slip: interactions occasionally fail at the hardware
        // level even when the command is correct.
        const bool interaction =
            prim.op != env::PrimOp::MoveStep && prim.op != env::PrimOp::Wait;
        if (interaction && rng_.bernoulli(config_.actuation_failure)) {
            charge(stats::ModuleKind::Execution,
                   config_.lat.actuation.sample(rng_));
            return false;
        }

        const auto applied = env_->applyPrimitive(id_, prim);
        if (prim.op == env::PrimOp::MoveStep) {
            charge(stats::ModuleKind::Execution,
                   config_.lat.move_per_cell_s);
        } else if (prim.op != env::PrimOp::Wait) {
            charge(stats::ModuleKind::Execution,
                   config_.lat.actuation.sample(rng_));
        }

        if (!applied.ok) {
            if (prim.op == env::PrimOp::MoveStep && recompiles < 2) {
                // Another agent blocked the corridor: re-plan the path.
                ++recompiles;
                compiled = plan::compileSubgoal(*env_, id_, subgoal);
                charge(stats::ModuleKind::Execution,
                       config_.lat.motion_planner.sample(rng_));
                if (!compiled.feasible)
                    return false;
                index = 0;
                continue;
            }
            return false;
        }
        ++index;
    }
    return true;
}

void
Agent::reflect(int step, const env::Subgoal &subgoal, bool succeeded,
               bool plan_was_sound)
{
    // Even without a reflection module, raw environment feedback reveals
    // some failures (a grasp that comes up empty is hard to miss); the
    // reflection module raises detection to its model's judged quality at
    // the cost of an LLM call.
    bool detected;
    if (config_.has_reflection) {
        llm::LlmRequest request;
        request.kind = llm::CallKind::Reflection;
        request.tokens_in = config_.lat.reflect_prompt_base + 60;
        request.tokens_out_mean = config_.lat.reflect_out_tokens;
        const auto response = reflect_engine_.complete(request);
        charge(stats::ModuleKind::Reflection, response.latency_s);
        detected = response.good;
    } else {
        detected = rng_.bernoulli(config_.env_feedback_detection);
    }

    // Every outcome adds one action record. An error that goes undetected
    // is remembered as progress: a corrupted record that raises the
    // complexity of later plans.
    memory_.recordAction(step);
    if (succeeded) {
        repeat_intent_.reset();
        // An action that executed fine but did not advance the task is
        // an "ineffective" operation in the paper's terms. Reflection's
        // job is to flag these; unflagged, they pollute the context as
        // fake progress and degrade subsequent planning.
        if (!plan_was_sound && !detected)
            ++corrupted_records_;
        return;
    }

    if (detected) {
        // Failure caught: replan fresh next step.
        repeat_intent_.reset();
        return;
    }

    // Undetected failure: the agent either "phantom-completes" the object
    // or gets stuck re-issuing the same subgoal. The corrupted record also
    // degrades future planning.
    ++corrupted_records_;
    if (subgoal.target != env::kNoObject &&
        rng_.bernoulli(config_.phantom_completion)) {
        believed_done_.insert(subgoal.target);
        repeat_intent_.reset();
    } else if (!rng_.bernoulli(kLoopEscapeProb)) {
        repeat_intent_ = subgoal;
    } else {
        repeat_intent_.reset();
    }
}

} // namespace ebs::core
