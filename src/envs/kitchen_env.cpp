#include "envs/kitchen_env.h"

namespace ebs::envs {

namespace {

struct Layout
{
    int dishes;
    int spare_ingredients;
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {4, 1, 60};
      case env::Difficulty::Medium:
        return {8, 2, 110};
      case env::Difficulty::Hard:
        return {14, 3, 170};
    }
    return {4, 1, 60};
}

} // namespace

KitchenEnv::KitchenEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(2, 1, 9, 9))
{
    const Layout layout = layoutFor(difficulty);
    orders_ = layout.dishes;

    auto add_station = [&](const char *name, env::ObjectClass cls,
                           int room) {
        env::Object station;
        station.name = name;
        station.cls = cls;
        station.pos = randomFreeCellInRoom(room, rng);
        return world_.addObject(station);
    };
    board_ = add_station("cutting board", env::ObjectClass::Station, 0);
    stove_ = add_station("stove", env::ObjectClass::Station, 0);
    counter_ = add_station("serving counter", env::ObjectClass::Target, 0);

    const int total_ingredients = layout.dishes + layout.spare_ingredients;
    for (int i = 0; i < total_ingredients; ++i) {
        env::Object ing;
        ing.name = "ingredient " + std::to_string(i);
        ing.cls = env::ObjectClass::Item;
        ing.kind = 10 + i % 4; // four ingredient families
        ing.state = kRaw;
        const int room = rng.uniformInt(0, world_.grid().roomCount() - 1);
        ing.pos = randomFreeCellInRoom(room, rng);
        world_.addObject(ing);
    }

    spawnAgents(n_agents, rng);

    const env::ObjectId counter = counter_;
    const int orders = orders_;
    setTask(env::Task(
        "Prepare and serve " + std::to_string(orders) + " dishes",
        layout.max_steps,
        [counter, orders](const env::World &world) {
            int served = 0;
            for (const auto &obj : world.objects())
                if (obj.inside == counter && obj.state == kCooked)
                    ++served;
            return static_cast<double>(std::min(served, orders)) / orders;
        }));
}

int
KitchenEnv::servedCount() const
{
    int served = 0;
    for (const auto &obj : world_.objects())
        if (obj.inside == counter_ && obj.state == kCooked)
            ++served;
    return served;
}

env::ActionResult
KitchenEnv::applyDomain(int agent_id, const env::Primitive &prim)
{
    // Chop/Cook mutate only world() entities (ingredient state) — no
    // env-local bookkeeping — so kitchen keeps GridEnvironment's
    // domainOpsSpeculationSafe()==true and must route every access
    // through world() for the speculation access log to see it.
    const env::AgentBody &body = world().agent(agent_id);
    if (prim.op != env::PrimOp::Chop && prim.op != env::PrimOp::Cook)
        return GridEnvironment::applyDomain(agent_id, prim);

    if (prim.target == env::kNoObject)
        return env::ActionResult::failure("no ingredient given");
    env::Object &ing = world().object(prim.target);
    if (ing.cls != env::ObjectClass::Item)
        return env::ActionResult::failure("target is not an ingredient");
    const bool in_hand = ing.held_by == agent_id;
    const bool adjacent =
        env::chebyshev(body.pos, world().effectivePos(ing.id)) <= 1;
    if (!in_hand && !adjacent)
        return env::ActionResult::failure("ingredient out of reach");

    const env::ObjectId station =
        prim.op == env::PrimOp::Chop ? board_ : stove_;
    if (env::chebyshev(body.pos, world().object(station).pos) > 1)
        return env::ActionResult::failure(
            prim.op == env::PrimOp::Chop ? "not at the cutting board"
                                         : "not at the stove");

    if (prim.op == env::PrimOp::Chop) {
        if (ing.state != kRaw)
            return env::ActionResult::failure("ingredient not raw");
        ing.state = kChopped;
    } else {
        if (ing.state != kChopped)
            return env::ActionResult::failure("ingredient not chopped yet");
        ing.state = kCooked;
    }
    return env::ActionResult::success();
}

std::vector<env::Subgoal>
KitchenEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);
    const int needed = orders_ - servedCount();
    if (needed <= 0)
        return out;

    if (body.carrying != env::kNoObject) {
        const env::Object &ing = world_.object(body.carrying);
        env::Subgoal sg;
        sg.target = ing.id;
        switch (ing.state) {
          case kRaw:
            sg.kind = env::SubgoalKind::Chop;
            sg.dest_obj = board_;
            break;
          case kChopped:
            sg.kind = env::SubgoalKind::Cook;
            sg.dest_obj = stove_;
            break;
          default:
            sg.kind = env::SubgoalKind::PutInto;
            sg.dest_obj = counter_;
            break;
        }
        out.push_back(sg);
        return out;
    }

    // Not carrying: pick up any unfinished ingredient; uncooked items
    // mistakenly "served" at the counter can be taken back out.
    for (const auto &obj : world_.objects()) {
        if (obj.cls != env::ObjectClass::Item || obj.held_by >= 0)
            continue;
        if (obj.inside == counter_ && obj.state == kCooked)
            continue; // a served dish stays served
        env::Subgoal sg;
        if (obj.inside != env::kNoObject) {
            sg.kind = env::SubgoalKind::TakeFrom;
            sg.target = obj.id;
            sg.dest_obj = obj.inside;
        } else {
            sg.kind = env::SubgoalKind::PickUp;
            sg.target = obj.id;
        }
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
KitchenEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out = usefulSubgoals(agent_id);
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        // Wasteful but valid alternatives: drop it, or serve it unfinished.
        env::Subgoal drop;
        drop.kind = env::SubgoalKind::PlaceAt;
        drop.dest = body.pos;
        out.push_back(drop);
        env::Subgoal serve;
        serve.kind = env::SubgoalKind::PutInto;
        serve.target = body.carrying;
        serve.dest_obj = counter_;
        out.push_back(serve);
    }

    appendExploreAndWait(out);
    return out;
}

} // namespace ebs::envs
