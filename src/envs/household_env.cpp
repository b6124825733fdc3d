#include "envs/household_env.h"

namespace ebs::envs {

namespace {

struct Layout
{
    int rooms_x;
    int rooms_y;
    int goal_items;
    int hidden_items;
    int cabinets;
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {2, 2, 4, 0, 2, 70};
      case env::Difficulty::Medium:
        return {3, 2, 8, 3, 3, 130};
      case env::Difficulty::Hard:
        return {3, 3, 12, 6, 5, 190};
    }
    return {2, 2, 4, 0, 2, 70};
}

} // namespace

HouseholdEnv::HouseholdEnv(env::Difficulty difficulty, int n_agents,
                           sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(
          layoutFor(difficulty).rooms_x, layoutFor(difficulty).rooms_y, 7, 7))
{
    const Layout layout = layoutFor(difficulty);

    // The dining table (zone) in room 0 and the fridge in room 1.
    {
        env::Object table;
        table.name = "dining table";
        table.cls = env::ObjectClass::Target;
        table.pos = randomFreeCellInRoom(0, rng);
        table_ = world_.addObject(table);

        env::Object fridge;
        fridge.name = "fridge";
        fridge.cls = env::ObjectClass::Container;
        fridge.openable = true;
        fridge.open = false;
        fridge.pos = randomFreeCellInRoom(
            std::min(1, world_.grid().roomCount() - 1), rng);
        fridge_ = world_.addObject(fridge);
    }

    // Cabinets that may hide goal items.
    std::vector<env::ObjectId> cabinets;
    for (int i = 0; i < layout.cabinets; ++i) {
        env::Object cab;
        cab.name = "cabinet " + std::to_string(i);
        cab.cls = env::ObjectClass::Container;
        cab.openable = true;
        cab.open = false;
        const int room = rng.uniformInt(0, world_.grid().roomCount() - 1);
        cab.pos = randomFreeCellInRoom(room, rng);
        cabinets.push_back(world_.addObject(cab));
    }

    // Goal items: tableware goes to the table, groceries to the fridge.
    for (int i = 0; i < layout.goal_items; ++i) {
        const bool grocery = i % 2 == 1;
        env::Object item;
        item.name = grocery ? "grocery " + std::to_string(i)
                            : "tableware " + std::to_string(i);
        item.cls = env::ObjectClass::Item;
        item.kind = grocery ? 2 : 1;
        if (i < layout.hidden_items && !cabinets.empty()) {
            const env::ObjectId host = rng.pick(cabinets);
            item.pos = world_.object(host).pos;
            item.inside = host;
        } else {
            const int room =
                rng.uniformInt(0, world_.grid().roomCount() - 1);
            item.pos = randomFreeCellInRoom(room, rng);
        }
        const env::ObjectId id = world_.addObject(item);
        goals_.emplace_back(id, grocery ? fridge_ : table_);
    }

    spawnAgents(n_agents, rng);

    const auto goals = goals_;
    setTask(env::Task(
        "Set the table and put the groceries away (" +
            std::to_string(goals.size()) + " items)",
        layout.max_steps,
        [goals](const env::World &world) {
            int placed = 0;
            for (const auto &[item, dest] : goals)
                if (world.object(item).inside == dest)
                    ++placed;
            return static_cast<double>(placed) /
                   static_cast<double>(goals.size());
        }));
}

env::ObjectId
HouseholdEnv::destinationOf(env::ObjectId item) const
{
    for (const auto &[goal_item, dest] : goals_)
        if (goal_item == item)
            return dest;
    return env::kNoObject;
}

std::vector<env::Subgoal>
HouseholdEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        const env::ObjectId dest = destinationOf(body.carrying);
        env::Subgoal sg;
        if (dest != env::kNoObject) {
            sg.kind = env::SubgoalKind::PutInto;
            sg.target = body.carrying;
            sg.dest_obj = dest;
        } else {
            sg.kind = env::SubgoalKind::PlaceAt;
            sg.dest = body.pos;
        }
        out.push_back(sg);
        return out;
    }

    for (const auto &[item, dest] : goals_) {
        const env::Object &obj = world_.object(item);
        if (obj.inside == dest || obj.held_by >= 0)
            continue;
        env::Subgoal sg;
        if (obj.inside != env::kNoObject) {
            sg.kind = env::SubgoalKind::TakeFrom;
            sg.target = item;
            sg.dest_obj = obj.inside;
        } else {
            sg.kind = env::SubgoalKind::PickUp;
            sg.target = item;
        }
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
HouseholdEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out = usefulSubgoals(agent_id);
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal drop;
        drop.kind = env::SubgoalKind::PlaceAt;
        drop.dest = body.pos;
        out.push_back(drop);
        // Wrong destination (valid, wasteful).
        env::Subgoal wrong;
        wrong.kind = env::SubgoalKind::PutInto;
        wrong.target = body.carrying;
        wrong.dest_obj =
            destinationOf(body.carrying) == table_ ? fridge_ : table_;
        out.push_back(wrong);
    } else {
        for (const auto cid : objectsOfClass(env::ObjectClass::Container)) {
            env::Subgoal sg;
            sg.kind = env::SubgoalKind::OpenObj;
            sg.target = cid;
            out.push_back(sg);
        }
    }

    appendExploreAndWait(out);
    return out;
}

} // namespace ebs::envs
