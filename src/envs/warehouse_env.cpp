#include "envs/warehouse_env.h"

namespace ebs::envs {

namespace {

struct Layout
{
    int width;
    int height;
    int packages;
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {15, 11, 3, 50};
      case env::Difficulty::Medium:
        return {19, 13, 6, 90};
      case env::Difficulty::Hard:
        return {25, 15, 10, 130};
    }
    return {15, 11, 3, 50};
}

/** Open floor with shelf rows: walls every other column band. */
env::GridMap
warehouseFloor(const Layout &layout)
{
    env::GridMap map(layout.width, layout.height);
    // Border walls.
    for (int x = 0; x < layout.width; ++x) {
        map.setWalkable({x, 0}, false);
        map.setWalkable({x, layout.height - 1}, false);
    }
    for (int y = 0; y < layout.height; ++y) {
        map.setWalkable({0, y}, false);
        map.setWalkable({layout.width - 1, y}, false);
    }
    // Shelf rows: horizontal shelving with aisle gaps, leaving the top and
    // bottom lanes plus a central cross-aisle free.
    const int mid_x = layout.width / 2;
    for (int y = 3; y < layout.height - 3; y += 3) {
        for (int x = 2; x < layout.width - 2; ++x) {
            if (x == mid_x || x == mid_x + 1)
                continue; // central cross-aisle
            map.setWalkable({x, y}, false);
        }
    }
    return map;
}

} // namespace

WarehouseEnv::WarehouseEnv(env::Difficulty difficulty, int n_agents,
                           sim::Rng rng)
    : GridEnvironment(warehouseFloor(layoutFor(difficulty)))
{
    const Layout layout = layoutFor(difficulty);

    env::Object depot;
    depot.name = "depot";
    depot.cls = env::ObjectClass::Target;
    depot.pos = {1, 1};
    depot_ = world_.addObject(depot);

    // Packages sit next to shelves.
    for (int i = 0; i < layout.packages; ++i) {
        env::Object pkg;
        pkg.name = "package " + std::to_string(i);
        pkg.cls = env::ObjectClass::Item;
        pkg.kind = kPackage;
        pkg.pos = randomFreeCell(rng);
        world_.addObject(pkg);
    }

    spawnAgents(n_agents, rng);

    const env::ObjectId dep = depot_;
    const int total = layout.packages;
    setTask(env::Task(
        "Deliver all " + std::to_string(total) + " packages to the depot",
        layout.max_steps,
        [dep, total](const env::World &world) {
            int delivered = 0;
            for (const auto &obj : world.objects())
                if (obj.kind == kPackage && obj.inside == dep)
                    ++delivered;
            return static_cast<double>(delivered) / total;
        }));
}

std::vector<env::Subgoal>
WarehouseEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::PutInto;
        sg.target = body.carrying;
        sg.dest_obj = depot_;
        out.push_back(sg);
        return out;
    }

    for (const auto &obj : world_.objects()) {
        if (obj.kind != kPackage || obj.inside == depot_ || obj.held_by >= 0)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::PickUp;
        sg.target = obj.id;
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
WarehouseEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out = usefulSubgoals(agent_id);
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal drop;
        drop.kind = env::SubgoalKind::PlaceAt;
        drop.dest = body.pos;
        out.push_back(drop);
    }
    env::Subgoal wait;
    wait.kind = env::SubgoalKind::Wait;
    out.push_back(wait);
    return out;
}

} // namespace ebs::envs
