#include "envs/manipulation_env.h"

namespace ebs::envs {

namespace {

struct Layout
{
    int blocks;
    int obstacles;
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {4, 2, 60};
      case env::Difficulty::Medium:
        return {7, 3, 110};
      case env::Difficulty::Hard:
        return {10, 4, 160};
    }
    return {4, 2, 60};
}

constexpr int kTableW = 15;
constexpr int kTableH = 15;

} // namespace

ManipulationEnv::ManipulationEnv(env::Difficulty difficulty, int n_agents,
                                 sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(1, 1, kTableW, kTableH)),
      rrt_rng_(rng.fork(77))
{
    const Layout layout = layoutFor(difficulty);

    // Continuous workspace over the grid, with circular obstacles; mark the
    // covered cells unwalkable so A* and RRT agree about free space.
    workspace_.min_x = 0.0;
    workspace_.min_y = 0.0;
    workspace_.max_x = world_.grid().width();
    workspace_.max_y = world_.grid().height();
    for (int i = 0; i < layout.obstacles; ++i) {
        plan::CircleObstacle obs;
        obs.radius = 1.4;
        const env::Vec2i cell = randomFreeCellInRoom(0, rng);
        obs.center = {cell.x + 0.5, cell.y + 0.5};
        workspace_.obstacles.push_back(obs);
        for (int y = 0; y < world_.grid().height(); ++y) {
            for (int x = 0; x < world_.grid().width(); ++x) {
                const env::Vec2d center{x + 0.5, y + 0.5};
                if (env::dist(center, obs.center) < obs.radius)
                    world_.grid().setWalkable({x, y}, false);
            }
        }
    }

    for (int i = 0; i < layout.blocks; ++i) {
        env::Object zone;
        zone.name = "goal zone " + std::to_string(i);
        zone.cls = env::ObjectClass::Target;
        zone.kind = i;
        zone.pos = randomFreeCellInRoom(0, rng);
        const env::ObjectId target = world_.addObject(zone);

        env::Object block;
        block.name = "block " + std::to_string(i);
        block.cls = env::ObjectClass::Item;
        block.kind = i;
        block.pos = randomFreeCellInRoom(0, rng);
        const env::ObjectId block_id = world_.addObject(block);

        goals_.emplace_back(block_id, target);
    }

    spawnAgents(n_agents, rng);

    const auto goals = goals_;
    setTask(env::Task(
        "Sort all " + std::to_string(goals.size()) +
            " blocks into their goal zones",
        layout.max_steps,
        [goals](const env::World &world) {
            int placed = 0;
            for (const auto &[block, target] : goals)
                if (world.object(block).inside == target)
                    ++placed;
            return static_cast<double>(placed) /
                   static_cast<double>(goals.size());
        }));
}

double
ManipulationEnv::motionCost(const env::Vec2i &from, const env::Vec2i &to,
                            std::vector<env::Vec2i> *path) const
{
    // Discrete body path from A* (shared GridEnvironment logic).
    const double grid_cost = GridEnvironment::motionCost(from, to, path);
    if (grid_cost < 0.0)
        return grid_cost;
    if (grid_cost == 0.0)
        return 0.0;

    // Price the motion with a real RRT query in the continuous workspace.
    const env::Vec2d start{from.x + 0.5, from.y + 0.5};
    const env::Vec2d goal{to.x + 0.5, to.y + 0.5};
    plan::RrtParams params;
    params.step_size = 0.8;
    params.goal_tolerance = 1.2; // arm interacts from adjacent cells
    const auto rrt = plan::rrtPlan(workspace_, start, goal, rrt_rng_, params);
    if (rrt) {
        rrt_iterations_ += rrt->iterations;
        // Continuous length, floored by the grid cost for consistency.
        return std::max(grid_cost, rrt->length);
    }
    // RRT failed within budget; fall back to the A* cost.
    return grid_cost;
}

env::ObjectId
ManipulationEnv::targetOf(env::ObjectId block) const
{
    for (const auto &[b, t] : goals_)
        if (b == block)
            return t;
    return env::kNoObject;
}

std::vector<env::Subgoal>
ManipulationEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal sg;
        const env::ObjectId target = targetOf(body.carrying);
        if (target != env::kNoObject) {
            sg.kind = env::SubgoalKind::PutInto;
            sg.target = body.carrying;
            sg.dest_obj = target;
        } else {
            sg.kind = env::SubgoalKind::PlaceAt;
            sg.dest = body.pos;
        }
        out.push_back(sg);
        return out;
    }

    for (const auto &[block, target] : goals_) {
        const env::Object &obj = world_.object(block);
        if (obj.inside == target || obj.held_by >= 0)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::PickUp;
        sg.target = block;
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
ManipulationEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out = usefulSubgoals(agent_id);
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal drop;
        drop.kind = env::SubgoalKind::PlaceAt;
        drop.dest = body.pos;
        out.push_back(drop);
        for (const auto &[block, target] : goals_) {
            if (block == body.carrying)
                continue;
            env::Subgoal wrong;
            wrong.kind = env::SubgoalKind::PutInto;
            wrong.target = body.carrying;
            wrong.dest_obj = target;
            out.push_back(wrong);
            break;
        }
    }
    env::Subgoal wait;
    wait.kind = env::SubgoalKind::Wait;
    out.push_back(wait);
    return out;
}

} // namespace ebs::envs
