#include "envs/craft_env.h"

#include <algorithm>
#include <functional>

namespace ebs::envs {

namespace {

/** Node counts per resource kind and zone gating. */
struct ResourceSpec
{
    int kind;
    int nodes;
    int min_zone; ///< nodes only spawn in zones >= this index
    int units;    ///< units per node before depletion
};

const ResourceSpec kResources[] = {
    {CraftEnv::kWood, 6, 0, 3},
    {CraftEnv::kStone, 4, 3, 3},
    {CraftEnv::kIronOre, 3, 5, 3},
    {CraftEnv::kDiamond, 2, 8, 2},
};

const char *
kindName(int kind)
{
    switch (kind) {
      case CraftEnv::kWood:
        return "tree";
      case CraftEnv::kStone:
        return "stone vein";
      case CraftEnv::kIronOre:
        return "iron vein";
      case CraftEnv::kDiamond:
        return "diamond vein";
      default:
        return "node";
    }
}

int
maxStepsFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return 60;
      case env::Difficulty::Medium:
        return 110;
      case env::Difficulty::Hard:
        return 160;
    }
    return 60;
}

} // namespace

const std::vector<CraftEnv::Recipe> &
CraftEnv::recipes()
{
    static const std::vector<Recipe> kRecipes = {
        {1, {{kWood, 1}}, kPlank, 2, false},
        {2, {{kPlank, 1}}, kStick, 2, false},
        {3, {{kPlank, 2}, {kStick, 1}}, kWoodenPick, 1, false},
        {4, {{kStone, 2}, {kStick, 1}}, kStonePick, 1, false},
        {5, {{kIronOre, 1}}, kIronIngot, 1, true},
        {6, {{kIronIngot, 2}, {kStick, 1}}, kIronPick, 1, false},
        {7, {{kDiamond, 2}, {kStick, 1}}, kDiamondPick, 1, false},
    };
    return kRecipes;
}

CraftEnv::CraftEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(3, 3, 8, 8))
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        goal_kind_ = kWoodenPick;
        milestones_ = {kWood, kPlank, kStick, kWoodenPick};
        break;
      case env::Difficulty::Medium:
        goal_kind_ = kIronPick;
        milestones_ = {kWood, kPlank, kStick, kWoodenPick, kStone,
                       kStonePick, kIronOre, kIronIngot, kIronPick};
        break;
      case env::Difficulty::Hard:
        goal_kind_ = kDiamondPick;
        milestones_ = {kWood, kPlank, kStick, kWoodenPick,
                       kStone, kStonePick, kIronOre, kIronIngot,
                       kIronPick, kDiamond, kDiamondPick};
        break;
    }

    // Stations in the starting zone.
    {
        env::Object table;
        table.name = "crafting table";
        table.cls = env::ObjectClass::Station;
        table.kind = 0;
        table.pos = randomFreeCellInRoom(0, rng);
        table_ = world_.addObject(table);

        env::Object furnace;
        furnace.name = "furnace";
        furnace.cls = env::ObjectClass::Station;
        furnace.kind = 1;
        furnace.pos = randomFreeCellInRoom(0, rng);
        furnace_ = world_.addObject(furnace);
    }

    // Resource nodes, gated by zone.
    const int zones = world_.grid().roomCount();
    for (const auto &spec : kResources) {
        for (int i = 0; i < spec.nodes; ++i) {
            env::Object node;
            node.name = std::string(kindName(spec.kind)) + " " +
                        std::to_string(i);
            node.cls = env::ObjectClass::Resource;
            node.kind = spec.kind;
            node.state = spec.units;
            const int zone =
                rng.uniformInt(std::min(spec.min_zone, zones - 1),
                               zones - 1);
            node.pos = randomFreeCellInRoom(zone, rng);
            world_.addObject(node);
        }
    }

    spawnAgents(n_agents, rng);
    inventories_.resize(static_cast<std::size_t>(world_.agentCount()));

    const std::set<int> *achieved = &achieved_;
    const auto milestones = milestones_;
    setTask(env::Task(
        std::string("Obtain a ") +
            (goal_kind_ == kWoodenPick  ? "wooden"
             : goal_kind_ == kIronPick ? "iron"
                                       : "diamond") +
            " pickaxe",
        maxStepsFor(difficulty),
        [achieved, milestones](const env::World &) {
            int done = 0;
            for (int kind : milestones)
                if (achieved->count(kind) > 0)
                    ++done;
            return static_cast<double>(done) /
                   static_cast<double>(milestones.size());
        }));
}

int
CraftEnv::inventory(int agent_id, int kind) const
{
    const auto &inv = inventories_[static_cast<std::size_t>(agent_id)];
    const auto it = inv.find(kind);
    return it == inv.end() ? 0 : it->second;
}

int
CraftEnv::toolTier(int agent_id) const
{
    if (inventory(agent_id, kIronPick) > 0 ||
        inventory(agent_id, kDiamondPick) > 0)
        return 3;
    if (inventory(agent_id, kStonePick) > 0)
        return 2;
    if (inventory(agent_id, kWoodenPick) > 0)
        return 1;
    return 0;
}

int
CraftEnv::requiredTier(int resource_kind)
{
    switch (resource_kind) {
      case kWood:
        return 0;
      case kStone:
        return 1;
      case kIronOre:
        return 2;
      case kDiamond:
        return 3;
      default:
        return 0;
    }
}

env::ActionResult
CraftEnv::applyDomain(int agent_id, const env::Primitive &prim)
{
    switch (prim.op) {
      case env::PrimOp::Mine:
        return doMine(agent_id, prim);
      case env::PrimOp::Craft:
        return doCraft(agent_id, prim);
      default:
        return GridEnvironment::applyDomain(agent_id, prim);
    }
}

env::ActionResult
CraftEnv::doMine(int agent_id, const env::Primitive &prim)
{
    if (prim.target == env::kNoObject)
        return env::ActionResult::failure("mine without target");
    env::Object &node = world_.object(prim.target);
    if (node.cls != env::ObjectClass::Resource)
        return env::ActionResult::failure("target is not a resource node");
    if (node.state <= 0)
        return env::ActionResult::failure("node depleted");
    const env::AgentBody &body = world_.agent(agent_id);
    if (env::chebyshev(body.pos, node.pos) > 1)
        return env::ActionResult::failure("node out of reach");
    if (toolTier(agent_id) < requiredTier(node.kind))
        return env::ActionResult::failure("tool tier too low");

    node.state -= 1;
    ++inventories_[static_cast<std::size_t>(agent_id)][node.kind];
    achieved_.insert(node.kind);
    return env::ActionResult::success();
}

env::ActionResult
CraftEnv::doCraft(int agent_id, const env::Primitive &prim)
{
    const Recipe *recipe = nullptr;
    for (const auto &r : recipes())
        if (r.id == prim.param)
            recipe = &r;
    if (recipe == nullptr)
        return env::ActionResult::failure("unknown recipe");

    const env::ObjectId station = recipe->at_furnace ? furnace_ : table_;
    const env::AgentBody &body = world_.agent(agent_id);
    if (env::chebyshev(body.pos, world_.object(station).pos) > 1)
        return env::ActionResult::failure(
            recipe->at_furnace ? "not at the furnace"
                               : "not at the crafting table");

    auto &inv = inventories_[static_cast<std::size_t>(agent_id)];
    for (const auto &[kind, count] : recipe->inputs)
        if (inventory(agent_id, kind) < count)
            return env::ActionResult::failure("missing ingredients");

    for (const auto &[kind, count] : recipe->inputs)
        inv[kind] -= count;
    inv[recipe->output] += recipe->output_count;
    achieved_.insert(recipe->output);
    return env::ActionResult::success();
}

std::vector<env::Subgoal>
CraftEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    if (inventory(agent_id, goal_kind_) > 0)
        return out; // done

    // Quantity-aware demand propagation from the goal item through the
    // recipe DAG. Tool gating is part of the dependency structure: a
    // resource needing a better pickaxe pulls that pickaxe into the
    // demand set. Shared intermediates may be counted more than once,
    // which only makes the agent gather slightly conservatively.
    const int tier = toolTier(agent_id);
    auto pick_for_tier = [](int t) {
        return t >= 3 ? kIronPick : t == 2 ? kStonePick : kWoodenPick;
    };
    std::map<int, int> demand;
    std::function<void(int, int)> require = [&](int kind, int count) {
        const int shortfall = count - inventory(agent_id, kind);
        if (shortfall <= 0)
            return;
        demand[kind] += shortfall;
        const int req_tier = requiredTier(kind);
        if (kind >= kWood && kind <= kDiamond && req_tier > tier)
            require(pick_for_tier(req_tier), 1);
        for (const auto &recipe : recipes()) {
            if (recipe.output != kind)
                continue;
            const int crafts =
                (shortfall + recipe.output_count - 1) / recipe.output_count;
            for (const auto &[input, in_count] : recipe.inputs)
                require(input, in_count * crafts);
            break; // one recipe per output in this book
        }
    };
    require(goal_kind_, 1);

    // Craftable now? (crafting beats mining when both are possible)
    for (const auto &recipe : recipes()) {
        const auto it = demand.find(recipe.output);
        if (it == demand.end() || it->second <= 0)
            continue;
        bool ready = true;
        for (const auto &[input, count] : recipe.inputs)
            if (inventory(agent_id, input) < count)
                ready = false;
        if (!ready)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::Craft;
        sg.dest_obj = recipe.at_furnace ? furnace_ : table_;
        sg.param = recipe.id;
        out.push_back(sg);
    }
    if (!out.empty())
        return out;

    // Mine a demanded raw resource the agent's tool can break.
    const env::AgentBody &body = world_.agent(agent_id);
    env::ObjectId best = env::kNoObject;
    int best_dist = 0;
    for (const auto &obj : world_.objects()) {
        if (obj.cls != env::ObjectClass::Resource || obj.state <= 0)
            continue;
        const auto it = demand.find(obj.kind);
        if (it == demand.end() || it->second <= 0)
            continue;
        if (requiredTier(obj.kind) > tier)
            continue;
        const int d = env::manhattan(body.pos, obj.pos);
        if (best == env::kNoObject || d < best_dist) {
            best = obj.id;
            best_dist = d;
        }
    }
    if (best != env::kNoObject) {
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::Mine;
        sg.target = best;
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
CraftEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out = usefulSubgoals(agent_id);

    // Any live resource node may be attempted.
    for (const auto &obj : world_.objects()) {
        if (obj.cls != env::ObjectClass::Resource || obj.state <= 0)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::Mine;
        sg.target = obj.id;
        if (std::find(out.begin(), out.end(), sg) == out.end())
            out.push_back(sg);
    }
    // Any recipe may be attempted.
    for (const auto &recipe : recipes()) {
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::Craft;
        sg.dest_obj = recipe.at_furnace ? furnace_ : table_;
        sg.param = recipe.id;
        if (std::find(out.begin(), out.end(), sg) == out.end())
            out.push_back(sg);
    }
    appendExploreAndWait(out);
    return out;
}

} // namespace ebs::envs
