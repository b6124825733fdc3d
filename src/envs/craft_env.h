#ifndef EBS_ENVS_CRAFT_ENV_H
#define EBS_ENVS_CRAFT_ENV_H

#include <map>
#include <set>
#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * Open-world crafting with a tech tree, modeled on the Minecraft tasks of
 * JARVIS-1 / MP5 / DEPS ("obtain diamond pickaxe"). The map is a 3x3 zone
 * wilderness; resource nodes (trees, stone, iron, diamond) are scattered
 * with rarer resources in farther zones. Agents mine resources into an
 * inventory and craft through the chain
 *
 *   wood -> planks -> sticks -> wooden pickaxe -> stone pickaxe
 *        -> iron ingot -> iron pickaxe -> diamond pickaxe
 *
 * Better pickaxes gate harder ores, producing the long-horizon dependency
 * structure that drives the paper's step counts.
 */
class CraftEnv : public GridEnvironment
{
  public:
    // Item/resource kind codes.
    static constexpr int kWood = 100;
    static constexpr int kStone = 101;
    static constexpr int kIronOre = 102;
    static constexpr int kDiamond = 103;
    static constexpr int kPlank = 110;
    static constexpr int kStick = 111;
    static constexpr int kIronIngot = 112;
    static constexpr int kWoodenPick = 120;
    static constexpr int kStonePick = 121;
    static constexpr int kIronPick = 122;
    static constexpr int kDiamondPick = 123;

    /** One crafting recipe. */
    struct Recipe
    {
        int id = 0;
        std::vector<std::pair<int, int>> inputs; ///< (kind, count)
        int output = 0;
        int output_count = 1;
        bool at_furnace = false; ///< furnace recipes (smelting)
    };

    /**
     * @param difficulty easy: wooden pickaxe; medium: iron pickaxe;
     *                   hard: diamond pickaxe
     */
    CraftEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    /** The recipe book. */
    static const std::vector<Recipe> &recipes();

    /** Inventory count of a kind for an agent. */
    int inventory(int agent_id, int kind) const;

    /** Kind code the task requires ("goal item"). */
    int goalKind() const { return goal_kind_; }

    /** Milestone kinds ever obtained (drives task progress). */
    const std::set<int> &achieved() const { return achieved_; }

    /** Best pickaxe tier an agent owns (0 none .. 3 iron+). */
    int toolTier(int agent_id) const;

  protected:
    env::ActionResult applyDomain(int agent_id,
                                  const env::Primitive &prim) override;

    /** Mine/Craft mutate per-agent inventories and the achieved set —
     * env-local state no access-log slot names — so a logged turn that
     * takes a domain primitive is counted as aborted. */
    bool domainOpsSpeculationSafe() const override { return false; }

  private:
    env::ActionResult doMine(int agent_id, const env::Primitive &prim);
    env::ActionResult doCraft(int agent_id, const env::Primitive &prim);

    /** Tool tier needed to mine a resource kind. */
    static int requiredTier(int resource_kind);

    /** Milestone list for the goal (ordered along the chain). */
    std::vector<int> milestones_;
    std::set<int> achieved_;
    int goal_kind_ = kWoodenPick;
    env::ObjectId table_ = env::kNoObject;
    env::ObjectId furnace_ = env::kNoObject;
    std::vector<std::map<int, int>> inventories_; ///< per agent
};

} // namespace ebs::envs

#endif // EBS_ENVS_CRAFT_ENV_H
