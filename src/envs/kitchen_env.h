#ifndef EBS_ENVS_KITCHEN_ENV_H
#define EBS_ENVS_KITCHEN_ENV_H

#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * Collaborative cooking, modeled on CuisineWorld (MindAgent) and TDW-Cook
 * (COMBO): ingredients must be chopped at a board, cooked on a stove, and
 * served at the counter. Each dish is one ingredient driven through the
 * chop -> cook -> serve chain; the task is to serve all ordered dishes.
 *
 * Ingredient `state`: 0 = raw, 1 = chopped, 2 = cooked.
 */
class KitchenEnv : public GridEnvironment
{
  public:
    /**
     * @param difficulty easy: 3 dishes; medium: 6; hard: 10
     * @param n_agents   cooks to spawn
     */
    KitchenEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    /** Dishes served so far. */
    int servedCount() const;

    env::ObjectId board() const { return board_; }
    env::ObjectId stove() const { return stove_; }
    env::ObjectId counter() const { return counter_; }

    /** Ingredient states. */
    static constexpr int kRaw = 0;
    static constexpr int kChopped = 1;
    static constexpr int kCooked = 2;

  protected:
    env::ActionResult applyDomain(int agent_id,
                                  const env::Primitive &prim) override;

  private:
    env::ObjectId board_ = env::kNoObject;
    env::ObjectId stove_ = env::kNoObject;
    env::ObjectId counter_ = env::kNoObject;
    int orders_ = 0;
};

} // namespace ebs::envs

#endif // EBS_ENVS_KITCHEN_ENV_H
