#ifndef EBS_ENVS_BOXLIFT_ENV_H
#define EBS_ENVS_BOXLIFT_ENV_H

#include <map>
#include <set>
#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * BoxLift (HMAS benchmark): heavy boxes each require `weight` agents to
 * lift simultaneously. Within one global step, agents adjacent to the same
 * box who all issue Lift deliver it onto the truck; uncoordinated lifts
 * are wasted effort. This is the domain where agent *coordination* (not
 * just division of labor) is mandatory.
 */
class BoxLiftEnv : public GridEnvironment
{
  public:
    /** easy: 2 boxes (weight 2); medium: 3 (2,2,3); hard: 4 (2,3,3,3).
     * Box weights are clamped to the agent count so tasks stay feasible. */
    BoxLiftEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    void beginStep() override { lift_votes_.clear(); }

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    env::ObjectId truck() const { return truck_; }

    /** Current lift votes on a box (for tests). */
    int votesOn(env::ObjectId box) const;

  protected:
    env::ActionResult applyDomain(int agent_id,
                                  const env::Primitive &prim) override;

    /** Lift is a genuine same-step cross-agent dependency (votes tallied
     * in lift_votes_, which no access-log slot names), so a logged turn
     * that lifts is counted as aborted. */
    bool domainOpsSpeculationSafe() const override { return false; }

  private:
    env::ObjectId truck_ = env::kNoObject;
    std::vector<env::ObjectId> boxes_;
    std::map<env::ObjectId, std::set<int>> lift_votes_;
};

} // namespace ebs::envs

#endif // EBS_ENVS_BOXLIFT_ENV_H
