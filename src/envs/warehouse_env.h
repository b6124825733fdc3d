#ifndef EBS_ENVS_WAREHOUSE_ENV_H
#define EBS_ENVS_WAREHOUSE_ENV_H

#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * Warehouse order fulfilment (the CMAS/DMAS Warehouse benchmark): mobile
 * robots fetch packages from shelf aisles and deliver them to a depot.
 * Narrow aisles make agents physically interfere — a key multi-agent
 * congestion effect at higher agent counts.
 */
class WarehouseEnv : public GridEnvironment
{
  public:
    /** easy: 3 packages; medium: 6; hard: 10 (bigger floor) */
    WarehouseEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    env::ObjectId depot() const { return depot_; }

    static constexpr int kPackage = 1;

  private:
    env::ObjectId depot_ = env::kNoObject;
};

} // namespace ebs::envs

#endif // EBS_ENVS_WAREHOUSE_ENV_H
