#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * DMAS (Chen et al.): fully decentralized variant of the multi-robot
 * planning study — each robot runs its own GPT-4 planner and dialogue
 * proceeds in turn-taking rounds. Evaluated on BoxNet.
 */
WorkloadSpec
makeDmas()
{
    WorkloadSpec spec;
    spec.name = "DMAS";
    spec.paradigm = Paradigm::MultiDecentralized;
    spec.sensing_desc = "ViLD";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "-";
    spec.execution_desc = "Action list";
    spec.tasks_desc = "Collaborative planning, manipulation (BoxNet)";
    spec.env_name = "boxnet";
    spec.default_agents = 4;

    core::AgentConfig cfg;
    cfg.has_communication = true;
    cfg.has_reflection = false;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingVild();
    cfg.lat.actuation = {0.9, 0.3};
    cfg.lat.move_per_cell_s = 0.15;
    cfg.lat.plan_prompt_base = 750;
    cfg.lat.plan_out_tokens = 80;
    cfg.lat.comm_prompt_base = 500;
    cfg.lat.comm_out_tokens = 55; // turn-taking keeps messages short
    spec.step_budget_factor = 0.5;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
