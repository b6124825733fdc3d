#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * MindAgent (Gong et al.): centralized GPT-4 scheduler for collaborative
 * cooking (CuisineWorld). The central planner receives the symbolic game
 * state (no perception module), dispatches tasks, and coordinates via
 * few-shot prompting; agents have no reflection module.
 */
WorkloadSpec
makeMindAgent()
{
    WorkloadSpec spec;
    spec.name = "MindAgent";
    spec.paradigm = Paradigm::MultiCentralized;
    spec.sensing_desc = "-";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "-";
    spec.execution_desc = "Action list";
    spec.tasks_desc = "Collaborative cooking (CuisineWorld)";
    spec.env_name = "kitchen";
    spec.default_agents = 3;

    core::AgentConfig cfg;
    cfg.has_sensing = false; // game state is handed to the planner
    cfg.has_communication = true;
    cfg.has_reflection = false;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.actuation = {0.5, 0.3};
    cfg.lat.move_per_cell_s = 0.10;
    cfg.lat.plan_prompt_base = 1400; // recipe book + few-shot dispatches
    cfg.lat.plan_out_tokens = 120;
    cfg.lat.state_tokens_per_agent = 110;
    spec.step_budget_factor = 0.6;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
