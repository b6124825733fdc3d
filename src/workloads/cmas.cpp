#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * CMAS (Chen et al.): fully centralized multi-robot planning — ViLD
 * image-to-text descriptions, one GPT-4 call produces the next action for
 * every robot. Evaluated on BoxNet / Warehouse / BoxLift; BoxNet here.
 */
WorkloadSpec
makeCmas()
{
    WorkloadSpec spec;
    spec.name = "CMAS";
    spec.paradigm = Paradigm::MultiCentralized;
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
    cfg.lat.plan_prompt_base = 900;
    cfg.lat.plan_out_tokens = 100;
    cfg.lat.state_tokens_per_agent = 80;
    spec.step_budget_factor = 0.7;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
