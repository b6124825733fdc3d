#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * Organized LLM Agents / OLA (Guo et al.): centralized team organization
 * with GPT-4 planning and communication, criticize-reflect prompting, and
 * full observation/action/dialogue memory. Evaluated on VirtualHome /
 * C-WAH household tasks.
 */
WorkloadSpec
makeOla()
{
    WorkloadSpec spec;
    spec.name = "OLA";
    spec.paradigm = Paradigm::MultiCentralized;
    spec.sensing_desc = "-";
    spec.planning_desc = "GPT-4/Llama-70B";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "GPT-4";
    spec.execution_desc = "Action list";
    spec.tasks_desc = "Collaborative planning, object transport (C-WAH)";
    spec.env_name = "household";
    spec.default_agents = 3;

    core::AgentConfig cfg;
    cfg.has_sensing = false; // symbolic environment interface
    cfg.has_communication = true;
    cfg.has_reflection = true;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.actuation = {0.5, 0.3};
    cfg.lat.move_per_cell_s = 0.12;
    cfg.lat.plan_prompt_base = 1200; // organizational prompts
    cfg.lat.plan_out_tokens = 120;
    cfg.lat.comm_prompt_base = 500;
    cfg.lat.comm_out_tokens = 80;
    spec.step_budget_factor = 0.25;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
