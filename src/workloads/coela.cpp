#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * CoELA (Zhang et al.): decentralized cooperative embodied language agents
 * — Mask R-CNN perception, GPT-4 for communication, planning, and action
 * selection (three LLM calls per step: 16.1% / 36.5% / 10.3% of step
 * latency), A-star execution. Evaluated on TDW-MAT object transport.
 */
WorkloadSpec
makeCoela()
{
    WorkloadSpec spec;
    spec.name = "CoELA";
    spec.paradigm = Paradigm::MultiDecentralized;
    spec.sensing_desc = "Mask R-CNN";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "-";
    spec.execution_desc = "A-star";
    spec.tasks_desc = "Collaborative transport, housework (TDW-MAT)";
    spec.env_name = "transport";
    spec.default_agents = 2;

    core::AgentConfig cfg;
    cfg.has_communication = true;
    cfg.has_reflection = false;
    cfg.llm_action_selection = true; // the third LLM call per step
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingMaskRcnn();
    cfg.lat.actuation = {0.7, 0.3};
    cfg.lat.move_per_cell_s = 0.15;
    cfg.lat.plan_prompt_base = 850;
    cfg.lat.plan_out_tokens = 120;
    cfg.lat.comm_prompt_base = 520;
    cfg.lat.comm_out_tokens = 55;
    cfg.lat.action_select_out_tokens = 28;
    spec.step_budget_factor = 0.5;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
