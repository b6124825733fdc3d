#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * MP5 (Qin et al.): MineCLIP active perception, GPT-4 situation-aware
 * planning, GPT-4 reflection patroller, MineDojo low-level performer. No
 * persistent memory module. Evaluated on open-ended Minecraft tasks.
 */
WorkloadSpec
makeMp5()
{
    WorkloadSpec spec;
    spec.name = "MP5";
    spec.paradigm = Paradigm::SingleModular;
    spec.sensing_desc = "MineCLIP";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "-";
    spec.memory_desc = "-";
    spec.reflection_desc = "GPT-4";
    spec.execution_desc = "MineDojo";
    spec.tasks_desc = "Process/context-dependent Minecraft tasks";
    spec.env_name = "craft";
    spec.default_agents = 1;

    core::AgentConfig cfg;
    cfg.has_communication = false;
    cfg.has_memory = false;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = llm::ModelProfile::gpt4Api();

    cfg.lat.sensing = sensingMineClip();
    cfg.lat.actuation = {0.8, 0.3};
    cfg.lat.move_per_cell_s = 0.12;
    cfg.lat.plan_prompt_base = 1100; // active-perception descriptions
    cfg.lat.plan_out_tokens = 130;
    cfg.lat.reflect_prompt_base = 420;
    cfg.lat.reflect_out_tokens = 60;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
