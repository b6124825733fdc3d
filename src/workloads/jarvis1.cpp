#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * JARVIS-1 (Wang et al.): MineCLIP sensing, GPT-4 long-horizon planning,
 * observation/action memory, Llama-13B self-reflection, action-list
 * execution. Evaluated on Minecraft-style crafting chains up to "obtain
 * diamond pickaxe".
 */
WorkloadSpec
makeJarvis1()
{
    WorkloadSpec spec;
    spec.name = "JARVIS-1";
    spec.paradigm = Paradigm::SingleModular;
    spec.sensing_desc = "MineCLIP";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "-";
    spec.memory_desc = "Ob., Act.";
    spec.reflection_desc = "Llama-13B";
    spec.execution_desc = "Action list";
    spec.tasks_desc = "Crafting chains (diamond pickaxe)";
    spec.env_name = "craft";
    spec.default_agents = 1;

    core::AgentConfig cfg;
    cfg.has_communication = false;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = llm::ModelProfile::llama13bLocal();
    // Reflection fine-tuned on Minecraft outcome traces.
    cfg.reflect_model.reflect_quality = 0.80;
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingMineClip();
    cfg.lat.actuation = {0.7, 0.3}; // mining/crafting animations
    cfg.lat.move_per_cell_s = 0.12;
    cfg.lat.plan_prompt_base = 900; // task tree + few-shot plans
    cfg.lat.plan_out_tokens = 110;
    cfg.lat.reflect_out_tokens = 48;
    spec.step_budget_factor = 0.55;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
