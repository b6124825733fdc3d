/**
 * @file
 * Reproduces paper Table I: the categorization of recent embodied AI agent
 * systems into four paradigms with their computing-module compositions.
 * The 14 systems of the executable workload suite are printed from their
 * live configurations; the remaining systems of Table I are catalogued as
 * static rows (they are categorization data, not executable workloads).
 */

#include "stats/table.h"
#include "suite.h"
#include "workloads/workload.h"

namespace {

/** Static rows of Table I that are outside the executable suite. */
struct CatalogRow
{
    const char *paradigm;
    const char *name;
    const char *sense, *plan, *comm, *mem, *refl, *exec;
    const char *type;
};

const CatalogRow kCatalog[] = {
    {"Single/Modularized", "Mobile-Agent", "y", "y", "-", "-", "y", "y",
     "Device Control (T)"},
    {"Single/Modularized", "AppAgent", "y", "y", "-", "-", "-", "y",
     "Device Control (T)"},
    {"Single/Modularized", "PDDL", "-", "y", "-", "-", "y", "-",
     "Simulation (V)"},
    {"Single/Modularized", "RoboGPT", "y", "y", "-", "-", "-", "y",
     "Simulation (V)"},
    {"Single/Modularized", "VOYAGER", "-", "y", "-", "y", "y", "y",
     "Simulation (V)"},
    {"Single/Modularized", "RILA", "y", "y", "-", "y", "y", "y",
     "Navigation (V)"},
    {"Single/Modularized", "CRADLE", "y", "y", "-", "y", "y", "y",
     "Device Control (T)"},
    {"Single/Modularized", "STEVE", "y", "y", "-", "-", "-", "y",
     "Simulation (V)"},
    {"Single/Modularized", "FILM", "y", "y", "-", "-", "-", "y",
     "Simulation (V)"},
    {"Single/Modularized", "LLM-Planner", "-", "y", "-", "-", "y", "y",
     "Simulation (V)"},
    {"Single/Modularized", "MINEDOJO", "y", "y", "-", "y", "-", "y",
     "Simulation (V)"},
    {"Single/Modularized", "Luban", "y", "y", "-", "y", "y", "y",
     "Simulation (V)"},
    {"Single/Modularized", "MetaGPT", "-", "y", "y", "y", "y", "y",
     "Programming (T)"},
    {"Single/Modularized", "Mobile-Agent-V2", "y", "y", "-", "y", "y", "y",
     "Device Control (T)"},
    {"Single/End-to-End", "RT-2", "", "", "", "", "", "",
     "Robot Control (E), VLA model"},
    {"Single/End-to-End", "RoboVLMs", "", "", "", "", "", "",
     "Robot Control (E), VLA model"},
    {"Single/End-to-End", "GAIA-1", "", "", "", "", "", "",
     "Autonomous Driving (E), world model"},
    {"Single/End-to-End", "3D-VLA", "", "", "", "", "", "",
     "Robot Control (E), 3D VLA model"},
    {"Single/End-to-End", "Octo", "", "", "", "", "", "",
     "Robot Control (E), VLM + policy"},
    {"Single/End-to-End", "Diffusion Policy", "", "", "", "", "", "",
     "Robot Control (E), diffusion policy"},
    {"Multi/Centralized", "LLaMAC", "-", "y", "y", "y", "-", "y",
     "Simulation (V)"},
    {"Multi/Centralized", "ALGPT", "y", "y", "y", "y", "-", "y",
     "Navigation (V)"},
    {"Multi/Centralized", "ReAd", "-", "y", "y", "-", "y", "y",
     "Simulation (V)"},
    {"Multi/Centralized", "Co-NavGPT", "y", "y", "y", "-", "-", "y",
     "Navigation (V)"},
    {"Multi/Decentralized", "AGA", "y", "y", "y", "y", "y", "y",
     "Simulation (V)"},
    {"Multi/Decentralized", "FMA", "-", "y", "y", "y", "y", "y",
     "Programming (T)"},
    {"Multi/Decentralized", "AgentVerse", "-", "y", "y", "-", "-", "y",
     "Simulation (V)"},
    {"Multi/Decentralized", "KoMA", "-", "y", "y", "y", "y", "y",
     "Simulation (V)"},
};

int
run(ebs::bench::SuiteContext &ctx)
{
    using namespace ebs;
    ctx.printf("=== Table I: embodied AI agent systems by paradigm and "
                "module composition ===\n\n");
    ctx.printf("-- Executable workload suite (live configurations) --\n\n");

    stats::Table live({"paradigm", "system", "Sense", "Plan", "Comm", "Mem",
                       "Refl", "Exec", "environment"});
    for (const auto &spec : workloads::suite()) {
        const auto &c = spec.config;
        auto mark = [](bool on) { return on ? "y" : "-"; };
        // Every live system plans: the Plan column is always "y".
        live.addRow({workloads::paradigmName(spec.paradigm), spec.name,
                     mark(c.has_sensing), mark(true),
                     mark(c.has_communication), mark(c.has_memory),
                     mark(c.has_reflection), mark(c.has_execution),
                     spec.env_name});
    }
    ctx.printf("%s\n", live.render().c_str());

    ctx.printf("-- Catalogued systems (Table I rows outside the "
                "suite) --\n\n");
    stats::Table catalog({"paradigm", "system", "Sense", "Plan", "Comm",
                          "Mem", "Refl", "Exec", "embodied type"});
    for (const auto &row : kCatalog)
        catalog.addRow({row.paradigm, row.name, row.sense, row.plan,
                        row.comm, row.mem, row.refl, row.exec, row.type});
    ctx.printf("%s", catalog.render().c_str());
    return 0;
}

} // namespace

EBS_BENCH_SUITE("bench_table1_paradigms",
                "Table I: embodied AI agent systems by paradigm and "
                "module composition",
                run);
