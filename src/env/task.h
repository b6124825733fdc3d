#ifndef EBS_ENV_TASK_H
#define EBS_ENV_TASK_H

#include <functional>
#include <string>
#include <utility>

namespace ebs::env {

class World;

/** Task difficulty tiers used throughout the paper's sweeps. */
enum class Difficulty
{
    Easy,
    Medium,
    Hard,
};

/** Display name ("easy"/"medium"/"hard"). */
const char *difficultyName(Difficulty d);

/**
 * A long-horizon task over a world: a progress functional (0..1) and a
 * step budget (the paper's L_max cap). Every domain states its goal this
 * way ("fraction of boxes delivered", "fraction of dishes served").
 */
class Task
{
  public:
    using Progress = std::function<double(const World &)>;

    Task() = default;

    Task(std::string description, int max_steps, Progress progress)
        : description_(std::move(description)), max_steps_(max_steps),
          progress_(std::move(progress))
    {
    }

    /** Natural-language task description, used in prompts. */
    const std::string &description() const { return description_; }

    /** True when the goal is fully satisfied (progress reached 1). */
    bool
    satisfied(const World &world) const
    {
        return progress(world) >= 1.0 - 1e-9;
    }

    /** Fraction of the goal achieved, in [0, 1]. */
    double progress(const World &world) const { return progress_(world); }

    /** Step budget; exceeding it fails the episode (L_max). */
    int maxSteps() const { return max_steps_; }

  private:
    std::string description_;
    int max_steps_ = 0;
    Progress progress_;
};

} // namespace ebs::env

#endif // EBS_ENV_TASK_H
