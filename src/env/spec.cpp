#include "env/spec.h"

namespace ebs::env::spec {

void
AccessLog::cover(std::size_t objects, std::size_t agents, int width,
                 int height)
{
    // New slots start at 0, which is stale in every phase.
    if (objects > objects_.size())
        objects_.resize(objects, 0);
    if (agents > agents_.size())
        agents_.resize(agents, 0);
    if (width != width_ || height != height_) {
        width_ = width;
        height_ = height;
        cells_.assign(static_cast<std::size_t>(width) *
                          static_cast<std::size_t>(height),
                      0);
        written_cells_.clear();
    }
}

} // namespace ebs::env::spec
