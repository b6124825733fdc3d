#ifndef EBS_CORE_MESSAGE_H
#define EBS_CORE_MESSAGE_H

#include <vector>

#include "memory/memory.h"

namespace ebs::core {

/**
 * One inter-agent message. Content is abstracted to its information
 * value: shared object beliefs and a token size (which is what the
 * latency/prompt models consume).
 */
struct Message
{
    int from_agent = -1;
    int tokens = 0;
    bool useful = false; ///< carries task-relevant information

    /** Object sightings the sender shares. */
    std::vector<memory::ObservationRecord> shared_beliefs;
};

} // namespace ebs::core

#endif // EBS_CORE_MESSAGE_H
