#include "env/spec.h"

#include <algorithm>

namespace ebs::env::spec {

void
AccessLog::finalize()
{
    std::sort(reads_.begin(), reads_.end());
    reads_.erase(std::unique(reads_.begin(), reads_.end()), reads_.end());
    std::sort(writes_.begin(), writes_.end());
    writes_.erase(std::unique(writes_.begin(), writes_.end()),
                  writes_.end());
}

void
AccessLog::reset()
{
    reads_.clear();
    writes_.clear();
    aborted_ = false;
    abort_reason_ = "";
}

bool
conflicts(const std::vector<AccessKey> &reads,
          const std::vector<AccessKey> &writes)
{
    if (reads.empty() || writes.empty())
        return false;
    // A whole-table scan read is invalidated by any object write. Object
    // keys have kind 00, so they sort first; AllObjects sorts last.
    if (reads.back() == allObjectsKey() && !writes.empty() &&
        keyKind(writes.front()) == kKindObject)
        return true;
    auto r = reads.begin();
    auto w = writes.begin();
    while (r != reads.end() && w != writes.end()) {
        if (*r < *w)
            ++r;
        else if (*w < *r)
            ++w;
        else
            return true;
    }
    return false;
}

void
mergeKeys(std::vector<AccessKey> &into, const std::vector<AccessKey> &extra)
{
    if (extra.empty())
        return;
    std::size_t const old = into.size();
    into.insert(into.end(), extra.begin(), extra.end());
    std::inplace_merge(into.begin(),
                       into.begin() + static_cast<std::ptrdiff_t>(old),
                       into.end());
    into.erase(std::unique(into.begin(), into.end()), into.end());
}

} // namespace ebs::env::spec
