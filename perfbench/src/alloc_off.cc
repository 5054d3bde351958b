#include "alloc.h"

namespace fgro::perfbench {

bool AllocCountingAvailable() { return false; }
void SetAllocCounting(bool) {}
AllocCounts ReadAllocCounts() { return {}; }

}  // namespace fgro::perfbench
