#ifndef FGRO_PERFBENCH_ALLOC_H_
#define FGRO_PERFBENCH_ALLOC_H_

#include <cstdint>

namespace fgro::perfbench {

/// Process-wide allocation tally (every thread). Only the traced binary
/// replaces the global operator new/delete (alloc_count.cc); the timed
/// binary links alloc_off.cc, whose counts stay zero, so allocation
/// counting can never slow an end-to-end measurement.
struct AllocCounts {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// True in the traced binary.
bool AllocCountingAvailable();

/// Counting starts off; the traced phases switch it on around the work
/// they attribute.
void SetAllocCounting(bool on);

AllocCounts ReadAllocCounts();

}  // namespace fgro::perfbench

#endif  // FGRO_PERFBENCH_ALLOC_H_
