// Process-wide heap accounting for the benchmark binary.
//
// heap_counter.cc replaces the global operator new/delete family, so
// every C++ allocation in the process (the library's and the benchmark's)
// is counted. Live bytes are malloc_usable_size() of each block, which
// is what the allocator actually holds for it.
#pragma once

#include <cstdint>

namespace perfbench {

struct HeapSnapshot {
  std::int64_t allocs = 0;      // operator new calls since start
  std::int64_t live_bytes = 0;  // bytes currently held
  std::int64_t peak_bytes = 0;  // high-water mark of live_bytes
};

HeapSnapshot Heap();

// Restarts the high-water mark at the current live bytes.
void ResetHeapPeak();

}  // namespace perfbench
