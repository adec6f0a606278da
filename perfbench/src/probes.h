// Layer-isolated probes of the traced run: contention on the allocator and
// result-writer hot paths at 1 and N threads, and the naive-join floor and
// memory-copy ceiling every analytic latency is compared against.

#ifndef APUJOIN_PERFBENCH_PROBES_H_
#define APUJOIN_PERFBENCH_PROBES_H_

#include <cstdint>

#include "data/relation.h"

namespace perfbench {

/// Nanoseconds per BlockAllocator::Allocate(1) call, median of several
/// repetitions, with `threads` threads each allocating from its own,
/// adjacent work-group slot (0, 1, 2, ...).
double AllocateNsPerCall(int threads);

/// Nanoseconds per ResultWriter::Emit call under the same setup.
double EmitNsPerCall(int threads);

/// Milliseconds for join::ReferenceMatchCount(build, probe) on one thread
/// (median of three). `matches` receives the count.
double FloorMs(const apujoin::data::Relation& build,
               const apujoin::data::Relation& probe, uint64_t* matches);

/// In-process memcpy bandwidth in GB/s (bytes copied per second) over a
/// buffer of max(`bytes`, 64 MiB), median of five copies.
double CopyGbps(uint64_t bytes);

}  // namespace perfbench

#endif  // APUJOIN_PERFBENCH_PROBES_H_
