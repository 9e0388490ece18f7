// The four workloads. Each runs set-up, a fixed number of timed operations
// and its correctness checks, and fills an Outcome with the end-to-end
// metrics. With `traced`, it also times calls into each layer it loads and
// fills Outcome::layers.
#ifndef SCALEIN_PERFBENCH_WORKLOADS_H_
#define SCALEIN_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

Outcome RunServePoint(const Options& options, bool traced);
Outcome RunServeMixed(const Options& options, bool traced);
Outcome RunBatchFanout(const Options& options, bool traced);
Outcome RunMaintainMix(const Options& options, bool traced);

}  // namespace perfbench

#endif  // SCALEIN_PERFBENCH_WORKLOADS_H_
