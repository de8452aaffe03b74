// The benchmark's three workloads. Each runs the end-to-end phases
// (--trace 0) or the layer-by-layer replay (--trace 1) and reports into
// `report`; a failed output check is reported, never thrown.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

// serve_scan and serve_light: open-loop TOPK traffic over loopback TCP.
void RunServe(const Args& args, Tracer& tracer, Report& report);
// train_lgn: LightGCN + BSL epochs, then one full-ranking evaluation.
void RunTrain(const Args& args, Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
