#ifndef FAIRRANK_PERFBENCH_WORKLOADS_H_
#define FAIRRANK_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each makes its inputs from RunConfig::seed,
// times its operations, checks their outputs, and records everything in
// an Outcome. With a null recorder the run is untraced and fills the
// end-to-end fields; with a recorder it runs the operations once untraced
// and once in traced steps, and fills Outcome::layer. A non-OK status
// means the run could not be carried out at all (no result is printed).

#include "common/status.h"
#include "measure.h"
#include "spans.h"

namespace perfbench {

fairrank::Status RunTable2Grid(const RunConfig& config, SpanRecorder* recorder,
                               Outcome* outcome);
fairrank::Status RunBiasedCsv(const RunConfig& config, SpanRecorder* recorder,
                              Outcome* outcome);
fairrank::Status RunExhaustive(const RunConfig& config, SpanRecorder* recorder,
                               Outcome* outcome);
fairrank::Status RunHttpAudit(const RunConfig& config, SpanRecorder* recorder,
                              Outcome* outcome);

}  // namespace perfbench

#endif  // FAIRRANK_PERFBENCH_WORKLOADS_H_
