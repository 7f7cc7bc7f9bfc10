// Chrome trace_event exporter: renders a Tracer snapshot as the JSON
// object format understood by chrome://tracing and Perfetto.
//
// Mapping: pid = shard + 1 (pid 0 is the service level, so shard=-1
// events — retry re-submissions — get their own lane), tid = the
// recording thread's registration index, span types become "X"
// complete events with {ts, dur}, instants become "i" with
// thread scope. Query id, ATC and the per-type payload ride in args.

#ifndef QSYS_OBS_TRACE_EXPORT_H_
#define QSYS_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/trace.h"

namespace qsys {

/// Renders `events` (a Tracer::Snapshot) as a Chrome trace JSON string.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

/// Writes ChromeTraceJson(events) to `path`.
Status WriteChromeTrace(const std::vector<TraceEvent>& events,
                        const std::string& path);

}  // namespace qsys

#endif  // QSYS_OBS_TRACE_EXPORT_H_
