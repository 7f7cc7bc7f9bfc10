#include "src/common/metrics.h"

#include <cstdio>

namespace qsys {

void ExecStats::Merge(const ExecStats& other) {
  stream_read_us += other.stream_read_us;
  random_access_us += other.random_access_us;
  join_us += other.join_us;
  optimize_us += other.optimize_us;
  tuples_streamed += other.tuples_streamed;
  probes_issued += other.probes_issued;
  probe_cache_hits += other.probe_cache_hits;
  join_probes += other.join_probes;
  join_outputs += other.join_outputs;
  split_routed += other.split_routed;
  results_emitted += other.results_emitted;
  tuples_rederived += other.tuples_rederived;
  tuples_rederived_skipped += other.tuples_rederived_skipped;
  tuples_shared_served += other.tuples_shared_served;
}

std::string SpillStats::ToString() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "spilled=%lld restored=%lld | pages w=%lld r=%lld | "
           "on-disk=%lld B | io-faults=%lld retry-waits=%lld",
           static_cast<long long>(items_spilled),
           static_cast<long long>(items_restored),
           static_cast<long long>(pages_written),
           static_cast<long long>(pages_read),
           static_cast<long long>(bytes_on_disk),
           static_cast<long long>(spill_faults),
           static_cast<long long>(read_retry_waits));
  return buf;
}

}  // namespace qsys
