// Registry of live sources, keyed by canonical expression.
//
// Streams are shared: every conjunctive query that consumes an input
// expression J reads from the *same* cursor (fan-out happens in the plan
// graph). Probe sources and their caches are likewise shared across
// queries and across time, which is what makes the paper's "rate of
// probing decreases over time" observation hold.

#ifndef QSYS_SOURCE_SOURCE_MANAGER_H_
#define QSYS_SOURCE_SOURCE_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/source/probe_source.h"
#include "src/source/table_stream.h"

namespace qsys {

/// \brief Owns all StreamingSource and ProbeSource instances; hands out
/// shared pointers keyed by canonical signatures.
///
/// The `tag` parameter scopes sharing: the baseline configurations of the
/// paper's evaluation disable sharing across conjunctive queries (ATC-CQ)
/// or across user queries (ATC-UQ) — the system then keys each scope's
/// sources under a distinct tag so their cursors and caches are private.
/// Full sharing uses a single tag.
class SourceManager {
 public:
  explicit SourceManager(const Catalog* catalog) : catalog_(catalog) {}
  SourceManager(const SourceManager&) = delete;
  SourceManager& operator=(const SourceManager&) = delete;

  /// Shared stream computing `expr` within sharing scope `tag` (created
  /// on first request).
  StreamingSource* GetOrCreateStream(const Expr& expr, int tag = 0);

  /// Stream for `expr` if one already exists (nullptr otherwise); used by
  /// the optimizer to cost reuse without instantiating anything.
  StreamingSource* FindStream(const Expr& expr, int tag = 0) const;

  /// Shared probe source for `atom` keyed through `key_column`.
  ProbeSource* GetOrCreateProbe(const Atom& atom, int key_column,
                                int tag = 0);

  const std::unordered_map<std::string,
                           std::unique_ptr<StreamingSource>>&
  streams() const {
    return streams_;
  }
  const std::vector<std::unique_ptr<ProbeSource>>& probes() const {
    return probes_;
  }

 private:
  const Catalog* catalog_;
  std::unordered_map<std::string, std::unique_ptr<StreamingSource>> streams_;
  std::vector<std::unique_ptr<ProbeSource>> probes_;
  std::unordered_map<std::string, int> probe_index_;
  int next_stream_id_ = 0;
};

}  // namespace qsys

#endif  // QSYS_SOURCE_SOURCE_MANAGER_H_
