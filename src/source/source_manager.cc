#include "src/source/source_manager.h"

#include "src/source/pushdown.h"

namespace qsys {

namespace {
std::string TaggedKey(int tag, const std::string& sig) {
  return std::to_string(tag) + "/" + sig;
}
}  // namespace

StreamingSource* SourceManager::GetOrCreateStream(const Expr& expr,
                                                  int tag) {
  std::string key = TaggedKey(tag, expr.Signature());
  auto it = streams_.find(key);
  if (it != streams_.end()) return it->second.get();
  auto stream = std::make_unique<MaterializedStream>(
      expr, ExprMaxSum(expr, *catalog_));
  stream->set_id(next_stream_id_++);
  StreamingSource* raw = stream.get();
  streams_.emplace(std::move(key), std::move(stream));
  return raw;
}

StreamingSource* SourceManager::FindStream(const Expr& expr, int tag) const {
  auto it = streams_.find(TaggedKey(tag, expr.Signature()));
  return it == streams_.end() ? nullptr : it->second.get();
}

ProbeSource* SourceManager::GetOrCreateProbe(const Atom& atom,
                                             int key_column, int tag) {
  std::string key = TaggedKey(
      tag, "P" + std::to_string(atom.table) + "." +
               std::to_string(atom.occurrence) + "." +
               std::to_string(SelectionDigest(atom.selections)) + "@" +
               std::to_string(key_column));
  auto it = probe_index_.find(key);
  if (it != probe_index_.end()) return probes_[it->second].get();
  auto probe = std::make_unique<ProbeSource>(atom, key_column, *catalog_);
  probe->set_id(static_cast<int>(probes_.size()));
  probe_index_[key] = probe->id();
  probes_.push_back(std::move(probe));
  return probes_.back().get();
}

}  // namespace qsys
