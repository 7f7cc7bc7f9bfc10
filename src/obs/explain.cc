#include "src/obs/explain.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace qsys {

namespace {

/// Rendering schema for one DecisionKind: which operand slots are
/// populated and the deterministic field names they render under (in
/// both the text and JSON forms). A null name omits the slot.
struct KindSpec {
  const char* name;
  const char* a;
  const char* b;
  const char* c;
  const char* x;
  const char* y;
  const char* label;
};

const KindSpec& SpecFor(DecisionKind k) {
  // Indexed by the enum's integer value; keep in sync with explain.h.
  static const KindSpec kSpecs[] = {
      /*kAtcAssign*/ {"atc_assign", "atc", nullptr, nullptr, nullptr, nullptr,
                      "mode"},
      /*kClusterRoute*/
      {"cluster_route", "joined", "atc", nullptr, "best_sim", "threshold",
       nullptr},
      /*kOptChoice*/
      {"opt_choice", "candidates", "nodes", "alternatives", "cost", "margin",
       nullptr},
      /*kOptAlternative*/
      {"opt_alt", "rank", "pushdowns", nullptr, "cost", nullptr, "plan"},
      /*kGraftComponent*/
      {"graft_component", "reused", "warmed", nullptr, nullptr, nullptr,
       "expr"},
      /*kReplay*/
      {"replay", "tuples", "est_cost_us", nullptr, nullptr, nullptr, nullptr},
      /*kWatermarkSkip*/
      {"watermark_skip", "tuples", "est_saved_us", nullptr, nullptr, nullptr,
       nullptr},
      /*kSharedInherit*/
      {"shared_inherit", "producer_uq", "tuples", "est_saved_us", nullptr,
       nullptr, "expr"},
      /*kRecovery*/
      {"recovery", "cq", "frozen_inputs", nullptr, nullptr, nullptr, nullptr},
      /*kEvictPass*/
      {"evict_pass", "victims", "over_budget_bytes", nullptr, nullptr, nullptr,
       nullptr},
      /*kEvictVictim*/
      {"evict_victim", "size_bytes", "spilled", nullptr, "spill_read_us",
       "recompute_us", "key"},
      /*kSpillRestore*/
      {"spill_restore", "entries", "bytes", nullptr, nullptr, nullptr, "key"},
  };
  return kSpecs[static_cast<int>(k)];
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

void AppendJsonString(std::string* out, const char* s) {
  *out += '"';
  for (const char* p = s; *p != '\0'; ++p) {
    char c = *p;
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

void AppendEventText(std::string* out, const DecisionEvent& e) {
  const KindSpec& spec = SpecFor(e.kind);
  *out += "  ";
  *out += spec.name;
  if (spec.a != nullptr) {
    *out += ' ';
    *out += spec.a;
    *out += '=';
    AppendInt(out, e.a);
  }
  if (spec.b != nullptr) {
    *out += ' ';
    *out += spec.b;
    *out += '=';
    AppendInt(out, e.b);
  }
  if (spec.c != nullptr) {
    *out += ' ';
    *out += spec.c;
    *out += '=';
    AppendInt(out, e.c);
  }
  if (spec.x != nullptr) {
    *out += ' ';
    *out += spec.x;
    *out += '=';
    AppendDouble(out, e.x);
  }
  if (spec.y != nullptr) {
    *out += ' ';
    *out += spec.y;
    *out += '=';
    AppendDouble(out, e.y);
  }
  if (spec.label != nullptr) {
    *out += ' ';
    *out += spec.label;
    *out += '=';
    *out += e.label;
  }
  *out += '\n';
}

void AppendEventJson(std::string* out, const DecisionEvent& e) {
  const KindSpec& spec = SpecFor(e.kind);
  *out += "{\"kind\":";
  AppendJsonString(out, spec.name);
  if (spec.a != nullptr) {
    *out += ",\"";
    *out += spec.a;
    *out += "\":";
    AppendInt(out, e.a);
  }
  if (spec.b != nullptr) {
    *out += ",\"";
    *out += spec.b;
    *out += "\":";
    AppendInt(out, e.b);
  }
  if (spec.c != nullptr) {
    *out += ",\"";
    *out += spec.c;
    *out += "\":";
    AppendInt(out, e.c);
  }
  if (spec.x != nullptr) {
    *out += ",\"";
    *out += spec.x;
    *out += "\":";
    AppendDouble(out, e.x);
  }
  if (spec.y != nullptr) {
    *out += ",\"";
    *out += spec.y;
    *out += "\":";
    AppendDouble(out, e.y);
  }
  if (spec.label != nullptr) {
    *out += ",\"";
    *out += spec.label;
    *out += "\":";
    AppendJsonString(out, e.label);
  }
  *out += '}';
}

}  // namespace

const char* DecisionKindName(DecisionKind k) { return SpecFor(k).name; }

DecisionJournal::DecisionJournal(int retained_queries)
    : retained_queries_(retained_queries > 0 ? retained_queries : 1) {}

void DecisionJournal::Record(int uq_id, DecisionKind kind, int shard,
                             int64_t a, int64_t b, int64_t c, double x,
                             double y, const char* label) {
  DecisionEvent e;
  e.kind = kind;
  e.shard = shard;
  e.a = a;
  e.b = b;
  e.c = c;
  e.x = x;
  e.y = y;
  if (label != nullptr) {
    strncpy(e.label, label, sizeof(e.label) - 1);
    e.label[sizeof(e.label) - 1] = '\0';
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (uq_id < 0) {
    e.seq = engine_seq_by_shard_[shard]++;
    if (static_cast<int>(engine_events_.size()) >= kEventsPerQuery) {
      engine_events_.pop_front();
      ++engine_dropped_;
    }
    engine_events_.push_back(e);
    return;
  }
  PerUq& p = per_uq_[uq_id];
  e.seq = p.seq_by_shard[shard]++;
  if (static_cast<int>(p.events.size()) >= kEventsPerQuery) {
    ++p.dropped;
    return;
  }
  p.events.push_back(e);
}

void DecisionJournal::Credit(int consumer_uq, int producer_uq, int shard,
                             int64_t tuples, VirtualTime est_saved_us) {
  (void)shard;
  std::lock_guard<std::mutex> lock(mu_);
  PerUq& p = per_uq_[consumer_uq];
  Benefit& b = p.by_producer[producer_uq];
  b.tuples += tuples;
  b.est_saved_us += est_saved_us;
  p.total.tuples += tuples;
  p.total.est_saved_us += est_saved_us;
}

void DecisionJournal::MarkResolved(int uq_id) {
  std::lock_guard<std::mutex> lock(mu_);
  PerUq& p = per_uq_[uq_id];
  if (p.resolved) return;
  p.resolved = true;
  resolved_fifo_.push_back(uq_id);
  while (static_cast<int>(resolved_fifo_.size()) > retained_queries_) {
    per_uq_.erase(resolved_fifo_.front());
    resolved_fifo_.pop_front();
  }
}

bool DecisionJournal::Resolved(int uq_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_uq_.find(uq_id);
  return it != per_uq_.end() && it->second.resolved;
}

std::vector<const DecisionEvent*> DecisionJournal::OrderedLocked(
    const PerUq& p) {
  std::vector<const DecisionEvent*> out;
  out.reserve(p.events.size());
  for (const DecisionEvent& e : p.events) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(),
                   [](const DecisionEvent* l, const DecisionEvent* r) {
                     if (l->shard != r->shard) return l->shard < r->shard;
                     return l->seq < r->seq;
                   });
  return out;
}

std::string DecisionJournal::RenderText(int uq_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_uq_.find(uq_id);
  if (it == per_uq_.end()) return "";
  const PerUq& p = it->second;
  std::string out = "explain uq=";
  AppendInt(&out, uq_id);
  out += '\n';
  for (const DecisionEvent* e : OrderedLocked(p)) AppendEventText(&out, *e);
  if (p.dropped > 0) {
    out += "  truncated dropped=";
    AppendInt(&out, p.dropped);
    out += '\n';
  }
  out += "sharing_benefit tuples_from_shared=";
  AppendInt(&out, p.total.tuples);
  out += " est_saved_us=";
  AppendInt(&out, p.total.est_saved_us);
  out += " producers=[";
  bool first = true;
  for (const auto& [producer, benefit] : p.by_producer) {
    if (!first) out += ' ';
    first = false;
    AppendInt(&out, producer);
    out += ':';
    AppendInt(&out, benefit.tuples);
    out += ':';
    AppendInt(&out, benefit.est_saved_us);
  }
  out += "]\n";
  return out;
}

std::string DecisionJournal::RenderJson(int uq_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_uq_.find(uq_id);
  if (it == per_uq_.end()) return "";
  const PerUq& p = it->second;
  std::string out = "{\"uq\":";
  AppendInt(&out, uq_id);
  out += ",\"events\":[";
  bool first = true;
  for (const DecisionEvent* e : OrderedLocked(p)) {
    if (!first) out += ',';
    first = false;
    AppendEventJson(&out, *e);
  }
  out += "],\"dropped\":";
  AppendInt(&out, p.dropped);
  out += ",\"sharing_benefit\":{\"tuples_from_shared\":";
  AppendInt(&out, p.total.tuples);
  out += ",\"est_saved_us\":";
  AppendInt(&out, p.total.est_saved_us);
  out += ",\"producers\":[";
  first = true;
  for (const auto& [producer, benefit] : p.by_producer) {
    if (!first) out += ',';
    first = false;
    out += "{\"uq\":";
    AppendInt(&out, producer);
    out += ",\"tuples\":";
    AppendInt(&out, benefit.tuples);
    out += ",\"est_saved_us\":";
    AppendInt(&out, benefit.est_saved_us);
    out += '}';
  }
  out += "]}}";
  return out;
}

std::string DecisionJournal::RenderEngineText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "explain engine\n";
  // Engine events render in arrival order with an explicit shard tag:
  // eviction pressure is a timeline, not a per-query story, and shard
  // interleaving here carries no determinism contract.
  for (const DecisionEvent& e : engine_events_) {
    out += "  shard=";
    AppendInt(&out, e.shard);
    // AppendEventText prefixes two spaces of its own; fold them in.
    std::string line;
    AppendEventText(&line, e);
    out += ' ';
    out += line.c_str() + 2;
  }
  if (engine_dropped_ > 0) {
    out += "  truncated dropped=";
    AppendInt(&out, engine_dropped_);
    out += '\n';
  }
  return out;
}

}  // namespace qsys
