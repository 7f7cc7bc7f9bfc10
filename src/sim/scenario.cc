#include "src/sim/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace qsys::sim {

namespace {

/// Minimal xorshift-style generator: GenerateScenario must produce the
/// same scenario for a seed on every platform, so it avoids both
/// std::uniform_int_distribution (implementation-defined) and the
/// stdlib engines' parameter soup. splitmix64, the canonical seed
/// expander.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform-enough value in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

  /// True with probability pct/100.
  bool Percent(int pct) { return Below(100) < static_cast<uint64_t>(pct); }

 private:
  uint64_t state_;
};

void AppendIntList(std::string* out, const std::vector<int>& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(v[i]);
  }
}

Result<std::vector<int>> ParseIntList(const std::string& text) {
  std::vector<int> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) return Status::InvalidArgument("empty list item");
    char* end = nullptr;
    long v = std::strtol(item.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad integer in list: " + item);
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

/// Extracts the value of "key=" from a whitespace-split token list.
Result<std::string> TokenValue(const std::vector<std::string>& tokens,
                               const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& t : tokens) {
    if (t.rfind(prefix, 0) == 0) return t.substr(prefix.size());
  }
  return Status::InvalidArgument("scenario string missing " + key + "=");
}

}  // namespace

std::string Scenario::ToString() const {
  std::string out = "sim1";
  out += " wseed=" + std::to_string(workload_seed);
  out += " wn=" + std::to_string(workload_size);
  out += " order=";
  AppendIntList(&out, order);
  out += " waves=";
  AppendIntList(&out, waves);
  out += " shards=" + std::to_string(shards);
  out += " threads=" + std::to_string(exec_threads);
  out += " spill=" + std::to_string(spill ? 1 : 0);
  out += " budget=" + std::to_string(budget_bytes);
  out += " drop=" + std::to_string(drop_to_bytes) + "@" +
         std::to_string(drop_after_wave);
  if (fault != Fault::kNone) {
    out += " fault=";
    out += fault == Fault::kCrash ? "crash" : "stall";
    out += "@" + std::to_string(fault_shard) + ":" +
           std::to_string(fault_seq);
  }
  return out;
}

Result<Scenario> Scenario::Parse(const std::string& text) {
  std::vector<std::string> tokens;
  std::stringstream ss(text);
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  if (tokens.empty() || tokens[0] != "sim1") {
    return Status::InvalidArgument(
        "scenario string must start with \"sim1\"");
  }
  Scenario s;
  QSYS_ASSIGN_OR_RETURN(std::string wseed, TokenValue(tokens, "wseed"));
  s.workload_seed = std::strtoull(wseed.c_str(), nullptr, 10);
  QSYS_ASSIGN_OR_RETURN(std::string wn, TokenValue(tokens, "wn"));
  s.workload_size = std::atoi(wn.c_str());
  QSYS_ASSIGN_OR_RETURN(std::string order, TokenValue(tokens, "order"));
  QSYS_ASSIGN_OR_RETURN(s.order, ParseIntList(order));
  QSYS_ASSIGN_OR_RETURN(std::string waves, TokenValue(tokens, "waves"));
  QSYS_ASSIGN_OR_RETURN(s.waves, ParseIntList(waves));
  QSYS_ASSIGN_OR_RETURN(std::string shards, TokenValue(tokens, "shards"));
  s.shards = std::atoi(shards.c_str());
  QSYS_ASSIGN_OR_RETURN(std::string thr, TokenValue(tokens, "threads"));
  s.exec_threads = std::atoi(thr.c_str());
  QSYS_ASSIGN_OR_RETURN(std::string spill, TokenValue(tokens, "spill"));
  s.spill = spill == "1";
  // A place= token, left in reproducer strings minted while shards
  // could own partitions of the data, is ignored: every shard now
  // serves the one shared dataset.
  QSYS_ASSIGN_OR_RETURN(std::string budget, TokenValue(tokens, "budget"));
  s.budget_bytes = std::strtoll(budget.c_str(), nullptr, 10);
  QSYS_ASSIGN_OR_RETURN(std::string drop, TokenValue(tokens, "drop"));
  size_t at = drop.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument("drop= must be <bytes>@<wave>");
  }
  s.drop_to_bytes = std::strtoll(drop.substr(0, at).c_str(), nullptr, 10);
  s.drop_after_wave = std::atoi(drop.substr(at + 1).c_str());
  // fault= is optional: reproducer strings minted before fault
  // injection existed parse as fault-free.
  auto fault = TokenValue(tokens, "fault");
  if (fault.ok()) {
    const std::string& f = fault.value();
    const size_t fat = f.find('@');
    const size_t colon = f.find(':', fat == std::string::npos ? 0 : fat);
    if (fat == std::string::npos || colon == std::string::npos) {
      return Status::InvalidArgument(
          "fault= must be crash|stall@<shard>:<seq>");
    }
    const std::string kind = f.substr(0, fat);
    if (kind == "crash") {
      s.fault = Fault::kCrash;
    } else if (kind == "stall") {
      s.fault = Fault::kStall;
    } else {
      return Status::InvalidArgument("fault kind must be crash or stall");
    }
    s.fault_shard = std::atoi(f.substr(fat + 1, colon - fat - 1).c_str());
    s.fault_seq = std::strtoll(f.substr(colon + 1).c_str(), nullptr, 10);
  }

  // Consistency: waves partition the order, every index addresses the
  // workload, knobs are in range.
  int wave_sum = 0;
  for (int w : s.waves) {
    if (w <= 0) return Status::InvalidArgument("wave sizes must be > 0");
    wave_sum += w;
  }
  if (wave_sum != s.NumQueries()) {
    return Status::InvalidArgument("waves must sum to order length");
  }
  for (int idx : s.order) {
    if (idx < 0 || idx >= s.workload_size) {
      return Status::InvalidArgument("order index out of workload range");
    }
  }
  if (s.shards < 1 || s.exec_threads < 1 || s.workload_size < 1) {
    return Status::InvalidArgument("shards/threads/wn must be >= 1");
  }
  if (s.drop_after_wave >= static_cast<int>(s.waves.size())) {
    return Status::InvalidArgument("drop wave out of range");
  }
  if (s.fault != Fault::kNone &&
      (s.fault_shard < 0 || s.fault_shard >= s.shards || s.fault_seq < 0)) {
    return Status::InvalidArgument("fault shard/seq out of range");
  }
  return s;
}

std::string Scenario::ShapeKey() const {
  std::string key = "q" + std::to_string(NumQueries());
  key += "/w" + std::to_string(waves.size());
  key += "/s" + std::to_string(shards);
  key += "/t" + std::to_string(exec_threads);
  key += spill ? "/spill" : "/nospill";
  key += budget_bytes == 0 ? "/unlim"
         : budget_bytes >= (128 << 10) ? "/roomy"
                                       : "/tight";
  if (drop_after_wave >= 0) key += "/drop";
  if (fault == Fault::kCrash) key += "/crash";
  if (fault == Fault::kStall) key += "/stall";
  // Repeats are what drive warm re-grafts — surface them in coverage.
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  bool repeats = std::adjacent_find(sorted.begin(), sorted.end()) !=
                 sorted.end();
  if (repeats) key += "/repeat";
  return key;
}

Scenario GenerateScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  static const uint64_t kWorkloadSeeds[] = {5, 7, 11, 23};
  s.workload_seed = kWorkloadSeeds[rng.Below(4)];
  s.workload_size = 4 + static_cast<int>(rng.Below(7));  // 4..10

  // Subset + permutation of the workload (Fisher–Yates with our rng).
  std::vector<int> perm(static_cast<size_t>(s.workload_size));
  for (int i = 0; i < s.workload_size; ++i) {
    perm[static_cast<size_t>(i)] = i;
  }
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  const size_t subset = 2 + rng.Below(static_cast<uint64_t>(
                                s.workload_size - 1));  // 2..wn
  s.order.assign(perm.begin(), perm.begin() + static_cast<long>(subset));

  // Often append a warm repeat of a prefix (or all) of the order: the
  // repeat-a-wave shape is where retained-state bugs live ("sequence
  // metabolism" was exactly this).
  if (rng.Percent(45)) {
    const size_t repeat = 1 + rng.Below(s.order.size());
    s.order.insert(s.order.end(), s.order.begin(),
                   s.order.begin() + static_cast<long>(repeat));
  }

  // Split the order into 1..3 waves.
  const int n = s.NumQueries();
  int num_waves = 1 + static_cast<int>(rng.Below(3));
  if (num_waves > n) num_waves = n;
  std::vector<int> cuts;  // wave boundaries, strictly inside (0, n)
  while (static_cast<int>(cuts.size()) < num_waves - 1) {
    int cut = 1 + static_cast<int>(rng.Below(static_cast<uint64_t>(n - 1)));
    bool dup = false;
    for (int c : cuts) dup = dup || c == cut;
    if (!dup) cuts.push_back(cut);
  }
  std::sort(cuts.begin(), cuts.end());
  int prev = 0;
  for (int cut : cuts) {
    s.waves.push_back(cut - prev);
    prev = cut;
  }
  s.waves.push_back(n - prev);

  s.shards = 1 + static_cast<int>(rng.Below(3));       // {1,2,3}
  static const int kThreads[] = {1, 2, 4};
  s.exec_threads = kThreads[rng.Below(3)];
  s.spill = rng.Percent(60);
  static const int64_t kBudgets[] = {0, 256 << 10, 64 << 10};
  s.budget_bytes = kBudgets[rng.Below(3)];

  // Sometimes drop the budget mid-run (only meaningful with >= 2 waves
  // and a finite starting budget-or-unlimited start).
  if (s.waves.size() >= 2 && rng.Percent(30)) {
    s.drop_after_wave =
        static_cast<int>(rng.Below(s.waves.size() - 1));  // not last
    s.drop_to_bytes = (s.budget_bytes == 0 ? (64 << 10) : s.budget_bytes) / 2;
  }
  return s;
}

Scenario GenerateFaultScenario(uint64_t seed) {
  // The base shape comes from GenerateScenario unchanged; the fault
  // draws use a SEPARATE rng stream so the shape for a given seed is
  // bit-identical with and without faults — a fault-sweep failure
  // reproduces its fault-free twin by just dropping the fault= key.
  Scenario s = GenerateScenario(seed);
  Rng rng(seed ^ 0xfa1762d0c9b5a3e1ull);
  s.fault = rng.Percent(50) ? Scenario::Fault::kCrash
                            : Scenario::Fault::kStall;
  s.fault_shard = static_cast<int>(rng.Below(static_cast<uint64_t>(s.shards)));
  // Epoch-drive sequence numbers start at 1; small values hit the fault
  // while work is in flight, larger ones after the first waves settle.
  s.fault_seq = 1 + static_cast<int64_t>(rng.Below(12));
  return s;
}

}  // namespace qsys::sim
