#include "src/sim/runner.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "src/exec/rank_merge_op.h"
#include "src/serve/query_service.h"
#include "src/shard/fault_injection.h"
#include "src/workload/bio_terms.h"
#include "src/workload/gus.h"
#include "src/workload/runner.h"

namespace qsys::sim {

namespace {

/// The fixed dataset every scenario runs over: the same GUS shape the
/// serving equivalence suite uses, so harness failures reproduce
/// directly in unit tests.
Status BuildSimDataset(Engine& e) {
  GusOptions gus;
  gus.num_relations = 80;
  gus.min_rows = 60;
  gus.max_rows = 180;
  gus.seed = 3;
  return BuildGusDataset(e, gus);
}

QConfig SimConfig() {
  QConfig config;
  config.k = 50;
  config.batch_size = 5;
  config.batch_window_us = 20'000;
  config.max_rounds = 200'000'000;
  // Several independent ATCs per engine — the sharing mode warm grafts
  // and intra-shard parallelism both exercise.
  config.sharing = SharingConfig::kAtcCl;
  return config;
}

std::vector<std::string> WorkloadQueries(uint64_t seed, int n) {
  WorkloadOptions wopts;
  wopts.num_queries = n;
  wopts.seed = seed;
  std::vector<std::string> queries;
  for (const WorkloadQuery& q :
       GenerateBioWorkload(BioVocabulary(), wopts)) {
    queries.push_back(q.keywords);
  }
  return queries;
}

/// Pump bound per wave: generous — a wave that has not resolved after
/// this many pump+sleep iterations is hung, and the harness reports it
/// instead of spinning forever.
constexpr int kMaxPumpSpins = 10'000;

/// Extracts the value of an unlabeled `qsys_<name>_total <v>` sample
/// from a Prometheus exposition. Returns -1 when absent.
int64_t PromCounter(const std::string& text, const std::string& name) {
  const std::string needle = "\nqsys_" + name + "_total ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
}

/// Cross-checks the fault-tolerance counters in ServiceCounters against
/// their Prometheus qsys_*_total families, and the resolution
/// conservation law. Returns "" when consistent.
std::string CheckCounterConservation(const QueryService& service) {
  const ServiceCounters& c = service.counters();
  const auto v = [](const std::atomic<int64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  // Every accepted query resolves terminally exactly once: completed,
  // cancelled, past-deadline, or failed. A leak here is a hang or a
  // double-resolution.
  const int64_t resolved = v(c.completed) + v(c.cancelled) +
                           v(c.deadline_exceeded) + v(c.failed);
  if (v(c.submitted) != resolved) {
    return "submitted=" + std::to_string(v(c.submitted)) +
           " != completed+cancelled+deadline_exceeded+failed=" +
           std::to_string(resolved);
  }
  const std::string prom = service.MetricsPrometheus();
  const struct {
    const char* prom_name;
    int64_t value;
  } kFamilies[] = {
      {"query_retries", v(c.retries)},
      {"deadline_exceeded", v(c.deadline_exceeded)},
      {"shard_restarts", v(c.shard_restarts)},
  };
  for (const auto& f : kFamilies) {
    const int64_t in_prom = PromCounter(prom, f.prom_name);
    if (in_prom != f.value) {
      return std::string(f.prom_name) + ": ServiceCounters=" +
             std::to_string(f.value) + " prometheus=" + std::to_string(in_prom);
    }
  }
  return "";
}

}  // namespace

RunOutcome RunScenario(const Scenario& scenario, const SimOptions& options) {
  RunOutcome outcome;
  const std::vector<std::string> workload =
      WorkloadQueries(scenario.workload_seed, scenario.workload_size);
  if (static_cast<int>(workload.size()) < scenario.workload_size) {
    outcome.error = "workload generator produced too few queries";
    return outcome;
  }

  ServiceOptions service_options;
  service_options.config = SimConfig();
  service_options.config.num_shards = scenario.shards;
  service_options.config.exec_threads = scenario.exec_threads;
  if (scenario.budget_bytes > 0) {
    service_options.config.memory_budget_bytes = scenario.budget_bytes;
  }
  service_options.manual_pump = true;
  service_options.queue_capacity = scenario.order.size() * 8 + 16;

  // Shard fault injection: a scripted crash or stall on one shard. The
  // stall timeout is short so the supervisor (run from PumpOnce in
  // manual mode) declares the frozen heartbeat well inside the pump
  // bound; the retry budget matches the production default.
  ShardFaultPlan fault_plan;
  const bool has_fault = scenario.fault != Scenario::Fault::kNone;
  if (has_fault) {
    fault_plan.target_shard = scenario.fault_shard;
    if (scenario.fault == Scenario::Fault::kCrash) {
      fault_plan.crash_at_seq = scenario.fault_seq;
    } else {
      fault_plan.stall_at_seq = scenario.fault_seq;
    }
    service_options.stall_timeout_ms = 50;
  }
  ScriptedShardFaultInjector shard_faults(fault_plan);

  char tmpl[] = "/tmp/qsys_sim_XXXXXX";
  std::string spill_dir;
  if (scenario.spill) {
    if (::mkdtemp(tmpl) == nullptr) {
      outcome.error = "mkdtemp failed for spill dir";
      return outcome;
    }
    spill_dir = tmpl;
    service_options.config.spill_dir = spill_dir;
    service_options.config.spill_pool_frames = 16;
  }

  {
    QueryService service(service_options);
    Status s = service.BuildEachEngine(BuildSimDataset);
    if (s.ok()) s = service.Start();
    if (!s.ok()) {
      outcome.error = "service start failed: " + s.ToString();
      if (!spill_dir.empty()) ::rmdir(spill_dir.c_str());
      return outcome;
    }
    if (options.injector != nullptr) {
      for (int i = 0; i < service.num_shards(); ++i) {
        SpillManager* spill = service.shard_engine(i).spill_manager();
        if (spill != nullptr) spill->set_fault_injector(options.injector);
      }
    }
    if (has_fault) service.InstallShardFaultInjector(&shard_faults);

    auto session = service.OpenSession("sim");
    if (!session.ok()) {
      outcome.error = "session open failed: " + session.status().ToString();
      (void)service.Shutdown(QueryService::ShutdownMode::kCancelPending);
      if (!spill_dir.empty()) ::rmdir(spill_dir.c_str());
      return outcome;
    }

    std::vector<QueryTicket> tickets;
    std::vector<int> wave_of_position;
    size_t next = 0;
    bool failed = false;
    for (size_t w = 0; w < scenario.waves.size() && !failed; ++w) {
      const size_t begin = tickets.size();
      for (int i = 0; i < scenario.waves[w]; ++i, ++next) {
        const int qidx = scenario.order[next];
        auto ticket =
            service.Submit(session.value(), workload[static_cast<size_t>(qidx)]);
        if (!ticket.ok()) {
          outcome.error = "submit failed at position " +
                          std::to_string(next) + ": " +
                          ticket.status().ToString();
          failed = true;
          break;
        }
        tickets.push_back(std::move(ticket).value());
        wave_of_position.push_back(static_cast<int>(w));
      }
      if (failed) break;

      bool wave_done = false;
      for (int spin = 0; spin < kMaxPumpSpins; ++spin) {
        Status pump = service.PumpOnce();
        if (!pump.ok()) {
          outcome.error = "pump failed in wave " + std::to_string(w) + ": " +
                          pump.ToString();
          failed = true;
          break;
        }
        wave_done = true;
        for (size_t i = begin; i < tickets.size(); ++i) {
          if (tickets[i].future().wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            wave_done = false;
            break;
          }
        }
        if (wave_done) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (failed) break;
      if (!wave_done) {
        outcome.error = "wave " + std::to_string(w) +
                        " did not complete within the pump bound";
        failed = true;
        break;
      }

      // Mid-run pressure change: the drop takes effect between waves,
      // evicting immediately on every shard. Safe without the engine
      // lock — manual_pump means no executor runs between pumps.
      if (scenario.drop_after_wave == static_cast<int>(w)) {
        for (int i = 0; i < service.num_shards(); ++i) {
          service.shard_engine(i).state_manager().set_memory_budget_bytes(
              scenario.drop_to_bytes);
        }
      }
    }

    Status down = service.Shutdown(failed
                                       ? QueryService::ShutdownMode::kCancelPending
                                       : QueryService::ShutdownMode::kDrain);
    if (!failed && !down.ok()) {
      outcome.error = "shutdown failed: " + down.ToString();
      failed = true;
    }

    for (int i = 0; i < service.num_shards(); ++i) {
      const SpillStats s = service.shard_engine(i).spill_stats();
      outcome.spill.pages_written += s.pages_written;
      outcome.spill.pages_read += s.pages_read;
      outcome.spill.page_faults += s.page_faults;
      outcome.spill.items_spilled += s.items_spilled;
      outcome.spill.items_restored += s.items_restored;
      outcome.spill.bytes_on_disk += s.bytes_on_disk;
      outcome.spill.spill_faults += s.spill_faults;
      outcome.spill.read_retry_waits += s.read_retry_waits;
    }

    const ServiceCounters& counters = service.counters();
    outcome.retries = counters.retries.load(std::memory_order_relaxed);
    outcome.deadline_exceeded =
        counters.deadline_exceeded.load(std::memory_order_relaxed);
    outcome.shard_restarts =
        counters.shard_restarts.load(std::memory_order_relaxed);
    outcome.counter_error = CheckCounterConservation(service);

    if (!failed) {
      for (size_t i = 0; i < tickets.size(); ++i) {
        const QueryOutcome& out = tickets[i].Wait();
        std::string fp =
            out.status.ok() ? FingerprintResults(out.results) : "";
        if (options.planted_warm_wave_bug && wave_of_position[i] >= 1 &&
            !fp.empty()) {
          fp += "#planted-warm-wave-bug";
        }
        outcome.fingerprints.push_back(std::move(fp));
        outcome.statuses.push_back(out.status.ok() ? ""
                                                   : out.status.ToString());
      }
      outcome.ran_ok = true;
    }
  }

  if (!spill_dir.empty()) ::rmdir(spill_dir.c_str());
  return outcome;
}

std::string Divergence::ToString() const {
  return "position " + std::to_string(position) + " (workload query " +
         std::to_string(query) + "): got \"" + got + "\" want \"" + want +
         "\"";
}

Result<std::vector<std::string>> Oracle::Fingerprints(uint64_t workload_seed,
                                                      int workload_size) {
  const auto key = std::make_pair(workload_seed, workload_size);
  auto cached = cache_.find(key);
  if (cached != cache_.end()) return cached->second;

  // The ground truth: every workload query once, single shard, one
  // executor thread, unlimited budget, no spill, one wave.
  Scenario fresh;
  fresh.workload_seed = workload_seed;
  fresh.workload_size = workload_size;
  fresh.order.resize(static_cast<size_t>(workload_size));
  for (int i = 0; i < workload_size; ++i) {
    fresh.order[static_cast<size_t>(i)] = i;
  }
  fresh.waves = {workload_size};
  fresh.shards = 1;
  fresh.exec_threads = 1;
  fresh.spill = false;
  fresh.budget_bytes = 0;

  RunOutcome oracle_run = RunScenario(fresh);
  if (!oracle_run.ran_ok) {
    return Status::Internal("oracle run failed: " + oracle_run.error);
  }
  cache_[key] = oracle_run.fingerprints;
  return oracle_run.fingerprints;
}

std::optional<Divergence> CheckScenario(const Scenario& scenario,
                                        Oracle& oracle,
                                        const SimOptions& options,
                                        RunOutcome* outcome_out) {
  RunOutcome run = RunScenario(scenario, options);
  if (outcome_out != nullptr) *outcome_out = run;
  if (!run.ran_ok) {
    Divergence d;
    d.position = -1;
    d.query = -1;
    d.got = run.error;
    d.want = "a completed run";
    return d;
  }
  if (!run.counter_error.empty()) {
    Divergence d;
    d.position = -1;
    d.query = -1;
    d.got = run.counter_error;
    d.want = "a conserved counter surface";
    return d;
  }
  if (!scenario.CheckedForEquivalence()) return std::nullopt;

  const bool has_fault = scenario.fault != Scenario::Fault::kNone;
  auto want = oracle.Fingerprints(scenario.workload_seed,
                                  scenario.workload_size);
  if (!want.ok()) {
    Divergence d;
    d.position = -1;
    d.query = -1;
    d.got = want.status().ToString();
    d.want = "a completed oracle run";
    return d;
  }
  for (size_t i = 0; i < scenario.order.size(); ++i) {
    const int qidx = scenario.order[i];
    const std::string& got = run.fingerprints[i];
    const std::string& expect = want.value()[static_cast<size_t>(qidx)];
    // Terminal failures (kUnavailable, kDeadlineExceeded) are part of
    // the contract under an injected fault — no healthy shard left, or
    // the deadline fired first. Without a fault they are divergences,
    // unless the oracle fails the same query (a genuinely bad keyword
    // fails candidate generation everywhere). Every OK answer, fault or
    // not, must equal the oracle's.
    if (!run.statuses[i].empty()) {
      if (has_fault || expect.empty()) continue;
      Divergence d;
      d.position = static_cast<int>(i);
      d.query = qidx;
      d.got = "terminal failure: " + run.statuses[i];
      d.want = expect;
      return d;
    }
    if (got != expect) {
      Divergence d;
      d.position = static_cast<int>(i);
      d.query = qidx;
      d.got = got;
      d.want = expect;
      return d;
    }
  }
  return std::nullopt;
}

}  // namespace qsys::sim
