// Serving benchmark: drives QueryService the way independent users do —
// one open-loop generator thread submits seeded keyword queries on a
// schedule, through the public API only (BuildEachEngine, Start,
// OpenSession, Submit, set_result_sink, Shutdown) — checks every answer
// against a single-shard manual-pump reference, and prints its metrics
// as the last line of stdout, one JSON object.
//
//   serve_bench --workload pfam-poisson --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// repeats the same workload and seed untraced and then traced, prints the
// per-layer metrics of the traced run, and writes its spans (the
// program's own plus the benchmark's) as a Chrome trace to --trace-out.
// --seconds is the arrival window of the Poisson workloads; --scratch
// names the directory spill files go to. README.md beside this file
// says why each workload exists and which metric should move on which.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "servebench/measure.h"
#include "src/exec/rank_merge_op.h"
#include "src/opt/optimizer.h"
#include "src/serve/query_service.h"
#include "src/workload/gus.h"
#include "src/workload/pfam.h"

namespace qsys::servebench {
namespace {

using Clock = std::chrono::steady_clock;

/// \brief One workload: traffic shape plus service configuration. The
/// settings every workload shares (k = 50, batches of 5, a 50 ms batch
/// window, replicated placement, signature-hash routing, default
/// supervision) live in MakeConfig/RunPass.
struct Workload {
  const char* name;
  /// GUS synthetic at its defaults, drawing from the whole vocabulary;
  /// else Pfam/InterPro x3, drawing only terms that match its data.
  bool gus;
  SharingConfig sharing;
  int shards;
  int exec_threads;
  double rate_qps;  ///< Poisson arrival rate; 0 = kBurstQueries at t0.
  int64_t deadline_ms;  ///< The latency limit D, each Submit's deadline.
  int max_cqs;
  int max_matches_per_keyword;
  int vocabulary_top;    ///< Keep the N hottest matching terms; 0 = all.
  int64_t budget_bytes;  ///< Per-shard cache budget; 0 = default.
  bool spill;            ///< Spill tier on, with kSpillPoolFrames frames.
  /// Every user on the Q System scoring model instead of the paper's
  /// per-user mix (README.md: DISCOVER-sum answers diverge from the
  /// reference at this commit).
  bool one_score_model;
};

constexpr int kSpillPoolFrames = 8;
constexpr int kBurstQueries = 20;

constexpr Workload kWorkloads[] = {
    // A flash crowd fills every batch: the multiple-query optimizer does
    // most of the work, inside the shard's serialized section.
    {"gus-burst", true, SharingConfig::kAtcFull, 1, 1, 0.0, 120'000, 20, 4,
     0, 0, false, false},
    // The paper's real-data setup below saturation: ATC execution
    // dominates, several ATCs exercise the parallel drain, and queueing
    // shows without a growing backlog.
    {"pfam-poisson", false, SharingConfig::kAtcCl, 1, 2, 4.0, 10'000, 4, 2,
     0, 0, false, false},
    // Few distinct queries repeated over a working set larger than the
    // budget: retained state is demoted to disk and read back.
    {"pfam-repeat-spill", false, SharingConfig::kAtcFull, 2, 1, 24.0,
     10'000, 4, 2, 8, int64_t{128} << 10, true, false},
    // pfam-repeat-spill's vocabulary with one scoring model, on two
    // shards with a spill tier, at a rate that fills nearly every batch,
    // so service and queueing time are a real part of latency. Near
    // 700 q/s the backlog feeds on itself: epochs grow, the queue fills
    // and Submit starts refusing. One-model traffic retains far less
    // state, so the budget shrinks with it to keep the working set several
    // times larger than the budget. ATC-CL, as in its twin below, so the
    // two differ only in placement, budget and spill.
    {"pfam-repeat-spill-qscore", false, SharingConfig::kAtcCl, 2, 1, 250.0,
     10'000, 4, 2, 8, int64_t{8} << 10, true, true},
    // The same traffic on one shard with two exec threads and the default
    // budget: the working set fits and nothing is evicted. Each batch of
    // this traffic forms one cluster, so the second thread rarely has an
    // ATC to drain (core.atc_parallelism stays near 1).
    {"pfam-repeat-cl-qscore", false, SharingConfig::kAtcCl, 1, 2, 250.0,
     10'000, 4, 2, 8, 0, false, true},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

QConfig MakeConfig(const Workload& w) {
  QConfig config;
  config.sharing = w.sharing;
  config.k = 50;
  config.batch_size = 5;
  config.batch_window_us = 50'000;
  config.num_shards = w.shards;
  config.exec_threads = w.exec_threads;
  if (w.budget_bytes > 0) config.memory_budget_bytes = w.budget_bytes;
  if (w.spill) config.spill_pool_frames = kSpillPoolFrames;
  return config;
}

Status BuildDataset(const Workload& w, Engine& engine) {
  if (w.gus) return BuildGusDataset(engine, GusOptions{});
  PfamOptions pfam;
  pfam.scale = 3.0;
  return BuildPfamDataset(engine, pfam);
}

std::vector<std::string> Vocabulary(const Workload& w, Engine& engine) {
  if (w.gus) return BioVocabulary();
  std::vector<std::string> terms;
  for (const std::string& term : BioVocabulary()) {
    if (!engine.inverted_index().Lookup(term).empty()) terms.push_back(term);
    if (w.vocabulary_top > 0 &&
        static_cast<int>(terms.size()) == w.vocabulary_top) {
      break;
    }
  }
  return terms;
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

/// \brief A span the benchmark records around its own calls into the
/// program, on the service's timeline (microseconds since Start()).
struct BenchSpan {
  const char* name;
  int64_t ts_us;
  int64_t dur_us;
  int uq_id;
  int64_t arg;
};

/// Everything one query went through in one run.
struct QueryRun {
  int uq_id = -1;
  bool refused = false;  ///< Submit itself returned an error.
  Status status;         ///< Terminal status (or the refusal).
  int64_t due_us = 0;    ///< Service timeline, microseconds.
  int64_t send_us = 0;
  int64_t submit_return_us = 0;
  int64_t resolve_us = 0;
  double running_s = 0.0;  ///< UserQueryMetrics::RunningSeconds().
  int answer = -1;  ///< Index into Pass::answers when answered OK.
};

/// Per-tuple fingerprints of a ranked answer (the rendering src/sim/
/// compares; per tuple so a mismatch can say where it starts).
std::vector<std::string> Fingerprints(const std::vector<ResultTuple>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const ResultTuple& t : results) out.push_back(FingerprintResults({t}));
  return out;
}

/// One run of a workload against a fresh service.
struct Pass {
  double setup_rss_mb = 0.0;
  double rss_peak_mb = 0.0;
  std::vector<QueryRun> runs;
  /// Distinct OK answers, each as the FingerprintResults of its ranked
  /// tuples, best first. Repeated queries share one entry, so a long run
  /// keeps a few hundred answers instead of one per query.
  std::vector<std::vector<std::string>> answers;
  std::unordered_map<std::string, int> answer_index;
  ExecStats stats;
  SpillStats spill;
  int64_t retries = 0;
  int64_t epochs = 0;
  int64_t ops_reused = 0;
  int64_t evictions = 0;
  double cache_mb_end = 0.0;
  std::vector<int64_t> routed;  ///< Queries each shard executed.
  std::vector<TraceEvent> spans;
  int64_t spans_dropped = 0;
  std::vector<BenchSpan> bench_spans;
  std::vector<double> gen_us;        ///< Bench-side candidate generation.
  std::vector<double> cqs_per_query;
  int64_t opt_batches = 0;
  int64_t opt_nodes = 0;
  double opt_wall_us = 0.0;
};

/// Index of `results` in `pass.answers`, added when new.
int InternAnswer(const std::vector<ResultTuple>& results, Pass& pass) {
  auto [it, added] = pass.answer_index.emplace(
      FingerprintResults(results), static_cast<int>(pass.answers.size()));
  if (added) pass.answers.push_back(Fingerprints(results));
  return it->second;
}

constexpr int kTraceEventsPerThread = 1 << 18;
constexpr int kSetUps = 11;
constexpr int64_t kStartLeadUs = 20'000;

/// The last line of stdout says nothing when the run cannot be set up:
/// the caller exits non-zero without printing a result.
class SetupError {
 public:
  explicit SetupError(std::string what) : what_(std::move(what)) {}
  const std::string& what() const { return what_; }

 private:
  std::string what_;
};

void Check(const Status& s, const char* what) {
  if (!s.ok()) throw SetupError(std::string(what) + ": " + s.ToString());
}

/// Builds the dataset into every shard and starts serving; returns the
/// wall seconds that took.
double SetUp(QueryService& service, const Workload& w) {
  const Clock::time_point t0 = Clock::now();
  Check(service.BuildEachEngine(
            [&w](Engine& e) { return BuildDataset(w, e); }),
        "build dataset");
  Check(service.Start(), "start service");
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ServiceOptions MakeServiceOptions(const Workload& w, bool traced,
                                  const std::string& spill_dir) {
  ServiceOptions options;
  options.config = MakeConfig(w);
  if (w.spill) options.config.spill_dir = spill_dir;
  options.config.trace_buffer_events = traced ? kTraceEventsPerThread : 0;
  return options;
}

/// One set-up, timed in a forked child process so that every set-up a run
/// measures starts from the same state: a fresh process that has built
/// nothing yet. Must be called before this process starts any thread.
double ForkedSetUpSeconds(const Workload& w, const std::string& spill_dir) {
  int fds[2];
  if (pipe(fds) != 0) throw SetupError("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw SetupError("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1.0;
    try {
      QueryService service(MakeServiceOptions(w, false, spill_dir));
      seconds = SetUp(service, w);
      if (!service.Shutdown().ok()) seconds = -1.0;
    } catch (const SetupError&) {
      seconds = -1.0;
    }
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t got = read(fds[0], &seconds, sizeof(seconds));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(seconds)) || seconds < 0 ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw SetupError("set-up in a child process failed");
  }
  return seconds;
}

/// Bench-side candidate generation and batch optimization for the
/// traced run: one Engine::GenerateCandidates per query and one
/// Optimizer::OptimizeBatch per batch-sized group of the run's queries,
/// called the way fig11_opt_time calls it. Runs after Shutdown, on the
/// immutable dataset, so it never competes with serving.
void TraceFrontEnd(QueryService& service,
                   const std::vector<WorkloadQuery>& queries,
                   const std::vector<QueryRun>& runs, Pass& pass) {
  Engine& engine = service.shard_engine(0);
  const QConfig& config = engine.config();
  std::vector<UserQuery> generated;
  int next_cq = 1;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t t0 = service.NowUs();
    Result<UserQuery> uq =
        engine.GenerateCandidates(queries[i].keywords, queries[i].options);
    const int64_t dur = service.NowUs() - t0;
    pass.gen_us.push_back(static_cast<double>(dur));
    pass.bench_spans.push_back(
        {"generate_candidates", t0, dur, runs[i].uq_id,
         uq.ok() ? static_cast<int64_t>(uq.value().cqs.size()) : -1});
    if (!uq.ok()) continue;
    pass.cqs_per_query.push_back(
        static_cast<double>(uq.value().cqs.size()));
    generated.push_back(std::move(uq).value());
    generated.back().id = runs[i].uq_id;
    for (ConjunctiveQuery& cq : generated.back().cqs) cq.id = next_cq++;
  }
  Optimizer optimizer(&engine.catalog(), &engine.inverted_index(), nullptr,
                      nullptr, DelayParams{});
  OptimizerOptions options;
  options.sharing = SharingMode::kFull;
  options.pruning = config.pruning;
  options.max_subexpr_atoms = config.max_subexpr_atoms;
  options.k = config.k;
  const size_t batch = static_cast<size_t>(config.batch_size);
  for (size_t b = 0; b < generated.size(); b += batch) {
    std::vector<const UserQuery*> group;
    for (size_t i = b; i < std::min(generated.size(), b + batch); ++i) {
      group.push_back(&generated[i]);
    }
    const int64_t t0 = service.NowUs();
    OptimizeOutcome outcome = optimizer.OptimizeBatch(group, options, -1);
    const int64_t dur = service.NowUs() - t0;
    pass.bench_spans.push_back({"optimize_batch", t0, dur, group[0]->id,
                                outcome.nodes_explored});
    pass.opt_batches += 1;
    pass.opt_nodes += outcome.nodes_explored;
    pass.opt_wall_us += static_cast<double>(dur);
  }
}

/// A service and the sink that timestamps its resolutions.
struct Serving {
  explicit Serving(ServiceOptions options)
      : sink([this](const QueryOutcome& outcome) {
          const Clock::time_point now = Clock::now();
          std::lock_guard<std::mutex> lock(resolved_mu);
          resolved_at.emplace(outcome.uq_id, now);
        }),
        service(std::move(options)) {
    service.set_result_sink(&sink);
  }

  std::mutex resolved_mu;
  std::unordered_map<int, Clock::time_point> resolved_at;
  CallbackSink sink;
  QueryService service;
};

/// Serves `queries` on `due_offsets_s` against a fresh service. The
/// first call (queries empty) draws the queries from the workload's
/// vocabulary over the built dataset.
Pass RunPass(const Workload& w, uint64_t seed, int num_queries,
             bool traced, const std::string& spill_dir,
             std::vector<WorkloadQuery>& queries,
             const std::vector<double>& due_offsets_s) {
  Pass pass;
  auto serving =
      std::make_unique<Serving>(MakeServiceOptions(w, traced, spill_dir));
  QueryService& service = serving->service;
  (void)SetUp(service, w);
  pass.setup_rss_mb = RssMb();

  if (queries.empty()) {
    CandidateGenOptions gen;
    gen.max_cqs = w.max_cqs;
    gen.max_matches_per_keyword = w.max_matches_per_keyword;
    queries = DrawQueries(Vocabulary(w, service.shard_engine(0)), seed,
                          num_queries, gen, !w.one_score_model);
  }
  std::map<int, SessionId> sessions;
  for (const WorkloadQuery& q : queries) {
    if (sessions.count(q.user_id) != 0) continue;
    Result<SessionId> s =
        service.OpenSession("user" + std::to_string(q.user_id));
    Check(s.status(), "open session");
    sessions[q.user_id] = s.value();
  }

  // Map the service timeline (us since Start) onto the steady clock.
  const Clock::time_point anchor = Clock::now();
  const int64_t anchor_us = service.NowUs();
  const auto to_us = [&](Clock::time_point tp) {
    return anchor_us +
           std::chrono::duration_cast<std::chrono::microseconds>(tp - anchor)
               .count();
  };
  const Clock::time_point t0 =
      anchor + std::chrono::microseconds(kStartLeadUs);

  // The generator: open loop, one thread, each query sent when due.
  std::vector<QueryTicket> tickets(queries.size());
  pass.runs.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::microseconds(
                 static_cast<int64_t>(due_offsets_s[i] * 1e6));
    std::this_thread::sleep_until(due);
    QueryRun& run = pass.runs[i];
    run.due_us = to_us(due);
    const Clock::time_point send = Clock::now();
    Result<QueryTicket> ticket =
        service.Submit(sessions[queries[i].user_id], queries[i].keywords,
                       queries[i].options, w.deadline_ms);
    const Clock::time_point back = Clock::now();
    run.send_us = to_us(send);
    run.submit_return_us = to_us(back);
    if (ticket.ok()) {
      tickets[i] = std::move(ticket).value();
      run.uq_id = tickets[i].uq_id();
    } else {
      run.refused = true;
      run.status = ticket.status();
      run.resolve_us = run.submit_return_us;
    }
    pass.bench_spans.push_back({"submit", run.send_us,
                                run.submit_return_us - run.send_us,
                                run.uq_id, static_cast<int64_t>(i)});
  }

  // Every accepted ticket resolves by its deadline; the bound only turns
  // a hang into a setup error instead of a stuck benchmark.
  const auto bound = std::chrono::milliseconds(w.deadline_ms + 60'000);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRun& run = pass.runs[i];
    if (run.refused) continue;
    if (tickets[i].future().wait_for(bound) != std::future_status::ready) {
      throw SetupError("query " + std::to_string(i) +
                       " never resolved (deadline not enforced)");
    }
    {
      const QueryOutcome& outcome = tickets[i].Wait();
      run.status = outcome.status;
      run.running_s = outcome.metrics.RunningSeconds();
      if (outcome.status.ok()) run.answer = InternAnswer(outcome.results, pass);
    }
    tickets[i] = QueryTicket();  // only the interned fingerprints are kept
  }
  Status down = service.Shutdown(QueryService::ShutdownMode::kDrain);
  if (!down.ok()) std::printf("shutdown: %s\n", down.ToString().c_str());
  pass.rss_peak_mb = PeakRssMb();
  {
    std::lock_guard<std::mutex> lock(serving->resolved_mu);
    for (QueryRun& run : pass.runs) {
      if (run.refused) continue;
      auto it = serving->resolved_at.find(run.uq_id);
      if (it == serving->resolved_at.end()) {
        throw SetupError("no sink delivery for uq " +
                         std::to_string(run.uq_id));
      }
      run.resolve_us = to_us(it->second);
      pass.bench_spans.push_back({"resolution", run.due_us,
                                  run.resolve_us - run.due_us, run.uq_id,
                                  run.status.ok() ? 1 : 0});
    }
  }

  const ServiceCounters& counters = service.counters();
  pass.retries = counters.retries.load();
  pass.epochs = counters.epochs.load();
  pass.stats = service.stats_snapshot();
  pass.spill = counters.LoadSpill();
  bool detached = false;
  for (int s = 0; s < service.num_shards(); ++s) {
    pass.routed.push_back(service.shard_routes(s).local);
    // A shard the supervisor took out of rotation may still be running
    // its epoch on an executor Shutdown detached: its engine's
    // unpublished counters cannot be read without racing it.
    if (service.supervisor()->out_of_rotation(s)) {
      std::printf("shard %d out of rotation: its grafter and state "
                  "manager counters are not read\n", s);
      detached = true;
      continue;
    }
    Engine& engine = service.shard_engine(s);
    pass.ops_reused += engine.grafter().ops_reused();
    pass.evictions += engine.state_manager().evictions();
    pass.cache_mb_end +=
        static_cast<double>(engine.state_manager().TotalCacheBytes()) / 1e6;
  }
  if (traced) {
    pass.spans = service.tracer()->Snapshot();
    pass.spans_dropped = service.tracer()->dropped();
    TraceFrontEnd(service, queries, pass.runs, pass);
  }
  // That executor still calls back into the service and records into
  // its tracer, so the service must outlive it: leak it.
  if (detached) serving.release();
  return pass;
}

/// Per-tuple fingerprints of reference answers, keyed by ReferenceKey.
using ReferenceAnswers = std::map<std::string, std::vector<std::string>>;

/// A query's answer depends on its keywords and its user's scoring
/// options, which GenerateBioWorkload derives from the user id.
std::string ReferenceKey(const WorkloadQuery& q) {
  return std::to_string(q.user_id) + "|" + q.keywords;
}

/// The oracle src/sim/ uses: each distinct answered query served once by
/// a fresh single-shard, one-thread, manually pumped service with the
/// default budget and no spill tier. A query the reference fails to
/// answer has no entry.
ReferenceAnswers Reference(
    const Workload& w, const std::vector<WorkloadQuery>& queries,
    const std::set<size_t>& wanted) {
  ServiceOptions options;
  options.config = MakeConfig(w);
  options.config.num_shards = 1;
  options.config.exec_threads = 1;
  options.config.memory_budget_bytes = QConfig{}.memory_budget_bytes;
  options.manual_pump = true;
  options.queue_capacity = queries.size() + 16;
  options.max_in_flight_per_session = 0;
  ReferenceAnswers out;
  if (wanted.empty()) return out;

  QueryService service(options);
  (void)SetUp(service, w);
  Result<SessionId> session = service.OpenSession("reference");
  Check(session.status(), "open reference session");
  std::map<std::string, QueryTicket> tickets;
  for (size_t i : wanted) {
    const std::string key = ReferenceKey(queries[i]);
    if (tickets.count(key) != 0) continue;
    Result<QueryTicket> t = service.Submit(
        session.value(), queries[i].keywords, queries[i].options, 0);
    Check(t.status(), "reference submit");
    tickets.emplace(key, std::move(t).value());
  }
  for (;;) {
    Check(service.PumpOnce(), "reference pump");
    bool done = true;
    for (const auto& [key, ticket] : tickets) {
      if (ticket.future().wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        done = false;
        break;
      }
    }
    if (done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Check(service.Shutdown(), "reference shutdown");
  for (const auto& [key, ticket] : tickets) {
    const QueryOutcome& o = ticket.Wait();
    if (o.status.ok()) out[key] = Fingerprints(o.results);
  }
  return out;
}

/// Failure accounting of one run, against queries due.
struct Tally {
  int due = 0;
  int answered = 0;  ///< OK and equal to the reference.
  int unavailable = 0;
  int deadline = 0;
  int refused = 0;
  int generation = 0;  ///< Candidate generation (or any other) failure.
  int wrong = 0;
  int failed() const { return due - answered; }
};

/// Classifies every query of `pass`; sets `ok` per query.
Tally Classify(const Pass& pass, const std::vector<WorkloadQuery>& queries,
               const ReferenceAnswers& reference,
               const char* workload, uint64_t seed,
               std::vector<bool>& ok) {
  Tally t;
  t.due = static_cast<int>(pass.runs.size());
  ok.assign(pass.runs.size(), false);
  for (size_t i = 0; i < pass.runs.size(); ++i) {
    const QueryRun& run = pass.runs[i];
    if (run.refused) {
      t.refused += 1;
    } else if (run.status.ok()) {
      const std::vector<std::string>& answer =
          pass.answers[static_cast<size_t>(run.answer)];
      auto it = reference.find(ReferenceKey(queries[i]));
      if (it != reference.end() && it->second == answer) {
        t.answered += 1;
        ok[i] = true;
        continue;
      }
      t.wrong += 1;
      const std::vector<std::string> none;
      const std::vector<std::string>& want =
          it != reference.end() ? it->second : none;
      size_t first_diff = 0;
      while (first_diff < want.size() && first_diff < answer.size() &&
             want[first_diff] == answer[first_diff]) {
        ++first_diff;
      }
      const std::set<std::string> want_set(want.begin(), want.end());
      int missing = 0;
      for (const std::string& tuple : answer) {
        missing += want_set.count(tuple) == 0 ? 1 : 0;
      }
      std::printf(
          "WRONG ANSWER: workload=%s seed=%llu query=%zu keywords=\"%s\" "
          "user=%d uq=%d: %zu tuples vs %zu in the reference%s, first "
          "difference at rank %zu, %d tuples not in the reference\n",
          workload, static_cast<unsigned long long>(seed), i,
          queries[i].keywords.c_str(), queries[i].user_id, run.uq_id,
          answer.size(), want.size(),
          it == reference.end() ? " (reference failed)" : "", first_diff,
          missing);
    } else if (run.status.code() == StatusCode::kUnavailable) {
      t.unavailable += 1;
    } else if (run.status.code() == StatusCode::kDeadlineExceeded) {
      t.deadline += 1;
    } else {
      t.generation += 1;
    }
  }
  return t;
}

/// The end-to-end numbers of one run.
struct EndToEnd {
  std::optional<double> latency_p50_ms, latency_p90_ms;
  std::optional<double> sim_p50_s, sim_p90_s;
  double sim_mean_s = 0.0;
  double answered_frac = 0.0;
  double goodput_qps = 0.0;
  double mean_latency_ms = 0.0;
  int samples = 0;
};

EndToEnd Summarize(const Workload& w, const Pass& pass, const Tally& tally,
                   const std::vector<bool>& ok) {
  std::vector<LatencySample> wall;
  std::vector<LatencySample> sim;
  int64_t first_due = INT64_MAX;
  int64_t last_resolve = INT64_MIN;
  for (size_t i = 0; i < pass.runs.size(); ++i) {
    const QueryRun& run = pass.runs[i];
    wall.push_back({ok[i], static_cast<double>(run.resolve_us - run.due_us) /
                               1e3});
    sim.push_back({ok[i], run.running_s});
    first_due = std::min(first_due, run.due_us);
    last_resolve = std::max(last_resolve, run.resolve_us);
  }
  const double limit_ms = static_cast<double>(w.deadline_ms);
  const std::vector<double> wall_c = Censor(wall, limit_ms);
  const std::vector<double> sim_c = Censor(sim, limit_ms / 1e3);
  EndToEnd e;
  e.samples = static_cast<int>(wall_c.size());
  e.latency_p50_ms = Percentile(wall_c, 50);
  e.latency_p90_ms = Percentile(wall_c, 90);
  e.sim_p50_s = Percentile(sim_c, 50);
  e.sim_p90_s = Percentile(sim_c, 90);
  for (double v : wall_c) e.mean_latency_ms += v / wall_c.size();
  for (double v : sim_c) e.sim_mean_s += v / sim_c.size();
  e.answered_frac = static_cast<double>(tally.answered) /
                    std::max(1, tally.due);
  const double window_s =
      static_cast<double>(last_resolve - first_due) / 1e6;
  e.goodput_qps = window_s > 0 ? tally.answered / window_s : 0.0;
  return e;
}

/// \brief Ordered metric list printed as the JSON "metrics" object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit,
           int samples = -1) {
    entries_.push_back({name, value, unit});
    if (samples >= 0) {
      std::printf("  %-30s %16.6f %-6s (n=%d)\n", name.c_str(), value, unit,
                  samples);
    } else {
      std::printf("  %-30s %16.6f %s\n", name.c_str(), value, unit);
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

bool IsEngineSpan(TraceEventType t) {
  switch (t) {
    case TraceEventType::kEpoch:
    case TraceEventType::kFlush:
    case TraceEventType::kOptimize:
    case TraceEventType::kGraft:
    case TraceEventType::kAtcExec:
    case TraceEventType::kSpillDemote:
    case TraceEventType::kSpillRestore:
    case TraceEventType::kWriteBackBarrier:
      return true;
    default:
      return false;
  }
}

/// Per-layer metrics of a traced pass (README.md lists what each should
/// move). `untraced_e2e` is the same workload and seed without tracing.
void LayerMetrics(const Pass& pass, const Tally& tally,
                  const EndToEnd& traced_e2e, const EndToEnd& untraced_e2e,
                  Metrics& m) {
  std::map<TraceEventType, std::vector<double>> ms;  // span durations
  std::map<TraceEventType, std::vector<double>> args;
  std::map<int, std::vector<Interval>> busy;         // shard -> engine spans
  std::map<int, std::vector<Interval>> atc;          // shard -> atc_exec
  std::map<int, std::vector<Interval>> children;     // shard -> epoch kids
  std::vector<std::pair<int, Interval>> epochs;
  for (const TraceEvent& e : pass.spans) {
    if (!TraceEventIsSpan(e.type)) continue;
    const Interval iv{e.ts_us, e.ts_us + e.dur_us};
    ms[e.type].push_back(static_cast<double>(e.dur_us) / 1e3);
    args[e.type].push_back(static_cast<double>(e.arg));
    if (IsEngineSpan(e.type)) busy[e.shard].push_back(iv);
    if (e.type == TraceEventType::kAtcExec) atc[e.shard].push_back(iv);
    if (e.type == TraceEventType::kEpoch) {
      epochs.emplace_back(e.shard, iv);
    } else if (IsEngineSpan(e.type)) {
      children[e.shard].push_back(iv);
    }
  }
  const auto total = [&](TraceEventType t) {
    double s = 0.0;
    for (double v : ms[t]) s += v;
    return s;
  };
  const auto max_of = [&](TraceEventType t) {
    double s = 0.0;
    for (double v : ms[t]) s = std::max(s, v);
    return s;
  };
  double busy_ms = 0.0;
  for (auto& [shard, ivs] : busy) busy_ms += UnionLength(ivs) / 1e3;
  double epoch_self_ms = 0.0;
  for (const auto& [shard, iv] : epochs) {
    epoch_self_ms += SelfTime(iv, children[shard]) / 1e3;
  }
  double atc_union_ms = 0.0;
  for (auto& [shard, ivs] : atc) atc_union_ms += UnionLength(ivs) / 1e3;
  const double atc_ms = total(TraceEventType::kAtcExec);
  double rounds = 0.0;
  for (double r : args[TraceEventType::kAtcExec]) rounds += r;

  std::vector<double> submit_us;
  for (const BenchSpan& s : pass.bench_spans) {
    if (std::strcmp(s.name, "submit") == 0) {
      submit_us.push_back(static_cast<double>(s.dur_us));
    }
  }
  std::vector<double> late_ms;
  for (const QueryRun& r : pass.runs) {
    late_ms.push_back(static_cast<double>(r.send_us - r.due_us) / 1e3);
  }
  const ExecStats& st = pass.stats;
  const double answers = std::max<int64_t>(1, st.results_emitted);
  const double lookups = st.probes_issued + st.probe_cache_hits;
  int64_t routed_total = 0;
  int64_t routed_max = 0;
  for (int64_t r : pass.routed) {
    routed_total += r;
    routed_max = std::max(routed_max, r);
  }
  const double opt_ms = total(TraceEventType::kOptimize);

  // The paper's running time on the virtual clock, from the untraced run
  // of the same seed. On repeat traffic most queries are answered from
  // retained state, and their virtual running time is a fixed function
  // of the batch they ran in: the percentiles read the same on every
  // seed, and the mean moves with the few fresh queries a seed draws.
  // They are reported here rather than gated (README.md).
  m.Add("sim_running_mean_s", untraced_e2e.sim_mean_s, "s",
        untraced_e2e.samples);
  if (untraced_e2e.sim_p50_s) {
    m.Add("sim_running_p50_s", *untraced_e2e.sim_p50_s, "s",
          untraced_e2e.samples);
  }
  if (untraced_e2e.sim_p90_s) {
    m.Add("sim_running_p90_s", *untraced_e2e.sim_p90_s, "s",
          untraced_e2e.samples);
  }
  m.Add("keyword.gen_us_p50", NearestRank(pass.gen_us, 50), "us",
        static_cast<int>(pass.gen_us.size()));
  double cqs = 0.0;
  for (double c : pass.cqs_per_query) cqs += c;
  m.Add("keyword.cqs_per_query",
        cqs / std::max<size_t>(1, pass.cqs_per_query.size()), "count");
  m.Add("serve.submit_us_p50", NearestRank(submit_us, 50), "us",
        static_cast<int>(submit_us.size()));
  m.Add("serve.queue_wait_p50_ms",
        NearestRank(ms[TraceEventType::kQueueWait], 50), "ms",
        static_cast<int>(ms[TraceEventType::kQueueWait].size()));
  m.Add("serve.queue_wait_p90_ms",
        NearestRank(ms[TraceEventType::kQueueWait], 90), "ms",
        static_cast<int>(ms[TraceEventType::kQueueWait].size()));
  m.Add("serve.failed_unavailable", tally.unavailable, "count");
  m.Add("serve.failed_deadline", tally.deadline, "count");
  m.Add("serve.rejected", tally.refused, "count");
  m.Add("serve.retries", static_cast<double>(pass.retries), "count");
  m.Add("core.epochs", static_cast<double>(pass.epochs), "count");
  m.Add("core.epoch_ms_p50", NearestRank(ms[TraceEventType::kEpoch], 50),
        "ms", static_cast<int>(ms[TraceEventType::kEpoch].size()));
  m.Add("core.epoch_ms_max", max_of(TraceEventType::kEpoch), "ms");
  m.Add("core.epoch_self_ms", epoch_self_ms, "ms");
  m.Add("core.atc_parallelism", atc_union_ms > 0 ? atc_ms / atc_union_ms : 0,
        "ratio");
  m.Add("opt.ms", opt_ms, "ms");
  m.Add("opt.runs", static_cast<double>(ms[TraceEventType::kOptimize].size()),
        "count");
  m.Add("opt.run_ms_max", max_of(TraceEventType::kOptimize), "ms");
  m.Add("opt.busy_share", busy_ms > 0 ? opt_ms / busy_ms : 0, "frac");
  m.Add("opt.nodes_per_batch",
        pass.opt_batches > 0
            ? static_cast<double>(pass.opt_nodes) / pass.opt_batches
            : 0,
        "count", static_cast<int>(pass.opt_batches));
  m.Add("opt.us_per_node",
        pass.opt_nodes > 0 ? pass.opt_wall_us / pass.opt_nodes : 0, "us");
  m.Add("qs.batch_wait_p50_ms",
        NearestRank(ms[TraceEventType::kBatchWait], 50), "ms",
        static_cast<int>(ms[TraceEventType::kBatchWait].size()));
  double batch_sum = 0.0;
  for (double b : args[TraceEventType::kFlush]) batch_sum += b;
  m.Add("qs.batch_size_mean",
        batch_sum / std::max<size_t>(1, args[TraceEventType::kFlush].size()),
        "count");
  m.Add("qs.graft_ms", total(TraceEventType::kGraft), "ms");
  m.Add("qs.ops_reused", static_cast<double>(pass.ops_reused), "count");
  m.Add("qs.tuples_shared_served",
        static_cast<double>(st.tuples_shared_served), "count");
  m.Add("qs.evictions", static_cast<double>(pass.evictions), "count");
  m.Add("qs.cache_mb_end", pass.cache_mb_end, "MB");
  m.Add("exec.atc_ms", atc_ms, "ms");
  m.Add("exec.rounds", rounds, "count");
  m.Add("exec.us_per_round", rounds > 0 ? atc_ms * 1e3 / rounds : 0, "us");
  m.Add("exec.join_probes", static_cast<double>(st.join_probes), "count");
  m.Add("exec.join_outputs", static_cast<double>(st.join_outputs), "count");
  m.Add("exec.join_probes_per_result", st.join_probes / answers, "ratio");
  m.Add("source.tuples_streamed", static_cast<double>(st.tuples_streamed),
        "count");
  m.Add("source.probes_issued", static_cast<double>(st.probes_issued),
        "count");
  m.Add("source.probe_hit_ratio",
        lookups > 0 ? st.probe_cache_hits / lookups : 0, "frac");
  m.Add("source.reads_per_answer",
        (st.tuples_streamed + st.probes_issued) / answers, "ratio");
  m.Add("source.stream_sim_s", st.stream_read_us / 1e6, "s");
  m.Add("source.probe_sim_s", st.random_access_us / 1e6, "s");
  m.Add("buffer.spilled", static_cast<double>(pass.spill.items_spilled),
        "count");
  m.Add("buffer.restored", static_cast<double>(pass.spill.items_restored),
        "count");
  m.Add("buffer.pages_written", static_cast<double>(pass.spill.pages_written),
        "count");
  m.Add("buffer.pages_read", static_cast<double>(pass.spill.pages_read),
        "count");
  m.Add("buffer.demote_ms", total(TraceEventType::kSpillDemote), "ms");
  m.Add("buffer.restore_ms", total(TraceEventType::kSpillRestore), "ms");
  m.Add("buffer.writeback_wait_ms", total(TraceEventType::kWriteBackBarrier),
        "ms");
  m.Add("shard.max_route_share",
        routed_total > 0 ? static_cast<double>(routed_max) / routed_total : 0,
        "frac");
  m.Add("bench.gen_late_p99_ms", NearestRank(late_ms, 99), "ms",
        static_cast<int>(late_ms.size()));
  m.Add("bench.gen_late_max_ms", NearestRank(late_ms, 100), "ms");
  m.Add("bench.rss_peak_mb", pass.rss_peak_mb, "MB");
  m.Add("bench.trace_overhead_frac",
        untraced_e2e.mean_latency_ms > 0
            ? traced_e2e.mean_latency_ms / untraced_e2e.mean_latency_ms - 1.0
            : 0,
        "frac");

  std::printf("layer shares of shard busy time (%.1f ms): optimize %.3f, "
              "graft %.3f, atc_exec %.3f, epoch self %.3f, spill %.3f\n",
              busy_ms, opt_ms / std::max(busy_ms, 1e-9),
              total(TraceEventType::kGraft) / std::max(busy_ms, 1e-9),
              atc_union_ms / std::max(busy_ms, 1e-9),
              epoch_self_ms / std::max(busy_ms, 1e-9),
              (total(TraceEventType::kSpillDemote) +
               total(TraceEventType::kSpillRestore) +
               total(TraceEventType::kWriteBackBarrier)) /
                  std::max(busy_ms, 1e-9));
  if (pass.spans_dropped > 0) {
    std::printf("WARNING: %lld trace events dropped (ring full)\n",
                static_cast<long long>(pass.spans_dropped));
  }
}

/// Writes the traced pass's spans, program and benchmark, as Chrome
/// trace_event JSON. Program spans keep their shard as pid; benchmark
/// spans go to pid 0. Every span carries its uq id when it has one.
bool WriteChromeTrace(const std::string& path, const Pass& pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  const auto sep = [&]() {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (const TraceEvent& e : pass.spans) {
    sep();
    const bool span = TraceEventIsSpan(e.type);
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"qsys\", \"ph\": \"%s\", "
                 "\"ts\": %lld, %s\"pid\": %d, \"tid\": %d, \"args\": "
                 "{\"uq\": %d, \"atc\": %d, \"arg\": %lld}}",
                 TraceEventTypeName(e.type), span ? "X" : "i",
                 static_cast<long long>(e.ts_us),
                 span ? ("\"dur\": " + std::to_string(e.dur_us) + ", ").c_str()
                      : "\"s\": \"t\", ",
                 e.shard + 2, e.tid, e.uq_id, e.atc,
                 static_cast<long long>(e.arg));
  }
  for (const BenchSpan& s : pass.bench_spans) {
    sep();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                 "\"ts\": %lld, \"dur\": %lld, \"pid\": 0, \"tid\": 0, "
                 "\"args\": {\"uq\": %d, \"arg\": %lld}}",
                 s.name, static_cast<long long>(s.ts_us),
                 static_cast<long long>(s.dur_us), s.uq_id,
                 static_cast<long long>(s.arg));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string trace_out;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val);
    } else if (key == "--trace") {
      a.trace = std::atoi(val) != 0;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--scratch") {
      a.scratch = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--scratch DIR]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int n = w->rate_qps > 0
                    ? static_cast<int>(std::lround(w->rate_qps * args.seconds))
                    : kBurstQueries;
  const std::vector<double> schedule =
      ArrivalSchedule(args.seed, n, w->rate_qps);
  const std::string spill_dir =
      args.scratch + "/spill-" + std::to_string(::getpid());
  if (w->spill) std::filesystem::create_directories(spill_dir);
  std::printf("workload %s seed %llu: %d queries, %s, %d shard(s) x %d exec "
              "thread(s), D = %lld ms\n",
              w->name, static_cast<unsigned long long>(args.seed), n,
              w->rate_qps > 0 ? "Poisson arrivals" : "one burst", w->shards,
              w->exec_threads, static_cast<long long>(w->deadline_ms));

  // Set-up time: the median of eleven set-ups, each in a fresh child
  // process, made before serving starts any thread. A single set-up's
  // time swings with the heap state it starts from.
  std::vector<double> setups;
  if (!args.trace) {
    for (int i = 0; i < kSetUps; ++i) {
      setups.push_back(ForkedSetUpSeconds(*w, spill_dir));
    }
  }

  std::vector<WorkloadQuery> queries;
  const Pass untraced =
      RunPass(*w, args.seed, n, false, spill_dir, queries, schedule);
  std::optional<Pass> traced;
  if (args.trace) {
    traced = RunPass(*w, args.seed, n, true, spill_dir, queries, schedule);
  }

  // The reference is computed after serving, outside every timed region.
  std::set<size_t> answered;
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool traced_answered = traced && traced->runs[i].status.ok();
    if (untraced.runs[i].status.ok() || traced_answered) answered.insert(i);
  }
  const Clock::time_point ref_t0 = Clock::now();
  const ReferenceAnswers reference = Reference(*w, queries, answered);
  std::printf("reference: %zu answered queries checked in %.1f s\n",
              answered.size(),
              std::chrono::duration<double>(Clock::now() - ref_t0).count());

  std::vector<bool> ok;
  const Tally tally =
      Classify(untraced, queries, reference, w->name, args.seed, ok);
  const EndToEnd e2e = Summarize(*w, untraced, tally, ok);
  Tally report = tally;
  Metrics m;
  if (!args.trace) {
    std::printf("end-to-end (%d queries due, %d answered):\n", tally.due,
                tally.answered);
    if (e2e.latency_p50_ms) {
      m.Add("latency_p50_ms", *e2e.latency_p50_ms, "ms", e2e.samples);
    }
    if (e2e.latency_p90_ms) {
      m.Add("latency_p90_ms", *e2e.latency_p90_ms, "ms", e2e.samples);
    }
    m.Add("answered_frac", e2e.answered_frac, "frac", tally.due);
    m.Add("goodput_qps", e2e.goodput_qps, "1/s", tally.answered);
    m.Add("setup_s", NearestRank(setups, 50), "s",
          static_cast<int>(setups.size()));
    m.Add("setup_rss_mb", untraced.setup_rss_mb, "MB");
  } else {
    std::vector<bool> traced_ok;
    report = Classify(*traced, queries, reference, w->name, args.seed,
                      traced_ok);
    const EndToEnd traced_e2e = Summarize(*w, *traced, report, traced_ok);
    std::printf("per-layer (traced run, %d queries due, %d answered):\n",
                report.due, report.answered);
    LayerMetrics(*traced, report, traced_e2e, e2e, m);
    if (!args.trace_out.empty()) {
      if (!WriteChromeTrace(args.trace_out, *traced)) {
        throw SetupError("cannot write " + args.trace_out);
      }
      std::printf("chrome trace: %s (%zu program spans, %zu bench spans)\n",
                  args.trace_out.c_str(), traced->spans.size(),
                  traced->bench_spans.size());
    }
  }
  const int wrong = tally.wrong + (args.trace ? report.wrong : 0);
  std::printf("failures of %d due: unavailable %d, deadline %d, refused %d, "
              "generation %d, wrong %d\n",
              report.due, report.unavailable, report.deadline, report.refused,
              report.generation, report.wrong);
  double late_max_ms = 0.0;
  for (const QueryRun& r : untraced.runs) {
    late_max_ms = std::max(late_max_ms, (r.send_us - r.due_us) / 1e3);
  }
  // Later than one batch window, a query can miss the batch it was due
  // for: the offered load is no longer the schedule's.
  if (late_max_ms > MakeConfig(*w).batch_window_us / 1e3) {
    std::printf("WARNING: generator fell behind its schedule by %.1f ms\n",
                late_max_ms);
  }
  if (w->spill) std::filesystem::remove_all(spill_dir);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              wrong == 0 ? "true" : "false", report.due, report.failed(),
              m.Json().c_str());
  std::fflush(stdout);
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qsys::servebench

int main(int argc, char** argv) {
  try {
    return qsys::servebench::Main(argc, argv);
  } catch (const qsys::servebench::SetupError& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "setup error: %s\n", e.what().c_str());
    return 3;
  }
}
