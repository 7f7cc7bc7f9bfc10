#include "src/core/qsystem.h"

#include <algorithm>

namespace qsys {

QSystem::QSystem(QConfig config)
    : engine_(std::make_unique<Engine>(config)) {}

QSystem::~QSystem() = default;

Result<int> QSystem::Pose(const std::string& keywords, int user_id,
                          VirtualTime at_us,
                          const CandidateGenOptions* options) {
  if (!engine_->finalized()) {
    return Status::FailedPrecondition("FinalizeCatalog() not called");
  }
  PendingArrival arrival;
  arrival.at_us = at_us;
  arrival.keywords = keywords;
  arrival.user_id = user_id;
  if (options != nullptr) arrival.options = *options;
  arrival.uq_id = engine_->AllocateUqId();
  arrivals_.push_back(std::move(arrival));
  return arrivals_.back().uq_id;
}

Status QSystem::Run() {
  if (!engine_->finalized()) {
    return Status::FailedPrecondition("FinalizeCatalog() not called");
  }
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const PendingArrival& a, const PendingArrival& b) {
                     return a.at_us < b.at_us;
                   });
  engine_->ResetRoundBudget();  // max_rounds bounds one Run()
  size_t next_arrival = 0;

  for (;;) {
    // Run every event before the next arrival, in virtual-time order,
    // then ingest it.
    Engine::DrainOptions drain;
    drain.arrival_horizon = next_arrival < arrivals_.size()
                                ? arrivals_[next_arrival].at_us
                                : Engine::kNeverUs;
    drain.pace_to_horizon = true;
    QSYS_RETURN_IF_ERROR(engine_->Drain(drain).status());
    if (next_arrival >= arrivals_.size()) break;  // timeline exhausted
    const PendingArrival& a = arrivals_[next_arrival];
    // Generation failures are per-user outcomes, recorded by the engine
    // in generation_failures(); the timeline keeps playing.
    engine_->Ingest(a.uq_id, a.keywords, a.user_id, a.at_us, a.options);
    ++next_arrival;
  }
  engine_->FinishRun();
  return Status::OK();
}

}  // namespace qsys
