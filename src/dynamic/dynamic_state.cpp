#include "dynamic/dynamic_state.hpp"

#include <algorithm>
#include <utility>

#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "support/assert.hpp"

namespace distbc::dynamic {

DynamicState::DynamicState(std::shared_ptr<const graph::Graph> initial)
    : graph_(std::move(initial)) {}

ApplyReport DynamicState::apply(EdgeBatch batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  ApplyReport report;
  if (batch.empty()) {
    report.status = api::Status::error("edge batch is empty");
    report.version = graph_.version();
    report.fingerprint = graph_.fingerprint();
    return report;
  }
  if (const api::Status status = batch.validate(*graph_.snapshot());
      !status) {
    report.status = status;
    report.version = graph_.version();
    report.fingerprint = graph_.fingerprint();
    return report;
  }

  report.had_deletes = !batch.deletes().empty();
  // A deletion batch that deletes only edges inserted since the proof
  // keeps the proven snapshot inside the new graph (file comment).
  const bool covered =
      report.had_deletes && proof_.bound != 0 &&
      std::ranges::all_of(batch.deletes(), [&](const Edge& edge) {
        return proof_.added.contains(edge);
      });
  report.in_place = graph_.apply(batch);
  // Deletions can split the graph; the sampling estimators (and every live
  // incremental engine) require a connected one, so a disconnecting batch
  // rolls back instead of poisoning later queries. A covered batch cannot:
  // the new graph contains the connected proven snapshot.
  if (report.had_deletes && !covered &&
      !graph::is_connected(*graph_.snapshot())) {
    graph_.revert(batch);
    report.status =
        api::Status::error("edge batch disconnects the graph (rejected)");
    report.version = graph_.version();
    report.fingerprint = graph_.fingerprint();
    return report;
  }
  report.status = api::Status::success();
  report.version = graph_.version();
  report.fingerprint = graph_.fingerprint();
  report.edges_inserted = batch.inserts().size();
  report.edges_deleted = batch.deletes().size();

  // Bound policy: insert-only batches only shrink distances, so every
  // cached vertex-diameter bound stays a valid upper bound - nothing is
  // recomputed (diameter_bound stays 0). A covered deletion batch reports
  // the proof's bound. Any other deletion batch recomputes one bound on
  // the NEW snapshot for every engine and downstream cache (e.g. Session
  // warm states) and re-proves on it: omega reads only its bucket, so
  // iFUB stops there.
  if (report.had_deletes && !covered) {
    const graph::VertexDiameterBound bound =
        graph::vertex_diameter(*graph_.snapshot(), /*ifub=*/true);
    version_bound_ = VersionBound{graph_.version(), bound.value};
    report.diameter_bound = bound.value;
    report.diameter_bfs = bound.num_bfs;
    proof_ = Proof{bound.value, {}};
  } else if (proof_.bound != 0) {
    for (const Edge& edge : batch.deletes()) proof_.added.erase(edge);
    proof_.added.insert(batch.inserts().begin(), batch.inserts().end());
    if (covered) report.diameter_bound = proof_.bound;
  }

  for (auto& [key, engine] : engines_) {
    // No engine sits below the proof's bucket: its first run proved a bound
    // at least as tight (query()), and every refresh raises its bound to the
    // reported one. So the proof's bound decides exactly as a recompute
    // would.
    DISTBC_DEBUG_ASSERT(!covered ||
                        graph::omega_bucket(engine->vertex_diameter()) >=
                            graph::omega_bucket(proof_.bound));
    const IncrementalBc::RefreshStats stats =
        engine->refresh(graph_.snapshot(), batch, report.diameter_bound);
    ++report.engines_refreshed;
    report.samples_retained += stats.retained;
    report.samples_dirty += stats.dirty;
    report.samples_resampled += stats.resampled;
    report.samples_topup += stats.topup;
    report.recalibrations += stats.recalibrated ? 1 : 0;
  }
  return report;
}

DynamicState::QueryView DynamicState::query(const bc::KadabraParams& params) {
  std::lock_guard<std::mutex> lock(mutex_);
  QueryView view;
  auto& engine = engines_[engine_key(params)];
  if (engine == nullptr) {
    engine = std::make_unique<IncrementalBc>(params);
    engine->run(graph_.snapshot());
    // Phase 1's bound is a proof on the current snapshot. It replaces the
    // held one only in a lower bucket: an equal bucket changes no decision
    // and would only forget the edges inserted since the held proof.
    const std::uint32_t bound = engine->vertex_diameter();
    if (proof_.bound == 0 ||
        graph::omega_bucket(bound) < graph::omega_bucket(proof_.bound)) {
      proof_ = Proof{bound, {}};
    }
    view.first_run = true;
    view.diameter_bfs = engine->diameter_bfs();
  }
  view.status = api::Status::success();
  view.scores = engine->scores();
  view.samples = engine->samples();
  view.epochs = engine->epochs();
  view.vertex_diameter = engine->vertex_diameter();
  return view;
}

std::uint32_t DynamicState::proven_bound() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!version_bound_ || version_bound_->version != graph_.version()) {
    version_bound_ = VersionBound{
        graph_.version(),
        graph::vertex_diameter(*graph_.snapshot(), /*ifub=*/true).value};
  }
  return version_bound_->value;
}

std::shared_ptr<const graph::Graph> DynamicState::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.snapshot();
}

std::uint64_t DynamicState::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.version();
}

std::uint64_t DynamicState::fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.fingerprint();
}

MutableGraph::Stats DynamicState::graph_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.stats();
}

std::size_t DynamicState::engine_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engines_.size();
}

}  // namespace distbc::dynamic
