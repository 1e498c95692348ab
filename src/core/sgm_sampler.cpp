#include "core/sgm_sampler.hpp"

#include <numeric>

#include "util/log.hpp"

namespace sgm::core {

using tensor::Matrix;

SgmSampler::SgmSampler(const Matrix& points, const SgmOptions& options)
    : points_(points),
      opt_(options),
      schedule_(options.tau_e, options.tau_g, options.cadence),
      dealer_(static_cast<std::uint32_t>(points.rows())) {
  if (opt_.num_threads) {
    opt_.pgm.num_threads = opt_.num_threads;
    opt_.lrd.num_threads = opt_.num_threads;
    opt_.isr.y_knn.num_threads = opt_.num_threads;
  }
  util::WallTimer timer;
  if (opt_.incremental_refresh) {
    IncrementalRefreshOptions eopt;
    eopt.pgm = opt_.pgm;
    eopt.pgm.output_feature_weight = opt_.rebuild_output_weight;
    eopt.lrd = opt_.lrd;
    eopt.dirty_tolerance = opt_.dirty_tolerance;
    eopt.incremental_threshold = opt_.incremental_threshold;
    eopt.er_stale_ratio = opt_.er_stale_ratio;
    eopt.num_threads = opt_.num_threads;
    engine_ = std::make_unique<IncrementalRefreshEngine>(points_, eopt);
    // The initial build is spatial (no outputs exist yet), exactly like the
    // legacy path. Its stats are not fed to the cadence: a 100% "dirty"
    // first build says nothing about drift.
    clusters_ = ClusterStore(engine_->refresh(nullptr, nullptr));
    loss_tracker_ = DirtyTracker(points_.rows(), 1,
                                 opt_.loss_dirty_tolerance);
    // Losses span decades across problems and training phases; the drift
    // threshold must be relative to each point's reference loss.
    loss_tracker_.set_relative_to_reference();
  } else {
    graph::CsrGraph g = build_pgm(points_, nullptr, opt_.pgm);
    clusters_ = ClusterStore(graph::lrd_decompose(g, opt_.lrd));
  }
  refresh_seconds_ += timer.elapsed_s();
  util::log_info() << "SgmSampler: initial PGM"
                   << (engine_ ? " (incremental engine)" : "")
                   << " n=" << points_.rows()
                   << " clusters=" << clusters_.num_clusters();
}

std::vector<std::uint32_t> SgmSampler::next_batch(std::size_t batch_size,
                                                  util::Rng& rng) {
  return dealer_.next(batch_size, rng);
}

std::unique_ptr<Matrix> SgmSampler::snapshot_outputs() const {
  if (!outputs_provider_ || opt_.rebuild_output_weight <= 0.0) return nullptr;
  std::vector<std::uint32_t> all(points_.rows());
  std::iota(all.begin(), all.end(), 0u);
  return std::make_unique<Matrix>(outputs_provider_(all));
}

void SgmSampler::observe_engine_stats() {
  // Feed the engine's measured dirty fraction to the cadence and absorb the
  // representative-loss drift the rebuild just answered. Only called at
  // deterministic points (rebuild boundaries / score barriers), so the
  // cadence is a pure function of the iteration schedule; only acts when a
  // rebuild actually completed since the last observation, so the loss
  // tracker's drift keeps accumulating across score refreshes in between.
  if (!engine_ || rebuild_count_ == observed_rebuilds_) return;
  observed_rebuilds_ = rebuild_count_;
  last_refresh_stats_ = engine_->last_stats();
  schedule_.observe_dirty_fraction(last_refresh_stats_.dirty_fraction);
  loss_tracker_.settle();
}

void SgmSampler::rebuild_clusters_incremental() {
  if (opt_.async_rebuild) {
    util::WallTimer timer;
    // Same barrier discipline as the legacy path: reap any in-flight
    // refresh first, so every scheduled rebuild is real and the engine is
    // never touched by two threads at once.
    async_.wait();
    if (auto done = async_.try_take()) {
      clusters_.rebuild(std::move(*done));
      ++rebuild_count_;
    }
    observe_engine_stats();
    // The provider evaluation (and the snapshot copy) stays on the training
    // thread and is charged to refresh_seconds_.
    std::shared_ptr<Matrix> outputs(snapshot_outputs().release());
    IncrementalRefreshEngine* engine = engine_.get();
    async_.launch_job([engine, outputs]() {
      return engine->refresh(outputs.get(), nullptr);
    });
    refresh_seconds_ += timer.elapsed_s();
    return;
  }
  util::WallTimer timer;
  std::unique_ptr<Matrix> outputs = snapshot_outputs();
  clusters_.rebuild(engine_->refresh(outputs.get(), nullptr));
  ++rebuild_count_;
  observe_engine_stats();
  refresh_seconds_ += timer.elapsed_s();
}

void SgmSampler::rebuild_clusters(util::Rng& rng) {
  (void)rng;
  if (engine_) {
    rebuild_clusters_incremental();
    return;
  }
  if (opt_.async_rebuild) {
    // The graph/cluster build overlaps training on the worker, but the
    // output-provider evaluation over all points (and the input snapshot)
    // happens right here on the training thread — charge it, or
    // refresh_seconds_ undercounts exactly when async + output-weighted
    // rebuilds are both on.
    util::WallTimer timer;
    // Reap any still-running previous rebuild first: launch() would
    // silently no-op on a busy worker, which both wastes the provider
    // evaluation below and makes *whether* this rebuild happens depend on
    // worker timing. Waiting keeps every scheduled rebuild real and the
    // clustering stream a pure function of the iteration schedule; the
    // stall only triggers when a rebuild outlives a whole tau_g window.
    async_.wait();
    if (auto done = async_.try_take()) {
      clusters_.rebuild(std::move(*done));
      ++rebuild_count_;
    }
    std::unique_ptr<Matrix> outputs = snapshot_outputs();
    PgmOptions pgm = opt_.pgm;
    pgm.output_feature_weight = opt_.rebuild_output_weight;
    async_.launch(points_, std::move(outputs), pgm, opt_.lrd);
    refresh_seconds_ += timer.elapsed_s();
    return;
  }
  util::WallTimer timer;
  std::unique_ptr<Matrix> outputs = snapshot_outputs();
  PgmOptions pgm = opt_.pgm;
  pgm.output_feature_weight = opt_.rebuild_output_weight;
  graph::CsrGraph g = build_pgm(points_, outputs.get(), pgm);
  clusters_.rebuild(graph::lrd_decompose(g, opt_.lrd));
  ++rebuild_count_;
  refresh_seconds_ += timer.elapsed_s();
}

std::vector<double> SgmSampler::representative_isr(
    const ClusterStore::Representatives& reps,
    const std::vector<double>& rep_loss) {
  // Input graph over the representative subset's coordinates...
  Matrix sub(reps.node.size(), points_.cols());
  for (std::size_t i = 0; i < reps.node.size(); ++i)
    for (std::size_t c = 0; c < points_.cols(); ++c)
      sub(i, c) = points_(reps.node[i], c);
  graph::KnnGraphOptions kx;
  kx.k = std::min(opt_.isr_subset_k, reps.node.size() - 1);
  kx.weight = graph::KnnWeight::kInverse;
  kx.num_threads = opt_.num_threads;
  graph::CsrGraph gx = graph::build_knn_graph(sub, kx);

  // ...output manifold = the current losses at those representatives (the
  // paper: "F(X) in this case being the NN", applied to the NN losses).
  Matrix y(reps.node.size(), 1);
  for (std::size_t i = 0; i < reps.node.size(); ++i) y(i, 0) = rep_loss[i];

  spade::IsrResult isr = spade::compute_isr(gx, y, opt_.isr);
  return isr.node_score;
}

void SgmSampler::maybe_refresh(std::uint64_t iteration,
                               const samplers::LossEvaluator& evaluate,
                               util::Rng& rng) {
  // Swap in a finished background rebuild, if any (line 16-17: S <- S_new).
  // The swap (ClusterStore rebuild) runs on the training thread and is
  // charged to refresh_seconds_ like every other sampler cost. The cadence
  // signal is NOT read here: this take's timing depends on the worker, and
  // the schedule must stay a pure function of the iteration stream.
  if (opt_.async_rebuild) {
    util::WallTimer swap_timer;
    if (auto done = async_.try_take()) {
      clusters_.rebuild(std::move(*done));
      ++rebuild_count_;
      refresh_seconds_ += swap_timer.elapsed_s();
    }
  }
  // Determinism barrier: a score refresh synchronizes with any in-flight
  // async rebuild before reading the clustering, so which clustering a
  // given epoch is built from depends only on the iteration schedule —
  // never on worker-thread timing — and same-seed runs produce identical
  // histories. The barrier runs BEFORE a possible same-iteration rebuild
  // launch (tau_g aligned to a tau_e multiple is the recommended setup):
  // that launch then overlaps the next window instead of being waited on
  // immediately. The (rare) wait is sampler overhead, charged accordingly.
  const bool score_now = schedule_.should_score(iteration);
  if (score_now && opt_.async_rebuild) {
    util::WallTimer wait_timer;
    async_.wait();  // no-op when nothing is in flight
    if (auto done = async_.try_take()) {
      clusters_.rebuild(std::move(*done));
      ++rebuild_count_;
    }
    // A deterministic point: any rebuild launched in the previous window is
    // complete and its measured dirty fraction may steer the cadence.
    observe_engine_stats();
    refresh_seconds_ += wait_timer.elapsed_s();
  }
  if (schedule_.should_rebuild(iteration)) rebuild_clusters(rng);
  if (!score_now) return;

  util::WallTimer timer;
  // Lines 5-6: r% representatives per cluster, score their losses.
  ClusterStore::Representatives reps =
      clusters_.sample_representatives(opt_.rep_fraction, rng);
  std::vector<double> rep_loss = evaluate(reps.node);
  loss_evaluations_ += reps.node.size();

  // Representative-loss drift estimates the population dirty fraction
  // between rebuilds — the free cadence signal (core/dirty_tracker).
  if (engine_) {
    loss_tracker_.observe(reps.node, rep_loss);
    schedule_.observe_dirty_fraction(loss_tracker_.dirty_fraction());
  }

  // Line 7 (S3): ISR on the same subset, normalized with the losses.
  std::vector<double> rep_isr;
  if (opt_.use_isr && reps.node.size() > 2) {
    rep_isr = representative_isr(reps, rep_loss);
  }

  // Lines 8-10: combine, rank, materialize the epoch.
  last_scores_ = score_clusters(clusters_, reps, rep_loss, rep_isr,
                                opt_.scorer);
  Epoch epoch = build_epoch(clusters_, last_scores_.combined, opt_.epoch, rng);
  last_epoch_size_ = epoch.indices.size();
  dealer_.set_epoch(std::move(epoch.indices), rng);
  refresh_seconds_ += timer.elapsed_s();
}

}  // namespace sgm::core
