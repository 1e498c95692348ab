// ldc_sgm / annular_sgms — the paper's time-to-accuracy quantity on a
// full-scale scenario with its recommended SGM sampler.
//
// Untraced run: ScenarioRegistry::make + SgmSampler (set-up, repeated and
// reported as a median), then pinn::Trainer::run for a fixed iteration
// count, then repeats of it that stop at the target. The only probe is a
// step clock — one timestamp per iteration in a decorating Sampler — for
// the step-latency quantiles.
//
// Traced run (--trace 1): the untraced run once, then the same training
// again through decorating PinnProblem / Sampler wrappers and a copy of
// the trainer's loop that calls Tape::backward, Mlp::collect_grads_into and
// Adam::step itself, with a span around every call into the library. The
// traced SGM sampler re-composes Algorithm 1 from the library's public
// stage functions (build_pgm, effective_resistance_embedding,
// lrd_decompose_with_embedding, compute_isr, score_clusters, build_epoch),
// which is what lets S1/S2/S3 be timed without touching src/. The traced
// history must equal the untraced one bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "cfd/ldc_solver.hpp"
#include "checks.hpp"
#include "core/cluster_store.hpp"
#include "core/epoch_builder.hpp"
#include "core/pgm.hpp"
#include "core/refresh_scheduler.hpp"
#include "core/scorer.hpp"
#include "core/sgm_sampler.hpp"
#include "graph/effective_resistance.hpp"
#include "graph/knn.hpp"
#include "graph/lrd.hpp"
#include "nn/optimizer.hpp"
#include "pinn/scenario.hpp"
#include "spade/isr.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sgm;

struct TrainSpec {
  const char* workload;
  const char* scenario;
  /// S1/S2 rebuild threads; also SGM_NUM_THREADS, which every library
  /// default of 0 resolves to. The tape always runs serially: with 2 tape
  /// threads, ldc_sgm's step time varied 4.8-9.2 ms between identical runs
  /// on a 4-vCPU VM, more than any bound allows.
  std::size_t rebuild_threads;
  std::uint64_t iterations;
  /// time_to_target_s = time_to_reach(target_metric, target), validated
  /// every `validate_every` iterations (0 = the scenario's own 500). The
  /// cadence, metric and target are chosen so that every seed tried first
  /// reaches the target at the first validation, with a wide margin:
  /// errors are not monotone and spread widely across seeds, so any target
  /// that some seeds reach one validation earlier than others makes T jump
  /// a whole validation interval from seed to seed.
  std::uint64_t validate_every;
  const char* target_metric;
  double target;
  int setup_reps;  ///< set-ups per untraced run; setup_s is their median
  /// Grid size of the full-scale FD reference solve the scenario runs
  /// (mirrors make_ldc: n = 81, Re = 10); 0 = no reference solve.
  int reference_grid;
  /// The traced run also measures the serving layers (add_serving_layers),
  /// so that serve_http, whose end-to-end figures swing too much on a
  /// shared host to gate (see README.md), still has every layer measured
  /// on a gated workload.
  bool serving_layers;
};

const TrainSpec kSpecs[] = {
    {"ldc_sgm", "ldc_zeroeq", 2, 2000, 1000, "u", 0.65, 2, 81, false},
    {"annular_sgms", "annular_ring_param", 1, 2000, 0, "u", 0.25, 9, 0, true},
};

const TrainSpec& find_spec(const std::string& workload) {
  for (const auto& s : kSpecs)
    if (workload == s.workload) return s;
  throw std::invalid_argument("unknown training workload " + workload);
}

pinn::ScenarioConfig make_config(const TrainSpec& spec, std::uint64_t seed) {
  auto cfg = pinn::ScenarioRegistry::instance().make(
      spec.scenario, pinn::ScenarioScale::kFull);
  cfg.net_seed = derive_seed(seed, 1);
  cfg.trainer.seed = derive_seed(seed, 2);
  cfg.trainer.max_iterations = spec.iterations;
  if (spec.validate_every) cfg.trainer.validate_every = spec.validate_every;
  cfg.trainer.wall_time_budget_s = 0.0;
  cfg.trainer.num_threads = 1;
  cfg.sgm.num_threads = spec.rebuild_threads;
  cfg.sgm.seed = derive_seed(seed, 3);
  cfg.sgm.lrd.er.seed = derive_seed(seed, 4);
  cfg.sgm.isr.seed = derive_seed(seed, 5);
  return cfg;
}

/// Decorating PinnProblem: forwards everything, opens a span around each
/// call when traced, and always accumulates validation time (the step
/// clock subtracts it, as the trainer's own wall clock does).
class ProbedProblem final : public pinn::PinnProblem {
 public:
  ProbedProblem(const pinn::PinnProblem& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  const tensor::Matrix& interior_points() const override {
    return inner_.interior_points();
  }
  std::size_t input_dim() const override { return inner_.input_dim(); }
  std::size_t output_dim() const override { return inner_.output_dim(); }

  tensor::VarId batch_loss(tensor::Tape& tape, const nn::Mlp& net,
                           const nn::Mlp::Binding& binding,
                           const std::vector<std::uint32_t>& rows,
                           util::Rng& rng) const override {
    ScopedSpan s(tracer_, "pinn.batch_loss");
    return inner_.batch_loss(tape, net, binding, rows, rng);
  }

  std::vector<double> pointwise_residual(
      const nn::Mlp& net,
      const std::vector<std::uint32_t>& rows) const override {
    ScopedSpan s(tracer_, "pinn.residual_eval");
    return inner_.pointwise_residual(net, rows);
  }

  std::vector<pinn::ValidationEntry> validate(
      const nn::Mlp& net) const override {
    const std::int64_t t0 = now_ns();
    std::vector<pinn::ValidationEntry> out;
    {
      ScopedSpan s(tracer_, "pinn.validate");
      out = inner_.validate(net);
    }
    validate_ns_ += now_ns() - t0;
    return out;
  }

  std::int64_t validate_ns() const { return validate_ns_; }

 private:
  const pinn::PinnProblem& inner_;
  Tracer* tracer_;
  mutable std::int64_t validate_ns_ = 0;
};

/// Decorating Sampler for the untraced run: stamps the start of every
/// iteration (the trainer calls maybe_refresh first thing in each step).
class StepClockSampler final : public samplers::Sampler {
 public:
  StepClockSampler(samplers::Sampler& inner, const ProbedProblem& problem)
      : inner_(inner), problem_(problem) {}

  std::string name() const override { return inner_.name(); }
  std::vector<std::uint32_t> next_batch(std::size_t batch_size,
                                        util::Rng& rng) override {
    return inner_.next_batch(batch_size, rng);
  }
  void maybe_refresh(std::uint64_t iteration,
                     const samplers::LossEvaluator& evaluate,
                     util::Rng& rng) override {
    start_ns_.push_back(now_ns());
    validate_ns_.push_back(problem_.validate_ns());
    inner_.maybe_refresh(iteration, evaluate, rng);
  }

  /// Wall seconds of every completed step but the last, validation
  /// excluded.
  std::vector<double> step_seconds() const {
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < start_ns_.size(); ++i)
      out.push_back(static_cast<double>((start_ns_[i + 1] - start_ns_[i]) -
                                        (validate_ns_[i + 1] - validate_ns_[i])) *
                    1e-9);
    return out;
  }

 private:
  samplers::Sampler& inner_;
  const ProbedProblem& problem_;
  std::vector<std::int64_t> start_ns_, validate_ns_;
};

/// core::SgmSampler's synchronous full-rebuild path (the recommended
/// configuration of both workloads), re-composed from the library's public
/// stage functions with a span around each. Must stay call-for-call
/// identical to SgmSampler: the traced run checks the histories bitwise.
class TracedSgmSampler final : public samplers::Sampler {
 public:
  TracedSgmSampler(const tensor::Matrix& points, const core::SgmOptions& opt,
                   Tracer* tracer)
      : points_(points),
        opt_(opt),
        schedule_(opt.tau_e, opt.tau_g, opt.cadence),
        dealer_(static_cast<std::uint32_t>(points.rows())),
        tracer_(tracer) {
    if (opt_.incremental_refresh || opt_.async_rebuild)
      throw std::invalid_argument(
          "TracedSgmSampler mirrors the synchronous full-rebuild path only");
    if (opt_.num_threads) {
      opt_.pgm.num_threads = opt_.num_threads;
      opt_.lrd.num_threads = opt_.num_threads;
    }
    ScopedSpan s(tracer_, "core.sampler_init");
    graph::Clustering c = decompose(build(opt_.pgm));
    ScopedSpan store(tracer_, "core.cluster_store");
    clusters_ = core::ClusterStore(std::move(c));
  }

  std::string name() const override { return opt_.use_isr ? "sgm-s" : "sgm"; }

  std::vector<std::uint32_t> next_batch(std::size_t batch_size,
                                        util::Rng& rng) override {
    ScopedSpan s(tracer_, "samplers.next_batch");
    return dealer_.next(batch_size, rng);
  }

  void maybe_refresh(std::uint64_t iteration,
                     const samplers::LossEvaluator& evaluate,
                     util::Rng& rng) override {
    ScopedSpan s(tracer_, "samplers.maybe_refresh");
    const bool score_now = schedule_.should_score(iteration);
    if (schedule_.should_rebuild(iteration)) {
      ScopedSpan r(tracer_, "samplers.rebuild");
      core::PgmOptions pgm = opt_.pgm;
      pgm.output_feature_weight = opt_.rebuild_output_weight;
      graph::Clustering c = decompose(build(pgm));
      ScopedSpan store(tracer_, "core.cluster_store");
      clusters_.rebuild(std::move(c));
      ++rebuilds_;
    }
    if (!score_now) return;
    ++score_calls_;
    core::ClusterStore::Representatives reps;
    {
      ScopedSpan t(tracer_, "core.sample_representatives");
      reps = clusters_.sample_representatives(opt_.rep_fraction, rng);
    }
    const std::vector<double> rep_loss = evaluate(reps.node);
    loss_evaluations_ += reps.node.size();
    std::vector<double> rep_isr;
    if (opt_.use_isr && reps.node.size() > 2)
      rep_isr = representative_isr(reps, rep_loss);
    core::ClusterScores scores;
    {
      ScopedSpan t(tracer_, "core.score_clusters");
      scores = core::score_clusters(clusters_, reps, rep_loss, rep_isr,
                                    opt_.scorer);
    }
    core::Epoch epoch;
    {
      ScopedSpan t(tracer_, "core.build_epoch");
      epoch = core::build_epoch(clusters_, scores.combined, opt_.epoch, rng);
    }
    ScopedSpan t(tracer_, "samplers.set_epoch");
    dealer_.set_epoch(std::move(epoch.indices), rng);
  }

  std::uint64_t rebuilds() const { return rebuilds_; }
  std::uint64_t score_calls() const { return score_calls_; }

 private:
  graph::CsrGraph build(const core::PgmOptions& pgm) {
    ScopedSpan s(tracer_, "core.build_pgm");
    return core::build_pgm(points_, nullptr, pgm);
  }

  /// graph::lrd_decompose, split at its ER embedding.
  graph::Clustering decompose(const graph::CsrGraph& g) {
    graph::ErOptions er = opt_.lrd.er;
    if (opt_.lrd.num_threads) er.num_threads = opt_.lrd.num_threads;
    tensor::Matrix z;
    {
      ScopedSpan s(tracer_, "graph.er_embedding");
      z = graph::effective_resistance_embedding(g, er);
    }
    ScopedSpan s(tracer_, "graph.lrd");
    return graph::lrd_decompose_with_embedding(g, z, opt_.lrd);
  }

  /// S3: ISR over the representative subset, as SgmSampler computes it.
  std::vector<double> representative_isr(
      const core::ClusterStore::Representatives& reps,
      const std::vector<double>& rep_loss) {
    ScopedSpan s(tracer_, "spade.isr");
    tensor::Matrix sub(reps.node.size(), points_.cols());
    for (std::size_t i = 0; i < reps.node.size(); ++i)
      for (std::size_t c = 0; c < points_.cols(); ++c)
        sub(i, c) = points_(reps.node[i], c);
    graph::KnnGraphOptions kx;
    kx.k = std::min(opt_.isr_subset_k, reps.node.size() - 1);
    kx.weight = graph::KnnWeight::kInverse;
    graph::CsrGraph gx;
    {
      ScopedSpan t(tracer_, "graph.build_knn_graph");
      gx = graph::build_knn_graph(sub, kx);
    }
    tensor::Matrix y(reps.node.size(), 1);
    for (std::size_t i = 0; i < reps.node.size(); ++i) y(i, 0) = rep_loss[i];
    ScopedSpan t(tracer_, "spade.compute_isr");
    return spade::compute_isr(gx, y, opt_.isr).node_score;
  }

  const tensor::Matrix& points_;
  core::SgmOptions opt_;
  core::RefreshScheduler schedule_;
  core::ClusterStore clusters_;
  samplers::EpochDealer dealer_;
  Tracer* tracer_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t score_calls_ = 0;
};

/// pinn::Trainer::run's healthy path (no rollback, checkpoint or budget),
/// with spans. Each iteration is a "train.step" span whose children are
/// the stages; its self time is the loop's own glue.
pinn::TrainHistory traced_train(const pinn::PinnProblem& problem,
                                nn::Mlp& net, samplers::Sampler& sampler,
                                const pinn::TrainerOptions& opt,
                                Tracer& tracer) {
  util::Rng rng(opt.seed);
  nn::Adam adam(opt.learning_rate);
  const nn::ExponentialDecaySchedule schedule(
      opt.learning_rate, opt.lr_gamma, opt.lr_decay_steps);
  const samplers::LossEvaluator evaluate =
      [&](const std::vector<std::uint32_t>& rows) {
        return problem.pointwise_residual(net, rows);
      };

  pinn::TrainHistory history;
  history.sampler_name = sampler.name();
  double train_wall = 0.0, loss_accum = 0.0;
  std::uint64_t loss_count = 0;

  tensor::Tape tape;
  tape.set_num_threads(util::resolve_threads(opt.num_threads));
  nn::Mlp::Binding binding;
  std::vector<tensor::Matrix> grads;
  const std::vector<tensor::Matrix*> params = net.parameters();

  for (std::uint64_t it = 0; it < opt.max_iterations;) {
    {
      ScopedSpan step(&tracer, "train.step");
      util::WallTimer step_timer;
      sampler.maybe_refresh(it, evaluate, rng);
      const std::vector<std::uint32_t> rows =
          sampler.next_batch(opt.batch_size, rng);
      {
        ScopedSpan s(&tracer, "nn.bind");
        tape.clear();
        net.bind(tape, &binding);
      }
      const tensor::VarId loss =
          problem.batch_loss(tape, net, binding, rows, rng);
      {
        ScopedSpan s(&tracer, "tensor.backward");
        tape.backward(loss);
      }
      {
        ScopedSpan s(&tracer, "nn.collect_grads");
        net.collect_grads_into(tape, binding, &grads);
      }
      const double loss_value = tape.value(loss)(0, 0);
      if (!std::isfinite(loss_value))
        throw std::runtime_error("traced run: non-finite loss at iteration " +
                                 std::to_string(it));
      {
        ScopedSpan s(&tracer, "nn.adam_step");
        adam.set_learning_rate(schedule.lr(it));
        adam.step(params, grads);
      }
      train_wall += step_timer.elapsed_s();
      loss_accum += loss_value;
      ++loss_count;
      ++it;
    }
    if (it % opt.validate_every == 0 || it == opt.max_iterations) {
      pinn::TrainRecord rec;
      rec.iteration = it;
      rec.train_wall_s = train_wall;
      rec.mean_loss = loss_count ? loss_accum / loss_count : 0.0;
      rec.validation = problem.validate(net);
      loss_accum = 0.0;
      loss_count = 0;
      history.records.push_back(std::move(rec));
    }
  }
  history.total_train_wall_s = train_wall;
  history.sampler_loss_evaluations = sampler.loss_evaluations();
  return history;
}

struct UntracedRun {
  pinn::TrainHistory history;
  std::vector<double> step_s;
  std::uint64_t loss_evaluations = 0;
};

/// Trains a fresh net from cfg.net_seed for `iterations` steps.
UntracedRun untraced_train(const pinn::ScenarioConfig& cfg,
                           samplers::Sampler& sampler,
                           std::uint64_t iterations) {
  ProbedProblem problem(*cfg.problem, nullptr);
  StepClockSampler clock(sampler, problem);
  util::Rng rng(cfg.net_seed);
  nn::Mlp net(cfg.net, rng);
  pinn::TrainerOptions trainer = cfg.trainer;
  trainer.max_iterations = iterations;
  UntracedRun run;
  run.history = pinn::Trainer(problem, net, clock, trainer).run();
  run.step_s = clock.step_seconds();
  run.loss_evaluations = sampler.loss_evaluations();
  return run;
}

void add_check(Result& r, const std::string& what, const std::string& why) {
  if (!why.empty()) r.fail(what + ": " + why);
}

void report_layers(Result& r, const Tracer& tracer,
                   const TracedSgmSampler& sampler, std::uint64_t iterations,
                   double traced_train_s, double untraced_train_s) {
  const auto totals = tracer.totals();
  auto total = [&](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto layer = [&](const char* metric, double v, const char* unit) {
    r.per_layer.push_back({metric, v, unit});
  };
  layer("cfd.reference_solve_s", total("cfd.solve_lid_driven_cavity"), "s");
  layer("core.sampler_init_s", total("core.sampler_init"), "s");
  layer("core.build_pgm_s", total("core.build_pgm"), "s");
  layer("graph.er_embedding_s", total("graph.er_embedding"), "s");
  layer("graph.lrd_s", total("graph.lrd"), "s");
  layer("spade.isr_s", total("spade.isr"), "s");
  layer("core.score_clusters_s", total("core.score_clusters"), "s");
  layer("core.build_epoch_s", total("core.build_epoch"), "s");
  layer("samplers.refresh_s", total("samplers.maybe_refresh"), "s");
  layer("samplers.refresh_calls", static_cast<double>(sampler.score_calls()),
        "count");
  layer("samplers.rebuilds", static_cast<double>(sampler.rebuilds()), "count");
  layer("samplers.next_batch_s", total("samplers.next_batch"), "s");
  layer("samplers.loss_eval_rows_per_iter",
        static_cast<double>(sampler.loss_evaluations()) /
            static_cast<double>(iterations),
        "rows");
  layer("pinn.batch_loss_s", total("pinn.batch_loss"), "s");
  layer("pinn.residual_eval_s", total("pinn.residual_eval"), "s");
  layer("pinn.validate_s", total("pinn.validate"), "s");
  layer("tensor.backward_s", total("tensor.backward"), "s");
  layer("nn.collect_grads_s", total("nn.collect_grads"), "s");
  layer("nn.adam_step_s", total("nn.adam_step"), "s");
  layer("trace.overhead_s", traced_train_s - untraced_train_s, "s");

  // The stages are the direct children of train.step; what they do not
  // cover is the loop's glue plus the span bookkeeping itself.
  const auto step = totals.find("train.step");
  const double step_total = step == totals.end() ? 0.0 : step->second.total_s;
  const double coverage =
      step_total > 0.0 ? 1.0 - step->second.self_s / step_total : 0.0;
  layer("trace.stage_coverage", coverage, "ratio");
  r.info.push_back({"trace.traced_train_s", traced_train_s, "s"});
  r.info.push_back({"trace.stage_sum_s", step_total * coverage, "s"});
  if (!(coverage >= 0.98))
    r.fail("traced stages cover only " + std::to_string(coverage) +
           " of the traced train time");

  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : totals)
    std::printf("%-34s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
}

}  // namespace

Result run_training_workload(const RunOptions& o) {
  const TrainSpec& spec = find_spec(o.workload);
  // Library defaults of 0 threads (e.g. the ISR subset kNN) resolve here.
  setenv("SGM_NUM_THREADS", std::to_string(spec.rebuild_threads).c_str(), 1);

  Result r;
  std::vector<double> setup_s;
  std::optional<pinn::ScenarioConfig> cfg;
  std::unique_ptr<core::SgmSampler> sampler;
  const int setups = o.trace ? 1 : spec.setup_reps;
  for (int i = 0; i < setups; ++i) {
    sampler.reset();
    cfg.reset();
    util::WallTimer t;
    cfg.emplace(make_config(spec, o.seed));
    sampler = std::make_unique<core::SgmSampler>(
        cfg->problem->interior_points(), cfg->sgm);
    setup_s.push_back(t.elapsed_s());
  }

  // One fixed-iteration run, whose history every check reads; then, when
  // untraced, repeats (fresh net and sampler, same seed) that stop at the
  // validation where that run first reached the target, until the repeats
  // have measured --seconds (at least kMinRepeats). Each repeat must replay
  // the full run's history bit for bit up to where it stops.
  // time_to_target_s and latency_p50_ms are medians over all runs.
  constexpr std::size_t kMinRepeats = 2;
  std::vector<UntracedRun> runs;
  runs.push_back(untraced_train(*cfg, *sampler, spec.iterations));
  r.attempted += spec.iterations;
  const pinn::TrainHistory first = runs.front().history;
  const double first_refresh_s = sampler->refresh_seconds();
  add_check(r, "training", check_training(first, cfg->envelopes));

  std::vector<double> ttt, p50, p99;
  auto record_target = [&](const UntracedRun& run) {
    double t = run.history.time_to_reach(spec.target_metric, spec.target);
    if (!std::isfinite(t)) {
      r.fail(std::string("target ") + spec.target_metric + " <= " +
             std::to_string(spec.target) + " never reached");
      t = run.history.total_train_wall_s;
    }
    ttt.push_back(t);
    p50.push_back(quantile(run.step_s, 0.50) * 1e3);
    p99.push_back(quantile(run.step_s, 0.99) * 1e3);
    std::printf("run %zu iterations=%llu time_to_target_s=%.6f "
                "step_p50_ms=%.6f\n",
                ttt.size(),
                static_cast<unsigned long long>(
                    run.history.records.back().iteration),
                t, p50.back());
  };
  record_target(runs.front());

  pinn::TrainHistory prefix = first;
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    const auto& v = first.records[i].validation;
    if (std::any_of(v.begin(), v.end(), [&](const pinn::ValidationEntry& e) {
          return e.name == spec.target_metric && e.error <= spec.target;
        })) {
      prefix.records.resize(i + 1);
      break;
    }
  }
  const std::uint64_t target_iterations = prefix.records.back().iteration;
  double repeated_s = 0.0;
  while (!o.trace &&
         (runs.size() < 1 + kMinRepeats || repeated_s < o.seconds)) {
    sampler = std::make_unique<core::SgmSampler>(
        cfg->problem->interior_points(), cfg->sgm);
    runs.push_back(untraced_train(*cfg, *sampler, target_iterations));
    r.attempted += target_iterations;
    const UntracedRun& run = runs.back();
    add_check(r, "repeat determinism", compare_histories(prefix, run.history));
    record_target(run);
    repeated_s += run.history.total_train_wall_s;
  }

  for (const auto& rec : first.records) {
    std::printf("history iteration=%llu",
                static_cast<unsigned long long>(rec.iteration));
    for (const auto& e : rec.validation)
      std::printf(" %s=%.4f", e.name.c_str(), e.error);
    std::printf("\n");
  }
  for (const auto& why : self_test_training(first, cfg->envelopes))
    r.fail(why);

  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"time_to_target_s", median(ttt), "s"},
      {"latency_p50_ms", median(p50), "ms"},
  };
  r.info.push_back({"train_s", first.total_train_wall_s, "s"});
  r.info.push_back({"step_latency_p99_ms", median(p99), "ms"});
  r.info.push_back({"min_error", first.best_error(spec.target_metric), "ratio"});
  r.info.push_back({"iterations", static_cast<double>(spec.iterations),
                    "count"});
  r.info.push_back({"training_runs", static_cast<double>(runs.size()),
                    "count"});
  r.info.push_back({"untraced.sampler_refresh_s", first_refresh_s,
                    "s"});

  if (o.trace) {
    Tracer tracer;
    if (spec.reference_grid > 0) {
      ScopedSpan s(&tracer, "cfd.solve_lid_driven_cavity");
      cfd::LdcOptions ref;
      ref.n = spec.reference_grid;
      ref.reynolds = 10.0;
      (void)cfd::solve_lid_driven_cavity(ref);
    }
    ProbedProblem problem(*cfg->problem, &tracer);
    TracedSgmSampler traced(cfg->problem->interior_points(), cfg->sgm,
                            &tracer);
    util::Rng rng(cfg->net_seed);
    nn::Mlp net(cfg->net, rng);
    const pinn::TrainHistory th =
        traced_train(problem, net, traced, cfg->trainer, tracer);
    add_check(r, "traced-run fidelity", compare_histories(first, th));
    if (traced.loss_evaluations() != runs.front().loss_evaluations)
      r.fail("traced-run fidelity: loss evaluations differ");
    report_layers(r, tracer, traced, spec.iterations, th.total_train_wall_s,
                  first.total_train_wall_s);
    std::error_code ec;
    std::filesystem::create_directories(".bench_build", ec);
    const std::string path = ".bench_build/trace_" + o.workload + "_seed" +
                             std::to_string(o.seed) + ".json";
    if (tracer.write_json(path))
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  path.c_str());
    else
      r.fail("cannot write the trace to " + path);
    r.per_layer.push_back(
        {"pinn.min_error", th.best_error(spec.target_metric), "ratio"});
    if (spec.serving_layers) add_serving_layers(r, o.seed);
  }
  return r;
}

}  // namespace perfbench
