// Workload `train`: data-parallel SDNet training (Algorithm 1) with
// train_sdnet on 2 threaded ranks, LAMB, the fig7 network and loss
// configuration, at MF_PRECISION=f32. The only workload with backward
// passes, optimizer updates, the gradient allreduce and f32 compute plans.
// The GP dataset is generated in set-up.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "comm/world.hpp"
#include "gp/dataset.hpp"
#include "mosaic/trainer.hpp"

namespace perfbench {
namespace {

using namespace mf;

constexpr int kRanks = 2;
constexpr std::int64_t kM = 8;
constexpr std::int64_t kTrainBvps = 96;  // global; strided shards per rank
constexpr std::int64_t kValBvps = 8;
constexpr std::int64_t kEpochs = 8;       // per training trial
// Bound on the validation MSE after one trial from the fixed
// initialisation: about three times the 0.084 it reached when the
// workload was defined.
constexpr double kValMseBound = 0.25;

mosaic::TrainConfig train_config() {
  mosaic::TrainConfig c;
  c.epochs = kEpochs;
  c.batch_size = 8;
  c.q_data = 32;
  c.q_colloc = 16;
  c.max_lr = 5e-3;
  c.pde_loss_weight = 0.3;
  c.optimizer = mosaic::OptimizerKind::kLamb;
  return c;
}

mosaic::SdnetConfig net_config() {
  mosaic::SdnetConfig c;
  c.boundary_size = 4 * kM;
  c.hidden_width = 64;
  c.mlp_depth = 4;
  return c;
}

/// One rank's view of one epoch.
struct EpochRecord {
  double t0 = 0, t1 = 0;  // wall clock
  double cpu_s = 0;
  double allreduce_wall_s = 0;
  double allreduce_model_s = 0;
  double train_loss = 0, val_mse = 0;
};

}  // namespace

void run_train(const Options& opt, Report& r) {
  r.note("callers", "1");
  r.note("ranks", std::to_string(kRanks));
  r.note("workers", "0");
  const mosaic::TrainConfig cfg = train_config();
  const mosaic::SdnetConfig net_cfg = net_config();
  for (double v : {static_cast<double>(kRanks), static_cast<double>(kM),
                   static_cast<double>(kTrainBvps), static_cast<double>(kValBvps),
                   static_cast<double>(kEpochs), kValMseBound, cfg.max_lr,
                   cfg.pde_loss_weight, static_cast<double>(cfg.batch_size),
                   static_cast<double>(cfg.q_data), static_cast<double>(cfg.q_colloc),
                   static_cast<double>(net_cfg.hidden_width),
                   static_cast<double>(net_cfg.mlp_depth)}) {
    r.config.add(v);
  }

  // Set-up: generate the GP dataset (GP sampling + multigrid solves) and
  // start the rank world.
  std::vector<gp::SolvedBvp> train, val;
  std::unique_ptr<comm::World> world;
  std::vector<double> dataset_s;
  auto teardown = [&] {
    world.reset();
    train.clear();
    val.clear();
  };
  auto setup = [&] {
    const double t0 = now_s();
    gp::LaplaceDatasetGenerator gen(kM, {}, opt.seed);
    train = gen.generate_many(kTrainBvps);
    val = gen.generate_many(kValBvps);
    dataset_s.push_back(now_s() - t0);
    world = std::make_unique<comm::World>(kRanks);
  };
  SetupTimer setups;
  setups.batch(teardown, setup);
  for (const auto& b : train) r.inputs.add(b.boundary);
  for (const auto& b : val) r.inputs.add(b.boundary);

  // Trials: train_sdnet from the same initial replica, kEpochs each,
  // back to back until the window is used (whole trials only).
  std::vector<std::vector<EpochRecord>> trials[kRanks];
  std::vector<double> trial_time;
  const double t_start = now_s();
  do {
    const double trial_t0 = now_s();
    for (auto& s : trials) s.emplace_back();
    world->run([&](comm::Comm& c) {
      const int rk = c.rank();
      util::Rng rng(42);  // identical replica initialisation on every rank
      mosaic::Sdnet net(net_cfg, rng);
      std::vector<gp::SolvedBvp> shard;
      for (std::size_t i = static_cast<std::size_t>(rk); i < train.size(); i += kRanks) {
        shard.push_back(train[i]);
      }
      gp::LaplaceDatasetGenerator local_gen(kM, {}, 99 + static_cast<unsigned>(rk));
      std::vector<EpochRecord>& out = trials[rk].back();
      double prev_wall = 0, prev_cpu = 0, prev_model = 0, prev_ar = 0;
      mosaic::train_sdnet(net, shard, val, cfg, local_gen, &c,
                          [&](const mosaic::EpochStats& s) {
                            const double now = now_s();
                            EpochRecord e;
                            e.t1 = now;
                            e.t0 = now - (s.wall_seconds - prev_wall);
                            e.cpu_s = s.cpu_seconds - prev_cpu;
                            e.allreduce_model_s = s.comm_seconds - prev_model;
                            e.allreduce_wall_s = c.stats().allreduce.wall_seconds - prev_ar;
                            e.train_loss = s.train_loss;
                            e.val_mse = s.val_mse;
                            prev_wall = s.wall_seconds;
                            prev_cpu = s.cpu_seconds;
                            prev_model = s.comm_seconds;
                            prev_ar = c.stats().allreduce.wall_seconds;
                            out.push_back(e);
                          });
    });
    trial_time.push_back(now_s() - trial_t0);
  } while (now_s() - t_start < opt.seconds);
  const double window = now_s() - t_start;

  // ---- output checks (after the timed window) ----
  auto& rank0 = trials[0];
  if (opt.corrupt) rank0[0].back().val_mse = std::nan("");
  r.attempted = 0;
  for (std::size_t s = 0; s < rank0.size(); ++s) {
    for (std::size_t e = 0; e < rank0[s].size(); ++e) {
      ++r.attempted;
      const EpochRecord& rec = rank0[s][e];
      const EpochRecord& ref = rank0[0][e];
      std::string why;
      if (!std::isfinite(rec.train_loss) || !std::isfinite(rec.val_mse)) {
        why = "non-finite loss";
      } else if (rec.train_loss != ref.train_loss || rec.val_mse != ref.val_mse) {
        why = "differs from the first trial";  // same data, same bits
      } else if (e + 1 == rank0[s].size() && !(rec.val_mse < kValMseBound)) {
        why = "val_mse " + std::to_string(rec.val_mse) + " not under " +
              std::to_string(kValMseBound);
      }
      if (!why.empty()) {
        ++r.failed;
        r.complain("trial " + std::to_string(s) + " epoch " + std::to_string(e) +
                   ": " + why);
      }
    }
  }

  std::vector<double> epoch_ms, cpu_s;
  for (const auto& s : rank0) {
    for (const auto& e : s) {
      epoch_ms.push_back((e.t1 - e.t0) * 1e3);
      cpu_s.push_back(e.cpu_s);
    }
  }
  const double epochs = static_cast<double>(epoch_ms.size());
  if (!opt.trace) {
    setups.batch(teardown, setup);
    set_end_to_end(r, setups.median_s(), median(epoch_ms),
                   median_rate(kEpochs * kTrainBvps, trial_time));
    return;
  }

  // ---- per-layer readings (traced run) ----
  // Epoch spans are built after the run from the per-rank records the
  // callback keeps in every run; the rebuild is the tracing overhead.
  const double rebuild0 = now_s();
  Tracer tracer;
  const int op_lane = tracer.lane("epochs");
  int rank_lane[kRanks];
  for (int k = 0; k < kRanks; ++k) rank_lane[k] = tracer.lane("rank " + std::to_string(k));
  std::vector<double> allreduce_wall;
  double allreduce_model = 0;
  for (std::size_t s = 0; s < rank0.size(); ++s) {
    for (std::size_t e = 0; e < rank0[s].size(); ++e) {
      double t0 = rank0[s][e].t0, t1 = rank0[s][e].t1, ar = 0;
      for (int k = 0; k < kRanks; ++k) {
        t0 = std::min(t0, trials[k][s][e].t0);
        t1 = std::max(t1, trials[k][s][e].t1);
        ar = std::max(ar, trials[k][s][e].allreduce_wall_s);
      }
      allreduce_wall.push_back(ar);
      allreduce_model += rank0[s][e].allreduce_model_s;
      const std::int64_t op = static_cast<std::int64_t>(s * kEpochs + e);
      const int ops = tracer.open("epoch " + std::to_string(e), "other", op_lane, op, -1, t0);
      tracer.close(ops, t1);
      for (int k = 0; k < kRanks; ++k) {
        const EpochRecord& rec = trials[k][s][e];
        const int sp = tracer.open("train_sdnet epoch", "train", rank_lane[k], op, ops,
                                   rec.t0, 1.0 / kRanks);
        tracer.close(sp, rec.t1);
        Span a;
        a.name = "allreduce";
        a.layer = "comm";
        a.lane = rank_lane[k];
        a.op = op;
        a.parent = sp;
        a.t0 = rec.t0;
        a.t1 = rec.t0 + rec.allreduce_wall_s;
        a.weight = 1.0 / kRanks;
        a.derived = true;
        tracer.add(std::move(a));
      }
    }
  }
  const double rebuild_s = now_s() - rebuild0;

  r.set("train.epoch_s", median(epoch_ms) / 1e3, "s");
  r.set("train.cpu_s", median(cpu_s), "s");
  r.set("train.allreduce_s", allreduce_model / epochs, "s");
  r.set("train.val_mse", rank0[0].back().val_mse, "1");
  r.set("comm.allreduce_s", median(allreduce_wall), "s");
  r.set("gp.dataset_s", median(dataset_s), "s");
  set_trace_metrics(r, tracer, rebuild_s / window);
  if (!opt.trace_out.empty() && !tracer.write_chrome(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
}

}  // namespace perfbench
