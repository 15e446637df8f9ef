// Workload `dist`: the paper's distributed algorithm and the only true
// time-to-accuracy measurement. distributed_mosaic_predict on a 2x1 grid
// of threaded ranks, 256^2 cells, m=8, with the exact HarmonicKernelSolver;
// each solve stops at lattice MAE 0.05 against a multigrid reference.
// There is no autodiff work here, so it is the no-change control for
// plan and kernel optimisations and the main workload for the Schwarz
// loop, the halo exchange and the per-iteration allreduce.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "comm/cartesian.hpp"
#include "comm/world.hpp"
#include "gp/gaussian_process.hpp"
#include "linalg/grid2d.hpp"
#include "linalg/multigrid.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "mosaic/lattice.hpp"
#include "util/timing.hpp"

namespace perfbench {
namespace {

using namespace mf;

constexpr std::int64_t kCells = 256;
constexpr std::int64_t kM = 8;
constexpr int kRanks = 2;
constexpr double kTargetMae = 0.05;
constexpr double kStartMae = 0.5;  // lattice MAE of the Coons start
constexpr std::int64_t kCheckEvery = 10;
constexpr std::int64_t kMaxIters = 20000;
constexpr std::int64_t kWarmIters = 100;
constexpr std::size_t kProblems = 5;  // odd: the median solve is one problem
// Full-solution MAE bound against the multigrid reference. The stopping
// rule only looks at lattice lines; interiors come from the exact kernel,
// so the assembled field must be as close as the lattice.
constexpr double kSolutionTol = 2 * kTargetMae;

struct Problem {
  std::vector<double> boundary;
  linalg::Grid2D reference;
};

struct RankOut {
  std::int64_t iterations = 0;
  double wall = 0, cpu = 0;
  double predict_s = 0, io_s = 0;
  std::int64_t calls = 0, rows = 0;
  comm::CommStats stats;
};

}  // namespace

void run_dist(const Options& opt, Report& r) {
  r.note("callers", "1");
  r.note("ranks", std::to_string(kRanks));
  r.note("workers", "0");
  for (double v : {static_cast<double>(kCells), static_cast<double>(kM),
                   static_cast<double>(kRanks), kTargetMae,
                   static_cast<double>(kCheckEvery), static_cast<double>(kMaxIters),
                   static_cast<double>(kProblems), kSolutionTol, kStartMae,
                   static_cast<double>(kWarmIters)}) {
    r.config.add(v);
  }

  // Inputs: GP boundaries (fixed kernel) and their multigrid references.
  std::vector<Problem> problems(kProblems);
  {
    util::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 23);
    const auto perim = linalg::perimeter_size(kCells + 1, kCells + 1);
    const double inv_l2 = 1.0 / (0.3 * 0.3);
    for (Problem& p : problems) {
      p.boundary.assign(static_cast<std::size_t>(perim), 0.0);
      for (int k = 1; k <= 32; ++k) {
        const double amp =
            2 * std::sqrt(std::exp(-inv_l2) * std::cyl_bessel_i(static_cast<double>(k), inv_l2));
        const double phi = rng.uniform(0, 2 * M_PI);
        for (std::int64_t i = 0; i < perim; ++i) {
          p.boundary[static_cast<std::size_t>(i)] +=
              amp * std::cos(2 * M_PI * k * static_cast<double>(i) / static_cast<double>(perim) + phi);
        }
      }
      p.reference = linalg::Grid2D(kCells + 1, kCells + 1);
      linalg::apply_perimeter(p.reference, p.boundary);
      linalg::Grid2D start = p.reference;
      mosaic::coons_init(start);
      linalg::solve_laplace_mg(p.reference, 1.0 / static_cast<double>(kM));
      // Scale the (linear) problem so the predictor's Coons start is
      // kStartMae from the reference on lattice lines: every problem then
      // needs the same error reduction, which keeps iteration counts
      // close across seeds.
      double err = 0, count = 0;
      for (std::int64_t y = 0; y <= kCells; ++y) {
        for (std::int64_t x = 0; x <= kCells; ++x) {
          if (x % (kM / 2) != 0 && y % (kM / 2) != 0) continue;
          err += std::abs(start.at(x, y) - p.reference.at(x, y));
          count += 1;
        }
      }
      const double scale = kStartMae / (err / count);
      for (double& v : p.boundary) v *= scale;
      for (double& v : p.reference.vec()) v *= scale;
      r.inputs.add(p.boundary);
    }
  }
  const comm::CartesianGrid grid(kRanks);
  std::int64_t sub_updates_per_iter[4] = {0, 0, 0, 0};
  for (std::int64_t ph = 0; ph < 4; ++ph) {
    sub_updates_per_iter[ph] = static_cast<std::int64_t>(
        mosaic::phase_corners(ph, kM / 2, kM, kCells, kCells, 0, 2 * kCells / kM,
                              0, 2 * kCells / kM)
            .size());
  }

  // Set-up: build the exact kernel solver and the rank world, then warm
  // the rank threads and halo buffers with a short fixed-budget solve.
  std::unique_ptr<mosaic::HarmonicKernelSolver> solver;
  std::unique_ptr<comm::World> world;
  auto teardown = [&] {
    world.reset();
    solver.reset();
  };
  auto setup = [&] {
    solver = std::make_unique<mosaic::HarmonicKernelSolver>(kM);
    world = std::make_unique<comm::World>(kRanks);
    mosaic::MfpOptions o;
    o.max_iters = kWarmIters;
    o.tol = 0;
    world->run([&](comm::Comm& c) {
      mosaic::distributed_mosaic_predict(c, grid, *solver, kCells, kCells,
                                         problems[0].boundary, o);
    });
  };
  SetupTimer setups;
  setups.batch(teardown, setup);

  Tracer tracer;
  const int harness = tracer.lane("harness");
  int rank_lane[kRanks];
  for (int k = 0; k < kRanks; ++k) rank_lane[k] = tracer.lane("rank " + std::to_string(k));
  const double w = 1.0 / kRanks;

  std::vector<double> lat;
  std::vector<std::size_t> op_problem;
  std::vector<std::int64_t> op_iters;
  std::vector<std::uint64_t> op_hash;
  std::vector<linalg::Grid2D> retained(kProblems);
  std::vector<double> round_time[2];
  // Traced-op sums (per-layer readings).
  std::int64_t traced_ops = 0;
  double t_predict = 0, t_loop = 0, t_io = 0, t_calls = 0, t_rows = 0;
  double t_halo_msgs = 0, t_halo_mb = 0, t_halo_wait = 0, t_allreduce = 0,
         t_allgather = 0, t_wait_frac = 0, t_cpu_max = 0, t_cpu_mean = 0;

  const double t_start = now_s();
  std::int64_t rounds = 0;
  while (true) {
    const bool tr = opt.trace && rounds % 2 == 0;
    const double round_t0 = now_s();
    for (std::size_t p = 0; p < kProblems; ++p) {
      const std::int64_t op = static_cast<std::int64_t>(lat.size());
      RankOut out[kRanks];
      linalg::Grid2D solution;
      mosaic::MfpOptions o;
      o.max_iters = kMaxIters;
      o.tol = 0;
      o.reference = &problems[p].reference;
      o.target_mae = kTargetMae;
      o.check_every = kCheckEvery;
      const double t0 = now_s();
      const int op_span =
          tr ? tracer.open("solve " + std::to_string(p), "other", harness, op, -1, t0)
             : -1;
      world->run([&](comm::Comm& c) {
        const int rk = c.rank();
        TracedSolver ts(*solver, nullptr, &tracer, rank_lane[rk], w);
        const double w0 = now_s(), c0 = util::thread_cpu_seconds();
        int span = -1;
        if (tr) {
          span = tracer.open("distributed_mosaic_predict", "mosaic", rank_lane[rk],
                             op, op_span, w0, w);
          ts.set_parent(span, op);
        }
        const mosaic::SubdomainSolver& s =
            tr ? static_cast<const mosaic::SubdomainSolver&>(ts) : *solver;
        mosaic::DistMfpResult res = mosaic::distributed_mosaic_predict(
            c, grid, s, kCells, kCells, problems[p].boundary, o);
        RankOut& ro = out[rk];
        ro.wall = now_s() - w0;
        ro.cpu = util::thread_cpu_seconds() - c0;
        ro.iterations = res.iterations;
        ro.predict_s = ts.seconds;
        ro.calls = ts.calls;
        ro.rows = ts.rows;
        ro.io_s = res.timings.boundary_io_seconds;
        ro.stats = c.stats();
        ts.flush();
        if (tr) {
          tracer.close(span, w0 + ro.wall);
          // Comm time read from counter deltas: durations without positions.
          double at = w0;
          const std::pair<const char*, double> comm_parts[] = {
              {"halo wait", ro.stats.sendrecv.wall_seconds},
              {"allreduce", ro.stats.allreduce.wall_seconds},
              {"allgather", ro.stats.allgather.wall_seconds}};
          for (const auto& [name, secs] : comm_parts) {
            Span sp;
            sp.name = name;
            sp.layer = "comm";
            sp.lane = rank_lane[rk];
            sp.op = op;
            sp.parent = span;
            sp.t0 = at;
            sp.t1 = at + secs;
            sp.weight = w;
            sp.derived = true;
            tracer.add(std::move(sp));
            at += secs;
          }
        }
        if (rk == 0) solution = std::move(res.solution);
      });
      const double t1 = now_s();
      lat.push_back(t1 - t0);
      op_problem.push_back(p);
      op_iters.push_back(out[0].iterations);
      op_hash.push_back(hash_doubles(solution.vec()));
      retained[p] = std::move(solution);
      if (!tr) continue;
      tracer.close(op_span, now_s());
      ++traced_ops;
      double cpu_max = 0, cpu_sum = 0;
      double halo_msgs = 0, halo_mb = 0, halo_wait = 0, allreduce = 0, allgather = 0;
      for (const RankOut& ro : out) {
        t_predict += ro.predict_s * w;
        t_loop += (ro.wall - ro.predict_s) * w;
        t_io += ro.io_s * w;
        t_calls += static_cast<double>(ro.calls);
        t_rows += static_cast<double>(ro.rows);
        t_wait_frac += (ro.wall - ro.cpu) / ro.wall * w;
        cpu_max = std::max(cpu_max, ro.cpu);
        cpu_sum += ro.cpu;
        halo_msgs = std::max(halo_msgs, static_cast<double>(ro.stats.sendrecv.messages));
        halo_mb = std::max(halo_mb, static_cast<double>(ro.stats.sendrecv.bytes) / 1e6);
        halo_wait = std::max(halo_wait, ro.stats.sendrecv.wall_seconds);
        allreduce = std::max(allreduce, ro.stats.allreduce.wall_seconds);
        allgather = std::max(allgather, ro.stats.allgather.wall_seconds);
      }
      t_cpu_max += cpu_max;
      t_cpu_mean += cpu_sum / kRanks;
      t_halo_msgs += halo_msgs;
      t_halo_mb += halo_mb;
      t_halo_wait += halo_wait;
      t_allreduce += allreduce;
      t_allgather += allgather;
    }
    round_time[tr].push_back(now_s() - round_t0);
    ++rounds;
    const bool need_pair = opt.trace && rounds < 2;
    if (!need_pair && now_s() - t_start >= opt.seconds) break;
  }

  // ---- output checks (after the timed window) ----
  if (opt.corrupt) retained[0].at(kCells / 2, kCells / 2) = std::nan("");
  std::vector<char> problem_ok(kProblems, 1);
  std::vector<std::int64_t> first_iters(kProblems, -1);
  for (std::size_t i = 0; i < lat.size(); ++i) {
    if (first_iters[op_problem[i]] < 0) first_iters[op_problem[i]] = op_iters[i];
  }
  for (std::size_t p = 0; p < kProblems; ++p) {
    const std::int64_t it = first_iters[p];
    if (it >= kMaxIters || it % kCheckEvery != 0) {
      problem_ok[p] = 0;
      r.complain("problem " + std::to_string(p) + ": stopped on max_iters (" +
                 std::to_string(it) + " iterations), not on the MAE target");
    }
    bool finite = true;
    for (double v : retained[p].vec()) finite = finite && std::isfinite(v);
    const double mae = finite ? linalg::Grid2D::mean_abs_diff(retained[p],
                                                              problems[p].reference)
                              : INFINITY;
    if (!(mae <= kSolutionTol)) {
      problem_ok[p] = 0;
      r.complain("problem " + std::to_string(p) + ": solution MAE " +
                 std::to_string(mae) + " vs multigrid exceeds " +
                 std::to_string(kSolutionTol));
    }
  }
  std::string iters_list;
  for (std::int64_t it : first_iters) {
    iters_list += (iters_list.empty() ? "" : ",") + std::to_string(it);
  }
  r.note("problem_iterations", iters_list);
  r.attempted = static_cast<std::int64_t>(lat.size());
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const std::size_t p = op_problem[i];
    // Same problem, same iteration count and bits on every repeat.
    if (!problem_ok[p] || op_iters[i] != first_iters[p] ||
        op_hash[i] != hash_doubles(retained[p].vec())) {
      ++r.failed;
    }
  }

  if (!opt.trace) {
    setups.batch(teardown, setup);
    std::vector<double> ms;
    for (double s : lat) ms.push_back(s * 1e3);
    set_end_to_end(r, setups.median_s(), median(ms), median_rate(kProblems, round_time[0]));
    return;
  }

  const double n = static_cast<double>(std::max<std::int64_t>(1, traced_ops));
  r.set("subdomain.predict_s", t_predict / n, "s");
  r.set("subdomain.calls", t_calls / n, "count");
  r.set("subdomain.rows", t_rows / n, "count");
  r.set("subdomain.rows_per_call", t_calls > 0 ? t_rows / t_calls : 0, "count");
  r.set("mosaic.loop_s", t_loop / n, "s");
  r.set("mosaic.io_s", t_io / n, "s");
  double iters = 0, updates = 0, total = 0;
  for (std::int64_t it : first_iters) iters += static_cast<double>(it);
  r.set("mosaic.iterations", iters / static_cast<double>(kProblems), "count");
  for (std::size_t i = 0; i < lat.size(); ++i) {
    for (std::int64_t k = 0; k < op_iters[i]; ++k) {
      updates += static_cast<double>(sub_updates_per_iter[k % 4]);
    }
    total += lat[i];
  }
  r.set("mosaic.sub_updates_per_s", updates / total, "1/s");
  r.set("comm.halo_msgs", t_halo_msgs / n, "count");
  r.set("comm.halo_mb", t_halo_mb / n, "MB");
  r.set("comm.halo_wait_s", t_halo_wait / n, "s");
  r.set("comm.allreduce_s", t_allreduce / n, "s");
  r.set("comm.allgather_s", t_allgather / n, "s");
  r.set("comm.wait_frac", t_wait_frac / n, "1");
  r.set("comm.rank_imbalance", t_cpu_mean > 0 ? t_cpu_max / t_cpu_mean : 0, "1");

  const std::size_t pairs = std::min(round_time[0].size(), round_time[1].size());
  double t_on = 0, t_off = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    t_on += round_time[1][i];
    t_off += round_time[0][i];
  }
  set_trace_metrics(r, tracer, pairs > 0 ? t_on / t_off - 1 : 0);
  if (!opt.trace_out.empty() && !tracer.write_chrome(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
}

}  // namespace perfbench
