// Workload `serve`: the multi-tenant SolveServer with 2 workers, loaded
// from the on-disk zoo of Poisson, varcoef and convdiff tenants (m=8,
// width 64). Phase A is a closed loop (every request admitted as
// capacity allows) and gives throughput; phase B is an open loop of plain
// Poisson arrivals at one fixed offered rate and gives latency, timed
// from each request's due arrival. Many batch shapes, three tenants,
// widened-plan caching and scenario conditioning make cache-aware and
// batching changes show here rather than on `solve`.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "mosaic/scenario_predictor.hpp"
#include "serve/request_gen.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace mf;

constexpr int kWorkers = 2;
constexpr int kInflight = 8;
// Phase-B offered rate, fixed when the workload was defined at about a
// quarter of the phase-A capacity then measured, 90-110 req/s (never
// recalibrated per run, so parent and change are offered the same load).
// Jobs in flight share each scheduler tick, so latency grows with load;
// at half the capacity a spell of 4-6% host steal, which cost phase A 10%
// of its throughput, raised the phase-B median by 60-70%.
constexpr double kRateHz = 25;
// Phase A serves a fixed number of requests in one closed-loop run, sized
// from the phase-A capacity measured at definition (80 req/s) to fill its
// share of the window. A fixed amount of work (rather than "until the
// time is up") keeps the number of worker threads started, and so the
// process's peak memory, the same on every run.
constexpr double kCapacityAtDefinition = 80;
constexpr double kPhaseAShare = 0.4;  // of the timed window
// Phase A runs as this many back-to-back server runs over consecutive
// slices of its request list; throughput is the median of their rates.
constexpr int kPhaseARuns = 4;
// Phase B runs as this many back-to-back open-loop server runs over
// consecutive slices of its arrival stream; latency is the median of the
// slices' median latencies, so a burst of host contention that builds a
// queue in one slice does not carry into the others.
constexpr int kPhaseBRuns = 5;
constexpr std::uint64_t kWarmSeed = 0xa11;  // set-up warm-up requests
constexpr int kSoloSamples = 6;          // requests re-solved alone
constexpr std::int64_t kDomains[][2] = {{24, 24}, {32, 32}, {48, 32}, {32, 48},
                                        {40, 24}, {24, 40}, {48, 48}};

serve::RequestGenConfig gen_config(std::uint64_t seed) {
  serve::RequestGenConfig c;
  c.seed = seed;
  c.rate_hz = kRateHz;
  c.burst_factor = 1.0;  // plain Poisson arrivals
  c.deadline_ms_min = 200;
  c.deadline_ms_max = 1000;
  c.min_cycles = 3;
  c.max_cycles = 8;
  return c;
}

void fingerprint(Fingerprint& f, const std::vector<serve::SolveRequest>& reqs) {
  for (const auto& q : reqs) {
    f.add(q.boundary);
    f.add(q.field.k.vec());
    f.add(q.field.vx);
    f.add(q.field.vy);
    f.add(q.arrival_s);
    f.add(q.deadline_ms);
    f.add(q.max_iters);
    f.add(static_cast<std::int64_t>(q.zoo_index));
  }
}

bool finite(const linalg::Grid2D& g) {
  for (double v : g.vec()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

void run_serve(const Options& opt, Report& r) {
  r.note("callers", "0");
  r.note("ranks", "1");
  r.note("workers", std::to_string(kWorkers));
  r.note("offered_rate_hz", std::to_string(kRateHz));
  for (double v : {static_cast<double>(kWorkers), static_cast<double>(kInflight),
                   kRateHz, kCapacityAtDefinition, kPhaseAShare, double{kPhaseARuns},
                   double{kPhaseBRuns}, static_cast<double>(kWarmSeed),
                   static_cast<double>(kSoloSamples)}) {
    r.config.add(v);
  }
  for (const auto& d : kDomains) {
    r.config.add(d[0]);
    r.config.add(d[1]);
  }
  add_file(r.config, opt.zoo_dir + "/zoo.manifest");

  // Set-up: load and verify the zoo, start a server and serve one warm-up
  // request per tenant (worker start, scheduler plan priming).
  std::vector<serve::ServeModel> zoo;
  std::vector<double> zoo_load;
  serve::ServeOptions sopt;
  sopt.threads = kWorkers;
  sopt.max_inflight = kInflight;
  sopt.deadline_action = serve::DeadlineAction::kAccount;
  std::vector<serve::GeometrySpec> specs;
  auto build_specs = [&] {
    specs.clear();
    for (std::size_t t = 0; t < zoo.size(); ++t) {
      for (const auto& d : kDomains) {
        specs.push_back({static_cast<int>(t), zoo[t].m, d[0], d[1], zoo[t].scenario});
      }
    }
  };
  std::unique_ptr<serve::SolveServer> warm_server;
  auto teardown = [&] {
    warm_server.reset();
    zoo.clear();
  };
  auto setup = [&] {
    const double t0 = now_s();
    zoo = serve::make_model_zoo_from_dir(opt.zoo_dir);
    zoo_load.push_back(now_s() - t0);
    build_specs();
    // The warm-up requests are part of the workload definition, not of
    // the seeded inputs: every run sets up with the same work.
    serve::RequestGenerator gen(specs, gen_config(kWarmSeed));
    std::vector<serve::SolveRequest> warm;
    for (std::size_t t = 0; t < zoo.size(); ++t) {
      serve::SolveRequest q = gen.next();
      q.arrival_s = 0;
      warm.push_back(std::move(q));
    }
    warm_server = std::make_unique<serve::SolveServer>(zoo, sopt);
    warm_server->run(warm);
  };
  SetupTimer setups;
  setups.batch(teardown, setup);
  warm_server.reset();

  // Inputs: phase-A list and the phase-B arrival stream (seeded).
  const auto n_a = static_cast<std::int64_t>(
      std::ceil(kCapacityAtDefinition * opt.seconds * kPhaseAShare));
  const auto n_b = static_cast<std::int64_t>(
      std::ceil(kRateHz * opt.seconds * (1 - kPhaseAShare)));
  std::vector<serve::SolveRequest> reqs_a, reqs_b;
  {
    serve::RequestGenerator gen(specs, gen_config(opt.seed));
    reqs_a = gen.generate(n_a);
    for (auto& q : reqs_a) q.arrival_s = 0;
    serve::RequestGenerator gen_b(specs, gen_config(opt.seed + 0x5151ULL));
    reqs_b = gen_b.generate(n_b);
  }
  fingerprint(r.inputs, reqs_a);
  fingerprint(r.inputs, reqs_b);

  const auto cache0 = mosaic::infer_cache_stats();
  // ---- phase A: closed loop, every request admitted as capacity allows ----
  std::vector<serve::ServeResult> res_a;
  serve::SchedulerCounters counters_a;
  std::vector<double> chunk_s;
  const std::size_t chunk = reqs_a.size() / kPhaseARuns;
  for (int k = 0; k < kPhaseARuns; ++k) {
    const auto first = reqs_a.begin() + static_cast<std::ptrdiff_t>(k * chunk);
    const double t0 = now_s();
    serve::SolveServer server(zoo, sopt);
    auto part = server.run(std::vector<serve::SolveRequest>(
        first, first + static_cast<std::ptrdiff_t>(chunk)));
    chunk_s.push_back(now_s() - t0);
    counters_a.merge(server.stats().counters());
    for (auto& res : part) res_a.push_back(std::move(res));
  }
  reqs_a.resize(res_a.size());
  const double served_a = static_cast<double>(res_a.size());

  // ---- phase B: open loop at the fixed offered rate ----
  serve::ServeOptions bopt = sopt;
  bopt.realtime = true;
  std::vector<serve::ServeResult> res_b;
  std::vector<double> slice_p50_ms;
  const std::size_t slice = reqs_b.size() / kPhaseBRuns;
  for (int k = 0; k < kPhaseBRuns; ++k) {
    const auto first = reqs_b.begin() + static_cast<std::ptrdiff_t>(k * slice);
    std::vector<serve::SolveRequest> part(first,
                                          first + static_cast<std::ptrdiff_t>(slice));
    const double t_first = part.front().arrival_s;
    for (auto& q : part) q.arrival_s -= t_first;
    serve::SolveServer server(zoo, bopt);
    auto done = server.run(std::move(part));
    std::vector<double> ms;
    for (const auto& res : done) ms.push_back(res.record.latency_ms());
    slice_p50_ms.push_back(median(ms));
    for (auto& res : done) res_b.push_back(std::move(res));
  }
  reqs_b.resize(res_b.size());
  const auto cache1 = mosaic::infer_cache_stats();

  // ---- output checks (after the timed window) ----
  if (opt.corrupt) res_a[0].solution.at(1, 1) = std::nan("");
  util::Rng pick(opt.seed ^ 0x5eedULL);
  auto solo_matches = [&](const serve::SolveRequest& q, const serve::ServeResult& res) {
    mosaic::ScenarioSolveOptions so;
    so.mfp.max_iters = q.max_iters;
    so.mfp.tol = q.tol;
    so.mfp.relaxation = sopt.relaxation;
    const auto solo = mosaic::mosaic_predict_scenario(
        *zoo[static_cast<std::size_t>(q.zoo_index)].solver, q.field, q.nx_cells,
        q.ny_cells, q.boundary, so);
    return solo.solution.vec() == res.solution.vec();
  };
  std::vector<char> ok_a(reqs_a.size(), 1), ok_b(reqs_b.size(), 1);
  for (std::size_t i = 0; i < reqs_a.size(); ++i) ok_a[i] = finite(res_a[i].solution);
  for (std::size_t i = 0; i < reqs_b.size(); ++i) ok_b[i] = finite(res_b[i].solution);
  for (int k = 0; k < kSoloSamples; ++k) {
    // One sample in three from phase A, the rest from phase B.
    const bool from_a = k % 3 == 0;
    const auto& reqs = from_a ? reqs_a : reqs_b;
    const auto i = static_cast<std::size_t>(
        pick.randint(0, static_cast<std::int64_t>(reqs.size()) - 1));
    const auto& res = from_a ? res_a[i] : res_b[i];
    std::string why;
    if (!solo_matches(reqs[i], res)) why = "differs from its solo solve";
    if (!from_a && res.record.deadline_missed) why = "missed its deadline";
    if (!why.empty()) {
      (from_a ? ok_a : ok_b)[i] = 0;
      r.complain(std::string(from_a ? "phase A" : "phase B") + " request " +
                 std::to_string(reqs[i].id) + ": " + why);
    }
  }
  r.attempted = static_cast<std::int64_t>(reqs_a.size() + reqs_b.size());
  for (char ok : ok_a) r.failed += ok ? 0 : 1;
  for (char ok : ok_b) r.failed += ok ? 0 : 1;

  std::vector<double> lat_b, queue_b;
  std::int64_t misses = 0;
  for (const auto& res : res_b) {
    lat_b.push_back(res.record.latency_ms());
    queue_b.push_back(res.record.queue_ms());
    misses += res.record.deadline_missed ? 1 : 0;
  }
  if (!opt.trace) {
    setups.batch(teardown, setup);
    set_end_to_end(r, setups.median_s(), median(slice_p50_ms),
                   median_rate(static_cast<std::int64_t>(chunk), chunk_s));
    return;
  }

  // ---- per-layer readings (traced run) ----
  // Request spans are rebuilt from the records after the run, so the
  // requests themselves pay nothing; the rebuild time is the overhead.
  const double rebuild0 = now_s();
  Tracer tracer;
  std::vector<double> lane_end;
  std::vector<int> lanes;
  std::vector<const serve::ServeResult*> by_arrival;
  for (const auto& res : res_b) by_arrival.push_back(&res);
  std::sort(by_arrival.begin(), by_arrival.end(), [](const auto* a, const auto* b) {
    return a->record.arrival_s < b->record.arrival_s;
  });
  for (const serve::ServeResult* res : by_arrival) {
    const serve::RequestRecord& rec = res->record;
    std::size_t k = 0;
    while (k < lane_end.size() && lane_end[k] > rec.arrival_s) ++k;
    if (k == lane_end.size()) {
      lane_end.push_back(0);
      lanes.push_back(tracer.lane("requests " + std::to_string(k)));
    }
    lane_end[k] = rec.finish_s;
    const int op = tracer.open("request " + std::to_string(rec.id), "other", lanes[k],
                               rec.id, -1, rec.arrival_s);
    tracer.close(op, rec.finish_s);
    const int q = tracer.open("queue", "serve_queue", lanes[k], rec.id, op, rec.arrival_s);
    tracer.close(q, rec.admit_s);
    const int s = tracer.open("service", "serve_service", lanes[k], rec.id, op, rec.admit_s);
    tracer.close(s, rec.finish_s);
  }
  const double rebuild_s = now_s() - rebuild0;

  const double na = std::max(1.0, served_a);
  const auto& c = counters_a;
  r.set("serve.queue_ms", median(queue_b), "ms");
  const auto [tail_pct, tail_ms] = tail_percentile(lat_b);
  r.set("serve.latency_tail_ms", tail_ms, "ms");
  r.set("serve.latency_tail_pct", tail_pct, "%");
  r.set("serve.latency_samples", static_cast<double>(lat_b.size()), "count");
  r.set("serve.deadline_misses", static_cast<double>(misses), "count");
  r.set("serve.gather_s", c.gather_seconds / na, "s");
  r.set("serve.predict_s", c.predict_seconds / na, "s");
  r.set("serve.scatter_s", c.scatter_seconds / na, "s");
  r.set("serve.finalize_s", c.finalize_seconds / na, "s");
  r.set("serve.ticks", static_cast<double>(c.ticks) / na, "count");
  const double batches = static_cast<double>(std::max<std::uint64_t>(1, c.batches));
  r.set("serve.rows_per_batch", static_cast<double>(c.batched_rows) / batches, "count");
  r.set("serve.shared_batch_frac", static_cast<double>(c.shared_batches) / batches, "1");
  r.set("serve.pad_rows", static_cast<double>(c.pad_rows) / na, "count");

  const double nall = na + static_cast<double>(reqs_b.size());
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  const double hits = d(cache1.exact_hits, cache0.exact_hits) +
                      d(cache1.widened_hits, cache0.widened_hits);
  const double all = hits + d(cache1.chunked_hits, cache0.chunked_hits) +
                     d(cache1.misses, cache0.misses);
  r.set("ad.captures", d(cache1.captures, cache0.captures) / nall, "count");
  r.set("ad.replays",
        (hits + d(cache1.chunked_hits, cache0.chunked_hits)) / nall, "count");
  r.set("ad.widened_replays", d(cache1.widened_hits, cache0.widened_hits) / nall, "count");
  r.set("ad.cache_hit_frac", all > 0 ? hits / all : 0, "1");
  r.set("ad.cache_misses", d(cache1.misses, cache0.misses) / nall, "count");
  r.set("ad.cache_evictions", d(cache1.evictions, cache0.evictions) / nall, "count");
  r.set("ad.chunked_rows",
        d(cache1.widen_remainder_rows, cache0.widen_remainder_rows) / nall, "count");
  r.set("nn.zoo_load_s", median(zoo_load), "s");

  const double b_window = by_arrival.empty()
                              ? 1.0
                              : by_arrival.back()->record.finish_s -
                                    by_arrival.front()->record.arrival_s;
  set_trace_metrics(r, tracer, rebuild_s / b_window);
  if (!opt.trace_out.empty() && !tracer.write_chrome(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
}

}  // namespace perfbench
