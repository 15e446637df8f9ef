#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "bench.hpp"
#include "util/timing.hpp"

namespace perfbench {

std::uint64_t hash_doubles(const std::vector<double>& v) {
  Fingerprint f;
  f.add(v);
  return f.value();
}

void add_file(Fingerprint& f, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  f.add(bytes);
}

void Report::complain(const std::string& why) {
  if (failures.size() < 8) failures.push_back(why);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

std::pair<double, double> tail_percentile(const std::vector<double>& xs) {
  const double ladder[] = {99.9, 99, 95, 90, 50};
  const double n = static_cast<double>(xs.size());
  for (double p : ladder) {
    if (n * (1 - p / 100.0) >= 10) return {p, percentile(xs, p)};
  }
  return {50, percentile(xs, 50)};
}

double median_rate(std::int64_t ops_per_round, const std::vector<double>& round_seconds) {
  std::vector<double> rates;
  for (double s : round_seconds) rates.push_back(static_cast<double>(ops_per_round) / s);
  return median(rates);
}

double now_s() { return mf::util::wall_seconds(); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void set_end_to_end(Report& r, double setup_s, double latency_p50_ms,
                    double throughput_per_s) {
  r.set("setup_s", setup_s, "s");
  r.set("latency_p50_ms", latency_p50_ms, "ms");
  r.set("throughput_per_s", throughput_per_s, "1/s");
  const double ok = r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                          static_cast<double>(r.attempted)
                                    : 0.0;
  r.set("ok_frac", ok, "1");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---------------------------------------------------------------- Tracer

int Tracer::lane(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i] == name) return static_cast<int>(i);
  }
  lanes_.push_back(name);
  return static_cast<int>(lanes_.size() - 1);
}

int Tracer::open(const std::string& name, const std::string& layer, int lane,
                 std::int64_t op, int parent, double t0, double weight) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.lane = lane;
  s.op = op;
  s.parent = parent;
  s.t0 = s.t1 = t0;
  s.weight = weight;
  return add(std::move(s));
}

void Tracer::close(int span, double t1) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].t1 = t1;
}

int Tracer::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::add_all(std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : spans) spans_.push_back(std::move(s));
  spans.clear();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  // self = own duration minus the weighted durations of its children.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    child[static_cast<std::size_t>(s.parent)] +=
        (s.t1 - s.t0) * s.weight / p.weight;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += s.weight * ((s.t1 - s.t0) - child[i]);
  }
  return out;
}

double Tracer::op_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.t1 - s.t0;
  }
  return total;
}

std::int64_t Tracer::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::count_if(spans_.begin(), spans_.end(),
                       [](const Span& s) { return s.parent < 0; });
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  double origin = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", i, lanes_[i].c_str());
    first = false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"op\": %lld, \"parent\": %d, "
                 "\"derived\": %s}}",
                 first ? "" : ",\n", s.name.c_str(), s.layer.c_str(), s.lane,
                 (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6, i,
                 static_cast<long long>(s.op), s.parent,
                 s.derived ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void set_trace_metrics(Report& r, const Tracer& tracer, double overhead_frac) {
  const auto self = tracer.self_seconds();
  const double total = tracer.op_seconds();
  const double ops = static_cast<double>(std::max<std::int64_t>(1, tracer.ops()));
  double named = 0;
  for (const char* layer : {"subdomain", "mosaic", "scenario", "comm", "serve_queue",
                            "serve_service", "train"}) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    named += s;
    r.set(std::string("share.") + layer, total > 0 ? s / total : 0.0, "1");
    r.set(std::string("self_ms.") + layer, s / ops * 1e3, "ms");
  }
  // Everything no named layer explains: operation self time (harness
  // bookkeeping, thread start-up) and spans of unnamed layers.
  const double other = total - named;
  r.set("share.other", total > 0 ? other / total : 0.0, "1");
  r.set("self_ms.other", other / ops * 1e3, "ms");
  r.set("trace.overhead_frac", overhead_frac, "1");
  r.set("trace.ops", static_cast<double>(tracer.ops()), "count");
}

// --------------------------------------------------------- TracedSolver

TracedSolver::TracedSolver(const mf::mosaic::SubdomainSolver& inner,
                           const mf::mosaic::SdnetConfig* net, Tracer* tracer,
                           int lane, double weight)
    : inner_(inner), net_(net), tracer_(tracer), lane_(lane), weight_(weight) {}

void TracedSolver::predict(const std::vector<std::vector<double>>& boundaries,
                           const mf::mosaic::QueryList& queries,
                           std::vector<std::vector<double>>& out) const {
  const double t0 = now_s();
  inner_.predict(boundaries, queries, out);
  record(t0, now_s(), static_cast<std::int64_t>(boundaries.size()),
         queries.size());
}

void TracedSolver::predict_one_into(const std::vector<double>& boundary,
                                    const mf::mosaic::QueryList& queries,
                                    std::vector<double>& out) const {
  const double t0 = now_s();
  inner_.predict_one_into(boundary, queries, out);
  record(t0, now_s(), 1, queries.size());
}

void TracedSolver::record(double t0, double t1, std::int64_t nrows,
                          std::size_t nqueries) const {
  ++calls;
  rows += nrows;
  seconds += t1 - t0;
  if (net_) flops += sdnet_flops(*net_, nrows, static_cast<std::int64_t>(nqueries));
  if (tracer_) {
    Span s;
    s.name = "predict";
    s.layer = "subdomain";
    s.lane = lane_;
    s.op = op_;
    s.parent = parent_;
    s.t0 = t0;
    s.t1 = t1;
    s.weight = weight_;
    pending_.push_back(std::move(s));
  }
}

double sdnet_flops(const mf::mosaic::SdnetConfig& cfg, std::int64_t rows,
                   std::int64_t queries) {
  const double G = static_cast<double>(cfg.boundary_size);
  const double d = static_cast<double>(cfg.hidden_width);
  double g_features = G;
  double per_row = 0;
  if (cfg.use_conv_encoder) {
    const double C = static_cast<double>(cfg.conv_channels);
    const double k = static_cast<double>(cfg.conv_kernel);
    for (std::int64_t i = 0; i < cfg.conv_depth; ++i) {
      per_row += 2 * G * k * (i == 0 ? 1.0 : C) * C;
    }
    g_features = G * C;
  }
  per_row += 2 * g_features * d;                         // g_proj
  const double per_query = 2 * 2 * d                     // x_proj
                           + 2 * d * d * static_cast<double>(cfg.mlp_depth - 1)
                           + 2 * d;                      // MLP to one output
  return static_cast<double>(rows) *
         (per_row + static_cast<double>(queries) * per_query);
}

}  // namespace perfbench
