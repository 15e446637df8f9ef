// Shared pieces of the repository benchmark: run options, the result
// record every workload fills, order statistics, input fingerprints, the
// in-memory span recorder of the traced mode, and the SubdomainSolver
// decorator that times the subdomain layer from outside.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mosaic/sdnet.hpp"
#include "mosaic/subdomain_solver.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string zoo_dir = "perfbench/zoo";
  std::string trace_out;  // Chrome trace path (traced mode)
  /// Self-test: corrupt one retained output after the timed window, so
  /// the output checks must report a failed operation.
  bool corrupt = false;
};

/// FNV-1a over raw bytes: workload config and generated-input
/// fingerprints, and per-operation output hashes.
class Fingerprint {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void add(const std::vector<double>& v) { add(v.data(), v.size() * sizeof(double)); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add(double x) { add(&x, sizeof x); }
  void add(std::int64_t x) { add(&x, sizeof x); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t hash_doubles(const std::vector<double>& v);
/// Adds a file's bytes (the zoo manifest, which carries every
/// checkpoint's CRC) to a fingerprint; throws when it cannot be read.
void add_file(Fingerprint& f, const std::string& path);

/// What one workload run produced. End-to-end metrics (untraced run) or
/// per-layer metrics (traced run) go into `metrics`; `info` holds the
/// effective configuration for the environment block.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  Fingerprint config;  // workload definition (seed-independent)
  Fingerprint inputs;  // generated inputs (seed-dependent)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Records why an output check failed (the workload counts `failed`
  /// per operation itself).
  void complain(const std::string& why);
  std::vector<std::string> failures;  // first few messages, for stderr
};

double median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 100]; 0 on an empty sample.
double percentile(std::vector<double> xs, double p);
/// Highest percentile of the ladder {50, 90, 95, 99, 99.9} with at least
/// ten samples above it; returns {percentile, value}.
std::pair<double, double> tail_percentile(const std::vector<double>& xs);

/// Throughput of a window run in rounds of `ops_per_round` operations:
/// the median over rounds of the round's operations per second, so a
/// slow spell on a shared machine moves it only when it covers half the
/// window.
double median_rate(std::int64_t ops_per_round, const std::vector<double>& round_seconds);

/// Wall seconds on the steady clock.
double now_s();
/// Peak resident set of this process in MB (ru_maxrss).
double peak_rss_mb();

/// Times from-scratch set-ups: before each one `teardown` drops the
/// previous set-up's state (not timed), then `setup` is timed. A workload
/// times one batch before its window (the last set-up serves the window)
/// and, in untraced runs, one more after its output checks; setup_s is
/// the median over both, so it samples the shared host at two moments of
/// the run rather than one. A batch is at least kSetupMinReps set-ups and
/// at least kSetupBudgetS seconds of set-up (so a set-up of a few
/// milliseconds is timed hundreds of times), at most kSetupMaxReps.
class SetupTimer {
 public:
  static constexpr int kSetupMinReps = 9;
  static constexpr int kSetupMaxReps = 400;
  static constexpr double kSetupBudgetS = 2.0;

  template <typename Teardown, typename Setup>
  void batch(Teardown&& teardown, Setup&& setup) {
    double total = 0;
    for (int n = 0; n < kSetupMinReps ||
                    (total < kSetupBudgetS && n < kSetupMaxReps);
         ++n) {
      teardown();
      const double t0 = now_s();
      setup();
      times_.push_back(now_s() - t0);
      total += times_.back();
    }
  }
  double median_s() const { return median(times_); }

 private:
  std::vector<double> times_;
};

/// Fills the five end-to-end metrics shared by every workload.
void set_end_to_end(Report& r, double setup_s, double latency_p50_ms,
                    double throughput_per_s);

// ---------------------------------------------------------------- tracing

/// One span: a layer call, an operation, or a duration read from a
/// counter delta (`derived`: placed at the start of its parent, its
/// position inside the parent is not known).
struct Span {
  std::string name;
  std::string layer;  // share bucket; operation spans use "other"
  int lane = 0;
  std::int64_t op = -1;
  int parent = -1;
  double t0 = 0, t1 = 0;
  /// Share weight: 1 on the harness lane, 1/ranks on a rank lane, so
  /// parallel lanes under one operation add up to its wall time once.
  double weight = 1;
  bool derived = false;
};

/// In-memory span store (thread-safe appends), written at exit as
/// Chrome trace-event JSON with one lane per thread or rank.
class Tracer {
 public:
  int lane(const std::string& name);
  /// Open a span ending at t1 = t0; close() it later. Returns its index.
  int open(const std::string& name, const std::string& layer, int lane,
           std::int64_t op, int parent, double t0, double weight = 1);
  void close(int span, double t1);
  int add(Span s);
  /// Appends a batch of leaf spans (no span refers to them as parent).
  void add_all(std::vector<Span>& spans);

  /// Per-layer self time summed over all operations (seconds, weighted),
  /// and the summed wall time of the operation (root) spans.
  std::map<std::string, double> self_seconds() const;
  double op_seconds() const;
  std::int64_t ops() const;

  /// Writes {"traceEvents": [...]} with times relative to the first span.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> lanes_;
};

/// share.<layer>, self_ms.<layer> (per operation) and trace.* metrics
/// from the recorded spans; `overhead_frac` is the traced-minus-untraced
/// difference measured by the workload.
void set_trace_metrics(Report& r, const Tracer& tracer, double overhead_frac);

/// Times the subdomain layer from outside: forwards predict and
/// predict_one_into to the wrapped solver, counting calls, rows and wall
/// time, and records a span per call when a tracer is attached. One
/// instance per calling thread (counters are not synchronized).
class TracedSolver final : public mf::mosaic::SubdomainSolver {
 public:
  /// `net` (may be null) gives the computed FLOP count of each call.
  TracedSolver(const mf::mosaic::SubdomainSolver& inner,
               const mf::mosaic::SdnetConfig* net, Tracer* tracer, int lane,
               double weight = 1);

  std::int64_t m() const override { return inner_.m(); }
  void predict(const std::vector<std::vector<double>>& boundaries,
               const mf::mosaic::QueryList& queries,
               std::vector<std::vector<double>>& out) const override;
  void predict_one_into(const std::vector<double>& boundary,
                        const mf::mosaic::QueryList& queries,
                        std::vector<double>& out) const override;

  /// Parent span and operation id for the spans of following calls.
  void set_parent(int span, std::int64_t op) {
    parent_ = span;
    op_ = op;
  }
  /// Hands the spans buffered since the last flush to the tracer. Calls
  /// buffer locally so rank threads do not contend on the tracer's lock
  /// once per Schwarz iteration.
  void flush() {
    if (tracer_) tracer_->add_all(pending_);
  }

  mutable std::int64_t calls = 0;
  mutable std::int64_t rows = 0;
  mutable double seconds = 0;
  mutable double flops = 0;

 private:
  void record(double t0, double t1, std::int64_t nrows,
              std::size_t nqueries) const;

  const mf::mosaic::SubdomainSolver& inner_;
  const mf::mosaic::SdnetConfig* net_;
  Tracer* tracer_;
  int lane_;
  double weight_;
  int parent_ = -1;
  std::int64_t op_ = -1;
  mutable std::vector<Span> pending_;
};

/// Matmul and convolution FLOPs of one SDNet forward over `rows`
/// boundaries and `queries` points each (activations not counted).
double sdnet_flops(const mf::mosaic::SdnetConfig& cfg, std::int64_t rows,
                   std::int64_t queries);

// -------------------------------------------------------------- workloads

void run_solve(const Options& opt, Report& r);
void run_dist(const Options& opt, Report& r);
void run_serve(const Options& opt, Report& r);
void run_train(const Options& opt, Report& r);

}  // namespace perfbench
