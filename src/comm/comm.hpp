// Abstract communication transport for the rank runtime.
//
// The paper's distributed runs (Sec. 4.2-4.3) need ranks, matched
// send/recv, and collectives. `Comm` is the interface every distributed
// component (mosaic::distributed_mosaic_predict, the data-parallel
// trainer, the scaling benches and examples) programs against; concrete
// transports plug in underneath:
//   * world.hpp  — ThreadComm: in-process std::thread ranks with in-memory
//                  channels and an alpha-beta modeled network clock
//                  (the default; runs anywhere, models the cluster),
//   * mpi_comm.hpp — MpiComm: real MPI processes (built with
//                  -DMF_WITH_MPI=ON; selected automatically under mpirun).
// Both backends record CommStats (messages, bytes, modeled and wall
// seconds) uniformly, so every downstream scaling figure reports the same
// accounting whether the ranks are threads or processes.
#pragma once

#include <cstdint>
#include <vector>

namespace mf::comm {

/// Alpha-beta cost model: time(bytes) = alpha + bytes / beta.
struct AlphaBetaModel {
  double alpha = 2e-6;     // per-message latency (s); ~ConnectX-5 IB
  double beta = 12.5e9;    // bandwidth (bytes/s);     ~100 Gbit/s
  double time(std::size_t bytes) const {
    return alpha + static_cast<double>(bytes) / beta;
  }
  /// Modeled time of `messages` messages carrying `bytes` in total. Stats
  /// derive it from their exact integer totals, so it does not depend on
  /// the order in which messages complete.
  double time(std::uint64_t messages, std::uint64_t bytes) const {
    return static_cast<double>(messages) * alpha +
           static_cast<double>(bytes) / beta;
  }

  /// Presets mirroring Table 2 of the paper.
  static AlphaBetaModel infiniband_100g() { return {2e-6, 12.5e9}; }
  static AlphaBetaModel nvlink_200g() { return {1e-6, 200e9}; }
  static AlphaBetaModel pcie_32g() { return {3e-6, 32e9}; }
};

/// Per-category communication accounting for one rank.
struct CommStats {
  struct Entry {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    double modeled_seconds = 0;
    double wall_seconds = 0;
    void merge(const Entry& o);
  };
  Entry sendrecv;   // point-to-point (halo exchange)
  Entry allreduce;  // gradient/convergence reductions
  Entry allgather;  // final solution assembly
  Entry total() const;
  void reset();
};

/// User tags must be in [0, kMaxUserTag); the band above it is reserved
/// for the transports' internal use (MpiComm folds the negative internal
/// tags into it on the wire). Enforced identically by every backend so a
/// program cannot pass as threads and throw under mpirun.
constexpr int kMaxUserTag = 30000;

/// Internal tags used by the default collectives.
namespace internal_tag {
constexpr int kAllreduce = -101;
constexpr int kAllgather = -102;
constexpr int kBarrier = -103;
}  // namespace internal_tag

/// Abstract communicator handle for one rank. Thread-compatible: each rank
/// owns exactly one Comm and uses it from its own thread (or process).
///
/// Backends implement the transport hooks (transport_send/transport_recv);
/// the point-to-point wrappers here add uniform CommStats accounting, and
/// the collectives have default software implementations (recursive
/// doubling / ring / dissemination, see collectives.cpp) that a backend
/// may override with native ones.
class Comm {
 public:
  virtual ~Comm() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  // ---- point-to-point ----
  void send(int dst, const double* data, std::size_t n, int tag = 0);
  void send(int dst, const std::vector<double>& data, int tag = 0);
  /// Blocking receive of exactly `n` doubles matching (src, tag).
  void recv(int src, double* data, std::size_t n, int tag = 0);
  std::vector<double> recv_vec(int src, int tag = 0);
  /// Paired exchange with one neighbor.
  void sendrecv(int peer, const std::vector<double>& out,
                std::vector<double>& in, int tag = 0);

  // ---- nonblocking point-to-point (halo overlap) ----
  /// Handle for a posted receive (valid until its wait_recv). A
  /// monotonically increasing per-Comm id: a handle kept past its
  /// wait_recv (or never issued) is rejected — ids never recur, so a
  /// stale handle can never silently alias a later request.
  using Request = std::uint64_t;
  /// Buffered nonblocking send: the payload is copied out of the caller's
  /// buffer before returning (in-memory channel / MPI_Isend slot), so
  /// there is nothing to wait on — the matching receive completes
  /// delivery. Identical matching semantics to send().
  void isend(int dst, const double* data, std::size_t n, int tag = 0);
  void isend(int dst, const std::vector<double>& data, int tag = 0);
  /// Post a receive matching (src, tag). Posting a whole neighborhood of
  /// receives before waiting lets messages be drained in arrival order —
  /// progress() (called opportunistically by irecv itself) completes any
  /// posted receive whose message has already landed, so compute between
  /// the posts and the waits overlaps communication.
  Request irecv(int src, int tag = 0);
  /// Non-blocking: complete every posted receive whose message arrived.
  void progress();
  /// Complete a posted receive, blocking until its message arrives.
  std::vector<double> wait_recv(Request r);
  /// Deadline-bounded wait: poll progress() until request `r` completes
  /// or `timeout_ms` elapses. On success, moves the payload into `out`
  /// and consumes the request; on timeout returns false and leaves the
  /// request pending (a later progress()/wait_recv/wait_recv_for can
  /// still complete it). `timeout_ms < 0` degrades to blocking
  /// wait_recv. Requires a backend with nonblocking probe support
  /// (transport_try_recv); both ThreadComm and MpiComm have it.
  bool wait_recv_for(Request r, double timeout_ms, std::vector<double>& out);
  /// Posted receives still tracked by the bookkeeping table (unconsumed
  /// posts plus consumed entries awaiting amortized compaction). Bounded
  /// by O(outstanding posts) even when one straggler is never waited on.
  std::size_t pending_recv_count() const { return pending_recvs_.size(); }

  // ---- collectives ----
  virtual void allreduce_sum(double* data, std::size_t n);
  double allreduce_sum(double value);
  virtual void allreduce_max(double* data, std::size_t n);
  double allreduce_max(double value);
  /// Gather variable-size contributions from every rank, in rank order.
  virtual std::vector<std::vector<double>> allgatherv(
      const std::vector<double>& local);
  virtual void barrier();

  CommStats& stats() { return stats_; }
  const AlphaBetaModel& model() const { return model_; }

 protected:
  explicit Comm(AlphaBetaModel model = {}) : model_(model) {}

  /// Deliver `n` doubles to rank `dst` under `tag` (non-blocking-ish: must
  /// not deadlock when every rank sends before receiving).
  virtual void transport_send(int dst, const double* data, std::size_t n,
                              int tag) = 0;
  /// Blocking matched receive from (src, tag); returns the payload
  /// whatever its size.
  virtual std::vector<double> transport_recv(int src, int tag) = 0;

  /// Non-blocking probe-and-receive: when a message matching (src, tag)
  /// has already arrived, consume it into `out` and return true. The
  /// default (no nonblocking support) always reports "not yet", which
  /// degrades irecv/wait_recv to the blocking path.
  virtual bool transport_try_recv(int src, int tag, std::vector<double>& out) {
    (void)src;
    (void)tag;
    (void)out;
    return false;
  }

  /// Unchecked p2p with full stats accounting, for the default software
  /// collectives (their internal tags are outside the user range the
  /// public wrappers enforce).
  void send_internal(int dst, const double* data, std::size_t n, int tag);
  void recv_internal(int src, double* data, std::size_t n, int tag);
  std::vector<double> recv_vec_internal(int src, int tag);

  /// Stats bucket for a tag (collective internal tags map to their
  /// category, everything else is point-to-point).
  CommStats::Entry& stats_entry(int tag);
  /// Uniform accounting: one message of `bytes` with measured `wall`
  /// seconds; modeled seconds follow the alpha-beta model.
  void record(CommStats::Entry& e, std::size_t bytes, double wall_seconds);

  AlphaBetaModel model_;
  CommStats stats_;

 private:
  // FaultComm decorates another Comm by forwarding (and perturbing) its
  // protected transport hooks; it is the one sanctioned external caller.
  friend class FaultComm;

  struct PendingRecv {
    Request id = 0;         // monotonic post id (the caller's handle)
    int src = -1;
    int tag = 0;
    bool done = false;      // payload received (by progress())
    bool consumed = false;  // handed to the caller (by wait_recv())
    std::vector<double> payload;
  };
  // Append-only in post order, so it stays sorted by id and wait_recv
  // finds a handle by binary search. Consumed entries are removed by
  // amortized stable compaction (wait_recv) rather than waiting for the
  // whole table to drain — one never-consumed straggler no longer pins
  // every later entry in memory.
  std::vector<PendingRecv> pending_recvs_;
  Request next_recv_id_ = 1;           // 0 is never a valid handle
  std::size_t consumed_pending_ = 0;   // consumed entries not yet compacted
};

}  // namespace mf::comm
