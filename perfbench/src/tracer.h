#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One timed call into a layer, recorded from the benchmark's side of the
/// call. Spans of one request share `request`; server-side spans are
/// keyed by (conn, seq) while running and linked to their request at the
/// end (the transport does not hand the request id to the handler).
struct Span {
  std::string name;
  std::uint64_t request = 0;  ///< 0: not part of a served request.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< Index of the causing span, -1 for roots.
  int conn = -1;
  std::int64_t seq = -1;
};

/// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  /// Whether spans are recorded now. The traced run alternates phases so
  /// the same run also measures the untraced latency (trace overhead).
  bool active() const { return active_.load(std::memory_order_relaxed); }
  void SetActive(bool on) { active_.store(on, std::memory_order_relaxed); }

  /// Stores a finished span and returns its index (for children).
  std::int64_t Record(Span span);
  std::int64_t Record(const std::string& name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent = -1,
                      std::uint64_t request = 0);

  /// Opens a span whose end is not known yet (a parent recorded before
  /// its children); Close() sets the end.
  std::int64_t Open(const std::string& name, Clock::time_point start);
  void Close(std::int64_t index, Clock::time_point end);

  /// Gives each server-side span ("server.handle") the client
  /// "transport.call" span with the same (conn, seq) as parent and
  /// propagates request ids down to every child.
  void LinkRequests();

  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< Duration minus the part children cover.
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// For every `child` span whose parent is a `parent` span: the parent's
  /// duration minus the child's (ms).
  std::vector<double> ParentGapsMs(const std::string& parent,
                                   const std::string& child) const;

  /// Writes spans and per-name / per-layer self times as JSON.
  Status Write(const std::string& path,
               const std::map<std::string, std::string>& labels) const;

 private:
  std::atomic<bool> active_{true};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
