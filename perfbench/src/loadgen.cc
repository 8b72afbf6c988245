#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <thread>

#include "obs/json_reader.h"
#include "serve/client.h"

namespace perfbench {

namespace fsv = freshsel::serve;

std::string BindScenario(int conn) {
  return "perfbench-bind-" + std::to_string(conn);
}

namespace {

/// Seeded weighted choice over the spec's shapes.
class ShapePicker {
 public:
  ShapePicker(const std::vector<Shape>& shapes, std::uint64_t seed)
      : rng_(seed) {
    double total = 0.0;
    for (const Shape& shape : shapes) cumulative_.push_back(total += shape.weight);
  }
  std::uint32_t Next() {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53 *
                     cumulative_.back();
    std::uint32_t i = 0;
    while (i + 1 < cumulative_.size() && u >= cumulative_[i]) ++i;
    return i;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cumulative_;
};

/// Shared state of one RunLoad call.
class Run {
 public:
  explicit Run(const LoadSpec& spec) : spec_(spec) {}

  LoadResult Execute() {
    start_ = Clock::now();
    deadline_ = start_ + Seconds(spec_.seconds);
    if (spec_.open_loop) BuildSchedule();
    std::vector<std::thread> threads;
    for (int c = 0; c < spec_.connections; ++c) {
      threads.emplace_back([this, c] { Worker(c); });
    }
    if (spec_.reloads != nullptr) threads.emplace_back([this] { Reloader(); });
    std::atomic<bool> done{false};
    std::thread phases;
    if (spec_.tracer != nullptr && spec_.trace_phase_s > 0) {
      phases = std::thread([this, &done] {
        bool on = false;
        while (!done.load()) {
          spec_.tracer->SetActive(on);
          on = !on;
          std::this_thread::sleep_for(Seconds(spec_.trace_phase_s));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    // Arrivals no worker took (every connection was lost) were never sent.
    for (std::size_t i = next_.load(); i < schedule_.size(); ++i) {
      Fail("not sent: no connection left");
    }
    done = true;
    if (phases.joinable()) phases.join();
    if (spec_.tracer != nullptr) spec_.tracer->SetActive(true);
    result_.window_s = SecondsBetween(start_, std::min(Clock::now(), deadline_));
    return std::move(result_);
  }

 private:
  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  /// Evenly spaced arrivals; the seed picks each arrival's shape. Even
  /// spacing (rather than Poisson) keeps the number of queries that land
  /// in one post-reload rebuild the same from run to run, which is what
  /// steadies serve_mixed's p99.
  void BuildSchedule() {
    ShapePicker picker(*spec_.shapes, spec_.seed + 17);
    for (double t = 0.5 / spec_.rate_qps; t < spec_.seconds;
         t += 1.0 / spec_.rate_qps) {
      schedule_.push_back({start_ + Seconds(t), picker.Next()});
    }
  }

  void Record(const Sample& sample, Clock::time_point recv, bool shed,
              const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    result_.samples.push_back(sample);
    ++result_.sent;
    if (sample.ok) {
      ++result_.succeeded;
      if (recv <= deadline_) ++result_.completed_in_window;
    } else {
      ++result_.failed;
      if (shed) ++result_.shed;
      if (!error.empty() && result_.errors.size() < 10) {
        result_.errors.push_back(error);
      }
    }
  }

  /// A request that could not be sent at all.
  void Fail(const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++result_.failed;
    ++result_.unsent;
    if (result_.errors.size() < 10) result_.errors.push_back(error);
  }

  /// Checks one response line; returns "" when it is the expected answer.
  std::string Check(const std::string& line, std::uint64_t id,
                    std::uint32_t shape, bool* shed) const {
    Result<freshsel::obs::JsonValue> doc = freshsel::obs::ParseJson(line);
    if (!doc.ok() || !doc->is_object()) return "malformed response: " + line;
    const freshsel::obs::JsonValue* ok = doc->Find("ok");
    if (doc->UintOr("id", 0) != id) return "response id mismatch: " + line;
    if (ok == nullptr || !ok->AsBool()) {
      const freshsel::obs::JsonValue* error = doc->Find("error");
      const std::string code =
          error != nullptr ? error->StringOr("code", "") : "";
      *shed = code == "overloaded" || code == "draining";
      return "error response: " + line.substr(0, 300);
    }
    const freshsel::obs::JsonValue* result = doc->Find("result");
    const Reference& want = (*spec_.references)[shape];
    const std::string label = (*spec_.shapes)[shape].label;
    if (result == nullptr || result->StringOr("text", "") != want.text) {
      return "text differs from serve::ExecuteSelect for shape " + label;
    }
    if (result->UintOr("oracle_calls", 0) != want.oracle_calls) {
      return "oracle_calls differ from serve::ExecuteSelect for shape " +
             label;
    }
    return "";
  }

  void Worker(int conn) {
    Result<fsv::Client> client = fsv::Client::ConnectUnix(spec_.socket);
    if (!client.ok()) {
      Fail("connect: " + client.status().ToString());
      return;
    }
    if (spec_.tracer != nullptr) {
      fsv::QueryParams bind;
      bind.scenario = BindScenario(conn);
      // The answer is not_found by design; only the handler's view counts.
      (void)client->Call(fsv::SerializeQueryRequest(true, 0, bind));
    }
    ShapePicker picker(*spec_.shapes, spec_.seed * 1000003ULL + conn);
    std::int64_t seq = 0;
    std::size_t issued = 0;
    for (;;) {
      std::uint32_t shape = 0;
      Clock::time_point due;
      if (spec_.open_loop) {
        const std::size_t i = next_.fetch_add(1);
        if (i >= schedule_.size()) return;
        due = schedule_[i].due;
        shape = schedule_[i].shape;
        std::this_thread::sleep_until(due);
        if (Clock::now() > deadline_ + std::chrono::seconds(30)) {
          Fail("generator gave up: backlog past the window");
          continue;
        }
      } else {
        if (spec_.requests_per_connection > 0
                ? issued >= spec_.requests_per_connection
                : Clock::now() >= deadline_) {
          return;
        }
        shape = picker.Next();
      }
      ++issued;
      const std::uint64_t id = next_id_.fetch_add(1);
      const std::string line = fsv::SerializeQueryRequest(
          true, id, (*spec_.shapes)[shape].params);
      const bool traced = spec_.tracer != nullptr && spec_.tracer->active();
      Clock::time_point request_start = Clock::now();
      if (!spec_.open_loop) due = request_start;
      Clock::time_point parse_start, parse_end;
      bool parsed = true;
      if (traced) {
        parse_start = Clock::now();
        parsed = fsv::ParseRequest(line).ok();
        parse_end = Clock::now();
      }
      const Clock::time_point send = Clock::now();
      Result<std::string> response = client->Call(line);
      const Clock::time_point recv = Clock::now();
      Sample sample;
      sample.shape = shape;
      sample.latency_ms = SecondsBetween(due, recv) * 1e3;
      sample.late_ms = SecondsBetween(due, send) * 1e3;
      sample.traced = traced;
      bool shed = false;
      std::string error =
          response.ok() ? Check(*response, id, shape, &shed)
                        : "transport: " + response.status().ToString();
      if (!parsed) {
        error = "serve::ParseRequest rejected a generated request line";
      }
      sample.ok = error.empty();
      if (traced) {
        const std::int64_t root = spec_.tracer->Record(
            "loadgen.request", spec_.open_loop ? due : request_start, recv,
            -1, id);
        spec_.tracer->Record("protocol.parse", parse_start, parse_end, root,
                             id);
        Span call;
        call.name = "transport.call";
        call.request = id;
        call.start_ns = ToNs(send);
        call.end_ns = ToNs(recv);
        call.parent = root;
        call.conn = conn;
        call.seq = seq;
        spec_.tracer->Record(std::move(call));
        std::lock_guard<std::mutex> lock(mutex_);
        result_.parse_us.push_back(SecondsBetween(parse_start, parse_end) * 1e6);
      }
      ++seq;
      Record(sample, recv, shed, error);
      if (!response.ok()) return;  // The connection is gone.
    }
  }

  void Reloader() {
    Result<fsv::Client> client = fsv::Client::ConnectUnix(spec_.socket);
    if (!client.ok()) {
      Fail("reload connect: " + client.status().ToString());
      return;
    }
    // Every period from half a period in; at least once, mid-window.
    const double period = std::min(spec_.reload_period_s, spec_.seconds);
    for (std::size_t k = 0;; ++k) {
      const double at = (static_cast<double>(k) + 0.5) * period;
      if (at >= spec_.seconds) return;
      const ScenarioFiles& files = (*spec_.reloads)[k % spec_.reloads->size()];
      fsv::LoadParams load;
      load.scenario = files.name;
      load.dir = files.dir;
      std::this_thread::sleep_until(start_ + Seconds(at));
      const Clock::time_point send = Clock::now();
      Result<std::string> response =
          client->Call(fsv::SerializeLoadRequest(true, 0, load));
      const double round_trip = SecondsBetween(send, Clock::now());
      const bool ok = response.ok() &&
                      response->find("\"ok\":true") != std::string::npos;
      std::lock_guard<std::mutex> lock(mutex_);
      ++result_.sent;
      if (ok) {
        ++result_.succeeded;
        result_.reload_s.push_back(round_trip);
      } else {
        ++result_.failed;
        if (result_.errors.size() < 10) {
          result_.errors.push_back(
              "reload failed: " +
              (response.ok() ? *response : response.status().ToString()));
        }
      }
    }
  }

  struct Arrival {
    Clock::time_point due;
    std::uint32_t shape;
  };

  const LoadSpec& spec_;
  Clock::time_point start_;
  Clock::time_point deadline_;
  std::vector<Arrival> schedule_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  LoadResult result_;
};

}  // namespace

LoadResult RunLoad(const LoadSpec& spec) { return Run(spec).Execute(); }

}  // namespace perfbench
