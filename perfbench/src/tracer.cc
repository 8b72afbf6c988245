#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json.h"

namespace perfbench {

std::int64_t Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::Record(const std::string& name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent,
                            std::uint64_t request) {
  Span span;
  span.name = name;
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  span.parent = parent;
  span.request = request;
  return Record(std::move(span));
}

std::int64_t Tracer::Open(const std::string& name, Clock::time_point start) {
  return Record(name, start, start);
}

void Tracer::Close(std::int64_t index, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = ToNs(end);
}

void Tracer::LinkRequests() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::pair<int, std::int64_t>, std::int64_t> calls;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == "transport.call" && spans_[i].seq >= 0) {
      calls[{spans_[i].conn, spans_[i].seq}] = static_cast<std::int64_t>(i);
    }
  }
  for (Span& span : spans_) {
    if (span.name != "server.handle") continue;
    const auto it = calls.find({span.conn, span.seq});
    if (it == calls.end()) continue;
    span.parent = it->second;
    span.request = spans_[static_cast<std::size_t>(it->second)].request;
  }
  // Children are recorded after their parents on the server side, and
  // server.handle now carries its request, so one pass suffices.
  for (Span& span : spans_) {
    if (span.request == 0 && span.parent >= 0) {
      span.request = spans_[static_cast<std::size_t>(span.parent)].request;
    }
  }
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans_[c].start_ns, span.start_ns);
      const std::uint64_t hi = std::min(spans_[c].end_ns, span.end_ns);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0;
    std::uint64_t reach = 0;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    SelfTime& entry = out[span.name];
    ++entry.count;
    entry.total_ms += static_cast<double>(duration) * 1e-6;
    entry.self_ms += static_cast<double>(duration - std::min(duration, union_ns)) * 1e-6;
  }
  return out;
}

std::vector<double> Tracer::ParentGapsMs(const std::string& parent,
                                         const std::string& child) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name != child || span.parent < 0) continue;
    const Span& up = spans_[static_cast<std::size_t>(span.parent)];
    if (up.name != parent) continue;
    const double up_ns = static_cast<double>(up.end_ns - up.start_ns);
    const double own_ns = static_cast<double>(span.end_ns - span.start_ns);
    out.push_back((up_ns - own_ns) * 1e-6);
  }
  return out;
}

Status Tracer::Write(const std::string& path,
                     const std::map<std::string, std::string>& labels) const {
  const std::map<std::string, SelfTime> self_times = SelfTimes();
  std::map<std::string, double> layer_self_ms;
  for (const auto& [name, entry] : self_times) {
    layer_self_ms[name.substr(0, name.find('.'))] += entry.self_ms;
  }
  freshsel::obs::JsonWriter json;
  json.BeginObject();
  json.Key("labels");
  json.BeginObject();
  for (const auto& [key, value] : labels) json.Field(key, value);
  json.EndObject();
  json.Key("self_time_ms");
  json.BeginObject();
  for (const auto& [name, entry] : self_times) {
    json.Key(name);
    json.BeginObject();
    json.Field("count", entry.count);
    json.Field("total_ms", entry.total_ms);
    json.Field("self_ms", entry.self_ms);
    json.EndObject();
  }
  json.EndObject();
  json.Key("layer_self_time_ms");
  json.BeginObject();
  for (const auto& [layer, ms] : layer_self_ms) json.Field(layer, ms);
  json.EndObject();
  json.Key("spans");
  json.BeginArray();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t origin = UINT64_MAX;
    for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
    for (const Span& span : spans_) {
      json.BeginObject();
      json.Field("name", span.name);
      json.Field("request", span.request);
      json.Field("start_us", static_cast<double>(span.start_ns - origin) * 1e-3);
      json.Field("end_us", static_cast<double>(span.end_ns - origin) * 1e-3);
      json.Key("parent");
      json.Int(span.parent);
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  std::ofstream file(path);
  file << json.str() << "\n";
  if (!file) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace perfbench
