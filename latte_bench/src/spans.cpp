#include "spans.hpp"

#include <algorithm>
#include <limits>

#include "obs/json_writer.hpp"

namespace latte::bench {

SpanLog::Total SpanLog::Sum(const std::string& name) const {
  Total total;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (name != s.name) continue;
      total.ms += s.duration_ms();
      ++total.count;
    }
  }
  return total;
}

double SpanLog::SelfMs(const std::string& name) const {
  double self = 0;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (name == s.name) self += s.duration_ms();
      if (!s.parent.valid() || name != at(s.parent).name) continue;
      self -= s.duration_ms();  // a direct child of a `name` span
    }
  }
  return self;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (name == s.name) out.push_back(s.duration_ms());
    }
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) origin = std::min(origin, s.start_ns);
  }
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit").Value("ms");
  json.Key("traceEvents").BeginArray();
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    json.BeginObject();
    json.Key("name").Value("thread_name");
    json.Key("ph").Value("M");
    json.Key("pid").Value(std::size_t{1});
    json.Key("tid").Value(l);
    json.Key("args").BeginObject();
    json.Key("name").Value(l + 1 == lanes_.size()
                               ? std::string("caller")
                               : "runner slot " + std::to_string(l));
    json.EndObject();
    json.EndObject();
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& s = lanes_[l][i];
      json.BeginObject();
      json.Key("name").Value(s.name);
      json.Key("ph").Value("X");
      json.Key("pid").Value(std::size_t{1});
      json.Key("tid").Value(l);
      json.Key("ts").ValueExact(1e-3 * double(s.start_ns - origin));
      json.Key("dur").ValueExact(1e-3 * double(s.end_ns - s.start_ns));
      json.Key("args").BeginObject();
      json.Key("span").Value(std::to_string(l) + ":" + std::to_string(i));
      json.Key("id").Value(static_cast<std::size_t>(s.id));
      if (s.parent.valid()) {
        json.Key("parent").Value(std::to_string(s.parent.lane) + ":" +
                                 std::to_string(s.parent.index));
      }
      json.EndObject();
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  return json.WriteFile(path);
}

}  // namespace latte::bench
