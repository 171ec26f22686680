#include "fpga/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json_writer.hpp"

namespace latte {
namespace {

const char* StageName(std::size_t stage) {
  switch (stage) {
    case 0: return "MM|At-Sel";
    case 1: return "At-Comp";
    case 2: return "FdFwd";
    default: return "Stage";
  }
}

}  // namespace

std::string ToChromeTrace(const ScheduleResult& schedule) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  // Process-name metadata per stage.
  std::size_t max_stage = 0;
  for (const auto& j : schedule.jobs) max_stage = std::max(max_stage, j.stage);
  for (std::size_t s = 0; s <= max_stage; ++s) {
    json.BeginObject();
    json.Key("name").Value("process_name");
    json.Key("ph").Value("M");
    json.Key("pid").Value(s);
    json.Key("args");
    json.BeginObject().Key("name").Value(StageName(s)).EndObject();
    json.EndObject();
  }
  // Round-trippable timestamps: a job at t >= 1 s keeps its sub-µs
  // digits, where 6 significant digits would not.
  for (const auto& j : schedule.jobs) {
    json.BeginObject();
    json.Key("name").Value("seq" + std::to_string(j.seq) + " L" +
                           std::to_string(j.layer));
    json.Key("ph").Value("X");
    json.Key("pid").Value(j.stage);
    json.Key("tid").Value(j.instance);
    json.Key("ts").ValueExact(j.start * 1e6);
    json.Key("dur").ValueExact((j.end - j.start) * 1e6);
    json.Key("args");
    json.BeginObject();
    json.Key("seq").Value(j.seq);
    json.Key("layer").Value(j.layer);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string ToCsv(const ScheduleResult& schedule) {
  std::ostringstream os;
  os << "seq,layer,stage,instance,start_s,end_s\n";
  for (const auto& j : schedule.jobs) {
    os << j.seq << "," << j.layer << "," << j.stage << "," << j.instance
       << "," << j.start << "," << j.end << "\n";
  }
  return os.str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace latte
