// The LATTE benchmark: one workload, one seed, one mode per invocation.
//
//   latte_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--spans PATH]
//
// Untraced mode (--trace 0) prints every end-to-end metric of
// BENCHMARK.json; traced mode (--trace 1) prints every per-layer metric and
// writes the recorded spans to PATH as Chrome trace-event JSON.  Both
// modes check the program's outputs and exit 1 when a check fails.  The
// last stdout line is the result object the benchmark contract defines;
// the line before it ("detail") carries the host stamp, the failure
// counts, the trace/output digests and the bit patterns of the
// virtual-time metrics, which the benchmark's own tests compare.
//
// Phases (untraced): set-up x5 (the median is setup_s) -> warm-up
// accounting replay (the sim latency metrics) -> rate ladder
// (sim_max_rps) -> a fixed count of timed accounting replays
// (sim_requests_per_s) interleaved with a fixed number of passes of the
// closed ForwardBatch loop over the batches the replay formed
// (tokens_per_s, batch_ms_*) -> output checks, outside every timing.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "latte/latte.hpp"
#include "obs/json_writer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace latte::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kWeightSeed = 2022;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kSetupRepeats = 5;
/// Passes of the closed ForwardBatch loop over the executed prefix.
constexpr std::size_t kLoopPasses = 2;
/// Sequences whose outputs are checked against ServingEngine::Replay with
/// execute = true, digested, and compared with the dense-fp32 reference.
constexpr std::size_t kCheckSequences = 12;
/// Whether the kernels were compiled for the host ISA.  The benchmark's
/// build sets no -march flag, so this reads false unless the compiler
/// defaults to AVX2+FMA (the ISA src/tensor/kernels.hpp dispatches on).
#if defined(__AVX2__) && defined(__FMA__)
constexpr bool kNativeArch = true;
#else
constexpr bool kNativeArch = false;
#endif

/// A run that cannot measure anything with its arguments (exit code 2,
/// like a malformed argument).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return obs::PercentileOfSorted(v, 0.5);
}

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return obs::PercentileOfSorted(v, p);
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

bool SameBits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------------ args --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
      have[1] = used == value.size();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      have[2] = used == value.size() && args.seconds > 0 &&
                args.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (bool h : have) {
    if (!h) {
      throw std::invalid_argument(
          "usage: latte_bench --workload NAME --seed N --seconds S "
          "--trace 0|1 [--spans PATH]");
    }
  }
  FindWorkload(args.workload);  // rejects unknown names
  return args;
}

// ---------------------------------------------------------------- set-up --

/// Everything that exists before the first timed call.
struct Setup {
  std::unique_ptr<ModelInstance> model;
  std::vector<TimedRequest> trace;
  ServingEngineConfig engine_cfg;
  /// Input embeddings of the executed prefix: offered ordinal -> index
  /// into `inputs` (requests sharing a content id share one tensor).
  std::vector<std::size_t> input_of;
  std::vector<MatrixF> inputs;
  std::unique_ptr<BatchRunner> runner;
};

std::uint64_t EmbedSeed(std::uint64_t seed) {
  return MixHash64(seed ^ 0x4c415454455f424eULL);
}

Setup BuildSetup(const Workload& w, std::uint64_t seed, double seconds) {
  Setup s;
  s.model = std::make_unique<ModelInstance>(BenchModel(), kWeightSeed);
  s.trace = MakeTrace(w, w.rate_rps, seed);
  s.engine_cfg = MakeEngineConfig(w, kThreads, EmbedSeed(seed));

  const double token_target = seconds * w.exec_tokens_per_second;
  const std::size_t hidden = s.model->config().encoder.hidden;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  double tokens = 0;
  for (std::size_t i = 0; i < s.trace.size() && tokens < token_target; ++i) {
    const TimedRequest& r = s.trace[i];
    tokens += double(r.length);
    if (r.id != kAnonymousId) {
      auto [it, fresh] = by_id.emplace(r.id, s.inputs.size());
      if (fresh) {
        s.inputs.push_back(SynthesizeIdentityEmbedding(
            s.engine_cfg.embed_seed, r.id, r.length, hidden));
      }
      s.input_of.push_back(it->second);
    } else {
      s.input_of.push_back(s.inputs.size());
      s.inputs.push_back(SynthesizeRequestEmbedding(s.engine_cfg.embed_seed,
                                                    i, r.length, hidden));
    }
  }
  s.runner = std::make_unique<BatchRunner>(kThreads);
  return s;
}

// ------------------------------------------------------- serving replays --

ServingResult Replay(const Setup& s, const ServingEngineConfig& cfg,
                     const std::vector<TimedRequest>& trace) {
  ServingEngine engine(*s.model, cfg);
  return engine.Replay(trace);
}

/// Latency (arrival -> completion, virtual seconds) of every served
/// request: admitted requests whose final pass ran in a batch, plus cache
/// hits and coalesced followers.  Superseded first passes are skipped;
/// an escalated request is timed from its original arrival.
std::vector<double> RequestLatencies(const std::vector<TimedRequest>& trace,
                                     const ServingResult& res) {
  std::vector<double> out;
  for (std::size_t b = 0; b < res.batches.size(); ++b) {
    for (std::size_t idx : res.batches[b].indices) {
      if (!res.superseded.empty() && res.superseded[idx] != 0) continue;
      out.push_back(res.schedule.done_s[b] -
                    trace[res.offered_ids[idx]].arrival_s);
    }
  }
  for (const CacheServedRequest& c : res.cache_served) {
    out.push_back(c.done_s - c.arrival_s);
  }
  return out;
}

/// The sim_max_rps criterion at one rate.
bool MeetsLimit(const Workload& w, const std::vector<TimedRequest>& trace,
                const ServingResult& res) {
  const std::vector<double> lat = RequestLatencies(trace, res);
  std::size_t within = 0;
  double last_done = 0;
  for (double l : lat) within += l <= w.latency_limit_s ? 1 : 0;
  for (double d : res.schedule.done_s) last_done = std::max(last_done, d);
  for (const CacheServedRequest& c : res.cache_served) {
    last_done = std::max(last_done, c.done_s);
  }
  const double offered = double(trace.size());
  const double arrival_span = trace.back().arrival_s - trace.front().arrival_s;
  const double served_span = last_done - trace.front().arrival_s;
  const bool keeps_up = double(lat.size()) / served_span >=
                        0.95 * offered / arrival_span;
  return double(within) >= 0.99 * offered && keeps_up;
}

bool ReportFinite(const ServingReport& r) {
  bool ok = std::isfinite(r.mean_batch_size) &&
            std::isfinite(r.mean_latency_s) &&
            std::isfinite(r.p50_latency_s) &&
            std::isfinite(r.p95_latency_s) &&
            std::isfinite(r.p99_latency_s) &&
            std::isfinite(r.throughput_rps) &&
            std::isfinite(r.device_busy_frac) &&
            std::isfinite(r.mean_accuracy);
  for (const TierUsage& t : r.tiers) ok = ok && std::isfinite(t.accuracy);
  return ok;
}

bool SameReport(const ServingReport& a, const ServingReport& b) {
  bool same = a.requests == b.requests && a.batches == b.batches &&
              Bits(a.mean_batch_size) == Bits(b.mean_batch_size) &&
              Bits(a.mean_latency_s) == Bits(b.mean_latency_s) &&
              Bits(a.p50_latency_s) == Bits(b.p50_latency_s) &&
              Bits(a.p95_latency_s) == Bits(b.p95_latency_s) &&
              Bits(a.p99_latency_s) == Bits(b.p99_latency_s) &&
              Bits(a.throughput_rps) == Bits(b.throughput_rps) &&
              Bits(a.device_busy_frac) == Bits(b.device_busy_frac) &&
              Bits(a.mean_accuracy) == Bits(b.mean_accuracy) &&
              a.tiers.size() == b.tiers.size();
  for (std::size_t t = 0; same && t < a.tiers.size(); ++t) {
    same = a.tiers[t].requests == b.tiers[t].requests &&
           a.tiers[t].batches == b.tiers[t].batches &&
           a.tiers[t].escalated == b.tiers[t].escalated;
  }
  return same;
}

std::uint64_t TraceDigest(const std::vector<TimedRequest>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const TimedRequest& r : trace) {
    h = HashBytes(&r.arrival_s, sizeof(r.arrival_s), h);
    h = HashBytes(&r.length, sizeof(r.length), h);
    h = HashBytes(&r.id, sizeof(r.id), h);
  }
  return h;
}

// -------------------------------------------------------- executed batches --

/// One batch the replay formed, in dispatch order, over the executed
/// prefix of the trace.
struct ExecBatch {
  std::size_t index = 0;               ///< into ServingResult::batches
  std::vector<std::size_t> ordinals;   ///< Push() ordinal per member
  std::size_t top_k = 0;               ///< the batch's tier top_k
  std::size_t tokens = 0;
};

std::vector<ExecBatch> ExecBatches(const Setup& s, const ServingResult& res) {
  std::vector<ExecBatch> out;
  for (std::size_t b = 0; b < res.batches.size(); ++b) {
    ExecBatch e;
    e.index = b;
    e.top_k = s.engine_cfg.adapt.enabled
                  ? s.engine_cfg.adapt.tiers[res.batches[b].tier].top_k
                  : s.engine_cfg.inference.sparse.top_k;
    for (std::size_t idx : res.batches[b].indices) {
      const std::size_t ordinal = res.offered_ids[idx];
      if (ordinal >= s.input_of.size()) return out;  // prefix exhausted
      e.ordinals.push_back(ordinal);
      e.tokens += s.trace[ordinal].length;
    }
    out.push_back(std::move(e));
  }
  return out;
}

/// ExecBatches, failing when not even the first batch fits the prefix.
std::vector<ExecBatch> NonEmptyExecBatches(const Setup& s,
                                           const ServingResult& res) {
  std::vector<ExecBatch> out = ExecBatches(s, res);
  if (out.empty()) {
    throw UsageError("--seconds too small: no formed batch fits the "
                     "executed prefix");
  }
  return out;
}

std::vector<MatrixF> BatchInputs(const Setup& s, const ExecBatch& b) {
  std::vector<MatrixF> xs;
  xs.reserve(b.ordinals.size());
  for (std::size_t o : b.ordinals) xs.push_back(s.inputs[s.input_of[o]]);
  return xs;
}

InferenceConfig TierConfig(const Setup& s, const ExecBatch& b) {
  InferenceConfig inf = s.engine_cfg.inference;
  inf.sparse.top_k = b.top_k;
  return inf;
}

/// The leading batches whose outputs the checks cover.
std::size_t CheckBatchCount(const std::vector<ExecBatch>& batches) {
  std::size_t n = 0, seqs = 0;
  while (n < batches.size() && seqs < kCheckSequences) {
    seqs += batches[n++].ordinals.size();
  }
  return n;
}

struct LoopResult {
  /// Wall time of each successful ForwardBatch call, per executed batch
  /// (one entry per pass).
  std::vector<std::vector<double>> batch_ms;
  std::size_t calls = 0;
  std::size_t failed = 0;
  /// Ordinals of the requests in a failed call, each counted once however
  /// many passes fail on it.
  std::set<std::size_t> errored;
  /// First-pass outputs of the check batches (empty where the call failed).
  std::vector<std::vector<MatrixF>> check_outputs;
};

/// One call of the closed loop: batch `b` of the executed prefix, run with
/// one ForwardBatch call.  One caller runs the batches back to back, in
/// dispatch order.
void RunBatch(Setup& s, const std::vector<ExecBatch>& batches, std::size_t b,
              std::size_t pass, LoopResult& out) {
  const ExecBatch& eb = batches[b];
  const std::vector<MatrixF> xs = BatchInputs(s, eb);
  const InferenceConfig inf = TierConfig(s, eb);
  ++out.calls;
  try {
    const auto c0 = Clock::now();
    std::vector<MatrixF> ys = s.model->ForwardBatch(xs, inf, *s.runner);
    out.batch_ms[b].push_back(1e3 * Since(c0));
    if (pass == 0 && b < out.check_outputs.size()) {
      out.check_outputs[b] = std::move(ys);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ForwardBatch failed on batch %zu: %s\n", eb.index,
                 e.what());
    ++out.failed;
    out.errored.insert(eb.ordinals.begin(), eb.ordinals.end());
  }
}

std::uint64_t OutputDigest(const std::vector<std::vector<MatrixF>>& outs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& batch : outs) {
    for (const MatrixF& y : batch) {
      h = HashBytes(y.flat().data(), y.size() * sizeof(float), h);
    }
  }
  return h;
}

// ---------------------------------------------------------------- checks --

struct Checks {
  std::vector<std::pair<std::string, bool>> results;
  void Add(const std::string& name, bool ok) {
    results.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "check failed: %s\n", name.c_str());
  }
  bool all() const {
    for (const auto& [name, ok] : results) {
      if (!ok) return false;
    }
    return true;
  }
};

void CheckReport(Checks& checks, const ServingResult& res) {
  const AdmissionStats& a = res.admission;
  checks.Add("report_finite", ReportFinite(res.report()));
  checks.Add("offered_accounting",
             a.offered == a.accepted + a.rejected + res.cache.hits +
                              res.cache.coalesced);
}

/// The timed calls against what Drain() runs: replays the trace prefix
/// that formed the check batches with execute = true and compares every
/// output bit for bit.
void CheckAgainstDrain(Checks& checks, const Setup& s,
                       const ServingResult& full,
                       const std::vector<ExecBatch>& batches,
                       std::size_t check_batches,
                       const std::vector<std::vector<MatrixF>>& outputs) {
  double sealed_by = 0;
  for (std::size_t b = 0; b < check_batches; ++b) {
    sealed_by = std::max(sealed_by, full.batches[batches[b].index].ready_s);
  }
  std::vector<TimedRequest> prefix;
  for (const TimedRequest& r : s.trace) {
    if (r.arrival_s > sealed_by) break;
    prefix.push_back(r);
  }
  ServingEngineConfig cfg = s.engine_cfg;
  cfg.execute = true;
  const ServingResult exec = Replay(s, cfg, prefix);
  bool same = exec.batches.size() >= check_batches &&
              outputs.size() == check_batches;
  for (std::size_t b = 0; same && b < check_batches; ++b) {
    const FormedBatch& eb = exec.batches[b];
    const FormedBatch& fb = full.batches[batches[b].index];
    same = eb.indices == fb.indices && eb.tier == fb.tier &&
           outputs[b].size() == eb.indices.size();
    for (std::size_t m = 0; same && m < eb.indices.size(); ++m) {
      const std::size_t idx = eb.indices[m];
      same = exec.offered_ids[idx] == full.offered_ids[idx] &&
             SameBits(exec.outputs[idx], outputs[b][m]);
    }
  }
  checks.Add("forward_batch_matches_drain", same);
}

/// Mean row cosine of the checked outputs against dense fp32.
double OutputCosine(const Setup& s, const std::vector<ExecBatch>& batches,
                    const std::vector<std::vector<MatrixF>>& outputs) {
  InferenceConfig dense;
  dense.mode = InferenceMode::kDenseFloat;
  double sum = 0;
  std::size_t rows = 0;
  for (std::size_t b = 0; b < outputs.size(); ++b) {
    const std::vector<MatrixF> xs = BatchInputs(s, batches[b]);
    for (std::size_t m = 0; m < outputs[b].size(); ++m) {
      const MatrixF ref = s.model->Forward(xs[m], dense);
      sum += MeanRowCosine(outputs[b][m], ref) * double(ref.rows());
      rows += ref.rows();
    }
  }
  return rows == 0 ? 0 : sum / double(rows);
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Counts {
  std::size_t offered = 0, served = 0, rejected = 0, shed = 0, errored = 0;
  double failed_frac() const {
    return offered == 0 ? 0
                        : double(rejected + shed + errored) / double(offered);
  }
};

Counts CountRequests(const Setup& s, const ServingResult& res,
                     std::size_t errored) {
  Counts c;
  c.offered = res.admission.offered;
  (s.engine_cfg.adapt.enabled ? c.shed : c.rejected) = res.admission.rejected;
  c.errored = errored;
  c.served = c.offered - c.rejected - c.shed - c.errored;
  return c;
}

struct LoadAvg {
  double v[3] = {0, 0, 0};
};

LoadAvg ReadLoadAvg() {
  LoadAvg l;
  if (getloadavg(l.v, 3) != 3) l = LoadAvg{};
  return l;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Report {
  const Args* args = nullptr;
  LoadAvg load_before, load_after;
  Counts counts;
  std::uint64_t trace_digest = 0;
  std::uint64_t output_digest = 0;
  std::vector<std::pair<std::string, double>> sim;  ///< bit-compared
  std::vector<std::pair<std::string, double>> samples;
  Checks checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

void Print(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, n] : r.samples) {
    std::printf("samples %-20s %.0f\n", name.c_str(), n);
  }
  std::printf("requests offered %zu served %zu rejected %zu shed %zu "
              "errored %zu failed_frac %.6g\n",
              r.counts.offered, r.counts.served, r.counts.rejected,
              r.counts.shed, r.counts.errored, r.counts.failed_frac());

  obs::JsonWriter detail;
  detail.BeginObject();
  detail.Key("detail").BeginObject();
  detail.Key("workload").Value(r.args->workload);
  detail.Key("mode").Value(r.args->trace ? "traced" : "untraced");
  obs::StampHost(detail);
  detail.Key("run").BeginObject();
  detail.Key("nproc").Value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  detail.Key("loadavg_before").BeginArray();
  for (double v : r.load_before.v) detail.Value(v);
  detail.EndArray();
  detail.Key("loadavg_after").BeginArray();
  for (double v : r.load_after.v) detail.Value(v);
  detail.EndArray();
  detail.Key("build_type").Value(LATTE_BENCH_BUILD_TYPE);
  detail.Key("latte_native_arch").Value(kNativeArch);
  detail.Key("threads").Value(kThreads);
  detail.Key("seed").Value(static_cast<std::size_t>(r.args->seed));
  detail.Key("seconds").Value(r.args->seconds);
  detail.EndObject();
  detail.Key("requests").BeginObject();
  detail.Key("offered").Value(r.counts.offered);
  detail.Key("served").Value(r.counts.served);
  detail.Key("rejected").Value(r.counts.rejected);
  detail.Key("shed").Value(r.counts.shed);
  detail.Key("errored").Value(r.counts.errored);
  detail.Key("failed_frac").ValueExact(r.counts.failed_frac());
  detail.EndObject();
  detail.Key("samples").BeginObject();
  for (const auto& [name, n] : r.samples) detail.Key(name).ValueExact(n);
  detail.EndObject();
  detail.Key("trace_digest").Value(Hex(r.trace_digest));
  detail.Key("output_digest").Value(Hex(r.output_digest));
  detail.Key("sim_bits").BeginObject();
  for (const auto& [name, v] : r.sim) detail.Key(name).Value(Hex(Bits(v)));
  detail.EndObject();
  detail.Key("checks").BeginObject();
  for (const auto& [name, ok] : r.checks.results) detail.Key(name).Value(ok);
  detail.EndObject();
  detail.EndObject();
  detail.EndObject();
  std::printf("%s\n", detail.str().c_str());

  obs::JsonWriter result;
  result.BeginObject();
  result.Key("correct").Value(r.checks.all());
  result.Key("attempted").Value(r.attempted);
  result.Key("failed").Value(r.failed);
  result.Key("metrics").BeginObject();
  for (const Metric& m : r.metrics) {
    result.Key(m.name).BeginObject();
    result.Key("value").ValueExact(m.value);
    result.Key("unit").Value(m.unit);
    result.EndObject();
  }
  result.EndObject();
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

/// Virtual-time numbers that must be bit-identical for a given seed,
/// whatever the mode, thread timing or host.
void AddSimBits(Report& r, const ServingResult& res) {
  const ServingReport& rep = res.report();
  r.sim.emplace_back("p50_latency_s", rep.p50_latency_s);
  r.sim.emplace_back("p99_latency_s", rep.p99_latency_s);
  r.sim.emplace_back("mean_latency_s", rep.mean_latency_s);
  r.sim.emplace_back("throughput_rps", rep.throughput_rps);
  r.sim.emplace_back("mean_accuracy", rep.mean_accuracy);
  r.sim.emplace_back("batches", double(rep.batches));
  r.sim.emplace_back("rejected", double(res.admission.rejected));
}

// ------------------------------------------------------------ untraced --

int RunUntraced(const Args& args, const Workload& w, Report& report) {
  // Set-up, several times: setup_s is the median.
  std::vector<double> setup_s;
  Setup s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    s = BuildSetup(w, args.seed, args.seconds);
    setup_s.push_back(Since(t0));
  }
  report.trace_digest = TraceDigest(s.trace);

  ++report.attempted;
  const ServingResult reference = Replay(s, s.engine_cfg, s.trace);  // warm-up
  CheckReport(report.checks, reference);

  // The highest ladder rate that meets the limit, by bisection (whether a
  // rate meets it is monotone in the rate, and the adaptive workload's
  // replays are too slow to try every rung).
  const std::vector<double> ladder = RateLadder(w);
  std::ptrdiff_t pass = -1, fail = std::ptrdiff_t(ladder.size());
  while (fail - pass > 1) {
    const std::ptrdiff_t mid = (pass + fail) / 2;
    const auto trace = MakeTrace(w, ladder[mid], args.seed);
    const ServingResult res = Replay(s, s.engine_cfg, trace);
    (MeetsLimit(w, trace, res) ? pass : fail) = mid;
  }
  const double max_rps = pass >= 0 ? ladder[pass] : 0;

  // The timed phase, a fixed amount of work for a given seed and --seconds:
  // kLoopPasses passes of the closed ForwardBatch loop over every batch of
  // the executed prefix, with the workload's count of timed accounting
  // replays spread evenly between the calls, so that both sample the whole
  // phase.  Each replay gets a fresh engine (the cache persists across one
  // engine's streams), built outside the timing.
  const std::vector<ExecBatch> batches = NonEmptyExecBatches(s, reference);
  const std::size_t check_batches = CheckBatchCount(batches);
  const std::size_t replays = TimedReplays(w, args.seconds);
  const std::size_t calls = kLoopPasses * batches.size();
  std::vector<double> replay_rps;
  bool replays_identical = true;
  LoopResult loop;
  loop.batch_ms.resize(batches.size());
  loop.check_outputs.resize(check_batches);
  for (std::size_t c = 0, r = 0; c <= calls; ++c) {
    // Replay r runs before call r * calls / replays.
    for (; r < replays && r * calls <= c * replays; ++r) {
      ++report.attempted;
      try {
        ServingEngine engine(*s.model, s.engine_cfg);
        const auto t0 = Clock::now();
        const ServingResult res = engine.Replay(s.trace);
        replay_rps.push_back(double(s.trace.size()) / Since(t0));
        replays_identical =
            replays_identical && SameReport(res.report(), reference.report());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "replay failed: %s\n", e.what());
        ++report.failed;
      }
    }
    if (c < calls) {
      RunBatch(s, batches, c % batches.size(), c / batches.size(), loop);
    }
  }
  if (replay_rps.empty()) throw std::runtime_error("every timed replay failed");
  report.checks.Add("replays_identical", replays_identical);
  report.attempted += loop.calls;
  report.failed += loop.failed;

  // Each batch's time is the faster of its passes: a slow stretch of a
  // shared host inflates one pass of a batch, not both.
  std::vector<double> batch_ms;
  double loop_s = 0;
  std::size_t loop_tokens = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (loop.batch_ms[b].empty()) continue;
    batch_ms.push_back(
        *std::min_element(loop.batch_ms[b].begin(), loop.batch_ms[b].end()));
    loop_s += 1e-3 * batch_ms.back();
    loop_tokens += batches[b].tokens;
  }

  // Output checks, outside every timing.
  CheckAgainstDrain(report.checks, s, reference, batches, check_batches,
                    loop.check_outputs);
  report.output_digest = OutputDigest(loop.check_outputs);
  const double cosine = OutputCosine(s, batches, loop.check_outputs);
  report.checks.Add("output_cosine_finite", std::isfinite(cosine));

  report.counts = CountRequests(s, reference, loop.errored.size());
  AddSimBits(report, reference);
  report.sim.emplace_back("sim_max_rps", max_rps);

  const ServingReport& rep = reference.report();
  report.samples = {{"batch_ms", double(batch_ms.size())},
                    {"loop_calls", double(loop.calls)},
                    {"replays", double(replay_rps.size())},
                    {"setups", double(setup_s.size())},
                    {"exec_batches", double(batches.size())}};
  report.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"tokens_per_s", Ratio(double(loop_tokens), loop_s), "tok/s"},
      {"batch_ms_p50", Percentile(batch_ms, 0.5), "ms"},
      {"batch_ms_p90", Percentile(batch_ms, 0.9), "ms"},
      {"sim_requests_per_s",
       *std::max_element(replay_rps.begin(), replay_rps.end()), "req/s"},
      {"sim_p50_ms", 1e3 * rep.p50_latency_s, "ms"},
      {"sim_p99_ms", 1e3 * rep.p99_latency_s, "ms"},
      {"sim_max_rps", max_rps, "req/s"},
      {"served_frac",
       report.counts.offered == 0
           ? 0
           : double(report.counts.served) / double(report.counts.offered),
       "ratio"},
      {"output_cosine", cosine, "ratio"},
      {"sim_accuracy", rep.mean_accuracy, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return 0;
}

// -------------------------------------------------------------- traced --

/// Which runner slot owns a workspace (the ItemFn receives the workspace,
/// not the slot): the lane its spans go to.
std::size_t SlotOf(BatchRunner& runner, const Workspace& ws) {
  for (std::size_t i = 0; i < runner.workers(); ++i) {
    if (&runner.workspace(i) == &ws) return i;
  }
  throw std::logic_error("workspace does not belong to the runner");
}

/// QuantizedEncoderWeights::FromFloat of every model layer: the int8
/// weights ModelInstance::Forward runs, rebuilt from the public float ones.
using Layers = std::vector<QuantizedEncoderWeights>;

Layers QuantizedLayers(const ModelInstance& model) {
  Layers layers;
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    layers.push_back(QuantizedEncoderWeights::FromFloat(model.layer(l)));
  }
  return layers;
}

struct LayerCounters {
  std::size_t int8_macs = 0;
  std::size_t lut_multiplies = 0;
  std::size_t exact_macs = 0;
};

/// ModelInstance::Forward recomposed from its public parts, with a span
/// around every layer and every attention call.
MatrixF TracedForward(const Setup& s, const Layers& layers,
                      const MatrixF& x, const SparseAttentionConfig& sa,
                      AttentionScratch& scratch, SpanLog& log,
                      std::size_t lane, SpanRef parent, std::uint64_t id,
                      LayerCounters& counters) {
  const EncoderConfig& enc = s.model->config().encoder;
  MatrixF h = x;
  for (const QuantizedEncoderWeights& q : layers) {
    const SpanRef layer = log.Open(lane, "nn.layer", parent, id);
    const AttentionFn attn = [&](const MatrixF& qh, const MatrixF& kh,
                                 const MatrixF& vh) {
      const SpanRef span = log.Open(lane, "core.attention", layer, id);
      SparseAttentionStats stats;
      MatrixF ctx = SparseAttention(qh, kh, vh, sa, &stats, scratch);
      log.Close(span);
      counters.lut_multiplies += stats.lut_multiplies;
      counters.exact_macs += stats.exact_macs;
      return ctx;
    };
    h = QuantizedEncoderForward(h, q, enc, attn);
    log.Close(layer);
    const std::size_t n = x.rows();
    for (const QuantizedLinear* l :
         {&q.wq, &q.wk, &q.wv, &q.wo, &q.ffn1, &q.ffn2}) {
      counters.int8_macs += l->MacCount(n);
    }
  }
  return h;
}

/// The same recomposition with the Stage-1 and dense-reference probes:
/// SelectCandidates, SparseAttention and DenseAttentionWorkspace timed as
/// separate calls on the hook's q, k and v.
MatrixF ProbedForward(const Setup& s, const Layers& layers, const MatrixF& x,
                      const SparseAttentionConfig& sa, Workspace& ws,
                      SpanLog& log, std::size_t lane, SpanRef parent,
                      std::uint64_t id) {
  const EncoderConfig& enc = s.model->config().encoder;
  SelectorConfig sel;
  sel.top_k = sa.top_k;
  sel.bits = sa.bits;
  MatrixF h = x;
  for (const QuantizedEncoderWeights& q : layers) {
    const SpanRef layer = log.Open(lane, "core.probe_layer", parent, id);
    const AttentionFn attn = [&](const MatrixF& qh, const MatrixF& kh,
                                 const MatrixF& vh) {
      SpanRef span = log.Open(lane, "core.stage1", layer, id);
      const SelectionResult picked = SelectCandidates(qh, kh, sel);
      log.Close(span);
      span = log.Open(lane, "core.sparse", layer, id);
      MatrixF ctx = SparseAttention(qh, kh, vh, sa, nullptr, ws.attention());
      log.Close(span);
      span = log.Open(lane, "core.dense_ref", layer, id);
      const MatrixF dense = DenseAttentionWorkspace(qh, kh, vh, ws);
      log.Close(span);
      if (picked.candidates.size() != qh.rows() ||
          dense.rows() != ctx.rows()) {
        throw std::logic_error("probe shapes disagree");
      }
      return ctx;
    };
    h = QuantizedEncoderForward(h, q, enc, attn);
    log.Close(layer);
  }
  return h;
}

int RunTraced(const Args& args, const Workload& w, Report& report) {
  Setup s = BuildSetup(w, args.seed, args.seconds);
  const Layers layers = QuantizedLayers(*s.model);
  report.trace_digest = TraceDigest(s.trace);
  const std::size_t caller = kThreads;  // the calling thread's lane
  SpanLog log(kThreads + 1);

  // Untraced reference replay, then the traced one: a span per Push, one
  // around Drain, and the twin's service model wrapped with a timer.
  ++report.attempted;
  const ServingResult reference = Replay(s, s.engine_cfg, s.trace);
  CheckReport(report.checks, reference);
  SpanRef serve_span = kNoParent;
  std::size_t service_calls = 0;
  auto timed = [&](BatchServiceModel inner) -> BatchServiceModel {
    return [&log, &serve_span, &service_calls, caller,
            inner](const std::vector<std::size_t>& lengths) {
      const SpanRef span = log.Open(caller, "fpga.service", serve_span,
                                    service_calls++);
      const double t = inner(lengths);
      log.Close(span);
      return t;
    };
  };
  ServingEngineConfig traced_cfg = s.engine_cfg;
  traced_cfg.service = timed(traced_cfg.service);
  for (BatchServiceModel& m : traced_cfg.tier_services) m = timed(m);
  ServingResult traced;
  {
    ++report.attempted;
    ServingEngine engine(*s.model, traced_cfg);
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      serve_span = log.Open(caller, "serve.push", kNoParent, i);
      engine.Push(s.trace[i]);
      log.Close(serve_span);
    }
    serve_span = log.Open(caller, "serve.drain", kNoParent, 0);
    traced = engine.Drain();
    log.Close(serve_span);
  }
  report.checks.Add("traced_sim_identical",
                    SameReport(traced.report(), reference.report()));

  // A fixed half of the executed prefix, once untraced (ForwardBatch)
  // and once traced (BatchRunner::Run over the recomposed forward),
  // alternating per batch so both see the same host conditions.
  std::vector<ExecBatch> batches = NonEmptyExecBatches(s, reference);
  const std::size_t check_batches = CheckBatchCount(batches);
  {
    const double target = 0.5 * args.seconds * w.exec_tokens_per_second;
    std::size_t keep = 0;
    double tokens = 0;
    while (keep < batches.size() && (keep < check_batches || tokens < target)) {
      tokens += double(batches[keep++].tokens);
    }
    batches.resize(keep);
  }
  BatchRunner& runner = *s.runner;
  std::vector<double> untraced_ms;
  std::vector<std::vector<MatrixF>> check_outputs;
  bool recomposed_identical = true;
  std::size_t tokens = 0;
  std::vector<LayerCounters> counters(kThreads);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const ExecBatch& eb = batches[b];
    const std::vector<MatrixF> xs = BatchInputs(s, eb);
    const InferenceConfig inf = TierConfig(s, eb);
    report.attempted += 2;
    std::vector<MatrixF> ys;
    try {
      const auto c0 = Clock::now();
      ys = s.model->ForwardBatch(xs, inf, runner);
      untraced_ms.push_back(1e3 * Since(c0));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ForwardBatch failed: %s\n", e.what());
      ++report.failed;
    }
    std::vector<MatrixF> traced_ys(xs.size());
    const SpanRef batch_span =
        log.Open(caller, "runtime.batch", kNoParent, eb.index);
    try {
      runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
        const std::size_t lane = SlotOf(runner, ws);
        const SpanRef fwd =
            log.Open(lane, "model.forward", batch_span, eb.ordinals[i]);
        traced_ys[i] = TracedForward(s, layers, xs[i], inf.sparse,
                                     ws.attention(), log, lane, fwd,
                                     eb.ordinals[i], counters[lane]);
        log.Close(fwd);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "traced batch failed: %s\n", e.what());
      ++report.failed;
    }
    log.Close(batch_span);
    tokens += eb.tokens;
    bool same = ys.size() == traced_ys.size();
    for (std::size_t i = 0; same && i < ys.size(); ++i) {
      same = SameBits(ys[i], traced_ys[i]);
    }
    recomposed_identical = recomposed_identical && same;
    if (b < check_batches) check_outputs.push_back(std::move(ys));
  }
  // ModelInstance::Forward itself, on the checked sequences.
  for (std::size_t b = 0; b < check_batches && b < check_outputs.size(); ++b) {
    const std::vector<MatrixF> xs = BatchInputs(s, batches[b]);
    const InferenceConfig inf = TierConfig(s, batches[b]);
    for (std::size_t i = 0; i < xs.size() && i < check_outputs[b].size();
         ++i) {
      recomposed_identical = recomposed_identical &&
                             SameBits(s.model->Forward(xs[i], inf),
                                      check_outputs[b][i]);
    }
  }
  report.checks.Add("recomposed_matches_forward", recomposed_identical);
  report.output_digest = OutputDigest(check_outputs);

  // Stage-1 / dense-reference probes, single-threaded on the caller lane
  // (the runner is idle, so its slot-0 workspace is free), over the
  // checked sequences.
  for (std::size_t b = 0; b < check_batches; ++b) {
    const std::vector<MatrixF> xs = BatchInputs(s, batches[b]);
    const InferenceConfig inf = TierConfig(s, batches[b]);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const SpanRef seq = log.Open(caller, "core.probe", kNoParent,
                                   batches[b].ordinals[i]);
      ProbedForward(s, layers, xs[i], inf.sparse, runner.workspace(0), log,
                    caller, seq, batches[b].ordinals[i]);
      log.Close(seq);
    }
  }

  report.counts = CountRequests(s, reference, 0);
  AddSimBits(report, reference);

  // ---- per-layer metrics from the spans.
  const auto batch_t = log.Sum("runtime.batch");
  const auto item_t = log.Sum("model.forward");
  const auto layer_t = log.Sum("nn.layer");
  const auto attn_t = log.Sum("core.attention");
  const double dense_ops_ms = log.SelfMs("nn.layer");
  const auto probe_layers = log.Sum("core.probe_layer");
  const auto stage1_t = log.Sum("core.stage1");
  const auto sparse_t = log.Sum("core.sparse");
  const auto dense_t = log.Sum("core.dense_ref");
  const auto push_t = log.Durations("serve.push");
  const auto drain_t = log.Sum("serve.drain");
  const auto service_t = log.Durations("fpga.service");
  LayerCounters total;
  for (const LayerCounters& c : counters) {
    total.int8_macs += c.int8_macs;
    total.lut_multiplies += c.lut_multiplies;
    total.exact_macs += c.exact_macs;
  }
  const double layer_calls = double(std::max<std::size_t>(layer_t.count, 1));
  const double probe_calls =
      double(std::max<std::size_t>(probe_layers.count, 1));

  // Queue wait (virtual time) of each request's first admission.
  std::vector<double> waits;
  {
    std::vector<std::uint8_t> seen(reference.admission.offered, 0);
    for (std::size_t b = 0; b < reference.batches.size(); ++b) {
      for (std::size_t idx : reference.batches[b].indices) {
        const std::size_t o = reference.offered_ids[idx];
        if (seen[o] != 0) continue;
        seen[o] = 1;
        waits.push_back(reference.schedule.launch_s[b] - s.trace[o].arrival_s);
      }
    }
  }
  const ServingReport& rep = reference.report();
  const CacheStats& cache = reference.cache;
  std::size_t final_requests = 0, degraded = 0, first_passes = 0,
              escalated = 0;
  for (std::size_t t = 0; t < rep.tiers.size(); ++t) {
    final_requests += rep.tiers[t].requests;
    if (t > 0) degraded += rep.tiers[t].requests;
    if (s.engine_cfg.adapt.tiers[t].escalate) {
      first_passes += rep.tiers[t].requests + rep.tiers[t].escalated;
      escalated += rep.tiers[t].escalated;
    }
  }
  auto tier_batches = [&](std::size_t t) {
    return t < rep.tiers.size() ? double(rep.tiers[t].batches) : 0.0;
  };
  const double untraced_s = Sum(untraced_ms);
  const double serve_ms = Sum(push_t) + drain_t.ms;

  report.samples = {{"exec_batches", double(batches.size())},
                    {"probe_sequences", double(log.Sum("core.probe").count)},
                    {"spans", [&] {
                       double n = 0;
                       for (const auto& lane : log.lanes()) n += lane.size();
                       return n;
                     }()}};
  report.metrics = {
      {"runtime.batch_ms", Ratio(batch_t.ms, double(batch_t.count)), "ms"},
      {"runtime.item_ms", Ratio(item_t.ms, double(item_t.count)), "ms"},
      {"runtime.items", double(item_t.count), "count"},
      {"runtime.idle_frac", 1 - Ratio(item_t.ms, batch_t.ms * kThreads),
       "ratio"},
      {"model.seq_ms_p50", Percentile(log.Durations("model.forward"), 0.5),
       "ms"},
      {"model.seq_ms_p99", Percentile(log.Durations("model.forward"), 0.99),
       "ms"},
      {"model.us_per_token", Ratio(1e3 * item_t.ms, double(tokens)), "us"},
      {"nn.layer_ms", layer_t.ms / layer_calls, "ms"},
      {"nn.dense_ops_ms", dense_ops_ms / layer_calls, "ms"},
      {"nn.int8_macs", double(total.int8_macs), "count"},
      {"nn.dense_ops_gmacs_per_s",
       Ratio(double(total.int8_macs), dense_ops_ms * 1e-3) * 1e-9, "GMAC/s"},
      {"core.attention_ms", attn_t.ms / layer_calls, "ms"},
      {"core.attention_calls", double(attn_t.count), "count"},
      {"core.attention_share", Ratio(attn_t.ms, layer_t.ms), "ratio"},
      {"core.stage1_ms", stage1_t.ms / probe_calls, "ms"},
      {"core.stage1_share", Ratio(stage1_t.ms, sparse_t.ms), "ratio"},
      {"core.stage2_ms", (sparse_t.ms - stage1_t.ms) / probe_calls, "ms"},
      {"core.lut_multiplies", double(total.lut_multiplies), "count"},
      {"core.exact_macs", double(total.exact_macs), "count"},
      {"core.dense_ref_ms", dense_t.ms / probe_calls, "ms"},
      {"core.sparse_over_dense", Ratio(sparse_t.ms, dense_t.ms), "ratio"},
      {"serve.push_us_p50", 1e3 * Percentile(push_t, 0.5), "us"},
      {"serve.push_us_p99", 1e3 * Percentile(push_t, 0.99), "us"},
      {"serve.drain_ms", drain_t.ms, "ms"},
      {"serve.batches", double(rep.batches), "count"},
      {"serve.mean_batch_size", rep.mean_batch_size, "count"},
      {"serve.queue_wait_ms_p99", 1e3 * Percentile(waits, 0.99), "ms"},
      {"serve.busy_frac", rep.device_busy_frac, "ratio"},
      {"fpga.service_calls", double(service_t.size()), "count"},
      {"fpga.service_us_p50", 1e3 * Percentile(service_t, 0.5), "us"},
      {"fpga.service_share", Ratio(Sum(service_t), serve_ms), "ratio"},
      {"cache.hit_rate", CacheHitRate(cache), "ratio"},
      {"cache.coalesced_rate",
       Ratio(double(cache.coalesced), double(cache.lookups)), "ratio"},
      {"cache.evictions", double(cache.store.evictions), "count"},
      {"cache.executed_frac",
       Ratio(double(reference.admission.accepted),
             double(reference.admission.offered)),
       "ratio"},
      {"adapt.degraded_frac", Ratio(double(degraded), double(final_requests)),
       "ratio"},
      {"adapt.escalation_rate", Ratio(double(escalated), double(first_passes)),
       "ratio"},
      {"adapt.shed_frac",
       Ratio(double(report.counts.shed), double(report.counts.offered)),
       "ratio"},
      {"adapt.tier_batches.0", tier_batches(0), "count"},
      {"adapt.tier_batches.1", tier_batches(1), "count"},
      {"adapt.tier_batches.2", tier_batches(2), "count"},
      {"obs.trace_overhead", 1 - Ratio(untraced_s, batch_t.ms), "ratio"},
  };

  if (!args.spans_path.empty() && !log.WriteChromeTrace(args.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 args.spans_path.c_str());
    report.checks.Add("spans_written", false);
  }
  return 0;
}

}  // namespace
}  // namespace latte::bench

int main(int argc, char** argv) {
  using namespace latte::bench;
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latte_bench: %s\n", e.what());
    return 2;
  }
  const Workload& w = FindWorkload(args.workload);
  Report report;
  report.args = &args;
  report.load_before = ReadLoadAvg();
  try {
    const int rc = args.trace ? RunTraced(args, w, report)
                              : RunUntraced(args, w, report);
    if (rc != 0) return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "latte_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latte_bench: %s\n", e.what());
    return 1;
  }
  report.load_after = ReadLoadAvg();
  Print(report);
  return report.checks.all() ? 0 : 1;
}
