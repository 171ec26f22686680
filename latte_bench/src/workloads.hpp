#pragma once
// The benchmark's workloads: traffic shape, engine configuration and the
// rate ladder sim_max_rps climbs.  Every workload runs the same model
// (BERT-base/4 in kSparseInt8, top_k 30, 1-bit codes) priced by the FPGA
// twin; they differ in the lengths, the arrival process and which engine
// layers (cache, adaptive ladder, bounded queue) the traffic goes through.

#include <cstdint>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte::bench {

enum class Traffic { kPoisson, kZipf, kRamp };

struct Workload {
  std::string name;
  DatasetSpec dataset;
  Traffic traffic = Traffic::kPoisson;
  /// Offered rate (ramp: the peak stage's rate).
  double rate_rps = 0;
  std::size_t requests = 0;
  std::size_t population = 0;  ///< kZipf: distinct contents
  double skew = 0;             ///< kZipf: popularity exponent
  std::size_t queue_capacity = 0;
  bool cache = false;
  bool adaptive = false;
  /// sim_max_rps: a rate passes when >= 99% of offered requests finish
  /// within this limit and throughput keeps up with the offered rate.
  double latency_limit_s = 0;
  /// sim_max_rps ladder: ladder_base_rps * 1.05^i, i = 0..ladder_rungs-1.
  double ladder_base_rps = 0;
  std::size_t ladder_rungs = 0;
  /// Timed accounting replays per second of --seconds (at least 2 run).
  double replays_per_second = 0;
  /// Offered tokens whose inputs are materialized at set-up, per second
  /// of --seconds: the prefix each pass of the ForwardBatch loop executes.
  double exec_tokens_per_second = 0;
};

/// The workload registered under `name` in BENCHMARK.json; throws
/// std::invalid_argument for an unknown name.
const Workload& FindWorkload(const std::string& name);

/// The model every workload serves.
ModelConfig BenchModel();

/// The workload's trace at `rate_rps` (the ramp scales every stage).
std::vector<TimedRequest> MakeTrace(const Workload& w, double rate_rps,
                                    std::uint64_t seed);

/// The number of timed accounting replays in a run of `seconds`.
std::size_t TimedReplays(const Workload& w, double seconds);

/// The rates sim_max_rps tries, ascending.
std::vector<double> RateLadder(const Workload& w);

/// Accounting-only engine configuration (execute = false) priced by the
/// FPGA twin, with the workload's cache / adaptive ladder / queue bound.
/// Builds the top_k -> accuracy table for the adaptive ladder.
ServingEngineConfig MakeEngineConfig(const Workload& w, std::size_t threads,
                                     std::uint64_t embed_seed);

}  // namespace latte::bench
