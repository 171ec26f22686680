#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace latte::bench {
namespace {

constexpr std::size_t kTopK = 30;

std::vector<Workload> Registry() {
  std::vector<Workload> out;
  {
    // Long, uneven sequences below the twin's knee (~1.5k rps): Stage 1's
    // n^2*d selection is the largest attention cost and the length tail
    // makes batches uneven, so core and runtime changes show here.  No
    // cache, no adaptation, unbounded queue.
    Workload w;
    w.name = "squad_long";
    w.dataset = Squad();
    w.traffic = Traffic::kPoisson;
    w.rate_rps = 1000;
    w.requests = 40000;
    w.latency_limit_s = 0.020;
    w.ladder_base_rps = 600;
    w.ladder_rungs = 30;
    w.replays_per_second = 0.2;
    w.exec_tokens_per_second = 2000;
    out.push_back(w);
  }
  {
    // Short sequences where the int8 GEMMs dominate (a Stage-1 change
    // should leave this flat, a GEMM change should not), with Zipf-popular
    // content through the result cache.  The population is large enough
    // that misses -- not hits -- are most of the traffic, so the executed
    // batches number about 170 per run at --seconds 32.
    Workload w;
    w.name = "mrpc_zipf_cached";
    w.dataset = Mrpc();
    w.traffic = Traffic::kZipf;
    w.rate_rps = 4000;
    w.requests = 20000;
    w.population = 100000;
    w.skew = 0.9;
    w.cache = true;
    w.latency_limit_s = 0.010;
    w.ladder_base_rps = 2500;
    w.ladder_rungs = 40;
    w.replays_per_second = 1;
    w.exec_tokens_per_second = 2500;
    out.push_back(w);
  }
  {
    // Warm-up -> overload -> cool-down through a bounded queue and the
    // 3-tier adaptive ladder: the only workload on the engine's adaptive
    // path (tiered forming, escalation re-runs, shedding).
    Workload w;
    w.name = "rte_adaptive_ramp";
    w.dataset = Rte();
    w.traffic = Traffic::kRamp;
    w.rate_rps = 8000;
    // Fewer requests than the others: the escalation probe makes an
    // adaptive replay ~100x slower per request than a plain one, and a
    // run needs several replays for the fastest to be steady.
    w.requests = 2000;
    w.queue_capacity = 32;
    w.adaptive = true;
    w.latency_limit_s = 0.010;
    w.ladder_base_rps = 2000;
    w.ladder_rungs = 30;
    w.replays_per_second = 0.4;
    w.exec_tokens_per_second = 1500;
    out.push_back(w);
  }
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = Registry();
  return workloads;
}

AdaptiveServingConfig AdaptiveLadder() {
  // Tier accuracies come from the fidelity model's top_k -> output-cosine
  // table at this model's head width over RTE's length range.
  TierAccuracyTableConfig table_cfg;
  table_cfg.workload = WorkloadForDataset(Rte());
  table_cfg.workload.head_dim = BenchModel().encoder.head_dim();
  table_cfg.lengths = {48, 96, 160, 253};
  const std::vector<std::size_t> top_ks = {8, 16, kTopK};
  const TierAccuracyTable table = BuildTopKAccuracyTable(table_cfg, top_ks);

  AdaptiveServingConfig adapt;
  adapt.enabled = true;
  // The twin prices the three tiers within ~1% of each other at RTE
  // lengths, so the tier mix follows the controller's pressure, not the
  // tiers' capacity.  The controller steps one tier per epoch; a 40 ms
  // epoch holds tier 1 for about one epoch on the way into and out of the
  // overload, so that every tier forms a steady share of the batches
  // (seeds 1-10: 43-48 of ~300 at tier 1).  A shorter epoch passes
  // through tier 1 in a few batches.
  adapt.slo_p99_s = 0.020;
  adapt.epoch_s = 0.040;
  adapt.queue_ref = 16;
  // Below the mean the controller reaches on its own (~0.985), so tiers
  // are picked by pressure alone: a binding floor makes the tier mix, and
  // with it the number of escalation probes a replay pays for, swing from
  // seed to seed.
  adapt.accuracy_floor = 0.97;
  // The 4-bit selector margin of BERT-base/4 at k = 8 over RTE lengths
  // has median ~0.066 and 10th percentile ~0.056; 0.06 escalates the
  // least certain first passes, 31-42% of them on seeds 1-10 (the 0.35
  // default escalates all).
  adapt.escalate_margin = 0.06;
  // The probe dominates an adaptive replay's cost, and the tier-8 share
  // it runs on swings with the seed (40-80 batches on seeds 101-110), so
  // at the default 64 rows the replay rate swung 2x from seed to seed.
  // 16 rows keeps the probe in the path and cut the replay time by ~40%.
  adapt.escalate_rows = 16;
  adapt.tiers = {{kTopK, false, AccuracyForTopK(table, kTopK)},
                 {16, false, AccuracyForTopK(table, 16)},
                 {8, true, AccuracyForTopK(table, 8)}};
  return adapt;
}

}  // namespace

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ModelConfig BenchModel() { return ScaledDown(BertBase(), 4); }

std::vector<TimedRequest> MakeTrace(const Workload& w, double rate_rps,
                                    std::uint64_t seed) {
  switch (w.traffic) {
    case Traffic::kPoisson: {
      PoissonTraceConfig cfg;
      cfg.arrival_rate_rps = rate_rps;
      cfg.requests = w.requests;
      cfg.seed = seed;
      return GeneratePoissonTrace(cfg, w.dataset);
    }
    case Traffic::kZipf: {
      ZipfTraceConfig cfg;
      cfg.arrival_rate_rps = rate_rps;
      cfg.requests = w.requests;
      cfg.population = w.population;
      cfg.skew = w.skew;
      cfg.seed = seed;
      return GenerateZipfTrace(cfg, w.dataset);
    }
    case Traffic::kRamp: {
      // A quarter of the requests at 30% of the peak, half at the peak,
      // a quarter at 30% again.
      RampTraceConfig cfg;
      cfg.stages = {{0.3 * rate_rps, w.requests / 4},
                    {rate_rps, w.requests / 2},
                    {0.3 * rate_rps, w.requests - w.requests / 4 -
                                         w.requests / 2}};
      cfg.seed = seed;
      return GenerateRampTrace(cfg, w.dataset);
    }
  }
  throw std::logic_error("MakeTrace: unhandled traffic kind");
}

std::size_t TimedReplays(const Workload& w, double seconds) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(seconds * w.replays_per_second)));
}

std::vector<double> RateLadder(const Workload& w) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < w.ladder_rungs; ++i) {
    rates.push_back(w.ladder_base_rps * std::pow(1.05, double(i)));
  }
  return rates;
}

ServingEngineConfig MakeEngineConfig(const Workload& w, std::size_t threads,
                                     std::uint64_t embed_seed) {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.002;
  cfg.workers = 1;
  cfg.threads = threads;
  cfg.queue_capacity = w.queue_capacity;
  cfg.execute = false;
  cfg.embed_seed = embed_seed;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = kTopK;
  cfg.inference.sparse.bits = 1;

  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = BenchModel();
  spec.accel.top_k = kTopK;
  cfg.service = BuildServiceModel(spec);

  if (w.cache) {
    cfg.cache.enabled = true;
    cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  }
  if (w.adaptive) {
    cfg.adapt = AdaptiveLadder();
    cfg.tier_services = BuildTierServiceModels(spec, cfg.adapt.tiers);
  }
  return cfg;
}

}  // namespace latte::bench
